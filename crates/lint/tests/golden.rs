//! Golden tests: seeded fixture workspaces must yield exact
//! file:line:rule diagnostics, the real workspace must be clean, and the
//! CLI must use the documented exit codes.

use std::path::{Path, PathBuf};
use std::process::Command;

use vcdn_lint::check_workspace;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

#[test]
fn seeded_fixture_reports_one_exact_finding_per_rule() {
    let report = check_workspace(&fixture("ws")).expect("fixture ws checks");
    let got: Vec<(String, u32, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.rule))
        .collect();
    let want = vec![
        ("crates/core/src/lib.rs".to_string(), 6, "hot-path"),
        ("crates/core/src/lib.rs".to_string(), 12, "literal-index"),
        ("crates/sim/src/engine.rs".to_string(), 7, "lock-discipline"),
        (
            "crates/types/src/ahead.rs".to_string(),
            7,
            "lock-discipline",
        ),
        ("crates/types/src/counters.rs".to_string(), 7, "clock-arith"),
        ("crates/types/src/lib.rs".to_string(), 5, "float-eq"),
    ];
    assert_eq!(got, want, "full findings: {:#?}", report.findings);
    assert_eq!(report.suppressed, 0);
    assert!(report.allow_errors.is_empty());
    assert!(!report.is_clean());
}

#[test]
fn seeded_fixture_covers_every_rule() {
    let report = check_workspace(&fixture("ws")).expect("fixture ws checks");
    for rule in vcdn_lint::RULES {
        assert!(
            report.findings.iter().any(|f| f.rule == rule.name),
            "fixture ws has no seeded violation for rule `{}`",
            rule.name
        );
    }
}

#[test]
fn allow_fixture_suppresses_flags_stale_and_rejects_bad_justification() {
    let report = check_workspace(&fixture("ws-allow")).expect("fixture ws-allow checks");
    // The seeded literal index is suppressed by the valid entry...
    assert!(
        report.findings.is_empty(),
        "findings: {:#?}",
        report.findings
    );
    assert_eq!(report.suppressed, 1);
    // ...but the stale entry and the justification-less entry are errors,
    // so the workspace is still not clean.
    assert_eq!(
        report.allow_errors.len(),
        2,
        "errors: {:#?}",
        report.allow_errors
    );
    assert!(report
        .allow_errors
        .iter()
        .any(|e| e.message.contains("justification")));
    assert!(report
        .allow_errors
        .iter()
        .any(|e| e.message.contains("stale")));
    assert!(!report.is_clean());
}

#[test]
fn real_workspace_is_clean() {
    let report = check_workspace(&repo_root()).expect("workspace checks");
    assert!(
        report.findings.is_empty(),
        "unsuppressed findings in the real workspace: {:#?}",
        report.findings
    );
    assert!(
        report.allow_errors.is_empty(),
        "lint.allow problems: {:#?}",
        report.allow_errors
    );
    assert!(report.files_scanned > 50, "workspace walk looks truncated");
}

#[test]
fn cli_exit_codes_match_contract() {
    let bin = env!("CARGO_BIN_EXE_vcdn-lint");
    // Clean workspace -> 0.
    let out = Command::new(bin)
        .args(["--check", "--root"])
        .arg(repo_root())
        .output()
        .expect("run vcdn-lint");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Seeded violations -> nonzero, with file:line:rule diagnostics on stdout.
    let out = Command::new(bin)
        .args(["--check", "--root"])
        .arg(fixture("ws"))
        .output()
        .expect("run vcdn-lint");
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "crates/core/src/lib.rs:6: [hot-path]",
        "crates/core/src/lib.rs:12: [literal-index]",
        "crates/sim/src/engine.rs:7: [lock-discipline]",
        "crates/types/src/ahead.rs:7: [lock-discipline]",
        "crates/types/src/counters.rs:7: [clock-arith]",
        "crates/types/src/lib.rs:5: [float-eq]",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }

    // Allowlist problems alone also fail the check.
    let out = Command::new(bin)
        .args(["--check", "--root"])
        .arg(fixture("ws-allow"))
        .output()
        .expect("run vcdn-lint");
    assert_eq!(out.status.code(), Some(1));

    // --explain works for every rule; unknown rules are usage errors.
    for rule in vcdn_lint::RULES {
        let out = Command::new(bin)
            .args(["--explain", rule.name])
            .output()
            .expect("run vcdn-lint");
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("WHY"));
    }
    let out = Command::new(bin)
        .args(["--explain", "no-such-rule"])
        .output()
        .expect("run vcdn-lint");
    assert_eq!(out.status.code(), Some(2));
}
