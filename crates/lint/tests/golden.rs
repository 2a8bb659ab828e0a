//! Golden tests: seeded fixture workspaces must yield exact
//! file:line:rule diagnostics (and `ws/crates/core/src/silent.rs`, the
//! constructs the rules must read past, none), the real workspace must be
//! clean, and the CLI must use the documented exit codes.

use std::path::{Path, PathBuf};
use std::process::Command;

use vcdn_lint::check_workspace;

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn repo_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    root.canonicalize().expect("repo root exists")
}

/// The exact findings seeded in `fixtures/ws`, as `file:line: [rule]`.
const SEEDED: [&str; 4] = [
    "crates/core/src/lib.rs:5: [literal-index]",
    "crates/core/src/tiers.rs:5: [clock-arith]",
    "crates/types/src/counters.rs:7: [clock-arith]",
    "crates/types/src/lib.rs:5: [float-eq]",
];

fn vcdn_lint(args: &[&str], root: Option<&Path>) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_vcdn-lint"));
    cmd.args(args);
    if let Some(root) = root {
        cmd.arg("--root").arg(root);
    }
    cmd.output().expect("run vcdn-lint")
}

#[test]
fn seeded_fixture_reports_one_exact_finding_per_rule() {
    let report = check_workspace(&fixture("ws")).expect("fixture ws checks");
    let got = report
        .findings
        .iter()
        .map(|f| format!("{}:{}: [{}]", f.file, f.line, f.rule));
    let got: Vec<String> = got.collect();
    assert_eq!(got, SEEDED, "full findings: {:#?}", report.findings);
    assert_eq!(report.suppressed, 0);
    assert!(report.allow_errors.is_empty());
    assert!(!report.is_clean());
}

#[test]
fn seeded_fixture_covers_every_rule() {
    let report = check_workspace(&fixture("ws")).expect("fixture ws checks");
    for rule in vcdn_lint::RULES {
        let seeded = report.findings.iter().any(|f| f.rule == rule.name);
        assert!(
            seeded,
            "fixture ws has no seeded violation for rule `{}`",
            rule.name
        );
    }
}

#[test]
fn allow_fixture_suppresses_flags_stale_and_rejects_bad_justification() {
    let report = check_workspace(&fixture("ws-allow")).expect("fixture ws-allow checks");
    // The seeded literal index is suppressed by the valid entry...
    let findings = &report.findings;
    assert!(findings.is_empty(), "findings: {findings:#?}");
    assert_eq!(report.suppressed, 1);
    // ...but the stale entry and the justification-less entry are errors,
    // so the workspace is still not clean.
    let errors: Vec<&str> = report
        .allow_errors
        .iter()
        .map(|e| e.message.as_str())
        .collect();
    assert_eq!(errors.len(), 2, "errors: {errors:#?}");
    assert!(errors.iter().any(|e| e.contains("justification")));
    assert!(errors.iter().any(|e| e.contains("stale")));
    assert!(!report.is_clean());
}

#[test]
fn real_workspace_is_clean() {
    let report = check_workspace(&repo_root()).expect("workspace checks");
    let findings = &report.findings;
    assert!(findings.is_empty(), "unsuppressed findings: {findings:#?}");
    let errors = &report.allow_errors;
    assert!(errors.is_empty(), "lint.allow problems: {errors:#?}");
    assert!(report.files_scanned > 50, "workspace walk looks truncated");
}

#[test]
fn cli_exit_codes_match_contract() {
    // Clean workspace -> 0.
    let out = vcdn_lint(&["--check"], Some(&repo_root()));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    // Seeded violations -> 1, with file:line:rule diagnostics on stdout.
    let out = vcdn_lint(&["--check"], Some(&fixture("ws")));
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in SEEDED {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
    // Allowlist problems alone also fail the check.
    let out = vcdn_lint(&["--check"], Some(&fixture("ws-allow")));
    assert_eq!(out.status.code(), Some(1));
    // --explain works for every rule; unknown rules are usage errors.
    for rule in vcdn_lint::RULES {
        let out = vcdn_lint(&["--explain", rule.name], None);
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("WHY"));
    }
    let out = vcdn_lint(&["--explain", "no-such-rule"], None);
    assert_eq!(out.status.code(), Some(2));
}
