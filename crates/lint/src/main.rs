//! `vcdn-lint` CLI.
//!
//! ```text
//! vcdn-lint --check [--root <dir>]   # exit 0 clean, 1 findings, 2 usage
//! vcdn-lint --explain <rule>
//! vcdn-lint --list-rules
//! ```

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use vcdn_lint::{check_workspace, rule_by_name, RULES};

const USAGE: &str = "vcdn-lint: workspace static analysis for vcdn

USAGE:
  vcdn-lint --check [--root <dir>]   check the workspace (default mode)
  vcdn-lint --explain <rule>         print a rule's rationale and fixes
  vcdn-lint --list-rules             list rule names and summaries

Exit codes: 0 clean, 1 findings or allowlist errors, 2 usage/IO error.
Suppressions live in <root>/lint.allow: `rule | path | needle | justification`.";

fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut mode, mut explain, mut root) = ("--check", None, None);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" | "--list-rules" => mode = arg,
            "--explain" => match args.next() {
                Some(name) => (mode, explain) = ("--explain", Some(name)),
                None => return usage_error("--explain requires a rule name; try --list-rules"),
            },
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage_error("--root requires a directory"),
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    match (mode, explain.map(|name| rule_by_name(name).ok_or(name))) {
        ("--list-rules", _) => RULES
            .iter()
            .for_each(|r| println!("{:<14} {}", r.name, r.summary)),
        ("--explain", Some(Ok(r))) => println!("{} — {}\n\n{}", r.name, r.summary, r.explain),
        ("--explain", Some(Err(name))) => {
            let known: String = RULES.iter().map(|r| format!("\n  {}", r.name)).collect();
            return usage_error(&format!("unknown rule `{name}`; known rules:{known}"));
        }
        _ => return run_check(root),
    }
    ExitCode::SUCCESS
}

fn run_check(root: Option<PathBuf>) -> ExitCode {
    // Without --root: the nearest directory above the current one whose
    // Cargo.toml declares a [workspace].
    let cwd = std::env::current_dir();
    let is_root = |d: &&Path| {
        fs::read_to_string(d.join("Cargo.toml")).is_ok_and(|m| m.contains("[workspace]"))
    };
    let found = cwd
        .as_ref()
        .ok()
        .and_then(|d| d.ancestors().find(is_root).map(PathBuf::from));
    let Some(root) = root.or(found) else {
        return usage_error(&match cwd {
            Ok(d) => format!("no workspace root found above {}; pass --root", d.display()),
            Err(e) => format!("cannot determine current directory: {e}"),
        });
    };
    let report = match check_workspace(&root) {
        Ok(r) => r,
        Err(e) => return usage_error(&format!("vcdn-lint: {e}")),
    };
    report.allow_errors.iter().for_each(|e| eprintln!("{e}"));
    for f in &report.findings {
        println!(
            "{}:{}: [{}] {} — `{}`",
            f.file, f.line, f.rule, f.message, f.snippet
        );
    }
    let (files, suppressed) = (report.files_scanned, report.suppressed);
    if report.is_clean() {
        eprintln!("vcdn-lint: clean — {files} files scanned, {suppressed} finding(s) suppressed by lint.allow");
        return ExitCode::SUCCESS;
    }
    let (findings, errors) = (report.findings.len(), report.allow_errors.len());
    eprintln!("vcdn-lint: {findings} finding(s), {errors} allowlist error(s) ({files} files scanned, {suppressed} suppressed)");
    ExitCode::FAILURE
}
