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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode = Mode::Check;
    let mut root: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => mode = Mode::Check,
            "--list-rules" => mode = Mode::ListRules,
            "--explain" => {
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("--explain requires a rule name; try --list-rules");
                    return ExitCode::from(2);
                };
                mode = Mode::Explain(name.clone());
            }
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--root requires a directory");
                    return ExitCode::from(2);
                };
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                print_usage();
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    match mode {
        Mode::ListRules => {
            for r in RULES {
                println!("{:<14} {}", r.name, r.summary);
            }
            ExitCode::SUCCESS
        }
        Mode::Explain(name) => match rule_by_name(&name) {
            Some(r) => {
                println!("{} — {}\n\n{}", r.name, r.summary, r.explain);
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown rule `{name}`; known rules:");
                for r in RULES {
                    eprintln!("  {}", r.name);
                }
                ExitCode::from(2)
            }
        },
        Mode::Check => run_check(root),
    }
}

enum Mode {
    Check,
    ListRules,
    Explain(String),
}

fn run_check(root: Option<PathBuf>) -> ExitCode {
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(d) => d,
                Err(e) => {
                    eprintln!("cannot determine current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "no workspace root found above {}; pass --root",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let report = match check_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("vcdn-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for e in &report.allow_errors {
        eprintln!("{e}");
    }
    for f in &report.findings {
        println!(
            "{}:{}: [{}] {} — `{}`",
            f.file, f.line, f.rule, f.message, f.snippet
        );
    }
    if report.is_clean() {
        eprintln!(
            "vcdn-lint: clean — {} files scanned, {} finding(s) suppressed by lint.allow",
            report.files_scanned, report.suppressed
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "vcdn-lint: {} finding(s), {} allowlist error(s) ({} files scanned, {} suppressed)",
            report.findings.len(),
            report.allow_errors.len(),
            report.files_scanned,
            report.suppressed
        );
        ExitCode::FAILURE
    }
}

fn print_usage() {
    eprintln!(
        "vcdn-lint: workspace static analysis for vcdn

USAGE:
  vcdn-lint --check [--root <dir>]   check the workspace (default mode)
  vcdn-lint --explain <rule>         print a rule's rationale and fixes
  vcdn-lint --list-rules             list rule names and summaries

Exit codes: 0 clean, 1 findings or allowlist errors, 2 usage/IO error.
Suppressions live in <root>/lint.allow: `rule | path | needle | justification`."
    );
}

/// Locates the enclosing workspace root by walking up from `start` until
/// a `Cargo.toml` containing `[workspace]` is found.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
