//! Workspace discovery and the top-level `check_workspace` entry point.
//!
//! The walker mirrors the workspace layout this repo (and the test
//! fixtures) use: a root `Cargo.toml` with `[workspace]`, member crates
//! under `crates/<name>/` each with a `Cargo.toml` and a `src/` tree.
//! Only `src/` is scanned — `tests/`, `benches/` and fixture trees are
//! intentionally out of scope (rules target library and binary code).

use std::fs;
use std::path::{Path, PathBuf};

use crate::allow::{AllowError, AllowList};
use crate::rules::{check_file, FileInput, Finding};

/// The result of checking one workspace.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Findings suppressed by `lint.allow`.
    pub suppressed: usize,
    /// Allowlist problems: parse errors and stale (unused) entries.
    pub allow_errors: Vec<AllowError>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl CheckReport {
    /// True when the workspace is clean: no findings and a valid allowlist.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.allow_errors.is_empty()
    }

    /// Machine-readable report for `vcdn-lint --json`.
    ///
    /// Field order is fixed (file, line, rule, message, snippet; then
    /// allow_errors, files_scanned, suppressed, clean) and findings are
    /// already sorted by (file, line, rule), so the output is byte-stable
    /// for a given workspace state.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\", \"snippet\": \"{}\"}}",
                json_escape(&f.file),
                f.line,
                json_escape(f.rule),
                json_escape(&f.message),
                json_escape(&f.snippet)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"allow_errors\": [");
        for (i, e) in self.allow_errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"line\": {}, \"message\": \"{}\"}}",
                e.line,
                json_escape(&e.message)
            ));
        }
        if !self.allow_errors.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"suppressed\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.suppressed,
            self.is_clean()
        ));
        out
    }
}

/// Minimal JSON string escaping: the control set, quotes, backslash.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Checks the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml` and, optionally, `lint.allow`).
pub fn check_workspace(root: &Path) -> Result<CheckReport, String> {
    let mut crates = member_crates(root)?;
    crates.sort_by(|a, b| a.dir.cmp(&b.dir));

    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for c in &crates {
        let src = c.dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        for file in files {
            let text = fs::read(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
            let text = String::from_utf8_lossy(&text);
            let lexed = crate::lexer::lex(&text);
            let ast = crate::ast::parse(&lexed);
            let rel = rel_path(root, &file);
            files_scanned += 1;
            check_file(
                &FileInput {
                    rel_path: &rel,
                    crate_name: &c.name,
                    lexed: &lexed,
                    ast: &ast,
                },
                &mut findings,
            );
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));

    // Apply the allowlist, if present.
    let allow_path = root.join("lint.allow");
    let mut allow = if allow_path.is_file() {
        let text = fs::read_to_string(&allow_path)
            .map_err(|e| format!("read {}: {e}", allow_path.display()))?;
        AllowList::parse(&text)
    } else {
        AllowList::default()
    };

    let mut report = CheckReport {
        files_scanned,
        ..CheckReport::default()
    };
    for f in findings {
        if allow.suppresses(&f) {
            report.suppressed += 1;
        } else {
            report.findings.push(f);
        }
    }
    report.allow_errors = allow.errors.clone();
    for e in allow.unused() {
        report.allow_errors.push(AllowError {
            line: e.line,
            message: format!(
                "stale entry: no `{}` finding in {} matches needle `{}`",
                e.rule, e.path, e.needle
            ),
        });
    }
    report.allow_errors.sort_by_key(|e| e.line);
    Ok(report)
}

/// One member crate: directory and rule-scoping name.
struct MemberCrate {
    dir: PathBuf,
    /// Directory name under `crates/` (`core`, `sim`, …) used for scoping.
    name: String,
}

fn member_crates(root: &Path) -> Result<Vec<MemberCrate>, String> {
    if !root.join("Cargo.toml").is_file() {
        return Err(format!(
            "{}: no Cargo.toml (not a workspace root)",
            root.display()
        ));
    }
    let crates_dir = root.join("crates");
    let mut out = Vec::new();
    if crates_dir.is_dir() {
        let entries =
            fs::read_dir(&crates_dir).map_err(|e| format!("read {}: {e}", crates_dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| e.to_string())?;
            let dir = entry.path();
            if dir.join("Cargo.toml").is_file() {
                let name = entry.file_name().to_string_lossy().into_owned();
                out.push(MemberCrate { dir, name });
            }
        }
    }
    // A root [package] (non-virtual workspace) scans as crate `vcdn`.
    let root_manifest = fs::read_to_string(root.join("Cargo.toml")).map_err(|e| e.to_string())?;
    if root_manifest.contains("[package]") && root.join("src").is_dir() {
        out.push(MemberCrate {
            dir: root.to_path_buf(),
            name: "vcdn".to_string(),
        });
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Workspace-relative path with forward slashes (stable diagnostics).
fn rel_path(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_paths_use_forward_slashes() {
        let root = Path::new("/w");
        let file = Path::new("/w/crates/core/src/lib.rs");
        assert_eq!(rel_path(root, file), "crates/core/src/lib.rs");
    }
}
