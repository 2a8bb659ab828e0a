//! Workspace discovery and `check_workspace`: a root `Cargo.toml`, member
//! crates under `crates/<name>/`, and only their `src/` trees (rules target
//! library and binary code, not tests, benches or fixtures).

use std::fs;
use std::path::{Path, PathBuf};

use crate::allow::{AllowError, AllowList};
use crate::arith::Decls;
use crate::rules::{check_file, Finding};
use crate::walk::File;

/// The result of checking one workspace.
#[derive(Debug, Default)]
pub struct CheckReport {
    /// Unsuppressed findings, sorted by (file, line, rule, snippet).
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
}

fn read_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    let paths = entries.map(|e| e.map(|e| e.path()));
    paths.collect::<Result<_, _>>().map_err(|e| e.to_string())
}

/// Checks the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml` and, optionally, `lint.allow`).
pub fn check_workspace(root: &Path) -> Result<CheckReport, String> {
    let manifest = fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|_| format!("{}: no Cargo.toml (not a workspace root)", root.display()))?;
    // Member crates under `crates/`, and a root [package] (non-virtual
    // workspace), which scans as crate `vcdn`.
    let mut dirs = vec![];
    if root.join("crates").is_dir() {
        dirs = read_dir(&root.join("crates"))?;
        dirs.retain(|d| d.join("Cargo.toml").is_file());
    }
    dirs.extend(manifest.contains("[package]").then(|| root.to_path_buf()));
    let mut paths = Vec::new();
    for dir in dirs {
        collect_rs_files(&dir.join("src"), &mut paths)?;
    }
    paths.sort();
    // Lex and walk every file first: `clock-arith` looks names up in the
    // struct fields of the whole workspace.
    let mut files = Vec::new();
    for path in paths {
        let text = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let rel = rel_path(root, &path);
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next());
        files.push(File::new(
            &rel,
            crate_name.unwrap_or("vcdn"),
            &String::from_utf8_lossy(&text),
        ));
    }
    let mut workspace = Decls::default();
    files.iter().for_each(|f| workspace.add_fields(f));
    let mut findings = Vec::new();
    for f in &files {
        check_file(f, &workspace, &mut findings);
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    let allow_path = root.join("lint.allow");
    let mut allow = match fs::read_to_string(&allow_path) {
        Ok(text) => AllowList::parse(&text),
        Err(_) if !allow_path.exists() => AllowList::default(),
        Err(e) => return Err(format!("read {}: {e}", allow_path.display())),
    };
    let (suppressed, findings): (Vec<_>, Vec<_>) =
        findings.into_iter().partition(|f| allow.suppresses(f));
    let mut allow_errors = allow.errors.clone();
    allow_errors.extend(allow.unused().into_iter().map(|e| AllowError {
        line: e.line,
        message: format!(
            "stale entry: no `{}` finding in {} matches needle `{}`",
            e.rule, e.path, e.needle
        ),
    }));
    allow_errors.sort_by_key(|e| e.line);
    Ok(CheckReport {
        findings,
        suppressed: suppressed.len(),
        allow_errors,
        files_scanned: files.len(),
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    for path in read_dir(dir)? {
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
    let parts: Vec<_> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect();
    parts.join("/")
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
