//! The checked-in suppression file, `lint.allow`: one
//! `rule | path | needle | justification` entry per line, suppressing the
//! `rule`'s findings in `path` whose snippet contains `needle`. Blank
//! lines and `#` comments are ignored. A malformed entry, an unknown rule,
//! a missing or too-short justification, and an entry that matches no
//! finding (a stale one) are all errors in `--check`.

use crate::rules::{rule_by_name, Finding};

/// One parsed `lint.allow` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule this entry suppresses.
    pub rule: String,
    /// Workspace-relative file path the entry applies to.
    pub path: String,
    /// Substring matched against the finding snippet.
    pub needle: String,
    /// Why the invariant is waived here (required).
    pub justification: String,
    /// 1-based line in `lint.allow` (for diagnostics).
    pub line: u32,
}

/// A problem with the allowlist itself (always fatal in `--check`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowError {
    /// 1-based line in `lint.allow`, or 0 for file-level problems.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for AllowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.allow:{}: {}", self.line, self.message)
    }
}

/// Minimum length for a justification to count as one. Guards against
/// placeholder suppressions like `x` or `todo`.
const MIN_JUSTIFICATION_LEN: usize = 10;

/// The parsed allowlist plus per-entry usage tracking.
#[derive(Debug, Default)]
pub struct AllowList {
    /// Well-formed entries, each with whether it suppressed a finding.
    entries: Vec<(AllowEntry, bool)>,
    /// Parse-time errors (malformed lines, unknown rules, no justification).
    pub errors: Vec<AllowError>,
}

impl AllowList {
    /// Parses allowlist text. Parse problems land in `errors`, well-formed
    /// entries are kept, so one bad line doesn't disable the others.
    pub fn parse(text: &str) -> Self {
        let mut list = AllowList::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = (idx + 1) as u32;
            let text = raw.trim();
            if text.is_empty() || text.starts_with('#') {
                continue;
            }
            match parse_entry(text, line) {
                Ok(entry) => list.entries.push((entry, false)),
                Err(message) => list.errors.push(AllowError { line, message }),
            }
        }
        list
    }

    /// Whether `finding` is suppressed; marks the matching entry as used.
    pub fn suppresses(&mut self, finding: &Finding) -> bool {
        let hit = self.entries.iter_mut().find(|(e, _)| {
            e.rule == finding.rule && e.path == finding.file && finding.snippet.contains(&e.needle)
        });
        hit.map(|(_, used)| *used = true).is_some()
    }

    /// Entries that matched no finding — stale suppressions, reported as
    /// errors so the allowlist can only shrink when the code improves.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .filter(|(_, used)| !used)
            .map(|(e, _)| e)
            .collect()
    }

    /// Number of well-formed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no well-formed entries were parsed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

fn parse_entry(text: &str, line: u32) -> Result<AllowEntry, String> {
    let fields: Vec<&str> = text.split('|').map(str::trim).collect();
    let &[rule, path, needle, justification] = fields.as_slice() else {
        return Err(format!(
            "expected 4 pipe-separated fields (rule | path | needle | justification), got {}",
            fields.len()
        ));
    };
    if rule_by_name(rule).is_none() {
        return Err(format!("unknown rule `{rule}`"));
    }
    if justification.len() < MIN_JUSTIFICATION_LEN {
        return Err(format!(
            "justification is required (≥ {MIN_JUSTIFICATION_LEN} chars); got `{justification}`"
        ));
    }
    if needle.is_empty() {
        return Err("empty needle would suppress every finding in the file".into());
    }
    let [rule, path, needle, justification] = [rule, path, needle, justification].map(String::from);
    Ok(AllowEntry {
        rule,
        path,
        needle,
        justification,
        line,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, snippet: &str) -> Finding {
        let (file, snippet, message) = (file.into(), snippet.into(), String::new());
        Finding {
            rule,
            file,
            line: 1,
            snippet,
            message,
        }
    }

    /// The messages of the errors one line of allowlist text makes.
    fn errors(text: &str) -> Vec<String> {
        let errors = AllowList::parse(text).errors.into_iter();
        errors.map(|e| e.message).collect()
    }

    const SIMPLEX: &str =
        "float-eq | crates/lp/src/simplex.rs | float literal | exact zero tests on pivots";

    #[test]
    fn parses_entries_and_skips_comments() {
        let list = AllowList::parse(&format!(
            "# comment\n{SIMPLEX}\n\nliteral-index | crates/core/src/cafe.rs | [0] | bounds pre-checked by caller"
        ));
        assert_eq!(list.len(), 2);
        assert!(list.errors.is_empty());
    }

    #[test]
    fn suppression_requires_rule_path_and_needle_match() {
        let mut list = AllowList::parse(SIMPLEX);
        let file = "crates/lp/src/simplex.rs";
        assert!(list.suppresses(&finding("float-eq", file, "== float literal")));
        // Wrong file, wrong rule.
        let other = "crates/lp/src/problem.rs";
        assert!(!list.suppresses(&finding("float-eq", other, "== float literal")));
        assert!(!list.suppresses(&finding("clock-arith", file, "float literal")));
    }

    #[test]
    fn unused_entries_are_reported() {
        let mut list = AllowList::parse(
            "literal-index | crates/core/src/lib.rs | [0] | historical exception kept for tests",
        );
        assert_eq!(list.unused().len(), 1);
        assert!(list.suppresses(&finding("literal-index", "crates/core/src/lib.rs", "[0]")));
        assert!(list.unused().is_empty());
    }

    #[test]
    fn missing_or_short_justifications_are_errors() {
        let e = errors("literal-index | f.rs | [0] | ");
        assert!(e.len() == 1 && e[0].contains("justification"));
        assert_eq!(errors("literal-index | f.rs | [0] | ok").len(), 1);
    }

    #[test]
    fn unknown_rules_and_malformed_lines_are_errors() {
        let e = errors("no-such-rule | f.rs | x | some justification here");
        assert!(e[0].contains("unknown rule"));
        let e = errors("float-eq | f.rs | missing-justification-field");
        assert!(e[0].contains("4 pipe-separated"));
    }
}
