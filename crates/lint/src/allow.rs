//! The checked-in suppression file, `lint.allow`.
//!
//! Format: one entry per line, four pipe-separated fields —
//!
//! ```text
//! rule | path | needle | justification
//! ```
//!
//! * `rule` — a rule name from [`crate::rules::RULES`];
//! * `path` — workspace-relative file the suppression applies to;
//! * `needle` — substring matched against the finding's snippet;
//! * `justification` — required, non-trivial free text explaining *why*
//!   the invariant may be waived at this site.
//!
//! Blank lines and `#` comments are ignored. Entries that are malformed,
//! name an unknown rule, carry an empty/too-short justification, or match
//! **no** finding (stale suppressions) are all hard errors in `--check`:
//! the allowlist must stay exactly as large as the set of justified
//! exceptions.

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
    entries: Vec<AllowEntry>,
    used: Vec<bool>,
    /// Parse-time errors (malformed lines, unknown rules, no justification).
    pub errors: Vec<AllowError>,
}

impl AllowList {
    /// Parses allowlist text. Parse problems land in `errors`, well-formed
    /// entries are kept, so one bad line doesn't disable the others.
    pub fn parse(text: &str) -> Self {
        let mut list = AllowList::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = (idx + 1) as u32;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('|').map(str::trim).collect();
            if fields.len() != 4 {
                list.errors.push(AllowError {
                    line: line_no,
                    message: format!(
                        "expected 4 pipe-separated fields (rule | path | needle | justification), got {}",
                        fields.len()
                    ),
                });
                continue;
            }
            let (rule, path, needle, justification) = (fields[0], fields[1], fields[2], fields[3]);
            if rule_by_name(rule).is_none() {
                list.errors.push(AllowError {
                    line: line_no,
                    message: format!("unknown rule `{rule}`"),
                });
                continue;
            }
            if justification.len() < MIN_JUSTIFICATION_LEN {
                list.errors.push(AllowError {
                    line: line_no,
                    message: format!(
                        "justification is required (≥ {MIN_JUSTIFICATION_LEN} chars); got `{justification}`"
                    ),
                });
                continue;
            }
            if needle.is_empty() {
                list.errors.push(AllowError {
                    line: line_no,
                    message: "empty needle would suppress every finding in the file".into(),
                });
                continue;
            }
            list.entries.push(AllowEntry {
                rule: rule.to_string(),
                path: path.to_string(),
                needle: needle.to_string(),
                justification: justification.to_string(),
                line: line_no,
            });
            list.used.push(false);
        }
        list
    }

    /// Whether `finding` is suppressed; marks the matching entry as used.
    pub fn suppresses(&mut self, finding: &Finding) -> bool {
        for (i, e) in self.entries.iter().enumerate() {
            if e.rule == finding.rule
                && e.path == finding.file
                && finding.snippet.contains(&e.needle)
            {
                self.used[i] = true;
                return true;
            }
        }
        false
    }

    /// Entries that matched no finding — stale suppressions, reported as
    /// errors so the allowlist can only shrink when the code improves.
    pub fn unused(&self) -> Vec<&AllowEntry> {
        self.entries
            .iter()
            .zip(&self.used)
            .filter_map(|(e, &u)| (!u).then_some(e))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, file: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            file: file.into(),
            line: 1,
            snippet: snippet.into(),
            message: String::new(),
        }
    }

    #[test]
    fn parses_entries_and_skips_comments() {
        let text = "\
# comment
float-eq | crates/lp/src/simplex.rs | float literal | exact zero tests on pivots

literal-index | crates/core/src/cafe.rs | [0] | bounds pre-checked by caller";
        let list = AllowList::parse(text);
        assert_eq!(list.len(), 2);
        assert!(list.errors.is_empty());
    }

    #[test]
    fn suppression_requires_rule_path_and_needle_match() {
        let mut list = AllowList::parse(
            "float-eq | crates/lp/src/simplex.rs | float literal | exact zero tests on pivots",
        );
        let file = "crates/lp/src/simplex.rs";
        assert!(list.suppresses(&finding("float-eq", file, "== float literal")));
        // Wrong file.
        assert!(!list.suppresses(&finding(
            "float-eq",
            "crates/lp/src/problem.rs",
            "== float literal"
        )));
        // Wrong rule.
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
        let list = AllowList::parse("literal-index | f.rs | [0] | ");
        assert_eq!(list.errors.len(), 1);
        assert!(list.errors[0].message.contains("justification"));
        let list = AllowList::parse("literal-index | f.rs | [0] | ok");
        assert_eq!(list.errors.len(), 1);
    }

    #[test]
    fn unknown_rules_and_malformed_lines_are_errors() {
        let list = AllowList::parse("no-such-rule | f.rs | x | some justification here");
        assert!(list.errors[0].message.contains("unknown rule"));
        let list = AllowList::parse("float-eq | f.rs | missing-justification-field");
        assert!(list.errors[0].message.contains("4 pipe-separated"));
    }
}
