//! The rule catalogue and the per-file driver. Test code is exempt: items
//! under `#[cfg(test)]` or `#[test]` are never walked, and the workspace
//! walker reads only `src/`. Rules are scoped to crates by directory name
//! under `crates/` (`core`, `sim`, …); the root package scans as `vcdn`.

use crate::arith::Decls;
use crate::lexer::TokKind;
use crate::walk::{code, File, NONE};

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name (one of [`RULES`]).
    pub rule: &'static str,
    /// Workspace-relative file path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The matched source snippet (what `lint.allow` needles match on).
    pub snippet: String,
    /// Human-oriented one-liner.
    pub message: String,
}

/// A rule's catalogue entry (`--list-rules` / `--explain`).
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable rule name, used in diagnostics and `lint.allow`.
    pub name: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Full explanation: what, why, and how to fix or suppress.
    pub explain: &'static str,
}

/// The rule catalogue.
pub const RULES: &[Rule] = &[
    Rule {
        name: "float-eq",
        summary: "no direct ==/!= against float literals; use vcdn_types::float helpers",
        explain: "\
WHAT  Forbids == and != with a floating-point literal operand in every
      crate's non-test functions. (clippy::float_cmp exempts comparisons
      against zero, the common case.)
WHY   Eq. 6-7 (Cafe) and Eq. 13-14 (Psychic) compare accumulated f64
      costs; raw equality on them is a rounding bug or an undocumented
      exactness assumption. Both deserve a named helper.
FIX   vcdn_types::float::approx_eq for computed costs; exactly_zero for
      intentional bitwise zero guards (sums of non-negatives, sentinels).
ALLOW Exactness-critical kernels (simplex pivots in dependency-free
      vcdn-lp) may suppress with a justification.",
    },
    Rule {
        name: "literal-index",
        summary: "no indexing by integer literal (x[0]) in core/sim library code",
        explain: "\
WHAT  Forbids indexing by an integer literal (`x[0]`, `f()[1]`) in the
      non-test functions of crates/core and crates/sim. Slice patterns and
      array types are not indexing. The rest of the panic family (unwrap,
      expect, panic!, …) is clippy's, warned in those crates' lib.rs.
WHY   A panic tears down a million-request replay grid. A literal index is
      almost always a hidden length assumption (clippy::indexing_slicing
      would flag every index).
FIX   .first() / .get(0) with a guarded match, or a slice pattern
      (`let [a, b] = …` / `if let [first, ..] = …`).
ALLOW Sites where the length is asserted on the line above and a fallback
      would mask real corruption may be suppressed with a justification.",
    },
    Rule {
        name: "clock-arith",
        summary: "no unchecked + - * on ms/ns clock and byte-counter identifiers",
        explain: "\
WHAT  Flags raw `+ - *` and `+= -= *=` where an operand is an integer name
      matching the counter convention (`ms`, `ns`, `bytes`, or a `_ms` /
      `_ns` / `_bytes` suffix), classed by its declaration in the fn, the
      file or any workspace struct. Unknown names and any expression with
      a float operand stay silent.
WHY   Clocks and byte counters accumulate over month-long traces; debug
      builds panic on overflow and release builds wrap silently, which
      the determinism harness cannot catch (the wrap is deterministic).
FIX   saturating_* for metric accumulation, checked_* where overflow must
      surface, wrapping_* where wrapping is the point (hashing, rings): a
      raw `+` that relies on wrapping panics in debug builds.
ALLOW lint.allow entries are accepted for generated or vendored code.",
    },
];

/// Returns the catalogue entry for `name`, if any.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Where a rule reports a finding: `(rule, line, snippet, message)`.
pub type Sink<'a> = &'a mut dyn FnMut(&'static str, u32, String, String);

/// Runs every rule on one file, appending its findings sorted by
/// `(line, rule, snippet)`.
pub fn check_file(file: &File, workspace: &Decls, out: &mut Vec<Finding>) {
    let (t, first) = (&file.t[..], out.len());
    let index_scoped = LITERAL_INDEX_CRATES.contains(&file.crate_name.as_str());
    let mut push = |rule, line, snippet, message| {
        let file = file.path.clone();
        out.push(Finding {
            rule,
            file,
            line,
            snippet,
            message,
        });
    };
    for k in (0..t.len()).filter(|&k| file.owner[k] != NONE) {
        match code(t, k) {
            op @ ("==" | "!=") => {
                let (s, e) = (file.start(k, 4), file.end(k + 1, 4)); // level 4: comparisons
                if file.float_lit(s, k) || file.float_lit(k + 1, e) {
                    push(
                        "float-eq",
                        file.line(s, k),
                        format!("{op} float literal"),
                        format!("direct `{op}` on f64; use vcdn_types::float (approx_eq / exactly_zero)"),
                    );
                }
            }
            "[" if index_scoped
                && file.after_operand(k)
                && t.get(k + 1).is_some_and(|x| x.kind == TokKind::Int)
                && code(t, k + 2) == "]" =>
            {
                let n = &t[k + 1].text;
                push(
                    "literal-index",
                    file.line(file.chain_start(k), k),
                    format!("[{n}]"),
                    format!(
                        "indexing by literal `[{n}]` can panic; use .get({n}) or a slice pattern"
                    ),
                );
            }
            _ => {}
        }
    }
    crate::arith::check(file, workspace, &mut push);
    out[first..].sort_by(|a, b| (a.line, a.rule, &a.snippet).cmp(&(b.line, b.rule, &b.snippet)));
}

const LITERAL_INDEX_CRATES: &[&str] = &["core", "sim"];

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// One file's findings as `line rule snippet`.
    pub(crate) fn found(crate_name: &str, src: &str) -> Vec<String> {
        let (file, mut out) = (File::new("crates/x/src/lib.rs", crate_name, src), vec![]);
        check_file(&file, &Decls::default(), &mut out);
        let found = out
            .iter()
            .map(|f| format!("{} {} {}", f.line, f.rule, f.snippet));
        found.collect()
    }

    #[test]
    fn test_code_is_exempt() {
        let body = "{ fn f(v: &[u8]) -> bool { v[0] == 1 && 0.5 == 1.0 } }";
        assert!(found("core", &format!("#[cfg(test)]\nmod tests {body}")).is_empty());
        // ...but the same body outside the test mod is flagged.
        assert_eq!(found("core", &format!("mod m {body}")).len(), 2);
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        let src = "fn f(x: f64) -> bool { x == 0.0 || 1.5 != x }";
        let want = ["1 float-eq != float literal", "1 float-eq == float literal"];
        assert_eq!(found("lp", src), want);
        let mut out = Vec::new();
        check_file(&File::new("x.rs", "lp", src), &Decls::default(), &mut out);
        assert!(out[0].message.contains("approx_eq"));
        // Non-literal comparisons, orderings and integer comparisons pass.
        let ok = "fn f(a: f64, b: f64, n: u64) -> bool { a <= b || n == 0 }";
        assert!(found("lp", ok).is_empty());
    }

    #[test]
    fn literal_index_flags_integer_literals_only() {
        let src = "fn f(v: &[u8], m: &[[u8; 2]]) -> u8 { v[0] + m[1][0] + f()[2] }";
        let want = ["[0]", "[0]", "[1]", "[2]"].map(|n| format!("1 literal-index {n}"));
        assert_eq!(found("sim", src), want);
        // Variable indexing, array types and literals, slice patterns are fine.
        let ok = "fn f(v: &[u8], i: usize) -> u8 { let t: [u8; 4] = [0u8; 4]; let [a, b] = [1, 2];
            if let [x, ..] = v { g(x); } v[i] }";
        assert!(found("core", ok).is_empty());
        // Scoped to crates/{core,sim}.
        assert!(found("trace", "fn f(v: &[u8]) -> u8 { v[0] }").is_empty());
    }

    #[test]
    fn needles_in_strings_and_comments_do_not_fire() {
        assert!(found("core", "fn f() { let s = \"v[0] == 1.0\"; } // x[0] == 0.0").is_empty());
    }

    #[test]
    fn code_in_every_position_is_walked() {
        // Neither an item-level macro's braces nor a raw string's end the
        // file; impl and trait bodies, let-else blocks, match guards and
        // arms, struct literals, closures, `break` values and nested fns
        // are all code.
        let src = r##"impl_json!(T { a, b });
fn s() -> &'static str { r#"{ braces"# }
impl<T: Ord> R<T> { fn a(v: &[u8]) -> u8 { v[0] } }
trait Tr { fn b(&self, v: &[u8]) -> u8 { v[1] } }
fn f(x: Option<&[u8]>, v: &[u8]) {
    let Some(w) = x else { g(v[2]); return; };
    match v { n if n[3] == 0 => {}, _ => g(w[4]) }
    let s = S { a: v[5], ..m(v[6]) };
    loop { break v.iter().map(|c| c + v[7]).sum::<u8>(); }
    fn inner(v: &[u8]) -> u8 { v[8] }
}"##;
        let lines = [3, 4, 6, 7, 7, 8, 8, 9, 10].iter().enumerate();
        let want: Vec<_> = lines
            .map(|(n, l)| format!("{l} literal-index [{n}]"))
            .collect();
        assert_eq!(found("core", src), want);
    }

    #[test]
    fn operands_follow_precedence_and_report_their_first_line() {
        // A turbofish and a shift are not comparisons; a negated literal
        // is not a literal operand; a chain reports on its last `.name`.
        let src = "fn f(v: &[f64], n: u64, s: S) -> bool {
    v.iter().copied().sum::<f64>() == 1.0 && n >> 2 < 3 && -1.0 != v[0]
        || s
            .ratio == 0.5
}";
        let want = ["2 float-eq == float literal", "4 float-eq == float literal"];
        assert_eq!(found("lp", src), want);
    }

    #[test]
    fn garbage_input_terminates() {
        let garbage = "fn f( {\nimpl {{{\nfn f() { match x { \nfn f() { let = ; }\n::::::
#[cfg(test) fn g() {}\nfn f() { a.b::<(((>; }\nfn f() { ) - * == 1.0 ] [0] }\nfn f() { x[0
fn f() { let v: String =\nf(x); name!) = y else {";
        garbage.lines().for_each(|src| drop(found("core", src)));
    }

    #[test]
    fn every_rule_has_explain_text() {
        for r in RULES {
            assert!(rule_by_name(r.name).is_some());
            assert!(r.explain.contains("WHAT") && r.explain.contains("ALLOW"));
        }
    }
}
