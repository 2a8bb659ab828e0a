//! The rule catalogue and the per-file driver. Every rule reads the
//! AST-lite tree ([`crate::ast`]); the invariants the toolchain can check
//! (determinism, panics, feature gates, locks) live in `clippy.toml` and
//! crate attributes instead, and allocation on decide paths is measured
//! by `crates/sim/tests/alloc_golden.rs` (LINTS.md).
//!
//! Scoping conventions shared by all rules:
//!
//! * **Test code is exempt**: functions under an item carrying
//!   `#[cfg(test)]` (or `#[test]`) are never walked, and the workspace
//!   walker never feeds `tests/`, `benches/` or `examples/` directories.
//! * Rules are scoped to crates by directory name under `crates/`
//!   (`core`, `sim`, …); the root package scans as `vcdn`.

use crate::ast::{walk_block, Expr, ExprKind, Node};
use crate::lexer::TokKind;

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
WHAT  Forbids == and != where either operand is a floating-point literal,
      in every crate's non-test functions. (clippy::float_cmp is no
      substitute: it exempts comparisons against zero, the common case.)
WHY   Eq. 6-7 (Cafe) and Eq. 13-14 (Psychic) compare accumulated f64
      costs; raw equality on such values is either a rounding bug or an
      undocumented exactness assumption. Both deserve a named helper.
FIX   vcdn_types::float::approx_eq for tolerance comparison of computed
      costs; vcdn_types::float::exactly_zero for intentional bitwise
      zero guards (sums of non-negatives, config sentinels).
ALLOW Exactness-critical numerical kernels (e.g. simplex pivot
      cancellation in dependency-free vcdn-lp) may suppress with a
      justification instead of taking a vcdn-types dependency.",
    },
    Rule {
        name: "literal-index",
        summary: "no indexing by integer literal (x[0]) in core/sim library code",
        explain: "\
WHAT  Forbids indexing by an integer literal (`x[0]`, `f()[1]`) in the
      non-test functions of crates/core and crates/sim. Slice patterns
      and array types are not indexing and stay silent. The rest of the
      panic family (unwrap, expect, panic!, unreachable!, todo!,
      unimplemented!) is clippy's, warned in those crates' lib.rs.
WHY   Policies run inside million-request replays; a panic tears down the
      whole experiment grid. clippy::indexing_slicing would flag every
      index; a literal index is the case that is almost always a hidden
      length assumption.
FIX   .first() / .get(0) with a guarded match, or a slice pattern
      (`let [a, b] = …` / `if let [first, ..] = …`).
ALLOW Sites where the length is asserted on the line above and a fallback
      would mask real corruption may be suppressed with a justification.",
    },
    Rule {
        name: "clock-arith",
        summary: "no unchecked + - * on ms/ns clock and byte-counter identifiers",
        explain: "\
WHAT  Flags raw `+ - *` and `+= -= *=` where an operand is an integer-
      classified identifier matching the counter naming convention
      (`ms`, `ns`, `bytes`, or a `_ms`/`_ns`/`_bytes` suffix), unless a
      `// lint: wrap-ok` marker sits on the same line or the line above.
      Identifiers whose type cannot be resolved, and any expression with
      a float operand, stay silent.
WHY   Trace clocks and byte counters accumulate over month-long traces;
      debug builds panic on overflow while release builds wrap silently,
      corrupting replay metrics in a way the determinism harness cannot
      catch (the wrap is deterministic too).
FIX   saturating_add/saturating_sub/saturating_mul for metric
      accumulation, checked_* where overflow must be surfaced,
      wrapping_* with a `// lint: wrap-ok` marker where wrap semantics
      are intended (hashing, ring indices).
ALLOW Prefer the wrap-ok marker at the site; lint.allow entries are
      accepted for generated or vendored code.",
    },
];

/// Returns the catalogue entry for `name`, if any.
pub fn rule_by_name(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

/// Per-file facts the rules need, computed once.
pub struct FileInput<'a> {
    /// Workspace-relative path (forward slashes).
    pub rel_path: &'a str,
    /// Crate directory name under `crates/` (or `vcdn` for the root).
    pub crate_name: &'a str,
    /// Lexed source (its `wrap-ok` marker side channel).
    pub lexed: &'a crate::lexer::Lexed,
    /// AST-lite parse of the same source (see [`crate::ast`]).
    pub ast: &'a crate::ast::Ast,
}

/// Runs every rule on one file, appending findings.
pub fn check_file(input: &FileInput<'_>, out: &mut Vec<Finding>) {
    let index_scoped = LITERAL_INDEX_CRATES.contains(&input.crate_name);
    let finding = |rule, line, snippet: String, message: String| Finding {
        rule,
        file: input.rel_path.to_string(),
        line,
        snippet,
        message,
    };
    crate::ast::for_each_fn(input.ast, &mut |func, _| {
        let Some(body) = &func.body else { return };
        walk_block(body, &mut |node| match node {
            Node::Let { .. } | Node::Item(_) => {}
            Node::Expr(e) => {
                if let Some(op) = float_literal_eq(e) {
                    out.push(finding(
                        "float-eq",
                        e.line,
                        format!("{op} float literal"),
                        format!("direct `{op}` on f64; use vcdn_types::float (approx_eq / exactly_zero)"),
                    ));
                }
                if let Some(n) = literal_index(e).filter(|_| index_scoped) {
                    out.push(finding(
                        "literal-index",
                        e.line,
                        format!("[{n}]"),
                        format!("indexing by literal `[{n}]` can panic; use .get({n}) or a slice pattern"),
                    ));
                }
            }
        });
    });

    crate::arith::check(input, input.ast, out);
}

const LITERAL_INDEX_CRATES: &[&str] = &["core", "sim"];

/// `==` / `!=` with a float-literal operand: the operator.
fn float_literal_eq(e: &Expr) -> Option<&str> {
    let ExprKind::Binary { op, lhs, rhs } = &e.kind else {
        return None;
    };
    let is_float = |x: &Expr| matches!(x.kind, ExprKind::Lit(TokKind::Float, _));
    (matches!(op.as_str(), "==" | "!=") && (is_float(lhs) || is_float(rhs))).then_some(op)
}

/// `base[<integer literal>]`: the literal.
fn literal_index(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Index { index, .. } => match &index.kind {
            ExprKind::Lit(TokKind::Int, n) => Some(n),
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(crate_name: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let ast = crate::ast::parse(&lexed);
        let mut out = Vec::new();
        check_file(
            &FileInput {
                rel_path: "crates/x/src/lib.rs",
                crate_name,
                lexed: &lexed,
                ast: &ast,
            },
            &mut out,
        );
        out
    }

    fn snippets(f: &[Finding]) -> Vec<&str> {
        f.iter().map(|f| f.snippet.as_str()).collect()
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f(v: &[u8]) -> bool { v[0] == 1 && 0.5 == 1.0 } }";
        assert!(check("core", src).is_empty());
        // ...but the same body outside the test mod is flagged.
        let src = "mod m { fn f(v: &[u8]) -> bool { v[0] == 1 && 0.5 == 1.0 } }";
        assert_eq!(check("core", src).len(), 2);
    }

    #[test]
    fn float_eq_flags_literal_comparisons() {
        let f = check("lp", "fn f(x: f64) -> bool { x == 0.0 || 1.5 != x }");
        assert_eq!(f.len(), 2);
        assert!(f[0].message.contains("approx_eq"));
        // Non-literal comparisons and orderings pass.
        assert!(check("lp", "fn f(a: f64, b: f64) -> bool { a <= b }").is_empty());
        // Integer comparisons pass.
        assert!(check("lp", "fn f(n: u64) -> bool { n == 0 }").is_empty());
    }

    #[test]
    fn literal_index_flags_integer_literals_only() {
        let f = check(
            "sim",
            "fn f(v: &[u8], m: &[[u8; 2]]) -> u8 { v[0] + m[1][0] + f()[2] }",
        );
        assert_eq!(snippets(&f), vec!["[0]", "[0]", "[1]", "[2]"]);
        assert!(f.iter().all(|f| f.rule == "literal-index"));
        // Variable indexing, array types and literals, slice patterns are fine.
        assert!(check("core", "fn f(v: &[u8], i: usize) -> u8 { v[i] }").is_empty());
        assert!(check("core", "fn f() { let t: [u8; 4] = [0u8; 4]; }").is_empty());
        let pats = "fn f(v: &[u8]) { let [a, b] = [1, 2]; if let [x, ..] = v { g(x); } }";
        assert!(check("core", pats).is_empty());
        // Scoped to crates/{core,sim}.
        assert!(check("trace", "fn f(v: &[u8]) -> u8 { v[0] }").is_empty());
    }

    #[test]
    fn needles_in_strings_and_comments_do_not_fire() {
        let src = "fn f() { let s = \"v[0] == 1.0\"; } // x[0] == 0.0";
        assert!(check("core", src).is_empty());
    }

    #[test]
    fn every_rule_has_explain_text() {
        for r in RULES {
            assert!(rule_by_name(r.name).is_some());
            assert!(r.explain.contains("WHAT"));
            assert!(r.explain.contains("ALLOW"));
        }
    }
}
