//! The rule catalogue and the per-file driver. Every rule reads the
//! AST-lite tree ([`crate::ast`]); the token-level invariants the
//! toolchain can check (determinism, panics, feature gates) live in
//! `clippy.toml` and crate attributes instead (LINTS.md).
//!
//! Scoping conventions shared by all rules:
//!
//! * **Test code is exempt**: functions under an item carrying
//!   `#[cfg(test)]` (or `#[test]`) are never walked, and the workspace
//!   walker never feeds `tests/`, `benches/` or `examples/` directories.
//! * **Hot functions** are announced by a standalone `// lint: hot`
//!   marker comment; the marker binds to the next function.
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
        name: "hot-path",
        summary: "no allocation or map containers inside `// lint: hot` functions",
        explain: "\
WHAT  Inside the function a standalone `// lint: hot` comment announces
      (the next fn after the marker), forbids FastMap/FastSet/BTreeMap/
      BTreeSet in paths, turbofish and let types; format! and vec!;
      Vec::new, Vec::with_capacity, String::new, String::from and
      Box::new; and the methods .clone() / .to_string() / .to_owned() /
      .to_vec() / .collect().
WHY   The decide/evict/admission paths of all four policies are
      allocation-free by construction (scratch buffers, FastMap, slab
      indices); benchmark/ measures the resulting throughput. A single
      format! or FastMap::default in a decide path regresses every replay by
      an allocator round-trip per request.
FIX   Reuse scratch buffers owned by the policy struct; use
      vcdn_types::{FastMap, FastSet} declared outside the hot function;
      return iterators instead of collecting.
ALLOW The `evicted` list handed to ServeOutcome is owned by the decision
      by API contract; its empty-Vec construction is the sanctioned
      allowlisted exception (Vec::new allocates nothing until pushed).",
    },
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
        name: "lock-discipline",
        summary: "leaf-level lock scopes and paired condvar waits in library code",
        explain: "\
WHAT  In every crate's non-test library code: while a mutex guard from
      x.lock() is live in scope, no other .lock() may be taken
      (leaf-level scopes — no lock-ordering rule is needed, and
      self-deadlocking double-locks are banned); Condvar.wait(guard)
      must consume a guard that is live in the same scope and belongs
      to the same object as the condvar (a state/can_push/can_pop
      struct waits only on its own mutex's guard). The sharded engine
      holds no locks; the live subjects are the grid runner's per-cell
      slots (sim/runner.rs), the generator's free-buffer receiver
      (trace/ahead.rs) and the registry's name table (obs/registry.rs).
WHY   The workspace's deadlock-freedom argument is structural: every lock
      scope is a leaf, so no lock-order cycle can exist. One nested
      acquire silently reintroduces the possibility; a condvar waiting
      under a foreign mutex loses its wakeups.
FIX   Narrow the first guard's scope (drop(guard) or a block) before the
      second acquisition; wait only on the guard of the condvar's own
      paired mutex.
ALLOW Intentional two-lock algorithms must document their global order
      in DESIGN.md §7 and suppress with a justification referencing it.",
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
    /// Lexed source (its marker side channels).
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
    let hot_finding = |line, snippet: String| {
        let message =
            format!("{snippet} inside a `// lint: hot` function (allocation-free decide paths)");
        finding("hot-path", line, snippet, message)
    };
    // A marker binds to the next `fn` keyword below it.
    let toks = &input.lexed.toks;
    let hot_fn_lines: Vec<u32> = input
        .lexed
        .hot_marker_lines
        .iter()
        .filter_map(|&m| {
            toks.iter()
                .find(|t| t.line > m && t.kind == TokKind::Ident && t.text == "fn")
        })
        .map(|t| t.line)
        .collect();
    crate::ast::for_each_fn(input.ast, &mut |func, _| {
        let Some(body) = &func.body else { return };
        let hot = hot_fn_lines.contains(&func.line);
        walk_block(body, &mut |node| match node {
            Node::Let {
                ty: Some(ty), line, ..
            } if hot => hot_types(ty, &mut |s| out.push(hot_finding(line, s))),
            Node::Let { .. } | Node::Item(_) => {}
            Node::Expr(e) => {
                if hot {
                    hot_needles(e, &mut |s| out.push(hot_finding(e.line, s)));
                }
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

    crate::locks::check(input, input.ast, out);
    crate::arith::check(input, input.ast, out);
}

const LITERAL_INDEX_CRATES: &[&str] = &["core", "sim"];

const HOT_TYPES: &[&str] = &["FastMap", "FastSet", "BTreeMap", "BTreeSet"];
const HOT_MACROS: &[&str] = &["format", "vec"];
const HOT_CTORS: &[[&str; 2]] = &[
    ["Vec", "new"],
    ["Vec", "with_capacity"],
    ["String", "new"],
    ["String", "from"],
    ["Box", "new"],
];
const HOT_METHODS: &[&str] = &["clone", "to_string", "to_owned", "to_vec", "collect"];

/// Reports each `hot-path` needle the node itself spells (not its children).
fn hot_needles(e: &Expr, hit: &mut impl FnMut(String)) {
    match &e.kind {
        ExprKind::Path(segs) => {
            for s in segs.iter().filter(|s| HOT_TYPES.contains(&s.as_str())) {
                hit(s.clone());
            }
            for pair in segs.windows(2) {
                if HOT_CTORS.iter().any(|c| c[0] == pair[0] && c[1] == pair[1]) {
                    hit(pair.join("::"));
                }
            }
        }
        ExprKind::Macro { name, .. } if HOT_MACROS.contains(&name.as_str()) => {
            hit(format!("{name}!"))
        }
        ExprKind::MethodCall {
            name, turbofish, ..
        } => {
            if HOT_METHODS.contains(&name.as_str()) {
                hit(format!(".{name}()"));
            }
            hot_types(turbofish, hit);
        }
        _ => {}
    }
}

/// Reports each forbidden container named in raw type text.
fn hot_types(ty: &str, hit: &mut impl FnMut(String)) {
    ty.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| HOT_TYPES.contains(w))
        .for_each(|w| hit(w.to_string()));
}

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
    fn hot_rule_binds_marker_to_next_fn_only() {
        let src = "\
// lint: hot
fn hot_fn(&mut self) { let v = Vec::new(); s.clone(); }
fn cold_fn() { let v = Vec::new(); format!(\"x\"); }";
        let f = check("trace", src);
        assert_eq!(snippets(&f), vec!["Vec::new", ".clone()"]);
        assert!(f.iter().all(|f| f.rule == "hot-path"));
        // A marker above test code binds to it, not to the fn after it.
        let src = "// lint: hot\n#[test]\nfn t() { vec![1]; }\nfn cold() { vec![1]; }";
        assert!(check("trace", src).is_empty());
        // Paths, macros, methods, turbofish and let types all count, each
        // once, in walk order (a method call before its receiver).
        let src = "\
// lint: hot
fn f(&mut self) {
    let m: FastMap<u32, u32> = x.iter().collect::<BTreeMap<_, _>>();
    let b = Box::new(vec![1]);
    let s = Vec::<u8>::with_capacity(1).to_vec();
}";
        let f = check("trace", src);
        assert_eq!(
            snippets(&f),
            vec![
                ".collect()",
                "BTreeMap",
                "FastMap",
                "Box::new",
                "vec!",
                ".to_vec()",
                "Vec::with_capacity"
            ]
        );
        assert_eq!(
            f.iter().map(|f| f.line).collect::<Vec<_>>(),
            [3, 3, 3, 4, 4, 5, 5]
        );
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
        let src = "\
// lint: hot
fn f() { let s = \"v[0] == 1.0 or .clone()\"; } // x[0] == 0.0 .to_vec()";
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
