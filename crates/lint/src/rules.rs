//! The rule engine: five workspace-specific rules over the token stream.
//!
//! Scoping conventions shared by all rules:
//!
//! * **Test code is exempt** where a rule says "non-test": anything under
//!   an item carrying `#[cfg(test)]` (or `#[test]`) is masked out, and the
//!   workspace walker never feeds `tests/` or `benches/` directories.
//! * **Hot regions** are the bodies of functions announced by a standalone
//!   `// lint: hot` marker comment; the marker binds to the next `fn`.
//! * Rules are scoped to crates by directory name under `crates/`
//!   (`core`, `sim`, …); the root package scans as `vcdn`.

use crate::lexer::{Lexed, Tok, TokKind};

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
        name: "determinism",
        summary: "no wall clocks, OS randomness or environment reads in core/sim/obs library code",
        explain: "\
WHAT  Forbids SystemTime, Instant::now, thread_rng/RandomState,
      std::env::var and available_parallelism in non-test library code of
      crates/core, crates/sim and crates/obs.
WHY   Replay telemetry is cmp-checked bit-identical across worker counts
      and hashers (CI: 1-vs-N workers, fasthash-vs-std). One stray clock or
      environment read silently breaks that contract for every policy.
FIX   Thread timestamps in from the trace (vcdn_types::Timestamp); derive
      randomness from vcdn_trace::DetRng with an explicit seed. Bench
      binaries (crates/bench) are exempt and may time freely.
ALLOW Timing that is provably reporting-only (excluded from deterministic
      payloads) may be suppressed in lint.allow with a justification.",
    },
    Rule {
        name: "hot-path",
        summary: "no allocation or std-hash containers inside `// lint: hot` functions",
        explain: "\
WHAT  Inside a function marked with a standalone `// lint: hot` comment,
      forbids HashMap/HashSet/BTreeMap mentions, format!, vec!,
      Vec::new/with_capacity, String::new/from, Box::new, and the methods
      .clone() / .to_string() / .to_owned() / .to_vec() / .collect().
WHY   The decide/evict/admission paths of all four policies are
      allocation-free by construction (PR 2: scratch buffers, FastMap,
      keyed sets); benchmark/ measures the resulting throughput. A
      single format! or HashMap::new in a decide path regresses every
      replay by an allocator round-trip per request.
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
      in non-test code across the whole workspace.
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
        name: "panic",
        summary: "no unwrap/expect/panic!/literal indexing in core/sim library code",
        explain: "\
WHAT  Forbids .unwrap(), .expect(), panic!, unreachable!, todo!,
      unimplemented! and indexing-by-integer-literal (x[0]) in non-test
      library code of crates/core and crates/sim.
WHY   Policies run inside million-request replays and (eventually) a
      serving path; a panic tears down the whole experiment grid. assert!
      remains allowed: contract violations should fail loudly, but
      recoverable states must not be expressed as unwrap.
FIX   Return Result (see CafeCache try-constructors), use let-else /
      match with a safe fallback, or f64::total_cmp for comparator
      positions that previously unwrapped partial_cmp.
ALLOW Sites where the invariant is locally provable and a fallback would
      mask real corruption may be suppressed with a justification.",
    },
    Rule {
        name: "determinism-flow",
        summary: "unordered-container iteration must not reach output sinks unsanitized",
        explain: "\
WHAT  AST-lite taint analysis (crates/core, crates/sim, crates/obs):
      values flowing from FastMap/FastSet/HashMap/HashSet iteration
      (.iter/.keys/.values/.drain/.into_iter/…) may not reach an output
      sink — writes into exported fields (.push/.extend/.append),
      write!/writeln!/print! macros, or json/serialize/emit/render calls
      — unless the flow passes a sanitizer first: an explicit sort
      (sort/sort_by/sort_unstable_by_key/…), collection into a BTreeMap/
      BTreeSet, or the vcdn_types::det_iter helpers.
WHY   Replay output is cmp-checked bit-identical across worker counts
      AND hashers (the std-hash CI leg swaps FxHash for SipHash).
      Hash-map iteration order is hasher-dependent, so one unsorted
      iteration that reaches a serialized bundle breaks the contract in
      a way no single-configuration test can see.
FIX   Iterate via vcdn_types::det_iter (key-sorted), or collect and sort
      explicitly before the sink; order-insensitive folds (sum, count,
      min/max, all/any) are recognized and stay clean.
ALLOW Flows that are provably order-independent beyond the recognized
      terminals (e.g. max-reduction written by hand) may be suppressed
      with a justification.",
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
    Rule {
        name: "feature-gate",
        summary: "every #[cfg(feature = \"…\")] name must be declared in that crate's Cargo.toml",
        explain: "\
WHAT  Every `feature = \"name\"` occurrence in a crate's source must name
      a feature declared in that crate's Cargo.toml [features] table.
WHY   cfg on an undeclared feature silently compiles the gated code out
      forever — the std-hash determinism check would quietly stop
      checking anything if the feature name drifted.
FIX   Declare the feature in Cargo.toml or fix the typo. (Cargo's own
      unexpected_cfgs lint covers some of this, but only for targets that
      compile; vcdn-lint checks every scanned file uniformly.)
ALLOW Should never need suppression; entries are accepted for symmetry.",
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
    /// Features declared in the owning crate's `Cargo.toml`.
    pub declared_features: &'a [String],
    /// Lexed source.
    pub lexed: &'a Lexed,
    /// AST-lite parse of the same source (see [`crate::ast`]).
    pub ast: &'a crate::ast::Ast,
}

/// Runs every rule on one file, appending findings.
pub fn check_file(input: &FileInput<'_>, out: &mut Vec<Finding>) {
    let toks = &input.lexed.toks;
    let test_mask = test_mask(toks);
    let hot_mask = hot_mask(input.lexed);

    determinism_rule(input, toks, &test_mask, out);
    hot_path_rule(input, toks, &hot_mask, out);
    float_eq_rule(input, toks, &test_mask, out);
    panic_rule(input, toks, &test_mask, out);
    feature_gate_rule(input, toks, out);

    // AST-lite rule families (each scopes itself by crate internally).
    crate::flow::check(input, input.ast, out);
    crate::locks::check(input, input.ast, out);
    crate::arith::check(input, input.ast, out);
}

// ---------------------------------------------------------------- masks --

/// Marks every token inside an item annotated `#[cfg(test)]` / `#[test]`.
fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !(is_punct(toks, i, "#") && is_punct(toks, i + 1, "[")) {
            i += 1;
            continue;
        }
        let attr_end = match close_bracket(toks, i + 1) {
            Some(e) => e,
            None => break,
        };
        if !attr_is_test(&toks[i + 2..attr_end]) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes, then mask the item itself.
        let mut j = attr_end + 1;
        while is_punct(toks, j, "#") && is_punct(toks, j + 1, "[") {
            match close_bracket(toks, j + 1) {
                Some(e) => j = e + 1,
                None => return mask,
            }
        }
        let item_end = item_end(toks, j);
        for m in mask.iter_mut().take(item_end + 1).skip(i) {
            *m = true;
        }
        i = item_end + 1;
    }
    mask
}

/// `#[cfg(test)]`, `#[cfg(all(test, …))]`, or bare `#[test]`.
fn attr_is_test(attr: &[Tok]) -> bool {
    match attr.first() {
        Some(t) if t.kind == TokKind::Ident && t.text == "test" => attr.len() == 1,
        Some(t) if t.kind == TokKind::Ident && t.text == "cfg" => attr
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "test"),
        _ => false,
    }
}

/// Index of the token ending the item that starts at `start`: the matching
/// `}` of its first top-level `{`, or the first top-level `;`.
fn item_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 0i32;
    let mut j = start;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" if toks[j].kind == TokKind::Punct => {
                if let Some(e) = close_brace(toks, j) {
                    return e;
                }
                return toks.len() - 1;
            }
            "(" | "[" if toks[j].kind == TokKind::Punct => depth += 1,
            ")" | "]" if toks[j].kind == TokKind::Punct => depth -= 1,
            ";" if toks[j].kind == TokKind::Punct && depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

/// Marks every token inside a function announced by `// lint: hot`.
fn hot_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.toks;
    let mut mask = vec![false; toks.len()];
    for &marker_line in &lexed.hot_marker_lines {
        // First `fn` token after the marker line.
        let Some(fn_idx) = toks
            .iter()
            .position(|t| t.line > marker_line && t.kind == TokKind::Ident && t.text == "fn")
        else {
            continue;
        };
        // Its body: first `{` after the signature, brace-matched.
        let Some(open) =
            (fn_idx..toks.len()).find(|&j| toks[j].kind == TokKind::Punct && toks[j].text == "{")
        else {
            continue;
        };
        let end = close_brace(toks, open).unwrap_or(toks.len() - 1);
        for m in mask.iter_mut().take(end + 1).skip(open) {
            *m = true;
        }
    }
    mask
}

fn close_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

fn close_bracket(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

// ------------------------------------------------------------- matching --

fn is_punct(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
}

fn is_ident(toks: &[Tok], i: usize, text: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
}

/// A needle: alternating idents and puncts matched exactly at a position.
#[derive(Clone, Copy)]
struct Needle {
    /// `(is_ident, text)` pairs, matched consecutively.
    pat: &'static [(bool, &'static str)],
    /// Snippet to report (human-oriented, also the allow-needle target).
    show: &'static str,
}

fn needle_at(toks: &[Tok], i: usize, n: &Needle) -> bool {
    n.pat.iter().enumerate().all(|(k, &(ident, text))| {
        if ident {
            is_ident(toks, i + k, text)
        } else {
            is_punct(toks, i + k, text)
        }
    })
}

// --------------------------------------------------------------- rules ---

const DETERMINISM_CRATES: &[&str] = &["core", "sim", "obs"];
const PANIC_CRATES: &[&str] = &["core", "sim"];

fn determinism_rule(
    input: &FileInput<'_>,
    toks: &[Tok],
    test_mask: &[bool],
    out: &mut Vec<Finding>,
) {
    if !DETERMINISM_CRATES.contains(&input.crate_name) {
        return;
    }
    const NEEDLES: &[Needle] = &[
        Needle {
            pat: &[(true, "SystemTime")],
            show: "SystemTime",
        },
        Needle {
            pat: &[(true, "Instant"), (false, "::"), (true, "now")],
            show: "Instant::now",
        },
        Needle {
            pat: &[(true, "thread_rng")],
            show: "thread_rng",
        },
        Needle {
            pat: &[(true, "RandomState")],
            show: "RandomState",
        },
        Needle {
            pat: &[(true, "from_entropy")],
            show: "from_entropy",
        },
        Needle {
            pat: &[(true, "env"), (false, "::"), (true, "var")],
            show: "env::var",
        },
        Needle {
            pat: &[(true, "env"), (false, "::"), (true, "var_os")],
            show: "env::var_os",
        },
        Needle {
            pat: &[(true, "available_parallelism")],
            show: "available_parallelism",
        },
    ];
    scan_needles(
        input,
        toks,
        Some(test_mask),
        NEEDLES,
        "determinism",
        out,
        |show| format!("{show} makes library replay output time- or environment-dependent"),
    );
}

fn hot_path_rule(input: &FileInput<'_>, toks: &[Tok], hot_mask: &[bool], out: &mut Vec<Finding>) {
    if !hot_mask.contains(&true) {
        return;
    }
    const NEEDLES: &[Needle] = &[
        Needle {
            pat: &[(true, "HashMap")],
            show: "HashMap",
        },
        Needle {
            pat: &[(true, "HashSet")],
            show: "HashSet",
        },
        Needle {
            pat: &[(true, "BTreeMap")],
            show: "BTreeMap",
        },
        Needle {
            pat: &[(true, "format"), (false, "!")],
            show: "format!",
        },
        Needle {
            pat: &[(true, "vec"), (false, "!")],
            show: "vec!",
        },
        Needle {
            pat: &[(true, "Vec"), (false, "::"), (true, "new")],
            show: "Vec::new",
        },
        Needle {
            pat: &[(true, "Vec"), (false, "::"), (true, "with_capacity")],
            show: "Vec::with_capacity",
        },
        Needle {
            pat: &[(true, "String"), (false, "::"), (true, "new")],
            show: "String::new",
        },
        Needle {
            pat: &[(true, "String"), (false, "::"), (true, "from")],
            show: "String::from",
        },
        Needle {
            pat: &[(true, "Box"), (false, "::"), (true, "new")],
            show: "Box::new",
        },
        Needle {
            pat: &[(false, "."), (true, "to_string"), (false, "(")],
            show: ".to_string()",
        },
        Needle {
            pat: &[(false, "."), (true, "to_owned"), (false, "(")],
            show: ".to_owned()",
        },
        Needle {
            pat: &[(false, "."), (true, "to_vec"), (false, "(")],
            show: ".to_vec()",
        },
        Needle {
            pat: &[(false, "."), (true, "clone"), (false, "(")],
            show: ".clone()",
        },
        Needle {
            pat: &[(false, "."), (true, "collect")],
            show: ".collect",
        },
    ];
    // Restrict the scan to hot tokens by masking everything else "test".
    let inverted: Vec<bool> = hot_mask.iter().map(|h| !h).collect();
    scan_needles(
        input,
        toks,
        Some(&inverted),
        NEEDLES,
        "hot-path",
        out,
        |show| format!("{show} inside a `// lint: hot` function (allocation-free decide paths)"),
    );
}

fn float_eq_rule(input: &FileInput<'_>, toks: &[Tok], test_mask: &[bool], out: &mut Vec<Finding>) {
    for (i, t) in toks.iter().enumerate() {
        if test_mask[i] || t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let float_neighbour = [i.wrapping_sub(1), i + 1]
            .iter()
            .any(|&j| toks.get(j).is_some_and(|t| t.kind == TokKind::Float));
        if float_neighbour {
            out.push(Finding {
                rule: "float-eq",
                file: input.rel_path.to_string(),
                line: t.line,
                snippet: format!("{} float literal", t.text),
                message: format!(
                    "direct `{}` on f64; use vcdn_types::float (approx_eq / exactly_zero)",
                    t.text
                ),
            });
        }
    }
}

fn panic_rule(input: &FileInput<'_>, toks: &[Tok], test_mask: &[bool], out: &mut Vec<Finding>) {
    if !PANIC_CRATES.contains(&input.crate_name) {
        return;
    }
    const NEEDLES: &[Needle] = &[
        Needle {
            pat: &[(false, "."), (true, "unwrap"), (false, "(")],
            show: ".unwrap()",
        },
        Needle {
            pat: &[(false, "."), (true, "expect"), (false, "(")],
            show: ".expect(",
        },
        Needle {
            pat: &[(true, "panic"), (false, "!")],
            show: "panic!",
        },
        Needle {
            pat: &[(true, "unreachable"), (false, "!")],
            show: "unreachable!",
        },
        Needle {
            pat: &[(true, "todo"), (false, "!")],
            show: "todo!",
        },
        Needle {
            pat: &[(true, "unimplemented"), (false, "!")],
            show: "unimplemented!",
        },
    ];
    scan_needles(
        input,
        toks,
        Some(test_mask),
        NEEDLES,
        "panic",
        out,
        |show| format!("{show} in library code; return Result or use a guarded match"),
    );

    // Indexing by integer literal: `x[0]`, `f()[1]`, `a[2][3]`.
    for i in 0..toks.len() {
        if test_mask[i] || !is_punct(toks, i, "[") {
            continue;
        }
        let indexable_before = i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || (toks[i - 1].kind == TokKind::Punct
                    && (toks[i - 1].text == "]" || toks[i - 1].text == ")")));
        // Exclude attribute openers `#[` and `let`/`if let` slice patterns.
        let attr_before = i > 0 && is_punct(toks, i - 1, "#");
        let pattern_pos = i > 0 && (is_ident(toks, i - 1, "let") || is_ident(toks, i - 1, "in"));
        if indexable_before
            && !attr_before
            && !pattern_pos
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Int)
            && is_punct(toks, i + 2, "]")
        {
            out.push(Finding {
                rule: "panic",
                file: input.rel_path.to_string(),
                line: toks[i].line,
                snippet: format!("[{}]", toks[i + 1].text),
                message: format!(
                    "indexing by literal `[{}]` can panic; use .get({}) or a slice pattern",
                    toks[i + 1].text,
                    toks[i + 1].text
                ),
            });
        }
    }
}

fn feature_gate_rule(input: &FileInput<'_>, toks: &[Tok], out: &mut Vec<Finding>) {
    for i in 0..toks.len() {
        if is_ident(toks, i, "feature")
            && is_punct(toks, i + 1, "=")
            && toks.get(i + 2).is_some_and(|t| t.kind == TokKind::Str)
        {
            let name = &toks[i + 2].text;
            if !input.declared_features.iter().any(|f| f == name) {
                out.push(Finding {
                    rule: "feature-gate",
                    file: input.rel_path.to_string(),
                    line: toks[i].line,
                    snippet: format!("feature = \"{name}\""),
                    message: format!(
                        "feature \"{name}\" is not declared in {}'s Cargo.toml [features]",
                        input.crate_name
                    ),
                });
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_needles(
    input: &FileInput<'_>,
    toks: &[Tok],
    skip_mask: Option<&[bool]>,
    needles: &[Needle],
    rule: &'static str,
    out: &mut Vec<Finding>,
    message: impl Fn(&str) -> String,
) {
    for i in 0..toks.len() {
        if skip_mask.is_some_and(|m| m[i]) {
            continue;
        }
        for n in needles {
            if needle_at(toks, i, n) {
                out.push(Finding {
                    rule,
                    file: input.rel_path.to_string(),
                    line: toks[i].line,
                    snippet: n.show.to_string(),
                    message: message(n.show),
                });
            }
        }
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
                declared_features: &["std-hash".to_string()],
                lexed: &lexed,
                ast: &ast,
            },
            &mut out,
        );
        out
    }

    #[test]
    fn determinism_flags_clocks_only_in_scoped_crates() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(check("core", src).len(), 1);
        assert_eq!(check("sim", src)[0].snippet, "Instant::now");
        assert!(check("trace", src).is_empty(), "trace is out of scope");
        assert!(check("bench", src).is_empty(), "bench is exempt");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn f() { x.unwrap(); let t = Instant::now(); } }";
        assert!(check("core", src).is_empty());
        // ...but the same body outside the test mod is flagged.
        let src = "mod m { fn f() { x.unwrap(); } }";
        assert_eq!(check("core", src).len(), 1);
    }

    #[test]
    fn hot_rule_binds_marker_to_next_fn_only() {
        let src = "\
// lint: hot
fn hot_fn(&mut self) { let v = Vec::new(); s.clone(); }
fn cold_fn() { let v = Vec::new(); format!(\"x\"); }";
        let f = check("trace", src);
        let snippets: Vec<&str> = f.iter().map(|f| f.snippet.as_str()).collect();
        assert_eq!(snippets, vec!["Vec::new", ".clone()"]);
        assert!(f.iter().all(|f| f.rule == "hot-path"));
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
    fn panic_rule_flags_unwrap_and_literal_indexing() {
        let f = check("sim", "fn f(v: &[u8]) -> u8 { v.first().unwrap(); v[0] }");
        let snippets: Vec<&str> = f.iter().map(|f| f.snippet.as_str()).collect();
        assert_eq!(snippets, vec![".unwrap()", "[0]"]);
        // unwrap_or / expect-in-attribute are fine.
        let ok = "#[expect(clippy::x)]\nfn f(v: Option<u8>) -> u8 { v.unwrap_or(0) }";
        assert!(check("sim", ok).is_empty());
        // assert! is allowed (contract checks fail loudly by design).
        assert!(check("core", "fn f(n: u64) { assert!(n > 0, \"n\"); }").is_empty());
        // Variable indexing and array types are fine.
        assert!(check("core", "fn f(v: &[u8], i: usize) -> u8 { v[i] }").is_empty());
        assert!(check("core", "fn f() { let t: [u8; 4] = [0u8; 4]; }").is_empty());
    }

    #[test]
    fn feature_gate_checks_declarations() {
        let ok = "#[cfg(feature = \"std-hash\")]\nfn f() {}";
        assert!(check("types", ok).is_empty());
        let bad = "#[cfg(feature = \"std-hsah\")]\nfn f() {}";
        let f = check("types", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "feature-gate");
        assert!(f[0].snippet.contains("std-hsah"));
    }

    #[test]
    fn needles_in_strings_and_comments_do_not_fire() {
        let src = "fn f() { let s = \"call .unwrap() or panic!\"; } // .unwrap()";
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
