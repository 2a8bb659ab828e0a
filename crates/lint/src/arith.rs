//! `clock-arith`: unchecked integer arithmetic on clock and byte
//! counters.
//!
//! Trace clocks are `u64` milliseconds/nanoseconds and byte counters
//! accumulate over month-long traces; a silent wrap corrupts replay
//! metrics without failing any test (debug builds panic, release builds
//! wrap). The workspace convention (DESIGN.md, vcdn_types::time) is that
//! such identifiers end in `_ms`, `_ns`, or `_bytes` (or are exactly
//! `ms`/`ns`/`bytes`), so the rule flags raw `+ - *` / `+= -= *=` where:
//!
//! * at least one operand is an identifier matching the naming
//!   convention **and** the symbol table resolves it to an integer
//!   (unknown or float-classified names stay silent — `mean_residency_ms:
//!   f64` is fine arithmetic), and
//! * no operand is float-classified, and
//! * the line (or the line above) does not carry a `// lint: wrap-ok`
//!   marker.
//!
//! Fix with `saturating_*` / `checked_*` / `wrapping_*` — the marker is
//! for sites where wrap math is the point (hashing, ring indices).

use crate::ast::{walk_block, Ast, Expr, ExprKind, Node};
use crate::rules::{FileInput, Finding};
use crate::symbols::{SymbolTable, VarClass};

/// Runs the rule on one file.
pub fn check(input: &FileInput<'_>, ast: &Ast, out: &mut Vec<Finding>) {
    let file_syms = SymbolTable::from_ast(ast);
    crate::ast::for_each_fn(ast, &mut |func, _| {
        let Some(body) = &func.body else { return };
        let mut ctx = Ctx {
            syms: file_syms.scoped_to(func),
            input,
            out,
        };
        walk_block(body, &mut |node| ctx.visit(node));
    });
}

struct Ctx<'a, 'b> {
    syms: SymbolTable,
    input: &'a FileInput<'a>,
    out: &'b mut Vec<Finding>,
}

impl Ctx<'_, '_> {
    fn visit(&mut self, node: Node<'_>) {
        match node {
            Node::Let {
                names, ty, init, ..
            } => self.syms.note_let(names, ty, init),
            Node::Expr(e) => match &e.kind {
                ExprKind::Binary { op, lhs, rhs } if matches!(op.as_str(), "+" | "-" | "*") => {
                    self.check_op(e.line, op, lhs, rhs)
                }
                ExprKind::Assign { op, target, value }
                    if matches!(op.as_str(), "+=" | "-=" | "*=") =>
                {
                    self.check_op(e.line, op, target, value)
                }
                _ => {}
            },
            Node::Item(_) => {}
        }
    }

    fn check_op(&mut self, line: u32, op: &str, a: &Expr, b: &Expr) {
        if self.wrap_ok(line) {
            return;
        }
        let (ca, cb) = (self.syms.class_of(a), self.syms.class_of(b));
        if ca == VarClass::Float || cb == VarClass::Float {
            return;
        }
        let counter = [(a, ca), (b, cb)].into_iter().find_map(|(e, c)| {
            let name = counter_name(e)?;
            (c == VarClass::Int).then(|| name.to_string())
        });
        let Some(name) = counter else { return };
        self.out.push(Finding {
            rule: "clock-arith",
            file: self.input.rel_path.to_string(),
            line,
            snippet: format!("{name} {op}"),
            message: format!(
                "unchecked `{op}` on counter `{name}`; use saturating_*/checked_*/wrapping_* \
                 or mark the line `// lint: wrap-ok`"
            ),
        });
    }

    /// `// lint: wrap-ok` on the same line or the line above suppresses.
    fn wrap_ok(&self, line: u32) -> bool {
        self.input
            .lexed
            .wrap_ok_lines
            .iter()
            .any(|&m| m == line || m + 1 == line)
    }
}

/// If the expression is (a reference to / cast of) a named place whose
/// name matches the clock/byte-counter convention, returns the name.
fn counter_name(e: &Expr) -> Option<&str> {
    match &e.kind {
        ExprKind::Path(_) | ExprKind::Field(..) => {
            let name = e.name_root()?;
            matches_convention(name).then_some(name)
        }
        ExprKind::Unary { expr, .. } => counter_name(expr),
        _ => None,
    }
}

fn matches_convention(name: &str) -> bool {
    matches!(name, "ms" | "ns" | "bytes")
        || name.ends_with("_ms")
        || name.ends_with("_ns")
        || name.ends_with("_bytes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let ast = parse(&lexed);
        let input = FileInput {
            rel_path: "crates/types/src/metrics.rs",
            crate_name: "types",
            lexed: &lexed,
            ast: &ast,
        };
        let mut out = Vec::new();
        check(&input, &ast, &mut out);
        out
    }

    #[test]
    fn unchecked_add_on_known_int_counter_fires() {
        let f = run("struct S { hit_bytes: u64 }\nimpl S { fn add(&mut self, n: u64) { self.hit_bytes += n; } }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "clock-arith");
        assert_eq!(f[0].snippet, "hit_bytes +=");
    }

    #[test]
    fn binary_ops_on_params_fire() {
        let f = run("fn span(start_ms: u64, end_ms: u64) -> u64 { end_ms - start_ms }");
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].snippet.contains("-"));
    }

    #[test]
    fn float_counters_are_silent() {
        assert!(
            run("fn f(mean_residency_ms: f64, x: f64) -> f64 { mean_residency_ms * x }").is_empty()
        );
        // Mixed float context is silent even with a named int nearby.
        assert!(run("fn f(dt_ms: u64, rate: f64) -> f64 { dt_ms as f64 * rate }").is_empty());
    }

    #[test]
    fn unresolved_names_are_silent() {
        assert!(run("fn f(x: Foo) -> u64 { x.some_ms + 1 }").is_empty());
    }

    #[test]
    fn saturating_methods_are_clean() {
        assert!(run("fn f(a_ms: u64, b_ms: u64) -> u64 { a_ms.saturating_sub(b_ms) }").is_empty());
    }

    #[test]
    fn wrap_ok_marker_suppresses() {
        let same = "fn f(seed_ms: u64) -> u64 { seed_ms * 31 } // lint: wrap-ok";
        assert!(run(same).is_empty());
        let above = "fn f(seed_ms: u64) -> u64 {\n    // lint: wrap-ok\n    seed_ms * 31\n}";
        assert!(run(above).is_empty());
        let unmarked = "fn f(seed_ms: u64) -> u64 { seed_ms * 31 }";
        assert_eq!(run(unmarked).len(), 1);
    }

    #[test]
    fn non_counter_names_are_silent() {
        assert!(run("fn f(count: u64, total: u64) -> u64 { count + total }").is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f(a_ms: u64) -> u64 { a_ms + 1 } }";
        assert!(run(src).is_empty());
    }
}
