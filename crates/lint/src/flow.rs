//! `determinism-flow`: intra-procedural taint from unordered-container
//! iteration to output sinks.
//!
//! The replay/telemetry contract says every exported byte is identical at
//! any worker count *and any hasher* (the `std-hash` CI leg swaps
//! FxHash for SipHash). Iterating a `FastMap`/`HashMap` yields
//! hasher-dependent order, so any value that flows from such an
//! iteration into serialized output silently breaks the contract.
//!
//! Model (per non-test function):
//!
//! * **Sources** — `.iter() .iter_mut() .keys() .values() .values_mut()
//!   .drain() .into_iter() .into_keys() .into_values()` on a receiver
//!   classified [`VarClass::Unordered`] by the symbol table.
//! * **Sanitizers** — `sort` / `sort_by` / `sort_by_key` /
//!   `sort_unstable*` / `sort_by_cached_key` on a tainted local,
//!   `.collect()` with a `BTree*` turbofish or into a `BTree*`-annotated
//!   binding, and the `vcdn_types::det_iter` family (any `det_`-prefixed
//!   call or method).
//! * **Order-insensitive terminals** — `sum count min max min_by* max_by*
//!   all any is_empty product` end a flow cleanly (their result does not
//!   depend on iteration order).
//! * **Sinks** — `push`/`push_str`/`extend`/`append` into a *field*
//!   (exported state), `write!`/`writeln!`/`print!`/`println!` macros,
//!   and any call or method whose name mentions `json`, `serial`,
//!   `emit`, or `render`, when fed a tainted value. Pushes into plain
//!   locals propagate taint instead (the collect-then-sort idiom stays
//!   clean).
//!
//! Scope: library code of `crates/core`, `crates/sim`, `crates/obs` —
//! the crates whose output is cmp-checked bit-identical in CI.

use crate::ast::{Ast, Block, Child, Expr, ExprKind, Stmt};
use crate::rules::{FileInput, Finding};
use crate::symbols::{SymbolTable, VarClass};
use std::collections::HashSet;

const SCOPE_CRATES: &[&str] = &["core", "sim", "obs"];

const SOURCE_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

const SORT_METHODS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

const ORDER_INSENSITIVE: &[&str] = &[
    "sum",
    "product",
    "count",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
    "is_empty",
    "len",
];

const PUSH_METHODS: &[&str] = &["push", "push_str", "extend", "append"];

const WRITE_MACROS: &[&str] = &["write", "writeln", "print", "println", "eprint", "eprintln"];

/// Runs the rule on one file.
pub fn check(input: &FileInput<'_>, ast: &Ast, out: &mut Vec<Finding>) {
    if !SCOPE_CRATES.contains(&input.crate_name) {
        return;
    }
    let file_syms = SymbolTable::from_ast(ast);
    crate::ast::for_each_fn(ast, &mut |func, _| {
        let Some(body) = &func.body else { return };
        let mut ctx = Ctx {
            syms: file_syms.scoped_to(func),
            tainted: HashSet::new(),
            loop_depth: 0,
            input,
            out,
        };
        ctx.walk_block(body);
    });
}

struct Ctx<'a, 'b> {
    syms: SymbolTable,
    tainted: HashSet<String>,
    /// How many enclosing `for` loops iterate a tainted source. Inside
    /// such a loop, the *order of side effects* is hasher-dependent, so
    /// pushes and writes are sinks even when their argument taint is
    /// invisible (e.g. `format!("{k}")` inline captures).
    loop_depth: u32,
    input: &'a FileInput<'a>,
    out: &'b mut Vec<Finding>,
}

impl Ctx<'_, '_> {
    fn walk_block(&mut self, b: &Block) {
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    names,
                    ty,
                    init,
                    else_,
                    ..
                } => {
                    if let Some(e) = init {
                        self.walk_expr(e);
                    }
                    if let Some(b) = else_ {
                        self.walk_block(b);
                    }
                    self.syms.note_let(names, ty.as_deref(), init.as_ref());
                    let tainted = match (ty, init) {
                        // An explicit BTree annotation is a sanitizer.
                        (Some(t), _) if t.contains("BTree") => false,
                        (_, Some(e)) => self.is_tainted(e),
                        _ => false,
                    };
                    for n in names {
                        if tainted {
                            self.tainted.insert(n.clone());
                        } else {
                            self.tainted.remove(n);
                        }
                    }
                }
                Stmt::Expr(e) => {
                    // Statement-level sanitizer: sorting a tainted local.
                    if let ExprKind::MethodCall { base, name, .. } = &e.kind {
                        if SORT_METHODS.contains(&name.as_str()) {
                            if let Some(root) = base.name_root() {
                                self.tainted.remove(root);
                            }
                        }
                    }
                    self.walk_expr(e);
                }
                Stmt::Item(_) => {}
            }
        }
    }

    /// Recursive walk: reports sinks, updates taint for assignments and
    /// loop bindings, descends into every subexpression.
    fn walk_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::MethodCall {
                base, name, args, ..
            } => {
                self.walk_children(e);
                if PUSH_METHODS.contains(&name.as_str()) {
                    let value_tainted =
                        self.loop_depth > 0 || args.iter().any(|a| self.is_tainted(a));
                    if value_tainted {
                        if is_field_access(base) {
                            self.report(
                                e.line,
                                &format!(".{name}("),
                                &format!(
                                    "unordered-iteration order reaches exported field via .{name}()"
                                ),
                            );
                        } else if let Some(root) = base.name_root() {
                            self.tainted.insert(root.to_string());
                        }
                    }
                } else if is_sink_name(name)
                    && (self.loop_depth > 0
                        || self.is_tainted(base)
                        || args.iter().any(|a| self.is_tainted(a)))
                {
                    self.report(
                        e.line,
                        &format!(".{name}("),
                        &format!("unordered-iteration value flows into .{name}()"),
                    );
                }
            }
            ExprKind::Call { func, args } => {
                self.walk_children(e);
                if let ExprKind::Path(segs) = &func.kind {
                    if let Some(last) = segs.last() {
                        if is_sink_name(last)
                            && (self.loop_depth > 0 || args.iter().any(|a| self.is_tainted(a)))
                        {
                            self.report(
                                e.line,
                                &format!("{last}("),
                                &format!("unordered-iteration value flows into {last}()"),
                            );
                        }
                    }
                }
            }
            ExprKind::Macro { name, args } => {
                self.walk_children(e);
                if WRITE_MACROS.contains(&name.as_str())
                    && (self.loop_depth > 0 || args.iter().any(|a| self.is_tainted(a)))
                {
                    self.report(
                        e.line,
                        &format!("{name}!"),
                        &format!("unordered-iteration value written out via {name}!"),
                    );
                }
            }
            ExprKind::Assign { target, value, .. } => {
                self.walk_children(e);
                if self.is_tainted(value) {
                    if let Some(root) = target.name_root() {
                        if is_field_access(target) {
                            // Assigning into a field: only flag
                            // order-carrying values (collections/iters are
                            // approximated by "directly from a source").
                            if self.is_direct_source(value) {
                                self.report(
                                    e.line,
                                    "= unordered iteration",
                                    "unordered iterator stored into a field without sorting",
                                );
                            }
                        } else {
                            self.tainted.insert(root.to_string());
                        }
                    }
                } else if let Some(root) = target.name_root() {
                    if !is_field_access(target) {
                        self.tainted.remove(root);
                    }
                }
            }
            ExprKind::For {
                pat_names,
                iter,
                body,
            } => {
                self.walk_expr(iter);
                let iter_tainted = self.is_tainted(iter);
                let mut added: Vec<String> = Vec::new();
                if iter_tainted {
                    self.loop_depth += 1;
                    for n in pat_names {
                        if self.tainted.insert(n.clone()) {
                            added.push(n.clone());
                        }
                    }
                }
                self.walk_block(body);
                if iter_tainted {
                    self.loop_depth -= 1;
                }
                for n in added {
                    self.tainted.remove(&n);
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee);
                let scrut_tainted = self.is_tainted(scrutinee);
                for arm in arms {
                    let mut added: Vec<String> = Vec::new();
                    if scrut_tainted {
                        for n in &arm.pat_names {
                            if self.tainted.insert(n.clone()) {
                                added.push(n.clone());
                            }
                        }
                    }
                    if let Some(g) = &arm.guard {
                        self.walk_expr(g);
                    }
                    self.walk_expr(&arm.body);
                    for n in added {
                        self.tainted.remove(&n);
                    }
                }
            }
            _ => self.walk_children(e),
        }
    }

    /// Walks the sub-nodes of an expression this walk does not inspect.
    fn walk_children(&mut self, e: &Expr) {
        for child in e.children() {
            match child {
                Child::Expr(c) => self.walk_expr(c),
                Child::Block(b) => self.walk_block(b),
            }
        }
    }

    /// Whether the expression's *value* carries unordered-iteration order.
    fn is_tainted(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::Path(segs) => segs.len() == 1 && self.tainted.contains(&segs[0]),
            ExprKind::Field(base, name) => self.tainted.contains(name) || self.is_tainted(base),
            ExprKind::MethodCall {
                base,
                name,
                turbofish,
                args,
            } => {
                if name.starts_with("det_") {
                    return false; // vcdn_types::det_iter family
                }
                if SOURCE_METHODS.contains(&name.as_str())
                    && self.syms.class_of(base) == VarClass::Unordered
                {
                    return true;
                }
                if name == "collect" {
                    if turbofish.contains("BTree") {
                        return false;
                    }
                    return self.is_tainted(base);
                }
                if SORT_METHODS.contains(&name.as_str())
                    || ORDER_INSENSITIVE.contains(&name.as_str())
                {
                    return false;
                }
                self.is_tainted(base) || args.iter().any(|a| self.is_tainted(a))
            }
            ExprKind::Call { func, args } => {
                if let ExprKind::Path(segs) = &func.kind {
                    if segs.iter().any(|s| s.starts_with("det_")) {
                        return false;
                    }
                }
                args.iter().any(|a| self.is_tainted(a))
            }
            ExprKind::Macro { args, .. } => args.iter().any(|a| self.is_tainted(a)),
            ExprKind::Binary { lhs, rhs, .. } => self.is_tainted(lhs) || self.is_tainted(rhs),
            ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => self.is_tainted(expr),
            ExprKind::Index { base, .. } => self.is_tainted(base),
            ExprKind::Tuple(elems) => elems.iter().any(|el| self.is_tainted(el)),
            ExprKind::StructLit { fields, .. } => fields
                .iter()
                .any(|(_, v)| v.as_ref().is_some_and(|v| self.is_tainted(v))),
            ExprKind::If { then, else_, .. } => {
                block_value_tainted(self, then)
                    || else_.as_ref().is_some_and(|e2| self.is_tainted(e2))
            }
            ExprKind::Match { arms, .. } => arms.iter().any(|a| self.is_tainted(&a.body)),
            ExprKind::Block(b) => block_value_tainted(self, b),
            _ => false,
        }
    }

    /// Whether the expression is literally `<unordered>.<source>()…`
    /// without an intervening collect (used for field assignments).
    fn is_direct_source(&self, e: &Expr) -> bool {
        match &e.kind {
            ExprKind::MethodCall { base, name, .. } => {
                (SOURCE_METHODS.contains(&name.as_str())
                    && self.syms.class_of(base) == VarClass::Unordered)
                    || (name != "collect" && self.is_direct_source(base))
            }
            _ => false,
        }
    }

    fn report(&mut self, line: u32, snippet: &str, message: &str) {
        self.out.push(Finding {
            rule: "determinism-flow",
            file: self.input.rel_path.to_string(),
            line,
            snippet: snippet.to_string(),
            message: format!("{message}; sort first or use vcdn_types::det_iter"),
        });
    }
}

/// Taint of a block's trailing expression (block-as-value position).
fn block_value_tainted(ctx: &Ctx<'_, '_>, b: &Block) -> bool {
    match b.stmts.last() {
        Some(Stmt::Expr(e)) => ctx.is_tainted(e),
        _ => false,
    }
}

fn is_field_access(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Field(..) => true,
        ExprKind::Unary { expr, .. } => is_field_access(expr),
        ExprKind::Index { base, .. } => is_field_access(base),
        _ => false,
    }
}

fn is_sink_name(name: &str) -> bool {
    ["json", "serial", "emit", "render"]
        .iter()
        .any(|n| name.to_ascii_lowercase().contains(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    fn run(crate_name: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let ast = parse(&lexed);
        let input = FileInput {
            rel_path: "crates/x/src/lib.rs",
            crate_name,
            lexed: &lexed,
            ast: &ast,
        };
        let mut out = Vec::new();
        check(&input, &ast, &mut out);
        out
    }

    const TAINTED_PUSH: &str = "\
struct R { lines: Vec<String> }
impl R {
    fn fill(&mut self, m: FastMap<u32, u64>) {
        for (k, v) in m.iter() {
            self.lines.push(format!(\"{k}={v}\"));
        }
    }
}";

    #[test]
    fn unsorted_iteration_into_field_push_fires() {
        let f = run("core", TAINTED_PUSH);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "determinism-flow");
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn out_of_scope_crates_are_silent() {
        assert!(run("bench", TAINTED_PUSH).is_empty());
        assert!(run("lint", TAINTED_PUSH).is_empty());
    }

    #[test]
    fn collect_then_sort_is_clean() {
        let src = "\
struct R { lines: Vec<String> }
impl R {
    fn fill(&mut self, m: FastMap<u32, u64>) {
        let mut pairs: Vec<(u32, u64)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        pairs.sort_unstable_by_key(|p| p.0);
        for (k, v) in pairs {
            self.lines.push(format!(\"{k}={v}\"));
        }
    }
}";
        assert!(run("core", src).is_empty(), "{:?}", run("core", src));
    }

    #[test]
    fn btree_collect_and_det_iter_are_sanitizers() {
        let src = "\
fn a(m: FastMap<u32, u64>, out: &mut String) {
    let sorted: BTreeMap<u32, u64> = m.iter().map(|(k, v)| (*k, *v)).collect();
    for (k, v) in sorted.iter() { out.push_str(\"x\"); }
}
fn b(m: FastMap<u32, u64>, out: &mut Vec<u32>) {
    for k in det_iter(&m) { out.push(1); }
}";
        assert!(run("obs", src).is_empty());
    }

    #[test]
    fn order_insensitive_terminals_are_clean() {
        let src = "\
struct S { total: u64 }
impl S {
    fn agg(&mut self, m: FastMap<u32, u64>, w: &mut String) {
        let total: u64 = m.values().sum();
        writeln!(w, \"{}\", total);
        self.total = total;
    }
}";
        assert!(run("sim", src).is_empty());
    }

    #[test]
    fn write_macro_sink_fires() {
        let src = "\
fn dump(m: HashMap<u32, u64>, w: &mut String) {
    for k in m.keys() {
        writeln!(w, \"{}\", k);
    }
}";
        let f = run("obs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].snippet.contains("writeln"));
    }

    #[test]
    fn json_call_sink_fires() {
        let src = "\
fn dump(m: FastMap<u32, u64>) -> String {
    let items: Vec<u64> = m.values().copied().collect();
    to_json(&items)
}";
        let f = run("obs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].snippet.contains("to_json"));
    }

    #[test]
    fn ordered_receivers_are_clean() {
        let src = "\
fn dump(m: BTreeMap<u32, u64>, v: Vec<u64>, out: &mut Vec<u64>) {
    for x in m.values() { out.push(*x); }
    for x in v.iter() { out.push(*x); }
}";
        assert!(run("core", src).is_empty());
    }

    #[test]
    fn test_functions_are_exempt() {
        let src = format!("#[cfg(test)]\nmod tests {{ {TAINTED_PUSH} }}");
        assert!(run("core", &src).is_empty());
    }
}
