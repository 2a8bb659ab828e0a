//! `lock-discipline`: the DESIGN.md §7 lock model, workspace-wide.
//!
//! The workspace keeps deadlock-freedom by construction: every mutex
//! scope is leaf-level. The sharded engine itself holds no locks at all
//! (every worker scans the trace and serves the shards it owns); the
//! live subjects today are the grid runner's per-cell job and result
//! slots (`crates/sim/src/runner.rs`), the trace generator's shared
//! free-buffer receiver (`crates/trace/src/ahead.rs`) and the metric
//! registry's name table (`crates/obs/src/registry.rs`). Concretely, per
//! function:
//!
//! * **No nested acquisition** — while a guard from `x.lock()` is live
//!   in the current scope, no other `.lock()` may be evaluated (this
//!   makes any lock-ordering rule unnecessary, and bans double-locking
//!   the same mutex, which self-deadlocks on std's non-reentrant
//!   `Mutex`).
//! * **Paired condvar waits** — `.wait(guard)` / `.wait_timeout` /
//!   `.wait_while` must consume a guard that is live in scope, and the
//!   condvar must hang off the same base object as the guard's mutex
//!   (`self.can_push.wait(st)` with `st = self.state.lock()`: one mutex
//!   per struct, so same-object pairing is exact). No library code waits
//!   on a condvar today; the check guards the pattern's return.
//!
//! Guards die at end of scope or at an explicit `drop(guard)`. Scope:
//! every crate's non-test library code, like `float-eq`.

use crate::ast::{Ast, Block, Child, Expr, ExprKind, Stmt};
use crate::rules::{FileInput, Finding};

const WAIT_METHODS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Runs the rule on one file.
pub fn check(input: &FileInput<'_>, ast: &Ast, out: &mut Vec<Finding>) {
    crate::ast::for_each_fn(ast, &mut |func, _| {
        let Some(body) = &func.body else { return };
        let mut ctx = Ctx {
            guards: Vec::new(),
            input,
            out,
        };
        ctx.walk_block(body);
    });
}

/// A live mutex guard.
#[derive(Debug, Clone)]
struct Guard {
    /// Binding name (`st`).
    name: String,
    /// Render of the lock receiver (`self.state`).
    mutex: String,
    /// Base object of the receiver (`self`).
    base: String,
    /// Acquisition line.
    line: u32,
}

struct Ctx<'a, 'b> {
    guards: Vec<Guard>,
    input: &'a FileInput<'a>,
    out: &'b mut Vec<Finding>,
}

impl Ctx<'_, '_> {
    /// Walks one lexical scope; guards bound inside it die on exit.
    fn walk_block(&mut self, b: &Block) {
        let scope_floor = self.guards.len();
        for stmt in &b.stmts {
            match stmt {
                Stmt::Let {
                    names,
                    init,
                    else_,
                    line,
                    ..
                } => {
                    if let Some(e) = init {
                        // walk_expr flags nested acquisition itself.
                        self.walk_expr(e);
                        if let Some(b) = else_ {
                            // A diverging branch, joined like an `if` arm.
                            let snapshot = self.guards.clone();
                            self.walk_block(b);
                            self.guards = snapshot;
                        }
                        // Bind a guard only when the chain still *is* the
                        // guard after error handling — `lock().take()`
                        // extracts a value and drops the guard with the
                        // temporary at the end of the statement.
                        if let Some(mutex) = guard_receiver(e) {
                            if let Some(name) = names.first() {
                                let base = base_object(&mutex);
                                self.guards.push(Guard {
                                    name: name.clone(),
                                    mutex,
                                    base,
                                    line: *line,
                                });
                            }
                        }
                    }
                }
                Stmt::Expr(e) => {
                    // `drop(guard)` releases early.
                    if let ExprKind::Call { func, args } = &e.kind {
                        if matches!(&func.kind, ExprKind::Path(s) if s.last().is_some_and(|l| l == "drop"))
                        {
                            if let Some(ExprKind::Path(segs)) = args.first().map(|a| &a.kind) {
                                if segs.len() == 1 {
                                    self.guards.retain(|g| g.name != segs[0]);
                                    continue;
                                }
                            }
                        }
                    }
                    self.walk_expr(e);
                }
                Stmt::Item(_) => {}
            }
        }
        self.guards.truncate(scope_floor);
    }

    /// Recursive expression walk: transient locks, waits, nested blocks.
    fn walk_expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::MethodCall {
                base, name, args, ..
            } => {
                if name == "lock" {
                    let mutex = expr_text(base);
                    self.flag_if_nested(e.line, &mutex);
                }
                if WAIT_METHODS.contains(&name.as_str()) {
                    self.check_wait(e.line, base, args);
                }
                self.walk_children(e);
            }
            // Branches are joined toward "still held": a drop() inside one
            // arm (typically followed by an early return) must not release
            // the guard on the fall-through path.
            ExprKind::If { cond, then, else_ } => {
                self.walk_expr(cond);
                let snapshot = self.guards.clone();
                self.walk_block(then);
                self.guards = snapshot.clone();
                if let Some(e2) = else_ {
                    self.walk_expr(e2);
                    self.guards = snapshot;
                }
            }
            ExprKind::Match { scrutinee, arms } => {
                self.walk_expr(scrutinee);
                let snapshot = self.guards.clone();
                for arm in arms {
                    if let Some(g) = &arm.guard {
                        self.walk_expr(g);
                    }
                    self.walk_expr(&arm.body);
                    self.guards = snapshot.clone();
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

    fn flag_if_nested(&mut self, line: u32, mutex: &str) {
        if let Some(held) = self.guards.last() {
            self.out.push(Finding {
                rule: "lock-discipline",
                file: self.input.rel_path.to_string(),
                line,
                snippet: format!("{mutex}.lock()"),
                message: format!(
                    "{mutex}.lock() while guard `{}` on {} (line {}) is held; \
                     DESIGN.md §7 requires leaf-level lock scopes",
                    held.name, held.mutex, held.line
                ),
            });
        }
    }

    fn check_wait(&mut self, line: u32, condvar: &Expr, args: &[Expr]) {
        // `guard = condvar.wait(guard)`: first argument names the guard.
        let guard_name = args.first().and_then(|a| match &a.kind {
            ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].as_str()),
            _ => None,
        });
        let cv_text = expr_text(condvar);
        // Only treat it as a condvar wait when the receiver is a plain
        // place expression (skips e.g. `thread::sleep`-style false hits
        // and receiver chains that cannot be a Condvar field).
        if !matches!(condvar.kind, ExprKind::Field(..) | ExprKind::Path(_)) {
            return;
        }
        let Some(gname) = guard_name else {
            self.out.push(Finding {
                rule: "lock-discipline",
                file: self.input.rel_path.to_string(),
                line,
                snippet: format!("{cv_text}.wait("),
                message: format!("{cv_text}.wait(…) without a named live mutex guard argument"),
            });
            return;
        };
        let Some(guard) = self.guards.iter().find(|g| g.name == gname) else {
            self.out.push(Finding {
                rule: "lock-discipline",
                file: self.input.rel_path.to_string(),
                line,
                snippet: format!("{cv_text}.wait("),
                message: format!(
                    "{cv_text}.wait({gname}) but `{gname}` is not a live guard from .lock() in this scope"
                ),
            });
            return;
        };
        let cv_base = base_object(&cv_text);
        if cv_base != guard.base {
            self.out.push(Finding {
                rule: "lock-discipline",
                file: self.input.rel_path.to_string(),
                line,
                snippet: format!("{cv_text}.wait("),
                message: format!(
                    "{cv_text}.wait({gname}) pairs a condvar on `{cv_base}` with a guard of {} \
                     on `{}`; condvars must wait under their own struct's mutex",
                    guard.mutex, guard.base
                ),
            });
        }
    }
}

/// If the expression is `<recv>.lock()` wrapped only in error handling
/// (`unwrap` / `expect` / `unwrap_or_else`), so that binding it keeps the
/// guard alive, returns the receiver text. Chains that go on to extract a
/// value (`.take()`, `.len()`, …) drop the guard with the temporary.
fn guard_receiver(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::MethodCall { base, name, .. } => {
            if name == "lock" {
                Some(expr_text(base))
            } else if matches!(name.as_str(), "unwrap" | "expect" | "unwrap_or_else") {
                guard_receiver(base)
            } else {
                None
            }
        }
        ExprKind::Unary { expr, .. } | ExprKind::Cast { expr, .. } => guard_receiver(expr),
        _ => None,
    }
}

/// Renders a place expression back to text (`self.state`, `q`, `a.b.c`).
fn expr_text(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Path(segs) => segs.join("::"),
        ExprKind::Field(base, name) => format!("{}.{}", expr_text(base), name),
        ExprKind::Unary { expr, .. } => expr_text(expr),
        ExprKind::Index { base, .. } => format!("{}[_]", expr_text(base)),
        ExprKind::MethodCall { base, name, .. } => format!("{}.{}()", expr_text(base), name),
        ExprKind::Call { func, .. } => format!("{}()", expr_text(func)),
        _ => "<expr>".to_string(),
    }
}

/// The first path segment of a place expression (`self.state` → `self`).
fn base_object(place: &str) -> String {
    place.split(['.', ':']).next().unwrap_or(place).to_string()
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
            rel_path: "crates/trace/src/ahead.rs",
            crate_name: "trace",
            lexed: &lexed,
            ast: &ast,
        };
        let mut out = Vec::new();
        check(&input, &ast, &mut out);
        out
    }

    #[test]
    fn engine_batch_queue_pattern_is_clean() {
        let src = "\
impl BatchQueue {
    fn pop(&self) -> Batch {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.queue.is_empty() {
            st = self.can_pop.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let b = st.queue.pop_front();
        drop(st);
        self.can_push.notify_one();
        b
    }
}";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn nested_lock_fires() {
        let src = "\
fn bad(&self) {
    let st = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
    let sh = self.shard.lock().unwrap_or_else(PoisonError::into_inner);
    st.len() + sh.len();
}";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("while guard"));
    }

    #[test]
    fn sequential_scoped_locks_are_clean() {
        let src = "\
fn ok(&self) {
    { let a = self.queue.lock().unwrap_or_else(PoisonError::into_inner); a.len(); }
    { let b = self.shard.lock().unwrap_or_else(PoisonError::into_inner); b.len(); }
}";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn drop_releases_the_guard() {
        let src = "\
fn ok(&self) {
    let a = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
    drop(a);
    let b = self.shard.lock().unwrap_or_else(PoisonError::into_inner);
    b.len();
}";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn wait_on_foreign_guard_fires() {
        let src = "\
fn bad(&self, other: &Peer) {
    let st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
    let st = other.can_pop.wait(st).unwrap_or_else(PoisonError::into_inner);
    st.len();
}";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("condvars must wait"));
    }

    #[test]
    fn wait_without_live_guard_fires() {
        let src = "\
fn bad(&self, st: Thing) {
    let st2 = self.can_pop.wait(st);
    st2.len();
}";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("not a live guard"));
    }

    #[test]
    fn drop_in_branch_keeps_guard_live_on_fallthrough() {
        // The engine's pop() shape: drop + early return in one branch,
        // wait on the guard on the fall-through path.
        let src = "\
impl BatchQueue {
    fn pop(&self) -> Option<Batch> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(batch) = st.batches.pop_front() {
                drop(st);
                self.can_push.notify_one();
                return Some(batch);
            }
            st = self.can_pop.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn lock_take_chain_is_transient_not_a_guard() {
        // The runner's shape: the lock temporary dies at the end of each
        // statement, so the second lock is not nested.
        let src = "\
fn work(&self, i: usize) {
    let Some(job) = self.jobs.lock().unwrap_or_else(PoisonError::into_inner).take() else {
        return;
    };
    let value = job();
    self.slots.lock().unwrap_or_else(PoisonError::into_inner).replace(value);
}";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn test_code_is_silent() {
        let nested = "fn f(&self) { let a = self.m.lock(); let b = self.n.lock(); }";
        assert_eq!(run(nested).len(), 1);
        assert!(run(&format!("#[cfg(test)] mod tests {{ {nested} }}")).is_empty());
    }
}
