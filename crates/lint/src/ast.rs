//! AST-lite: a tolerant recursive-descent parser over the lexed token
//! stream.
//!
//! The parser produces a **simplified** item/expression tree — functions,
//! impls, traits, modules, structs, blocks, let bindings, calls, method
//! chains, match arms, closures, binary/assignment operators and casts —
//! which is exactly the shape every vcdn-lint rule walks per function:
//! `hot-path`, `float-eq`, `literal-index` and `clock-arith` through
//! [`walk_block`], `lock-discipline` with its own scoping and
//! [`Expr::children`] for the rest. It is *not* a full Rust
//! grammar:
//!
//! * patterns are skipped (only their bound identifiers are collected);
//! * types are captured as raw token text (enough to classify `u64` vs
//!   `f64` vs anything else);
//! * anything unparseable degrades to [`ExprKind::Other`] after skipping
//!   to a sync point — the parser never fails and never panics, so one
//!   exotic construct cannot take a whole file out of analysis.
//!
//! Determinism: parsing is a pure function of the token stream, so
//! diagnostics derived from the tree are stable across runs and hosts.

use crate::lexer::{Lexed, Tok, TokKind};

/// A parsed file: the flat list of top-level items.
#[derive(Debug, Default)]
pub struct Ast {
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// One item (fn, impl, mod, struct, or anything else).
#[derive(Debug)]
pub struct Item {
    /// What the item is.
    pub kind: ItemKind,
    /// 1-based line of the item's first token.
    pub line: u32,
    /// Whether the item carries `#[cfg(test)]` / `#[test]` (directly; the
    /// walkers propagate test-ness down into nested items).
    pub is_test: bool,
}

/// The item kinds the rules distinguish.
#[derive(Debug)]
pub enum ItemKind {
    /// A free or associated function with an optional body.
    Fn(FnItem),
    /// `impl [Trait for] Type { items }`, or `trait Name { items }`.
    Impl {
        /// The `Self` type's (or trait's) last path segment (`RankIndex`, …).
        type_name: String,
        /// Associated items.
        items: Vec<Item>,
    },
    /// An inline `mod name { items }` (out-of-line mods are `Other`).
    Mod {
        /// Module name.
        name: String,
        /// Nested items.
        items: Vec<Item>,
    },
    /// `struct Name { fields }` (tuple/unit structs have no fields).
    Struct {
        /// Struct name.
        name: String,
        /// Named fields with raw type text.
        fields: Vec<FieldDecl>,
    },
    /// Any other item (use, enum, const, an item-level macro call, …),
    /// skipped structurally.
    Other,
}

/// A named field or parameter with its raw type text.
#[derive(Debug, Clone)]
pub struct FieldDecl {
    /// Field/parameter name.
    pub name: String,
    /// Raw type text, single-space separated (`FastMap < ChunkId , u32 >`
    /// renders as `FastMap<ChunkId,u32>` — see `Parser::type_text_until`).
    pub ty: String,
    /// 1-based line.
    pub line: u32,
}

/// A function: name, parameters, optional body.
#[derive(Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Parameters (excluding bare `self`; `self: Type` forms excluded too).
    pub params: Vec<FieldDecl>,
    /// Body block; `None` for trait-method declarations.
    pub body: Option<Block>,
}

/// A `{ … }` block of statements.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in source order.
    pub stmts: Vec<Stmt>,
    /// 1-based line of the opening brace.
    pub line: u32,
}

/// One statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let <pat>[: ty] [= init];` — bound names are the pattern's
    /// lowercase identifiers (a simple `let x = …` binds exactly `x`).
    Let {
        /// Identifiers the pattern binds.
        names: Vec<String>,
        /// Raw annotated type text, if any.
        ty: Option<String>,
        /// Initializer expression, if any.
        init: Option<Expr>,
        /// The `else` block of a let-else.
        else_: Option<Block>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An expression statement.
    Expr(Expr),
    /// A nested item (fn-in-fn, mod, …).
    Item(Item),
}

/// One expression node.
#[derive(Debug)]
pub struct Expr {
    /// The expression's shape.
    pub kind: ExprKind,
    /// 1-based line of the expression's first token.
    pub line: u32,
}

/// A match arm: guard and body (the pattern is skipped).
#[derive(Debug)]
pub struct Arm {
    /// The `if` guard, if any.
    pub guard: Option<Expr>,
    /// The arm's body expression.
    pub body: Expr,
}

/// The simplified expression grammar.
#[derive(Debug)]
pub enum ExprKind {
    /// `a` or `a::b::c` (generic arguments stripped).
    Path(Vec<String>),
    /// `base.name` / `base.0` without call parentheses.
    Field(Box<Expr>, String),
    /// `base.name::<T>(args)`.
    MethodCall {
        /// Receiver.
        base: Box<Expr>,
        /// Method name.
        name: String,
        /// Raw turbofish text (empty when absent).
        turbofish: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `func(args)`.
    Call {
        /// Callee (usually a `Path`).
        func: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `name!(args)` / `name![…]` / `name! {…}`.
    Macro {
        /// Macro name (last path segment).
        name: String,
        /// Best-effort parsed arguments.
        args: Vec<Expr>,
    },
    /// `lhs op rhs` for arithmetic/bit/comparison/logic/range operators.
    Binary {
        /// Operator text (`+`, `-`, `*`, `==`, `..`, …).
        op: String,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `target op value` where op is `=` or a compound `+=`-family op.
    Assign {
        /// Operator text (`=`, `+=`, …).
        op: String,
        /// Assignment target.
        target: Box<Expr>,
        /// Assigned value.
        value: Box<Expr>,
    },
    /// `expr as Ty`.
    Cast {
        /// The cast operand.
        expr: Box<Expr>,
        /// Raw target type text.
        ty: String,
    },
    /// `-x`, `!x`, `*x`, `&x`.
    Unary {
        /// Operator character.
        op: char,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `base[index]`.
    Index {
        /// Indexed expression.
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// A literal token.
    Lit(TokKind, String),
    /// `|params| body` (also `move |…|`).
    Closure {
        /// Parameter names.
        params: Vec<String>,
        /// Closure body.
        body: Box<Expr>,
    },
    /// `{ … }` block expression.
    Block(Block),
    /// `if [let pat =] cond { … } [else …]`.
    If {
        /// Condition (the expression after `=` for if-let).
        cond: Box<Expr>,
        /// Then-block.
        then: Block,
        /// Else branch (`Block` or nested `If`).
        else_: Option<Box<Expr>>,
    },
    /// `match scrutinee { arms }`.
    Match {
        /// Matched expression.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
    },
    /// `for pat in iter { … }` (the pattern is skipped).
    For {
        /// Iterated expression.
        iter: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `while [let pat =] cond { … }`.
    While {
        /// Condition.
        cond: Box<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `loop { … }`.
    Loop {
        /// Loop body.
        body: Block,
    },
    /// `return [expr]`.
    Return(Option<Box<Expr>>),
    /// `break ['label] [expr]`.
    Break(Option<Box<Expr>>),
    /// `(a, b, …)` tuples, `[a, b]` arrays, parenthesised groups.
    Tuple(Vec<Expr>),
    /// `Path { field: expr, … }` struct literal.
    StructLit {
        /// Struct path segments.
        path: Vec<String>,
        /// `(name, value)` pairs; shorthand fields have no value.
        fields: Vec<(String, Option<Expr>)>,
        /// The `..base` of a struct update.
        rest: Option<Box<Expr>>,
    },
    /// Anything the parser skipped.
    Other,
}

/// A direct sub-node of an expression.
#[derive(Debug, Clone, Copy)]
pub enum Child<'a> {
    /// A sub-expression.
    Expr(&'a Expr),
    /// A block owned by the expression (a body, a branch).
    Block(&'a Block),
}

/// A node reached by [`walk_block`].
#[derive(Debug, Clone, Copy)]
pub enum Node<'a> {
    /// An expression, reached before its sub-expressions.
    Expr(&'a Expr),
    /// A `let`, reached after its initializer: the names are bound only
    /// from here on.
    Let {
        /// Identifiers the pattern binds.
        names: &'a [String],
        /// Raw annotated type text, if any.
        ty: Option<&'a str>,
        /// Initializer expression, if any.
        init: Option<&'a Expr>,
        /// 1-based line of the `let`.
        line: u32,
    },
    /// An item nested in the body (not entered).
    Item(&'a Item),
}

/// Walks a block in source order, pre-order: every expression before its
/// children, every `let` after its initializer and `else` block. Nested
/// items are reported, not entered ([`for_each_fn`] visits their fns).
pub fn walk_block<'a>(b: &'a Block, f: &mut impl FnMut(Node<'a>)) {
    for stmt in &b.stmts {
        match stmt {
            Stmt::Let {
                names,
                ty,
                init,
                else_,
                line,
            } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = else_ {
                    walk_block(b, f);
                }
                f(Node::Let {
                    names,
                    ty: ty.as_deref(),
                    init: init.as_ref(),
                    line: *line,
                });
            }
            Stmt::Expr(e) => walk_expr(e, f),
            Stmt::Item(item) => f(Node::Item(item)),
        }
    }
}

/// [`walk_block`] from one expression.
fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(Node<'a>)) {
    f(Node::Expr(e));
    for child in e.children() {
        match child {
            Child::Expr(c) => walk_expr(c, f),
            Child::Block(b) => walk_block(b, f),
        }
    }
}

impl Expr {
    fn new(kind: ExprKind, line: u32) -> Expr {
        Expr { kind, line }
    }

    /// The direct sub-nodes, in source order.
    pub fn children(&self) -> Vec<Child<'_>> {
        use Child::{Block as B, Expr as E};
        match &self.kind {
            ExprKind::Field(x, _)
            | ExprKind::Unary { expr: x, .. }
            | ExprKind::Cast { expr: x, .. }
            | ExprKind::Closure { body: x, .. }
            | ExprKind::Return(Some(x))
            | ExprKind::Break(Some(x)) => vec![E(x)],
            ExprKind::MethodCall {
                base: x, args: xs, ..
            }
            | ExprKind::Call { func: x, args: xs } => {
                std::iter::once(E(x)).chain(xs.iter().map(E)).collect()
            }
            ExprKind::Macro { args: xs, .. } | ExprKind::Tuple(xs) => xs.iter().map(E).collect(),
            ExprKind::Binary { lhs: a, rhs: b, .. }
            | ExprKind::Assign {
                target: a,
                value: b,
                ..
            }
            | ExprKind::Index { base: a, index: b } => vec![E(a), E(b)],
            ExprKind::StructLit { fields, rest, .. } => fields
                .iter()
                .filter_map(|(_, v)| v.as_ref())
                .chain(rest.as_deref())
                .map(E)
                .collect(),
            ExprKind::Block(b) | ExprKind::Loop { body: b } => vec![B(b)],
            ExprKind::If { cond, then, else_ } => [E(cond), B(then)]
                .into_iter()
                .chain(else_.as_deref().map(E))
                .collect(),
            ExprKind::Match { scrutinee, arms } => std::iter::once(scrutinee.as_ref())
                .chain(arms.iter().flat_map(|a| a.guard.iter().chain([&a.body])))
                .map(E)
                .collect(),
            ExprKind::For { iter: x, body } | ExprKind::While { cond: x, body } => {
                vec![E(x), B(body)]
            }
            ExprKind::Path(_)
            | ExprKind::Lit(..)
            | ExprKind::Return(None)
            | ExprKind::Break(None)
            | ExprKind::Other => Vec::new(),
        }
    }

    /// The last path segment when the expression is a bare path or field
    /// access (`self.video_chunks` → `video_chunks`), else `None`. This
    /// is the name the symbol-table rules key on.
    pub fn name_root(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Path(segs) => segs.last().map(String::as_str),
            ExprKind::Field(_, name) => Some(name.as_str()),
            ExprKind::Unary { expr, .. } => expr.name_root(),
            _ => None,
        }
    }
}

/// Parses a lexed file. Never fails: unparseable regions degrade to
/// [`ExprKind::Other`] / [`ItemKind::Other`].
pub fn parse(lexed: &Lexed) -> Ast {
    let mut p = Parser {
        t: &lexed.toks,
        i: 0,
    };
    let mut items = p.items_until_close();
    // A stray `}` (unbalanced input) ends an item list; at file level,
    // skip it and keep going so the rest of the file is still analysed.
    while !p.done() {
        p.bump();
        items.extend(p.items_until_close());
    }
    Ast { items }
}

struct Parser<'a> {
    t: &'a [Tok],
    i: usize,
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn",
    "struct",
    "enum",
    "union",
    "trait",
    "impl",
    "mod",
    "use",
    "static",
    "type",
    "macro_rules",
    "extern",
];

/// Binary operators by precedence, loosest first.
const BINARY_LEVELS: &[&[&str]] = &[
    &["||"],
    &["&&"],
    &["==", "!=", "<", ">", "<=", ">="],
    &["|"],
    &["^"],
    &["&"],
    &["<<", ">>"],
    &["+", "-"],
    &["*", "/", "%"],
];

/// `lhs op rhs`, on the left operand's line.
fn binary(op: String, lhs: Expr, rhs: Expr) -> Expr {
    let line = lhs.line;
    let (lhs, rhs) = (Box::new(lhs), Box::new(rhs));
    Expr::new(ExprKind::Binary { op, lhs, rhs }, line)
}

impl Parser<'_> {
    // ------------------------------------------------------- primitives --

    fn done(&self) -> bool {
        self.i >= self.t.len()
    }

    fn cur(&self) -> Option<&Tok> {
        self.t.get(self.i)
    }

    fn nth(&self, k: usize) -> Option<&Tok> {
        self.t.get(self.i + k)
    }

    fn line(&self) -> u32 {
        self.cur().or_else(|| self.t.last()).map_or(1, |t| t.line)
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn at_punct(&self, s: &str) -> bool {
        self.cur()
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    fn nth_is_punct(&self, k: usize, s: &str) -> bool {
        self.nth(k)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
    }

    fn at_ident(&self, s: &str) -> bool {
        self.cur()
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == s)
    }

    fn at_any_ident(&self) -> bool {
        self.cur().is_some_and(|t| t.kind == TokKind::Ident)
    }

    fn eat_punct(&mut self, s: &str) -> bool {
        if self.at_punct(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_ident(&mut self, s: &str) -> bool {
        if self.at_ident(s) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn take_ident(&mut self) -> Option<String> {
        if self.at_any_ident() {
            let s = self.t[self.i].text.clone();
            self.bump();
            Some(s)
        } else {
            None
        }
    }

    /// Skips tokens until (and including) the closing delimiter matching
    /// the opener currently under the cursor. No-op if not at an opener.
    fn skip_balanced(&mut self) {
        let close = match self.cur().map(|t| t.text.as_str()) {
            Some("(") => ")",
            Some("[") => "]",
            Some("{") => "}",
            _ => return,
        };
        let open = self.t[self.i].text.clone();
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                if t.text == open {
                    depth += 1;
                } else if t.text == close {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
            }
            self.bump();
        }
    }

    /// Skips a balanced `<…>` generic-argument list starting at `<`.
    /// Tolerates `>=`-style fused closers produced by the lexer.
    fn skip_angles(&mut self) {
        if !self.at_punct("<") {
            return;
        }
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "<" | "<=" => depth += 1,
                    ">" | ">=" => {
                        depth -= 1;
                        if depth <= 0 {
                            self.bump();
                            return;
                        }
                    }
                    "(" | "[" => {
                        self.skip_balanced();
                        continue;
                    }
                    ";" | "{" | "}" => return, // runaway — bail without consuming
                    _ => {}
                }
            }
            self.bump();
        }
    }

    // ------------------------------------------------------------ items --

    /// Parses items until EOF or an unconsumed closing `}`.
    fn items_until_close(&mut self) -> Vec<Item> {
        let mut out = Vec::new();
        while !self.done() && !self.at_punct("}") {
            let before = self.i;
            if let Some(item) = self.item() {
                out.push(item);
            }
            if self.i == before {
                self.bump(); // always make progress
            }
        }
        out
    }

    fn item(&mut self) -> Option<Item> {
        let line = self.line();
        let mut is_test = false;
        // Attributes: `#[…]` and inner `#![…]`.
        while self.at_punct("#") {
            let save = self.i;
            self.bump();
            self.eat_punct("!");
            if self.at_punct("[") {
                let start = self.i;
                self.skip_balanced();
                if attr_is_test(&self.t[start + 1..self.i.saturating_sub(1)]) {
                    is_test = true;
                }
            } else {
                self.i = save;
                break;
            }
        }
        // Visibility and modifiers.
        if self.eat_ident("pub") && self.at_punct("(") {
            self.skip_balanced();
        }
        loop {
            if self.at_ident("const") {
                // `const fn` is a modifier; `const NAME: …` is an item.
                if self.nth(1).is_some_and(|t| {
                    t.kind == TokKind::Ident && (t.text == "fn" || t.text == "unsafe")
                }) {
                    self.bump();
                    continue;
                }
                // Const item: skip to `;`.
                self.skip_to_semi_or_brace();
                return Some(Item {
                    kind: ItemKind::Other,
                    line,
                    is_test,
                });
            }
            if self.at_ident("unsafe") || self.at_ident("async") || self.at_ident("default") {
                self.bump();
                continue;
            }
            if self.at_ident("extern") {
                self.bump();
                if self.cur().is_some_and(|t| t.kind == TokKind::Str) {
                    self.bump();
                }
                continue;
            }
            break;
        }

        if self.eat_ident("fn") {
            return Some(self.fn_item(line, is_test));
        }
        if self.eat_ident("struct") {
            return Some(self.struct_item(line, is_test));
        }
        if self.eat_ident("impl") || self.eat_ident("trait") {
            return Some(self.impl_item(line, is_test));
        }
        // An item-level macro call (`impl_json_struct!(T { a, b });`): its
        // braces are the macro's, not a body.
        if self.at_any_ident() && !self.at_ident("macro_rules") && self.nth_is_punct(1, "!") {
            self.bump();
            self.bump();
            self.skip_balanced();
            self.eat_punct(";");
            return Some(Item {
                kind: ItemKind::Other,
                line,
                is_test,
            });
        }
        if self.eat_ident("mod") {
            let name = self.take_ident().unwrap_or_default();
            if self.at_punct("{") {
                self.bump();
                let items = self.items_until_close();
                self.eat_punct("}");
                return Some(Item {
                    kind: ItemKind::Mod { name, items },
                    line,
                    is_test,
                });
            }
            self.eat_punct(";");
            return Some(Item {
                kind: ItemKind::Other,
                line,
                is_test,
            });
        }
        // Everything else: consume one generic item shape.
        if self
            .cur()
            .is_some_and(|t| t.kind == TokKind::Ident && ITEM_KEYWORDS.contains(&t.text.as_str()))
        {
            self.bump();
            self.skip_to_semi_or_brace();
            return Some(Item {
                kind: ItemKind::Other,
                line,
                is_test,
            });
        }
        // Not at an item start: let the caller make progress.
        None
    }

    /// Skips an item tail: to a top-level `;`, or through a top-level
    /// `{…}` body, whichever comes first.
    fn skip_to_semi_or_brace(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth <= 0 => {
                        self.bump();
                        return;
                    }
                    "{" if depth <= 0 => {
                        self.skip_balanced();
                        return;
                    }
                    "}" if depth <= 0 => return, // caller's closing brace
                    _ => {}
                }
            }
            self.bump();
        }
    }

    fn fn_item(&mut self, line: u32, is_test: bool) -> Item {
        let fn_line = self.t[self.i - 1].line; // the `fn` just eaten
        let name = self.take_ident().unwrap_or_default();
        if self.at_punct("<") {
            self.skip_angles();
        }
        let mut params = Vec::new();
        if self.at_punct("(") {
            params = self.param_list();
        }
        if self.eat_punct("->") {
            self.skip_type_until_body();
        }
        if self.at_ident("where") {
            self.skip_type_until_body();
        }
        let body = if self.at_punct("{") {
            Some(self.block())
        } else {
            self.eat_punct(";");
            None
        };
        Item {
            kind: ItemKind::Fn(FnItem {
                name,
                line: fn_line,
                params,
                body,
            }),
            line,
            is_test,
        }
    }

    /// Parses `( pat: Ty, … )`, returning named+typed params.
    fn param_list(&mut self) -> Vec<FieldDecl> {
        let mut out = Vec::new();
        if !self.eat_punct("(") {
            return out;
        }
        while !self.done() && !self.at_punct(")") {
            let line = self.line();
            // Pattern part: up to `:` or `,` or `)` at depth 0.
            let mut name = String::new();
            let mut depth = 0i32;
            let mut saw_colon = false;
            while let Some(t) = self.cur() {
                match (t.kind, t.text.as_str()) {
                    (TokKind::Punct, "(") | (TokKind::Punct, "[") | (TokKind::Punct, "<") => {
                        depth += 1
                    }
                    (TokKind::Punct, ")") | (TokKind::Punct, "]") | (TokKind::Punct, ">") => {
                        if t.text == ")" && depth == 0 {
                            break;
                        }
                        depth -= 1
                    }
                    (TokKind::Punct, ",") if depth == 0 => break,
                    (TokKind::Punct, ":") if depth == 0 => {
                        saw_colon = true;
                        break;
                    }
                    (TokKind::Ident, id) if name.is_empty() && id != "mut" && id != "ref" => {
                        name = id.to_string();
                    }
                    _ => {}
                }
                self.bump();
            }
            if saw_colon {
                self.bump(); // `:`
                let ty = self.type_text_until(&[",", ")"]);
                if !name.is_empty() && name != "self" {
                    out.push(FieldDecl { name, ty, line });
                }
            }
            if !self.eat_punct(",") && !self.at_punct(")") {
                // Stuck mid-parameter (exotic pattern): resync.
                if self.done() {
                    break;
                }
                self.bump();
            }
        }
        self.eat_punct(")");
        out
    }

    /// Captures raw type text until one of `stops` at depth 0.
    fn type_text_until(&mut self, stops: &[&str]) -> String {
        let mut depth = 0i32;
        let mut out = String::new();
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    s if depth == 0 && stops.contains(&s) => break,
                    "=" | ";" | "{" if depth == 0 => break,
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                    }
                    ">=" => {
                        // Fused `>=`: closes an angle and, at depth 0 with
                        // `=` as a stop, ends the type.
                        if depth > 0 {
                            depth -= 1;
                            self.bump();
                            if depth == 0 {
                                break;
                            }
                            out.push('>');
                            continue;
                        }
                        break;
                    }
                    _ => {}
                }
            }
            if !out.is_empty() && self.t[self.i].kind == TokKind::Ident {
                let last = out.chars().last().unwrap_or(' ');
                if last.is_alphanumeric() || last == '_' {
                    out.push(' ');
                }
            }
            out.push_str(&self.t[self.i].text);
            self.bump();
        }
        out
    }

    /// Skips a return type / where clause: everything until the body `{`
    /// or a terminating `;` at depth 0.
    fn skip_type_until_body(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ">" => depth -= 1,
                    ">=" => depth -= 1,
                    "{" if depth <= 0 => return,
                    ";" if depth <= 0 => return,
                    "}" if depth <= 0 => return,
                    _ => {}
                }
            }
            self.bump();
        }
    }

    fn struct_item(&mut self, line: u32, is_test: bool) -> Item {
        let name = self.take_ident().unwrap_or_default();
        if self.at_punct("<") {
            self.skip_angles();
        }
        if self.at_ident("where") {
            self.skip_type_until_body();
        }
        let mut fields = Vec::new();
        if self.at_punct("(") {
            // Tuple struct.
            self.skip_balanced();
            self.eat_punct(";");
        } else if self.at_punct("{") {
            self.bump();
            while !self.done() && !self.at_punct("}") {
                // Field attributes / visibility.
                while self.at_punct("#") {
                    self.bump();
                    if self.at_punct("[") {
                        self.skip_balanced();
                    }
                }
                if self.eat_ident("pub") && self.at_punct("(") {
                    self.skip_balanced();
                }
                let fline = self.line();
                let Some(fname) = self.take_ident() else {
                    self.bump();
                    continue;
                };
                if !self.eat_punct(":") {
                    continue;
                }
                let ty = self.type_text_until(&[",", "}"]);
                fields.push(FieldDecl {
                    name: fname,
                    ty,
                    line: fline,
                });
                self.eat_punct(",");
            }
            self.eat_punct("}");
        } else {
            self.eat_punct(";");
        }
        Item {
            kind: ItemKind::Struct { name, fields },
            line,
            is_test,
        }
    }

    fn impl_item(&mut self, line: u32, is_test: bool) -> Item {
        if self.at_punct("<") {
            self.skip_angles();
        }
        // `Trait for Type` or just `Type`: keep the last ident before the
        // body, skipping generic arguments.
        let mut type_name = String::new();
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "{") if depth <= 0 => break,
                (TokKind::Punct, ";") if depth <= 0 => {
                    self.bump();
                    return Item {
                        kind: ItemKind::Other,
                        line,
                        is_test,
                    };
                }
                (TokKind::Punct, "<") => depth += 1,
                (TokKind::Punct, ">") | (TokKind::Punct, ">=") => depth -= 1,
                (TokKind::Ident, "for") => type_name.clear(),
                (TokKind::Ident, "where") if depth <= 0 => {
                    self.skip_type_until_body();
                    continue;
                }
                (TokKind::Ident, id) if depth <= 0 => type_name = id.to_string(),
                _ => {}
            }
            self.bump();
        }
        let mut items = Vec::new();
        if self.at_punct("{") {
            self.bump();
            items = self.items_until_close();
            self.eat_punct("}");
        }
        Item {
            kind: ItemKind::Impl { type_name, items },
            line,
            is_test,
        }
    }

    // ------------------------------------------------- blocks and stmts --

    fn block(&mut self) -> Block {
        let line = self.line();
        let mut stmts = Vec::new();
        if !self.eat_punct("{") {
            return Block { stmts, line };
        }
        while !self.done() && !self.at_punct("}") {
            let before = self.i;
            if self.eat_punct(";") {
                continue;
            }
            if self.at_ident("let") {
                stmts.push(self.let_stmt());
            } else if self.at_item_start() {
                if let Some(item) = self.item() {
                    stmts.push(Stmt::Item(item));
                }
            } else {
                let e = self.expr(false);
                stmts.push(Stmt::Expr(e));
                self.eat_punct(";");
            }
            if self.i == before {
                self.bump();
            }
        }
        self.eat_punct("}");
        Block { stmts, line }
    }

    /// Whether the cursor sits at something that must be an item (incl.
    /// attribute-prefixed items and visibility).
    fn at_item_start(&self) -> bool {
        if self.at_punct("#") && self.nth_is_punct(1, "[") {
            return true;
        }
        let Some(t) = self.cur() else { return false };
        if t.kind != TokKind::Ident {
            return false;
        }
        match t.text.as_str() {
            "pub" | "struct" | "enum" | "union" | "trait" | "impl" | "mod" | "use" | "static"
            | "macro_rules" => true,
            "fn" => true,
            // `const` is an item only when followed by a name + `:`.
            "const" => self
                .nth(1)
                .is_some_and(|t| t.kind == TokKind::Ident && t.text != "fn"),
            _ => false,
        }
    }

    fn let_stmt(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // `let`
        let names = self.pattern(&[":", "=", ";"]);
        let ty = if self.eat_punct(":") {
            Some(self.type_text_until(&[",", ")"]))
        } else {
            None
        };
        let init = self.eat_punct("=").then(|| self.expr(false));
        // let-else: `let … = expr else { … };`
        let else_ = (init.is_some() && self.eat_ident("else")).then(|| self.block());
        self.eat_punct(";");
        Stmt::Let {
            names,
            ty,
            init,
            else_,
            line,
        }
    }

    // ------------------------------------------------------ expressions --

    /// `no_struct`: forbid `Path { … }` struct literals (condition and
    /// scrutinee positions, where `{` starts the block instead).
    fn expr(&mut self, no_struct: bool) -> Expr {
        self.assign_expr(no_struct)
    }

    fn assign_expr(&mut self, ns: bool) -> Expr {
        let lhs = self.range_expr(ns);
        let op = match self.cur() {
            Some(t)
                if t.kind == TokKind::Punct
                    && matches!(
                        t.text.as_str(),
                        "=" | "+=" | "-=" | "*=" | "/=" | "%=" | "&=" | "|=" | "^="
                    ) =>
            {
                t.text.clone()
            }
            _ => return lhs,
        };
        let line = lhs.line;
        self.bump();
        let value = self.assign_expr(ns);
        Expr::new(
            ExprKind::Assign {
                op,
                target: Box::new(lhs),
                value: Box::new(value),
            },
            line,
        )
    }

    fn range_expr(&mut self, ns: bool) -> Expr {
        // A prefix range `..hi` has no left operand.
        let lhs = if self.at_punct("..") || self.at_punct("..=") {
            Expr::new(ExprKind::Other, self.line())
        } else {
            self.binary_expr(ns, 0)
        };
        if !(self.at_punct("..") || self.at_punct("..=")) {
            return lhs;
        }
        let op = self.t[self.i].text.clone();
        self.bump();
        let rhs = if self.at_expr_start() {
            self.binary_expr(ns, 0)
        } else {
            Expr::new(ExprKind::Other, lhs.line)
        };
        binary(op, lhs, rhs)
    }

    /// Rough "an expression can start here" test, for open ranges.
    fn at_expr_start(&self) -> bool {
        match self.cur() {
            None => false,
            Some(t) => match t.kind {
                TokKind::Ident => !matches!(t.text.as_str(), "else"),
                TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char => true,
                TokKind::Lifetime => false,
                TokKind::Punct => matches!(t.text.as_str(), "(" | "[" | "-" | "!" | "*" | "&"),
            },
        }
    }

    /// Left-associative binary operators of [`BINARY_LEVELS`] from `level`
    /// down, by precedence climbing.
    fn binary_expr(&mut self, ns: bool, level: usize) -> Expr {
        let Some(ops) = BINARY_LEVELS.get(level) else {
            return self.cast_expr(ns);
        };
        let mut lhs = self.binary_expr(ns, level + 1);
        while let Some(op) = self.binary_op(ops) {
            let rhs = self.binary_expr(ns, level + 1);
            lhs = binary(op, lhs, rhs);
        }
        lhs
    }

    /// Consumes the operator under the cursor if it is one of `ops`. The
    /// lexer leaves `<<` / `>>` as two tokens (they may close generics).
    fn binary_op(&mut self, ops: &[&str]) -> Option<String> {
        let shift = ["<", ">"]
            .into_iter()
            .find(|c| self.at_punct(c) && self.nth_is_punct(1, c));
        let op = match shift {
            Some(c) => format!("{c}{c}"),
            None => self
                .cur()
                .filter(|t| t.kind == TokKind::Punct)?
                .text
                .clone(),
        };
        if !ops.contains(&op.as_str()) {
            return None;
        }
        self.i += if shift.is_some() { 2 } else { 1 };
        Some(op)
    }

    fn cast_expr(&mut self, ns: bool) -> Expr {
        let mut e = self.unary_expr(ns);
        while self.at_ident("as") {
            let line = e.line;
            self.bump();
            let ty = self.cast_type_text();
            e = Expr::new(
                ExprKind::Cast {
                    expr: Box::new(e),
                    ty,
                },
                line,
            );
        }
        e
    }

    /// A cast target type: path segments, one optional generic list,
    /// leading `&`/`*const`/`*mut`, or a parenthesised/array type.
    fn cast_type_text(&mut self) -> String {
        let mut out = String::new();
        while self.at_punct("&") || self.at_punct("*") {
            out.push_str(&self.t[self.i].text);
            self.bump();
            if self.at_ident("const") || self.at_ident("mut") {
                self.bump();
            }
        }
        if self.at_punct("(") || self.at_punct("[") {
            let start = self.i;
            self.skip_balanced();
            for t in &self.t[start..self.i] {
                out.push_str(&t.text);
            }
            return out;
        }
        loop {
            if self.at_any_ident() {
                out.push_str(&self.t[self.i].text);
                self.bump();
            } else {
                break;
            }
            if self.at_punct("<") {
                let start = self.i;
                self.skip_angles();
                for t in &self.t[start..self.i] {
                    out.push_str(&t.text);
                }
            }
            if self.at_punct("::") {
                out.push_str("::");
                self.bump();
                continue;
            }
            break;
        }
        out
    }

    fn unary_expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        if self.at_punct("-") || self.at_punct("!") || self.at_punct("*") {
            let op = self.t[self.i].text.chars().next().unwrap_or('-');
            self.bump();
            let e = self.unary_expr(ns);
            return Expr::new(
                ExprKind::Unary {
                    op,
                    expr: Box::new(e),
                },
                line,
            );
        }
        if self.at_punct("&") || self.at_punct("&&") {
            let double = self.at_punct("&&");
            self.bump();
            self.eat_ident("mut");
            let inner = self.unary_expr(ns);
            let one = Expr::new(
                ExprKind::Unary {
                    op: '&',
                    expr: Box::new(inner),
                },
                line,
            );
            return if double {
                Expr::new(
                    ExprKind::Unary {
                        op: '&',
                        expr: Box::new(one),
                    },
                    line,
                )
            } else {
                one
            };
        }
        if self.at_ident("move") && (self.nth_is_punct(1, "|") || self.nth_is_punct(1, "||")) {
            self.bump();
        }
        if self.at_punct("|") || self.at_punct("||") {
            return self.closure_expr(line);
        }
        self.postfix_expr(ns)
    }

    fn closure_expr(&mut self, line: u32) -> Expr {
        let mut params = Vec::new();
        if self.eat_punct("||") {
            // No parameters.
        } else {
            self.eat_punct("|");
            let mut depth = 0i32;
            let mut expect_name = true;
            while let Some(t) = self.cur() {
                match (t.kind, t.text.as_str()) {
                    (TokKind::Punct, "|") if depth == 0 => {
                        self.bump();
                        break;
                    }
                    (TokKind::Punct, "(") | (TokKind::Punct, "[") | (TokKind::Punct, "<") => {
                        depth += 1
                    }
                    (TokKind::Punct, ")") | (TokKind::Punct, "]") | (TokKind::Punct, ">") => {
                        depth -= 1
                    }
                    (TokKind::Punct, ",") if depth == 0 => expect_name = true,
                    (TokKind::Punct, ":") if depth == 0 => expect_name = false,
                    (TokKind::Ident, id) if expect_name && is_binding_ident(id) => {
                        params.push(id.to_string());
                        expect_name = false;
                    }
                    _ => {}
                }
                self.bump();
            }
        }
        if self.eat_punct("->") {
            self.skip_type_until_body();
        }
        let body = if self.at_punct("{") {
            Expr::new(ExprKind::Block(self.block()), self.line())
        } else {
            self.expr(false)
        };
        Expr::new(
            ExprKind::Closure {
                params,
                body: Box::new(body),
            },
            line,
        )
    }

    fn postfix_expr(&mut self, ns: bool) -> Expr {
        let mut e = self.primary_expr(ns);
        loop {
            if self.at_punct("?") {
                self.bump(); // `?` is transparent for the rules
                continue;
            }
            if self.at_punct(".") {
                let line = self.line();
                self.bump();
                // Tuple index `x.0` (and the `x.await` keyword).
                if self.cur().is_some_and(|t| t.kind == TokKind::Int) {
                    let name = self.t[self.i].text.clone();
                    self.bump();
                    e = Expr::new(ExprKind::Field(Box::new(e), name), line);
                    continue;
                }
                let Some(name) = self.take_ident() else {
                    continue;
                };
                let mut turbofish = String::new();
                if self.at_punct("::") && self.nth_is_punct(1, "<") {
                    self.bump();
                    let start = self.i;
                    self.skip_angles();
                    for t in &self.t[start..self.i] {
                        turbofish.push_str(&t.text);
                    }
                }
                if self.at_punct("(") {
                    let args = self.arg_list();
                    e = Expr::new(
                        ExprKind::MethodCall {
                            base: Box::new(e),
                            name,
                            turbofish,
                            args,
                        },
                        line,
                    );
                } else {
                    e = Expr::new(ExprKind::Field(Box::new(e), name), line);
                }
                continue;
            }
            if self.at_punct("(") {
                let line = e.line;
                let args = self.arg_list();
                e = Expr::new(
                    ExprKind::Call {
                        func: Box::new(e),
                        args,
                    },
                    line,
                );
                continue;
            }
            if self.at_punct("[") {
                let line = e.line;
                self.bump();
                let idx = self.expr(false);
                self.eat_punct("]");
                e = Expr::new(
                    ExprKind::Index {
                        base: Box::new(e),
                        index: Box::new(idx),
                    },
                    line,
                );
                continue;
            }
            break;
        }
        e
    }

    /// `( a, b, … )` argument list; assumes cursor at `(`.
    fn arg_list(&mut self) -> Vec<Expr> {
        let mut out = Vec::new();
        self.eat_punct("(");
        while !self.done() && !self.at_punct(")") {
            let before = self.i;
            out.push(self.expr(false));
            self.eat_punct(",");
            if self.i == before {
                self.bump();
            }
        }
        self.eat_punct(")");
        out
    }

    fn primary_expr(&mut self, ns: bool) -> Expr {
        let line = self.line();
        let Some(t) = self.cur() else {
            return Expr::new(ExprKind::Other, line);
        };
        match t.kind {
            TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char | TokKind::Lifetime => {
                let kind = t.kind;
                let text = t.text.clone();
                self.bump();
                // A lifetime here is a loop label: `'a: loop { … }`.
                if kind == TokKind::Lifetime {
                    self.eat_punct(":");
                    return self.primary_expr(ns);
                }
                Expr::new(ExprKind::Lit(kind, text), line)
            }
            TokKind::Punct => match t.text.as_str() {
                "(" => {
                    self.bump();
                    let mut elems = Vec::new();
                    let mut tuple = false;
                    while !self.done() && !self.at_punct(")") {
                        let before = self.i;
                        elems.push(self.expr(false));
                        if self.eat_punct(",") {
                            tuple = true;
                        }
                        if self.i == before {
                            self.bump();
                        }
                    }
                    self.eat_punct(")");
                    if !tuple && elems.len() == 1 {
                        elems.pop().unwrap_or(Expr::new(ExprKind::Other, line))
                    } else {
                        Expr::new(ExprKind::Tuple(elems), line)
                    }
                }
                "[" => {
                    self.bump();
                    let mut elems = Vec::new();
                    while !self.done() && !self.at_punct("]") {
                        let before = self.i;
                        elems.push(self.expr(false));
                        if !self.eat_punct(",") {
                            self.eat_punct(";");
                        }
                        if self.i == before {
                            self.bump();
                        }
                    }
                    self.eat_punct("]");
                    Expr::new(ExprKind::Tuple(elems), line)
                }
                "{" => Expr::new(ExprKind::Block(self.block()), line),
                _ => {
                    self.bump(); // unknown punct: skip, degrade
                    Expr::new(ExprKind::Other, line)
                }
            },
            TokKind::Ident => self.ident_expr(ns, line),
        }
    }

    fn ident_expr(&mut self, ns: bool, line: u32) -> Expr {
        match self.t[self.i].text.as_str() {
            "if" => {
                self.bump();
                return self.if_tail(line);
            }
            "while" => {
                self.bump();
                if self.eat_ident("let") {
                    self.pattern(&["=", ";"]);
                    self.eat_punct("=");
                }
                let cond = self.expr(true);
                let body = self.block();
                return Expr::new(
                    ExprKind::While {
                        cond: Box::new(cond),
                        body,
                    },
                    line,
                );
            }
            "loop" => {
                self.bump();
                let body = self.block();
                return Expr::new(ExprKind::Loop { body }, line);
            }
            "for" => {
                self.bump();
                self.pattern(&["in", "{"]);
                self.eat_ident("in");
                let iter = self.expr(true);
                let body = self.block();
                return Expr::new(
                    ExprKind::For {
                        iter: Box::new(iter),
                        body,
                    },
                    line,
                );
            }
            "match" => {
                self.bump();
                let scrutinee = self.expr(true);
                let mut arms = Vec::new();
                if self.eat_punct("{") {
                    while !self.done() && !self.at_punct("}") {
                        let before = self.i;
                        self.pattern(&["=>", "if"]);
                        let guard = self.eat_ident("if").then(|| self.expr(false));
                        if self.eat_punct("=>") {
                            let body = self.expr(false);
                            self.eat_punct(",");
                            arms.push(Arm { guard, body });
                        }
                        if self.i == before {
                            self.bump();
                        }
                    }
                    self.eat_punct("}");
                }
                return Expr::new(
                    ExprKind::Match {
                        scrutinee: Box::new(scrutinee),
                        arms,
                    },
                    line,
                );
            }
            "return" => {
                self.bump();
                let val = if self.at_expr_start() {
                    Some(Box::new(self.expr(false)))
                } else {
                    None
                };
                return Expr::new(ExprKind::Return(val), line);
            }
            "break" | "continue" => {
                let is_break = self.at_ident("break");
                self.bump();
                if self.cur().is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.bump();
                }
                let val = (self.at_expr_start() && !self.at_ident("else"))
                    .then(|| Box::new(self.expr(false)));
                let kind = if is_break {
                    ExprKind::Break(val)
                } else {
                    ExprKind::Other
                };
                return Expr::new(kind, line);
            }
            "unsafe" if self.nth_is_punct(1, "{") => {
                self.bump();
                return Expr::new(ExprKind::Block(self.block()), line);
            }
            "move" => {
                self.bump();
                if self.at_punct("|") || self.at_punct("||") {
                    return self.closure_expr(line);
                }
                return Expr::new(ExprKind::Other, line);
            }
            _ => {}
        }
        // Path: `a::b::<T>::c`.
        let mut segs = Vec::new();
        if let Some(id) = self.take_ident() {
            segs.push(id);
        }
        while self.at_punct("::") {
            self.bump();
            if self.at_punct("<") {
                self.skip_angles();
                continue;
            }
            match self.take_ident() {
                Some(id) => segs.push(id),
                None => break,
            }
        }
        // Macro invocation.
        if self.at_punct("!") && !self.nth_is_punct(1, "=") {
            self.bump();
            let name = segs.last().cloned().unwrap_or_default();
            let mut args = Vec::new();
            if let Some(close) = [("(", ")"), ("[", "]"), ("{", "}")]
                .into_iter()
                .find_map(|(open, close)| self.at_punct(open).then_some(close))
            {
                self.bump();
                while !self.done() && !self.at_punct(close) {
                    let before = self.i;
                    args.push(self.expr(false));
                    if !self.eat_punct(",") {
                        self.eat_punct(";");
                    }
                    if self.i == before {
                        self.bump();
                    }
                }
                self.eat_punct(close);
            }
            return Expr::new(ExprKind::Macro { name, args }, line);
        }
        // Struct literal: `Path { … }` outside condition positions, when
        // the last segment looks like a type name.
        if !ns
            && self.at_punct("{")
            && segs
                .last()
                .and_then(|s| s.chars().next())
                .is_some_and(|c| c.is_ascii_uppercase())
        {
            self.bump();
            let (mut fields, mut rest) = (Vec::new(), None);
            while !self.done() && !self.at_punct("}") {
                let before = self.i;
                if self.eat_punct("..") {
                    // Struct update: `..base`.
                    rest = Some(Box::new(self.expr(false)));
                    break;
                }
                if let Some(fname) = self.take_ident() {
                    let value = if self.eat_punct(":") {
                        Some(self.expr(false))
                    } else {
                        None
                    };
                    fields.push((fname, value));
                }
                self.eat_punct(",");
                if self.i == before {
                    self.bump();
                }
            }
            self.eat_punct("}");
            return Expr::new(
                ExprKind::StructLit {
                    path: segs,
                    fields,
                    rest,
                },
                line,
            );
        }
        Expr::new(ExprKind::Path(segs), line)
    }

    fn if_tail(&mut self, line: u32) -> Expr {
        if self.eat_ident("let") {
            self.pattern(&["=", ";"]);
            self.eat_punct("=");
        }
        let cond = self.expr(true);
        let then = self.block();
        let else_ = if self.eat_ident("else") {
            if self.at_ident("if") {
                let eline = self.line();
                self.bump();
                Some(Box::new(self.if_tail(eline)))
            } else {
                let eline = self.line();
                Some(Box::new(Expr::new(ExprKind::Block(self.block()), eline)))
            }
        } else {
            None
        };
        Expr::new(
            ExprKind::If {
                cond: Box::new(cond),
                then,
                else_,
            },
            line,
        )
    }

    /// Skips a pattern up to (not including) the first of `stops` outside
    /// brackets, or an unmatched closer; returns its binding names.
    fn pattern(&mut self, stops: &[&str]) -> Vec<String> {
        let mut names = Vec::new();
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct | TokKind::Ident, s) if depth == 0 && stops.contains(&s) => break,
                (TokKind::Punct, "(" | "[" | "{") => depth += 1,
                (TokKind::Punct, ")" | "]" | "}") if depth == 0 => break,
                (TokKind::Punct, ")" | "]" | "}") => depth -= 1,
                (TokKind::Ident, id) if is_binding_ident(id) => names.push(id.to_string()),
                _ => {}
            }
            self.bump();
        }
        names
    }
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

/// Whether a pattern identifier is a plausible binding name: lowercase
/// start (uppercase idents are variants/types) and not a pattern keyword.
fn is_binding_ident(id: &str) -> bool {
    !matches!(id, "mut" | "ref" | "box" | "if" | "let" | "in" | "_")
        && id
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
}

// ---------------------------------------------------------------- walks --

/// Calls `f` for every function item (with its enclosing-impl type name,
/// if any) that is **not** inside a `#[cfg(test)]`/`#[test]` subtree, in
/// source order: a function before the functions nested in its body.
pub fn for_each_fn<'a>(ast: &'a Ast, f: &mut impl FnMut(&'a FnItem, Option<&'a str>)) {
    fn visit<'a>(
        item: &'a Item,
        impl_ty: Option<&'a str>,
        f: &mut impl FnMut(&'a FnItem, Option<&'a str>),
    ) {
        if item.is_test {
            return;
        }
        match &item.kind {
            ItemKind::Fn(func) => {
                f(func, impl_ty);
                let mut nested = Vec::new();
                if let Some(body) = &func.body {
                    walk_block(body, &mut |node| {
                        if let Node::Item(item) = node {
                            nested.push(item);
                        }
                    });
                }
                for item in nested {
                    visit(item, None, f);
                }
            }
            ItemKind::Impl { type_name, items } => {
                for item in items {
                    visit(item, Some(type_name), f);
                }
            }
            ItemKind::Mod { items, .. } => {
                for item in items {
                    visit(item, impl_ty, f);
                }
            }
            _ => {}
        }
    }
    for item in &ast.items {
        visit(item, None, f);
    }
}

/// Calls `f` for every struct item outside test subtrees.
pub fn for_each_struct<'a>(ast: &'a Ast, f: &mut impl FnMut(&'a str, &'a [FieldDecl])) {
    fn walk<'a>(items: &'a [Item], f: &mut impl FnMut(&'a str, &'a [FieldDecl])) {
        for item in items {
            if item.is_test {
                continue;
            }
            match &item.kind {
                ItemKind::Struct { name, fields } => f(name, fields),
                ItemKind::Impl { items, .. } | ItemKind::Mod { items, .. } => walk(items, f),
                _ => {}
            }
        }
    }
    walk(&ast.items, f);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Ast {
        parse(&lex(src))
    }

    fn first_fn(ast: &Ast) -> &FnItem {
        fn find(items: &[Item]) -> Option<&FnItem> {
            for i in items {
                match &i.kind {
                    ItemKind::Fn(f) => return Some(f),
                    ItemKind::Impl { items, .. } | ItemKind::Mod { items, .. } => {
                        if let Some(f) = find(items) {
                            return Some(f);
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        find(&ast.items).expect("fixture has a fn")
    }

    #[test]
    fn parses_fn_with_params_and_body() {
        let ast = parse_src("pub fn f(a: u64, mut b: f64) -> u64 { let c = a + 1; c }");
        let f = first_fn(&ast);
        assert_eq!(f.name, "f");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "a");
        assert_eq!(f.params[0].ty, "u64");
        assert_eq!(f.params[1].name, "b");
        assert_eq!(f.params[1].ty, "f64");
        assert_eq!(f.body.as_ref().map(|b| b.stmts.len()), Some(2));
    }

    #[test]
    fn parses_method_chains_with_turbofish() {
        let ast = parse_src(
            "fn f(m: FastMap<u32, u64>) -> Vec<u32> {\n    m.keys().copied().collect::<Vec<u32>>()\n}",
        );
        let f = first_fn(&ast);
        let Some(Block { stmts, .. }) = &f.body else {
            panic!("body")
        };
        let Stmt::Expr(e) = &stmts[0] else {
            panic!("expr stmt")
        };
        // collect::<Vec<u32>>( copied( keys(m) ) )
        let ExprKind::MethodCall {
            name,
            turbofish,
            base,
            ..
        } = &e.kind
        else {
            panic!("method call, got {:?}", e.kind)
        };
        assert_eq!(name, "collect");
        assert_eq!(turbofish, "<Vec<u32>>");
        let ExprKind::MethodCall { name, base, .. } = &base.kind else {
            panic!("copied")
        };
        assert_eq!(name, "copied");
        let ExprKind::MethodCall { name, base, .. } = &base.kind else {
            panic!("keys")
        };
        assert_eq!(name, "keys");
        assert!(matches!(&base.kind, ExprKind::Path(p) if p == &vec!["m".to_string()]));
    }

    #[test]
    fn parses_nested_closures() {
        let ast = parse_src(
            "fn f(v: Vec<u32>) -> u32 {\n    v.iter().map(|x| (0..*x).map(|y| y + 1).sum::<u32>()).sum()\n}",
        );
        let f = first_fn(&ast);
        let Some(b) = &f.body else { panic!() };
        let Stmt::Expr(e) = &b.stmts[0] else { panic!() };
        let ExprKind::MethodCall { name, base, .. } = &e.kind else {
            panic!()
        };
        assert_eq!(name, "sum");
        let ExprKind::MethodCall { name, args, .. } = &base.kind else {
            panic!()
        };
        assert_eq!(name, "map");
        let ExprKind::Closure { params, body } = &args[0].kind else {
            panic!("closure, got {:?}", args[0].kind)
        };
        assert_eq!(params, &["x"]);
        let ExprKind::MethodCall { name, args, .. } = &body.kind else {
            panic!()
        };
        assert_eq!(name, "sum");
        let _ = args;
    }

    #[test]
    fn parses_match_arms_with_bindings() {
        let ast =
            parse_src("fn f(x: Option<u64>) -> u64 { match x { Some(v) => v + 1, None => 0, } }");
        let f = first_fn(&ast);
        let Some(b) = &f.body else { panic!() };
        let Stmt::Expr(e) = &b.stmts[0] else { panic!() };
        let ExprKind::Match { arms, .. } = &e.kind else {
            panic!("match, got {:?}", e.kind)
        };
        assert_eq!(arms.len(), 2);
        assert!(matches!(&arms[0].body.kind, ExprKind::Binary { op, .. } if op == "+"));
        assert!(matches!(arms[1].body.kind, ExprKind::Lit(TokKind::Int, _)));
    }

    #[test]
    fn raw_strings_and_weird_tokens_do_not_derail_items() {
        let ast = parse_src(
            "fn f() -> &'static str { r#\"has \"quotes\" and { braces }\"# }\npub fn g() {}",
        );
        let mut names = Vec::new();
        for_each_fn(&ast, &mut |f, _| names.push(f.name.clone()));
        assert_eq!(names, vec!["f", "g"]);
    }

    #[test]
    fn struct_fields_capture_types() {
        let ast = parse_src(
            "pub struct S {\n    pub total_bytes: u64,\n    iat: FastMap<ChunkId, f64>,\n    name: String,\n}",
        );
        let mut seen = Vec::new();
        for_each_struct(&ast, &mut |name, fields| {
            seen.push((name.to_string(), fields.to_vec()));
        });
        assert_eq!(seen.len(), 1);
        let (name, fields) = &seen[0];
        assert_eq!(name, "S");
        assert_eq!(fields[0].name, "total_bytes");
        assert_eq!(fields[0].ty, "u64");
        assert_eq!(fields[1].name, "iat");
        assert!(fields[1].ty.contains("FastMap"));
    }

    #[test]
    fn test_items_are_skipped_by_walks() {
        let ast = parse_src(
            "#[cfg(test)]\nmod tests { fn hidden() {} }\nfn visible() {}\n#[test]\nfn also_hidden() {}",
        );
        let mut names = Vec::new();
        for_each_fn(&ast, &mut |f, _| names.push(f.name.clone()));
        assert_eq!(names, vec!["visible"]);
    }

    #[test]
    fn impl_blocks_carry_type_names() {
        let ast = parse_src(
            "impl<T: Ord> RankIndex<T> { fn touch(&mut self) {} }\nimpl Display for Foo { fn fmt(&self) {} }",
        );
        let mut seen = Vec::new();
        for_each_fn(&ast, &mut |f, ty| {
            seen.push((f.name.clone(), ty.unwrap_or("-").to_string()));
        });
        assert_eq!(
            seen,
            vec![
                ("touch".to_string(), "RankIndex".to_string()),
                ("fmt".to_string(), "Foo".to_string())
            ]
        );
    }

    #[test]
    fn if_let_and_struct_literals_parse() {
        let ast = parse_src(
            "fn f(m: FastMap<u32, u64>) -> Out {\n    if let Some(v) = m.get(&1) { return Out { total: *v }; }\n    Out { total: 0 }\n}",
        );
        let f = first_fn(&ast);
        let Some(b) = &f.body else { panic!() };
        assert_eq!(b.stmts.len(), 2);
        let Stmt::Expr(last) = &b.stmts[1] else {
            panic!()
        };
        assert!(
            matches!(&last.kind, ExprKind::StructLit { path, .. } if path == &vec!["Out".to_string()])
        );
    }

    #[test]
    fn compound_assignment_parses() {
        let ast = parse_src("fn f(&mut self, bytes: u64) { self.hit_bytes += bytes; }");
        let f = first_fn(&ast);
        let Some(b) = &f.body else { panic!() };
        let Stmt::Expr(e) = &b.stmts[0] else { panic!() };
        let ExprKind::Assign { op, target, .. } = &e.kind else {
            panic!("assign, got {:?}", e.kind)
        };
        assert_eq!(op, "+=");
        assert_eq!(target.name_root(), Some("hit_bytes"));
    }

    #[test]
    fn casts_and_shifts_parse() {
        let ast = parse_src("fn f(x: u64) -> f64 { ((x >> 3) + (x << 2)) as f64 }");
        let f = first_fn(&ast);
        let Some(b) = &f.body else { panic!() };
        let Stmt::Expr(e) = &b.stmts[0] else { panic!() };
        let ExprKind::Cast { ty, expr } = &e.kind else {
            panic!("cast, got {:?}", e.kind)
        };
        assert_eq!(ty, "f64");
        assert!(matches!(&expr.kind, ExprKind::Binary { op, .. } if op == "+"));
    }

    #[test]
    fn code_in_every_position_is_walked() {
        // An item-level macro's braces do not end the file; trait default
        // methods, let-else blocks, match guards, struct-update bases,
        // `break` values and nested fns are all reached.
        let ast = parse_src(
            "impl_json!(T { a, b });
trait Tr { fn d(&self) { m1!(); } }
fn f(x: Option<u8>) {
    let Some(v) = x else { m2!(); return; };
    match v { n if m3!() => {}, _ => {} }
    let s = S { a: 1, ..m4!() };
    loop { break m5!(); }
    fn inner() { m6! { 1 } }
}",
        );
        let mut names = Vec::new();
        for_each_fn(&ast, &mut |f, _| {
            walk_block(f.body.as_ref().expect("body"), &mut |node| {
                if let Node::Expr(Expr {
                    kind: ExprKind::Macro { name, .. },
                    ..
                }) = node
                {
                    names.push(name.clone());
                }
            })
        });
        assert_eq!(names, ["m1", "m2", "m3", "m4", "m5", "m6"]);
    }

    #[test]
    fn parser_never_loops_on_garbage() {
        // Unbalanced, exotic, truncated inputs must all terminate.
        for src in [
            "fn f( {",
            "impl {{{",
            "fn f() { match x { ",
            "fn f() { let = ; }",
            "#[cfg(test) fn g() {}",
            "fn f() { a.b::<(((>; }",
            "::::::",
        ] {
            let _ = parse_src(src);
        }
    }
}
