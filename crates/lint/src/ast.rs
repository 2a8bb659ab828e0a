//! AST-lite: a tolerant recursive-descent parser over the lexed token
//! stream.
//!
//! The parser produces a **simplified** item/expression tree — functions,
//! impls, modules, structs, blocks, let bindings, calls, method chains,
//! match arms, closures, binary/assignment operators and casts — which is
//! exactly the shape the flow rules (`determinism-flow`,
//! `lock-discipline`, `clock-arith`) walk per function. It is *not* a
//! full Rust grammar:
//!
//! * patterns are skipped (only their bound identifiers are collected);
//! * types are captured as raw token text (enough to classify
//!   `FastMap<…>` vs `u64` vs `f64`);
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
    /// `impl [Trait for] Type { items }`.
    Impl {
        /// The `Self` type's last path segment (`RankIndex`, …).
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
    /// Any other item (use, enum, trait, const, …), skipped structurally.
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

/// A match arm: bound pattern identifiers plus the arm body.
#[derive(Debug)]
pub struct Arm {
    /// Lowercase identifiers appearing in the pattern (bound names,
    /// approximately — guards are skipped together with the pattern).
    pub pat_names: Vec<String>,
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
    /// `name!(args)` / `name![…]`; brace-delimited macros have no args.
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
    /// `for pat in iter { … }`.
    For {
        /// Pattern-bound names.
        pat_names: Vec<String>,
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
    /// `(a, b, …)` tuples, `[a, b]` arrays, parenthesised groups.
    Tuple(Vec<Expr>),
    /// `Path { field: expr, … }` struct literal.
    StructLit {
        /// Struct path segments.
        path: Vec<String>,
        /// `(name, value)` pairs; shorthand fields have no value.
        fields: Vec<(String, Option<Expr>)>,
    },
    /// Anything the parser skipped.
    Other,
}

impl Expr {
    fn new(kind: ExprKind, line: u32) -> Expr {
        Expr { kind, line }
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
    Ast {
        items: p.items_until_close(),
    }
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
        if self.eat_ident("impl") {
            return Some(self.impl_item(line, is_test));
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
            kind: ItemKind::Fn(FnItem { name, params, body }),
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
        let mut names = Vec::new();
        let mut depth = 0i32;
        // Pattern: until `:`, `=`, or `;` at depth 0.
        while let Some(t) = self.cur() {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, ":") | (TokKind::Punct, "=") | (TokKind::Punct, ";")
                    if depth == 0 =>
                {
                    break
                }
                (TokKind::Punct, "(") | (TokKind::Punct, "[") | (TokKind::Punct, "{") => depth += 1,
                (TokKind::Punct, ")") | (TokKind::Punct, "]") | (TokKind::Punct, "}") => depth -= 1,
                (TokKind::Ident, id) if is_binding_ident(id) => {
                    names.push(id.to_string());
                }
                _ => {}
            }
            self.bump();
        }
        let ty = if self.eat_punct(":") {
            Some(self.type_text_until(&[",", ")"]))
        } else {
            None
        };
        let init = if self.eat_punct("=") {
            let e = self.expr(false);
            // let-else: `let … = expr else { … };`
            if self.at_ident("else") {
                self.bump();
                if self.at_punct("{") {
                    self.block();
                }
            }
            Some(e)
        } else {
            None
        };
        self.eat_punct(";");
        Stmt::Let {
            names,
            ty,
            init,
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
        if self.at_punct("..") || self.at_punct("..=") {
            // Prefix range `..hi`.
            let line = self.line();
            let op = self.t[self.i].text.clone();
            self.bump();
            let rhs = if self.at_expr_start() {
                self.or_expr(ns)
            } else {
                Expr::new(ExprKind::Other, line)
            };
            return Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(Expr::new(ExprKind::Other, line)),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        let lhs = self.or_expr(ns);
        if self.at_punct("..") || self.at_punct("..=") {
            let op = self.t[self.i].text.clone();
            let line = lhs.line;
            self.bump();
            let rhs = if self.at_expr_start() {
                self.or_expr(ns)
            } else {
                Expr::new(ExprKind::Other, line)
            };
            return Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
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

    fn or_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.and_expr(ns);
        while self.at_punct("||") {
            let line = lhs.line;
            self.bump();
            let rhs = self.and_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: "||".into(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
    }

    fn and_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.cmp_expr(ns);
        while self.at_punct("&&") {
            let line = lhs.line;
            self.bump();
            let rhs = self.cmp_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: "&&".into(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
    }

    fn cmp_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.bitor_expr(ns);
        loop {
            let op = match self.cur() {
                Some(t)
                    if t.kind == TokKind::Punct
                        && matches!(t.text.as_str(), "==" | "!=" | "<" | ">" | "<=" | ">=")
                        // `<` `<` / `>` `>` are shifts, handled below cmp.
                        && !(t.text == "<" && self.nth_is_punct(1, "<"))
                        && !(t.text == ">" && self.nth_is_punct(1, ">")) =>
                {
                    t.text.clone()
                }
                _ => break,
            };
            let line = lhs.line;
            self.bump();
            let rhs = self.bitor_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
    }

    fn bitor_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.bitxor_expr(ns);
        while self.at_punct("|") {
            let line = lhs.line;
            self.bump();
            let rhs = self.bitxor_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: "|".into(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
    }

    fn bitxor_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.bitand_expr(ns);
        while self.at_punct("^") {
            let line = lhs.line;
            self.bump();
            let rhs = self.bitand_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: "^".into(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
    }

    fn bitand_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.shift_expr(ns);
        while self.at_punct("&") && !self.nth_is_punct(1, "&") {
            let line = lhs.line;
            self.bump();
            let rhs = self.shift_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: "&".into(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
    }

    fn shift_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.add_expr(ns);
        loop {
            let op = if self.at_punct("<") && self.nth_is_punct(1, "<") {
                "<<"
            } else if self.at_punct(">") && self.nth_is_punct(1, ">") {
                ">>"
            } else {
                break;
            };
            let line = lhs.line;
            self.bump();
            self.bump();
            let rhs = self.add_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op: op.into(),
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
    }

    fn add_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.mul_expr(ns);
        loop {
            let op = match self.cur() {
                Some(t) if t.kind == TokKind::Punct && (t.text == "+" || t.text == "-") => {
                    t.text.clone()
                }
                _ => break,
            };
            let line = lhs.line;
            self.bump();
            let rhs = self.mul_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
    }

    fn mul_expr(&mut self, ns: bool) -> Expr {
        let mut lhs = self.cast_expr(ns);
        loop {
            let op = match self.cur() {
                Some(t)
                    if t.kind == TokKind::Punct && matches!(t.text.as_str(), "*" | "/" | "%") =>
                {
                    t.text.clone()
                }
                _ => break,
            };
            let line = lhs.line;
            self.bump();
            let rhs = self.cast_expr(ns);
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            );
        }
        lhs
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
                    self.skip_pattern_until_eq();
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
                let mut pat_names = Vec::new();
                let mut depth = 0i32;
                while let Some(t) = self.cur() {
                    match (t.kind, t.text.as_str()) {
                        (TokKind::Ident, "in") if depth == 0 => break,
                        (TokKind::Punct, "(") | (TokKind::Punct, "[") => depth += 1,
                        (TokKind::Punct, ")") | (TokKind::Punct, "]") => depth -= 1,
                        (TokKind::Punct, "{") if depth == 0 => break, // runaway
                        (TokKind::Ident, id) if is_binding_ident(id) => {
                            pat_names.push(id.to_string());
                        }
                        _ => {}
                    }
                    self.bump();
                }
                self.eat_ident("in");
                let iter = self.expr(true);
                let body = self.block();
                return Expr::new(
                    ExprKind::For {
                        pat_names,
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
                        let mut pat_names = Vec::new();
                        let mut depth = 0i32;
                        while let Some(t) = self.cur() {
                            match (t.kind, t.text.as_str()) {
                                (TokKind::Punct, "=>") if depth == 0 => break,
                                (TokKind::Punct, "(")
                                | (TokKind::Punct, "[")
                                | (TokKind::Punct, "{") => depth += 1,
                                (TokKind::Punct, ")")
                                | (TokKind::Punct, "]")
                                | (TokKind::Punct, "}") => {
                                    if t.text == "}" && depth == 0 {
                                        break; // runaway: match close
                                    }
                                    depth -= 1;
                                }
                                (TokKind::Ident, id) if is_binding_ident(id) => {
                                    pat_names.push(id.to_string());
                                }
                                _ => {}
                            }
                            self.bump();
                        }
                        if self.eat_punct("=>") {
                            let body = self.expr(false);
                            self.eat_punct(",");
                            arms.push(Arm { pat_names, body });
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
                self.bump();
                if self.cur().is_some_and(|t| t.kind == TokKind::Lifetime) {
                    self.bump();
                }
                if self.at_expr_start() && !self.at_ident("else") {
                    let _ = self.expr(false);
                }
                return Expr::new(ExprKind::Other, line);
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
            let args = if self.at_punct("(") || self.at_punct("[") {
                let close = if self.at_punct("(") { ")" } else { "]" };
                self.bump();
                let mut out = Vec::new();
                while !self.done() && !self.at_punct(close) {
                    let before = self.i;
                    out.push(self.expr(false));
                    if !self.eat_punct(",") {
                        self.eat_punct(";");
                    }
                    if self.i == before {
                        self.bump();
                    }
                }
                self.eat_punct(close);
                out
            } else {
                if self.at_punct("{") {
                    self.skip_balanced();
                }
                Vec::new()
            };
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
            let mut fields = Vec::new();
            while !self.done() && !self.at_punct("}") {
                let before = self.i;
                if self.eat_punct("..") {
                    // Struct update: `..base`.
                    let _ = self.expr(false);
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
            return Expr::new(ExprKind::StructLit { path: segs, fields }, line);
        }
        Expr::new(ExprKind::Path(segs), line)
    }

    fn if_tail(&mut self, line: u32) -> Expr {
        if self.eat_ident("let") {
            self.skip_pattern_until_eq();
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

    /// Skips an `if let` / `while let` pattern up to (and including) the
    /// `=` at depth 0.
    fn skip_pattern_until_eq(&mut self) {
        let mut depth = 0i32;
        while let Some(t) = self.cur() {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "=" if depth == 0 => {
                        self.bump();
                        return;
                    }
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" => return, // runaway
                    _ => {}
                }
            }
            self.bump();
        }
    }
}

/// `#[cfg(test)]`, `#[cfg(all(test, …))]`, or bare `#[test]` — same
/// predicate the token-needle rules use.
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
/// if any) that is **not** inside a `#[cfg(test)]`/`#[test]` subtree.
pub fn for_each_fn<'a>(ast: &'a Ast, f: &mut impl FnMut(&'a FnItem, Option<&'a str>)) {
    fn walk<'a>(
        items: &'a [Item],
        impl_ty: Option<&'a str>,
        f: &mut impl FnMut(&'a FnItem, Option<&'a str>),
    ) {
        for item in items {
            if item.is_test {
                continue;
            }
            match &item.kind {
                ItemKind::Fn(func) => f(func, impl_ty),
                ItemKind::Impl { type_name, items } => walk(items, Some(type_name), f),
                ItemKind::Mod { items, .. } => walk(items, impl_ty, f),
                _ => {}
            }
        }
    }
    walk(&ast.items, None, f);
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
        assert_eq!(arms[0].pat_names, vec!["v"]);
        assert!(arms[1].pat_names.is_empty());
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
