//! Best-effort symbol classification for `clock-arith`.
//!
//! vcdn-lint has no type checker, so the rule works from a
//! per-file table mapping identifier names to coarse classes, built from
//! the declarations the parser *can* see: struct fields, function
//! parameters, `let` annotations, `as` casts, and literal initializers.
//! A name declared twice with conflicting classes degrades to
//! [`VarClass::Other`], which every rule treats as "unknown — stay
//! silent". False negatives are acceptable; false positives are not.

use crate::ast::{Ast, Expr, ExprKind, FnItem};
use crate::lexer::TokKind;
use std::collections::BTreeMap;

/// Coarse classification of a name or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarClass {
    /// A primitive integer.
    Int,
    /// `f32` / `f64`.
    Float,
    /// Anything else, unknown, or conflicting declarations.
    Other,
}

const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Classifies a raw type string as captured by the parser
/// (`&mut u64` → [`VarClass::Int`]).
pub fn classify_type(ty: &str) -> VarClass {
    // Strip leading references/pointers and `mut`.
    let mut t = ty.trim();
    loop {
        let next = t
            .trim_start_matches(['&', '*', ' '])
            .trim_start_matches("mut ")
            .trim_start();
        if next == t {
            break;
        }
        t = next;
    }
    // Leading identifier (generics and paths cut off).
    let head_end = t
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(t.len());
    match &t[..head_end] {
        head if INT_TYPES.contains(&head) => VarClass::Int,
        "f32" | "f64" => VarClass::Float,
        _ => VarClass::Other,
    }
}

/// Name → class map with conflict demotion.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    map: BTreeMap<String, VarClass>,
}

impl SymbolTable {
    /// Builds the file-level table from every struct field in the file.
    pub fn from_ast(ast: &Ast) -> SymbolTable {
        let mut table = SymbolTable::default();
        crate::ast::for_each_struct(ast, &mut |_, fields| {
            for f in fields {
                table.declare(&f.name, classify_type(&f.ty));
            }
        });
        table
    }

    /// A copy of this table extended with a function's typed parameters.
    pub fn scoped_to(&self, func: &FnItem) -> SymbolTable {
        let mut t = self.clone();
        for p in &func.params {
            t.declare(&p.name, classify_type(&p.ty));
        }
        t
    }

    /// Records a declaration; conflicting re-declarations demote to
    /// [`VarClass::Other`].
    pub fn declare(&mut self, name: &str, class: VarClass) {
        match self.map.get(name) {
            Some(&prev) if prev != class => {
                self.map.insert(name.to_string(), VarClass::Other);
            }
            _ => {
                self.map.insert(name.to_string(), class);
            }
        }
    }

    /// Records a `let` binding from its annotation or initializer shape.
    pub fn note_let(&mut self, names: &[String], ty: Option<&str>, init: Option<&Expr>) {
        let class = match (ty, init) {
            (Some(t), _) => classify_type(t),
            (None, Some(e)) => self.class_of(e),
            (None, None) => VarClass::Other,
        };
        // Destructuring patterns get no class (per-name types unknown).
        if names.len() == 1 {
            self.declare(&names[0], class);
        } else {
            for n in names {
                self.declare(n, VarClass::Other);
            }
        }
    }

    /// Looks up a declared name.
    pub fn class_of_name(&self, name: &str) -> VarClass {
        self.map.get(name).copied().unwrap_or(VarClass::Other)
    }

    /// Classifies an expression: named things via the table, casts via
    /// their target type, literals via their token kind.
    pub fn class_of(&self, e: &Expr) -> VarClass {
        match &e.kind {
            ExprKind::Path(_) | ExprKind::Field(..) => e
                .name_root()
                .map_or(VarClass::Other, |n| self.class_of_name(n)),
            ExprKind::Cast { ty, .. } => classify_type(ty),
            ExprKind::Lit(kind, _) => match kind {
                TokKind::Int => VarClass::Int,
                TokKind::Float => VarClass::Float,
                _ => VarClass::Other,
            },
            ExprKind::Unary { expr, .. } => self.class_of(expr),
            ExprKind::Binary { op, lhs, rhs, .. } => {
                // Arithmetic preserves the operand class when consistent.
                if matches!(op.as_str(), "+" | "-" | "*" | "/" | "%") {
                    let (l, r) = (self.class_of(lhs), self.class_of(rhs));
                    if l == r {
                        l
                    } else {
                        VarClass::Other
                    }
                } else {
                    VarClass::Other
                }
            }
            ExprKind::MethodCall { name, base, .. } => match name.as_str() {
                // Common class-preserving methods on integers.
                "saturating_add" | "saturating_sub" | "saturating_mul" | "wrapping_add"
                | "wrapping_sub" | "wrapping_mul" | "min" | "max" => self.class_of(base),
                _ => VarClass::Other,
            },
            _ => VarClass::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse;
    use crate::lexer::lex;

    #[test]
    fn classify_type_basics() {
        assert_eq!(classify_type("u64"), VarClass::Int);
        assert_eq!(classify_type("f64"), VarClass::Float);
        assert_eq!(classify_type("&mut u32"), VarClass::Int);
        assert_eq!(classify_type("&f32"), VarClass::Float);
        assert_eq!(classify_type("FastMap<ChunkId,u32>"), VarClass::Other);
        assert_eq!(classify_type("Vec<u64>"), VarClass::Other);
        assert_eq!(classify_type("BTreeMap<K,V>"), VarClass::Other);
    }

    #[test]
    fn conflicting_declarations_demote_to_other() {
        let ast = parse(&lex(
            "struct A { total_ms: u64 }\nstruct B { total_ms: f64 }\nstruct C { k: u32 }",
        ));
        let t = SymbolTable::from_ast(&ast);
        assert_eq!(t.class_of_name("total_ms"), VarClass::Other);
        assert_eq!(t.class_of_name("k"), VarClass::Int);
    }

    #[test]
    fn params_and_lets_extend_scope() {
        let ast = parse(&lex("fn f(chunks: FastMap<u32,u64>, dt_ms: u64) {}"));
        let file = SymbolTable::from_ast(&ast);
        let mut func = None;
        crate::ast::for_each_fn(&ast, &mut |f, _| func = Some(f));
        let t = file.scoped_to(func.expect("fn"));
        assert_eq!(t.class_of_name("chunks"), VarClass::Other);
        assert_eq!(t.class_of_name("dt_ms"), VarClass::Int);
        assert_eq!(t.class_of_name("nope"), VarClass::Other);
    }
}
