//! Operands on tokens. Rust's binary precedence (`as` > `* / %` > `+ -` >
//! shifts > `&` > `^` > `|` > comparisons > `&&` > `||` > `..` > `=`)
//! decides how far an operand extends, and one level associates left:
//! `a + b_ms - c` has the operands `a`, `b_ms` and `a + b_ms`, `c`. An
//! operand reports on its postfix chain's last `.name` line, else its first.

use crate::lexer::TokKind;
use crate::walk::{code, find, is_ident, is_lit, partner, skip_angles, File};

/// Keywords that never end an operand: a `-`, `*` or `&` after one is a
/// prefix operator.
const KEYWORDS: &[&str] = &[
    "as", "async", "box", "break", "const", "continue", "dyn", "else", "enum", "extern", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "trait", "type", "unsafe", "use", "where", "while", "yield",
];

/// Binary operators by level, loosest first, levels split by `;`. The
/// lexer leaves `<<` and `>>` as two tokens (they may close generics), so
/// [`File::binop`] reads shifts, level 8, itself.
const LEVELS: &str =
    "= += -= *= /= %= &= |= ^=; .. ..=; ||; &&; == != < > <= >=; |; ^; &; << >>; + -; * / %";

/// What an operand is at its top level (token indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Binary(usize, usize), // `lhs op rhs`: the loosest operator, its token count
    Cast(usize),          // `x as T … as U`: `U`'s first token
    Prefix(usize),        // `-x`, `!x`, `*x`, `&x`, `&mut x`: the operand's start
    Paren(usize, usize),  // `(x)`: the inner operand's range
    Name(usize),          // a path's last segment, or the field of `x.field`
    Lit(usize),           // a literal
    Method(usize, usize), // `base.name(…)`: the method name and its `.`
    Other,                // a call, an index, a tuple, a block, a closure, …
}

/// Operand reading over one walked file's tokens.
impl File {
    /// An identifier that is not a keyword: a name, `self`, `true`, …
    fn ident(&self, i: usize) -> bool {
        is_ident(&self.t, i) && !KEYWORDS.contains(&code(&self.t, i))
    }

    /// Whether the token before `i`, in the same fn, ends an operand.
    pub fn after_operand(&self, i: usize) -> bool {
        let Some(p) = i.checked_sub(1) else {
            return false;
        };
        self.owner.get(p) == self.owner.get(i)
            && match self.t[p].kind {
                TokKind::Ident => self.ident(p),
                TokKind::Punct => matches!(code(&self.t, p), ")" | "]" | "}" | "?"),
                TokKind::Lifetime => false,
                _ => true,
            }
    }

    /// The binary operator at `i`: its level and token count.
    pub fn binop(&self, i: usize) -> Option<(u8, usize)> {
        let c = code(&self.t, i);
        if matches!(c, "<" | ">") && code(&self.t, i + 1) == c {
            return Some((8, 2));
        }
        let level = LEVELS
            .split("; ")
            .position(|l| l.split(' ').any(|o| o == c))? as u8;
        let prefix_too = matches!(c, "-" | "*" | "&" | "&&" | "|" | "||" | ".." | "..=");
        (!prefix_too || self.after_operand(i)).then_some((level, 1))
    }

    /// The end of the operand starting at `i` under an operator of `level`.
    pub fn end(&self, mut i: usize, level: u8) -> usize {
        loop {
            i = self.unary_end(i);
            match self.binop(i) {
                Some((l, n)) if l > level => i += n,
                _ => return i,
            }
        }
    }

    /// The start of the operand ending at `i` under an operator of `level`.
    pub fn start(&self, mut i: usize, level: u8) -> usize {
        loop {
            i = self.unary_start(i);
            match i.checked_sub(1).and_then(|k| self.binop(k)) {
                Some((l, n)) if l >= level => i -= n,
                _ => return i,
            }
        }
    }

    /// Past the prefix operators at `i` (`-`, `!`, `*`, `&`, `&mut`).
    fn prefixes_end(&self, mut i: usize) -> usize {
        while matches!(code(&self.t, i), "-" | "!" | "*" | "&" | "&&") {
            i += 1 + usize::from(code(&self.t, i + 1) == "mut");
        }
        i
    }

    fn unary_end(&self, i: usize) -> usize {
        let primary = self.primary_end(self.prefixes_end(i));
        let mut i = self.postfix(primary, usize::MAX).0;
        while code(&self.t, i) == "as" {
            i = self.type_end(i + 1);
        }
        i
    }

    fn unary_start(&self, i: usize) -> usize {
        let mut j = self.chain_start(i);
        let mut q = j;
        while q > 0 && matches!(code(&self.t, q - 1), "&" | "*" | "const" | "mut") {
            q -= 1;
        }
        if q > 0 && code(&self.t, q - 1) == "as" {
            return self.unary_start(q - 1);
        }
        while j > 0
            && matches!(code(&self.t, j - 1), "-" | "!" | "*" | "&" | "&&" | "mut")
            && !self.after_operand(j - 1)
        {
            j -= 1;
        }
        j
    }

    /// Past a cast's target type at `i`.
    fn type_end(&self, mut i: usize) -> usize {
        while matches!(code(&self.t, i), "&" | "*" | "const" | "mut" | "::")
            || (is_ident(&self.t, i) && code(&self.t, i) != "as")
        {
            i += 1;
        }
        i
    }

    /// Past the primary expression at `i` (before its postfix chain): a
    /// literal, a group, an `if` / `match` / loop with its blocks, or a
    /// path with its turbofish and macro arguments.
    fn primary_end(&self, i: usize) -> usize {
        let t = &self.t[..];
        match code(t, i) {
            _ if is_lit(t, i) => i + 1,
            "(" | "[" | "{" => partner(t, i) + 1,
            "if" | "while" | "match" | "for" | "loop" | "unsafe" => {
                let mut k = i;
                while k == i || code(t, k) == "else" {
                    let b = find(t, k + 1, &["{", ";", "}"], false);
                    k = if code(t, b) == "{" {
                        partner(t, b) + 1
                    } else {
                        b
                    };
                }
                k
            }
            _ if self.ident(i) => {
                let mut k = i + 1;
                while code(t, k) == "::" {
                    k = match code(t, k + 1) {
                        "<" => skip_angles(t, k + 1),
                        _ => k + 1 + usize::from(is_ident(t, k + 1)),
                    };
                }
                if code(t, k) == "!" && matches!(code(t, k + 1), "(" | "[" | "{") {
                    k = partner(t, k + 1) + 1;
                }
                k
            }
            _ => i,
        }
    }

    /// Past the postfix chain (`?`, `.field`, `.method(…)`, calls, indices)
    /// at `i`, up to `end`: its end, its last element (a `Name`, a `Method`
    /// or `Other`) and its last `.`'s line.
    fn postfix(&self, mut i: usize, end: usize) -> (usize, Option<Shape>, Option<u32>) {
        let t = &self.t[..];
        let (mut last, mut line) = (None, None);
        loop {
            match code(t, i) {
                _ if i >= end => return (i, last, line),
                "?" => i += 1,
                "." if is_ident(t, i + 1)
                    || t.get(i + 1).is_some_and(|x| x.kind == TokKind::Int) =>
                {
                    (line, last) = (Some(t[i].line), Some(Shape::Name(i + 1)));
                    let dot = i;
                    i += 2;
                    if code(t, i) == "::" && code(t, i + 1) == "<" {
                        i = skip_angles(t, i + 1);
                    }
                    if code(t, i) == "(" {
                        (i, last) = (partner(t, i) + 1, Some(Shape::Method(dot + 1, dot)));
                    }
                }
                "(" | "[" => (i, last) = (partner(t, i) + 1, Some(Shape::Other)),
                _ => return (i, last, line),
            }
        }
    }

    /// The start of the postfix chain ending at `i`: back over calls,
    /// indices, `?`, `.name`, paths and macro arguments.
    pub fn chain_start(&self, mut i: usize) -> usize {
        let t = &self.t[..];
        while i > 0 {
            let p = i - 1;
            match code(t, p) {
                "?" | "::" | "!" => i = p,
                ")" | "]" => {
                    let o = partner(t, p);
                    if code(t, o.wrapping_sub(1)) == "!" && self.ident(o.wrapping_sub(2)) {
                        i = o - 1;
                    } else if self.after_operand(o) {
                        i = o;
                    } else {
                        return o;
                    }
                }
                "}" => return partner(t, p),
                _ if self.ident(p) || is_lit(t, p) => {
                    i = p;
                    if !matches!(code(t, p.wrapping_sub(1)), "." | "::") {
                        return i;
                    }
                    i -= 1;
                }
                _ => return i,
            }
        }
        i
    }

    /// The operand `t[s..e]` at its top level.
    pub fn shape(&self, s: usize, e: usize) -> Shape {
        let (mut loosest, mut i) = (None, self.unary_end(s));
        while i < e {
            let Some((l, n)) = self.binop(i) else { break };
            if loosest.is_none_or(|(b, _, _)| l <= b) {
                loosest = Some((l, i, n));
            }
            i = self.unary_end(i + n);
        }
        if let Some((_, k, n)) = loosest {
            return Shape::Binary(k, n);
        }
        let i = self.prefixes_end(s);
        let primary = self.primary_end(i);
        let (mut k, last, _) = self.postfix(primary, e);
        let mut cast = None;
        while code(&self.t, k) == "as" && k < e {
            (cast, k) = (Some(k + 1), self.type_end(k + 1));
        }
        match (cast, i > s, last) {
            (Some(ty), ..) => Shape::Cast(ty),
            (_, true, _) => Shape::Prefix(s + 1 + usize::from(code(&self.t, s + 1) == "mut")),
            (_, _, Some(last)) => last,
            _ if is_lit(&self.t, s) => Shape::Lit(s),
            _ if code(&self.t, s) == "(" && primary == e && e > s + 2 => {
                if find(&self.t, s + 1, &[",", ")"], false) < e - 1 {
                    Shape::Other
                } else {
                    Shape::Paren(s + 1, e - 1)
                }
            }
            _ if self.ident(s) && self.ident(primary - 1) => Shape::Name(primary - 1),
            _ => Shape::Other,
        }
    }

    /// The line a rule reports for the operand `t[s..e]`.
    pub fn line(&self, s: usize, e: usize) -> u32 {
        match self.shape(s, e) {
            Shape::Binary(k, _) => self.line(s, k),
            _ if self.prefixes_end(s) > s => self.t[s].line,
            _ => (self.postfix(self.primary_end(s), e).2).unwrap_or(self.t[s].line),
        }
    }

    /// The name an operand is, through prefixes and parentheses
    /// (`*self.hit_bytes` → `hit_bytes`).
    pub fn name(&self, s: usize, e: usize) -> Option<usize> {
        match self.shape(s, e) {
            Shape::Name(i) => Some(i),
            Shape::Prefix(i) => self.name(i, e),
            Shape::Paren(a, b) => self.name(a, b),
            _ => None,
        }
    }

    /// Whether the operand is a float literal (parentheses aside).
    pub fn float_lit(&self, s: usize, e: usize) -> bool {
        match self.shape(s, e) {
            Shape::Lit(i) => self.t[i].kind == TokKind::Float,
            Shape::Paren(a, b) => self.float_lit(a, b),
            _ => false,
        }
    }
}
