//! The token walk under every rule: which tokens are the code of which
//! non-test fn (each nested fn with its own parameters). Items under
//! `#[cfg(test)]` / `#[test]`, `const`/`static` initializers, macro
//! definitions and calls at item level, and signatures are never code.

use std::ops::Range;

use crate::lexer::{Tok, TokKind};

/// The owner of a token that is no walked fn's code.
pub const NONE: u32 = u32::MAX;

/// One source file, lexed and walked.
#[derive(Debug, Default)]
pub struct File {
    pub path: String,       // workspace-relative, forward slashes
    pub crate_name: String, // directory name under `crates/`, or `vcdn` for the root
    pub t: Vec<Tok>,
    pub owner: Vec<u32>, // per token: its walked fn (an index into `params`), or NONE
    pub params: Vec<Range<usize>>, // per walked fn: the tokens inside its parameter list
    pub fields: Vec<(usize, usize)>, // `name: Type` struct fields outside fns and tests
}

/// The text of the identifier or punctuation token at `i`, else `""`.
pub fn code(t: &[Tok], i: usize) -> &str {
    match t.get(i) {
        Some(x) if matches!(x.kind, TokKind::Ident | TokKind::Punct) => &x.text,
        _ => "",
    }
}

/// Whether the token at `i` is an identifier (keywords included).
pub fn is_ident(t: &[Tok], i: usize) -> bool {
    t.get(i).is_some_and(|x| x.kind == TokKind::Ident)
}

/// Whether the token at `i` is a literal (number, string or char).
pub fn is_lit(t: &[Tok], i: usize) -> bool {
    t.get(i).is_some_and(|x| x.kind.is_lit())
}

/// The delimiter matching the one at `i`: searched forward from an opener
/// (`t.len()` when unclosed), backward from a closer (0 when unopened).
pub fn partner(t: &[Tok], i: usize) -> usize {
    let c = code(t, i);
    let pairs = [("(", ")"), ("[", "]"), ("{", "}")];
    let Some(&(open, shut)) = pairs.iter().find(|p| p.0 == c || p.1 == c) else {
        return i;
    };
    let (mut depth, mut j) = (0, i);
    loop {
        depth += i32::from(code(t, j) == open) - i32::from(code(t, j) == shut);
        match () {
            _ if depth == 0 => return j,
            _ if c == open && j + 1 >= t.len() => return t.len(),
            _ if c == open => j += 1,
            _ if j == 0 => return 0,
            _ => j -= 1,
        }
    }
}

/// The first token from `i` whose text is in `stops`, outside `(…)`,
/// `[…]` and `{…}` (and outside `<…>` when `angles`); else `t.len()`.
pub fn find(t: &[Tok], mut i: usize, stops: &[&str], angles: bool) -> usize {
    let mut depth = 0;
    while i < t.len() {
        let c = code(t, i);
        match c {
            _ if depth <= 0 && stops.contains(&c) => return i,
            "(" | "[" | "{" => i = partner(t, i),
            "<" if angles => depth += 1,
            ">" | ">=" if angles => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    i
}

/// Past a generic-argument list `<…>` at `i`.
pub fn skip_angles(t: &[Tok], i: usize) -> usize {
    find(t, i + 1, &[">", ">=", ";", "{", "}"], true) + 1
}

impl File {
    /// Lexes and walks one file's source.
    pub fn new(path: &str, crate_name: &str, src: &str) -> File {
        let (t, mut f) = (crate::lexer::lex(src), File::default());
        f.owner = vec![NONE; t.len()];
        f.block(&t, 0..t.len(), NONE, false);
        (f.path, f.crate_name, f.t) = (path.to_string(), crate_name.to_string(), t);
        f
    }

    /// Walks `t[r]`: the items of a file, module or impl (`f == NONE`),
    /// or the statements of fn `f`'s body, where an item may only start a
    /// statement. `in_fn`: inside some fn body (its structs are not read).
    fn block(&mut self, t: &[Tok], r: Range<usize>, f: u32, in_fn: bool) {
        let (mut i, mut stmt) = (r.start, true);
        while i < r.end {
            let (mut j, mut test) = (i, false);
            loop {
                let o = j + 1 + usize::from(code(t, j + 1) == "!"); // `#[…]` or `#![…]`
                if code(t, j) != "#" || code(t, o) != "[" {
                    break;
                }
                let c = partner(t, o);
                let attr = &t[o + 1..c];
                test |= match code(attr, 0) {
                    "test" => attr.len() == 1,
                    "cfg" => (0..attr.len()).any(|a| code(attr, a) == "test"),
                    _ => false,
                };
                j = c + 1;
            }
            let starts_item = match code(t, j) {
                "pub" | "struct" | "enum" | "union" | "trait" | "impl" | "mod" | "use"
                | "static" | "macro_rules" | "fn" => true,
                "const" => is_ident(t, j + 1) && code(t, j + 1) != "fn",
                _ => false,
            };
            if f == NONE || (stmt && (j > i || starts_item)) {
                if let Some(next) = self.item(t, j, test, f != NONE || in_fn) {
                    (i, stmt) = (next, true);
                    continue;
                }
            }
            if j == i && f != NONE {
                self.owner[i] = f;
                stmt = matches!(code(t, i), ";" | "{" | "}");
            }
            i = j.max(i + 1);
        }
    }

    /// The item at `i` (after its attributes): walks it and returns the
    /// index past it, or `None` when no item starts here.
    fn item(&mut self, t: &[Tok], mut i: usize, test: bool, in_fn: bool) -> Option<usize> {
        loop {
            i += match code(t, i) {
                "const" if !matches!(code(t, i + 1), "fn" | "unsafe") => break,
                "pub" | "const" | "unsafe" | "async" | "default" | "extern" => 1,
                "(" if code(t, i.wrapping_sub(1)) == "pub" => partner(t, i) + 1 - i,
                _ if code(t, i.wrapping_sub(1)) == "extern" && t[i].kind == TokKind::Str => 1,
                _ => break,
            };
        }
        // The header ends at the body's `{` or at the `;` ending the item.
        let end = |k: usize| find(t, k, &["{", ";", "}"], true);
        let (k, walk_body) = match code(t, i) {
            "fn" => {
                let mut k = i + 1 + usize::from(is_ident(t, i + 1));
                if code(t, k) == "<" {
                    k = skip_angles(t, k);
                }
                let close = if code(t, k) == "(" { partner(t, k) } else { k };
                let params = (k + 1).min(close)..close;
                k = end(close);
                if code(t, k) == "{" && !test {
                    self.params.push(params);
                }
                (k, true)
            }
            "struct" => {
                let k = end(i + 1);
                let c = partner(t, k);
                let field = |&f: &usize| {
                    is_ident(t, f)
                        && code(t, f + 1) == ":"
                        && matches!(code(t, f - 1), "{" | "," | "]" | "pub" | ")")
                };
                if code(t, k) == "{" && !test && !in_fn {
                    let fields = (k + 1..c).filter(field);
                    self.fields.extend(fields.map(|f| (f, f + 2)));
                }
                (k, false)
            }
            "impl" | "trait" | "mod" => (end(i + 1), true),
            "enum" | "union" | "use" | "static" | "type" | "macro_rules" | "const" => {
                (find(t, i + 1, &["{", ";", "}"], false), false)
            }
            _ if is_ident(t, i) && code(t, i + 1) == "!" => {
                let opens = matches!(code(t, i + 2), "(" | "[" | "{");
                let c = if opens { partner(t, i + 2) + 1 } else { i + 2 };
                return Some(c + usize::from(code(t, c) == ";"));
            }
            _ => return None,
        };
        if code(t, k) != "{" {
            return Some(k + usize::from(code(t, k) == ";"));
        }
        let c = partner(t, k);
        if walk_body && !test {
            let f = match code(t, i) {
                "fn" => self.params.len() as u32 - 1,
                _ => NONE,
            };
            self.block(t, k + 1..c, f, in_fn || f != NONE);
        }
        Some(c + 1)
    }
}
