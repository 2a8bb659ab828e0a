//! A small, dependency-free Rust lexer: identifiers, number, string and
//! char literals, lifetimes and punctuation (the operators in
//! [`MULTI_PUNCT`] as one token). Comments and every string form are
//! skipped whole, so nothing in a doc comment or a string is read as code.

/// The classes of token the rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    Ident,    // identifier or keyword: `fn`, `HashMap`, `unwrap`, …
    Int,      // `42`, `0xff`, `1_000u64`
    Float,    // `0.5`, `1e-9`, `2.0f64`
    Str,      // `"…"`, `r#"…"#`, `b"…"`
    Char,     // `'x'`, `'\n'`, `b'x'`
    Lifetime, // `'a`, `'static`
    Punct,    // one character, or one of MULTI_PUNCT
}

impl TokKind {
    /// Whether the token is a literal: a number, a string or a char.
    pub fn is_lit(self) -> bool {
        matches!(
            self,
            TokKind::Int | TokKind::Float | TokKind::Str | TokKind::Char
        )
    }
}

/// One lexed token: kind, source text and 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String, // the source text; a raw identifier `r#x` without its `r#`
    pub line: u32,    // 1-based, of the token's first character
}

/// The operators lexed as one token (longest first where one prefixes
/// another); every other punctuation character is a token of its own.
const MULTI_PUNCT: &[&str] = &[
    "..=", "==", "!=", "::", "->", "=>", "<=", ">=", "..", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=",
];

/// Lexes Rust source text into tokens in source order.
///
/// Unterminated strings/comments are tolerated (the rest of the file is
/// consumed as that token); the linter must never panic on weird input.
pub fn lex(src: &str) -> Vec<Tok> {
    let b = src.as_bytes();
    let (mut out, mut i, mut line) = (Vec::new(), 0, 1);
    let at = |j: usize| b.get(j).copied().unwrap_or(0);
    while i < b.len() {
        let start = i + 2 * usize::from(b[i] == b'r' && at(i + 1) == b'#' && ident_char(at(i + 2)));
        let (kind, end) = match b[i] {
            c if c.is_ascii_whitespace() => (None, i + 1),
            b'/' if at(i + 1) == b'/' => (None, run(b, i, |c| c != b'\n')),
            b'/' if at(i + 1) == b'*' => {
                let (mut depth, mut j) = (0, i);
                while j < b.len() {
                    match (b[j], at(j + 1)) {
                        (b'/', b'*') => (depth, j) = (depth + 1, j + 2),
                        (b'*', b'/') => (depth, j) = (depth - 1, j + 2),
                        _ => j += 1,
                    }
                    if depth == 0 {
                        break;
                    }
                }
                (None, j)
            }
            _ if start > i => (Some(TokKind::Ident), run(b, start, ident_char)), // `r#ident`
            b'"' | b'r' | b'b' if string_end(b, i).is_some() => {
                (Some(TokKind::Str), string_end(b, i).unwrap_or(b.len()))
            }
            b'\'' | b'b' if b[i] == b'\'' || at(i + 1) == b'\'' => {
                let j = i + 1 + usize::from(b[i] == b'b');
                if b[i] == b'\'' && at(j) != b'\\' && ident_char(at(j)) && at(j + 1) != b'\'' {
                    (Some(TokKind::Lifetime), run(b, j, ident_char))
                } else {
                    let close = run(b, j + 1 + usize::from(at(j) == b'\\'), |c| {
                        c != b'\'' && c != b'\n'
                    });
                    (Some(TokKind::Char), (close + 1).min(b.len()))
                }
            }
            c if c.is_ascii_digit() => number(b, i),
            c if ident_char(c) => (Some(TokKind::Ident), run(b, i, ident_char)),
            _ => {
                let multi = MULTI_PUNCT
                    .iter()
                    .find(|p| b[i..].starts_with(p.as_bytes()));
                (Some(TokKind::Punct), i + multi.map_or(1, |p| p.len()))
            }
        };
        if let Some(kind) = kind {
            let text = String::from_utf8_lossy(&b[start..end]).into_owned();
            out.push(Tok { kind, text, line });
        }
        line += b[i..end].iter().filter(|c| **c == b'\n').count() as u32;
        i = end;
    }
    out
}

/// The end of the string literal (`"…"`, `r"…"`, `r#"…"#`, `b"…"`,
/// `br#"…"#`) starting at `i`, or `None` when no string starts there.
fn string_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + usize::from(b[i] == b'b');
    let raw = b.get(j) == Some(&b'r');
    j += usize::from(raw);
    let hashes = b[j..].iter().take_while(|c| **c == b'#').count();
    j += hashes;
    if b.get(j) != Some(&b'"') {
        return None;
    }
    j += 1;
    while j < b.len() {
        match b[j] {
            b'\\' if !raw => j += 2,
            b'"' if b[j + 1..].iter().take(hashes).all(|c| *c == b'#') => {
                return Some((j + 1 + hashes).min(b.len()));
            }
            _ => j += 1,
        }
    }
    Some(b.len())
}

/// The kind and end of the number starting at `i`: `0x…`/`0o…`/`0b…`,
/// digits, a fraction (a `.` before a digit, or a trailing `.` before no
/// identifier or `.`), an exponent, a suffix (`f32`/`f64` make a float).
fn number(b: &[u8], i: usize) -> (Option<TokKind>, usize) {
    let at = |j: usize| b.get(j).copied().unwrap_or(0);
    let digits = |j: usize| run(b, j, |c| c.is_ascii_digit() || c == b'_');
    if at(i) == b'0' && matches!(at(i + 1), b'x' | b'o' | b'b') {
        return (Some(TokKind::Int), run(b, i + 2, ident_char));
    }
    let mut j = digits(i);
    let mut float = false;
    if at(j) == b'.' && at(j + 1).is_ascii_digit() {
        (float, j) = (true, digits(j + 1));
    } else if at(j) == b'.' && !(at(j + 1) == b'.' || ident_char(at(j + 1))) {
        (float, j) = (true, j + 1);
    }
    let sign = usize::from(matches!(at(j + 1), b'+' | b'-'));
    if matches!(at(j), b'e' | b'E') && at(j + 1 + sign).is_ascii_digit() {
        (float, j) = (true, digits(j + 1 + sign));
    }
    let end = run(b, j, ident_char);
    float |= b[j.min(end)..end].starts_with(b"f32") || b[j.min(end)..end].starts_with(b"f64");
    (Some(if float { TokKind::Float } else { TokKind::Int }), end)
}

fn ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Past the bytes from `j` that `f` accepts.
fn run(b: &[u8], j: usize, f: impl Fn(u8) -> bool) -> usize {
    let rest = b.get(j..).unwrap_or_default();
    j + rest.iter().take_while(|c| f(**c)).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The texts of the tokens of one kind.
    fn of(src: &str, kind: TokKind) -> Vec<String> {
        let toks = lex(src).into_iter().filter(|t| t.kind == kind);
        toks.map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let src = "let x = \"== HashMap\"; // == unwrap()\n/* format! */ y";
        assert_eq!(of(src, TokKind::Ident), ["let", "x", "y"]);
        // The string is one Str token, not operators.
        assert!(of(src, TokKind::Str)[0].contains("HashMap"));
        assert_eq!(of(src, TokKind::Punct), ["=", ";"]);
    }

    #[test]
    fn float_vs_int_vs_range() {
        let src = "0.5 1e-9 2.0f64 42 0xff 0..5 1.max(2)";
        assert_eq!(of(src, TokKind::Float), ["0.5", "1e-9", "2.0f64"]);
        assert_eq!(of(src, TokKind::Int), ["42", "0xff", "0", "5", "1", "2"]);
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let puncts = of("a == b != c :: d .. e ..= f", TokKind::Punct);
        assert_eq!(puncts, ["==", "!=", "::", "..", "..="]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let src = "fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; let b = b'x'; }";
        assert_eq!(of(src, TokKind::Lifetime), ["'a", "'a"]);
        assert_eq!(of(src, TokKind::Char), ["'x'", "'\\n'", "b'x'"]);
    }

    #[test]
    fn raw_strings_and_nested_comments() {
        let toks = lex("r#\"has \"quotes\" and == \"# /* outer /* inner */ still */ r#z");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokKind::Str);
        assert_eq!((toks[1].kind, toks[1].text.as_str()), (TokKind::Ident, "z"));
    }

    #[test]
    fn compound_assignment_operators_are_single_tokens() {
        let src = "a += b; c -= d; e *= f; g /= h; i %= j; k &= l; m |= n; o ^= p";
        let mut ops = of(src, TokKind::Punct);
        ops.retain(|t| t.len() == 2);
        assert_eq!(ops, ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        // A `\`-continued string line counts too.
        let toks = lex("/* c\nc */\n\"s\ns\\\ns\"\nx");
        let x = toks.last().unwrap();
        assert_eq!((x.text.as_str(), x.line), ("x", 6));
    }
}
