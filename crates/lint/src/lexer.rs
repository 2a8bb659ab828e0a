//! A small, dependency-free Rust lexer: the input of the AST-lite parser.
//!
//! The lexer does **not** aim to be a full Rust tokenizer. It produces the
//! token classes the parser needs — identifiers, integer/float literals,
//! string/char literals, and punctuation (with the handful of
//! multi-character operators the grammar distinguishes, e.g. `==`, `!=`,
//! `::`) — while correctly *skipping* comments and every string form, so
//! nothing inside a doc comment or a format string is ever parsed as code.
//!
//! Two side channels are captured during lexing because the rules need
//! them:
//!
//! * `// lint: hot` marker comments, recorded with their line numbers
//!   (they mark the next `fn` item as a hot path);
//! * `// lint: wrap-ok` marker comments, recorded with their line numbers
//!   (they waive the `clock-arith` rule on the same or the next line).
//!
//! Allow/deny decisions beyond those two markers live in `lint.allow`,
//! not in source comments, so justifications stay centrally reviewable.

/// The classes of token the parser distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `unwrap`, …).
    Ident,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`0.5`, `1e-9`, `2.0f64`).
    Float,
    /// String literal of any form (`"…"`, `r#"…"#`, `b"…"`), content kept.
    Str,
    /// Char literal (`'x'`, `'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Punctuation; multi-char operators `==` `!=` `::` `->` `=>` `<=`
    /// `>=` `..` `..=` `&&` `||` are single tokens, all else single chars.
    Punct,
}

/// One lexed token: kind, text and 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Exact source text (for `Str`, the content without quotes).
    pub text: String,
    /// 1-based line number of the token's first character.
    pub line: u32,
}

/// The output of lexing one file: tokens plus marker side channels.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens in source order (comments and whitespace removed).
    pub toks: Vec<Tok>,
    /// Lines carrying a `// lint: hot` marker comment.
    pub hot_marker_lines: Vec<u32>,
    /// Lines carrying a `// lint: wrap-ok` marker comment.
    pub wrap_ok_lines: Vec<u32>,
}

/// Lexes Rust source text.
///
/// Unterminated strings/comments are tolerated (the rest of the file is
/// consumed as that token); the linter must never panic on weird input.
pub fn lex(src: &str) -> Lexed {
    Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while self.i < self.b.len() {
            let c = self.b[self.i];
            match c {
                b'\n' => {
                    self.line += 1;
                    self.i += 1;
                }
                c if c.is_ascii_whitespace() => self.i += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'r' | b'b' if self.raw_or_byte_string() => {}
                b'"' => self.string(),
                b'\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c == b'_' || c.is_ascii_alphabetic() => self.ident(),
                _ => self.punct(),
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.b.get(self.i + ahead).copied()
    }

    fn line_comment(&mut self) {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'\n' {
            self.i += 1;
        }
        let text = &self.b[start..self.i];
        // Marker syntax is deliberately rigid: "// lint: hot" or
        // "// lint: wrap-ok" (with optional leading "//" padding),
        // nothing else on the comment.
        if let Ok(s) = std::str::from_utf8(text) {
            let s = s.trim_start_matches('/').trim();
            if s == "lint: hot" {
                self.out.hot_marker_lines.push(self.line);
            } else if s == "lint: wrap-ok" {
                self.out.wrap_ok_lines.push(self.line);
            }
        }
    }

    fn block_comment(&mut self) {
        self.i += 2;
        let mut depth = 1u32;
        while self.i < self.b.len() && depth > 0 {
            match (self.b[self.i], self.peek(1)) {
                (b'/', Some(b'*')) => {
                    depth += 1;
                    self.i += 2;
                }
                (b'*', Some(b'/')) => {
                    depth -= 1;
                    self.i += 2;
                }
                (b'\n', _) => {
                    self.line += 1;
                    self.i += 1;
                }
                _ => self.i += 1,
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `r#ident`. Returns
    /// `false` when the `r`/`b` starts a plain identifier instead.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut j = self.i;
        if self.b[j] == b'b' {
            j += 1;
            if self.b.get(j) == Some(&b'\'') {
                // Byte char literal b'x'.
                self.i = j;
                self.char_or_lifetime();
                return true;
            }
        }
        let mut hashes = 0usize;
        if self.b.get(j) == Some(&b'r') {
            j += 1;
            while self.b.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if hashes > 0 && self.b.get(j).is_some_and(|c| is_ident_char(*c)) {
                // Raw identifier r#foo: lex as the identifier foo.
                self.i = j;
                self.ident();
                return true;
            }
        }
        if self.b.get(j) != Some(&b'"') {
            return false;
        }
        // Consume the string body up to the closing quote (+ hashes).
        let line = self.line;
        j += 1;
        let content_start = j;
        let close: Vec<u8> = std::iter::once(b'"')
            .chain(std::iter::repeat_n(b'#', hashes))
            .collect();
        let raw = hashes > 0
            || self.b[self.i] == b'r'
            || (self.b[self.i] == b'b' && self.b[self.i + 1] == b'r');
        loop {
            match self.b.get(j) {
                None => break,
                Some(b'\\') if !raw => j += 2,
                Some(b'"') if self.b[j..].starts_with(&close) => {
                    break;
                }
                Some(b'\n') => {
                    self.line += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        let content_end = j.min(self.b.len());
        self.i = (j + close.len()).min(self.b.len());
        self.push_at(
            TokKind::Str,
            String::from_utf8_lossy(&self.b[content_start..content_end]).into_owned(),
            line,
        );
        true
    }

    fn string(&mut self) {
        let line = self.line;
        let start = self.i + 1;
        let mut j = start;
        loop {
            match self.b.get(j) {
                None | Some(b'"') => break,
                Some(b'\\') => j += 2,
                Some(b'\n') => {
                    self.line += 1;
                    j += 1;
                }
                _ => j += 1,
            }
        }
        let end = j.min(self.b.len());
        self.i = (end + 1).min(self.b.len());
        self.push_at(
            TokKind::Str,
            String::from_utf8_lossy(&self.b[start..end]).into_owned(),
            line,
        );
    }

    /// `'a` (lifetime) vs `'x'` / `'\n'` (char literal).
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        let mut j = self.i + 1;
        match self.b.get(j) {
            Some(b'\\') => {
                // Escaped char literal: consume to the closing quote.
                j += 2;
                while self.b.get(j).is_some_and(|c| *c != b'\'') {
                    j += 1;
                }
                self.i = (j + 1).min(self.b.len());
                self.push_at(TokKind::Char, String::new(), line);
            }
            Some(c) if is_ident_char(*c) && self.b.get(j + 1) != Some(&b'\'') => {
                // Lifetime: 'ident not followed by a closing quote.
                while self.b.get(j).is_some_and(|c| is_ident_char(*c)) {
                    j += 1;
                }
                self.i = j;
                self.push_at(TokKind::Lifetime, String::new(), line);
            }
            Some(_) => {
                // Plain char literal 'x' (possibly multibyte).
                while self.b.get(j).is_some_and(|c| *c != b'\'' && *c != b'\n') {
                    j += 1;
                }
                self.i = (j + 1).min(self.b.len());
                self.push_at(TokKind::Char, String::new(), line);
            }
            None => self.i += 1,
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let start = self.i;
        let mut j = self.i;
        let mut float = false;
        if self.b[j] == b'0' && matches!(self.b.get(j + 1), Some(b'x' | b'o' | b'b')) {
            j += 2;
            while self.b.get(j).is_some_and(|c| is_ident_char(*c)) {
                j += 1;
            }
        } else {
            while self
                .b
                .get(j)
                .is_some_and(|c| c.is_ascii_digit() || *c == b'_')
            {
                j += 1;
            }
            // Fractional part: a '.' followed by a digit (so `0..5` and
            // `1.max(2)` stay integers).
            if self.b.get(j) == Some(&b'.') && self.b.get(j + 1).is_some_and(|c| c.is_ascii_digit())
            {
                float = true;
                j += 1;
                while self
                    .b
                    .get(j)
                    .is_some_and(|c| c.is_ascii_digit() || *c == b'_')
                {
                    j += 1;
                }
            } else if self.b.get(j) == Some(&b'.')
                && !self
                    .b
                    .get(j + 1)
                    .is_some_and(|c| is_ident_char(*c) || *c == b'.')
            {
                // Trailing-dot float `1.`
                float = true;
                j += 1;
            }
            // Exponent.
            if matches!(self.b.get(j), Some(b'e' | b'E')) {
                let mut k = j + 1;
                if matches!(self.b.get(k), Some(b'+' | b'-')) {
                    k += 1;
                }
                if self.b.get(k).is_some_and(|c| c.is_ascii_digit()) {
                    float = true;
                    j = k;
                    while self
                        .b
                        .get(j)
                        .is_some_and(|c| c.is_ascii_digit() || *c == b'_')
                    {
                        j += 1;
                    }
                }
            }
            // Suffix (u64, f32, …).
            let suffix_start = j;
            while self.b.get(j).is_some_and(|c| is_ident_char(*c)) {
                j += 1;
            }
            if self.b[suffix_start..j].starts_with(b"f32")
                || self.b[suffix_start..j].starts_with(b"f64")
            {
                float = true;
            }
        }
        self.i = j;
        self.push_at(
            if float { TokKind::Float } else { TokKind::Int },
            String::from_utf8_lossy(&self.b[start..j]).into_owned(),
            line,
        );
    }

    fn ident(&mut self) {
        let line = self.line;
        let start = self.i;
        while self.i < self.b.len() && is_ident_char(self.b[self.i]) {
            self.i += 1;
        }
        self.push_at(
            TokKind::Ident,
            String::from_utf8_lossy(&self.b[start..self.i]).into_owned(),
            line,
        );
    }

    fn punct(&mut self) {
        let rest = &self.b[self.i..];
        let (text, len) = match MULTI_PUNCT.iter().find(|p| rest.starts_with(p.as_bytes())) {
            Some(p) => (p.to_string(), p.len()),
            None => ((rest[0] as char).to_string(), 1),
        };
        self.i += len;
        self.push_at(TokKind::Punct, text, self.line);
    }

    fn push_at(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.toks.push(Tok { kind, text, line });
    }
}

/// The operators lexed as one token (longest first where one prefixes
/// another); every other punctuation character is a token of its own.
const MULTI_PUNCT: &[&str] = &[
    "..=", "==", "!=", "::", "->", "=>", "<=", ">=", "..", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "&=", "|=", "^=",
];

fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_not_tokens() {
        let toks = kinds("let x = \"== HashMap\"; // == unwrap()\n/* format! */ y");
        let idents: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Ident)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "x", "y"]);
        // The string's content is carried but typed Str, not operators.
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Str && t.contains("HashMap")));
    }

    #[test]
    fn float_vs_int_vs_range() {
        let toks = kinds("0.5 1e-9 2.0f64 42 0xff 0..5 1.max(2)");
        let floats: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Float)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(floats, vec!["0.5", "1e-9", "2.0f64"]);
        let ints: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Int)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ints, vec!["42", "0xff", "0", "5", "1", "2"]);
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let toks = kinds("a == b != c :: d .. e ..= f");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "::", "..", "..="]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a u8) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            toks.iter().filter(|(k, _)| *k == TokKind::Lifetime).count(),
            2
        );
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 2);
    }

    #[test]
    fn raw_strings_and_nested_comments() {
        let toks = kinds("r#\"has \"quotes\" and == \"# /* outer /* inner */ still */ z");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].0, TokKind::Str);
        assert_eq!(toks[1], (TokKind::Ident, "z".into()));
    }

    #[test]
    fn hot_markers_are_recorded_with_lines() {
        let lexed = lex("fn a() {}\n// lint: hot\nfn b() {}\n// lint: hotdog\n");
        assert_eq!(lexed.hot_marker_lines, vec![2]);
    }

    #[test]
    fn wrap_ok_markers_are_recorded_with_lines() {
        let lexed = lex("let a = b + c; // lint: wrap-ok\n// lint: wrap-okay\nx\n");
        assert_eq!(lexed.wrap_ok_lines, vec![1]);
    }

    #[test]
    fn compound_assignment_operators_are_single_tokens() {
        let toks = kinds("a += b; c -= d; e *= f; g /= h; i %= j; k &= l; m |= n; o ^= p");
        let ops: Vec<&str> = toks
            .iter()
            .filter(|(k, t)| *k == TokKind::Punct && t.len() == 2)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(ops, vec!["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let lexed = lex("/* c\nc */\n\"s\ns\"\nx");
        let x = lexed.toks.last().unwrap();
        assert_eq!((x.text.as_str(), x.line), ("x", 5));
    }
}
