//! `clock-arith`: raw `+ - *` / `+= -= *=` on a clock or byte counter, a
//! name ending in `_ms`, `_ns` or `_bytes` (or exactly `ms`/`ns`/`bytes`)
//! declared an integer, with no float operand. Debug builds panic on
//! overflow and release builds wrap silently (see `--explain`).
//!
//! Names are classed by their declarations on the token stream: struct
//! fields, fn parameters and `let`s (by annotation, else by the
//! initializer's class), looked up in the fn, then in every struct of the
//! workspace. Conflicting, unknown and float names stay silent.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lexer::{Tok, TokKind};
use crate::operand::Shape;
use crate::rules::Sink;
use crate::walk::{code, find, is_ident, partner, File, NONE};

/// Coarse class of a name or an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A primitive integer.
    Int,
    /// `f32` / `f64`.
    Float,
    /// Anything else, unknown, or conflicting declarations.
    Other,
}

/// Methods whose result has their receiver's class.
const KEEPS_CLASS: &[&str] = &[
    "saturating_add",
    "saturating_sub",
    "saturating_mul",
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "min",
    "max",
];

/// Name → class, a name declared with conflicting classes demoted to
/// [`Class::Other`].
#[derive(Debug, Clone, Default)]
pub struct Decls(BTreeMap<String, Class>);

impl Decls {
    fn declare(&mut self, name: &str, class: Class) {
        let c = self.0.entry(name.to_string()).or_insert(class);
        if *c != class {
            *c = Class::Other;
        }
    }

    /// Declares one file's struct fields.
    pub fn add_fields(&mut self, f: &File) {
        for &(name, ty) in &f.fields {
            self.declare(&f.t[name].text, type_class(&f.t, ty, false));
        }
    }

    /// These declarations plus one fn's typed parameters, `t[r]`.
    fn with_params(&self, t: &[Tok], r: &Range<usize>) -> Decls {
        let (mut decls, mut i) = (self.clone(), r.start);
        while i < r.end {
            let end = find(t, i, &[",", ")"], true).min(r.end);
            let colon = find(t, i, &[":"], true).min(end);
            let mut names = (i..colon).filter(|&n| is_ident(t, n));
            if let Some(n) = names.find(|&n| !matches!(code(t, n), "mut" | "ref")) {
                if colon < end && code(t, n) != "self" {
                    decls.declare(&t[n].text, type_class(t, colon + 1, false));
                }
            }
            i = end + 1;
        }
        decls
    }

    /// The class of the operand `t[s..e]`; a name not declared here is
    /// looked up in `workspace`.
    fn class(&self, workspace: &Decls, f: &File, s: usize, e: usize) -> Class {
        let t = &f.t[..];
        match f.shape(s, e) {
            Shape::Binary(k, 1) if matches!(code(t, k), "+" | "-" | "*" | "/" | "%") => {
                let l = self.class(workspace, f, s, k);
                if l == self.class(workspace, f, k + 1, e) {
                    l
                } else {
                    Class::Other
                }
            }
            Shape::Cast(ty) => type_class(t, ty, true),
            Shape::Prefix(i) => self.class(workspace, f, i, e),
            Shape::Paren(a, b) => self.class(workspace, f, a, b),
            Shape::Name(i) => *self
                .0
                .get(&t[i].text)
                .or(workspace.0.get(&t[i].text))
                .unwrap_or(&Class::Other),
            Shape::Lit(i) if t[i].kind == TokKind::Int => Class::Int,
            Shape::Lit(i) if t[i].kind == TokKind::Float => Class::Float,
            Shape::Method(m, dot) if KEEPS_CLASS.contains(&code(t, m)) => {
                self.class(workspace, f, s, dot)
            }
            _ => Class::Other,
        }
    }
}

/// The class of the type at `i`: references, pointers and `mut` (and
/// after `as`, `const`) stripped, then the leading identifier.
fn type_class(t: &[Tok], mut i: usize, cast: bool) -> Class {
    while matches!(code(t, i), "&" | "&&" | "*" | "mut")
        || (cast && code(t, i) == "const")
        || t.get(i).is_some_and(|x| x.kind == TokKind::Lifetime)
    {
        i += 1;
    }
    match code(t, i) {
        "u8" | "u16" | "u32" | "u64" | "u128" | "usize" | "i8" | "i16" | "i32" | "i64" | "i128"
        | "isize" => Class::Int,
        "f32" | "f64" => Class::Float,
        _ => Class::Other,
    }
}

/// A `let` whose names bind once the walk is past `end` (its initializer
/// and a let-else block): one name takes the annotation's class, else the
/// initializer's; a destructuring pattern's names are all unknown.
struct Let {
    end: usize,
    ids: Vec<usize>,
    ty: Option<usize>,
    init: Option<(usize, usize)>,
}

fn let_stmt(f: &File, k: usize) -> Let {
    let t = &f.t[..];
    let pat = find(t, k + 1, &[":", "=", ";", ")", "]", "}"], false);
    let binding = |&i: &usize| {
        let name = code(t, i);
        let lower = name.starts_with(|c: char| c.is_ascii_lowercase() || c == '_');
        lower && !matches!(name, "mut" | "ref" | "box" | "_")
    };
    let ids = (k + 1..pat).filter(binding).collect();
    let ty = (code(t, pat) == ":").then_some(pat + 1);
    let eq = ty.map_or(pat, |ty| find(t, ty, &["=", ";"], true));
    let init = (code(t, eq) == "=").then(|| (eq + 1, f.end(eq + 1, 0)));
    let mut end = init.map_or(eq, |(_, e)| e);
    if init.is_some() && code(t, end) == "else" {
        end = partner(t, end + 1) + 1;
    }
    Let { end, ids, ty, init }
}

/// Runs the rule on one file's walked fns, in token order: each fn's names
/// are the file's struct fields, its parameters, then its `let`s.
pub fn check(f: &File, workspace: &Decls, push: Sink) {
    let t = &f.t[..];
    let mut fields = Decls::default();
    fields.add_fields(f);
    let mut scopes: Vec<Option<(Decls, Vec<Let>)>> = f.params.iter().map(|_| None).collect();
    for k in (0..t.len()).filter(|&k| f.owner[k] != NONE) {
        let params = &f.params[f.owner[k] as usize];
        let (decls, lets) = scopes[f.owner[k] as usize]
            .get_or_insert_with(|| (fields.with_params(t, params), Vec::new()));
        while let Some(l) = lets.pop_if(|l| l.end <= k) {
            let class = match (l.ty, l.init) {
                (Some(ty), _) => type_class(t, ty, false),
                (None, Some((s, e))) => decls.class(workspace, f, s, e),
                (None, None) => Class::Other,
            };
            let one = l.ids.len() == 1;
            for n in l.ids {
                decls.declare(&t[n].text, if one { class } else { Class::Other });
            }
        }
        let (s, e) = match (code(t, k), f.binop(k)) {
            ("let", _) if !matches!(code(t, k.wrapping_sub(1)), "if" | "while") => {
                lets.push(let_stmt(f, k));
                continue;
            }
            ("+" | "-" | "*", Some((level, _))) => (f.start(k, level), f.end(k + 1, level)),
            // An assignment's target takes every operator above level 0.
            ("+=" | "-=" | "*=", _) => (f.start(k, 1), f.end(k + 1, 0)),
            _ => continue,
        };
        let class = |a, b| decls.class(workspace, f, a, b);
        let classes = [class(s, k), class(k + 1, e)];
        let names = [f.name(s, k), f.name(k + 1, e)];
        let int_counter = |j: usize| {
            let name = names[j].map_or("", |n| t[n].text.as_str());
            let suffixed = ["_ms", "_ns", "_bytes"].iter().any(|x| name.ends_with(x));
            classes[j] == Class::Int && (suffixed || matches!(name, "ms" | "ns" | "bytes"))
        };
        let float = classes.contains(&Class::Float);
        let Some(n) = (0..2)
            .filter(|&j| !float && int_counter(j))
            .find_map(|j| names[j])
        else {
            continue;
        };
        let (name, op) = (&t[n].text, &t[k].text);
        let message =
            format!("unchecked `{op}` on counter `{name}`; use saturating_*/checked_*/wrapping_*");
        push("clock-arith", f.line(s, k), format!("{name} {op}"), message);
    }
}

#[cfg(test)]
mod tests {
    /// The file's findings as `line snippet`, comma-separated.
    fn run(src: &str) -> String {
        let found = crate::rules::tests::found("types", src);
        found.join(", ").replace(" clock-arith", "")
    }

    #[test]
    fn unchecked_add_on_known_int_counter_fires() {
        let src = "struct S { hit_bytes: u64 }\nimpl S { fn add(&mut self, n: u64) { self.hit_bytes += n; } }";
        assert_eq!(run(src), "2 hit_bytes +=");
    }

    #[test]
    fn binary_ops_on_params_fire() {
        let src = "fn span(start_ms: u64, end_ms: u64) { end_ms - start_ms }";
        assert_eq!(run(src), "1 end_ms -");
    }

    #[test]
    fn float_counters_are_silent() {
        assert_eq!(run("fn f(mean_ms: f64, x: f64) -> f64 { mean_ms * x }"), "");
        // Mixed float context is silent even with a named int nearby.
        let src = "fn f(dt_ms: u64, rate: f64) { dt_ms as f64 * rate }";
        assert_eq!(run(src), "");
    }

    #[test]
    fn unresolved_names_are_silent() {
        assert_eq!(run("fn f(x: Foo) -> u64 { x.some_ms + 1 }"), "");
    }

    #[test]
    fn saturating_methods_are_clean() {
        let src = "fn f(a_ms: u64, b_ms: u64) { a_ms.saturating_sub(b_ms) }";
        assert_eq!(run(src), "");
    }

    #[test]
    fn wrap_ok_marker_suppresses() {
        // The retired `// lint: wrap-ok` marker is a plain comment now: a
        // raw op that relies on wrapping panics in debug builds, so the only
        // way to wrap is `wrapping_*`, which the rule never flags.
        let same = "fn f(seed_ms: u64) -> u64 { seed_ms * 31 } // lint: wrap-ok";
        let above = "fn f(seed_ms: u64) -> u64 {\n    // lint: wrap-ok\n    seed_ms * 31\n}";
        assert_eq!(run(same) + "; " + &run(above), "1 seed_ms *; 3 seed_ms *");
        let src = "fn f(seed_ms: u64) -> u64 { seed_ms.wrapping_mul(31) }";
        assert_eq!(run(src), "");
    }

    #[test]
    fn params_fields_and_lets_declare_names() {
        let src = "struct S { pub total_bytes: u64, iat: FastMap<ChunkId, f64>, name: String }
fn f(s: &S, dt_ms: &mut u32, r_ms: &f32, v_ms: Vec<u64>, mut b_ms: u64) {
    *dt_ms += 1; r_ms * 2.0; v_ms + 1; s.total_bytes + 1; b_ms += 1;
    x_ms + 1;
    let x_ms: u64 = 0;
    x_ms + 1;
    let y_ms = x_ms.min(3) as u64;
    y_ms - 1;
    let (p_ms, q_ms) = (1u64, 2u64);
    p_ms + q_ms;
    let z_ms = 0.5;
    z_ms * 2;
}";
        let want = "3 b_ms +=, 3 dt_ms +=, 3 total_bytes +, 6 x_ms +, 8 y_ms -";
        assert_eq!(run(src), want);
        // A name declared with conflicting types is unknown.
        let src = "struct A { total_ms: u64 }\nstruct B { total_ms: f64 }\nstruct C { k_ms: u32 }
fn f(a: &A, c: &C) -> u64 { a.total_ms + c.k_ms }";
        assert_eq!(run(src), "4 k_ms +");
    }

    #[test]
    fn one_finding_per_operator_on_its_left_operand() {
        // `(a + b_ms) - c`: the `+` has a counter operand, the `-` has
        // none (an int sum of an unknown and an int is unknown).
        let src = "fn f(a: X, b_ms: u64, c: u64) -> u64 {\n    a\n        + b_ms - c\n}";
        assert_eq!(run(src), "2 b_ms +");
    }

    #[test]
    fn non_counter_names_are_silent() {
        let src = "fn f(count: u64, total: u64) -> u64 { count + total }";
        assert_eq!(run(src), "");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)]\nmod t { fn f(a_ms: u64) -> u64 { a_ms + 1 } }";
        assert_eq!(run(src), "");
    }
}
