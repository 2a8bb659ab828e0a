//! A small, dependency-free JSON layer.
//!
//! The workspace persists traces, snapshots and reports as JSON but must
//! build in fully offline environments, so instead of an external
//! serialisation crate this module implements the subset of JSON the
//! workspace needs: a DOM value ([`Json`]), a strict recursive-descent
//! parser, a writer that round-trips `u64`/`f64` exactly, and the
//! [`ToJson`]/[`FromJson`] traits the domain types implement (usually via
//! [`impl_json_struct!`](crate::impl_json_struct) /
//! [`impl_json_newtype!`](crate::impl_json_newtype)).
//!
//! Wire compatibility: structs serialise as objects keyed by field name,
//! newtypes as their inner value, tuples as fixed-length arrays, and
//! `Option` as `null`-or-value — the same shape the workspace's files have
//! always used.
//!
//! # Examples
//!
//! ```
//! use vcdn_types::json::{self, Json};
//!
//! let v = json::parse(r#"{"a": [1, 2.5, null], "b": "x"}"#).unwrap();
//! assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
//! assert_eq!(json::parse(&v.to_string()).unwrap(), v);
//! ```

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::io::Write;

/// A parsed JSON value.
///
/// Numbers keep their lexical class: tokens without `.`/`e` parse as
/// [`Json::Int`] (full `i128` range, so any `u64` or `i64` round-trips
/// exactly); everything else parses as [`Json::Float`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer-lexeme number.
    Int(i128),
    /// A fractional or exponent-notation number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved for output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Short name of the value's kind, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Int(_) => "int",
            Json::Float(_) => "float",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Errors parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonError {
    /// The input is not syntactically valid JSON.
    Syntax {
        /// Byte offset of the error.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// A value had the wrong shape for the requested type.
    Type {
        /// What the decoder expected.
        expected: String,
        /// What it found.
        found: String,
    },
    /// An object was missing a required field.
    MissingField(&'static str),
}

impl JsonError {
    /// Builds a type-mismatch error.
    pub fn type_mismatch(expected: &str, found: &Json) -> JsonError {
        JsonError::Type {
            expected: expected.to_string(),
            found: found.kind().to_string(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, message } => {
                write!(f, "JSON syntax error at byte {offset}: {message}")
            }
            JsonError::Type { expected, found } => {
                write!(f, "JSON type error: expected {expected}, found {found}")
            }
            JsonError::MissingField(name) => write!(f, "JSON object missing field `{name}`"),
        }
    }
}

impl std::error::Error for JsonError {}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    // Keys and almost every value need no escaping: one copy, not one push
    // per `char`.
    if s.bytes().all(|b| b >= 0x20 && b != b'"' && b != b'\\') {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

fn write_int(out: &mut String, i: i128) {
    // 64-bit formatting is several times cheaper than 128-bit, and nearly
    // every integer the workspace writes fits.
    let _ = match i64::try_from(i) {
        Ok(small) => write!(out, "{small}"),
        Err(_) => write!(out, "{i}"),
    };
}

fn write_float(out: &mut String, x: f64) {
    if x.is_finite() {
        // Rust's shortest round-trip formatting; force a fractional
        // marker so the value re-parses as Float.
        let start = out.len();
        let _ = write!(out, "{x}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        // JSON has no NaN/Infinity; match the conventional fallback.
        out.push_str("null");
    }
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(true) => out.push_str("true"),
        Json::Bool(false) => out.push_str("false"),
        Json::Int(i) => write_int(out, *i),
        Json::Float(x) => write_float(out, *x),
        Json::Str(s) => write_escaped(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => fields
            .iter()
            .fold(ObjectWriter::new(out), |obj, (k, v)| obj.raw(k, v))
            .finish(),
    }
}

impl Json {
    /// Appends the compact rendering (the bytes [`Display`](fmt::Display)
    /// produces) to `out`.
    pub fn write_to(&self, out: &mut String) {
        write_value(out, self);
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        write_value(&mut s, self);
        f.write_str(&s)
    }
}

/// Writes one JSON object straight into a caller's buffer, field by field,
/// without building a [`Json`] tree: the same bytes as
/// `Json::Obj(..).to_string()` for the same fields in the same order.
///
/// # Examples
///
/// ```
/// use vcdn_types::json::ObjectWriter;
///
/// let mut line = String::new();
/// ObjectWriter::new(&mut line)
///     .str("type", "topk")
///     .u64("rank", 1)
///     .opt_f64("age", None)
///     .finish_line();
/// assert_eq!(line, "{\"type\":\"topk\",\"rank\":1,\"age\":null}\n");
/// ```
#[must_use = "the object stays open until `finish` or `finish_line`"]
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    first: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Opens an object at the end of `out`.
    pub fn new(out: &'a mut String) -> ObjectWriter<'a> {
        out.push('{');
        ObjectWriter { out, first: true }
    }

    fn key(&mut self, key: &str) {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        write_escaped(self.out, key);
        self.out.push(':');
    }

    /// A string field.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        write_escaped(self.out, value);
        self
    }

    /// An unsigned integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// An array-of-unsigned-integers field.
    pub fn u64s(mut self, key: &str, values: &[u64]) -> Self {
        self.key(key);
        self.out.push('[');
        for (i, value) in values.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{value}");
        }
        self.out.push(']');
        self
    }

    /// A float field (`null` when not finite, like [`Json::Float`]).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        write_float(self.out, value);
        self
    }

    /// A float-or-`null` field: `None` is written as a non-finite float is.
    pub fn opt_f64(self, key: &str, value: Option<f64>) -> Self {
        self.f64(key, value.unwrap_or(f64::NAN))
    }

    /// A field holding an already-built value.
    pub fn raw(mut self, key: &str, value: &Json) -> Self {
        self.key(key);
        write_value(self.out, value);
        self
    }

    /// Closes the object.
    pub fn finish(self) {
        self.out.push('}');
    }

    /// Closes the object and ends its line (JSONL).
    pub fn finish_line(self) {
        self.out.push_str("}\n");
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError::Syntax {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn consume_lit(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            self.err(format!("expected `{lit}`"))
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return self.err("unterminated escape");
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(mut code) = hex else {
                                return self.err("bad \\u escape");
                            };
                            self.pos += 4;
                            // Surrogate pair.
                            if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos..self.pos + 2) == Some(b"\\u") {
                                    self.pos += 2;
                                    let lo = self
                                        .bytes
                                        .get(self.pos..self.pos + 4)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok());
                                    let Some(lo) = lo else {
                                        return self.err("bad low surrogate");
                                    };
                                    self.pos += 4;
                                    code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                } else {
                                    return self.err("lone high surrogate");
                                }
                            }
                            match char::from_u32(code) {
                                Some(c) => s.push(c),
                                None => return self.err("invalid unicode escape"),
                            }
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                _ => {
                    // Re-decode UTF-8 from the raw bytes.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    let end = start + len;
                    match self
                        .bytes
                        .get(start..end)
                        .and_then(|raw| std::str::from_utf8(raw).ok())
                    {
                        Some(frag) => {
                            s.push_str(frag);
                            self.pos = end;
                        }
                        None => return self.err("invalid UTF-8 in string"),
                    }
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let mut lexical_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    lexical_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        if lexical_float {
            match text.parse::<f64>() {
                Ok(x) => Ok(Json::Float(x)),
                Err(_) => self.err(format!("bad number `{text}`")),
            }
        } else {
            match text.parse::<i128>() {
                Ok(i) => Ok(Json::Int(i)),
                Err(_) => self.err(format!("bad integer `{text}`")),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.consume_lit("null", Json::Null),
            Some(b't') => self.consume_lit("true", Json::Bool(true)),
            Some(b'f') => self.consume_lit("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.parse_value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.parse_string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.parse_value()?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b) => self.err(format!("unexpected byte `{}`", b as char)),
        }
    }
}

const fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after JSON value");
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Traits and entry points
// ---------------------------------------------------------------------------

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value.
pub trait FromJson: Sized {
    /// Decodes from a JSON value.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Serialises a value to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Parses and decodes a value from a JSON string.
pub fn from_str<T: FromJson>(input: &str) -> Result<T, JsonError> {
    T::from_json(&parse(input)?)
}

/// Serialises a value as compact JSON into a writer.
pub fn to_writer<W: Write, T: ToJson + ?Sized>(mut w: W, value: &T) -> std::io::Result<()> {
    w.write_all(to_string(value).as_bytes())
}

/// Fetches and decodes a required object field (used by the impl macros).
pub fn field<T: FromJson>(v: &Json, name: &'static str) -> Result<T, JsonError> {
    match v {
        Json::Obj(_) => T::from_json(v.get(name).ok_or(JsonError::MissingField(name))?),
        other => Err(JsonError::type_mismatch("object", other)),
    }
}

// --- primitive impls -------------------------------------------------------

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Int(*self as i128)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v {
                    Json::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| JsonError::type_mismatch(stringify!($t), v)),
                    other => Err(JsonError::type_mismatch(stringify!($t), other)),
                }
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Float(x) => Ok(*x),
            Json::Int(i) => Ok(*i as f64),
            other => Err(JsonError::type_mismatch("number", other)),
        }
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::type_mismatch("bool", other)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::type_mismatch("string", other)),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::type_mismatch("array", other)),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<K: ToJson, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Json {
        Json::Arr(
            self.iter()
                .map(|(k, v)| Json::Arr(vec![k.to_json(), v.to_json()]))
                .collect(),
        )
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(JsonError::type_mismatch("2-element array", other)),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Arr(items) if items.len() == 3 => Ok((
                A::from_json(&items[0])?,
                B::from_json(&items[1])?,
                C::from_json(&items[2])?,
            )),
            other => Err(JsonError::type_mismatch("3-element array", other)),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields,
/// serialised as an object keyed by field name.
///
/// Invoke in the module that defines the struct (fields need not be
/// public there).
#[macro_export]
macro_rules! impl_json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($name {
                    $($field: $crate::json::field(v, stringify!($field))?),+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a tuple struct with one field,
/// serialised transparently as the inner value.
#[macro_export]
macro_rules! impl_json_newtype {
    ($name:ident) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }
        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Json) -> Result<Self, $crate::json::JsonError> {
                Ok($name($crate::json::FromJson::from_json(v)?))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for src in [
            "null", "true", "false", "0", "-7", "42", "1.5", "-2.25e3", "\"hi\"",
        ] {
            let v = parse(src).unwrap();
            assert_eq!(parse(&v.to_string()).unwrap(), v, "{src}");
        }
    }

    #[test]
    fn integers_keep_full_u64_precision() {
        let big = u64::MAX;
        let s = to_string(&big);
        assert_eq!(s, big.to_string());
        assert_eq!(from_str::<u64>(&s).unwrap(), big);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 2.5e17, -0.0, 123456.789012345] {
            let s = to_string(&x);
            assert_eq!(from_str::<f64>(&s).unwrap(), x, "{s}");
        }
        // Integral floats keep a fractional marker so they reparse as Float.
        assert_eq!(to_string(&2.0f64), "2.0");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a\"b\\c\nd\te\u{1}é✓".to_string();
        let encoded = to_string(&s);
        assert_eq!(from_str::<String>(&encoded).unwrap(), s);
        assert_eq!(
            parse(r#""é ✓ 😀""#).unwrap(),
            Json::Str("é ✓ 😀".to_string())
        );
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<(u64, Option<f64>)> = vec![(1, Some(0.5)), (2, None)];
        let s = to_string(&v);
        assert_eq!(from_str::<Vec<(u64, Option<f64>)>>(&s).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"unterminated",
            "01a",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(matches!(
            from_str::<u64>("\"x\""),
            Err(JsonError::Type { .. })
        ));
        assert!(matches!(from_str::<u64>("-1"), Err(JsonError::Type { .. })));
        struct P;
        impl FromJson for P {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                field::<u64>(v, "missing").map(|_| P)
            }
        }
        assert!(matches!(
            from_str::<P>("{}"),
            Err(JsonError::MissingField("missing"))
        ));
    }

    #[test]
    fn object_field_order_is_preserved() {
        let v = parse(r#"{"b":1,"a":2}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"b":1,"a":2}"#);
        assert_eq!(v.get("a"), Some(&Json::Int(2)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn nonfinite_floats_serialise_as_null() {
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
    }
}
