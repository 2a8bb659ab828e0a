//! Seeded cross-file clock-arith violation (line 5): `Span::end_ms` is
//! declared `u64` in types/src/lib.rs, not in this file.

pub fn total(a: &Span, b: &Span) -> u64 {
    a.end_ms + b.end_ms
}
