//! Seeded violation: float-eq (line 5). `x == -1.0` (a negated literal is
//! not a literal operand) stays silent. core/src/tiers.rs reads `Span`.

pub fn is_unit(x: f64) -> bool {
    x == 1.0
}

pub fn is_minus_unit(x: f64) -> bool { x == -1.0 }
pub struct Span { pub end_ms: u64 }
