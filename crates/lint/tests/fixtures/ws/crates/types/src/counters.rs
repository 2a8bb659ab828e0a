//! Seeded clock-arith violation: line 7 subtracts two known-u64 clock
//! identifiers without a saturating/checked/wrapping guard. The other
//! functions show the sanctioned forms (saturating and wrapping methods,
//! float math) and must stay silent.

pub fn span_ms(start_ms: u64, end_ms: u64) -> u64 {
    end_ms - start_ms
}

pub fn span_ms_ok(start_ms: u64, end_ms: u64) -> u64 { end_ms.saturating_sub(start_ms) }
pub fn ring_slot(seed_ms: u64) -> u64 { seed_ms.wrapping_mul(31) }
pub fn rate(hit_bytes: f64, window_ms: f64) -> f64 { hit_bytes / window_ms * 1000.0 }
