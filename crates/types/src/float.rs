//! Sanctioned f64 comparison helpers for cost math.
//!
//! The `float-eq` lint (see `LINTS.md`) forbids raw `==`/`!=` against
//! float literals everywhere in the workspace: cost comparisons in the
//! Cafe utility (Eqs. 6–7) and the Psychic value function (Eqs. 13–14)
//! accumulate rounding error, so raw equality there is either a bug or an
//! undocumented exactness assumption. These helpers give both intents a
//! name:
//!
//! * [`approx_eq`] — tolerance comparison for *computed* quantities;
//! * [`exactly_zero`] / [`exactly_eq`] — documented bitwise comparison for
//!   values that are exact by construction (config sentinels, sums that
//!   are provably zero, hash-derived fractions compared to themselves).
//!
//! `exactly_*` compile to the same machine comparison the raw operator
//! would, so converting a call site is metric-neutral by construction —
//! the golden replay files and the pinned counters are unaffected.

/// Default absolute tolerance for cost-math comparisons.
///
/// Costs in this workspace are O(1) (normalized `c_f`/`c_r` around 1.0,
/// Eq. 4) and pass through at most a few thousand additive updates, so
/// 1e-9 is several orders of magnitude above accumulated rounding error
/// yet far below any decision-relevant cost difference.
pub const COST_EPS: f64 = 1e-9;

/// Tolerance equality for computed f64 quantities.
///
/// Uses absolute tolerance [`COST_EPS`]: appropriate for the O(1)
/// normalized costs this workspace trades in (not for astronomically
/// scaled values, which do not occur here). NaN compares unequal to
/// everything, matching IEEE intent.
///
/// ```
/// use vcdn_types::float::approx_eq;
/// let third = 1.0_f64 / 3.0;
/// assert!(approx_eq(third * 3.0, 1.0));
/// assert!(!approx_eq(1.0, 1.001));
/// ```
#[inline]
#[must_use]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= COST_EPS
}

/// Intentional *exact* equality against zero.
///
/// Use when zero is a sentinel or an exact-by-construction value (an
/// unset config field, a sum of non-negative terms, a freshly
/// initialized accumulator) and any nonzero value — however tiny — must
/// be treated as "set". Compiles to the raw comparison; exists so the
/// intent is visible and the `float-eq` lint can distinguish it from an
/// accidental equality.
///
/// ```
/// use vcdn_types::float::exactly_zero;
/// assert!(exactly_zero(0.0));
/// assert!(exactly_zero(-0.0)); // IEEE: -0.0 == 0.0
/// assert!(!exactly_zero(1e-300));
/// ```
#[inline]
#[must_use]
pub fn exactly_zero(v: f64) -> bool {
    v == 0.0
}

/// Intentional *exact* (bitwise-semantics) equality between two f64s.
///
/// The two-argument sibling of [`exactly_zero`], for sentinel-vs-sentinel
/// comparisons. NaN compares unequal to itself, as with the raw operator.
///
/// ```
/// use vcdn_types::float::exactly_eq;
/// assert!(exactly_eq(0.25, 0.25));
/// assert!(!exactly_eq(0.25, 0.25 + f64::EPSILON));
/// ```
#[inline]
#[must_use]
pub fn exactly_eq(a: f64, b: f64) -> bool {
    a == b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_tolerates_rounding_but_not_real_differences() {
        let tenth: f64 = (0..10).map(|_| 0.1).sum();
        assert!(approx_eq(tenth, 1.0), "accumulated 0.1s should be ~1.0");
        assert!(tenth != 1.0, "…while raw equality fails (the bug class)");
        assert!(!approx_eq(1.0, 1.0 + 2e-9));
        assert!(!approx_eq(f64::NAN, f64::NAN));
    }

    #[test]
    fn exact_helpers_match_raw_operator_semantics() {
        assert!(exactly_zero(0.0) && exactly_zero(-0.0));
        assert!(!exactly_zero(f64::MIN_POSITIVE));
        assert!(!exactly_zero(f64::NAN));
        assert!(exactly_eq(1.5, 1.5));
        assert!(!exactly_eq(f64::NAN, f64::NAN));
    }
}
