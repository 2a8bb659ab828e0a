//! One seeded literal-index violation, suppressed by the fixture's lint.allow.

pub fn pick_first(xs: &[u64]) -> u64 {
    xs[0]
}
