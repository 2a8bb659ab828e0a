//! Seeded violations: hot-path (line 6) and literal-index (line 12).
//! Golden tests assert these exact file:line:rule triples.

// lint: hot
pub fn hot_decide(xs: &[u64]) -> Vec<u64> {
    let mut out = Vec::new();
    out.extend_from_slice(xs);
    out
}

pub fn pick_first(xs: &[u64]) -> u64 {
    xs[0]
}

pub fn pick_first_checked(xs: &[u64]) -> u64 {
    let [first, ..] = xs else { return 0 };
    *first
}

#[cfg(test)]
mod tests {
    // Test code is exempt: none of these may be reported.
    // lint: hot
    pub fn exempt() -> u64 {
        let v = vec![1.0 == 1.0];
        v[0] as u64
    }
}
