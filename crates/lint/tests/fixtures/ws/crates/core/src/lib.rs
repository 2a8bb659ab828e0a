//! Seeded violation: literal-index (line 5). Golden tests assert this
//! exact file:line:rule triple.

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
    pub fn exempt() -> u64 {
        let v = vec![1.0 == 1.0];
        v[0] as u64
    }
}
