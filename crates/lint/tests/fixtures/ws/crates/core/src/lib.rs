//! Seeded violation: literal-index (line 5). Golden tests assert this
//! exact file:line:rule triple; silent.rs holds what must stay silent.

pub fn pick_first(xs: &[u64]) -> u64 {
    xs[0]
}
