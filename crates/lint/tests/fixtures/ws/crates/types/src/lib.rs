//! Seeded violation: float-eq (line 5). Feature gates are rustc's
//! `unexpected_cfgs` now (crates/lint/examples/retired_rules.rs).

pub fn is_unit(x: f64) -> bool {
    x == 1.0
}
