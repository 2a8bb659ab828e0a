//! One seeded violation per rule that vcdn-lint handed to the toolchain,
//! each waived with `#[expect]`. `cargo clippy --all-targets -D warnings`
//! fails with "this lint expectation is unfulfilled" the day one of these
//! lints stops firing, so a weakened `clippy.toml` entry or a toolchain
//! that no longer reports one of them cannot go unnoticed. See LINTS.md,
//! "Toolchain rules".
//!
//! `cargo run -p vcdn-lint --example retired_rules`

// The `panic` rule's list, as crates/core and crates/sim declare it.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

/// `determinism`: `clippy::disallowed_methods` from the root `clippy.toml`.
#[expect(clippy::disallowed_methods, reason = "seeded: determinism")]
fn wall_clock() -> std::time::Instant {
    std::time::Instant::now()
}

/// `determinism-flow`: `clippy::disallowed_types` keeps the std hash
/// containers, whose iteration order is the hasher's, out of the code.
#[expect(clippy::disallowed_types, reason = "seeded: determinism-flow")]
fn hash_ordered() -> std::collections::HashSet<u64> {
    std::collections::HashSet::from([1])
}

/// `panic`: `clippy::unwrap_used` from the `#![warn]` list above.
#[expect(clippy::unwrap_used, reason = "seeded: panic")]
fn first(xs: &[u64]) -> u64 {
    *xs.first().unwrap()
}

/// `feature-gate`: rustc's `unexpected_cfgs` (a typo of `std-hash`). A
/// `#[cfg]` item would not do: its `#[expect]` is compiled out with it.
#[expect(unexpected_cfgs, reason = "seeded: feature-gate")]
fn misspelled_feature() -> bool {
    cfg!(feature = "std-hsah")
}

fn main() {
    let _ = (wall_clock(), hash_ordered());
    println!("{} {}", first(&[1]), misspelled_feature());
}
