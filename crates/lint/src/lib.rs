//! `vcdn-lint`: offline, workspace-aware static analysis for the vcdn
//! workspace.
//!
//! Three invariants of the replay engine's cost math have no toolchain
//! home: epsilon-guarded float comparisons, literal-index panics and
//! overflow-guarded counters. This crate parses the workspace source with
//! a small in-repo lexer and a tolerant AST-lite parser, and enforces
//! those invariants as three rules over the tree, each individually
//! suppressible via the checked-in `lint.allow` file — every suppression
//! with a reviewable justification. The invariants the toolchain can
//! check (no wall clock, no hash-ordered container, no panic in policy
//! code, declared feature gates, no lock outside its two homes) live in
//! `clippy.toml` and crate attributes instead, and allocation on the
//! decide paths is measured by `crates/sim/tests/alloc_golden.rs`.
//!
//! See `LINTS.md` at the repository root for the rule catalogue, and run
//! `cargo run -p vcdn-lint -- --explain <rule>` for the same text offline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod allow;
mod arith;
mod ast;
mod lexer;
mod rules;
mod symbols;
mod workspace;

pub use allow::{AllowEntry, AllowError, AllowList};
pub use rules::{rule_by_name, Finding, Rule, RULES};
pub use workspace::{check_workspace, CheckReport};
