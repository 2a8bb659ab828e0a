//! `vcdn-lint`: offline, workspace-aware static analysis for the vcdn
//! workspace.
//!
//! Three invariants of the replay engine's cost math have no toolchain
//! home: epsilon-guarded float comparisons, literal-index panics and
//! overflow-guarded counters. Each rule reads one operator and its
//! operands on the token stream of a small in-repo lexer; each finding is
//! suppressible only through `lint.allow`, with a justification. What the
//! toolchain can check lives in `clippy.toml` and crate attributes (see
//! `LINTS.md`, or `cargo run -p vcdn-lint -- --explain <rule>`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod allow;
mod arith;
mod lexer;
mod operand;
mod rules;
mod walk;
mod workspace;

pub use allow::{AllowEntry, AllowError, AllowList};
pub use rules::{rule_by_name, Finding, Rule, RULES};
pub use workspace::{check_workspace, CheckReport};
