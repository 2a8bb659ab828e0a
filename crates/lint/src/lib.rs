//! `vcdn-lint`: offline, workspace-aware static analysis for the vcdn
//! workspace.
//!
//! The replay engine's value rests on properties `clippy` cannot express:
//! allocation-free decide paths, epsilon-guarded cost math, literal-index
//! panics, leaf-level lock scopes and overflow-guarded counters. This
//! crate parses the workspace source with a small in-repo lexer
//! ([`lexer`]) and a tolerant AST-lite parser ([`ast`]), and enforces
//! those invariants as five rules ([`rules`]) over
//! the tree, each individually suppressible via the checked-in
//! `lint.allow` file ([`allow`]) — every suppression with a reviewable
//! justification. The invariants the toolchain can check (no wall clock,
//! no hash-ordered container, no panic in policy code, declared feature
//! gates) live in `clippy.toml` and crate attributes instead.
//!
//! See `LINTS.md` at the repository root for the rule catalogue, and run
//! `cargo run -p vcdn-lint -- --explain <rule>` for the same text offline.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allow;
pub mod arith;
pub mod ast;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod symbols;
pub mod workspace;

pub use allow::{AllowEntry, AllowError, AllowList};
pub use rules::{Finding, Rule, RULES};
pub use workspace::{check_workspace, CheckReport};
