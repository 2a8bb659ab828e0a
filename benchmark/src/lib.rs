//! The repo's benchmark: four workloads, six end-to-end metrics and a
//! per-layer time ledger, all measured from outside the crates through
//! their public API.
//!
//! * [`workload`] — the four workloads and why each exists.
//! * [`drivers`] — the passes (VCTB bytes in → decode → build → drive →
//!   report) behind the three throughput metrics, plus the probe passes.
//! * [`shims`] — benchmark-side observers and policy wrappers that time
//!   calls into the crates.
//! * [`spans`] — in-memory spans and the ledger read off them.
//! * [`gate`] — the correctness gate and failure accounting.
//! * [`run`] — one run: set-up, window, gate, traced passes, metrics.
//! * [`compare`] — judging one set of results against another by the
//!   bounds in `BENCHMARK.json`.
//! * [`schema`], [`stats`], [`machine`] — metric lists, order
//!   statistics, machine context.
//!
//! See `README.md` for how to run it and how to read what it prints.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compare;
pub mod drivers;
pub mod gate;
pub mod machine;
pub mod run;
pub mod schema;
pub mod shims;
pub mod spans;
pub mod stats;
pub mod workload;
