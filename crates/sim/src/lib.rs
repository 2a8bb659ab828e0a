//! Replay engine, metrics and reporting for video-CDN cache simulation.
//!
//! This crate drives [`vcdn_trace::Trace`]s through [`vcdn_core`] cache
//! policies and produces the measurements the paper's evaluation reports:
//! steady-state cache efficiency (Eq. 2, averaged over the second half of
//! the replay), ingress-to-egress percentage, redirect ratio, and hourly
//! time series — plus the disk-I/O and egress-saturation resource models
//! behind the paper's §2 motivation.
//!
//! # Examples
//!
//! ```
//! use vcdn_core::{CacheConfig, XlruCache};
//! use vcdn_sim::{ReplayConfig, Replayer};
//! use vcdn_trace::{ServerProfile, TraceGenerator};
//! use vcdn_types::{ChunkSize, CostModel, DurationMs};
//!
//! let trace = TraceGenerator::new(ServerProfile::tiny_test(), 7)
//!     .generate(DurationMs::from_hours(6));
//! let costs = CostModel::from_alpha(2.0).unwrap();
//! let k = ChunkSize::DEFAULT;
//! let mut cache = XlruCache::new(CacheConfig::new(128, k, costs));
//! let report = Replayer::new(ReplayConfig::new(k, costs)).replay(&trace, &mut cache);
//! assert!(report.efficiency() >= -1.0 && report.efficiency() <= 1.0);
//! ```

#![forbid(unsafe_code)]
// Replays drive every policy for millions of requests: no panic path in
// library code (unit tests are exempt through clippy.toml; `assert!` stays
// allowed).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod diskalloc;
pub mod engine;
pub mod models;
pub mod observe;
pub mod replay;
pub mod report;
pub mod runner;

pub use engine::{
    engine_bundle, shard_of_chunk, shard_of_video, shard_requests, EngineConfig, EngineError,
    EngineReport, ShardReport, ShardedEngine,
};
pub use models::{DiskIoModel, EgressModel, EgressSummary};
pub use observe::{
    grid_jsonl, replay_with_telemetry, telemetry_cell, TelemetryConfig, TelemetryObserver,
};
pub use replay::{DecisionCtx, ReplayConfig, ReplayObserver, ReplayReport, Replayer, WindowStat};
pub use report::Table;
pub use runner::{run_grid, worker_count, Cell, CellResult, GridRun};

// The engine's unit tests share the integration tests' replay matrix,
// which names this crate by its path.
#[cfg(test)]
extern crate self as vcdn_sim;
#[cfg(test)]
#[path = "../tests/matrix/mod.rs"]
mod matrix;
