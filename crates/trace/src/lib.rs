//! Synthetic video-CDN workload generation and trace I/O.
//!
//! The paper evaluates its caches on anonymised request logs from six
//! production CDN servers — data we cannot have. This crate is the
//! substitute substrate: a fully deterministic workload generator whose
//! traces reproduce the statistical properties the paper's results depend
//! on (see `DESIGN.md` §2 for the substitution argument):
//!
//! * Zipf-like video popularity with a heavy one-timer tail ([`dist`],
//!   [`catalog`]);
//! * popularity churn — new uploads, power-law age decay ([`catalog`]);
//! * diurnal request volume with per-server peak hours ([`profile`],
//!   [`generator`]);
//! * prefix-biased intra-file access via a viewing-session model
//!   ([`session`]);
//! * six world-server profiles of differing volume and diversity
//!   ([`profile::ServerProfile::world_servers`]).
//!
//! [`downsample()`] reproduces the paper's §9.1 trace reduction for the
//! Optimal-cache experiment, and [`stats`] provides the empirical checks
//! used across the test suite.
//!
//! # Examples
//!
//! ```
//! use vcdn_trace::{generator::TraceGenerator, profile::ServerProfile, stats};
//! use vcdn_types::{ChunkSize, DurationMs};
//!
//! let trace = TraceGenerator::new(ServerProfile::tiny_test(), 1)
//!     .generate(DurationMs::from_hours(12));
//! let s = stats::trace_stats(&trace, ChunkSize::DEFAULT);
//! assert!(s.unique_videos > 0);
//! ```

#![forbid(unsafe_code)]

mod ahead;
pub mod binfmt;
pub mod catalog;
pub mod dist;
pub mod downsample;
pub mod generator;
pub mod profile;
pub mod rng;
pub mod session;
pub mod stats;
pub mod trace;

pub use binfmt::{load_binary, save_binary, BinTraceError};
pub use downsample::{disk_chunks_for_fraction, downsample, DownsampleConfig};
pub use generator::TraceGenerator;
pub use profile::ServerProfile;
pub use session::SessionConfig;
pub use trace::{Trace, TraceIoError, TraceMeta};
