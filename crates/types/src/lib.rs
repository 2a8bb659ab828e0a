//! Core domain types for the `vcdn` video-CDN caching library.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace: identifiers for videos and chunks, millisecond timestamps,
//! inclusive byte/chunk ranges, the [`Request`] record replayed through the
//! caches, the ingress-vs-redirect [`CostModel`] (`α_F2R`, Eq. 4 of the
//! paper), per-request [`Decision`]s, and the primitive traffic accounting
//! from which cache efficiency (Eq. 2) is computed.
//!
//! The types are deliberately small, `Copy` where possible, and free of any
//! policy: all caching logic lives in `vcdn-core`, all workload logic in
//! `vcdn-trace`.
//!
//! # Examples
//!
//! ```
//! use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
//!
//! let k = ChunkSize::new(2 * 1024 * 1024).unwrap(); // 2 MB chunks
//! let req = Request::new(VideoId(7), ByteRange::new(0, 5_000_000).unwrap(), Timestamp(1_000));
//! let chunks = req.chunk_range(k);
//! assert_eq!(chunks.len(), 3); // bytes [0, 5_000_000] span chunks 0..=2
//!
//! let cost = CostModel::from_alpha(2.0).unwrap(); // ingress twice as costly
//! assert!((cost.c_f() - 4.0 / 3.0).abs() < 1e-12);
//! assert!((cost.c_r() - 2.0 / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cost;
pub mod decision;
pub mod fasthash;
pub mod float;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod range;
pub mod request;
pub mod time;
pub mod workers;

pub use cost::{CostError, CostModel};
pub use decision::{Decision, ServeOutcome};
pub use fasthash::{FastMap, FastSet};
pub use float::{approx_eq, exactly_eq, exactly_zero, COST_EPS};
pub use ids::{ChunkId, VideoId};
pub use metrics::TrafficCounter;
pub use range::{ByteRange, ChunkRange, ChunkSize, RangeError};
pub use request::Request;
pub use time::{DurationMs, Timestamp};
pub use workers::worker_count;
