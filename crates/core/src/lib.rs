//! Video-CDN caching algorithms: the primary contribution of the paper
//! *"Caching in Video CDNs: Building Strong Lines of Defense"*
//! (EuroSys 2014).
//!
//! Each cache server in the modelled CDN independently decides, per
//! request, between **serving** it (cache-filling missing chunks) and
//! **redirecting** it to an alternative server, under a configurable
//! ingress-to-redirect preference `α_F2R` ([`vcdn_types::CostModel`]).
//! This crate implements the paper's four algorithms plus context
//! baselines:
//!
//! | Type | Paper § | Idea |
//! |---|---|---|
//! | [`LruCache`] | — | plain chunk LRU, fills every miss (baseline) |
//! | [`RankedCache`] | §3 | LFU, LRU-K or GDSP: fills every miss, evicts the smallest key (related-work baselines) |
//! | [`XlruCache`] | §5 | two LRU structures + the Eq. 5 popularity test |
//! | [`CafeCache`] | §6 | per-chunk EWMA IATs, virtual-timestamp ordering, expected-cost admission (Eqs. 6–9) |
//! | [`PsychicCache`] | §8 | offline greedy with future-request lists (Eqs. 13–14), Belady eviction |
//! | [`optimal`] | §7 | LP-relaxed offline optimum — an efficiency upper bound |
//!
//! All online caches implement [`CachePolicy`] and are driven by the
//! replay engine in `vcdn-sim`.
//!
//! # Examples
//!
//! ```
//! use vcdn_core::{CachePolicy, CafeCache, CafeConfig};
//! use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
//!
//! let costs = CostModel::from_alpha(2.0).unwrap(); // ingress-constrained
//! let mut cache = CafeCache::new(CafeConfig::new(1024, ChunkSize::DEFAULT, costs));
//! let r = Request::new(
//!     VideoId(7),
//!     ByteRange::new(0, 4_000_000).unwrap(),
//!     Timestamp(1_000),
//! );
//! let decision = cache.handle_request(&r);
//! assert!(decision.is_serve() || decision.is_redirect());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Policies run inside million-request replays: no panic path in library code
// (unit tests are exempt through clippy.toml; `assert!` stays allowed).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod baselines;
pub mod cafe;
pub mod ds;
pub mod lru;
pub mod optimal;
pub mod policy;
pub mod psychic;
mod snapshot;
pub mod xlru;

pub use baselines::RankedCache;
pub use cafe::{CafeCache, CafeConfig, WindowPolicy};
pub use lru::LruCache;
pub use optimal::{lp_bound_paper, lp_bound_reduced, OptimalBound};
pub use policy::{CacheConfig, CachePolicy};
pub use psychic::{PsychicCache, PsychicConfig};
#[doc(hidden)]
pub use snapshot::{CafeSnapshot, SnapshotError, XlruSnapshot};
pub use vcdn_obs::{DecisionDetail, PolicyObs};
pub use xlru::XlruCache;
