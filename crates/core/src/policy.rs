//! The interface every cache algorithm implements.

use vcdn_obs::{DecisionDetail, PolicyObs};
use vcdn_types::{ChunkId, ChunkSize, CostModel, Decision, Request};

/// A per-server video cache: decides serve-vs-redirect for each request and
/// manages its own disk contents (paper, Problem 1).
///
/// Implementations must uphold:
///
/// * **Full-range service** — a `Serve` decision covers every requested
///   chunk (hits plus fills equal the request's chunk count).
/// * **Capacity** — the number of cached chunks never exceeds
///   [`CachePolicy::disk_capacity_chunks`].
/// * **Time monotonicity** — requests arrive with non-decreasing
///   timestamps (the replay engine guarantees this).
///
/// A policy decides and records nothing: whoever drives it sees every
/// decision and the occupancy after it, and records them — the replay's
/// telemetry observer and each engine shard's observer own the policy
/// metric family. So a wrapper policy forwards the seven required methods
/// (and [`CachePolicy::decision_detail`] if it wants its inner policy's
/// cost terms traced) and nothing else.
///
/// The `Send` bound lets experiment harnesses replay several policies on
/// worker threads; policies own all their state, so this is free.
pub trait CachePolicy: Send {
    /// Handles one request: serve (cache-filling any missing chunks,
    /// evicting as needed) or redirect.
    fn handle_request(&mut self, request: &Request) -> Decision;

    /// Short algorithm name ("lru", "xlru", "cafe", "psychic").
    fn name(&self) -> &'static str;

    /// The chunk size `K` this cache was configured with.
    fn chunk_size(&self) -> ChunkSize;

    /// The fill/redirect cost model (`α_F2R`).
    fn costs(&self) -> CostModel;

    /// Chunks currently stored on disk.
    fn disk_used_chunks(&self) -> u64;

    /// Total disk capacity in chunks.
    fn disk_capacity_chunks(&self) -> u64;

    /// Whether a specific chunk is currently cached (primarily for tests
    /// and invariant checks).
    fn contains_chunk(&self, chunk: ChunkId) -> bool;

    /// Ignored: no policy records its own decisions (see the trait docs),
    /// and nothing in the workspace calls this. It stays only because the
    /// frozen benchmark crate still forwards and calls it; ROADMAP item 1
    /// deletes it together with that crate's `Noop` driver.
    fn attach_obs(&mut self, obs: PolicyObs) {
        let _ = obs;
    }

    /// The cost/age terms behind the most recent
    /// [`CachePolicy::handle_request`] decision, for decision tracing
    /// (Eq. 5 / Eqs. 6–7 / Eqs. 13–14). Policies without a cost
    /// comparison return the empty default.
    fn decision_detail(&self) -> DecisionDetail {
        DecisionDetail::default()
    }
}

/// Configuration shared by every cache implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Disk capacity in chunks (`D_c`).
    pub disk_chunks: u64,
    /// Chunk size `K`.
    pub chunk_size: ChunkSize,
    /// Fill/redirect cost model.
    pub costs: CostModel,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `disk_chunks == 0`.
    pub fn new(disk_chunks: u64, chunk_size: ChunkSize, costs: CostModel) -> Self {
        assert!(disk_chunks > 0, "disk must hold at least one chunk");
        CacheConfig {
            disk_chunks,
            chunk_size,
            costs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructor() {
        let c = CacheConfig::new(10, ChunkSize::DEFAULT, CostModel::balanced());
        assert_eq!(c.disk_chunks, 10);
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_disk_rejected() {
        CacheConfig::new(0, ChunkSize::DEFAULT, CostModel::balanced());
    }
}
