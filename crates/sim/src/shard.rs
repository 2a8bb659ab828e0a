//! Hash-mod bucketing over co-located servers (paper §2, footnote 2).
//!
//! The paper rules out content-hash *request mapping* across the CDN, but
//! explicitly recommends bucketizing the file-ID space over **co-located**
//! servers: "a feasible (and recommended) practice for dividing the file
//! ID space over co-located servers to balance load and minimize
//! co-located duplicates".
//!
//! [`ShardMap`] implements that practice: video IDs hash into a fixed
//! bucket space, buckets map to the servers of one location by modulo.
//! [`replay_colocated`] replays one location's trace through its servers
//! under either sharded or random per-session assignment, measuring
//! exactly the two quantities the footnote names: per-server load balance
//! and co-located duplicate chunks.

use vcdn_core::CachePolicy;
use vcdn_trace::Trace;
use vcdn_types::float::exactly_zero;
use vcdn_types::{ChunkId, TrafficCounter, VideoId};

use crate::replay::{Kernel, StreamTraffic, STEADY_AFTER};

/// Maps video IDs to one of `servers` co-located caches through a
/// fixed-size bucket space.
///
/// The indirection through buckets (rather than `video % servers`) is what
/// the footnote describes: bucket IDs are stable "aggregated file ID
/// groups", so adding a server remaps whole buckets instead of rehashing
/// every file.
///
/// # Examples
///
/// ```
/// use vcdn_sim::shard::ShardMap;
/// use vcdn_types::VideoId;
///
/// let m = ShardMap::new(4, 1024);
/// let s = m.server_for(VideoId(42));
/// assert!(s < 4);
/// assert_eq!(s, m.server_for(VideoId(42))); // stable
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    servers: usize,
    buckets: u64,
}

impl ShardMap {
    /// Creates a map over `servers` co-located caches with `buckets`
    /// hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0` or `buckets == 0`.
    pub fn new(servers: usize, buckets: u64) -> Self {
        assert!(servers > 0, "need at least one server");
        assert!(buckets > 0, "need at least one bucket");
        ShardMap { servers, buckets }
    }

    /// The bucket a video falls into (SplitMix64-style mixing so dense
    /// video IDs spread evenly).
    pub fn bucket_of(&self, video: VideoId) -> u64 {
        let mut z = video.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % self.buckets
    }

    /// The co-located server serving a video: `bucket mod servers`.
    pub fn server_for(&self, video: VideoId) -> usize {
        (self.bucket_of(video) % self.servers as u64) as usize
    }

    /// Number of servers.
    pub fn servers(&self) -> usize {
        self.servers
    }
}

/// How requests are assigned to the co-located servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assignment {
    /// Hash-mod bucketing per the footnote (content-aware *within* the
    /// location only).
    Sharded,
    /// Content-oblivious spreading (round-robin per request) — the
    /// load-balancer default the footnote improves upon.
    RoundRobin,
}

/// Result of a co-located replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocatedReport {
    /// Per-server traffic.
    pub servers: Vec<TrafficCounter>,
    /// Distinct chunks stored across all servers at end of replay.
    pub distinct_cached_chunks: u64,
    /// Total chunks stored across all servers (≥ distinct; the surplus is
    /// co-located duplication).
    pub total_cached_chunks: u64,
}

impl ColocatedReport {
    /// Duplicate chunks: copies beyond the first of each distinct chunk.
    pub fn duplicate_chunks(&self) -> u64 {
        self.total_cached_chunks - self.distinct_cached_chunks
    }

    /// Load imbalance: max over mean of per-server requested bytes
    /// (1.0 = perfectly balanced).
    pub fn load_imbalance(&self) -> f64 {
        let loads: Vec<u64> = self
            .servers
            .iter()
            .map(TrafficCounter::requested_bytes)
            .collect();
        let max = loads.iter().copied().max().unwrap_or(0) as f64;
        let total = self
            .servers
            .iter()
            .fold(TrafficCounter::default(), |a, &s| a + s);
        let mean = total.requested_bytes() as f64 / loads.len() as f64;
        if exactly_zero(mean) {
            1.0
        } else {
            max / mean
        }
    }
}

/// Replays `trace` through a group of co-located caches under the given
/// assignment policy. The caches' final contents are inspected through
/// [`CachePolicy::contains_chunk`] over every requested chunk to count
/// co-located duplicates.
///
/// # Panics
///
/// Panics if `caches` is empty or chunk sizes differ, or if a policy
/// violates its serve contract (a `Serve` must cover the full request and
/// stay within capacity).
pub fn replay_colocated(
    trace: &Trace,
    caches: &mut [Box<dyn CachePolicy>],
    assignment: Assignment,
) -> ColocatedReport {
    assert!(!caches.is_empty(), "need at least one cache");
    let k = caches[0].chunk_size();
    for c in caches.iter() {
        assert_eq!(c.chunk_size(), k, "co-located chunk size mismatch");
    }
    let map = ShardMap::new(caches.len(), 4096);
    let kernel = Kernel::for_trace(trace, k, STEADY_AFTER, true);
    let mut servers = vec![StreamTraffic::default(); caches.len()];
    let mut rr = 0usize;
    for (seq, request) in trace.requests.iter().enumerate() {
        let i = match assignment {
            Assignment::Sharded => map.server_for(request.video),
            Assignment::RoundRobin => {
                rr = (rr + 1) % caches.len();
                rr
            }
        };
        let (cache, traffic) = (caches[i].as_mut(), &mut servers[i]);
        kernel.serve_one(cache, request, seq as u64, traffic, &mut ());
    }
    // Count duplicates over the union of requested chunks.
    let mut requested: vcdn_types::FastSet<ChunkId> = vcdn_types::FastSet::default();
    let mut distinct = 0u64;
    let mut total = 0u64;
    for r in &trace.requests {
        for c in r.chunk_range(k).iter() {
            let chunk = ChunkId::new(r.video, c);
            if !requested.insert(chunk) {
                continue;
            }
            let copies = caches.iter().filter(|c| c.contains_chunk(chunk)).count() as u64;
            if copies > 0 {
                distinct += 1;
                total += copies;
            }
        }
    }
    ColocatedReport {
        servers: servers.iter().map(|s| s.overall).collect(),
        distinct_cached_chunks: distinct,
        total_cached_chunks: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_core::{CacheConfig, CachePolicy, LruCache, XlruCache};
    use vcdn_trace::{ServerProfile, TraceGenerator};
    use vcdn_types::{ChunkSize, CostModel, DurationMs};

    fn k() -> ChunkSize {
        ChunkSize::DEFAULT
    }

    fn caches(n: usize) -> Vec<Box<dyn CachePolicy>> {
        (0..n)
            .map(|_| {
                Box::new(LruCache::new(CacheConfig::new(
                    128,
                    k(),
                    CostModel::balanced(),
                ))) as Box<dyn CachePolicy>
            })
            .collect()
    }

    fn trace() -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), 61).generate(DurationMs::from_days(1))
    }

    #[test]
    fn shard_map_is_stable_and_in_range() {
        let m = ShardMap::new(5, 1000);
        for v in 0..500 {
            let s = m.server_for(VideoId(v));
            assert!(s < 5);
            assert_eq!(s, m.server_for(VideoId(v)));
        }
    }

    #[test]
    fn buckets_spread_dense_ids_evenly() {
        let m = ShardMap::new(4, 4096);
        let mut counts = [0u32; 4];
        for v in 0..40_000 {
            counts[m.server_for(VideoId(v))] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (8_000..12_000).contains(&c),
                "server {i} got {c} of 40000 — poor spread"
            );
        }
    }

    #[test]
    fn sharding_eliminates_colocated_duplicates() {
        let t = trace();
        let mut sharded = caches(3);
        let rep_sharded = replay_colocated(&t, &mut sharded, Assignment::Sharded);
        let mut spread = caches(3);
        let rep_spread = replay_colocated(&t, &mut spread, Assignment::RoundRobin);
        // Sharded: every video lives on exactly one server — no duplicates.
        assert_eq!(rep_sharded.duplicate_chunks(), 0);
        // Round-robin: popular content gets cached on several servers.
        assert!(
            rep_spread.duplicate_chunks() > 0,
            "round-robin should duplicate popular chunks"
        );
    }

    #[test]
    fn accounting_covers_the_whole_trace() {
        let t = trace();
        let mut cs = caches(4);
        let rep = replay_colocated(&t, &mut cs, Assignment::Sharded);
        let requested: u64 = t
            .requests
            .iter()
            .map(|r| r.chunk_len(k()) * k().bytes())
            .sum();
        let seen: u64 = rep
            .servers
            .iter()
            .map(TrafficCounter::requested_bytes)
            .sum();
        assert_eq!(seen, requested);
        assert!(rep.load_imbalance() >= 1.0);
    }

    #[test]
    fn works_with_admission_policies_too() {
        let t = trace();
        let mut cs: Vec<Box<dyn CachePolicy>> = (0..2)
            .map(|_| {
                Box::new(XlruCache::new(CacheConfig::new(
                    64,
                    k(),
                    CostModel::from_alpha(2.0).expect("valid"),
                ))) as Box<dyn CachePolicy>
            })
            .collect();
        let rep = replay_colocated(&t, &mut cs, Assignment::Sharded);
        assert_eq!(rep.duplicate_chunks(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one cache")]
    fn empty_cache_group_rejected() {
        replay_colocated(&trace(), &mut [], Assignment::Sharded);
    }
}
