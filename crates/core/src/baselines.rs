//! Related-work replacement policies (paper §3) as fill-everything
//! baselines: one ranked cache, three key rules.
//!
//! The paper's related-work discussion names the classic cache-replacement
//! families — LFU, recency-of-K-th-access schemes like LRU-K \[17\] and
//! Greedy-Dual \[7, 13\] — and argues that they attack the wrong problem
//! for a video CDN: "earlier works address the classic problem of cache
//! replacement, whereas in our case, it is about deciding between cache
//! replacement and redirection".
//!
//! [`RankedCache`] makes that argument measurable: it serves every request
//! (no redirects, like [`crate::LruCache`]) and differs from plain LRU only
//! in *which* chunk it evicts — the one with the smallest key on a
//! [`KeyedSet`] disk. Its key rule says what a touch keys a chunk by and
//! what an eviction updates: LFU, LRU-K or Greedy-Dual-Size-Popularity.
//! The `related_work_baselines` experiment shows the whole always-fill
//! family clusters together while the admission-controlled caches move
//! with `α_F2R`.
//!
//! Plain Greedy-Dual-Size \[7\] is deliberately omitted: with fixed-size
//! chunks and uniform fetch cost its priority `H = L + cost/size`
//! degenerates to (aged) LRU.

use vcdn_types::{
    ChunkId, ChunkSize, CostModel, Decision, FastMap, Request, ServeOutcome, Timestamp,
};

use crate::{
    ds::KeyedSet,
    policy::{CacheConfig, CachePolicy},
};

/// LFU's key layout: frequency dominates, recency (ms, scaled tiny) breaks
/// ties.
const RECENCY_SCALE: f64 = 1e-15;

/// LRU-K's offset for chunks with fewer than K accesses: 2^53, so their
/// keys (last access minus this) fall below every K-th-access time.
const SHORT_HISTORY_SHIFT: f64 = 9_007_199_254_740_992.0;

/// What distinguishes the ranked baselines: the key a touch (hit or fill)
/// gives a chunk, and the state an eviction drops. Per-chunk state lives
/// only while the chunk is cached, so a fill starts from none.
#[derive(Debug, Clone)]
enum Rule {
    /// LFU with recency tie-breaking: key `count + t·10⁻¹⁵`, so the chunk
    /// with the fewest accesses goes first, and of equal counts the least
    /// recently used. Counts persist only while the chunk is cached —
    /// "in-cache LFU", the standard practical variant.
    Lfu {
        /// Accesses per cached chunk.
        counts: FastMap<ChunkId, u64>,
    },
    /// LRU-K (O'Neil et al. \[17\]): key the K-th most recent access, so
    /// the chunk whose K-th access lies farthest in the past goes first;
    /// chunks with fewer than K accesses rank as infinitely old (classic
    /// "backward K-distance") and go least recently used first (the
    /// original's LRU subsidiary policy). The paper's xLRU popularity
    /// test "shares similarities with the LRU-2 algorithm"; this is the
    /// chunk-level original for comparison.
    LruK {
        /// History depth K (LRU-2 ⇒ 2).
        k: usize,
        /// Most recent accesses per cached chunk, newest first, length ≤ K.
        history: FastMap<ChunkId, Vec<Timestamp>>,
    },
    /// Greedy-Dual-Size-Popularity (Jin & Bestavros \[13\]), specialised to
    /// fixed-size chunks: key `H(x) = L + frequency(x)`, where `L` is the
    /// running inflation value (the priority of the last eviction). Unlike
    /// plain LFU, old popularity is implicitly aged out by the rising `L`.
    Gdsp {
        /// Accesses per cached chunk.
        counts: FastMap<ChunkId, u64>,
        /// Inflation value `L`: priority of the most recent eviction.
        inflation: f64,
    },
}

impl Rule {
    /// Records an access to `id` at `now` and returns the chunk's new key.
    fn touch(&mut self, id: ChunkId, now: Timestamp) -> f64 {
        match self {
            Rule::Lfu { counts } => {
                let count = counts.entry(id).or_insert(0);
                *count += 1;
                *count as f64 + now.as_millis() as f64 * RECENCY_SCALE
            }
            Rule::LruK { k, history } => {
                let hist = history.entry(id).or_default();
                hist.insert(0, now);
                hist.truncate(*k);
                match hist.get(*k - 1) {
                    Some(t) => t.as_millis() as f64,
                    // Fewer than K accesses: infinite backward K-distance,
                    // below every full history; among themselves least
                    // recently used first. Exact for any `now` below 2^53 ms.
                    None => now.as_millis() as f64 - SHORT_HISTORY_SHIFT,
                }
            }
            Rule::Gdsp { counts, inflation } => {
                let count = counts.entry(id).or_insert(0);
                *count += 1;
                // With uniform chunk size and fetch cost, H = L + frequency.
                *inflation + *count as f64
            }
        }
    }

    /// Drops the state of `victim`, evicted with `key`.
    fn evicted(&mut self, victim: &ChunkId, key: f64) {
        match self {
            Rule::Lfu { counts } => {
                counts.remove(victim);
            }
            Rule::LruK { history, .. } => {
                history.remove(victim);
            }
            Rule::Gdsp { counts, inflation } => {
                // GDS rule: L rises to the evicted priority.
                *inflation = inflation.max(key);
                counts.remove(victim);
            }
        }
    }
}

/// A fill-everything cache that evicts the chunk with the smallest key
/// under its key rule: LFU, LRU-K or GDSP.
///
/// # Examples
///
/// ```
/// use vcdn_core::{CacheConfig, CachePolicy, RankedCache};
/// use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
///
/// let k = ChunkSize::new(100).unwrap();
/// let mut cache = RankedCache::lfu(CacheConfig::new(4, k, CostModel::balanced()));
/// let r = Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(1));
/// assert!(cache.handle_request(&r).is_serve()); // LFU never redirects
/// assert_eq!(cache.name(), "lfu");
/// ```
#[derive(Debug, Clone)]
pub struct RankedCache {
    config: CacheConfig,
    /// Cached chunks by key; the smallest goes first.
    disk: KeyedSet<ChunkId>,
    rule: Rule,
    /// Reusable per-request buffer: the decide path allocates nothing.
    scratch_missing: Vec<ChunkId>,
}

impl RankedCache {
    /// Creates an empty cache under `rule`, which must hold no chunk
    /// state (the constructors below).
    fn new(config: CacheConfig, rule: Rule) -> Self {
        RankedCache {
            config,
            disk: KeyedSet::new(),
            rule,
            scratch_missing: Vec::new(),
        }
    }

    /// An empty in-cache LFU: evicts the chunk with the fewest accesses
    /// (ties: least recently used first).
    pub fn lfu(config: CacheConfig) -> Self {
        let counts = FastMap::default();
        Self::new(config, Rule::Lfu { counts })
    }

    /// An empty LRU-K (O'Neil et al. \[17\]) with history depth `k`:
    /// evicts the chunk whose `k`-th most recent access lies farthest in
    /// the past.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn lru_k(config: CacheConfig, k: usize) -> Self {
        assert!(k > 0, "history depth must be > 0");
        let history = FastMap::default();
        Self::new(config, Rule::LruK { k, history })
    }

    /// The classic LRU-2.
    pub fn lru2(config: CacheConfig) -> Self {
        Self::lru_k(config, 2)
    }

    /// An empty Greedy-Dual-Size-Popularity cache (Jin & Bestavros
    /// \[13\]): evicts the smallest `H = L + frequency`.
    pub fn gdsp(config: CacheConfig) -> Self {
        let (counts, inflation) = (FastMap::default(), 0.0);
        Self::new(config, Rule::Gdsp { counts, inflation })
    }
}

impl CachePolicy for RankedCache {
    fn handle_request(&mut self, request: &Request) -> Decision {
        let (now, capacity) = (request.t, self.config.disk_chunks);
        let mut hit_chunks = 0u64;
        let mut missing = std::mem::take(&mut self.scratch_missing);
        missing.clear();
        for c in request.chunk_range(self.config.chunk_size).iter() {
            let id = ChunkId::new(request.video, c);
            if self.disk.contains(&id) {
                hit_chunks += 1;
                let key = self.rule.touch(id, now);
                self.disk.insert(id, key);
            } else {
                missing.push(id);
            }
        }
        // A request larger than the whole disk keeps only its tail.
        let mut evicted = Vec::new();
        let keep_from = missing.len().saturating_sub(capacity as usize);
        for &id in &missing[keep_from..] {
            if self.disk.len() as u64 >= capacity {
                if let Some((victim, key)) = self.disk.pop_smallest() {
                    self.rule.evicted(&victim, key);
                    evicted.push(victim);
                }
            }
            let key = self.rule.touch(id, now);
            self.disk.insert(id, key);
        }
        let filled_chunks = missing.len() as u64;
        self.scratch_missing = missing;
        Decision::Serve(ServeOutcome {
            hit_chunks,
            filled_chunks,
            evicted,
        })
    }

    fn name(&self) -> &'static str {
        match self.rule {
            Rule::Lfu { .. } => "lfu",
            Rule::LruK { .. } => "lru-k",
            Rule::Gdsp { .. } => "gdsp",
        }
    }

    fn chunk_size(&self) -> ChunkSize {
        self.config.chunk_size
    }

    fn costs(&self) -> CostModel {
        self.config.costs
    }

    fn disk_used_chunks(&self) -> u64 {
        self.disk.len() as u64
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.config.disk_chunks
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.disk.contains(&chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_types::{ByteRange, VideoId};

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn cfg(disk: u64) -> CacheConfig {
        CacheConfig::new(disk, ChunkSize::new(100).unwrap(), CostModel::balanced())
    }

    fn count_of(c: &RankedCache, chunk: ChunkId) -> Option<u64> {
        let Rule::Lfu { counts } = &c.rule else {
            panic!("an LFU rule")
        };
        counts.get(&chunk).copied()
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut c = RankedCache::lfu(cfg(2));
        c.handle_request(&req(0, 0, 99, 1));
        c.handle_request(&req(1, 0, 99, 2));
        // Video 0 accessed twice more.
        c.handle_request(&req(0, 0, 99, 3));
        c.handle_request(&req(0, 0, 99, 4));
        assert_eq!(count_of(&c, ChunkId::new(VideoId(0), 0)), Some(3));
        // New fill must evict video 1 (count 1 < 3).
        let d = c.handle_request(&req(9, 0, 99, 5));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(1), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let mut c = RankedCache::lfu(cfg(2));
        c.handle_request(&req(0, 0, 99, 1)); // count 1, older
        c.handle_request(&req(1, 0, 99, 2)); // count 1, newer
        let d = c.handle_request(&req(9, 0, 99, 3));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(0), 0)]);
    }

    #[test]
    fn lfu_counts_reset_on_eviction() {
        let mut c = RankedCache::lfu(cfg(1));
        for t in 1..10 {
            c.handle_request(&req(0, 0, 99, t));
        }
        // Evict video 0 by filling video 1, then re-fill video 0: its old
        // count must not resurrect.
        c.handle_request(&req(1, 0, 99, 20));
        c.handle_request(&req(0, 0, 99, 30));
        assert_eq!(count_of(&c, ChunkId::new(VideoId(0), 0)), Some(1));
    }

    #[test]
    fn lfu_never_redirects_and_respects_capacity() {
        let mut c = RankedCache::lfu(cfg(3));
        for i in 0..40 {
            assert!(c.handle_request(&req(i, 0, 299, i + 1)).is_serve());
            assert!(c.disk_used_chunks() <= 3);
        }
    }

    #[test]
    fn lru2_prefers_chunks_with_two_accesses() {
        let mut c = RankedCache::lru2(cfg(2));
        c.handle_request(&req(0, 0, 99, 1));
        c.handle_request(&req(0, 0, 99, 2)); // v0 has 2 accesses
        c.handle_request(&req(1, 0, 99, 3)); // v1 has 1 access
                                             // v1 has infinite backward 2-distance: evicted first.
        let d = c.handle_request(&req(9, 0, 99, 4));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(1), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn lru2_evicts_once_seen_chunks_oldest_first() {
        let mut c = RankedCache::lru2(cfg(2));
        c.handle_request(&req(5, 0, 99, 1));
        c.handle_request(&req(2, 0, 99, 2));
        // Both seen once: the least recently used goes, not the lower id.
        let d = c.handle_request(&req(9, 0, 99, 3));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(5), 0)]);
    }

    #[test]
    fn lru2_orders_by_second_most_recent_access() {
        let mut c = RankedCache::lru2(cfg(2));
        // v0: accesses at 1, 10 (2nd-recent = 1).
        c.handle_request(&req(0, 0, 99, 1));
        c.handle_request(&req(0, 0, 99, 10));
        // v1: accesses at 5, 6 (2nd-recent = 5 > 1).
        c.handle_request(&req(1, 0, 99, 5));
        c.handle_request(&req(1, 0, 99, 6));
        // Both have full history; v0's 2nd-recent access is older.
        let d = c.handle_request(&req(9, 0, 99, 20));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(0), 0)]);
    }

    #[test]
    fn lruk_history_depth_respected() {
        let mut c = RankedCache::lru_k(cfg(4), 3);
        for t in 1..=5 {
            c.handle_request(&req(0, 0, 99, t));
        }
        // History holds at most 3 entries.
        let Rule::LruK { history, .. } = &c.rule else {
            panic!("an LRU-K rule")
        };
        assert_eq!(
            history[&ChunkId::new(VideoId(0), 0)],
            vec![Timestamp(5), Timestamp(4), Timestamp(3)]
        );
    }

    #[test]
    #[should_panic(expected = "history depth")]
    fn zero_history_rejected() {
        let _ = RankedCache::lru_k(cfg(1), 0);
    }

    #[test]
    fn lruk_never_redirects_and_respects_capacity() {
        let mut c = RankedCache::lru2(cfg(3));
        for i in 0..40 {
            assert!(c.handle_request(&req(i % 7, 0, 299, i + 1)).is_serve());
            assert!(c.disk_used_chunks() <= 3);
        }
    }

    #[test]
    fn oversized_requests_keep_tails() {
        let mut lfu = RankedCache::lfu(cfg(2));
        let d = lfu.handle_request(&req(1, 0, 499, 1));
        assert_eq!(d.serve_outcome().unwrap().filled_chunks, 5);
        assert_eq!(lfu.disk_used_chunks(), 2);
        let mut lruk = RankedCache::lru2(cfg(2));
        let d = lruk.handle_request(&req(1, 0, 499, 1));
        assert_eq!(d.serve_outcome().unwrap().filled_chunks, 5);
        assert_eq!(lruk.disk_used_chunks(), 2);
    }
}

#[cfg(test)]
mod gdsp_tests {
    use super::*;
    use vcdn_types::{ByteRange, VideoId};

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn cfg(disk: u64) -> CacheConfig {
        CacheConfig::new(disk, ChunkSize::new(100).unwrap(), CostModel::balanced())
    }

    fn inflation(c: &RankedCache) -> f64 {
        let Rule::Gdsp { inflation, .. } = c.rule else {
            panic!("a GDSP rule")
        };
        inflation
    }

    #[test]
    fn frequent_chunks_survive() {
        let mut c = RankedCache::gdsp(cfg(2));
        c.handle_request(&req(0, 0, 99, 1));
        c.handle_request(&req(1, 0, 99, 2));
        for t in 3..8 {
            c.handle_request(&req(0, 0, 99, t)); // v0 heats up
        }
        let d = c.handle_request(&req(9, 0, 99, 10));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(1), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn inflation_ages_out_stale_frequency() {
        // A once-hot chunk must eventually be evictable as L rises past
        // its stale priority — the property plain LFU lacks.
        let mut c = RankedCache::gdsp(cfg(2));
        for t in 1..20 {
            c.handle_request(&req(0, 0, 99, t)); // H(v0) = 19
        }
        // Churn many one-shot videos through the other slot: each eviction
        // raises L by ~1 until newcomers outrank the stale hot chunk.
        let mut evicted_v0 = false;
        for v in 1..60 {
            let d = c.handle_request(&req(v, 0, 99, 100 + v));
            if let Some(o) = d.serve_outcome() {
                evicted_v0 |= o.evicted.contains(&ChunkId::new(VideoId(0), 0));
            }
        }
        assert!(evicted_v0, "inflation never aged out the stale chunk");
        assert!(inflation(&c) > 0.0);
    }

    #[test]
    fn never_redirects_and_respects_capacity() {
        let mut c = RankedCache::gdsp(cfg(3));
        for i in 0..50 {
            assert!(c.handle_request(&req(i % 9, 0, 299, i + 1)).is_serve());
            assert!(c.disk_used_chunks() <= 3);
        }
    }

    #[test]
    fn inflation_is_monotone() {
        let mut c = RankedCache::gdsp(cfg(1));
        let mut last = 0.0;
        for v in 0..30 {
            c.handle_request(&req(v, 0, 99, v + 1));
            assert!(inflation(&c) >= last);
            last = inflation(&c);
        }
    }
}
