//! Baseline chunk-level LRU cache that cache-fills every miss.
//!
//! This is the "standard caching solution" the paper argues is insufficient
//! (§2): it never redirects, so its redirect ratio is 0 and its ingress is
//! maximal. It exists as the context baseline for the experiments and as
//! the simplest reference implementation of the [`CachePolicy`] contract.

use vcdn_obs::DecisionDetail;
use vcdn_types::{ChunkId, ChunkSize, CostModel, Decision, DurationMs, Request, Timestamp};

use crate::{
    ds::{assert_chunk_index, ChunkLru},
    policy::{CacheConfig, CachePolicy},
};

/// Plain LRU disk cache: serve everything, fill every miss, evict the least
/// recently used chunks.
///
/// # Examples
///
/// ```
/// use vcdn_core::{CacheConfig, CachePolicy, LruCache};
/// use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
///
/// let k = ChunkSize::new(100).unwrap();
/// let mut cache = LruCache::new(CacheConfig::new(4, k, CostModel::balanced()));
/// let r = Request::new(VideoId(1), ByteRange::new(0, 199).unwrap(), Timestamp(1));
/// let d = cache.handle_request(&r);
/// assert!(d.is_serve()); // LRU never redirects
/// assert_eq!(cache.disk_used_chunks(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    config: CacheConfig,
    disk: ChunkLru,
    last_detail: DecisionDetail,
    /// Reusable per-request buffer of [`ChunkLru::serve`] (the decide path
    /// allocates nothing): chunk numbers of the request's uncached chunks.
    scratch_missing: Vec<u32>,
}

impl LruCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        LruCache {
            config,
            disk: ChunkLru::new(),
            last_detail: DecisionDetail::default(),
            scratch_missing: Vec::new(),
        }
    }

    /// Checks the disk: directory and list ([`ChunkLru::audit`]; tests).
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        self.disk.audit();
    }

    /// Disk cache age: now minus the oldest chunk's last access.
    pub fn cache_age(&self, now: Timestamp) -> DurationMs {
        self.disk.age(now)
    }
}

impl CachePolicy for LruCache {
    /// # Panics
    ///
    /// Panics if the request reaches chunk index `2^20`
    /// ([`ChunkId::INDEX_BITS`]; 2 TiB into a video at 2 MiB chunks) or
    /// beyond: the disk directory is a dense per-video run indexed by
    /// chunk number, and the bound keeps one stray offset from sizing it.
    fn handle_request(&mut self, request: &Request) -> Decision {
        let range = request.chunk_range(self.config.chunk_size);
        assert_chunk_index(range.end);
        self.last_detail = DecisionDetail::age_only(self.cache_age(request.t).as_millis() as f64);
        let (disk, missing) = (self.config.disk_chunks, &mut self.scratch_missing);
        Decision::Serve(
            self.disk
                .serve(request.video, range, request.t, disk, missing),
        )
    }

    fn name(&self) -> &'static str {
        "lru"
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
        self.disk.contains(chunk)
    }

    fn decision_detail(&self) -> DecisionDetail {
        self.last_detail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ds::MAX_CHUNK_INDEX;
    use vcdn_types::{ByteRange, VideoId};

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn cache(disk: u64) -> LruCache {
        LruCache::new(CacheConfig::new(
            disk,
            ChunkSize::new(100).unwrap(),
            CostModel::balanced(),
        ))
    }

    #[test]
    fn fills_on_miss_hits_on_repeat() {
        let mut c = cache(10);
        let d1 = c.handle_request(&req(1, 0, 299, 1));
        let o1 = d1.serve_outcome().unwrap();
        assert_eq!((o1.hit_chunks, o1.filled_chunks), (0, 3));
        let d2 = c.handle_request(&req(1, 0, 299, 2));
        let o2 = d2.serve_outcome().unwrap();
        assert_eq!((o2.hit_chunks, o2.filled_chunks), (3, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = cache(2);
        c.handle_request(&req(1, 0, 99, 1)); // chunk v1#0
        c.handle_request(&req(2, 0, 99, 2)); // chunk v2#0
        c.handle_request(&req(1, 0, 99, 3)); // touch v1#0
        let d = c.handle_request(&req(3, 0, 99, 4)); // must evict v2#0
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(2), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), 0)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(3), 0)));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = cache(3);
        for i in 0..20 {
            c.handle_request(&req(i, 0, 499, i + 1));
            assert!(c.disk_used_chunks() <= 3);
        }
    }

    #[test]
    fn oversized_request_served_but_only_tail_kept() {
        let mut c = cache(2);
        let d = c.handle_request(&req(1, 0, 499, 1)); // 5 chunks, disk 2
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.filled_chunks, 5);
        assert_eq!(c.disk_used_chunks(), 2);
        // The final two chunks remain.
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), 3)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), 4)));
        assert!(!c.contains_chunk(ChunkId::new(VideoId(1), 0)));
    }

    #[test]
    #[should_panic(expected = "chunk index 1048576 is beyond the 1048576-chunk bound of a video")]
    fn chunk_index_past_the_bound_is_refused() {
        let mut c = cache(2);
        // Chunk size 100: byte 104_857_600 is the first of chunk 2^20.
        c.handle_request(&req(1, 104_857_600, 104_857_600, 1));
    }

    #[test]
    fn last_chunk_index_inside_the_bound_is_served() {
        let mut c = cache(2);
        c.handle_request(&req(1, 104_857_599, 104_857_599, 1));
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), MAX_CHUNK_INDEX - 1)));
    }

    #[test]
    fn partial_hit_fills_only_missing() {
        let mut c = cache(10);
        c.handle_request(&req(1, 0, 199, 1)); // chunks 0,1
        let d = c.handle_request(&req(1, 100, 399, 2)); // chunks 1,2,3
        let o = d.serve_outcome().unwrap();
        assert_eq!((o.hit_chunks, o.filled_chunks), (1, 2));
    }

    #[test]
    fn cache_age_tracks_oldest() {
        let mut c = cache(10);
        assert_eq!(c.cache_age(Timestamp(5)), DurationMs::ZERO);
        c.handle_request(&req(1, 0, 99, 10));
        c.handle_request(&req(2, 0, 99, 30));
        assert_eq!(c.cache_age(Timestamp(40)), DurationMs(30));
    }

    #[test]
    fn never_redirects() {
        let mut c = cache(1);
        for i in 0..50 {
            assert!(c.handle_request(&req(i, 0, 999, i + 1)).is_serve());
        }
    }
}
