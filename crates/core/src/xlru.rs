//! The xLRU cache (paper §5): two LRU structures and the Eq. 5 test.
//!
//! A *video popularity tracker* records the last access time of every
//! video; a chunk-level *disk cache* holds content under LRU replacement.
//! A request is redirected when its video was never seen before, or when
//! the video's inter-arrival time scaled by the fill-to-redirect preference
//! exceeds the disk's cache age (Eq. 5):
//!
//! ```text
//! (t_now − t_last) · α_F2R  >  CacheAge   ⇒   REDIRECT
//! ```
//!
//! The warm-up phase (disk not full) is "not shown" in the paper's
//! pseudocode; we admit every request while free space remains (popularity
//! state still updates), for all caches alike.

use vcdn_obs::DecisionDetail;
use vcdn_types::{
    ChunkId, ChunkSize, CostModel, Decision, DurationMs, Request, ServeOutcome, Timestamp, VideoId,
};

use crate::{
    ds::{assert_chunk_index, ChunkLru, IndexedLruList},
    policy::{CacheConfig, CachePolicy},
};

/// How many requests between popularity-tracker garbage sweeps.
const CLEANUP_INTERVAL: u64 = 1024;

/// LRU-based video cache with the Eq. 5 fill-vs-redirect test.
///
/// # Examples
///
/// ```
/// use vcdn_core::{CacheConfig, CachePolicy, XlruCache};
/// use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
///
/// let k = ChunkSize::new(100).unwrap();
/// let mut cache = XlruCache::new(CacheConfig::new(2, k, CostModel::balanced()));
/// // Warm-up: admitted despite being first-seen.
/// let r = Request::new(VideoId(1), ByteRange::new(0, 199).unwrap(), Timestamp(1));
/// assert!(cache.handle_request(&r).is_serve());
/// // Disk now full: a first-seen video fails the popularity test.
/// let r = Request::new(VideoId(2), ByteRange::new(0, 99).unwrap(), Timestamp(2));
/// assert!(cache.handle_request(&r).is_redirect());
/// ```
#[derive(Debug, Clone)]
pub struct XlruCache {
    config: CacheConfig,
    /// Video popularity tracker: video → last access time.
    tracker: IndexedLruList<VideoId>,
    /// Disk cache: chunk → last access time, LRU-ordered.
    disk: ChunkLru,
    handled: u64,
    last_detail: DecisionDetail,
    /// Reusable per-request buffers (the decide path allocates nothing):
    /// disk handles of the request's cached chunks, chunk numbers of the
    /// others.
    scratch_present: Vec<u32>,
    scratch_missing: Vec<u32>,
}

impl XlruCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        XlruCache {
            config,
            tracker: IndexedLruList::new(),
            disk: ChunkLru::new(),
            handled: 0,
            last_detail: DecisionDetail::default(),
            scratch_present: Vec::new(),
            scratch_missing: Vec::new(),
        }
    }

    /// Disk cache age at `now`: how long ago the least recently used chunk
    /// on disk was accessed (`IAT₀` in the paper's reading).
    pub fn cache_age(&self, now: Timestamp) -> DurationMs {
        match self.disk.oldest() {
            Some((_, t)) => now - t,
            None => DurationMs::ZERO,
        }
    }

    /// Entries currently in the popularity tracker (for tests).
    pub fn tracker_len(&self) -> usize {
        self.tracker.len()
    }

    /// Checks the disk ([`ChunkLru::audit`]: directory and list) and that
    /// the tracker lists each video it holds once, newest first (tests).
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        self.disk.audit();
        let listed = self
            .tracker
            .iter()
            .filter(|(v, _)| self.tracker.contains(v));
        assert_eq!(listed.count(), self.tracker.len(), "tracker index");
        let order = self.tracker.iter().is_sorted_by(|a, b| a.1 >= b.1);
        assert!(order, "tracker order");
    }

    /// Eq. 5: should the request be redirected given the video's last
    /// access `prev` and the current cache age?
    fn fails_popularity_test(&self, prev: Option<Timestamp>, now: Timestamp) -> bool {
        let Some(t) = prev else {
            return true; // first time seeing a request for the file
        };
        let iat_ms = (now - t).as_millis() as f64;
        let age_ms = self.cache_age(now).as_millis() as f64;
        iat_ms * self.config.costs.alpha() > age_ms
    }

    /// The cache configuration (snapshot support).
    pub(crate) fn config_ref(&self) -> &CacheConfig {
        &self.config
    }

    /// Disk entries oldest-first (snapshot support).
    pub(crate) fn disk_oldest_first(&self) -> Vec<(ChunkId, Timestamp)> {
        let mut v: Vec<(ChunkId, Timestamp)> = self.disk.iter().collect();
        v.reverse();
        v
    }

    /// Tracker entries oldest-first (snapshot support).
    pub(crate) fn tracker_oldest_first(&self) -> Vec<(VideoId, Timestamp)> {
        let mut v: Vec<(VideoId, Timestamp)> =
            self.tracker.iter().map(|(id, t)| (*id, t)).collect();
        v.reverse();
        v
    }

    /// Requests handled so far (snapshot support).
    pub(crate) fn handled_count(&self) -> u64 {
        self.handled
    }

    /// Rebuilds a cache from persisted parts; entries must be oldest-first,
    /// without duplicates and inside the chunk-index bound (validated by
    /// the snapshot layer).
    pub(crate) fn from_parts(
        config: CacheConfig,
        disk: &[(ChunkId, Timestamp)],
        tracker: &[(VideoId, Timestamp)],
        handled: u64,
    ) -> XlruCache {
        let mut cache = XlruCache::new(config);
        // Interleave by time so the monotone-touch invariant holds across
        // both structures; each structure's own order is preserved.
        let (mut di, mut ti) = (0usize, 0usize);
        while di < disk.len() || ti < tracker.len() {
            let take_disk = match (disk.get(di), tracker.get(ti)) {
                (Some(d), Some(t)) => d.1 <= t.1,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_disk {
                let (id, t) = disk[di];
                cache.disk.insert(id.video, id.index, t);
                di += 1;
            } else {
                cache.tracker.touch(tracker[ti].0, tracker[ti].1);
                ti += 1;
            }
        }
        cache.handled = handled;
        cache
    }

    /// Drops tracker entries older than the cache age — "historic data
    /// that will not be useful anymore according to the cache age is
    /// regularly cleaned up" (§5).
    fn cleanup_tracker(&mut self, now: Timestamp) {
        let age = self.cache_age(now);
        let cutoff = Timestamp(now.as_millis().saturating_sub(age.as_millis()));
        while let Some((_, t)) = self.tracker.oldest() {
            if t < cutoff {
                self.tracker.pop_oldest();
            } else {
                break;
            }
        }
    }
}

impl CachePolicy for XlruCache {
    /// # Panics
    ///
    /// Panics if the request reaches chunk index `2^20`
    /// ([`ChunkId::INDEX_BITS`]; 2 TiB into a video at 2 MiB chunks) or
    /// beyond: the disk directory is a dense per-video run indexed by
    /// chunk number, and the bound keeps one stray offset from sizing it.
    fn handle_request(&mut self, request: &Request) -> Decision {
        let now = request.t;
        let k = self.config.chunk_size;
        let range = request.chunk_range(k);
        assert_chunk_index(range.end);
        self.handled += 1;
        if self.handled.is_multiple_of(CLEANUP_INTERVAL) {
            self.cleanup_tracker(now);
        }

        // Lines 1–2 of Figure 1: read then update the popularity tracker.
        let prev = self.tracker.touch(request.video, now);

        // One directory probe for the request, one slot read per chunk.
        let mut present = std::mem::take(&mut self.scratch_present);
        let mut missing = std::mem::take(&mut self.scratch_missing);
        present.clear();
        missing.clear();
        let slot = self.disk.video(request.video);
        for c in range.iter() {
            match slot.and_then(|s| self.disk.handle(s, c)) {
                Some(h) => present.push(h),
                None => missing.push(c),
            }
        }

        // Warm-up ("disk not full", Figure 1 comment): admit while free
        // space remains; the popularity test engages once the disk fills.
        let warmup = (self.disk.len() as u64) < self.config.disk_chunks;
        let age_ms = self.cache_age(now).as_millis() as f64;
        self.last_detail = match prev {
            // Eq. 5 terms as compared: IAT·α_F2R against the cache age.
            Some(t) if !warmup => DecisionDetail::costs(
                (now - t).as_millis() as f64 * self.config.costs.alpha(),
                age_ms,
                age_ms,
            ),
            _ => DecisionDetail::age_only(age_ms),
        };
        let decision = if !warmup && self.fails_popularity_test(prev, now) {
            Decision::Redirect // lines 3–4
        } else {
            // Serve: refresh hits first so eviction targets genuinely old
            // data. Handles stay valid here: nothing has left the disk yet.
            for &h in &present {
                self.disk.touch_handle(h, now);
            }
            // Lines 5–7: evict the oldest |missing| chunks, fill the
            // misses. Requests larger than the whole disk keep only their
            // tail chunks.
            let mut evicted = Vec::new();
            let keep_from = missing
                .len()
                .saturating_sub(self.config.disk_chunks as usize);
            for &c in &missing[keep_from..] {
                if self.disk.len() as u64 >= self.config.disk_chunks {
                    if let Some((old, _)) = self.disk.pop_oldest() {
                        evicted.push(old);
                    }
                }
                // By video, not by `slot`: the eviction above may have
                // released (and this insert re-creates) the request's own
                // video entry.
                self.disk.insert(request.video, c, now);
            }
            Decision::Serve(ServeOutcome {
                hit_chunks: present.len() as u64,
                filled_chunks: missing.len() as u64,
                evicted,
            })
        };
        self.scratch_present = present;
        self.scratch_missing = missing;
        decision
    }

    fn name(&self) -> &'static str {
        "xlru"
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
    use vcdn_types::ByteRange;

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn cache(disk: u64, alpha: f64) -> XlruCache {
        XlruCache::new(CacheConfig::new(
            disk,
            ChunkSize::new(100).unwrap(),
            CostModel::from_alpha(alpha).unwrap(),
        ))
    }

    /// Fills the disk with one-chunk videos, ids starting at `base`.
    fn fill_disk(c: &mut XlruCache, base: u64, n: u64, t0: u64) -> u64 {
        for i in 0..n {
            assert!(c.handle_request(&req(base + i, 0, 99, t0 + i)).is_serve());
        }
        t0 + n
    }

    #[test]
    fn warmup_admits_first_seen_videos() {
        let mut c = cache(5, 1.0);
        for i in 0..5 {
            assert!(c.handle_request(&req(i, 0, 99, i + 1)).is_serve());
        }
        assert_eq!(c.disk_used_chunks(), 5);
    }

    #[test]
    fn full_disk_redirects_first_seen() {
        let mut c = cache(3, 1.0);
        fill_disk(&mut c, 0, 3, 1);
        let d = c.handle_request(&req(99, 0, 99, 100));
        assert!(d.is_redirect());
        // But the tracker remembers it...
        assert!(c.tracker.contains(&VideoId(99)));
        assert_eq!(c.disk_used_chunks(), 3);
    }

    #[test]
    fn second_request_passes_eq5_when_recent_enough() {
        let mut c = cache(3, 1.0);
        let t = fill_disk(&mut c, 0, 3, 1); // disk ages: chunks at t=1,2,3
                                            // Video 9 first seen at t=100: redirect.
        assert!(c.handle_request(&req(9, 0, 99, 100)).is_redirect());
        // Second request at t=110: IAT = 10; cache age = 110 - 1 = 109.
        // 10 * 1.0 <= 109 -> admit.
        let d = c.handle_request(&req(9, 0, 99, 110));
        assert!(d.is_serve());
        let _ = t;
    }

    #[test]
    fn eq5_scales_with_alpha() {
        // alpha = 4 demands a video 4x more popular than the cache age.
        let mut c = cache(3, 4.0);
        fill_disk(&mut c, 0, 3, 1);
        // IAT = 40, cache age at t=140 is 139: 40*4=160 > 139 -> redirect.
        assert!(c.handle_request(&req(9, 0, 99, 100)).is_redirect());
        assert!(c.handle_request(&req(9, 0, 99, 140)).is_redirect());
        // Third request: IAT = 20, 20*4=80 <= cache age (~179) -> serve.
        assert!(c.handle_request(&req(9, 0, 99, 160)).is_serve());
    }

    #[test]
    fn alpha_below_one_admits_less_popular_videos() {
        let mut c = cache(3, 0.5);
        fill_disk(&mut c, 0, 3, 1);
        assert!(c.handle_request(&req(9, 0, 99, 100)).is_redirect());
        // IAT = 150 at t=250; age = 249. 150*0.5 = 75 <= 249 -> serve.
        // (With alpha = 2 this same request would redirect: 300 > 249.)
        assert!(c.handle_request(&req(9, 0, 99, 250)).is_serve());

        let mut c2 = cache(3, 2.0);
        fill_disk(&mut c2, 0, 3, 1);
        assert!(c2.handle_request(&req(9, 0, 99, 100)).is_redirect());
        assert!(c2.handle_request(&req(9, 0, 99, 250)).is_redirect());
    }

    #[test]
    fn serve_evicts_lru_chunks() {
        let mut c = cache(3, 1.0);
        fill_disk(&mut c, 0, 3, 1); // videos 0,1,2 cached at t=1,2,3
        assert!(c.handle_request(&req(9, 0, 99, 50)).is_redirect());
        let d = c.handle_request(&req(9, 0, 99, 60));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(0), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(9), 0)));
    }

    #[test]
    fn hits_refresh_before_eviction() {
        let mut c = cache(2, 1.0);
        // Warmup with video 5 (chunk 0) then video 6 (chunk 0).
        c.handle_request(&req(5, 0, 99, 1));
        c.handle_request(&req(6, 0, 99, 2));
        // Request video 5 chunks 0..1: chunk 0 present (oldest), chunk 1
        // missing. The hit must be refreshed so eviction takes video 6.
        let d = c.handle_request(&req(5, 0, 199, 10));
        let o = d.serve_outcome().unwrap();
        assert_eq!((o.hit_chunks, o.filled_chunks), (1, 1));
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(6), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(5), 0)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(5), 1)));
    }

    #[test]
    fn capacity_never_exceeded_under_churn() {
        let mut c = cache(4, 1.0);
        let mut t = 1;
        for round in 0..50u64 {
            for v in 0..6 {
                c.handle_request(&req(v, 0, 299, t));
                t += 7 + round % 3;
                assert!(c.disk_used_chunks() <= 4, "capacity exceeded");
            }
        }
    }

    #[test]
    fn partial_file_hit_counts() {
        let mut c = cache(10, 1.0);
        c.handle_request(&req(1, 0, 199, 1)); // chunks 0,1 (warmup)
        let d = c.handle_request(&req(1, 100, 399, 5)); // chunks 1,2,3
        let o = d.serve_outcome().unwrap();
        assert_eq!((o.hit_chunks, o.filled_chunks), (1, 2));
    }

    #[test]
    fn tracker_cleanup_forgets_stale_videos() {
        let mut c = cache(2, 1.0);
        fill_disk(&mut c, 0, 2, 1);
        // Register a soon-stale video.
        c.handle_request(&req(500, 0, 99, 10)); // redirect, tracked
                                                // Keep the disk hot (small cache age) while the clock advances far
                                                // past video 500's last access; sweeps must then drop it.
        let mut t = 20;
        for _ in 0..2 * CLEANUP_INTERVAL {
            c.handle_request(&req(0, 0, 99, t));
            c.handle_request(&req(1, 0, 99, t + 1));
            t += 2;
        }
        assert!(!c.tracker.contains(&VideoId(500)), "stale entry survived");
        // Hot videos stay tracked.
        assert!(c.tracker.contains(&VideoId(0)));
        assert!(c.tracker.contains(&VideoId(1)));
    }

    #[test]
    fn redirect_does_not_touch_disk() {
        let mut c = cache(2, 1.0);
        c.handle_request(&req(1, 0, 99, 1));
        c.handle_request(&req(2, 0, 99, 2));
        let age_before = c.cache_age(Timestamp(100));
        // Redirected request for video 1's chunk must not refresh it.
        assert!(c.handle_request(&req(3, 0, 99, 50)).is_redirect());
        assert_eq!(c.cache_age(Timestamp(100)), age_before);
    }

    #[test]
    #[should_panic(expected = "chunk index 1048576 is beyond the 1048576-chunk bound of a video")]
    fn chunk_index_past_the_bound_is_refused() {
        let mut c = cache(2, 1.0);
        // Chunk size 100: byte 104_857_600 is the first of chunk 2^20.
        c.handle_request(&req(1, 104_857_600, 104_857_600, 1));
    }

    #[test]
    fn last_chunk_index_inside_the_bound_is_served() {
        let mut c = cache(2, 1.0);
        assert!(c
            .handle_request(&req(1, 104_857_599, 104_857_599, 1))
            .is_serve());
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), MAX_CHUNK_INDEX - 1)));
    }

    #[test]
    fn serve_that_evicts_its_own_video_keeps_the_directory_whole() {
        // Disk of one chunk: serving v1#1 evicts v1#0, the video's only
        // cached chunk, so its directory entry is released and re-created
        // within one request.
        let mut c = cache(1, 1.0);
        assert!(c.handle_request(&req(1, 0, 99, 1)).is_serve());
        let d = c.handle_request(&req(1, 100, 199, 2));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(1), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), 1)));
        assert!(!c.contains_chunk(ChunkId::new(VideoId(1), 0)));
        c.audit();
    }

    #[test]
    fn oversized_request_keeps_tail() {
        let mut c = cache(2, 1.0);
        let d = c.handle_request(&req(1, 0, 499, 1));
        let o = d.serve_outcome().unwrap();
        assert_eq!(o.filled_chunks, 5);
        assert_eq!(c.disk_used_chunks(), 2);
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), 4)));
    }
}
