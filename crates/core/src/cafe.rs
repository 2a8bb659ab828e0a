//! The Cafe cache (paper §6): Chunk-Aware, Fill-Efficient.
//!
//! Cafe tracks popularity per *chunk* as an exponentially weighted moving
//! average (EWMA) of inter-arrival times (Eq. 8), orders cached chunks by
//! the *virtual timestamp* `key_x(t) = t − IAT_x(t)` (Eq. 9, whose pairwise
//! order is evaluation-time invariant by Theorem 1), and decides
//! serve-vs-redirect by comparing expected costs (Eqs. 6–7):
//!
//! ```text
//! E[serve]    = |S′|·C_F + Σ_{x∈S″} (T/IAT_x)·min(C_F, C_R)
//! E[redirect] = |S|·C_R  + Σ_{x∈S′} (T/IAT_x)·min(C_F, C_R)
//! ```
//!
//! where `S` is the requested chunk set, `S′ ⊆ S` the missing chunks,
//! `S″` the eviction candidates (`|S″| = |S′|`), and the look-ahead window
//! `T` is the cache age (the paper's best-performing choice; a fixed
//! window is available for the ablation study).
//!
//! The §6 optimisation — estimating the IAT of a never-seen chunk of a
//! partially cached video as the largest IAT among that video's cached
//! chunks — is implemented and can be toggled for ablation.

use vcdn_obs::DecisionDetail;
use vcdn_types::{
    ChunkId, ChunkSize, CostModel, Decision, DurationMs, Request, ServeOutcome, Timestamp, VideoId,
};

use crate::{
    ds::{
        assert_chunk_index,
        pop_table::{ewma, iat, Touch, MIN_IAT_MS},
        PopTable, RankIndex, NOT_CACHED,
    },
    policy::{CacheConfig, CachePolicy},
};

/// How many requests between popularity-state garbage sweeps.
const CLEANUP_INTERVAL: u64 = 4096;

/// Cafe's look-ahead window `T` in Eqs. 6–7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPolicy {
    /// `T` = the disk cache age — "a natural choice ... which has yielded
    /// highest efficiencies in our experiments" (§6).
    CacheAge,
    /// A fixed window, for the ablation study (A1 in `DESIGN.md`).
    Fixed(DurationMs),
}

/// Configuration of a [`CafeCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CafeConfig {
    /// Disk size, chunk size and cost model.
    pub cache: CacheConfig,
    /// EWMA weight γ of Eq. 8 (paper: 0.25).
    pub gamma: f64,
    /// Look-ahead window policy (paper: cache age).
    pub window: WindowPolicy,
    /// Enables the unseen-chunk IAT estimate (§6 optimisation).
    pub unseen_chunk_estimate: bool,
}

impl CafeConfig {
    /// The paper's configuration: γ = 0.25, `T` = cache age, unseen-chunk
    /// estimation on.
    pub fn new(disk_chunks: u64, chunk_size: ChunkSize, costs: CostModel) -> Self {
        CafeConfig {
            cache: CacheConfig::new(disk_chunks, chunk_size, costs),
            gamma: 0.25,
            window: WindowPolicy::CacheAge,
            unseen_chunk_estimate: true,
        }
    }

    /// Overrides γ.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < gamma <= 1`.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        assert!(
            gamma > 0.0 && gamma <= 1.0,
            "gamma must be in (0, 1], got {gamma}"
        );
        self.gamma = gamma;
        self
    }

    /// Overrides the look-ahead window policy.
    pub fn with_window(mut self, window: WindowPolicy) -> Self {
        self.window = window;
        self
    }

    /// Toggles the unseen-chunk IAT estimate.
    pub fn with_unseen_chunk_estimate(mut self, on: bool) -> Self {
        self.unseen_chunk_estimate = on;
        self
    }
}

/// What the disk index carries for each cached chunk: its video's
/// [`PopTable`] directory slot — stable while the chunk is cached, because
/// a video with a cached chunk keeps its entry — and its Eq. 8 average,
/// which lives here from fill to eviction while the chunk's record holds
/// the entry's slot instead.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cached {
    video: u32,
    dt: f64,
}

/// The Cafe cache.
///
/// # Examples
///
/// ```
/// use vcdn_core::{CachePolicy, CafeCache, CafeConfig};
/// use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
///
/// let k = ChunkSize::new(100).unwrap();
/// let costs = CostModel::from_alpha(2.0).unwrap();
/// let mut cache = CafeCache::new(CafeConfig::new(4, k, costs));
/// let r = Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(1));
/// assert!(cache.handle_request(&r).is_serve()); // warm-up admits
/// ```
#[derive(Debug, Clone)]
pub struct CafeCache {
    config: CafeConfig,
    /// The per-video chunk directory: EWMA popularity state for every
    /// recently seen chunk (cached or not), which chunks of a video are
    /// cached and where, and the video-level last-seen time that drives
    /// the never-seen-video rule.
    pop: PopTable,
    /// Cached chunks ordered by virtual timestamp (Eq. 9) in the bucketed
    /// rank index, addressed by the slot the directory keeps as each
    /// chunk's back-reference; each entry carries the chunk's [`Cached`]
    /// payload, so eviction scans cost a candidate and evict it with no
    /// probe.
    disk: RankIndex<ChunkId, Cached>,
    handled: u64,
    replay_start: Option<Timestamp>,
    last_detail: DecisionDetail,
    /// Reusable per-request buffer: the decide path allocates nothing.
    /// Missing chunks travel with their fresh EWMA so the Eq. 7 loop and
    /// the fill loop never go back to the table.
    scratch_missing: Vec<(ChunkId, f64)>,
    /// The disk slots of the candidates the Eq. 6 walk costed: a serve
    /// evicts these.
    scratch_candidates: Vec<u32>,
}

impl CafeCache {
    /// Creates an empty cache.
    pub fn new(config: CafeConfig) -> Self {
        CafeCache {
            config,
            pop: PopTable::new(),
            disk: RankIndex::new(),
            handled: 0,
            replay_start: None,
            last_detail: DecisionDetail::default(),
            scratch_missing: Vec::new(),
            scratch_candidates: Vec::new(),
        }
    }

    /// The virtual cache age at `now`: `now` minus the least popular cached
    /// chunk's virtual timestamp. Because `IAT_x(t) = t − key_x`, this is
    /// exactly the IAT of the least popular chunk (`IAT₀`).
    pub fn cache_age_ms(&self, now: Timestamp) -> f64 {
        match self.disk.smallest() {
            Some((_, key)) => (now.as_millis() as f64 - key).max(0.0),
            None => 0.0,
        }
    }

    /// The look-ahead window `T` (ms) per the configured policy.
    fn window_ms(&self, now: Timestamp) -> f64 {
        match self.config.window {
            WindowPolicy::CacheAge => self.cache_age_ms(now),
            WindowPolicy::Fixed(d) => d.as_millis() as f64,
        }
    }

    /// The §6 estimate for a never-seen chunk of the video at directory
    /// `slot`: the largest IAT among its cached chunks, or `None` if it
    /// has none (or the optimisation is disabled).
    fn video_iat_estimate(&self, slot: u32, now: Timestamp) -> Option<f64> {
        if !self.config.unseen_chunk_estimate {
            return None;
        }
        let disk = &self.disk;
        let dt_of = |at| disk.payload(at).dt;
        self.pop.max_cached_iat(slot, now, self.config.gamma, dt_of)
    }

    /// Expected count of near-future requests for a chunk with
    /// inter-arrival `iat` over window `t_window`: `T / IAT_x` (Eqs. 6–7).
    fn future_requests(t_window: f64, iat: Option<f64>) -> f64 {
        match iat {
            Some(iat) => t_window / iat.max(MIN_IAT_MS),
            // Unknown IAT: no evidence of future demand.
            None => 0.0,
        }
    }

    /// Evicts the chunk at disk slot `slot` and returns it: its average
    /// goes back to its record, and the slot is freed for reuse.
    fn remove_chunk(&mut self, slot: u32) -> ChunkId {
        let (id, Cached { video, dt }) = (self.disk.item(slot), *self.disk.payload(slot));
        self.disk.remove_slot(slot);
        self.pop.clear_cached(video, id.index, dt);
        id
    }

    /// Admits `id`, not cached, at virtual key `key`; `video` is its
    /// video's directory slot. The rank-index entry takes the chunk's
    /// average over from its record.
    fn insert_chunk(&mut self, video: u32, id: ChunkId, key: f64) {
        let disk = &mut self.disk;
        self.pop.set_cached(video, id.index, |dt| {
            disk.insert_new(id, key, Cached { video, dt })
        });
    }

    /// Drops popularity state for chunks and videos not seen within twice
    /// the cache age (and not currently cached). Called at every
    /// `CLEANUP_INTERVAL`-th request; [`PopTable::sweep`] walks the table
    /// only when the cutoff can reach something.
    fn cleanup(&mut self, now: Timestamp) {
        let age = self.cache_age_ms(now);
        if age <= 0.0 {
            return;
        }
        let cutoff = Timestamp(now.as_millis().saturating_sub((2.0 * age) as u64));
        self.pop.sweep(cutoff);
    }

    /// Number of chunk popularity records currently held (for tests).
    pub fn tracked_chunks(&self) -> usize {
        self.pop.len()
    }

    /// Heap bytes Cafe's state holds, from capacities: the popularity
    /// runs, the directory's entries, free list and video → slot map
    /// ([`PopTable::state_bytes`]), and the disk index's slab, bucket
    /// window and body pool ([`RankIndex::state_bytes`]). The
    /// deterministic reading of what the cache costs in memory.
    pub fn state_bytes(&self) -> usize {
        self.pop.state_bytes() + self.disk.state_bytes()
    }

    /// Checks the disk index ([`RankIndex::audit`]), the directory
    /// ([`PopTable::audit`], against the averages the entries keep), that
    /// every cached chunk's back-reference in the directory names its
    /// entry, and that the entry names the chunk's video slot (tests).
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        self.disk.audit();
        self.pop.audit(|at| self.disk.payload(at).dt);
        for (id, _) in self.disk_entries() {
            let slot = self.pop.backref_of(&id);
            assert_eq!(
                self.disk.get(slot).map(|e| e.0),
                Some(id),
                "{id}: back-reference"
            );
            let video = self.disk.payload(slot).video;
            assert_eq!(self.pop.slot_of(id.video), Some(video), "{id}: video slot");
        }
    }

    /// Popularity entries sorted by chunk id (snapshot support). Keys are
    /// unique, so the unstable sort is deterministic without the stable
    /// sort's temporary buffer.
    pub(crate) fn iat_entries(&self) -> Vec<(ChunkId, Option<f64>, Timestamp)> {
        let disk = &self.disk;
        let dt_of = |at| disk.payload(at).dt;
        let mut v: Vec<(ChunkId, Option<f64>, Timestamp)> = self.pop.records(dt_of).collect();
        v.sort_unstable_by_key(|(id, _, _)| *id);
        v
    }

    /// Video tracker entries sorted by video id (snapshot support).
    pub(crate) fn video_seen_entries(&self) -> Vec<(VideoId, Timestamp)> {
        let mut v: Vec<(VideoId, Timestamp)> = self.pop.videos_seen().collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Cached chunks with their virtual keys, ascending (snapshot support).
    pub(crate) fn disk_entries(&self) -> Vec<(ChunkId, f64)> {
        self.disk.entries_ascending()
    }

    /// Requests handled so far (snapshot support).
    pub(crate) fn handled_count(&self) -> u64 {
        self.handled
    }

    /// Replay start time (snapshot support).
    pub(crate) fn replay_start_time(&self) -> Option<Timestamp> {
        self.replay_start
    }

    /// Rebuilds a cache from persisted parts (validated by the snapshot
    /// layer).
    pub(crate) fn from_parts(
        config: CafeConfig,
        iat: &[(ChunkId, Option<f64>, Timestamp)],
        video_seen: &[(VideoId, Timestamp)],
        disk: &[(ChunkId, f64)],
        handled: u64,
        replay_start: Option<Timestamp>,
    ) -> CafeCache {
        let mut cache = CafeCache::new(config);
        for &(id, dt, t_last) in iat {
            cache.pop.insert_raw(id, dt, t_last);
        }
        for &(v, t) in video_seen {
            cache.pop.set_last_seen(v, t);
        }
        for &(id, key) in disk {
            // A disk chunk whose popularity record was swept before the
            // snapshot stays untracked: its IAT reads `None`, exactly as
            // the hash-map layout answered for it.
            let video = cache.pop.slot(id.video);
            cache.insert_chunk(video, id, key);
        }
        cache.handled = handled;
        cache.replay_start = replay_start;
        cache
    }

    /// The current configuration.
    pub fn config(&self) -> &CafeConfig {
        &self.config
    }
}

impl CachePolicy for CafeCache {
    /// # Panics
    ///
    /// Panics if the request reaches chunk index `2^20`
    /// ([`ChunkId::INDEX_BITS`]; 2 TiB into a video at 2 MiB chunks) or
    /// beyond: popularity state is a dense per-video run indexed by chunk
    /// number, and the bound keeps one stray offset from sizing it.
    fn handle_request(&mut self, request: &Request) -> Decision {
        let now = request.t;
        let gamma = self.config.gamma;
        let k = self.config.cache.chunk_size;
        let capacity = self.config.cache.disk_chunks;
        let costs = self.config.cache.costs;
        let range = request.chunk_range(k);
        assert_chunk_index(range.end);
        self.replay_start.get_or_insert(now);
        self.handled += 1;
        if self.handled.is_multiple_of(CLEANUP_INTERVAL) {
            self.cleanup(now);
        }

        // Classify, update popularity, and re-key in one pass over the
        // video's chunk run — one directory probe for the whole request.
        // Updating *before* deciding mirrors xLRU's Eq. 5, which scores a
        // video by the current gap `t_now − t`: the arriving request is
        // itself evidence — a chunk's second request immediately yields a
        // usable IAT, and demand is observed whether we serve or redirect.
        // The per-chunk steps are independent (a chunk range never repeats
        // an id, and re-keying a present chunk alters no other chunk's
        // membership), so fusing the passes changes no outcome.
        let mut missing = std::mem::take(&mut self.scratch_missing);
        missing.clear();
        let mut candidates = std::mem::take(&mut self.scratch_candidates);
        candidates.clear();
        let mut hits = 0usize;
        let disk = &mut self.disk;
        let touched =
            self.pop
                .touch_run(request.video, range, now, gamma, |c, touch| match touch {
                    Touch::Cached { slot, gap } => {
                        // The record's back-reference says "cached, and where
                        // in the rank index": the entry keeps the chunk's
                        // average, and a present chunk re-keys (a store of the
                        // refreshed, higher virtual timestamp) with no lookup
                        // of its own.
                        let id = Some(ChunkId::new(request.video, c));
                        debug_assert_eq!(disk.get(slot).map(|e| e.0), id);
                        let cached = disk.payload_mut(slot);
                        cached.dt = ewma(cached.dt, gap, gamma);
                        let key = PopTable::key_fresh(cached.dt, now, gamma, 0.0);
                        disk.rekey_slot(slot, key);
                        hits += 1;
                    }
                    Touch::Uncached(dt) => missing.push((ChunkId::new(request.video, c), dt)),
                });
        // The video's directory slot: the fills and the §6 estimate below
        // use it instead of probing again.
        let (video, video_known) = touched;
        // The eviction scans skip the request's own cached chunks; every
        // cached chunk inside the requested interval is one of them, so
        // the test is a range test.
        let requested = |id: &ChunkId| id.video == request.video && range.contains(id.index);
        let s_total = (hits + missing.len()) as f64;
        let warmup = (self.disk.len() as u64) < capacity;
        let evict_needed =
            ((self.disk.len() + missing.len()) as u64).saturating_sub(capacity) as usize;

        // The §6 estimate stands in only for a missing chunk with no
        // interval yet (in the Eq. 7 sum and as the fill-key fallback), so
        // a full hit — the common case — or a request whose missing chunks
        // all have one skips the per-video walk, which reads each cached
        // chunk's average from its rank entry.
        let video_estimate = if missing.iter().any(|&(_, dt)| dt < 0.0) {
            self.video_iat_estimate(video, now)
        } else {
            None
        };
        self.last_detail = DecisionDetail::age_only(self.cache_age_ms(now));
        let serve = if warmup {
            true
        } else if !video_known {
            // Never-seen file: intentionally not brought in (§9.2).
            false
        } else if missing.is_empty() {
            true // full hit: serving costs nothing
        } else {
            let t_window = self.window_ms(now);
            let min_cost = costs.min_cost();

            // Eq. 6: fill cost now + expected future cost of evictees.
            // The candidate walk reads each candidate's average from its
            // entry and its last touch through the entry's video slot — no
            // hash probe per candidate — and keeps the candidates' slots:
            // they are the victims if this serves.
            let mut e_serve = missing.len() as f64 * costs.c_f();
            let pop = &self.pop;
            self.disk
                .for_smallest_excluding(evict_needed, requested, |slot, id, _, c| {
                    candidates.push(slot);
                    let t_last = pop.last_touch(c.video, id.index);
                    let iat = iat(c.dt, t_last, now, gamma);
                    e_serve += Self::future_requests(t_window, iat) * min_cost;
                });
            // Eq. 7: redirect cost now + expected future cost of the
            // still-missing chunks.
            let mut e_redirect = s_total * costs.c_r();
            for &(_, dt) in &missing {
                let iat = PopTable::iat_fresh(dt, gamma).or(video_estimate);
                e_redirect += Self::future_requests(t_window, iat) * min_cost;
            }
            self.last_detail = DecisionDetail::costs(e_serve, e_redirect, self.cache_age_ms(now));
            e_serve <= e_redirect
        };

        let decision = if !serve {
            Decision::Redirect
        } else {
            // Evict, then fill. Requests larger than the disk keep their
            // tail. A costed serve evicts the candidates it costed (the
            // index is as it was); an overflowing warm-up serve walks here.
            if candidates.is_empty() {
                self.disk
                    .for_smallest_excluding(evict_needed, requested, |slot, _, _, _| {
                        candidates.push(slot);
                    });
            }
            let mut evicted = Vec::with_capacity(evict_needed);
            for &slot in &candidates {
                evicted.push(self.remove_chunk(slot));
            }
            let free = capacity - self.disk.len() as u64;
            let keep_from = missing.len().saturating_sub(free as usize);
            let fallback = video_estimate.unwrap_or(0.0);
            for &(id, dt) in &missing[keep_from..] {
                let key = PopTable::key_fresh(dt, now, gamma, fallback);
                self.insert_chunk(video, id, key);
            }
            Decision::Serve(ServeOutcome {
                hit_chunks: hits as u64,
                filled_chunks: missing.len() as u64,
                evicted,
            })
        };
        self.scratch_missing = missing;
        self.scratch_candidates = candidates;
        decision
    }

    fn name(&self) -> &'static str {
        "cafe"
    }

    fn chunk_size(&self) -> ChunkSize {
        self.config.cache.chunk_size
    }

    fn costs(&self) -> CostModel {
        self.config.cache.costs
    }

    fn disk_used_chunks(&self) -> u64 {
        self.disk.len() as u64
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.config.cache.disk_chunks
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.pop.backref_of(&chunk) != NOT_CACHED
    }

    fn decision_detail(&self) -> DecisionDetail {
        self.last_detail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ds::{BUCKET_WIDTH_MS, MAX_CHUNK_INDEX};
    use vcdn_types::ByteRange;

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn cache(disk: u64, alpha: f64) -> CafeCache {
        CafeCache::new(CafeConfig::new(
            disk,
            ChunkSize::new(100).unwrap(),
            CostModel::from_alpha(alpha).unwrap(),
        ))
    }

    /// Whether `id` has a popularity record.
    fn tracked(c: &CafeCache, id: ChunkId) -> bool {
        c.iat_entries().iter().any(|e| e.0 == id)
    }

    /// Warm the disk full with `n` single-chunk videos at times t0, t0+gap, …
    /// then re-request each once so their IATs become known.
    fn warm(c: &mut CafeCache, n: u64, t0: u64, gap: u64) -> u64 {
        for i in 0..n {
            assert!(c.handle_request(&req(i, 0, 99, t0 + i * gap)).is_serve());
        }
        let t1 = t0 + n * gap;
        for i in 0..n {
            c.handle_request(&req(i, 0, 99, t1 + i * gap));
        }
        t1 + n * gap
    }

    #[test]
    fn key_order_is_time_invariant_theorem1() {
        // Random-ish pairs: the sign of key_x(t) - key_y(t) must not
        // depend on t (Theorem 1). (Eq. 8 arithmetic itself is covered by
        // the PopTable unit tests in ds/pop_table.rs.)
        let states = [
            (50.0, Timestamp(900)),
            (500.0, Timestamp(990)),
            (5.0, Timestamp(100)),
            (250.0, Timestamp(750)),
        ];
        let gamma = 0.25;
        // Eq. 9: key_x(t) = t − IAT_x(t).
        let key = |(dt, t_last): (f64, Timestamp), t: u64| {
            t as f64 - iat(dt, t_last, Timestamp(t), gamma).unwrap()
        };
        for &a in &states {
            for &b in &states {
                let d1 = key(a, 1_000) - key(b, 1_000);
                let d2 = key(a, 50_000) - key(b, 50_000);
                assert!(
                    (d1 - d2).abs() < 1e-6,
                    "key difference changed over time: {d1} vs {d2}"
                );
            }
        }
    }

    #[test]
    fn warmup_admits_everything() {
        let mut c = cache(4, 2.0);
        for i in 0..4 {
            assert!(c.handle_request(&req(i, 0, 99, i + 1)).is_serve());
        }
        assert_eq!(c.disk_used_chunks(), 4);
    }

    #[test]
    fn never_seen_video_redirected_once_full() {
        let mut c = cache(2, 1.0);
        warm(&mut c, 2, 1, 10);
        assert!(c.handle_request(&req(50, 0, 99, 1_000)).is_redirect());
        // ...but demand is recorded, so a prompt re-request can qualify.
        assert!(c
            .video_seen_entries()
            .contains(&(VideoId(50), Timestamp(1_000))));
    }

    #[test]
    fn popular_video_admitted_after_second_request() {
        let mut c = cache(2, 1.0);
        let t = warm(&mut c, 2, 1, 1_000); // cached videos have IAT ~2000ms
                                           // Video 9 requested twice 10ms apart: far more popular than
                                           // the cache contents; must be admitted on the second request.
        assert!(c.handle_request(&req(9, 0, 99, t + 10_000)).is_redirect());
        let d = c.handle_request(&req(9, 0, 99, t + 10_010));
        assert!(d.is_serve(), "hot new video should be filled");
    }

    #[test]
    fn unpopular_video_stays_redirected_under_high_alpha() {
        let mut c = cache(2, 4.0);
        let t = warm(&mut c, 2, 1, 10); // cache holds very hot chunks
                                        // Keep the cached chunks hot while the candidate stays lukewarm.
        let mut now = t;
        for round in 0..5u64 {
            for i in 0..2 {
                c.handle_request(&req(i, 0, 99, now + i));
            }
            // Candidate video arrives every ~5000ms: colder than contents.
            let d = c.handle_request(&req(9, 0, 99, now + 5));
            if round > 0 {
                assert!(
                    d.is_redirect(),
                    "cold video admitted over hot contents at round {round}"
                );
            }
            now += 5_000;
        }
    }

    #[test]
    fn full_hit_served_even_for_cold_video() {
        let mut c = cache(2, 4.0);
        warm(&mut c, 2, 1, 10);
        // Chunk of video 0 is cached: requesting it alone is a pure hit.
        let d = c.handle_request(&req(0, 0, 99, 1_000_000));
        let o = d.serve_outcome().unwrap();
        assert_eq!((o.hit_chunks, o.filled_chunks), (1, 0));
        assert!(o.evicted.is_empty());
    }

    #[test]
    fn eviction_takes_least_popular_chunk() {
        let mut c = cache(2, 1.0);
        // Video 0 very hot (IAT 10ms), video 1 cold (IAT 5000ms).
        c.handle_request(&req(0, 0, 99, 0));
        c.handle_request(&req(1, 0, 99, 1));
        for t in (10..200).step_by(10) {
            c.handle_request(&req(0, 0, 99, t));
        }
        c.handle_request(&req(1, 0, 99, 5_000));
        c.handle_request(&req(0, 0, 99, 5_010));
        // New hot video 9 (requested twice quickly) must evict video 1.
        c.handle_request(&req(9, 0, 99, 5_020));
        let d = c.handle_request(&req(9, 0, 99, 5_040));
        let o = d.serve_outcome().unwrap();
        assert!(d.is_serve());
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(1), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
    }

    #[test]
    fn capacity_never_exceeded_under_churn() {
        let mut c = cache(4, 2.0);
        let mut t = 1;
        for round in 0..100u64 {
            for v in 0..6 {
                c.handle_request(&req(v, 0, 299, t));
                t += 13 + (round * v) % 7;
                assert!(c.disk_used_chunks() <= 4);
            }
        }
    }

    #[test]
    fn unseen_chunk_estimate_extends_video_popularity() {
        // A video with hot cached chunk 0 requests unseen chunk 1: with the
        // estimate the request can be admitted; without it the unknown
        // chunk carries no future value.
        let run = |estimate: bool| -> bool {
            let mut c = CafeCache::new(
                CafeConfig::new(
                    4,
                    ChunkSize::new(100).unwrap(),
                    CostModel::from_alpha(0.9).unwrap(),
                )
                .with_unseen_chunk_estimate(estimate),
            );
            // Fill disk with 4 single-chunk videos, make them moderately
            // popular (IAT 1000ms).
            for i in 0..4 {
                c.handle_request(&req(i, 0, 99, i));
            }
            for i in 0..4 {
                c.handle_request(&req(i, 0, 99, 1_000 + i));
            }
            // Video 0 becomes very hot.
            for t in (2_000..4_000).step_by(100) {
                c.handle_request(&req(0, 0, 99, t));
            }
            // Now video 0's *second* chunk is requested (never seen).
            let d = c.handle_request(&req(0, 100, 199, 4_000));
            d.is_serve()
        };
        assert!(run(true), "estimate should admit the sibling chunk");
        // Note: without the estimate the same request is weighed with no
        // future value for the unseen chunk; under these IATs it redirects.
        assert!(!run(false), "without estimate the sibling chunk is cold");
    }

    #[test]
    fn alpha_scales_ingress_aggressiveness() {
        // The same mildly-popular video is admitted at alpha=0.5 but not at
        // alpha=4 (ingress-constrained).
        let run = |alpha: f64| -> bool {
            let mut c = cache(2, alpha);
            let t = warm(&mut c, 2, 1, 500); // contents at IAT ~1000
            c.handle_request(&req(9, 0, 99, t + 2_000));
            c.handle_request(&req(9, 0, 99, t + 4_000)) // IAT 2000: colder
                .is_serve()
        };
        assert!(run(0.5), "cheap ingress should admit");
        assert!(!run(4.0), "constrained ingress should redirect");
    }

    #[test]
    fn cleanup_drops_stale_chunk_state() {
        let mut c = cache(2, 1.0);
        warm(&mut c, 2, 1, 10);
        // One stale chunk record.
        c.handle_request(&req(77, 0, 99, 100));
        // Keep cache age small and clock moving: run many hot requests.
        let mut t = 200;
        for _ in 0..2 * CLEANUP_INTERVAL {
            c.handle_request(&req(0, 0, 99, t));
            c.handle_request(&req(1, 0, 99, t + 1));
            t += 10;
        }
        assert!(
            !tracked(&c, ChunkId::new(VideoId(77), 0)),
            "stale chunk state survived cleanup"
        );
        assert!(c
            .video_seen_entries()
            .iter()
            .all(|(v, _)| *v != VideoId(77)));
        // Cached chunks' state always survives — and nothing else does.
        let survivors: Vec<ChunkId> = c.iat_entries().iter().map(|e| e.0).collect();
        assert_eq!(
            survivors,
            [ChunkId::new(VideoId(0), 0), ChunkId::new(VideoId(1), 0)]
        );
        let videos: Vec<VideoId> = c.video_seen_entries().iter().map(|e| e.0).collect();
        assert_eq!(videos, [VideoId(0), VideoId(1)]);
        // The cache stays young while the clock moves, so each of the four
        // cutoffs is above the last and each sweep walks the table.
        assert_eq!(c.pop.sweeps(), 4);
    }

    #[test]
    fn no_table_walk_while_the_cutoff_stays_zero() {
        // A disk that never fills keeps the first video's chunk, which
        // nobody asks for again: the cache age is the age of the replay,
        // twice that reaches back past its start, and every cutoff is 0.
        let mut c = cache(64, 2.0);
        c.handle_request(&req(999, 0, 99, 1));
        for i in 0..3 * CLEANUP_INTERVAL {
            c.handle_request(&req(i % 40, 0, 99, 10 + i * 7));
        }
        assert_eq!(c.handled_count(), 3 * CLEANUP_INTERVAL + 1);
        assert_eq!(c.pop.sweeps(), 0);
        assert_eq!(c.tracked_chunks(), 41);
    }

    #[test]
    fn chunk_evicted_cold_is_swept_even_when_the_cutoff_falls() {
        // The one case where skipping a sweep would be wrong. Chunk X
        // (v1#0) sits on disk with a record far older than the first
        // sweep's cutoff (700) — cached, so the sweep keeps it. It is
        // then evicted, and the cache goes idle behind a chunk that ages:
        // the next cutoff (487) is *lower* than the last, which would
        // otherwise prove the sweep empty, but X's record (t = 100) is
        // below it and must go.
        let a = ChunkId::new(VideoId(0), 0);
        let x = ChunkId::new(VideoId(1), 0);
        let config = CafeConfig::new(
            2,
            ChunkSize::new(100).unwrap(),
            CostModel::from_alpha(2.0).unwrap(),
        );
        let iat = [
            (a, Some(10.0), Timestamp(990)),
            (x, Some(10.0), Timestamp(100)),
        ];
        let seen = [(VideoId(0), Timestamp(990)), (VideoId(1), Timestamp(100))];
        let disk = [(x, 850.0), (a, 900.0)];
        let first_sweep = CLEANUP_INTERVAL - 1;
        let mut c = CafeCache::from_parts(config, &iat, &seen, &disk, first_sweep, None);
        c.handle_request(&req(0, 0, 99, 1_000));
        assert_eq!(c.pop.sweeps(), 1, "cutoff 1000 - 2*150 = 700");
        assert!(tracked(&c, x), "cached: kept");
        // A sibling of the hot chunk displaces X.
        let d = c.handle_request(&req(0, 100, 199, 1_001));
        assert_eq!(d.serve_outcome().unwrap().evicted, [x]);
        // Only `a` is requested until the next sweep instant; its sibling
        // (key ≈ 993) becomes the cache age.
        for i in 0..CLEANUP_INTERVAL - 2 {
            c.handle_request(&req(0, 0, 99, 1_002 + i / 10));
        }
        assert_eq!(c.pop.sweeps(), 1);
        c.handle_request(&req(0, 0, 99, 1_500));
        assert_eq!(c.handled_count(), 2 * CLEANUP_INTERVAL);
        assert_eq!(
            c.pop.sweeps(),
            2,
            "cutoff 1500 - 2*506 = 487 < 700, yet it ran"
        );
        assert!(!tracked(&c, x), "stale record survived");
        assert_eq!(c.video_seen_entries(), [(VideoId(0), Timestamp(1_500))]);
        assert_eq!(c.tracked_chunks(), 2);
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
    fn a_request_for_the_last_chunk_costs_one_record() {
        // Runs start at the lowest chunk they hold: not 2^20 records
        // (24 MiB) for one request, but one.
        let mut c = cache(2, 1.0);
        c.handle_request(&req(1, 104_857_599, 104_857_599, 1));
        assert_eq!(c.pop.run_len(VideoId(1)), 1);
        // A request further down the video extends the run downwards.
        c.handle_request(&req(1, 104_857_300, 104_857_399, 2));
        assert_eq!(c.pop.run_len(VideoId(1)), 3);
        assert_eq!(c.tracked_chunks(), 2);
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
        assert!(!c.contains_chunk(ChunkId::new(VideoId(1), 0)));
    }

    #[test]
    fn cache_age_is_iat_of_least_popular() {
        let mut c = cache(2, 1.0);
        c.handle_request(&req(0, 0, 99, 0));
        c.handle_request(&req(1, 0, 99, 100));
        // Keys: both inserted with fallback IAT 0 -> key = insert time.
        // Cache age at t=500 = 500 - min key = 500.
        assert!((c.cache_age_ms(Timestamp(500)) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn gamma_validation() {
        let cfg = CafeConfig::new(1, ChunkSize::DEFAULT, CostModel::balanced());
        assert!((cfg.gamma - 0.25).abs() < 1e-12);
        let cfg = cfg.with_gamma(0.5);
        assert!((cfg.gamma - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gamma must be in")]
    fn bad_gamma_rejected() {
        let _ = CafeConfig::new(1, ChunkSize::DEFAULT, CostModel::balanced()).with_gamma(0.0);
    }

    #[test]
    fn fixed_window_policy_honoured() {
        let cfg = CafeConfig::new(2, ChunkSize::new(100).unwrap(), CostModel::balanced())
            .with_window(WindowPolicy::Fixed(DurationMs::from_secs(9)));
        let c = CafeCache::new(cfg);
        assert!((c.window_ms(Timestamp(1_000_000)) - 9_000.0).abs() < 1e-9);
    }

    #[test]
    fn time_stepping_backwards_keeps_the_disk_in_order() {
        // A clock that jumps back by minutes lowers virtual timestamps by
        // whole buckets — the one re-key the index may not defer — while
        // the forward stretches leave stale entries for those moves, the
        // scans and the evictions to meet.
        let mut c = cache(24, 1.0);
        let (mut t, mut seed) = (3_600_000u64, 7u64);
        let (mut lowered, mut evictions) = (0, 0);
        for step in 0..4_000u64 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let draw = seed >> 33;
            t = match step % 97 {
                96 => t - 1_500_000,
                _ => t + 20_000 + draw % 90_000,
            };
            let before = c.disk_entries();
            let d = c.handle_request(&req(draw % 9, (draw >> 8) % 900, 1_200, t));
            evictions += d.serve_outcome().map_or(0, |o| o.evicted.len());
            c.audit();
            // The ordered scan and the sorted export are the same sequence,
            // and it is the `(key, ChunkId)`-sorted truth.
            let entries = c.disk_entries();
            assert!(entries.is_sorted_by(|a, b| (a.1, a.0) < (b.1, b.0)));
            assert_eq!(c.disk.clone().smallest_excluding(99, |_| false), entries);
            assert_eq!(c.disk.smallest(), entries.first().copied());
            assert_eq!(entries.len() as u64, c.disk_used_chunks());
            lowered += entries
                .iter()
                .filter(|(id, key)| {
                    before
                        .iter()
                        .any(|(b, old)| b == id && key + BUCKET_WIDTH_MS < *old)
                })
                .count();
        }
        assert!(
            lowered > 0 && evictions > 0 && c.disk.relocations() > 0,
            "keys must fall by a bucket or more, chunks be evicted and settles relocate: \
             {lowered} / {evictions} / {}",
            c.disk.relocations()
        );
    }
}
