//! The lockstep oracle: every policy against a naive cache written straight
//! from the paper — Figure 1 for xLRU and plain LRU (§5), the §6 text for
//! Cafe, the §8 text for Psychic — over [`DetRng`] traces.
//!
//! The references are slow on purpose: ordered maps, linear scans, every
//! quantity recomputed when it is needed. One driver, [`lockstep`], feeds
//! a trace to a fast policy and its [`Reference`] side by side. On every
//! request it requires the same `Decision` (eviction order included), the
//! same `decision_detail()`, the same disk use and the same [`Probe`], and
//! it checks the `CachePolicy` contract on the fast side; the fast policies
//! audit their structures every 64 requests. A case's plan adds what runs
//! between requests: a snapshot → restore, or an edited tracker.
//!
//! Each `pub fn` below is one family of cases, with its own seed; the test
//! files `prop_policies.rs` and `xlru_matches_reference.rs` name them. The
//! cases of a family together must reach the corners named in its
//! [`Coverage`].

// Each test binary runs only some of the families.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, DecisionDetail, LruCache, PsychicCache,
    PsychicConfig, XlruCache,
};
use vcdn_trace::rng::DetRng;
use vcdn_types::{
    ByteRange, ChunkId, ChunkSize, CostModel, Decision, Request, ServeOutcome, Timestamp, VideoId,
};

/// Cases per small-shape property.
const CASES: u64 = 64;
const ALPHAS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const DISKS: [u64; 9] = [1, 2, 3, 5, 9, 24, 60, 128, 256];
/// xLRU's tracker sweep cadence (`CLEANUP_INTERVAL` in `xlru.rs`).
const CLEANUP_INTERVAL: u64 = 1024;
/// Cafe's EWMA weight (the `CafeConfig` default).
const GAMMA: f64 = 0.25;

fn k() -> ChunkSize {
    ChunkSize::new(100).expect("non-zero")
}

fn alpha(rng: &mut DetRng) -> f64 {
    ALPHAS[rng.below(4) as usize]
}

fn disk(rng: &mut DetRng) -> u64 {
    1 + rng.below(11)
}

fn config(disk: u64, alpha: f64) -> CacheConfig {
    CacheConfig::new(disk, k(), CostModel::from_alpha(alpha).expect("valid"))
}

fn ids_of(r: &Request) -> Vec<ChunkId> {
    let ids = r.chunk_range(k()).iter();
    ids.map(|c| ChunkId::new(r.video, c)).collect()
}

/// The request shapes the cases draw, each a time-ordered trace.
#[derive(Clone, Copy)]
enum Regime {
    /// 1–120 requests of 1–5 chunks over 8 videos, 1–49 ms apart.
    Small,
    /// Three hot videos over a cold tail of `videos`, requests of 1–5
    /// chunks, stamps that sometimes repeat.
    HotCold { n: usize, videos: u64 },
    /// The hot/cold mix on a clock that advances `pace.0 .. pace.0 +
    /// pace.1` ms per request, with one long silence just before Cafe's
    /// second sweep instant: it ages the whole cache at once, so that
    /// sweep's cutoff falls below the previous one.
    Paced {
        n: usize,
        videos: u64,
        pace: (u64, u64),
    },
    /// 6,000 requests, half to three hot videos and half over 100 videos
    /// of about 90 chunks: more than 4,096 requests and distinct chunks.
    Wide,
}

impl Regime {
    fn requests(self, rng: &mut DetRng) -> Vec<Request> {
        let n = match self {
            Regime::Small => 1 + rng.below(120) as usize,
            Regime::HotCold { n, .. } | Regime::Paced { n, .. } => n,
            Regime::Wide => 6_000,
        };
        let mut t = 0u64;
        (0..n)
            .map(|i| {
                let video = match self {
                    Regime::Small => rng.below(8),
                    Regime::Wide if rng.below(2) == 0 => rng.below(100),
                    Regime::Wide => rng.below(3),
                    Regime::HotCold { videos, .. } | Regime::Paced { videos, .. }
                        if rng.below(4) == 0 =>
                    {
                        rng.below(videos)
                    }
                    _ => rng.below(3),
                };
                let wide = matches!(self, Regime::Wide);
                let start = rng.below(if wide { 9_000 } else { 900 });
                let small_len = matches!(self, Regime::Small).then(|| 1 + rng.below(399));
                t += match self {
                    Regime::HotCold { .. } if rng.below(8) == 0 => 0,
                    Regime::Paced { pace, .. } if i % 8192 == 8190 => {
                        pace.0 + rng.below(pace.1) + 150_000
                    }
                    Regime::Paced { pace, .. } => pace.0 + rng.below(pace.1),
                    _ => 1 + rng.below(49),
                };
                let end = start + small_len.unwrap_or_else(|| rng.below(400));
                let bytes = ByteRange::new(start, end).expect("start <= end");
                Request::new(VideoId(video), bytes, Timestamp(t))
            })
            .collect()
    }
}

/// The small shape's cases from `seed`: a label, a trace, a disk of 1–11
/// chunks and an α, drawn in that order.
fn small_cases(seed: u64) -> impl Iterator<Item = (String, Vec<Request>, u64, f64)> {
    (0..CASES).map(move |case| {
        let mut rng = DetRng::new(seed ^ case);
        let reqs = Regime::Small.requests(&mut rng);
        let d = disk(&mut rng);
        (format!("small {case}"), reqs, d, alpha(&mut rng))
    })
}

/// Which corners the cases reached, each a named counter.
type Coverage = BTreeMap<&'static str, usize>;

fn note(cov: &mut Coverage, corner: &'static str, n: impl Into<usize>) {
    *cov.entry(corner).or_default() += n.into();
}

/// Requires every one of `corners` to have been reached.
fn require(cov: &Coverage, corners: &[&str]) {
    for corner in corners {
        let reached = cov.get(corner).is_some_and(|&n| n > 0);
        assert!(reached, "the cases must reach {corner}: {cov:?}");
    }
}

/// State beyond `CachePolicy`, compared after every request: the cache
/// age in ms and the popularity tracker's size.
type Probe = (f64, usize);

/// A fast policy under test.
trait Fast: CachePolicy {
    fn probe(&self, now: Timestamp) -> Probe;
    fn audit(&self) {}
}

impl Fast for LruCache {
    fn probe(&self, now: Timestamp) -> Probe {
        (self.cache_age(now).as_millis() as f64, 0)
    }
    fn audit(&self) {
        LruCache::audit(self);
    }
}

impl Fast for XlruCache {
    fn probe(&self, now: Timestamp) -> Probe {
        (self.cache_age(now).as_millis() as f64, self.tracker_len())
    }
    fn audit(&self) {
        XlruCache::audit(self);
    }
}

impl Fast for CafeCache {
    fn probe(&self, now: Timestamp) -> Probe {
        (self.cache_age_ms(now), self.tracked_chunks())
    }
    fn audit(&self) {
        CafeCache::audit(self);
    }
}

impl Fast for PsychicCache {
    fn probe(&self, now: Timestamp) -> Probe {
        (self.cache_age_ms(now), 0)
    }
}

/// A naive cache written from the paper's text.
trait Reference {
    /// Decides request number `seq` of the trace, noting the corners it
    /// reaches.
    fn handle(&mut self, seq: usize, r: &Request, cov: &mut Coverage)
        -> (Decision, DecisionDetail);
    /// Cached chunks.
    fn used(&self) -> usize;
    fn probe(&self, now: u64) -> Probe;
}

/// Runs `requests` through `fast` and `naive` side by side and requires
/// them to agree on everything; `plan` runs before each request. Adds the
/// corners reached to `coverage`; returns the fast policy and its
/// decisions.
fn lockstep<F: Fast, R: Reference>(
    mut fast: F,
    mut naive: R,
    requests: &[Request],
    mut plan: impl FnMut(usize, &Request, &mut F, &mut R),
    coverage: &mut Coverage,
    case: &str,
) -> (F, Vec<Decision>) {
    // Chunks the fast side has stored and not evicted.
    let mut present: BTreeSet<ChunkId> = BTreeSet::new();
    let mut decisions = Vec::with_capacity(requests.len());
    for (seq, r) in requests.iter().enumerate() {
        let at = || format!("{case} request #{seq} {r}");
        plan(seq, r, &mut fast, &mut naive);
        if seq % 64 == 0 {
            audit(&fast, &present, &at);
        }
        let (want, detail) = naive.handle(seq, r, coverage);
        let got = fast.handle_request(r);
        assert_eq!((&got, fast.decision_detail()), (&want, detail), "{}", at());
        let used = fast.disk_used_chunks();
        assert_eq!(used, naive.used() as u64, "{}", at());
        assert_eq!(fast.probe(r.t), naive.probe(r.t.0), "{}", at());
        // The contract: a serve covers the whole request, and the disk
        // holds.
        if let Decision::Serve(o) = &got {
            assert_eq!(o.served_chunks(), r.chunk_len(k()), "{}", at());
            let evicted = o.evicted.iter().copied();
            settle(&fast, &mut present, evicted, ids_of(r), &at);
        }
        assert!(used <= fast.disk_capacity_chunks(), "{}", at());
        decisions.push(got);
    }
    audit(&fast, &present, &|| format!("{case} end"));
    (fast, decisions)
}

/// The policy's own audit, and everything stored is still contained (the
/// reverse need not hold, since a policy may keep chunks the shadow set
/// stopped tracking).
fn audit(fast: &impl Fast, present: &BTreeSet<ChunkId>, at: &dyn Fn() -> String) {
    fast.audit();
    for id in present {
        assert!(fast.contains_chunk(*id), "{}: lost chunk {id}", at());
    }
}

/// Moves `evicted` out of the shadow set `present` and whichever of
/// `stored` the policy now holds into it. What leaves the disk must have
/// been stored (fills are genuinely stored and victims come from cached
/// content) and must be gone.
fn settle(
    policy: &dyn CachePolicy,
    present: &mut BTreeSet<ChunkId>,
    evicted: impl IntoIterator<Item = ChunkId>,
    stored: impl IntoIterator<Item = ChunkId>,
    at: &dyn Fn() -> String,
) {
    for e in evicted {
        assert!(present.remove(&e), "{}: evicted never-present {e}", at());
        assert!(!policy.contains_chunk(e), "{}", at());
    }
    for id in stored {
        match policy.contains_chunk(id) {
            true => present.insert(id),
            false => present.remove(&id),
        };
    }
}

/// A plan for a case that needs none.
fn straight<F, R>(_: usize, _: &Request, _: &mut F, _: &mut R) {}

// ---------------------------------------------------------------------------
// Figure 1: LRU and xLRU
// ---------------------------------------------------------------------------

/// A recency order the slow way. Times never decrease from touch to
/// touch, so `(time, touch number)` orders entries exactly as a
/// move-to-front list would.
struct NaiveOrder<K> {
    at: BTreeMap<K, (u64, u64)>,
    order: BTreeMap<(u64, u64), K>,
    touches: u64,
}

impl<K: Copy + Ord> NaiveOrder<K> {
    fn new() -> Self {
        let (at, order) = (BTreeMap::new(), BTreeMap::new());
        let touches = 0;
        NaiveOrder { at, order, touches }
    }

    /// Moves `key` to the newest position at time `t`; its previous time.
    fn touch(&mut self, key: K, t: u64) -> Option<u64> {
        self.touches += 1;
        let prev = self.at.insert(key, (t, self.touches));
        if let Some(stamp) = prev {
            self.order.remove(&stamp);
        }
        self.order.insert((t, self.touches), key);
        prev.map(|stamp| stamp.0)
    }

    fn pop_oldest(&mut self) -> Option<K> {
        let (_, key) = self.order.pop_first()?;
        self.at.remove(&key);
        Some(key)
    }

    fn oldest_time(&self) -> Option<u64> {
        self.order.first_key_value().map(|(stamp, _)| stamp.0)
    }

    fn is_newest(&self, key: &K) -> bool {
        self.order.last_key_value().map(|(_, k)| k) == Some(key)
    }

    /// Moves `key` to the oldest position with time 0 (touch numbers
    /// start at 1, so `(0, 0)` sorts below every real stamp).
    fn backdate(&mut self, key: K) {
        let stamp = self.at.insert(key, (0, 0)).expect("tracked key");
        self.order.remove(&stamp);
        self.order.insert((0, 0), key);
    }
}

/// The chunk disk of Figure 1, lines 5–7, and on its own plain LRU.
struct NaiveDisk {
    lru: NaiveOrder<ChunkId>,
    capacity: usize,
    /// Videos that lost their last cached chunk to an eviction.
    emptied: BTreeSet<VideoId>,
}

impl NaiveDisk {
    fn new(capacity: u64) -> Self {
        let (lru, emptied) = (NaiveOrder::new(), BTreeSet::new());
        let capacity = capacity as usize;
        NaiveDisk {
            lru,
            capacity,
            emptied,
        }
    }

    fn age(&self, now: u64) -> u64 {
        self.lru.oldest_time().map_or(0, |t| now - t)
    }

    fn has_chunk_of(&self, video: VideoId) -> bool {
        self.lru.at.keys().any(|id| id.video == video)
    }

    /// Refreshes the request's cached chunks, then fills the rest,
    /// evicting one chunk per filled chunk once the disk is full; a
    /// request larger than the disk keeps its tail.
    fn serve(&mut self, r: &Request, cov: &mut Coverage) -> Decision {
        let now = r.t.0;
        let (present, missing): (Vec<ChunkId>, Vec<ChunkId>) = ids_of(r)
            .into_iter()
            .partition(|id| self.lru.at.contains_key(id));
        for id in &present {
            note(cov, "head hits", self.lru.is_newest(id));
            self.lru.touch(*id, now);
        }
        let keep_from = missing.len().saturating_sub(self.capacity);
        note(cov, "requests larger than the disk", keep_from > 0);
        let mut evicted = Vec::new();
        let mut own = false;
        for id in &missing[keep_from..] {
            if self.lru.at.len() >= self.capacity {
                let old = self.lru.pop_oldest().expect("a full disk is not empty");
                own |= old.video == id.video;
                if !self.has_chunk_of(old.video) {
                    self.emptied.insert(old.video);
                }
                evicted.push(old);
            }
            let again = self.emptied.remove(&id.video);
            let corner = "videos cached again after their last chunk left";
            note(cov, corner, again);
            self.lru.touch(*id, now);
        }
        note(cov, "serves that evict the request's own video", own);
        Decision::Serve(ServeOutcome {
            hit_chunks: present.len() as u64,
            filled_chunks: missing.len() as u64,
            evicted,
        })
    }
}

impl Reference for NaiveDisk {
    fn handle(&mut self, _: usize, r: &Request, cov: &mut Coverage) -> (Decision, DecisionDetail) {
        let detail = DecisionDetail::age_only(self.age(r.t.0) as f64);
        (self.serve(r, cov), detail)
    }
    fn used(&self) -> usize {
        self.lru.at.len()
    }
    fn probe(&self, now: u64) -> Probe {
        (self.age(now) as f64, 0)
    }
}

struct NaiveXlru {
    disk: NaiveDisk,
    tracker: NaiveOrder<VideoId>,
    alpha: f64,
    handled: u64,
    /// Videos a sweep dropped from the tracker while they had chunks on
    /// disk, until their next request.
    forgotten: BTreeSet<VideoId>,
}

fn naive_xlru(capacity: u64, alpha: f64) -> NaiveXlru {
    let (tracker, handled, forgotten) = (NaiveOrder::new(), 0, BTreeSet::new());
    let disk = NaiveDisk::new(capacity);
    NaiveXlru {
        disk,
        tracker,
        alpha,
        handled,
        forgotten,
    }
}

impl Reference for NaiveXlru {
    fn handle(&mut self, _: usize, r: &Request, cov: &mut Coverage) -> (Decision, DecisionDetail) {
        let now = r.t.0;
        self.handled += 1;
        if self.handled.is_multiple_of(CLEANUP_INTERVAL) {
            // §5: history older than the cache age is of no use.
            let cutoff = now - self.disk.age(now);
            while self.tracker.oldest_time().is_some_and(|t| t < cutoff) {
                let video = self.tracker.pop_oldest().expect("non-empty");
                if self.disk.has_chunk_of(video) {
                    self.forgotten.insert(video);
                }
            }
        }
        // Figure 1 lines 1–2.
        let prev = self.tracker.touch(r.video, now);
        let warmup = self.disk.lru.at.len() < self.disk.capacity;
        let age = self.disk.age(now) as f64;
        let scaled_iat = prev.map(|t| (now - t) as f64 * self.alpha);
        let detail = match scaled_iat {
            Some(iat) if !warmup => DecisionDetail::costs(iat, age, age),
            _ => DecisionDetail::age_only(age),
        };
        let forgotten = self.forgotten.remove(&r.video);
        // Lines 3–4 (Eq. 5); a never-seen video always fails.
        if !warmup && scaled_iat.is_none_or(|iat| iat > age) {
            // Found on disk but never seen, and redirected.
            let cached = ids_of(r).iter().any(|id| self.disk.lru.at.contains_key(id));
            let corner = "forgotten videos with chunks on disk";
            note(cov, corner, forgotten && cached);
            return (Decision::Redirect, detail);
        }
        (self.disk.serve(r, cov), detail)
    }
    fn used(&self) -> usize {
        self.disk.used()
    }
    fn probe(&self, now: u64) -> Probe {
        (self.disk.age(now) as f64, self.tracker.at.len())
    }
}

/// Requests larger than the disk, serves that evict the request's own
/// video, re-admitted videos and head hits.
const DISK_CORNERS: [&str; 4] = [
    "requests larger than the disk",
    "serves that evict the request's own video",
    "videos cached again after their last chunk left",
    "head hits",
];

/// Plain LRU and its reference on a `d`-chunk disk.
fn lru(d: u64, reqs: &[Request], cov: &mut Coverage, at: &str) {
    let cfg = CacheConfig::new(d, k(), CostModel::balanced());
    lockstep(
        LruCache::new(cfg),
        NaiveDisk::new(d),
        reqs,
        straight,
        cov,
        at,
    );
}

/// LRU on the small shape.
pub fn lru_small() {
    for (at, reqs, d, _) in small_cases(0x11C0) {
        lru(d, &reqs, &mut Coverage::new(), &at);
    }
}

/// LRU on the hot/cold shape, over every disk of [`DISKS`].
pub fn lru_hot_cold() {
    let mut cov = Coverage::new();
    for (case, &d) in DISKS.iter().cycle().take(18).enumerate() {
        let mut rng = DetRng::new(0x71CA ^ case as u64);
        let n = 1_500 + rng.below(1_500) as usize;
        let reqs = Regime::HotCold { n, videos: 4 + d }.requests(&mut rng);
        lru(d, &reqs, &mut cov, &format!("case {case} (disk {d})"));
    }
    require(&cov, &DISK_CORNERS);
}

/// xLRU on the small shape.
pub fn xlru_small() {
    for (at, reqs, d, a) in small_cases(0x11C1) {
        let pair = (XlruCache::new(config(d, a)), naive_xlru(d, a));
        lockstep(pair.0, pair.1, &reqs, straight, &mut Coverage::new(), &at);
    }
}

/// xLRU on the hot/cold shape, two thirds of the cases swapped for a
/// restored snapshot on the way.
pub fn xlru_restores() {
    let mut cov = Coverage::new();
    for case in 0..36usize {
        let mut rng = DetRng::new(0x71C9 ^ case as u64);
        let d = DISKS[case % DISKS.len()];
        let alpha = ALPHAS[case % ALPHAS.len()];
        let n = 2_500 + rng.below(2_500) as usize;
        let reqs = Regime::HotCold { n, videos: 4 + d }.requests(&mut rng);
        // A third of the cases restore at a random point; a third restore
        // right before a tracker sweep, from a snapshot edited so the
        // sweep forgets a video that is on disk (in plain replay a video's
        // tracker stamp is never older than its chunks', so no sweep can);
        // the rest run straight through.
        let restore_at = match case % 3 {
            0 => Some(1 + rng.below(n as u64 - 1) as usize),
            1 => Some((CLEANUP_INTERVAL * (1 + rng.below(2))) as usize - 1),
            _ => None,
        };
        let plan = |seq, r: &Request, fast: &mut XlruCache, model: &mut NaiveXlru| {
            if Some(seq) != restore_at {
                return;
            }
            let mut snap = fast.snapshot();
            let cached = model.disk.has_chunk_of(r.video);
            if case % 3 == 1 && cached && model.tracker.at.contains_key(&r.video) {
                snap.tracker.retain(|e| e.0 != r.video);
                snap.tracker.insert(0, (r.video, Timestamp(0)));
                model.tracker.backdate(r.video);
            }
            *fast = XlruCache::restore(&snap).expect("snapshot restores");
            fast.audit();
        };
        let pair = (XlruCache::new(config(d, alpha)), naive_xlru(d, alpha));
        let at = format!("case {case} (disk {d}, alpha {alpha})");
        lockstep(pair.0, pair.1, &reqs, plan, &mut cov, &at);
    }
    require(&cov, &DISK_CORNERS);
    require(&cov, &["forgotten videos with chunks on disk"]);
}

// ---------------------------------------------------------------------------
// §6: Cafe
// ---------------------------------------------------------------------------

/// §6 as the text reads: one ordered map per table, every quantity
/// recomputed from the maps when it is needed, and a full sweep of both
/// trackers at every 4096th request whether or not anything can expire.
struct NaiveCafe {
    capacity: usize,
    costs: CostModel,
    /// Chunk → (EWMA of inter-arrival gaps, last request time).
    iat: BTreeMap<ChunkId, (Option<f64>, u64)>,
    video_seen: BTreeMap<VideoId, u64>,
    /// Cached chunk → virtual timestamp (Eq. 9).
    disk: BTreeMap<ChunkId, f64>,
    handled: u64,
    last_cutoff: u64,
}

impl NaiveCafe {
    fn new(cfg: CacheConfig) -> Self {
        let (capacity, costs) = (cfg.disk_chunks as usize, cfg.costs);
        let (iat, video_seen, disk) = (BTreeMap::new(), BTreeMap::new(), BTreeMap::new());
        NaiveCafe {
            capacity,
            costs,
            iat,
            video_seen,
            disk,
            handled: 0,
            last_cutoff: 0,
        }
    }

    /// Eq. 8 at `now`; `None` until the chunk has been requested twice.
    fn iat_at(&self, id: &ChunkId, now: u64) -> Option<f64> {
        let &(dt, t_last) = self.iat.get(id)?;
        let gap = now.saturating_sub(t_last) as f64;
        Some((GAMMA * gap + (1.0 - GAMMA) * dt?).max(1.0))
    }

    /// Cached chunks, least popular first.
    fn eviction_order(&self) -> Vec<(ChunkId, f64)> {
        let mut order: Vec<(ChunkId, f64)> = self.disk.iter().map(|(id, k)| (*id, *k)).collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        order
    }

    fn cache_age(&self, now: u64) -> f64 {
        match self.disk.values().copied().reduce(f64::min) {
            Some(key) => (now as f64 - key).max(0.0),
            None => 0.0,
        }
    }

    fn cached_chunks_of(&self, v: VideoId) -> impl Iterator<Item = &ChunkId> {
        self.disk.keys().filter(move |id| id.video == v)
    }

    fn sweep(&mut self, now: u64, cov: &mut Coverage) {
        let age = self.cache_age(now);
        if age <= 0.0 {
            return;
        }
        let cutoff = now.saturating_sub((2.0 * age) as u64);
        note(cov, "positive cutoffs", cutoff > 0);
        let falling = 0 < cutoff && cutoff <= self.last_cutoff;
        note(cov, "positive cutoffs that do not rise", falling);
        self.last_cutoff = cutoff;
        let (chunks, videos) = (self.iat.len(), self.video_seen.len());
        let disk = &self.disk;
        self.iat
            .retain(|id, &mut (_, t_last)| t_last >= cutoff || disk.contains_key(id));
        self.video_seen
            .retain(|v, t| *t >= cutoff || disk.keys().any(|id| id.video == *v));
        note(cov, "swept chunks", chunks - self.iat.len());
        note(cov, "swept videos", videos - self.video_seen.len());
    }
}

impl Reference for NaiveCafe {
    fn handle(&mut self, _: usize, r: &Request, cov: &mut Coverage) -> (Decision, DecisionDetail) {
        let now = r.t.0;
        self.handled += 1;
        if self.handled.is_multiple_of(4096) {
            self.sweep(now, cov);
        }
        let known = self.video_seen.contains_key(&r.video)
            || self.cached_chunks_of(r.video).next().is_some();
        let ids = ids_of(r);
        let mut missing = Vec::new();
        for id in &ids {
            match self.iat.get_mut(id) {
                None => {
                    self.iat.insert(*id, (None, now));
                }
                Some((dt, t_last)) => {
                    let gap = now.saturating_sub(*t_last) as f64;
                    *dt = Some(dt.map_or(gap, |dt| GAMMA * gap + (1.0 - GAMMA) * dt));
                    *t_last = now;
                }
            }
            let iat = self.iat_at(id, now);
            match self.disk.get_mut(id) {
                Some(key) => *key = now as f64 - iat.unwrap_or(0.0),
                None => missing.push((*id, iat)),
            }
        }
        self.video_seen.insert(r.video, now);

        let warmup = self.disk.len() < self.capacity;
        let cached = self.cached_chunks_of(r.video);
        let estimate = cached
            .filter_map(|id| self.iat_at(id, now))
            .reduce(f64::max);
        let age = self.cache_age(now);
        let evict_needed = (self.disk.len() + missing.len()).saturating_sub(self.capacity);
        let victims: Vec<ChunkId> = self
            .eviction_order()
            .iter()
            .map(|(id, _)| *id)
            .filter(|id| !ids.contains(id))
            .take(evict_needed)
            .collect();
        let mut detail = DecisionDetail::age_only(age);
        let serve = warmup
            || (known
                && (missing.is_empty() || {
                    let future = |iat: Option<f64>| iat.map_or(0.0, |iat| age / iat.max(1.0));
                    let min_cost = self.costs.min_cost();
                    let mut e_serve = missing.len() as f64 * self.costs.c_f();
                    for v in &victims {
                        e_serve += future(self.iat_at(v, now)) * min_cost;
                    }
                    let mut e_redirect = ids.len() as f64 * self.costs.c_r();
                    for (_, iat) in &missing {
                        e_redirect += future(iat.or(estimate)) * min_cost;
                    }
                    detail = DecisionDetail::costs(e_serve, e_redirect, age);
                    e_serve <= e_redirect
                }));
        if !serve {
            return (Decision::Redirect, detail);
        }
        for v in &victims {
            self.disk.remove(v);
        }
        // A request larger than the disk keeps only its tail.
        let free = self.capacity - self.disk.len();
        for (id, iat) in &missing[missing.len().saturating_sub(free)..] {
            let key = now as f64 - iat.or(estimate).unwrap_or(0.0);
            self.disk.insert(*id, key);
        }
        let outcome = ServeOutcome {
            hit_chunks: (ids.len() - missing.len()) as u64,
            filled_chunks: missing.len() as u64,
            evicted: victims,
        };
        (Decision::Serve(outcome), detail)
    }
    fn used(&self) -> usize {
        self.disk.len()
    }
    fn probe(&self, now: u64) -> Probe {
        (self.cache_age(now), self.iat.len())
    }
}

/// Cafe and its reference on `reqs`, straight through.
fn cafe_straight(reqs: &[Request], d: u64, alpha: f64, at: &str) -> Vec<Decision> {
    let cfg = config(d, alpha);
    let fast = CafeCache::new(CafeConfig::new(d, k(), cfg.costs));
    lockstep(
        fast,
        NaiveCafe::new(cfg),
        reqs,
        straight,
        &mut Coverage::new(),
        at,
    )
    .1
}

/// Cafe on the small shape, on a disk of 1–11 chunks.
pub fn cafe_small() {
    for (at, reqs, d, a) in small_cases(0x11C2) {
        cafe_straight(&reqs, d, a, &at);
    }
}

/// Cafe on the small shape twice in one process, with the same decisions.
pub fn cafe_twice() {
    for (at, reqs, d, a) in small_cases(0x11C4) {
        let run = || cafe_straight(&reqs, d, a, &at);
        assert_eq!(run(), run(), "{at}");
    }
}

/// Cafe on the small shape on a disk that never evicts, where a range
/// served once is always served again without a fill.
pub fn cafe_full_hits() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C5 ^ case);
        let reqs = Regime::Small.requests(&mut rng);
        let a = alpha(&mut rng);
        let decisions = cafe_straight(&reqs, 10_000, a, &format!("full hits {case}"));
        let mut served_once: BTreeSet<(VideoId, u64, u64)> = BTreeSet::new();
        for (r, d) in reqs.iter().zip(&decisions) {
            let key = (r.video, r.bytes.start, r.bytes.end);
            if served_once.contains(&key) {
                let refill = matches!(d, Decision::Serve(o) if o.filled_chunks > 0);
                assert!(d.is_serve(), "case {case}: filled request redirected: {r}");
                assert!(!refill, "case {case}: refill of cached range");
            }
            if d.is_serve() {
                served_once.insert(key);
            }
        }
    }
}

/// Cafe on the long shapes, (requests, videos, disk, pace): the first
/// never fills its disk and opens with a video nobody asks for again, so
/// the cache age is the age of the trace and every cutoff is 0; the next
/// two keep a small hot cache whose sweeps really drop state. Those three
/// see a request every 1–49 ms and keep their disk within a few rank-index
/// buckets (65.5 s each); the last one's clock advances 5–40 s per
/// request, so its disk spans hundreds of them.
pub fn cafe_long() {
    let mut cov = Coverage::new();
    let mut widest = 0.0f64;
    let fast = (1, 49);
    let shapes = [
        (9_000, 8, 500, fast),
        (13_000, 60, 9, fast),
        (9_000, 200, 24, fast),
    ];
    let slow = (9_000, 300, 160, (5_000, 35_001));
    let cases = shapes.iter().cycle().take(9);
    let cases = cases.chain(std::iter::repeat_n(&slow, 3));
    for (case, &(n, videos, d, pace)) in cases.enumerate() {
        let mut rng = DetRng::new(0x11C7 ^ case as u64);
        let mut reqs = Regime::Paced { n, videos, pace }.requests(&mut rng);
        if d == 500 {
            reqs[0].video = VideoId(videos);
        }
        let cfg = config(d, alpha(&mut rng));
        // Two thirds of the cases swap the cache for a restored snapshot
        // of itself at a random request.
        let restore_at = (case % 3 != 2).then(|| 1 + rng.below(n as u64 - 1) as usize);
        let plan = |seq, _: &Request, fast: &mut CafeCache, _: &mut NaiveCafe| {
            if Some(seq) == restore_at {
                fast.audit();
                *fast = CafeCache::restore(&fast.snapshot()).expect("own snapshot restores");
                fast.audit();
            }
        };
        let fast = CafeCache::new(CafeConfig::new(d, k(), cfg.costs));
        let naive = NaiveCafe::new(cfg);
        let (mut case_cov, at) = (Coverage::new(), format!("case {case}"));
        let (fast, _) = lockstep(fast, naive, &reqs, plan, &mut case_cov, &at);
        let keys: Vec<f64> = fast.snapshot().disk.iter().map(|e| e.1).collect();
        if let (Some(low), Some(high)) = (keys.first(), keys.last()) {
            widest = widest.max((high - low) / vcdn_core::ds::BUCKET_WIDTH_MS);
        }
        let idle = case_cov.get("positive cutoffs").is_none_or(|&n| n == 0);
        assert_eq!(d == 500, idle, "{at}");
        note(&mut case_cov, "runs whose cutoff stays 0", idle);
        case_cov
            .into_iter()
            .for_each(|(corner, n)| note(&mut cov, corner, n));
    }
    require(
        &cov,
        &[
            "swept chunks",
            "swept videos",
            "runs whose cutoff stays 0",
            "positive cutoffs that do not rise",
        ],
    );
    assert!(widest >= 200.0, "widest disk: {widest} buckets");
}

// ---------------------------------------------------------------------------
// §8: Psychic
// ---------------------------------------------------------------------------

/// §8 as the text reads, with nothing precomputed: per-chunk lists of the
/// not-yet-replayed `(sequence number, time)` pairs, a linear scan for each
/// victim, Eqs. 13–14 summed straight from the lists.
struct NaivePsychic {
    capacity: usize,
    costs: CostModel,
    n: usize,
    future: BTreeMap<ChunkId, Vec<(usize, u64)>>,
    /// Cached chunk → insertion time.
    disk: BTreeMap<ChunkId, u64>,
    mean_residency_ms: f64,
    evictions: u64,
    start: Option<u64>,
    /// Victims a redirect picked and left alone.
    reprieved: BTreeSet<ChunkId>,
}

impl NaivePsychic {
    fn new(cfg: CacheConfig, n: usize, reqs: &[Request]) -> Self {
        let mut future: BTreeMap<ChunkId, Vec<(usize, u64)>> = BTreeMap::new();
        for (seq, r) in reqs.iter().enumerate() {
            for id in ids_of(r) {
                future.entry(id).or_default().push((seq, r.t.0));
            }
        }
        NaivePsychic {
            capacity: cfg.disk_chunks as usize,
            costs: cfg.costs,
            n,
            future,
            disk: BTreeMap::new(),
            mean_residency_ms: 0.0,
            evictions: 0,
            start: None,
            reprieved: BTreeSet::new(),
        }
    }

    /// The sequence number of the chunk's next request, `usize::MAX` for
    /// never.
    fn next_of(&self, id: &ChunkId) -> usize {
        self.future[id].first().map_or(usize::MAX, |o| o.0)
    }

    fn age(&self, now: u64) -> f64 {
        match self.evictions {
            0 => self.start.map_or(0.0, |start| (now - start) as f64),
            _ => self.mean_residency_ms,
        }
    }

    /// Notes the tie-breaks an order on integers could get wrong among the
    /// cached chunks: two never-again chunks, two chunks waiting for the
    /// same future request.
    fn note_ties(&self, cov: &mut Coverage) {
        let mut nexts: Vec<usize> = self.disk.keys().map(|id| self.next_of(id)).collect();
        nexts.sort_unstable();
        for w in nexts.windows(2).filter(|w| w[0] == w[1]) {
            match w[0] {
                usize::MAX => note(cov, "never-again ties", true),
                _ => note(cov, "same-request ties", true),
            }
        }
    }

    /// Notes what the victim search for a request of `ids` went through.
    fn note_walk(&self, ids: &[ChunkId], victims: &[ChunkId], needed: usize, cov: &mut Coverage) {
        let mut days: Vec<usize> = victims.iter().map(|v| self.next_of(v)).collect();
        // How far down the order the search went: to its last victim, or
        // through everything if it fell short.
        let reached = match days.last() {
            Some(&last) if victims.len() == needed => last,
            _ => 0,
        };
        days.dedup();
        let never = days.first() == Some(&usize::MAX);
        // Victims that are never-again chunks *and* chunks waiting for two
        // or more different requests.
        let corner = "victims from never-again and two future requests";
        note(cov, corner, never && days.len() >= 3);
        let shared = |day: usize| {
            let mut waiting = self.disk.keys().filter(|id| self.next_of(id) == day);
            waiting.any(|id| !ids.contains(id))
        };
        let mut own_days = ids
            .iter()
            .filter(|id| self.disk.contains_key(id))
            .map(|id| self.next_of(id))
            .filter(|&day| day > reached && day != usize::MAX);
        // The search went past a future request that, of the cached
        // chunks, only the request's own were waiting for.
        let past_own_day = needed > 0 && own_days.any(|day| !shared(day));
        let corner = "searches past a request only the own chunks wait for";
        note(cov, corner, past_own_day);
    }
}

impl Reference for NaivePsychic {
    fn handle(
        &mut self,
        seq: usize,
        r: &Request,
        cov: &mut Coverage,
    ) -> (Decision, DecisionDetail) {
        let now = r.t.0;
        let oversized = r.chunk_len(k()) > self.capacity as u64;
        note(cov, "requests larger than the disk", oversized);
        self.note_ties(cov);
        self.start.get_or_insert(now);
        let ids = ids_of(r);
        for id in &ids {
            self.future
                .get_mut(id)
                .expect("built")
                .retain(|&(s, _)| s > seq);
        }
        let missing: Vec<ChunkId> = ids
            .iter()
            .copied()
            .filter(|id| !self.disk.contains_key(id))
            .collect();
        let age = self.age(now);
        // Belady: the largest (next sequence number or ∞, ChunkId) first.
        let evict_needed = (self.disk.len() + missing.len()).saturating_sub(self.capacity);
        let mut victims: Vec<ChunkId> = Vec::new();
        while victims.len() < evict_needed {
            let farthest = self
                .disk
                .keys()
                .filter(|id| !ids.contains(id) && !victims.contains(id))
                .max_by_key(|id| (self.next_of(id), **id));
            match farthest {
                Some(&id) => victims.push(id),
                None => break,
            }
        }
        self.note_walk(&ids, &victims, evict_needed, cov);
        let value = |id: &ChunkId| -> f64 {
            let times = self.future[id].iter().take(self.n);
            times.map(|&(_, t)| age / ((t - now) as f64).max(1.0)).sum()
        };
        let mut detail = DecisionDetail::age_only(age);
        let serve = self.disk.len() < self.capacity || missing.is_empty() || {
            let min_cost = self.costs.min_cost();
            let mut e_serve = missing.len() as f64 * self.costs.c_f();
            for v in &victims {
                e_serve += value(v) * min_cost;
            }
            let mut e_redirect = ids.len() as f64 * self.costs.c_r();
            for m in &missing {
                e_redirect += value(m) * min_cost;
            }
            detail = DecisionDetail::costs(e_serve, e_redirect, age);
            e_serve <= e_redirect
        };
        if !serve {
            self.reprieved.extend(&victims);
            return (Decision::Redirect, detail);
        }
        let again = victims
            .iter()
            .filter(|id| self.reprieved.remove(id))
            .count();
        note(cov, "evictions after a reprieve", again > 0);
        for v in &victims {
            let residency = (now - self.disk.remove(v).expect("cached")) as f64;
            self.evictions += 1;
            self.mean_residency_ms += (residency - self.mean_residency_ms) / self.evictions as f64;
        }
        // A request larger than the disk keeps only its tail.
        let free = self.capacity - self.disk.len();
        for m in &missing[missing.len().saturating_sub(free)..] {
            self.disk.insert(*m, now);
        }
        let outcome = ServeOutcome {
            hit_chunks: (ids.len() - missing.len()) as u64,
            filled_chunks: missing.len() as u64,
            evicted: victims,
        };
        (Decision::Serve(outcome), detail)
    }
    fn used(&self) -> usize {
        self.disk.len()
    }
    fn probe(&self, now: u64) -> Probe {
        (self.age(now), 0)
    }
}

/// Psychic with future lists of `n` and its reference on `reqs`.
fn psychic(reqs: &[Request], d: u64, a: f64, n: usize, cov: &mut Coverage, case: &str) {
    let cfg = config(d, a);
    let psychic = PsychicConfig::new(d, k(), cfg.costs).with_future_list_bound(n);
    let naive = NaivePsychic::new(cfg, n, reqs);
    let at = format!("{case} N={n}");
    lockstep(
        PsychicCache::new(psychic, reqs),
        naive,
        reqs,
        straight,
        cov,
        &at,
    );
}

/// Psychic on the small shape with future lists of 10.
pub fn psychic_small() {
    for (at, reqs, d, a) in small_cases(0x11C3) {
        psychic(&reqs, d, a, 10, &mut Coverage::new(), &at);
    }
}

/// Psychic on the small shape at N = 1, 3 and 10, then on the wide shape.
pub fn psychic_long() {
    let mut cov = Coverage::new();
    for (at, reqs, d, a) in small_cases(0x11C6) {
        for n in [1, 3, 10] {
            psychic(&reqs, d, a, n, &mut cov, &at);
        }
    }
    // Long cases: more than 4096 requests and more than 4096 distinct
    // chunks, so the calendar's two bitmaps (one bit per request, one per
    // chunk) run three levels deep. Half the requests go to three hot
    // videos a disk of this size holds a good part of.
    for (case, d) in [(0u64, 64), (1, 128), (2, 256)] {
        let mut rng = DetRng::new(0x11C8 ^ case);
        let reqs = Regime::Wide.requests(&mut rng);
        let videos: BTreeSet<VideoId> = reqs.iter().map(|r| r.video).collect();
        let chunks: BTreeSet<ChunkId> = reqs.iter().flat_map(ids_of).collect();
        let long = videos.len() >= 64 && chunks.len() > 4096;
        assert!(long, "long case {case}");
        let a = alpha(&mut rng);
        psychic(&reqs, d, a, 10, &mut cov, &format!("long {case}"));
    }
    require(
        &cov,
        &[
            "never-again ties",
            "same-request ties",
            "requests larger than the disk",
            "victims from never-again and two future requests",
            "searches past a request only the own chunks wait for",
            "evictions after a reprieve",
        ],
    );
}
