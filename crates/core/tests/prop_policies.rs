//! Randomized tests over the cache policies themselves: contract
//! invariants under arbitrary (time-ordered) request sequences.
//!
//! The workspace builds offline, so instead of an external property-test
//! framework these loop over [`DetRng`]-generated cases; failures print the
//! case number.

use std::collections::{BTreeMap, BTreeSet};

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, DecisionDetail, LruCache, PsychicCache,
    PsychicConfig, XlruCache,
};
use vcdn_trace::rng::DetRng;
use vcdn_types::{
    ByteRange, ChunkId, ChunkSize, CostModel, Decision, Request, ServeOutcome, Timestamp, VideoId,
};

const CASES: u64 = 64;

fn k() -> ChunkSize {
    ChunkSize::new(100).expect("non-zero")
}

/// A random time-ordered request sequence over a small universe.
fn requests(rng: &mut DetRng) -> Vec<Request> {
    let n = 1 + rng.below(120) as usize;
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            let video = rng.below(8);
            let start = rng.below(900);
            let len = 1 + rng.below(399);
            t += 1 + rng.below(49);
            Request::new(
                VideoId(video),
                ByteRange::new(start, start + len).expect("start <= end"),
                Timestamp(t),
            )
        })
        .collect()
}

fn alpha(rng: &mut DetRng) -> f64 {
    [0.5, 1.0, 2.0, 4.0][rng.below(4) as usize]
}

fn disk(rng: &mut DetRng) -> u64 {
    1 + rng.below(11)
}

/// Exercises one policy against the CachePolicy contract.
fn check_contract(policy: &mut dyn CachePolicy, reqs: &[Request], case: u64) {
    let mut present: std::collections::BTreeSet<vcdn_types::ChunkId> =
        std::collections::BTreeSet::new();
    for r in reqs {
        let chunks = r.chunk_len(k());
        match policy.handle_request(r) {
            Decision::Serve(o) => {
                // Serve covers the whole request.
                assert_eq!(o.served_chunks(), chunks, "case {case}");
                // Evicted chunks were previously present (fills are
                // genuinely stored and victims come from cached content)
                // and are no longer contained.
                for e in &o.evicted {
                    assert!(present.remove(e), "case {case}: evicted never-present {e}");
                    assert!(!policy.contains_chunk(*e), "case {case}");
                }
                for c in r.chunk_range(k()).iter() {
                    let id = vcdn_types::ChunkId::new(r.video, c);
                    if policy.contains_chunk(id) {
                        present.insert(id);
                    } else {
                        present.remove(&id);
                    }
                }
            }
            Decision::Redirect => {}
        }
        // Capacity invariant.
        assert!(
            policy.disk_used_chunks() <= policy.disk_capacity_chunks(),
            "case {case}"
        );
        // Shadow set consistency: everything we believe present is
        // reported as contained (the reverse need not hold since policies
        // may keep chunks we stopped tracking).
        for id in &present {
            assert!(policy.contains_chunk(*id), "case {case}: lost chunk {id}");
        }
    }
}

#[test]
fn lru_contract() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C0 ^ case);
        let reqs = requests(&mut rng);
        let cfg = CacheConfig::new(disk(&mut rng), k(), CostModel::balanced());
        check_contract(&mut LruCache::new(cfg), &reqs, case);
    }
}

#[test]
fn xlru_contract() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C1 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let a = alpha(&mut rng);
        let cfg = CacheConfig::new(d, k(), CostModel::from_alpha(a).expect("valid"));
        check_contract(&mut XlruCache::new(cfg), &reqs, case);
    }
}

#[test]
fn cafe_contract() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C2 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        let mut cache = CafeCache::new(CafeConfig::new(d, k(), costs));
        check_contract(&mut cache, &reqs, case);
    }
}

#[test]
fn psychic_contract() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C3 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        let mut cache = PsychicCache::new(PsychicConfig::new(d, k(), costs), &reqs);
        check_contract(&mut cache, &reqs, case);
    }
}

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
    /// The victims the last request picked, evicted or not.
    picked: Vec<ChunkId>,
    /// Requests whose victims were never-again chunks *and* chunks waiting
    /// for two or more different requests.
    walks_never_and_two_days: usize,
    /// Requests whose victim search went past a future request that, of
    /// the cached chunks, only the request's own were waiting for.
    walks_past_own_day: usize,
}

impl NaivePsychic {
    fn new(capacity: u64, costs: CostModel, n: usize, reqs: &[Request]) -> Self {
        let mut future: BTreeMap<ChunkId, Vec<(usize, u64)>> = BTreeMap::new();
        for (seq, r) in reqs.iter().enumerate() {
            for c in r.chunk_range(k()).iter() {
                let id = ChunkId::new(r.video, c);
                future.entry(id).or_default().push((seq, r.t.0));
            }
        }
        NaivePsychic {
            capacity: capacity as usize,
            costs,
            n,
            future,
            disk: Default::default(),
            mean_residency_ms: 0.0,
            evictions: 0,
            start: None,
            picked: Vec::new(),
            walks_never_and_two_days: 0,
            walks_past_own_day: 0,
        }
    }

    /// The sequence number of the chunk's next request, `usize::MAX` for
    /// never.
    fn next_of(&self, id: &ChunkId) -> usize {
        self.future[id].first().map_or(usize::MAX, |o| o.0)
    }

    /// Counts what the victim search for a request of `ids` went through.
    fn note_walk(&mut self, ids: &[ChunkId], victims: &[ChunkId], evict_needed: usize) {
        let mut days: Vec<usize> = victims.iter().map(|v| self.next_of(v)).collect();
        // How far down the order the search went: to its last victim, or
        // through everything if it fell short.
        let reached = match days.last() {
            Some(&last) if victims.len() == evict_needed => last,
            _ => 0,
        };
        days.dedup();
        let never = days.first() == Some(&usize::MAX);
        self.walks_never_and_two_days += usize::from(never && days.len() >= 3);
        let shared = |day: usize| {
            let mut waiting = self.disk.keys().filter(|id| self.next_of(id) == day);
            waiting.any(|id| !ids.contains(id))
        };
        let mut own_days = ids
            .iter()
            .filter(|id| self.disk.contains_key(id))
            .map(|id| self.next_of(id))
            .filter(|&day| day > reached && day != usize::MAX);
        let past_own_day = evict_needed > 0 && own_days.any(|day| !shared(day));
        self.walks_past_own_day += usize::from(past_own_day);
    }

    fn handle(&mut self, seq: usize, r: &Request) -> (Decision, DecisionDetail) {
        let now = r.t.0;
        let start = *self.start.get_or_insert(now);
        let ids: Vec<ChunkId> = r
            .chunk_range(k())
            .iter()
            .map(|c| ChunkId::new(r.video, c))
            .collect();
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
        let age = match self.evictions {
            0 => (now - start) as f64,
            _ => self.mean_residency_ms,
        };
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
        self.note_walk(&ids, &victims, evict_needed);
        self.picked.clone_from(&victims);
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
            return (Decision::Redirect, detail);
        }
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
}

/// What the cases of `psychic_matches_reference` went through.
#[derive(Debug, Default)]
struct PsychicCoverage {
    ties_never: usize,
    ties_same_request: usize,
    oversized: usize,
    walks_never_and_two_days: usize,
    walks_past_own_day: usize,
    /// Serves that evicted a chunk an earlier redirect had picked as a
    /// victim and left alone.
    evicted_after_reprieve: usize,
}

/// Replays `reqs` through `PsychicCache` and the naive reference and
/// requires every decision and every cost term to be equal.
fn psychic_agrees(
    reqs: &[Request],
    d: u64,
    costs: CostModel,
    n: usize,
    case: &str,
    seen: &mut PsychicCoverage,
) {
    let cfg = PsychicConfig::new(d, k(), costs).with_future_list_bound(n);
    let mut cache = PsychicCache::new(cfg, reqs);
    let mut naive = NaivePsychic::new(d, costs, n, reqs);
    let mut reprieved: BTreeSet<ChunkId> = BTreeSet::new();
    for (seq, r) in reqs.iter().enumerate() {
        seen.oversized += usize::from(r.chunk_len(k()) > d);
        // The tie-breaks an order on integers could get wrong: two cached
        // never-again chunks, two cached chunks waiting for the same
        // future request.
        let mut nexts: Vec<usize> = naive.disk.keys().map(|id| naive.next_of(id)).collect();
        nexts.sort_unstable();
        for w in nexts.windows(2).filter(|w| w[0] == w[1]) {
            if w[0] == usize::MAX {
                seen.ties_never += 1;
            } else {
                seen.ties_same_request += 1;
            }
        }
        let want = naive.handle(seq, r);
        match &want.0 {
            Decision::Redirect => reprieved.extend(&naive.picked),
            Decision::Serve(o) => {
                let again = o.evicted.iter().filter(|id| reprieved.remove(id)).count();
                seen.evicted_after_reprieve += usize::from(again > 0);
            }
        }
        let got = cache.handle_request(r);
        assert_eq!(
            (got, cache.decision_detail()),
            want,
            "case {case} N={n} request #{seq} {r}"
        );
        assert_eq!(cache.disk_used_chunks(), naive.disk.len() as u64);
    }
    seen.walks_never_and_two_days += naive.walks_never_and_two_days;
    seen.walks_past_own_day += naive.walks_past_own_day;
}

#[test]
fn psychic_matches_reference() {
    let mut seen = PsychicCoverage::default();
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C6 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        for n in [1, 3, 10] {
            psychic_agrees(&reqs, d, costs, n, &case.to_string(), &mut seen);
        }
    }
    // Long cases: more than 4096 requests and more than 4096 distinct
    // chunks, so the calendar's two bitmaps (one bit per request, one per
    // chunk) run three levels deep. Half the requests go to three hot
    // videos a disk of this size holds a good part of.
    for (case, d) in [(0u64, 64), (1, 128), (2, 256)] {
        let mut rng = DetRng::new(0x11C8 ^ case);
        let mut t = 0u64;
        let reqs: Vec<Request> = (0..6_000)
            .map(|_| {
                let video = match rng.below(2) {
                    0 => rng.below(100),
                    _ => rng.below(3),
                };
                let start = rng.below(9_000);
                t += 1 + rng.below(49);
                Request::new(
                    VideoId(video),
                    ByteRange::new(start, start + rng.below(400)).expect("start <= end"),
                    Timestamp(t),
                )
            })
            .collect();
        let videos: BTreeSet<VideoId> = reqs.iter().map(|r| r.video).collect();
        let chunks: BTreeSet<ChunkId> = reqs
            .iter()
            .flat_map(|r| r.chunk_range(k()).iter().map(|c| ChunkId::new(r.video, c)))
            .collect();
        assert!(
            videos.len() >= 64 && chunks.len() > 4096,
            "long case {case}"
        );
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        psychic_agrees(&reqs, d, costs, 10, &format!("long {case}"), &mut seen);
    }
    let counts = [
        seen.ties_never,
        seen.ties_same_request,
        seen.oversized,
        seen.walks_never_and_two_days,
        seen.walks_past_own_day,
        seen.evicted_after_reprieve,
    ];
    assert!(
        counts.iter().all(|&count| count > 0),
        "cases must cover both tie kinds, oversized requests, victims from never-again and two \
         future requests at once, a search past a request only the own chunks wait for, and an \
         eviction after a reprieve: {seen:?}"
    );
}

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
    swept_chunks: usize,
    swept_videos: usize,
    positive_cutoffs: usize,
    last_cutoff: u64,
    falling_cutoffs: usize,
}

const GAMMA: f64 = 0.25;

impl NaiveCafe {
    fn new(capacity: u64, costs: CostModel) -> Self {
        NaiveCafe {
            capacity: capacity as usize,
            costs,
            iat: BTreeMap::new(),
            video_seen: BTreeMap::new(),
            disk: BTreeMap::new(),
            handled: 0,
            swept_chunks: 0,
            swept_videos: 0,
            positive_cutoffs: 0,
            last_cutoff: 0,
            falling_cutoffs: 0,
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
        match self.eviction_order().first() {
            Some(&(_, key)) => (now as f64 - key).max(0.0),
            None => 0.0,
        }
    }

    fn cached_chunks_of(&self, v: VideoId) -> impl Iterator<Item = &ChunkId> {
        self.disk.keys().filter(move |id| id.video == v)
    }

    fn sweep(&mut self, now: u64) {
        let age = self.cache_age(now);
        if age <= 0.0 {
            return;
        }
        let cutoff = now.saturating_sub((2.0 * age) as u64);
        self.positive_cutoffs += usize::from(cutoff > 0);
        self.falling_cutoffs += usize::from(0 < cutoff && cutoff <= self.last_cutoff);
        self.last_cutoff = cutoff;
        let (chunks, videos) = (self.iat.len(), self.video_seen.len());
        let disk = &self.disk;
        self.iat
            .retain(|id, &mut (_, t_last)| t_last >= cutoff || disk.contains_key(id));
        self.video_seen
            .retain(|v, t| *t >= cutoff || disk.keys().any(|id| id.video == *v));
        self.swept_chunks += chunks - self.iat.len();
        self.swept_videos += videos - self.video_seen.len();
    }

    /// `CafeCache::prefetch`: fill a tracked chunk if there is room or it
    /// is strictly more popular than the least popular cached chunk.
    #[allow(clippy::result_unit_err)]
    fn prefetch(&mut self, id: ChunkId, now: u64) -> Result<Option<ChunkId>, ()> {
        if self.disk.contains_key(&id) {
            return Err(());
        }
        let key = now as f64 - self.iat_at(&id, now).ok_or(())?;
        let evicted = match self.eviction_order().first() {
            _ if self.disk.len() < self.capacity => None,
            Some(&(victim, victim_key)) if victim_key < key => Some(victim),
            _ => return Err(()),
        };
        if let Some(victim) = evicted {
            self.disk.remove(&victim);
        }
        self.disk.insert(id, key);
        Ok(evicted)
    }

    fn handle(&mut self, r: &Request) -> (Decision, DecisionDetail) {
        let now = r.t.0;
        self.handled += 1;
        if self.handled.is_multiple_of(4096) {
            self.sweep(now);
        }
        let known = self.video_seen.contains_key(&r.video)
            || self.cached_chunks_of(r.video).next().is_some();
        let ids: Vec<ChunkId> = r
            .chunk_range(k())
            .iter()
            .map(|c| ChunkId::new(r.video, c))
            .collect();
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
}

/// A long time-ordered trace: a few hot videos among `videos`, so a small
/// disk stays young while the cold tail's state goes stale. One long
/// silence just before the second sweep instant ages the whole cache at
/// once, so that sweep's cutoff falls below the previous one. The clock
/// advances `pace.0 .. pace.0 + pace.1` ms per request.
fn long_requests(rng: &mut DetRng, n: usize, videos: u64, pace: (u64, u64)) -> Vec<Request> {
    let mut t = 0u64;
    (0..n)
        .map(|i| {
            let video = match rng.below(4) {
                0 => rng.below(videos),
                _ => rng.below(3),
            };
            let start = rng.below(900);
            t += pace.0 + rng.below(pace.1);
            if i % 8192 == 8190 {
                t += 150_000;
            }
            Request::new(
                VideoId(video),
                ByteRange::new(start, start + rng.below(400)).expect("start <= end"),
                Timestamp(t),
            )
        })
        .collect()
}

#[test]
fn cafe_matches_reference() {
    let (mut swept_chunks, mut swept_videos, mut idle_runs) = (0, 0, 0);
    let (mut falling, mut prefetched, mut widest) = (0, 0, 0.0f64);
    // (requests, videos, disk, pace): the first shape never fills its disk
    // and opens with a video nobody asks for again, so the cache age is the
    // age of the trace and every cutoff is 0; the next two keep a small hot
    // cache whose sweeps really drop state. Those three see a request
    // every 1–49 ms and keep their disk within a few rank-index buckets
    // (65.5 s each); the last one's clock advances 5–40 s per request, so
    // its disk spans hundreds of them.
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
        let mut reqs = long_requests(&mut rng, n, videos, pace);
        if d == 500 {
            reqs[0].video = VideoId(videos);
        }
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        // Some cases keep the hot mirror live, some swap the cache for a
        // restored snapshot of itself half-way, some both.
        let mirror = case % 2 == 1;
        let restore_at = (case % 3 != 2).then(|| 1 + rng.below(n as u64 - 1) as usize);
        let mut cache = CafeCache::new(CafeConfig::new(d, k(), costs));
        let mut naive = NaiveCafe::new(d, costs);
        for (seq, r) in reqs.iter().enumerate() {
            if Some(seq) == restore_at {
                cache.audit();
                cache = CafeCache::restore(&cache.snapshot()).expect("own snapshot restores");
                cache.audit();
            }
            if mirror && (seq == 0 || Some(seq) == restore_at) {
                cache.prefetch_candidates(0, r.t);
            }
            let at = || format!("case {case} request #{seq} {r}");
            // Prefetching is the one way a chunk gets cached with a key
            // above its own last request — cold enough for a sweep's
            // cutoff to pass it while it sits on disk.
            if rng.below(16) == 0 {
                let id = ChunkId::new(VideoId(rng.below(videos)), rng.below(13) as u32);
                let want = naive.prefetch(id, r.t.0);
                prefetched += usize::from(want.is_ok());
                assert_eq!(cache.prefetch(id, r.t), want, "{}", at());
            }
            let want = naive.handle(r);
            let got = cache.handle_request(r);
            assert_eq!((got, cache.decision_detail()), want, "{}", at());
            assert_eq!(cache.tracked_chunks(), naive.iat.len(), "{}", at());
            assert_eq!(cache.cache_age_ms(r.t), naive.cache_age(r.t.0), "{}", at());
            assert_eq!(
                cache.disk_used_chunks(),
                naive.disk.len() as u64,
                "{}",
                at()
            );
        }
        cache.audit();
        let keys: Vec<f64> = cache.snapshot().disk.iter().map(|e| e.1).collect();
        if let (Some(low), Some(high)) = (keys.first(), keys.last()) {
            widest = widest.max((high - low) / vcdn_core::ds::BUCKET_WIDTH_MS);
        }
        swept_chunks += naive.swept_chunks;
        swept_videos += naive.swept_videos;
        idle_runs += usize::from(naive.positive_cutoffs == 0);
        falling += naive.falling_cutoffs;
        assert_eq!(d == 500, naive.positive_cutoffs == 0, "case {case}");
    }
    assert!(
        swept_chunks > 0 && swept_videos > 0 && idle_runs > 0 && falling > 0 && prefetched > 0,
        "cases must cover sweeps that drop chunks and videos, runs whose cutoff stays 0, positive \
         cutoffs that do not rise and prefetches that land: \
         {swept_chunks} / {swept_videos} / {idle_runs} / {falling} / {prefetched}"
    );
    assert!(widest >= 200.0, "widest disk: {widest} buckets");
}

#[test]
fn policies_are_deterministic() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C4 ^ case);
        let reqs = requests(&mut rng);
        let d = disk(&mut rng);
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        let run = || -> Vec<Decision> {
            let mut cache = CafeCache::new(CafeConfig::new(d, k(), costs));
            reqs.iter().map(|r| cache.handle_request(r)).collect()
        };
        assert_eq!(run(), run(), "case {case}");
    }
}

#[test]
fn full_hits_are_always_served() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x11C5 ^ case);
        let reqs = requests(&mut rng);
        // With a disk large enough to never evict, any repeated identical
        // request (same range) must be served once its chunks are in.
        let costs = CostModel::from_alpha(alpha(&mut rng)).expect("valid");
        let mut cache = CafeCache::new(CafeConfig::new(10_000, k(), costs));
        let mut served_once: std::collections::BTreeSet<(VideoId, u64, u64)> =
            std::collections::BTreeSet::new();
        for r in &reqs {
            let key = (r.video, r.bytes.start, r.bytes.end);
            let d = cache.handle_request(r);
            if served_once.contains(&key) {
                assert!(
                    d.is_serve(),
                    "case {case}: previously filled request redirected: {r}"
                );
                if let Decision::Serve(o) = &d {
                    assert_eq!(o.filled_chunks, 0, "case {case}: refill of cached range");
                }
            }
            if d.is_serve() {
                served_once.insert(key);
            }
        }
    }
}
