//! Differential oracle for the two caches that run on `ds::ChunkLru`:
//! [`XlruCache`] and [`LruCache`] against naive caches written from the
//! paper's Figure 1 — a plain map from key to last access plus an ordered
//! map on `(time, touch number)`, for the disk and for the tracker alike.
//!
//! Every `Decision` (eviction order included), every `decision_detail()`,
//! the disk use, the cache age and the tracker size must agree request by
//! request over [`DetRng`] traces, across a snapshot → restore in the
//! middle of a run, and the cases together must reach the corners the
//! per-video directory adds (see `Coverage`). The caches audit their
//! directory and lists every 64 requests and after each restore.

use std::collections::{BTreeMap, BTreeSet};

use vcdn_core::{CacheConfig, CachePolicy, DecisionDetail, LruCache, XlruCache};
use vcdn_trace::rng::DetRng;
use vcdn_types::{
    ByteRange, ChunkId, ChunkSize, CostModel, Decision, Request, ServeOutcome, Timestamp, VideoId,
};

/// xLRU's tracker sweep cadence (`CLEANUP_INTERVAL` in `xlru.rs`).
const CLEANUP_INTERVAL: u64 = 1024;

fn k() -> ChunkSize {
    ChunkSize::new(100).expect("non-zero")
}

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
        NaiveOrder {
            at: BTreeMap::new(),
            order: BTreeMap::new(),
            touches: 0,
        }
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

    fn len(&self) -> usize {
        self.at.len()
    }
}

/// Which corners of the chunk directory the cases reached.
#[derive(Default)]
struct Coverage {
    /// Requests with more missing chunks than the disk holds.
    larger_than_disk: u64,
    /// Serves that evicted a chunk of the request's own video.
    own_video_evicted: u64,
    /// Videos whose last cached chunk left and that were cached again.
    readmitted: u64,
    /// Requests for a video the tracker sweep forgot while chunks of it
    /// were cached — found on disk, never seen, redirected.
    forgotten_but_cached: u64,
    /// Hits on the chunk at the head of the recency list.
    head_hits: u64,
}

/// The chunk disk both naive caches share: Figure 1 lines 5–7.
struct NaiveDisk {
    lru: NaiveOrder<ChunkId>,
    capacity: usize,
    /// Videos that lost their last cached chunk to an eviction.
    emptied: BTreeSet<VideoId>,
}

impl NaiveDisk {
    fn new(capacity: u64) -> Self {
        NaiveDisk {
            lru: NaiveOrder::new(),
            capacity: capacity as usize,
            emptied: BTreeSet::new(),
        }
    }

    fn chunks_of(&self, r: &Request) -> (Vec<ChunkId>, Vec<ChunkId>) {
        r.chunk_range(k())
            .iter()
            .map(|c| ChunkId::new(r.video, c))
            .partition(|id| self.lru.at.contains_key(id))
    }

    fn age(&self, now: u64) -> u64 {
        self.lru.oldest_time().map_or(0, |t| now - t)
    }

    fn has_chunk_of(&self, video: VideoId) -> bool {
        self.lru.at.keys().any(|id| id.video == video)
    }

    fn refresh(&mut self, present: &[ChunkId], now: u64, cov: &mut Coverage) {
        for id in present {
            cov.head_hits += u64::from(self.lru.is_newest(id));
            self.lru.touch(*id, now);
        }
    }

    /// Evicts one chunk per filled chunk once the disk is full; a request
    /// larger than the disk keeps its tail. Returns the evicted chunks.
    fn fill(&mut self, missing: &[ChunkId], now: u64, cov: &mut Coverage) -> Vec<ChunkId> {
        let keep_from = missing.len().saturating_sub(self.capacity);
        cov.larger_than_disk += u64::from(keep_from > 0);
        let mut evicted = Vec::new();
        let mut own = false;
        for id in &missing[keep_from..] {
            if self.lru.len() >= self.capacity {
                let old = self.lru.pop_oldest().expect("a full disk is not empty");
                own |= old.video == id.video;
                if !self.has_chunk_of(old.video) {
                    self.emptied.insert(old.video);
                }
                evicted.push(old);
            }
            cov.readmitted += u64::from(self.emptied.remove(&id.video));
            self.lru.touch(*id, now);
        }
        cov.own_video_evicted += u64::from(own);
        evicted
    }
}

struct NaiveLru {
    disk: NaiveDisk,
}

impl NaiveLru {
    fn handle(&mut self, r: &Request, cov: &mut Coverage) -> (Decision, DecisionDetail) {
        let now = r.t.0;
        let detail = DecisionDetail::age_only(self.disk.age(now) as f64);
        let (present, missing) = self.disk.chunks_of(r);
        self.disk.refresh(&present, now, cov);
        let evicted = self.disk.fill(&missing, now, cov);
        let outcome = ServeOutcome {
            hit_chunks: present.len() as u64,
            filled_chunks: missing.len() as u64,
            evicted,
        };
        (Decision::Serve(outcome), detail)
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

impl NaiveXlru {
    fn handle(&mut self, r: &Request, cov: &mut Coverage) -> (Decision, DecisionDetail) {
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
        let (present, missing) = self.disk.chunks_of(r);
        let warmup = self.disk.lru.len() < self.disk.capacity;
        let age = self.disk.age(now) as f64;
        let scaled_iat = prev.map(|t| (now - t) as f64 * self.alpha);
        let detail = match scaled_iat {
            Some(iat) if !warmup => DecisionDetail::costs(iat, age, age),
            _ => DecisionDetail::age_only(age),
        };
        let forgotten = self.forgotten.remove(&r.video);
        // Lines 3–4 (Eq. 5); a never-seen video always fails.
        if !warmup && scaled_iat.is_none_or(|iat| iat > age) {
            cov.forgotten_but_cached += u64::from(forgotten && !present.is_empty());
            return (Decision::Redirect, detail);
        }
        self.disk.refresh(&present, now, cov);
        let evicted = self.disk.fill(&missing, now, cov);
        let outcome = ServeOutcome {
            hit_chunks: present.len() as u64,
            filled_chunks: missing.len() as u64,
            evicted,
        };
        (Decision::Serve(outcome), detail)
    }
}

/// A time-ordered trace: three hot videos over a cold tail, requests of
/// 1–13 chunks, stamps that sometimes repeat.
fn requests(rng: &mut DetRng, n: usize, videos: u64) -> Vec<Request> {
    let mut t = 0u64;
    (0..n)
        .map(|_| {
            let video = match rng.below(4) {
                0 => rng.below(videos),
                _ => rng.below(3),
            };
            let start = rng.below(900);
            if rng.below(8) != 0 {
                t += 1 + rng.below(49);
            }
            Request::new(
                VideoId(video),
                ByteRange::new(start, start + rng.below(400)).expect("start <= end"),
                Timestamp(t),
            )
        })
        .collect()
}

const ALPHAS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];
const DISKS: [u64; 9] = [1, 2, 3, 5, 9, 24, 60, 128, 256];

#[test]
fn xlru_matches_reference() {
    let mut cov = Coverage::default();
    for case in 0..36usize {
        let mut rng = DetRng::new(0x71C9 ^ case as u64);
        let d = DISKS[case % DISKS.len()];
        let alpha = ALPHAS[case % ALPHAS.len()];
        let n = 2_500 + rng.below(2_500) as usize;
        let reqs = requests(&mut rng, n, 4 + d);
        let costs = CostModel::from_alpha(alpha).expect("valid");
        let mut cache = XlruCache::new(CacheConfig::new(d, k(), costs));
        let mut naive = NaiveXlru {
            disk: NaiveDisk::new(d),
            tracker: NaiveOrder::new(),
            alpha,
            handled: 0,
            forgotten: BTreeSet::new(),
        };
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
        for (seq, r) in reqs.iter().enumerate() {
            if Some(seq) == restore_at {
                let mut snap = cache.snapshot();
                let cached = naive.disk.has_chunk_of(r.video);
                if case % 3 == 1 && cached && naive.tracker.at.contains_key(&r.video) {
                    snap.tracker.retain(|e| e.0 != r.video);
                    snap.tracker.insert(0, (r.video, Timestamp(0)));
                    naive.tracker.backdate(r.video);
                }
                cache = XlruCache::restore(&snap).expect("snapshot restores");
                cache.audit();
            }
            if seq % 64 == 0 {
                cache.audit();
            }
            let at = || format!("case {case} (disk {d}, alpha {alpha}) request #{seq} {r}");
            let want = naive.handle(r, &mut cov);
            let got = cache.handle_request(r);
            assert_eq!((got, cache.decision_detail()), want, "{}", at());
            assert_eq!(
                cache.disk_used_chunks(),
                naive.disk.lru.len() as u64,
                "{}",
                at()
            );
            assert_eq!(
                cache.cache_age(r.t).as_millis(),
                naive.disk.age(r.t.0),
                "{}",
                at()
            );
            assert_eq!(cache.tracker_len(), naive.tracker.len(), "{}", at());
        }
    }
    assert!(
        cov.larger_than_disk > 0
            && cov.own_video_evicted > 0
            && cov.readmitted > 0
            && cov.forgotten_but_cached > 0
            && cov.head_hits > 0,
        "cases must cover requests larger than the disk, serves that evict the request's own \
         video, re-admitted videos, forgotten-but-cached videos and head hits: \
         {} / {} / {} / {} / {}",
        cov.larger_than_disk,
        cov.own_video_evicted,
        cov.readmitted,
        cov.forgotten_but_cached,
        cov.head_hits
    );
}

#[test]
fn lru_matches_reference() {
    let mut cov = Coverage::default();
    for (case, &d) in DISKS.iter().cycle().take(18).enumerate() {
        let mut rng = DetRng::new(0x71CA ^ case as u64);
        let n = 1_500 + rng.below(1_500) as usize;
        let reqs = requests(&mut rng, n, 4 + d);
        let mut cache = LruCache::new(CacheConfig::new(d, k(), CostModel::balanced()));
        let mut naive = NaiveLru {
            disk: NaiveDisk::new(d),
        };
        for (seq, r) in reqs.iter().enumerate() {
            if seq % 64 == 0 {
                cache.audit();
            }
            let at = || format!("case {case} (disk {d}) request #{seq} {r}");
            let want = naive.handle(r, &mut cov);
            let got = cache.handle_request(r);
            assert_eq!((got, cache.decision_detail()), want, "{}", at());
            assert_eq!(
                cache.disk_used_chunks(),
                naive.disk.lru.len() as u64,
                "{}",
                at()
            );
            assert_eq!(
                cache.cache_age(r.t).as_millis(),
                naive.disk.age(r.t.0),
                "{}",
                at()
            );
        }
    }
    assert!(
        cov.larger_than_disk > 0
            && cov.own_video_evicted > 0
            && cov.readmitted > 0
            && cov.head_hits > 0,
        "cases must cover requests larger than the disk, serves that evict the request's own \
         video, re-admitted videos and head hits: {} / {} / {} / {}",
        cov.larger_than_disk,
        cov.own_video_evicted,
        cov.readmitted,
        cov.head_hits
    );
}
