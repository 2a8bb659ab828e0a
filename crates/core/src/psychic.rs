//! The Psychic cache (paper §8): an offline greedy aware of future
//! requests.
//!
//! Psychic "does not track any past requests"; instead it holds, for each
//! chunk `x`, the list `L_x` of its next `N` future request times (`N = 10`
//! suffices per the paper) and scores serve-vs-redirect like Cafe but with
//! the expected-future term computed *from the future itself*
//! (Eqs. 13–14):
//!
//! ```text
//! E[serve]    = |S′|·C_F + Σ_{x∈S″} Σ_{t∈L_x} (T/(t − t_now))·min(C_F, C_R)
//! E[redirect] = |S|·C_R  + Σ_{x∈S′} Σ_{t∈L_x} (T/(t − t_now))·min(C_F, C_R)
//! ```
//!
//! Eviction is Belady-style — "those requested farthest in the future" —
//! and the cache age `T` is "tracked separately as the average time that
//! the evicted chunks have stayed in the cache".
//!
//! Being offline, Psychic must replay exactly the trace it was built from;
//! this is asserted at run time.
//!
//! The index holds only what the decide path reads: 20 B per distinct
//! chunk (a 12 B `Rank` record and an 8 B `Key`), 16 B per request (its
//! `Expected` record), 4 B per chunk occurrence (its schedule entry), 8 B
//! per distinct video, and two bitmap sets of about one bit per chunk and
//! per request. Building it needs 16 B per request more, freed before the
//! schedules are allocated.

use std::ops::Range;

use vcdn_obs::DecisionDetail;
use vcdn_types::{
    ChunkId, ChunkSize, CostModel, Decision, Request, ServeOutcome, Timestamp, VideoId,
};

use crate::ds::BitTree;
use crate::policy::{CacheConfig, CachePolicy};

/// Minimum time-to-next-request (ms) used in divisions.
const MIN_GAP_MS: f64 = 1.0;

/// "Never requested again" as a next-request sequence number. No request
/// carries it: [`PsychicCache::new`] refuses traces that long.
const NEVER: u32 = u32::MAX;

/// "Not on disk" as a rank's insert sequence number; like [`NEVER`], no
/// request carries it.
const NOT_CACHED: u32 = u32::MAX;

/// Configuration of a [`PsychicCache`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsychicConfig {
    /// Disk size, chunk size and cost model.
    pub cache: CacheConfig,
    /// Bound `N` on the per-chunk future list (paper: 10, "no gain with
    /// higher values").
    pub future_list_bound: usize,
}

impl PsychicConfig {
    /// The paper's configuration (`N = 10`).
    pub fn new(disk_chunks: u64, chunk_size: ChunkSize, costs: CostModel) -> Self {
        PsychicConfig {
            cache: CacheConfig::new(disk_chunks, chunk_size, costs),
            future_list_bound: 10,
        }
    }

    /// Overrides `N` (for the ablation study).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_future_list_bound(mut self, n: usize) -> Self {
        assert!(n > 0, "future list bound must be > 0");
        self.future_list_bound = n;
        self
    }
}

/// One request of the trace as the index holds it: its time, and its
/// chunks as the rank interval `first..first + len`.
#[derive(Debug, Clone, Copy)]
struct Expected {
    t: Timestamp,
    first: u32,
    len: u32,
}

impl Expected {
    fn ranks(self) -> Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }
}

/// One distinct chunk's state. Its schedule's unreplayed part is
/// `occ_seq[cursor..end]`; `inserted` is the sequence number of the
/// request that stored it, or [`NOT_CACHED`], so its insertion time is
/// `expected[inserted].t`.
#[derive(Debug, Clone, Copy)]
struct Rank {
    cursor: u32,
    end: u32,
    inserted: u32,
}

/// One distinct chunk's name: its video's position in the sorted
/// `videos` table, and its chunk index. Ordering keys orders the
/// [`ChunkId`]s they name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    video: u32,
    index: u32,
}

/// Narrows a build-time count to the `u32` the index stores it in,
/// keeping `u32::MAX` free for [`NEVER`] and [`NOT_CACHED`].
fn index_u32(count: u64, what: &str) -> u32 {
    assert!(
        count < u64::from(NEVER),
        "PsychicCache indexes {what} in u32: {count} is too many"
    );
    count as u32
}

/// Walks `spans` (sorted `video << 64 | first chunk << 32 | seq`) and
/// hands `visit` each request's video, record, first chunk and the chunks
/// it is the first to reach (empty when earlier spans covered them).
/// Spans with one start arrive in sequence order, not by end — the sweep
/// does not care: whichever comes first, together they reach the chunks
/// up to the larger end once.
fn sweep(
    spans: &[u128],
    expected: &mut [Expected],
    mut visit: impl FnMut(VideoId, &mut Expected, u64, Range<u64>),
) {
    // One past the highest chunk of the current video reached so far.
    let (mut video, mut next) = (None, 0u64);
    for &span in spans {
        let v = VideoId((span >> 64) as u64);
        let (start, seq) = (u64::from((span >> 32) as u32), span as u32);
        if video != Some(v) {
            (video, next) = (Some(v), 0);
        }
        let e = &mut expected[seq as usize];
        let end = start + u64::from(e.len);
        visit(v, e, start, next.max(start)..end.max(next));
        next = next.max(end);
    }
}

/// The Psychic offline cache.
///
/// Being offline, it knows every chunk it will ever see before the first
/// request, so [`PsychicCache::new`] lays the whole future out densely:
/// the trace's distinct chunks sorted by [`ChunkId`] (a chunk's *rank* is
/// its position, so one request's chunks are one contiguous rank
/// interval), each named by its video's position in one sorted table of
/// videos and its chunk index; every chunk's request schedule in CSR
/// arrays; and one 12 B record per rank holding its schedule cursor, its
/// schedule's end and the request that stored it. The decide path hashes
/// nothing and orders nothing by floats.
///
/// # Examples
///
/// ```
/// use vcdn_core::{CachePolicy, PsychicCache, PsychicConfig};
/// use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
///
/// let reqs = vec![
///     Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(1)),
///     Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(2)),
/// ];
/// let k = ChunkSize::new(100).unwrap();
/// let mut cache = PsychicCache::new(PsychicConfig::new(2, k, CostModel::balanced()), &reqs);
/// for r in &reqs {
///     cache.handle_request(r); // replays the same request sequence
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PsychicCache {
    config: PsychicConfig,
    /// The trace's distinct videos, ascending.
    videos: Vec<VideoId>,
    /// Per rank, the chunk it names; ascending.
    keys: Vec<Key>,
    /// Per rank, its schedule cursor and end and its insert request.
    ranks: Vec<Rank>,
    /// CSR schedules: chunk `r` is requested by requests
    /// `occ_seq[start..ranks[r].end]` (ascending), at their
    /// `expected[..].t`, where `start` is the previous rank's end.
    occ_seq: Vec<u32>,
    /// Per request, what [`CachePolicy::handle_request`] must be handed.
    expected: Vec<Expected>,
    seq: u32,
    /// The Belady order as a calendar: the requests `s` some cached chunk
    /// is filed under, i.e. has as its next request. Such a chunk is one
    /// of `expected[s].ranks()`, so a day of the calendar needs no member
    /// list or count: it is the cached ranks of that interval whose next
    /// request is `s`.
    due_seqs: BitTree,
    /// The cached ranks with no request left: the first victims.
    never: BitTree,
    /// Number of cached chunks.
    cached: usize,
    /// Cumulative mean residence time (ms) of evicted chunks.
    mean_residency_ms: f64,
    evictions: u64,
    replay_start: Option<Timestamp>,
    last_detail: DecisionDetail,
    /// Reusable per-request buffer of victim ranks, sized for the longest
    /// request (a request evicts at most its misses): the decide path
    /// allocates nothing but the `evicted` list it returns.
    victims: Vec<u32>,
}

impl PsychicCache {
    /// Builds the future-request oracle for the request sequence that will
    /// be replayed (time-ordered) and an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `requests` are not sorted by non-decreasing timestamp, or
    /// if the trace has `u32::MAX` or more requests or chunk occurrences
    /// (requests × chunks each): sequence numbers, ranks and schedule
    /// offsets are stored as `u32`, with `u32::MAX` meaning "never again"
    /// or "not cached".
    pub fn new(config: PsychicConfig, requests: &[Request]) -> Self {
        assert!(
            requests.is_sorted_by_key(|r| r.t),
            "requests must be time-ordered"
        );
        index_u32(requests.len() as u64, "requests");
        let k = config.cache.chunk_size;
        // One integer per request, `video << 64 | first chunk << 32 |
        // sequence number`, sorted: one sweep meets every video's chunks in
        // ascending order. The request's length waits in `expected`.
        let mut spans: Vec<u128> = Vec::with_capacity(requests.len());
        let mut expected: Vec<Expected> = Vec::with_capacity(requests.len());
        let mut occurrences = 0u64;
        for (seq, r) in (0u32..).zip(requests) {
            let range = r.chunk_range(k);
            occurrences += range.len();
            spans.push(
                u128::from(r.video.0) << 64 | u128::from(range.start) << 32 | u128::from(seq),
            );
            expected.push(Expected {
                t: r.t,
                first: 0,
                // Cannot truncate: a longer request fails the check below.
                len: range.len() as u32,
            });
        }
        let occurrences = index_u32(occurrences, "chunk occurrences") as usize;
        let longest = expected.iter().map(|e| e.len as usize).max().unwrap_or(0);
        spans.sort_unstable();

        // Ranks: one sweep counts the videos and chunks, a second one
        // names them into tables of exactly that length and reads every
        // request's first rank off the tail of `keys`.
        let (mut video_count, mut rank_count) = (0, 0);
        let mut last = None;
        sweep(&spans, &mut expected, |v, _, _, new| {
            video_count += usize::from(last != Some(v));
            last = Some(v);
            rank_count += (new.end - new.start) as usize;
        });
        let mut videos: Vec<VideoId> = Vec::with_capacity(video_count);
        let mut keys: Vec<Key> = Vec::with_capacity(rank_count);
        sweep(&spans, &mut expected, |v, e, start, new| {
            if videos.last() != Some(&v) {
                videos.push(v);
            }
            let video = (videos.len() - 1) as u32;
            e.first = (keys.len() as u64 - (new.start - start)) as u32;
            keys.extend(new.map(|index| Key {
                video,
                index: index as u32,
            }));
        });
        drop(spans); // before the schedule arrays are allocated

        // Schedules: count each rank's occurrences into `end`, turn the
        // counts into row starts, then fill in replay order with `end` as
        // the write position — each row comes out sorted without sorting,
        // `cursor` at its start and `end` one past its last entry.
        let unstored = Rank {
            cursor: 0,
            end: 0,
            inserted: NOT_CACHED,
        };
        let mut ranks = vec![unstored; keys.len()];
        for e in &expected {
            for rank in &mut ranks[e.ranks()] {
                rank.end += 1;
            }
        }
        let mut offset = 0;
        for rank in &mut ranks {
            (rank.cursor, rank.end, offset) = (offset, offset, offset + rank.end);
        }
        let mut occ_seq = vec![0u32; occurrences];
        for (seq, e) in (0u32..).zip(&expected) {
            for rank in &mut ranks[e.ranks()] {
                occ_seq[rank.end as usize] = seq;
                rank.end += 1;
            }
        }

        PsychicCache {
            config,
            videos,
            due_seqs: BitTree::new(expected.len()),
            never: BitTree::new(keys.len()),
            keys,
            ranks,
            occ_seq,
            expected,
            seq: 0,
            cached: 0,
            mean_residency_ms: 0.0,
            evictions: 0,
            replay_start: None,
            last_detail: DecisionDetail::default(),
            victims: Vec::with_capacity(longest),
        }
    }

    /// Psychic's cache age (ms): the average residence time of evicted
    /// chunks, or time-since-replay-start before the first eviction.
    pub fn cache_age_ms(&self, now: Timestamp) -> f64 {
        if self.evictions > 0 {
            self.mean_residency_ms
        } else {
            match self.replay_start {
                Some(s) => (now - s).as_millis() as f64,
                None => 0.0,
            }
        }
    }

    /// The chunk `rank` names.
    fn chunk(&self, rank: usize) -> ChunkId {
        let Key { video, index } = self.keys[rank];
        ChunkId::new(self.videos[video as usize], index)
    }

    /// Whether chunk `rank` is on disk.
    fn is_cached(&self, rank: usize) -> bool {
        self.ranks[rank].inserted != NOT_CACHED
    }

    /// `L_x`: the next (up to) `N` request times of chunk `rank`.
    fn future_times(&self, rank: usize) -> impl Iterator<Item = Timestamp> + '_ {
        let Rank { cursor, end, .. } = self.ranks[rank];
        let from = cursor as usize;
        let to = from
            .saturating_add(self.config.future_list_bound)
            .min(end as usize);
        self.occ_seq[from..to]
            .iter()
            .map(|&s| self.expected[s as usize].t)
    }

    /// `Σ_{t∈L_x} T/(t − now)` for one chunk (the inner sums of
    /// Eqs. 13–14); the current request's occurrence is already consumed.
    fn future_value(&self, rank: usize, now: Timestamp, t_window: f64) -> f64 {
        self.future_times(rank)
            .map(|t| t_window / ((t - now).as_millis() as f64).max(MIN_GAP_MS))
            .sum()
    }

    /// The sequence number of chunk `rank`'s next request, or [`NEVER`].
    fn next_seq(&self, rank: usize) -> u32 {
        let Rank { cursor, end, .. } = self.ranks[rank];
        if cursor < end {
            self.occ_seq[cursor as usize]
        } else {
            NEVER
        }
    }

    /// Enters cached chunk `rank` in the calendar under its next request.
    fn file(&mut self, rank: usize) {
        match self.next_seq(rank) {
            NEVER => self.never.insert(rank),
            next => self.due_seqs.insert(next as usize),
        }
    }

    /// Whether cached chunk `rank` is filed under request `s`.
    fn filed_under(&self, rank: usize, s: u32) -> bool {
        self.is_cached(rank) && self.next_seq(rank) == s
    }

    /// Takes day `s` off the calendar unless one of its ranks is still
    /// filed under it, once an eviction has taken victims from the day's
    /// top down to rank `lowest`. The victim walk passed over no filed
    /// rank above `lowest` but those of the request being served (`own`),
    /// so only those and the ranks below `lowest` are looked at, the
    /// latter from `lowest` down: the first filed one found is where the
    /// walk would have gone on.
    fn recount(&mut self, s: u32, lowest: usize, own: &Range<usize>) {
        let day = self.expected[s as usize].ranks();
        let passed = own.start.max(lowest)..own.end.min(day.end);
        let below = (day.start..lowest).rev();
        if !passed.chain(below).any(|rank| self.filed_under(rank, s)) {
            self.due_seqs.remove(s as usize);
        }
    }

    /// The cached ranks, the one requested farthest in the future first:
    /// those never requested again from the highest rank down, then day by
    /// day from the last due request back, each day from its highest rank
    /// down. Reads the calendar, changes nothing.
    fn farthest_first(&self) -> impl Iterator<Item = usize> + '_ {
        let day = move |s: usize| {
            let due_then = move |&rank: &usize| self.filed_under(rank, s as u32);
            self.expected[s].ranks().rev().filter(due_then)
        };
        self.never
            .descending()
            .chain(self.due_seqs.descending().flat_map(day))
    }

    /// Number of evictions so far (for tests).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

impl CachePolicy for PsychicCache {
    fn handle_request(&mut self, request: &Request) -> Decision {
        let seq = self.seq;
        let range = request.chunk_range(self.config.cache.chunk_size);
        assert!(
            self.expected.get(seq as usize).is_some_and(|e| {
                e.t == request.t
                    && u64::from(e.len) == range.len()
                    && self.chunk(e.first as usize) == ChunkId::new(request.video, range.start)
            }),
            "PsychicCache must replay exactly the trace it was built from \
             (request #{seq} diverges)"
        );
        let Range { start: lo, end: hi } = self.expected[seq as usize].ranks();
        self.seq += 1;
        let now = request.t;
        self.replay_start.get_or_insert(now);
        let capacity = self.config.cache.disk_chunks;
        let costs = self.config.cache.costs;

        // Consume this request's occurrences: L_x must describe the future.
        // A cached chunk is filed under its next request — for the present
        // chunks, this one — so re-file them, regardless of the decision:
        // each under its new next request, then this request's day, whose
        // members were all among them, leaves the calendar.
        let mut hits = 0;
        for rank in lo..hi {
            debug_assert_eq!(self.next_seq(rank), seq);
            self.ranks[rank].cursor += 1;
            if self.is_cached(rank) {
                self.file(rank);
                hits += 1;
            }
        }
        if hits > 0 {
            self.due_seqs.remove(seq as usize);
        }
        debug_assert_ne!(
            self.due_seqs.last_below(seq as usize + 1),
            Some(seq as usize)
        );
        let misses = hi - lo - hits;

        // S'': the cached chunks requested farthest in the future, this
        // request's own excluded — a range test on the rank. They stay
        // filed: a redirect evicts nothing. The walk is lazy: a request that
        // needs no room (every full hit) asks the calendar nothing.
        let evict_needed = ((self.cached + misses) as u64).saturating_sub(capacity) as usize;
        let mut victims = std::mem::take(&mut self.victims);
        victims.clear();
        victims.extend(
            self.farthest_first()
                .filter(|rank| !(lo..hi).contains(rank))
                .take(evict_needed)
                .map(|rank| rank as u32),
        );

        let warmup = (self.cached as u64) < capacity;
        let t_window = self.cache_age_ms(now);
        self.last_detail = DecisionDetail::age_only(t_window);
        let serve = if warmup || misses == 0 {
            true
        } else {
            let min_cost = costs.min_cost();
            // Eq. 13.
            let mut e_serve = misses as f64 * costs.c_f();
            for &rank in &victims {
                e_serve += self.future_value(rank as usize, now, t_window) * min_cost;
            }
            // Eq. 14.
            let mut e_redirect = (hi - lo) as f64 * costs.c_r();
            for rank in lo..hi {
                if !self.is_cached(rank) {
                    e_redirect += self.future_value(rank, now, t_window) * min_cost;
                }
            }
            self.last_detail = DecisionDetail::costs(e_serve, e_redirect, t_window);
            e_serve <= e_redirect
        };

        let decision = if !serve {
            Decision::Redirect
        } else {
            // Evict S'', then fill. Every filled chunk is genuinely stored —
            // the §2 model fetches and stores chunks to serve them, so
            // capacity is never exceeded even transiently (matching the
            // IP's constraint 10f). Requests larger than the whole disk
            // keep only their tail chunks. Victims come day by day, so a
            // day is recounted once, when the walk has left it.
            let mut evicted = Vec::with_capacity(victims.len());
            let own = lo..hi;
            // The day the victims are being taken from, and its lowest
            // victim so far.
            let (mut day, mut lowest) = (NEVER, 0);
            for &rank in &victims {
                let rank = rank as usize;
                match self.next_seq(rank) {
                    NEVER => self.never.remove(rank),
                    next => {
                        if next != day && day != NEVER {
                            self.recount(day, lowest, &own);
                        }
                        (day, lowest) = (next, rank);
                    }
                }
                let inserted = std::mem::replace(&mut self.ranks[rank].inserted, NOT_CACHED);
                self.cached -= 1;
                let residency = (now - self.expected[inserted as usize].t).as_millis() as f64;
                self.evictions += 1;
                // Cumulative mean: mean += (x - mean) / n.
                self.mean_residency_ms +=
                    (residency - self.mean_residency_ms) / self.evictions as f64;
                evicted.push(self.chunk(rank));
            }
            if day != NEVER {
                self.recount(day, lowest, &own);
            }
            let free = (capacity - self.cached as u64) as usize;
            let mut dropped = misses.saturating_sub(free);
            for rank in lo..hi {
                if self.is_cached(rank) {
                    continue;
                }
                if dropped > 0 {
                    dropped -= 1;
                    continue;
                }
                self.ranks[rank].inserted = seq;
                self.cached += 1;
                self.file(rank);
            }
            Decision::Serve(ServeOutcome {
                hit_chunks: hits as u64,
                filled_chunks: misses as u64,
                evicted,
            })
        };
        self.victims = victims;
        decision
    }

    fn name(&self) -> &'static str {
        "psychic"
    }

    fn chunk_size(&self) -> ChunkSize {
        self.config.cache.chunk_size
    }

    fn costs(&self) -> CostModel {
        self.config.cache.costs
    }

    fn disk_used_chunks(&self) -> u64 {
        self.cached as u64
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.config.cache.disk_chunks
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        let Ok(video) = self.videos.binary_search(&chunk.video) else {
            return false;
        };
        let key = Key {
            video: video as u32,
            index: chunk.index,
        };
        self.keys
            .binary_search(&key)
            .is_ok_and(|rank| self.is_cached(rank))
    }

    fn decision_detail(&self) -> DecisionDetail {
        self.last_detail
    }
}

#[cfg(test)]
impl PsychicCache {
    /// Recomputes the calendar from the rank records and checks
    /// `due_seqs`, `never` and `cached` against it.
    fn audit(&self) {
        let mut due = vec![false; self.expected.len()];
        let mut never = Vec::new();
        let mut cached = 0;
        for rank in (0..self.ranks.len()).filter(|&rank| self.is_cached(rank)) {
            cached += 1;
            let inserted = self.ranks[rank].inserted;
            assert!(
                inserted < self.seq,
                "rank {rank} stored by a future request"
            );
            assert!(self.expected[inserted as usize].ranks().contains(&rank));
            match self.next_seq(rank) {
                NEVER => never.push(rank),
                s => {
                    assert!(self.expected[s as usize].ranks().contains(&rank));
                    due[s as usize] = true;
                }
            }
        }
        assert_eq!(self.cached, cached);
        let members = |set: &BitTree| -> Vec<usize> {
            let mut found: Vec<usize> = set.descending().collect();
            found.reverse();
            found
        };
        assert_eq!(members(&self.never), never);
        let due_seqs: Vec<usize> = (0..due.len()).filter(|&s| due[s]).collect();
        assert_eq!(members(&self.due_seqs), due_seqs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use std::mem::{size_of, size_of_val};
    use vcdn_trace::rng::DetRng;
    use vcdn_types::ByteRange;

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    /// The chunk of every rank, in rank order.
    fn chunks(c: &PsychicCache) -> Vec<ChunkId> {
        (0..c.keys.len()).map(|rank| c.chunk(rank)).collect()
    }

    fn run(disk: u64, alpha: f64, reqs: Vec<Request>) -> (Vec<Decision>, PsychicCache) {
        let mut c = PsychicCache::new(
            PsychicConfig::new(
                disk,
                ChunkSize::new(100).unwrap(),
                CostModel::from_alpha(alpha).unwrap(),
            ),
            &reqs,
        );
        let ds = reqs.iter().map(|r| c.handle_request(r)).collect();
        (ds, c)
    }

    #[test]
    fn warmup_admits_everything() {
        let (ds, c) = run(
            4,
            1.0,
            vec![req(0, 0, 99, 1), req(1, 0, 99, 2), req(2, 0, 99, 3)],
        );
        assert!(ds.iter().all(Decision::is_serve));
        assert_eq!(c.disk_used_chunks(), 3);
    }

    #[test]
    fn admits_first_seen_video_with_future_demand() {
        // Unlike xLRU/Cafe, Psychic fills a never-seen file when the future
        // says it will be hot (§9.2's alpha=0.5 discussion).
        let mut reqs = vec![req(0, 0, 99, 1), req(1, 0, 99, 2)]; // warm 2-disk
                                                                 // Video 9: first request at t=100, then many more soon after.
        for i in 0..8 {
            reqs.push(req(9, 0, 99, 100 + i * 10));
        }
        let (ds, _) = run(2, 1.0, reqs);
        assert!(
            ds[2].is_serve(),
            "future-hot first-seen video must be admitted"
        );
    }

    #[test]
    fn redirects_chunks_with_no_future() {
        // One-shot request for video 9 (never again) against a disk full of
        // chunks that will be re-requested: serving would evict value.
        let reqs = vec![
            req(0, 0, 99, 1),
            req(1, 0, 99, 2),
            req(9, 0, 99, 100), // no future occurrences
            req(0, 0, 99, 200),
            req(1, 0, 99, 201),
        ];
        let (ds, _) = run(2, 1.0, reqs);
        assert!(ds[2].is_redirect(), "futureless one-shot should redirect");
        assert!(ds[3].is_serve() && ds[4].is_serve());
    }

    #[test]
    fn belady_eviction_takes_farthest_future() {
        // Disk 2. Videos 0 and 1 cached; 0 re-requested soon, 1 never
        // again. Filling video 9 (hot) must evict video 1.
        let reqs = vec![
            req(0, 0, 99, 1),
            req(1, 0, 99, 2),
            req(9, 0, 99, 10),
            req(9, 0, 99, 20),
            req(0, 0, 99, 30),
            req(9, 0, 99, 40),
        ];
        let (ds, c) = run(2, 1.0, reqs);
        // Request #2 (video 9): hot future, must be served, evicting v1.
        let o = ds[2].serve_outcome().expect("hot chunk should be filled");
        assert_eq!(o.evicted, vec![ChunkId::new(VideoId(1), 0)]);
        assert!(c.contains_chunk(ChunkId::new(VideoId(9), 0)));
    }

    #[test]
    fn one_shot_request_redirected_when_it_would_displace_value() {
        // A one-shot 2-chunk request arrives while the disk holds two
        // chunks both requested again soon. Serving it would have to evict
        // the valuable chunks (fills are genuinely stored, §2 — there is
        // no serve-without-caching); under constrained ingress the
        // expected-cost comparison redirects it instead.
        let reqs = vec![
            req(0, 0, 99, 1),
            req(1, 0, 99, 2),
            req(9, 0, 199, 10), // 2 chunks, never again
            req(0, 0, 99, 20),
            req(1, 0, 99, 21),
        ];
        let (ds, c) = run(2, 2.0, reqs);
        assert!(ds[2].is_redirect(), "one-shot should be redirected");
        assert!(c.contains_chunk(ChunkId::new(VideoId(0), 0)));
        assert!(c.contains_chunk(ChunkId::new(VideoId(1), 0)));
        // The useful chunks survived to be hits.
        let o3 = ds[3].serve_outcome().unwrap();
        let o4 = ds[4].serve_outcome().unwrap();
        assert_eq!(o3.hit_chunks, 1);
        assert_eq!(o4.hit_chunks, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut reqs = Vec::new();
        let mut t = 1;
        for round in 0..40u64 {
            for v in 0..5 {
                reqs.push(req(v, 0, 299, t));
                t += 7 + (round % 3);
            }
        }
        let mut c = PsychicCache::new(
            PsychicConfig::new(4, ChunkSize::new(100).unwrap(), CostModel::balanced()),
            &reqs,
        );
        for r in &reqs {
            c.handle_request(r);
            assert!(c.disk_used_chunks() <= 4);
        }
    }

    #[test]
    fn residency_tracking_updates_cache_age() {
        let reqs = vec![
            req(0, 0, 99, 0),
            req(1, 0, 99, 1_000),
            req(2, 0, 99, 2_000),
            req(2, 0, 99, 2_500),
            req(3, 0, 99, 3_000),
            req(3, 0, 99, 3_500),
        ];
        let (_, c) = run(2, 1.0, reqs);
        assert!(c.evictions() > 0);
        assert!(c.mean_residency_ms > 0.0);
        assert!((c.cache_age_ms(Timestamp(9_999)) - c.mean_residency_ms).abs() < 1e-9);
    }

    #[test]
    fn cache_age_before_first_eviction_is_replay_elapsed() {
        let reqs = vec![req(0, 0, 99, 1_000), req(1, 0, 99, 2_000)];
        let (_, c) = run(10, 1.0, reqs);
        assert_eq!(c.evictions(), 0);
        assert!((c.cache_age_ms(Timestamp(5_000)) - 4_000.0).abs() < 1e-9);
    }

    /// Builds for one request of video 0, bytes 0–99, then replays `r`.
    fn replay_instead(r: Request) {
        let reqs = vec![req(0, 0, 99, 1)];
        let mut c = PsychicCache::new(
            PsychicConfig::new(2, ChunkSize::new(100).unwrap(), CostModel::balanced()),
            &reqs,
        );
        c.handle_request(&r);
    }

    #[test]
    #[should_panic(expected = "exactly the trace")]
    fn divergent_replay_detected() {
        replay_instead(req(5, 0, 99, 1)); // different video
    }

    #[test]
    #[should_panic(expected = "exactly the trace")]
    fn divergent_replay_detected_by_range_alone() {
        // Same video, time and first chunk, one chunk more: chunk 1 has no
        // schedule to be scored against.
        replay_instead(req(0, 0, 199, 1));
    }

    #[test]
    #[should_panic(expected = "exactly the trace")]
    fn divergent_replay_detected_by_first_chunk_alone() {
        replay_instead(req(0, 100, 199, 1)); // same video, time and length
    }

    #[test]
    fn index_bound_keeps_the_never_sentinel_free() {
        assert_eq!(index_u32(u64::from(NEVER) - 1, "requests"), NEVER - 1);
        let at_bound = std::panic::catch_unwind(|| index_u32(u64::from(NEVER), "requests"));
        assert!(at_bound.is_err(), "u32::MAX must stay free for NEVER");
    }

    #[test]
    #[should_panic(expected = "chunk occurrences in u32")]
    fn occurrence_overflow_rejected_at_build_time() {
        // One request spanning 2^32 chunks: its length alone would wrap.
        let whole = Request::new(
            VideoId(0),
            ByteRange::new(0, u64::from(u32::MAX)).unwrap(),
            Timestamp(1),
        );
        let k = ChunkSize::new(1).unwrap();
        let _ = PsychicCache::new(PsychicConfig::new(2, k, CostModel::balanced()), &[whole]);
    }

    #[test]
    fn index_is_dense_and_sorted() {
        // Overlapping, nested, adjacent and gapped spans over two videos.
        let reqs = vec![
            req(7, 200, 499, 1), // v7 chunks 2..=4
            req(3, 0, 99, 2),    // v3 chunk 0
            req(7, 0, 299, 3),   // v7 chunks 0..=2
            req(7, 300, 399, 4), // v7 chunk 3 (nested)
            req(7, 800, 899, 5), // v7 chunk 8 (gap)
            req(3, 100, 199, 6), // v3 chunk 1 (adjacent)
        ];
        let k = ChunkSize::new(100).unwrap();
        let c = PsychicCache::new(PsychicConfig::new(2, k, CostModel::balanced()), &reqs);
        let ids = |v: u64, cs: &[u32]| -> Vec<ChunkId> {
            cs.iter().map(|&i| ChunkId::new(VideoId(v), i)).collect()
        };
        assert_eq!(
            chunks(&c),
            [ids(3, &[0, 1]), ids(7, &[0, 1, 2, 3, 4, 8])].concat()
        );
        assert_eq!(c.videos, [VideoId(3), VideoId(7)]);
        for (r, e) in reqs.iter().zip(&c.expected) {
            let want: Vec<ChunkId> = r
                .chunk_range(k)
                .iter()
                .map(|i| ChunkId::new(r.video, i))
                .collect();
            assert_eq!(chunks(&c)[e.ranks()], want[..], "{r}");
        }
        // v7#2 (rank 4) is requested by requests 0 and 2, in that order.
        assert_eq!(
            (c.ranks[3].end, c.ranks[4].cursor, c.ranks[4].end),
            (4, 4, 6)
        );
        assert_eq!(c.occ_seq[4..6], [0, 2]);
        assert_eq!(
            c.future_times(4).collect::<Vec<_>>(),
            [Timestamp(1), Timestamp(3)]
        );
        assert_eq!(c.ranks.last().unwrap().end as usize, c.occ_seq.len());
    }

    #[test]
    fn future_list_bound_caps_lookahead() {
        // One chunk requested ten times, at t = 0, 10, …, 90.
        let reqs: Vec<Request> = (0..10).map(|i| req(0, 0, 99, i * 10)).collect();
        let cfg = PsychicConfig::new(2, ChunkSize::new(100).unwrap(), CostModel::balanced())
            .with_future_list_bound(3);
        assert_eq!(cfg.future_list_bound, 3);
        let mut c = PsychicCache::new(cfg, &reqs);
        assert_eq!(c.next_seq(0), 0);
        for r in &reqs[..5] {
            c.handle_request(r);
        }
        // Requests 0..=4 are consumed: L_x starts at request 5, capped at N.
        assert_eq!(c.ranks[0].cursor, 5);
        assert_eq!(c.next_seq(0), 5);
        assert_eq!(
            c.future_times(0).collect::<Vec<_>>(),
            [Timestamp(50), Timestamp(60), Timestamp(70)]
        );
        // The one cached chunk is filed under request 5 and nowhere else.
        assert_eq!(c.due_seqs.descending().collect::<Vec<_>>(), [5]);
        assert_eq!(c.farthest_first().collect::<Vec<_>>(), [0]);
        c.audit();
        for r in &reqs[5..] {
            c.handle_request(r);
        }
        assert_eq!(c.ranks[0].cursor, c.ranks[0].end);
        assert_eq!(c.due_seqs.last_below(usize::MAX), None);
        assert_eq!(c.next_seq(0), NEVER);
        assert_eq!(c.future_times(0).count(), 0);
        assert_eq!(c.never.last_below(usize::MAX), Some(0));
        c.audit();
    }

    /// A trace over ids at the edges of the id space: videos near 2^44 and
    /// `u64::MAX` beside small ones, spans starting at chunk 0 and at
    /// 2^20 − 1, and nested, adjacent, gapped and repeated (identical)
    /// spans, on 100-byte chunks.
    fn edge_trace(rng: &mut DetRng, n: usize) -> Vec<Request> {
        const VIDEOS: [u64; 6] = [0, 5, (1 << 44) - 1, 1 << 44, u64::MAX - 1, u64::MAX];
        const STARTS: [u64; 6] = [0, 1, 3, 7, (1 << 20) - 8, (1 << 20) - 1];
        let mut t = 0;
        let mut reqs: Vec<Request> = Vec::with_capacity(n);
        for _ in 0..n {
            t += rng.below(3);
            let r = match reqs.len() {
                len if len > 0 && rng.chance(0.2) => reqs[rng.below(len as u64) as usize],
                _ => {
                    let video = VIDEOS[rng.below(6) as usize];
                    let first = STARTS[rng.below(6) as usize] + rng.below(3);
                    let last = first + rng.below(4);
                    let from = first * 100 + rng.below(100);
                    req(video, from, (last * 100 + rng.below(100)).max(from), 0)
                }
            };
            reqs.push(Request::new(r.video, r.bytes, Timestamp(t)));
        }
        reqs
    }

    #[test]
    fn index_matches_a_btreemap_model() {
        let k = ChunkSize::new(100).unwrap();
        for case in 0..24u64 {
            let mut rng = DetRng::new(0x1DE7 ^ case);
            let reqs = edge_trace(&mut rng, 40 + 8 * case as usize);
            let mut model: BTreeMap<ChunkId, Vec<u32>> = BTreeMap::new();
            for (seq, r) in (0u32..).zip(&reqs) {
                for index in r.chunk_range(k).iter() {
                    model
                        .entry(ChunkId::new(r.video, index))
                        .or_default()
                        .push(seq);
                }
            }
            let disk = 1 + case % 6;
            let mut c =
                PsychicCache::new(PsychicConfig::new(disk, k, CostModel::balanced()), &reqs);

            // Ranks, schedules and each request's first rank.
            let ids: Vec<ChunkId> = model.keys().copied().collect();
            assert_eq!(chunks(&c), ids, "case {case}");
            let mut start = 0;
            for (rank, seqs) in model.values().enumerate() {
                let Rank { cursor, end, .. } = c.ranks[rank];
                assert_eq!(cursor, start, "case {case}, rank {rank}");
                assert_eq!(
                    c.occ_seq[cursor as usize..end as usize],
                    seqs[..],
                    "case {case}"
                );
                start = end;
            }
            assert_eq!(start as usize, c.occ_seq.len(), "case {case}");
            for (r, e) in reqs.iter().zip(&c.expected) {
                let range = r.chunk_range(k);
                let first = ids.binary_search(&ChunkId::new(r.video, range.start));
                assert_eq!(Ok(e.first as usize), first, "case {case}: {r}");
                assert_eq!(u64::from(e.len), range.len(), "case {case}: {r}");
            }

            // `contains_chunk` against a disk kept from the decisions: a
            // serve evicts its list and stores the hits and, of the misses,
            // the tail that fits.
            let unseen_videos = [1, 6, 1 << 43, (1 << 44) + 1, u64::MAX - 2];
            let mut disk_model: BTreeSet<ChunkId> = BTreeSet::new();
            for r in &reqs {
                let decision = c.handle_request(r);
                if let Some(o) = decision.serve_outcome() {
                    for victim in &o.evicted {
                        assert!(disk_model.remove(victim), "case {case}: evicted {victim}");
                    }
                    let range = r.chunk_range(k).iter().map(|i| ChunkId::new(r.video, i));
                    let misses: Vec<ChunkId> = range.filter(|x| !disk_model.contains(x)).collect();
                    let free = (disk - disk_model.len() as u64) as usize;
                    disk_model.extend(&misses[misses.len().saturating_sub(free)..]);
                }
                c.audit();
                for &id in &ids {
                    let held = disk_model.contains(&id);
                    assert_eq!(c.contains_chunk(id), held, "case {case}: {id}");
                    for index in [id.index + 1, id.index.wrapping_sub(1), u32::MAX] {
                        let other = ChunkId::new(id.video, index);
                        let unseen = model.contains_key(&other);
                        assert!(unseen || !c.contains_chunk(other), "case {case}: {other}");
                    }
                }
                for v in unseen_videos {
                    assert!(
                        !c.contains_chunk(ChunkId::new(VideoId(v), 0)),
                        "case {case}"
                    );
                }
                assert_eq!(c.disk_used_chunks(), disk_model.len() as u64, "case {case}");
            }
            assert!(c.evictions() > 0, "case {case}");
        }
    }

    #[test]
    fn index_costs_20_bytes_a_rank_16_a_request_and_4_an_occurrence() {
        assert_eq!(size_of::<Rank>() + size_of::<Key>(), 20);
        assert_eq!(size_of::<Expected>(), 16);
        for case in 0..4u64 {
            let mut rng = DetRng::new(0xB17E ^ case);
            let reqs = edge_trace(&mut rng, 300);
            let k = ChunkSize::new(100).unwrap();
            let c = PsychicCache::new(PsychicConfig::new(8, k, CostModel::balanced()), &reqs);
            let occurrences: u64 = reqs.iter().map(|r| r.chunk_len(k)).sum();
            // Every table is allocated once, at exactly its length.
            assert_eq!(c.videos.capacity(), c.videos.len(), "case {case}");
            assert_eq!(c.keys.capacity(), c.keys.len(), "case {case}");
            assert_eq!(c.ranks.capacity(), c.ranks.len(), "case {case}");
            assert_eq!(c.occ_seq.capacity(), occurrences as usize, "case {case}");
            assert_eq!(c.expected.capacity(), reqs.len(), "case {case}");
            let heap = size_of_val(&c.videos[..])
                + size_of_val(&c.keys[..])
                + size_of_val(&c.ranks[..])
                + size_of_val(&c.occ_seq[..])
                + size_of_val(&c.expected[..]);
            let (ranks, videos) = (c.keys.len(), c.videos.len());
            let bound = 20 * ranks + 16 * reqs.len() + 4 * occurrences as usize + 8 * videos;
            assert_eq!(heap, bound, "case {case}");
        }
    }

    #[test]
    fn a_day_of_thousands_of_victims_is_recounted_once() {
        // A 2^12-chunk disk. Each round, one request spans 2^16 chunks of
        // video 0 and keeps its tail 2^12 chunks, all due at the next
        // round's span: one calendar day. Four 2^10-chunk requests, each
        // re-requested within the round, then evict them from the top of
        // that day down, 1,024 at a time. The walk passes each rank once
        // and the day is recounted once per eviction; re-scanning the day
        // per victim (2^12 victims × 2^16 ranks a round) does not finish
        // inside the bound.
        const SPAN: u64 = 1 << 16;
        const SMALL: u64 = 1 << 10;
        let mut reqs = Vec::new();
        for round in 0..32u64 {
            let t = round * 1_000;
            reqs.push(req(0, 0, SPAN - 1, t));
            for again in [1, 5] {
                for i in 0..4 {
                    reqs.push(req(1 + round * 4 + i, 0, SMALL - 1, t + again + i));
                }
            }
        }
        let (done, finished) = std::sync::mpsc::channel();
        let replay = std::thread::spawn(move || {
            let k = ChunkSize::new(1).unwrap();
            let cfg = PsychicConfig::new(1 << 12, k, CostModel::balanced());
            let mut c = PsychicCache::new(cfg, &reqs);
            let mut evicted_from_span = 0;
            for r in &reqs {
                if let Some(o) = c.handle_request(r).serve_outcome() {
                    evicted_from_span += o.evicted.iter().filter(|x| x.video.0 == 0).count();
                }
                c.audit();
            }
            let _ = done.send(());
            evicted_from_span
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(60));
        let timeout = std::sync::mpsc::RecvTimeoutError::Timeout;
        assert_ne!(
            waited,
            Err(timeout),
            "32 rounds of thousands of victims hung"
        );
        let evicted = replay.join().expect("the replay finished");
        assert_eq!(evicted, 32 * (1 << 12));
    }

    #[test]
    fn calendar_audited_after_every_request() {
        // Small disks over few videos (evictions, redirects and requests
        // larger than the disk), then a roomy one that serves everything.
        for (case, disk) in [(0u64, 1), (1, 3), (2, 7), (3, 12), (4, 60)] {
            let mut rng = DetRng::new(0xCA1E ^ case);
            let mut t = 0;
            let reqs: Vec<Request> = (0..400)
                .map(|_| {
                    let start = rng.below(900);
                    t += rng.below(40);
                    req(rng.below(6), start, start + rng.below(500), t)
                })
                .collect();
            let costs = CostModel::from_alpha([0.5, 1.0, 2.0, 4.0][case as usize % 4]).unwrap();
            let k = ChunkSize::new(100).unwrap();
            let mut c = PsychicCache::new(PsychicConfig::new(disk, k, costs), &reqs);
            c.audit();
            let mut redirects = 0;
            for r in &reqs {
                redirects += usize::from(c.handle_request(r).is_redirect());
                c.audit();
            }
            assert!(c.evictions() > 0, "case {case}");
            assert_eq!(redirects > 0, disk < 60, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "future list bound")]
    fn zero_future_bound_rejected() {
        let _ = PsychicConfig::new(1, ChunkSize::DEFAULT, CostModel::balanced())
            .with_future_list_bound(0);
    }

    #[test]
    fn full_hit_served_without_eviction() {
        let reqs = vec![req(0, 0, 99, 1), req(1, 0, 99, 2), req(0, 0, 99, 3)];
        let (ds, _) = run(2, 4.0, reqs);
        let o = ds[2].serve_outcome().unwrap();
        assert_eq!((o.hit_chunks, o.filled_chunks), (1, 0));
        assert!(o.evicted.is_empty());
    }
}
