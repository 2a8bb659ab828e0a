//! Space-Saving heavy-hitter sketch: the hottest keys of a stream in
//! bounded memory, with per-key error bounds.
//!
//! The engine wants "which videos dominate this shard?" without holding a
//! counter per video — a month-long trace touches far more videos than a
//! shard should track. [`SpaceSaving`] is the classic Metwally et al.
//! *Space-Saving* algorithm over `k` slots:
//!
//! * a tracked key increments its exact slot counter;
//! * an untracked key with a free slot takes it with `count = 1`,
//!   `err = 0`;
//! * an untracked key with no free slot **evicts the minimum-count slot**
//!   and inherits its counter: `count = min + 1`, `err = min`.
//!
//! The inherited counter makes every slot an *over*-estimate, which is
//! what gives the classic bound per tracked key `x`:
//!
//! ```text
//! count(x) − err(x) ≤ true_count(x) ≤ count(x),   err(x) ≤ n / k
//! ```
//!
//! where `n` is the total number of recorded keys. Any key whose true
//! count exceeds `n / k` is guaranteed to be tracked.
//!
//! **Determinism.** The only free choice in the algorithm is which slot
//! to evict when several share the minimum count. We break that tie by
//! the *largest key* (so numerically smaller keys are stickier), making
//! the surviving set — and therefore the exported bundle — a pure
//! function of the input stream. The engine keys sketches by the packed
//! [`vcdn_types::ChunkId`] of a video's first chunk, whose ordering
//! equals the video-id ordering, so ties resolve identically on every
//! machine and worker count. [`SpaceSaving::entries`] returns the slots
//! sorted by `(count desc, key asc)` for the same reason.
//!
//! Zero external dependencies, and no key index: storage is a `Vec` of
//! `k` slots and [`SpaceSaving::record`] is O(k) — a scan for the key,
//! then (untracked, sketch full) a scan for the victim. That is the right
//! trade at the `k = 8` every caller outside tests uses: the slots are
//! three cache lines, both scans are branch-free per slot, and on the
//! paper-point stream 46 % of requests name an untracked video, for which
//! a map costs a missed probe, the O(k) victim scan anyway, a `remove`
//! and an `insert`. A sketch of hundreds of slots would want the index
//! back.

use vcdn_types::json::{Json, ObjectWriter};
use vcdn_types::ChunkId;

use crate::read::field;

/// One tracked key exported from the sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKEntry {
    /// The tracked key (for the engine: a packed `ChunkId`).
    pub key: u64,
    /// Over-estimated occurrence count (`≥` the true count).
    pub count: u64,
    /// Maximum over-estimation: the count inherited when this key last
    /// took its slot. `count − err` is a guaranteed lower bound on the
    /// true count; always `err < count`.
    pub err: u64,
}

/// One exported top-K JSONL record: a rank within a shard's sketch.
///
/// Serialises as `{"type":"topk","shard":…,"rank":…,"video":…,"count":…,
/// "err":…}` — ranks are 1-based and sorted by `(count desc, video asc)`
/// within a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKRecord {
    /// The shard whose sketch produced this entry (0 for unsharded
    /// replays).
    pub shard: u32,
    /// 1-based rank within the shard's sketch.
    pub rank: u32,
    /// The video id the tracked key denotes.
    pub video: u64,
    /// Over-estimated request count.
    pub count: u64,
    /// Maximum over-estimation (`err < count`).
    pub err: u64,
}

impl TopKRecord {
    /// Ranks one sketch's [`SpaceSaving::entries`] for export: 1-based
    /// ranks in the order given, and each key — the packed
    /// [`ChunkId`]`(video, 0)` the replay drivers feed their sketches —
    /// unpacked back to its video id.
    pub fn ranked(shard: u32, entries: &[TopKEntry]) -> impl Iterator<Item = TopKRecord> + '_ {
        entries.iter().zip(1..).map(move |(e, rank)| TopKRecord {
            shard,
            rank,
            video: e.key >> ChunkId::INDEX_BITS,
            count: e.count,
            err: e.err,
        })
    }

    /// Appends this record's bundle line (newline included) to `out`.
    pub fn write_line(&self, out: &mut String) {
        ObjectWriter::new(out)
            .str("type", "topk")
            .u64("shard", self.shard.into())
            .u64("rank", self.rank.into())
            .u64("video", self.video)
            .u64("count", self.count)
            .u64("err", self.err)
            .finish_line();
    }

    /// Reads the record [`TopKRecord::write_line`] wrote.
    pub(crate) fn from_json(line: &Json) -> Result<TopKRecord, String> {
        Ok(TopKRecord {
            shard: field(line, "shard")?,
            rank: field(line, "rank")?,
            video: field(line, "video")?,
            count: field(line, "count")?,
            err: field(line, "err")?,
        })
    }
}

/// A slot of the sketch (internal storage, unordered).
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    count: u64,
    err: u64,
}

/// The Space-Saving sketch: at most `k` tracked keys. See the module
/// docs for the algorithm, bounds and tie-breaking rule.
///
/// # Examples
///
/// ```
/// use vcdn_obs::topk::SpaceSaving;
///
/// let mut sketch = SpaceSaving::new(2);
/// for key in [7, 7, 7, 5, 9] {
///     sketch.record(key);
/// }
/// let top = sketch.entries();
/// assert_eq!(top[0].key, 7);
/// assert_eq!(top[0].count, 3);
/// // Every entry's count-err is a certified lower bound.
/// assert!(top.iter().all(|e| e.err < e.count));
/// ```
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    k: usize,
    slots: Vec<Slot>,
    total: u64,
}

impl SpaceSaving {
    /// Creates a sketch tracking at most `k` keys.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> SpaceSaving {
        assert!(k > 0, "space-saving sketch needs at least one slot");
        SpaceSaving {
            k,
            slots: Vec::with_capacity(k),
            total: 0,
        }
    }

    /// The slot capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total keys recorded (the `n` of the `err ≤ n / k` bound).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of currently tracked keys (`≤ k`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Records one occurrence of `key`. O(k): one scan of the slots for
    /// the key and, when it is untracked and no slot is free, one more for
    /// the victim.
    // lint: hot
    pub fn record(&mut self, key: u64) {
        self.total += 1;
        if let Some(slot) = self.slots.iter_mut().find(|s| s.key == key) {
            slot.count += 1;
            return;
        }
        if self.slots.len() < self.k {
            self.slots.push(Slot {
                key,
                count: 1,
                err: 0,
            });
            return;
        }
        // Evict the minimum-count slot; among equal counts the *largest*
        // key loses, so the outcome is independent of slot order. Packing
        // `(count, !key)` makes that one compare per slot with no
        // data-dependent branch.
        let victim = self
            .slots
            .iter_mut()
            .min_by_key(|s| (u128::from(s.count) << 64) | u128::from(!s.key))
            .expect("k > 0 and the sketch is full");
        let inherited = victim.count;
        *victim = Slot {
            key,
            count: inherited + 1,
            err: inherited,
        };
    }

    /// The over-estimated count of `key`, or `None` if untracked. O(k).
    pub fn count(&self, key: u64) -> Option<u64> {
        self.slots.iter().find(|s| s.key == key).map(|s| s.count)
    }

    /// The tracked keys sorted by `(count desc, key asc)` — the
    /// deterministic export order.
    pub fn entries(&self) -> Vec<TopKEntry> {
        let mut out: Vec<TopKEntry> = self
            .slots
            .iter()
            .map(|s| TopKEntry {
                key: s.key,
                count: s.count,
                err: s.err,
            })
            .collect();
        out.sort_by(|a, b| b.count.cmp(&a.count).then(a.key.cmp(&b.key)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_capacity_rejected() {
        SpaceSaving::new(0);
    }

    #[test]
    fn tracked_keys_count_exactly_without_eviction() {
        let mut s = SpaceSaving::new(4);
        for key in [1, 2, 1, 3, 1, 2] {
            s.record(key);
        }
        assert_eq!(s.count(1), Some(3));
        assert_eq!(s.count(2), Some(2));
        assert_eq!(s.count(3), Some(1));
        assert_eq!(s.total(), 6);
        assert!(s.entries().iter().all(|e| e.err == 0));
    }

    #[test]
    fn eviction_inherits_min_count_as_error() {
        let mut s = SpaceSaving::new(2);
        s.record(10); // {10:1}
        s.record(10); // {10:2}
        s.record(20); // {10:2, 20:1}
        s.record(30); // 20 evicted: {10:2, 30:2(err 1)}
        assert_eq!(s.count(20), None);
        assert_eq!(s.count(30), Some(2));
        let e30 = s.entries().into_iter().find(|e| e.key == 30).unwrap();
        assert_eq!(e30.err, 1);
        assert!(e30.count - e30.err <= 1); // true count of 30 is 1
    }

    #[test]
    fn min_count_tie_evicts_largest_key() {
        let mut s = SpaceSaving::new(3);
        for key in [5, 9, 2] {
            s.record(key); // all count 1
        }
        s.record(7); // tie on count 1 → largest key (9) evicted
        assert_eq!(s.count(9), None);
        assert_eq!(s.count(5), Some(1));
        assert_eq!(s.count(2), Some(1));
        assert_eq!(s.count(7), Some(2));
    }

    #[test]
    fn entries_sorted_by_count_desc_then_key_asc() {
        let mut s = SpaceSaving::new(4);
        for key in [8, 3, 3, 11, 8] {
            s.record(key);
        }
        let e: Vec<(u64, u64)> = s.entries().iter().map(|x| (x.key, x.count)).collect();
        assert_eq!(e, vec![(3, 2), (8, 2), (11, 1)]);
    }

    #[test]
    fn error_bound_holds_on_a_skewed_stream() {
        // Zipf-ish: key i appears 100/i times; k=4 tracks the head.
        let mut stream = Vec::new();
        for key in 1u64..=20 {
            for _ in 0..(100 / key) {
                stream.push(key);
            }
        }
        let mut s = SpaceSaving::new(4);
        let mut truth = std::collections::BTreeMap::new();
        for &key in &stream {
            s.record(key);
            *truth.entry(key).or_insert(0u64) += 1;
        }
        for e in s.entries() {
            let t = truth[&e.key];
            assert!(e.count >= t, "count must over-estimate");
            assert!(e.count - e.err <= t, "count-err must lower-bound");
            assert!(e.err <= s.total() / 4, "err bounded by n/k");
        }
        // The undisputed heavy hitter is tracked with rank 1.
        assert_eq!(s.entries()[0].key, 1);
    }

    #[test]
    fn record_json_shape() {
        let rec = TopKRecord {
            shard: 2,
            rank: 1,
            video: 17,
            count: 9,
            err: 3,
        };
        let mut line = String::new();
        rec.write_line(&mut line);
        assert_eq!(
            line,
            "{\"type\":\"topk\",\"shard\":2,\"rank\":1,\"video\":17,\"count\":9,\"err\":3}\n"
        );
    }
}
