//! Model oracle: [`RankIndex`], driven by slot through an item → slot
//! directory as Cafe's chunk directory drives it, against [`KeyedSet`],
//! the paper-literal structure it replaces on Cafe's hot path.
//!
//! The bucketed index must reproduce the `BTreeSet<(OrdF64, T)>` ascending
//! `(key, item)` order *exactly* — including equal-key tie-breaks — or
//! replay byte counters drift. These tests drive both structures through
//! identical randomized operation sequences drawn from [`DetRng`] (the
//! workspace builds offline, so no external property-test framework) and
//! assert identical observable behavior at every step, with key
//! distributions engineered to hit the risky spots:
//!
//! * exact-key ties (coarsely quantized keys; the Cafe 1 ms IAT clamp
//!   makes `key = t − 1.0` collisions routine in real replays),
//! * `-0.0` vs `+0.0` (both sides normalize to `+0.0`),
//! * far-flung keys that exceed the bucket span clamp,
//! * interleaved re-keying, removal, and eviction scans with exclusions,
//! * laziness (`lazy_rekeys_settle_in_exact_order`): long runs of upward
//!   re-keys across many buckets with no ordered read between them, then
//!   reads, removals and downward re-keys that meet the stale entries.

use std::collections::BTreeMap;

use vcdn_core::ds::{KeyedSet, RankIndex, BUCKET_WIDTH_MS};
use vcdn_trace::rng::DetRng;

#[derive(Debug, Clone)]
enum Op {
    /// Insert or re-key (both sides treat an existing item as a re-key).
    Insert(u16, f64),
    Remove(u16),
    PopSmallest,
    /// Eviction scan: up to `n` victims, excluding items below a threshold.
    Evict(usize, u16),
}

/// Keys quantized to multiples of 0.5 so exact ties are common; one in
/// eight keys is shifted by a huge offset to exercise the bucket-span
/// clamp, and zeros are sometimes negative.
fn gen_key(rng: &mut DetRng) -> f64 {
    let base = (rng.below(64) as f64 - 32.0) * 0.5;
    match rng.below(8) {
        0 => base + 1.0e9,
        1 => base - 1.0e9,
        2 if base == 0.0 => -0.0,
        _ => base,
    }
}

fn gen_op(rng: &mut DetRng) -> Op {
    match rng.below(8) {
        0..=3 => Op::Insert(rng.below(48) as u16, gen_key(rng)),
        4 => Op::Remove(rng.below(48) as u16),
        5 => Op::PopSmallest,
        _ => Op::Evict(rng.below(6) as usize, rng.below(48) as u16),
    }
}

/// The index with the directory a caller keeps: each item's slot, the
/// way Cafe's popularity directory holds each cached chunk's.
#[derive(Default)]
struct Slotted {
    index: RankIndex<u16>,
    slots: BTreeMap<u16, u32>,
}

impl Slotted {
    /// Inserts `item`, or re-keys it in its slot when present (the
    /// oracle's `insert` is an upsert too).
    fn insert(&mut self, item: u16, key: f64) {
        match self.slots.get(&item) {
            Some(&slot) => self.index.rekey_slot(slot, key),
            None => {
                let slot = self.index.insert_new(item, key, ());
                self.slots.insert(item, slot);
            }
        }
    }

    fn remove(&mut self, item: &u16) -> Option<f64> {
        let slot = self.slots.remove(item)?;
        Some(self.index.remove_slot(slot))
    }

    fn pop_smallest(&mut self) -> Option<(u16, f64)> {
        let (item, key) = self.index.smallest()?;
        self.remove(&item);
        Some((item, key))
    }
}

#[test]
fn rank_index_matches_keyed_set_oracle() {
    for case in 0..96u64 {
        let mut rng = DetRng::new(0x4A4B_1D38 ^ case);
        let n_ops = 1 + rng.below(500) as usize;
        let mut idx = Slotted::default();
        let mut oracle: KeyedSet<u16> = KeyedSet::new();
        for step in 0..n_ops {
            match gen_op(&mut rng) {
                Op::Insert(item, key) => {
                    idx.insert(item, key);
                    oracle.insert(item, key);
                }
                Op::Remove(item) => {
                    assert_eq!(
                        idx.remove(&item),
                        oracle.remove(&item),
                        "case {case} step {step}"
                    );
                }
                Op::PopSmallest => {
                    assert_eq!(
                        idx.pop_smallest(),
                        oracle.pop_smallest(),
                        "case {case} step {step}"
                    );
                }
                Op::Evict(n, threshold) => {
                    // The eviction-victim sequence — order included — must
                    // be identical under the same exclusion predicate.
                    let got = idx.index.smallest_excluding(n, |item| *item < threshold);
                    let want = oracle.smallest_excluding(n, |item| *item < threshold);
                    assert_eq!(got, want, "case {case} step {step}");
                }
            }
            assert_eq!(idx.index.len(), oracle.len(), "case {case} step {step}");
            let smallest = idx.index.smallest();
            assert_eq!(smallest, oracle.smallest(), "case {case} step {step}");
        }
        // Full ascending drain agrees, ties and all.
        let want: Vec<(u16, f64)> = oracle.iter_ascending().collect();
        assert_eq!(idx.index.entries_ascending(), want, "case {case}");
    }
}

/// Cafe-shaped workload: keys are virtual timestamps `t − max(iat, 1.0)`
/// with tiny inter-arrival estimates, so the 1 ms clamp binds often and
/// many chunks collide on exactly `t − 1.0`; eviction victims (with the
/// in-request exclusion Cafe applies) must come out in the identical
/// order from both structures.
#[test]
fn cafe_shaped_eviction_sequences_are_identical() {
    for case in 0..48u64 {
        let mut rng = DetRng::new(0xCAFE_0B57 ^ case);
        let mut idx = Slotted::default();
        let mut oracle: KeyedSet<u16> = KeyedSet::new();
        let mut t = 0.0f64;
        for step in 0..400 {
            // Time advances like a trace; several chunks touched per tick.
            t += rng.below(2_000) as f64;
            for _ in 0..1 + rng.below(4) {
                let item = rng.below(64) as u16;
                // IATs quantized to 0.25 ms in [0, 4): the 1 ms clamp
                // binds for ~a quarter of the touches.
                let iat = (rng.below(16) as f64 * 0.25).max(1.0);
                let key = t - iat;
                idx.insert(item, key);
                oracle.insert(item, key);
            }
            if rng.below(3) == 0 {
                let n = 1 + rng.below(4) as usize;
                let requested = rng.below(64) as u16;
                let got = idx.index.smallest_excluding(n, |item| *item == requested);
                let want = oracle.smallest_excluding(n, |item| *item == requested);
                assert_eq!(got, want, "case {case} step {step}");
                for (victim, _) in &got {
                    idx.remove(victim);
                    oracle.remove(victim);
                }
            }
        }
        let want: Vec<(u16, f64)> = oracle.iter_ascending().collect();
        assert_eq!(idx.index.entries_ascending(), want, "case {case}");
    }
}

/// The two structures of `lazy_rekeys_settle_in_exact_order` in lockstep:
/// the index by slot (the test keeps the slots, as Cafe's directory does)
/// and the oracle.
#[derive(Default)]
struct Pair {
    by_slot: Slotted,
    oracle: KeyedSet<u16>,
    step: usize,
    /// Counts ordered reads (scans, and re-finds after the minimum left or
    /// rose): an entry that crossed a bucket boundary upward at the current
    /// count cannot have been settled since.
    reads: usize,
    crossed_at: BTreeMap<u16, usize>,
    /// The lowest bucket each item's keys have mapped to since insertion —
    /// a lower bound on its stored bucket.
    low: BTreeMap<u16, i64>,
    eager_moves: usize,
    stale_removed: usize,
    min_raised: usize,
    wide_scans: usize,
}

fn bucket(key: f64) -> i64 {
    (key / BUCKET_WIDTH_MS).floor() as i64
}

impl Pair {
    /// Inserts or re-keys `item` on both sides.
    fn set(&mut self, item: u16, key: f64, at: &str) {
        let is_min = self.oracle.smallest().is_some_and(|m| m.0 == item);
        match self.oracle.key_of(&item) {
            Some(old) => {
                if is_min && key > old {
                    self.min_raised += 1;
                    self.reads += 1;
                }
                if bucket(key) > bucket(old) {
                    self.crossed_at.insert(item, self.reads);
                } else if key < old {
                    self.crossed_at.remove(&item);
                    let low = self.low.get_mut(&item).expect("present");
                    self.eager_moves += usize::from(bucket(key) < *low);
                    *low = (*low).min(bucket(key));
                }
            }
            None => {
                self.low.insert(item, bucket(key));
            }
        }
        self.by_slot.insert(item, key);
        self.oracle.insert(item, key);
        self.check(at);
    }

    fn remove(&mut self, item: u16, at: &str) {
        let want = self.oracle.remove(&item);
        assert_eq!(self.by_slot.remove(&item), want, "{at}");
        if self.crossed_at.remove(&item) == Some(self.reads) {
            self.stale_removed += 1;
        }
        // Taking the minimum away is an ordered read for the next one.
        self.reads += 1;
        self.check(at);
    }

    /// An eviction scan: the victim sequence, order included.
    fn scan(&mut self, n: usize, threshold: u16, at: &str) {
        let want = self.oracle.smallest_excluding(n, |item| *item < threshold);
        let got = self
            .by_slot
            .index
            .smallest_excluding(n, |item| *item < threshold);
        assert_eq!(got, want, "{at} step {}", self.step);
        let (first, last) = (want.first(), want.last());
        let crossed = first
            .zip(last)
            .map_or(0, |(a, b)| bucket(b.1) - bucket(a.1));
        self.wide_scans += usize::from(crossed >= 2);
        self.reads += 1;
        self.check(at);
    }

    fn check(&mut self, at: &str) {
        let at = format!("{at} step {}", self.step);
        let index = &self.by_slot.index;
        assert_eq!(index.len(), self.oracle.len(), "{at}");
        assert_eq!(index.smallest(), self.oracle.smallest(), "{at}");
        if self.step.is_multiple_of(16) {
            index.audit();
        }
        self.step += 1;
    }

    /// A present item other than the minimum (a storm must not read).
    fn pick(&self, rng: &mut DetRng) -> Option<(u16, f64)> {
        let min = self.oracle.smallest()?.0;
        let item = rng.below(64) as u16;
        let key = self.oracle.key_of(&item)?;
        (item != min).then_some((item, key))
    }
}

/// Keys sit on a lattice of eighths of a bucket, so exact ties happen by
/// themselves; `cell` counts lattice points.
fn lattice(cell: i64) -> f64 {
    cell as f64 * (BUCKET_WIDTH_MS / 8.0)
}

/// Laziness under test: an upward re-key leaves the entry where it is
/// stored, so every ordered read, removal and downward re-key after a
/// storm of them meets stale entries — and must still answer as the tree
/// does, tie for tie.
#[test]
fn lazy_rekeys_settle_in_exact_order() {
    let (mut relocated, mut eager, mut stale, mut raised, mut wide) = (0, 0, 0, 0, 0);
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x1A27_5E77 ^ case);
        let mut t = Pair::default();
        let at = format!("case {case}");
        for item in 0..48u16 {
            t.set(item, lattice(rng.below(96 * 8) as i64), &at);
        }
        for _ in 0..24 {
            match rng.below(8) {
                // A storm: upward re-keys by up to six buckets, one in
                // eight landing exactly on another entry's larger key.
                0..=2 => {
                    for _ in 0..50 + rng.below(451) {
                        let Some((item, key)) = t.pick(&mut rng) else {
                            continue;
                        };
                        let tie = t.pick(&mut rng).filter(|_| rng.below(8) == 0);
                        let up = key + lattice(rng.below(6 * 8) as i64);
                        let to = tie.map_or(up, |(_, other)| other.max(key));
                        t.set(item, to, &at);
                    }
                }
                // Downward, possibly below everything stored.
                3 => {
                    if let Some((item, key)) = t.pick(&mut rng) {
                        t.set(item, key - lattice(rng.below(40 * 8) as i64), &at);
                    }
                }
                // The minimum rises past its bucket.
                4 => {
                    if let Some((item, key)) = t.oracle.smallest() {
                        t.set(item, key + lattice(1 + rng.below(4 * 8) as i64), &at);
                    }
                }
                5 => {
                    for _ in 0..1 + rng.below(4) {
                        if let Some((item, _)) = t.pick(&mut rng) {
                            t.remove(item, &at);
                        }
                    }
                }
                6 => t.set(rng.below(62) as u16, lattice(rng.below(96 * 8) as i64), &at),
                _ => t.scan(rng.below(13) as usize, rng.below(32) as u16, &at),
            }
        }
        if case % 8 == 0 {
            // Keys beyond the span clamp on both sides: stale entries bound
            // for the edge bucket, one scan across the whole window, and
            // the minimum rising from one edge to the other.
            t.set(62, 1.0e12, &at);
            t.set(63, -1.0e12, &at);
            for _ in 0..3 {
                if let Some((item, _)) = t.pick(&mut rng) {
                    t.set(item, 2.0e12, &at);
                }
            }
            t.scan(64, 0, &at);
            t.set(63, 3.0e12, &at);
        }
        relocated += t.by_slot.index.relocations();
        eager += t.eager_moves;
        stale += t.stale_removed;
        raised += t.min_raised;
        wide += t.wide_scans;
        // The full ascending drain, read twice: sorted at once, then
        // minimum by minimum through every bucket.
        let want: Vec<(u16, f64)> = t.oracle.iter_ascending().collect();
        assert_eq!(t.by_slot.index.entries_ascending(), want, "{at}");
        for &(item, key) in &want {
            assert_eq!(t.by_slot.pop_smallest(), Some((item, key)), "{at}");
        }
        assert!(t.by_slot.index.is_empty(), "{at}");
        t.by_slot.index.audit();
    }
    assert!(
        relocated > 0 && eager > 0 && stale > 0 && raised > 0 && wide > 0,
        "cases must cover entries relocated by a settle, eager downward moves, removals of stale \
         entries, the minimum re-keyed upward and scans across three buckets or more: \
         {relocated} / {eager} / {stale} / {raised} / {wide}"
    );
}

/// Memory: a bucket's body goes back to the pool when the bucket empties
/// and the next bucket to open takes it, so however many buckets the
/// window sweeps across, the pool never holds more bodies than the most
/// buckets that were non-empty at once (read after every operation). A
/// Cafe-shaped run: the clock crosses thousands of buckets, new items
/// arrive at the present, some present items are touched (their keys
/// rise, lazily), and eviction scans remove the oldest, settling the
/// buckets they read.
#[test]
fn body_pool_stays_within_the_busiest_moment() {
    for case in 0..8u64 {
        let mut rng = DetRng::new(0x00B0_D1E5 ^ case);
        let mut index: RankIndex<u32> = RankIndex::new();
        let mut oracle: KeyedSet<u32> = KeyedSet::new();
        let mut slots: BTreeMap<u32, u32> = BTreeMap::new();
        let (mut t, mut next, mut opened) = (0.0f64, 0u32, 0usize);
        let mut peak = 0usize;
        // After each operation: the busiest moment so far, and the pool.
        let mut note = |index: &RankIndex<u32>, at: &str| {
            let (open, pool) = index.bodies();
            peak = peak.max(open);
            assert!(
                pool <= peak,
                "{at}: {pool} bodies, at most {peak} buckets held entries"
            );
            peak
        };
        for step in 0..6_000 {
            let at = format!("case {case} step {step}");
            // Up to three buckets of trace time a step.
            t += rng.below(3 * BUCKET_WIDTH_MS as u64) as f64;
            for _ in 0..rng.below(4) {
                let before = index.bodies().0;
                let key = t - rng.below(4 * BUCKET_WIDTH_MS as u64) as f64;
                slots.insert(next, index.insert_new(next, key, ()));
                oracle.insert(next, key);
                next += 1;
                opened += index.bodies().0 - before;
                note(&index, &at);
            }
            for _ in 0..rng.below(3) {
                // A touch: a present item's key rises to near the present.
                let item = rng.below(u64::from(next.max(1))) as u32;
                if let Some(&slot) = slots.get(&item) {
                    let key = t - rng.below(BUCKET_WIDTH_MS as u64) as f64;
                    let key = key.max(index.get(slot).map_or(key, |e| e.1));
                    index.rekey_slot(slot, key);
                    oracle.insert(item, key);
                    note(&index, &at);
                }
            }
            // Eviction keeps the index near 64 items.
            let over = slots.len().saturating_sub(64);
            let victims = index.smallest_excluding(over, |_| false);
            note(&index, &at);
            assert_eq!(victims, oracle.smallest_excluding(over, |_| false), "{at}");
            for (item, _) in victims {
                let slot = slots.remove(&item).expect("present");
                index.remove_slot(slot);
                oracle.remove(&item);
                note(&index, &at);
            }
            if rng.below(64) == 0 {
                // Now and then the whole index drains.
                while let Some((item, _)) = index.smallest() {
                    index.remove_slot(slots.remove(&item).expect("present"));
                    oracle.remove(&item);
                    note(&index, &at);
                }
            }
            assert_eq!(index.smallest(), oracle.smallest(), "{at}");
            if step % 256 == 0 {
                index.audit();
            }
        }
        index.audit();
        let peak = note(&index, "end");
        let moved = index.relocations();
        assert!(
            opened > 2_000 && peak < 200 && moved > 0,
            "case {case}: {opened} buckets opened, at most {peak} at once, {moved} settled moves"
        );
    }
}
