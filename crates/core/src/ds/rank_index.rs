//! Cafe's bucketed rank index: a timing-wheel-style order structure over
//! `f64` virtual-timestamp keys with O(1) amortized re-keying.
//!
//! [`KeyedSet`](crate::ds::KeyedSet) implements the paper's §6 structure
//! literally — a binary tree set plus a hash map — which makes re-keying a
//! present chunk an O(log N) tree remove+insert *per chunk per request*.
//! By Theorem 1 the pairwise order of Cafe's virtual keys
//! (`key_x = t − IAT_x`) is evaluation-time invariant, so the order never
//! needs global rebalancing: this index partitions the key line into
//! fixed-width buckets (`BUCKET_WIDTH_MS`) and keeps each bucket as an
//! unordered vector that is **lazily sorted only when an eviction scan
//! actually enters it**. Re-keying becomes a bucket move (two vector
//! swaps); the common same-bucket re-key is a field store.
//!
//! Determinism contract: every ordered read — [`RankIndex::smallest`],
//! [`RankIndex::pop_smallest`], [`RankIndex::for_smallest_excluding`],
//! [`RankIndex::entries_ascending`] — yields *exactly* the ascending
//! `(key, item)` order a `BTreeSet<(OrdF64, T)>` would, including
//! tie-breaks on equal keys. Bucketing is a monotone map (equal keys share
//! a bucket; larger keys never land in a smaller bucket, even under the
//! span clamp), and within a bucket entries are compared by
//! `(total_cmp(key), item)` with `-0.0` normalized to `+0.0` at insertion
//! — the same order [`OrdF64`](crate::ds::OrdF64) defines. Lazy sorting
//! only changes *when* the comparisons happen, never their result, so
//! replay byte counters are bit-identical to the `KeyedSet` ones
//! (`crates/core/tests/prop_rank_index.rs` holds the model oracle).

use std::collections::VecDeque;
use std::hash::Hash;

use vcdn_types::FastMap;

/// Fixed bucket width on the key line, in key units (milliseconds for
/// Cafe's virtual timestamps): 2^16 ms ≈ 65.5 s. See `DESIGN.md` §8 for
/// the sizing rationale.
pub const BUCKET_WIDTH_MS: f64 = 65_536.0;

/// Half-width of the bucket-id window kept addressable around the first
/// inserted key (2^20 buckets ≈ ±2.2 virtual years at the default width).
/// Keys beyond the window clamp into the edge buckets — the mapping stays
/// monotone so ordering stays exact; only the lazy-sort batches grow.
const MAX_BUCKET_SPAN: i64 = 1 << 20;

/// Sentinel slab index meaning "no entry".
const NONE_IDX: u32 = u32::MAX;

/// Sentinel for [`RankIndex::insert`]'s aux payload when the caller has
/// no sidecar handle to attach.
pub const NO_AUX: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<T> {
    item: T,
    key: f64,
    /// Caller-owned sidecar (Cafe stores the popularity-table handle here
    /// so eviction scans read IAT slabs without a hash lookup).
    aux: u32,
    /// Global bucket id currently holding this entry.
    bucket: i64,
    /// Position inside that bucket's item vector.
    slot: u32,
}

/// One key-range bucket: slab indices, sorted *descending* by
/// `(key, item)` when `sorted` — the global minimum sits at the tail, so
/// popping it preserves sortedness.
#[derive(Debug, Clone, Default)]
struct Bucket {
    items: Vec<u32>,
    sorted: bool,
}

/// A set of items ordered by a mutable `f64` key, bucketed for O(1)
/// amortized insert/re-key/remove with exact `BTreeSet`-equivalent
/// ascending iteration (smaller key = less popular = evicted first).
///
/// Ordered scans take `&mut self` because they lazily sort the buckets
/// they enter; [`Self::smallest`] stays `&self` via an incrementally
/// maintained minimum.
///
/// # Examples
///
/// ```
/// use vcdn_core::ds::{RankIndex, NO_AUX};
///
/// let mut s: RankIndex<&str> = RankIndex::new();
/// s.insert("a", 5.0, NO_AUX);
/// s.insert("b", 1.0, NO_AUX);
/// s.insert("a", 0.5, NO_AUX); // re-keying an existing item
/// assert_eq!(s.smallest(), Some(("a", 0.5)));
/// assert_eq!(s.key_of(&"b"), Some(1.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RankIndex<T: Eq + Hash + Ord + Copy> {
    map: FastMap<T, u32>,
    slab: Vec<Entry<T>>,
    free: Vec<u32>,
    /// Buckets for global ids `base ..= base + buckets.len() − 1`.
    buckets: VecDeque<Bucket>,
    base: i64,
    /// Clamp anchor: global bucket id of the first key inserted while the
    /// index was empty (fixed until the index drains, so the key→bucket
    /// map never changes under live entries).
    anchor: Option<i64>,
    /// Slab index of the lexicographic `(key, item)` minimum.
    min_idx: u32,
}

fn order<T: Ord>(ak: f64, ai: &T, bk: f64, bi: &T) -> std::cmp::Ordering {
    ak.total_cmp(&bk).then_with(|| ai.cmp(bi))
}

impl<T: Eq + Hash + Ord + Copy> RankIndex<T> {
    /// Creates an empty index.
    pub fn new() -> Self {
        RankIndex {
            map: FastMap::default(),
            slab: Vec::new(),
            free: Vec::new(),
            buckets: VecDeque::new(),
            base: 0,
            anchor: None,
            min_idx: NONE_IDX,
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    // lint: hot
    /// Whether `item` is present.
    pub fn contains(&self, item: &T) -> bool {
        self.map.contains_key(item)
    }

    // lint: hot
    /// The current key of `item`, if present.
    pub fn key_of(&self, item: &T) -> Option<f64> {
        self.map.get(item).map(|&i| self.slab[i as usize].key)
    }

    /// The global bucket id for `key`, clamped to the anchored window.
    fn bucket_of(&self, key: f64, anchor: i64) -> i64 {
        // `as i64` saturates, and clamping is monotone: ordering across
        // buckets is preserved for every representable key.
        let raw = (key / BUCKET_WIDTH_MS).floor() as i64;
        raw.clamp(
            anchor.saturating_sub(MAX_BUCKET_SPAN),
            anchor.saturating_add(MAX_BUCKET_SPAN),
        )
    }

    /// Grows the bucket window to cover global id `g`; returns its offset.
    fn ensure_bucket(&mut self, g: i64) -> usize {
        if self.buckets.is_empty() {
            self.base = g;
            self.buckets.push_back(Bucket::default());
            return 0;
        }
        while g < self.base {
            self.buckets.push_front(Bucket::default());
            self.base -= 1;
        }
        let mut off = (g - self.base) as usize;
        while off >= self.buckets.len() {
            self.buckets.push_back(Bucket::default());
        }
        off = (g - self.base) as usize;
        off
    }

    /// Appends slab entry `idx` (with key/aux already set) to bucket `g`.
    fn attach(&mut self, idx: u32, g: i64) {
        let off = self.ensure_bucket(g);
        let slab = &mut self.slab;
        let e_key = slab[idx as usize].key;
        let bucket = &mut self.buckets[off];
        // Appending keeps a sorted (descending) bucket sorted only when
        // the new entry is the bucket's new minimum.
        if !bucket.items.is_empty() && bucket.sorted {
            let last = bucket.items[bucket.items.len() - 1] as usize;
            if order(
                e_key,
                &slab[idx as usize].item,
                slab[last].key,
                &slab[last].item,
            ) != std::cmp::Ordering::Less
            {
                bucket.sorted = false;
            }
        } else if bucket.items.is_empty() {
            bucket.sorted = true;
        }
        bucket.items.push(idx);
        let e = &mut slab[idx as usize];
        e.bucket = g;
        e.slot = (bucket.items.len() - 1) as u32;
    }

    /// Unlinks slab entry `idx` from its bucket (does not free the slot).
    fn detach(&mut self, idx: u32) {
        let (g, slot) = {
            let e = &self.slab[idx as usize];
            (e.bucket, e.slot as usize)
        };
        let off = (g - self.base) as usize;
        let bucket = &mut self.buckets[off];
        let last = bucket.items.len() - 1;
        if slot != last {
            let moved = bucket.items[last];
            bucket.items[slot] = moved;
            self.slab[moved as usize].slot = slot as u32;
            // The tail element jumped forward: order is no longer known.
            bucket.sorted = false;
        }
        bucket.items.pop();
    }

    /// Recomputes the cached minimum; every remaining entry is known to
    /// live in bucket `start_g` or later. Also trims drained front
    /// buckets so long-gone key ranges stop costing scan time.
    fn recompute_min_from(&mut self, start_g: i64) {
        while let Some(front) = self.buckets.front() {
            if front.items.is_empty() && self.buckets.len() > 1 && self.base < start_g {
                self.buckets.pop_front();
                self.base += 1;
            } else {
                break;
            }
        }
        let mut off = (start_g.max(self.base) - self.base) as usize;
        while off < self.buckets.len() {
            let bucket = &self.buckets[off];
            if let Some((&first, rest)) = bucket.items.split_first() {
                let mut best = first;
                for &i in rest {
                    let (a, b) = (&self.slab[i as usize], &self.slab[best as usize]);
                    if order(a.key, &a.item, b.key, &b.item) == std::cmp::Ordering::Less {
                        best = i;
                    }
                }
                self.min_idx = best;
                return;
            }
            off += 1;
        }
        self.min_idx = NONE_IDX;
    }

    // lint: hot
    /// Inserts `item` with `key`, replacing any previous key; `aux` is an
    /// opaque caller payload handed back by ordered scans ([`NO_AUX`]
    /// when unused). Returns the entry's **slab slot** — stable for the
    /// entry's whole lifetime (until [`Self::remove`]) — which the caller
    /// may keep to use the probe-free [`Self::rekey_slot`].
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN.
    pub fn insert(&mut self, item: T, key: f64, aux: u32) -> u32 {
        assert!(!key.is_nan(), "RankIndex cannot hold a NaN key");
        // Normalize -0.0 so stored keys follow the IEEE order exactly
        // (same as OrdF64 in the tree-based KeyedSet).
        let key = key + 0.0;
        let anchor = match self.anchor {
            Some(a) => a,
            None => {
                let a = (key / BUCKET_WIDTH_MS).floor() as i64;
                self.anchor = Some(a);
                a
            }
        };
        let g = self.bucket_of(key, anchor);
        if let Some(&idx) = self.map.get(&item) {
            self.rekey_idx(idx, key, aux, g);
            return idx;
        }
        let idx = self.alloc(item, key, aux);
        self.map.insert(item, idx);
        self.attach(idx, g);
        self.challenge_min(idx);
        idx
    }

    // lint: hot
    /// Re-keys the entry at slab slot `slot` (as returned by
    /// [`Self::insert`]) without any hash probe, refreshing `aux`.
    ///
    /// The caller must pass a slot obtained from [`Self::insert`] for an
    /// item that has not been removed since — slots are reused after
    /// removal, so a stale slot would silently re-key a different item.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN.
    pub fn rekey_slot(&mut self, slot: u32, key: f64, aux: u32) {
        assert!(!key.is_nan(), "RankIndex cannot hold a NaN key");
        let key = key + 0.0;
        // A live slot implies a non-empty index, so the anchor is set.
        let anchor = self.anchor.unwrap_or_default();
        let g = self.bucket_of(key, anchor);
        self.rekey_idx(slot, key, aux, g);
    }

    // lint: hot
    /// Moves slab entry `idx` to (already normalized) `key` in bucket `g`.
    fn rekey_idx(&mut self, idx: u32, key: f64, aux: u32, g: i64) {
        let (old_key, old_g) = {
            let e = &self.slab[idx as usize];
            (e.key, e.bucket)
        };
        self.slab[idx as usize].aux = aux;
        if old_key.total_cmp(&key) == std::cmp::Ordering::Equal {
            return; // identical key: tree re-insert would be a no-op
        }
        self.slab[idx as usize].key = key;
        if g == old_g {
            let off = (g - self.base) as usize;
            let bucket = &mut self.buckets[off];
            if bucket.items.len() > 1 {
                bucket.sorted = false;
            }
        } else {
            self.detach(idx);
            self.attach(idx, g);
        }
        // Minimum maintenance: a shrinking key keeps (or takes) the
        // minimum; the minimum growing must be re-found.
        if idx == self.min_idx {
            if key > old_key {
                self.recompute_min_from(old_g);
            }
        } else {
            self.challenge_min(idx);
        }
    }

    /// Takes a free slab slot (or grows the slab) for a new entry.
    fn alloc(&mut self, item: T, key: f64, aux: u32) -> u32 {
        let entry = Entry {
            item,
            key,
            aux,
            bucket: 0,
            slot: 0,
        };
        match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = entry;
                idx
            }
            None => {
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
        }
    }

    // lint: hot
    /// Makes `idx` the cached minimum if it orders below it.
    fn challenge_min(&mut self, idx: u32) {
        if self.min_idx == NONE_IDX {
            self.min_idx = idx;
            return;
        }
        let (c, m) = (&self.slab[idx as usize], &self.slab[self.min_idx as usize]);
        if order(c.key, &c.item, m.key, &m.item) == std::cmp::Ordering::Less {
            self.min_idx = idx;
        }
    }

    // lint: hot
    /// Removes `item`; returns its key if it was present.
    pub fn remove(&mut self, item: &T) -> Option<f64> {
        let idx = self.map.remove(item)?;
        let (key, g) = {
            let e = &self.slab[idx as usize];
            (e.key, e.bucket)
        };
        self.detach(idx);
        self.free.push(idx);
        if self.map.is_empty() {
            self.reset_buckets();
        } else if idx == self.min_idx {
            self.recompute_min_from(g);
        }
        Some(key)
    }

    /// Drops all buckets and re-arms the clamp anchor once drained.
    fn reset_buckets(&mut self) {
        self.buckets.clear();
        self.base = 0;
        self.anchor = None;
        self.min_idx = NONE_IDX;
    }

    // lint: hot
    /// The smallest-key (least popular) item — O(1), no sorting.
    pub fn smallest(&self) -> Option<(T, f64)> {
        if self.min_idx == NONE_IDX {
            return None;
        }
        let e = &self.slab[self.min_idx as usize];
        Some((e.item, e.key))
    }

    // lint: hot
    /// Removes and returns the smallest-key item.
    pub fn pop_smallest(&mut self) -> Option<(T, f64)> {
        let (item, key) = self.smallest()?;
        self.remove(&item);
        Some((item, key))
    }

    // lint: hot
    /// Visits the `n` smallest-key items that do not satisfy `exclude`,
    /// in exact ascending `(key, item)` order (fewer if the index runs
    /// out), as `visit(item, key, aux)`. Buckets are sorted lazily as the
    /// scan enters them; buckets the scan never reaches stay unsorted.
    pub fn for_smallest_excluding(
        &mut self,
        n: usize,
        exclude: impl Fn(&T) -> bool,
        mut visit: impl FnMut(T, f64, u32),
    ) {
        if n == 0 || self.map.is_empty() {
            return;
        }
        let mut taken = 0usize;
        let slab = &mut self.slab;
        for bucket in self.buckets.iter_mut() {
            if bucket.items.is_empty() {
                continue;
            }
            if !bucket.sorted {
                sort_bucket(bucket, slab);
            }
            // Descending storage read back-to-front = ascending order.
            for &idx in bucket.items.iter().rev() {
                let e = &slab[idx as usize];
                if exclude(&e.item) {
                    continue;
                }
                visit(e.item, e.key, e.aux);
                taken += 1;
                if taken == n {
                    return;
                }
            }
        }
    }

    /// Collecting form of [`Self::for_smallest_excluding`] (tests and
    /// cold paths).
    pub fn smallest_excluding(&mut self, n: usize, exclude: impl Fn(&T) -> bool) -> Vec<(T, f64)> {
        let mut out = Vec::new();
        self.for_smallest_excluding(n, exclude, |item, key, _| out.push((item, key)));
        out
    }

    /// Every `(item, key)` in ascending `(key, item)` order — allocates
    /// and sorts a fresh vector; snapshot/export path, not for the hot
    /// loop.
    pub fn entries_ascending(&self) -> Vec<(T, f64)> {
        let mut out: Vec<(T, f64)> = self
            .map
            .values()
            .map(|&i| {
                let e = &self.slab[i as usize];
                (e.item, e.key)
            })
            .collect();
        out.sort_unstable_by(|a, b| order(a.1, &a.0, b.1, &b.0));
        out
    }
}

/// Sorts a bucket descending by `(key, item)` and rewrites entry slots.
fn sort_bucket<T: Eq + Ord + Copy>(bucket: &mut Bucket, slab: &mut [Entry<T>]) {
    bucket.items.sort_unstable_by(|&a, &b| {
        let (ea, eb) = (&slab[a as usize], &slab[b as usize]);
        order(eb.key, &eb.item, ea.key, &ea.item)
    });
    for (pos, &idx) in bucket.items.iter().enumerate() {
        slab[idx as usize].slot = pos as u32;
    }
    bucket.sorted = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_lookup_remove() {
        let mut s = RankIndex::new();
        s.insert(1u32, 3.0, NO_AUX);
        s.insert(2, 1.0, NO_AUX);
        s.insert(3, 2.0, NO_AUX);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&1));
        assert_eq!(s.key_of(&3), Some(2.0));
        assert_eq!(s.remove(&3), Some(2.0));
        assert_eq!(s.remove(&3), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ordering_and_pops() {
        let mut s = RankIndex::new();
        s.insert("c", 30.0, NO_AUX);
        s.insert("a", 10.0, NO_AUX);
        s.insert("b", 20.0, NO_AUX);
        assert_eq!(s.smallest(), Some(("a", 10.0)));
        assert_eq!(s.pop_smallest(), Some(("a", 10.0)));
        assert_eq!(s.pop_smallest(), Some(("b", 20.0)));
        assert_eq!(s.pop_smallest(), Some(("c", 30.0)));
        assert_eq!(s.pop_smallest(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn rekeying_moves_items_across_buckets() {
        let mut s = RankIndex::new();
        s.insert(1u8, 10.0, NO_AUX);
        s.insert(2, 20.0, NO_AUX);
        // Far re-key: different bucket in both directions.
        s.insert(1, 10.0 + 10.0 * BUCKET_WIDTH_MS, NO_AUX);
        assert_eq!(s.len(), 2);
        assert_eq!(s.smallest(), Some((2, 20.0)));
        s.insert(1, -5.0 * BUCKET_WIDTH_MS, NO_AUX);
        assert_eq!(s.smallest(), Some((1, -5.0 * BUCKET_WIDTH_MS)));
        // Same-bucket down-keying keeps the order exact too.
        s.insert(2, 19.5, NO_AUX);
        assert_eq!(s.key_of(&2), Some(19.5));
    }

    #[test]
    fn equal_keys_disambiguated_by_item() {
        let mut s = RankIndex::new();
        s.insert(5u32, 1.0, NO_AUX);
        s.insert(3, 1.0, NO_AUX);
        s.insert(4, 1.0, NO_AUX);
        let order: Vec<u32> = s.entries_ascending().iter().map(|&(t, _)| t).collect();
        assert_eq!(order, vec![3, 4, 5]);
        assert_eq!(s.pop_smallest(), Some((3, 1.0)));
        assert_eq!(s.pop_smallest(), Some((4, 1.0)));
    }

    #[test]
    fn smallest_excluding_skips() {
        let mut s = RankIndex::new();
        for i in 0..6u32 {
            s.insert(i, i as f64, NO_AUX);
        }
        let picked = s.smallest_excluding(3, |t| *t % 2 == 0);
        assert_eq!(
            picked.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        let few = s.smallest_excluding(10, |t| *t < 4);
        assert_eq!(few.len(), 2);
    }

    #[test]
    fn aux_payload_rides_along() {
        let mut s = RankIndex::new();
        s.insert(7u8, 2.0, 42);
        s.insert(8, 1.0, 43);
        let mut seen = Vec::new();
        s.for_smallest_excluding(10, |_| false, |item, key, aux| seen.push((item, key, aux)));
        assert_eq!(seen, vec![(8, 1.0, 43), (7, 2.0, 42)]);
        // Re-keying refreshes the payload.
        s.insert(7, 2.0, 99);
        let mut seen = Vec::new();
        s.for_smallest_excluding(10, |t| *t == 8, |item, _, aux| seen.push((item, aux)));
        assert_eq!(seen, vec![(7, 99)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_keys_rejected() {
        RankIndex::new().insert(1u8, f64::NAN, NO_AUX);
    }

    #[test]
    fn negative_zero_normalizes_to_positive_zero() {
        let mut s = RankIndex::new();
        s.insert(1u8, -0.0, NO_AUX);
        let key = s.key_of(&1).expect("present");
        assert!(key.is_sign_positive());
        s.insert(2, 0.0, NO_AUX);
        assert_eq!(s.pop_smallest(), Some((1, 0.0)));
        assert_eq!(s.pop_smallest(), Some((2, 0.0)));
    }

    #[test]
    fn far_flung_keys_clamp_but_stay_ordered() {
        let mut s = RankIndex::new();
        s.insert(1u8, 0.0, NO_AUX);
        // Both far beyond the anchored window: clamped into edge buckets.
        s.insert(2, 1e300, NO_AUX);
        s.insert(3, -1e300, NO_AUX);
        s.insert(4, f64::INFINITY, NO_AUX);
        s.insert(5, f64::NEG_INFINITY, NO_AUX);
        let got: Vec<u8> = s.entries_ascending().iter().map(|&(t, _)| t).collect();
        assert_eq!(got, vec![5, 3, 1, 2, 4]);
        assert_eq!(s.pop_smallest(), Some((5, f64::NEG_INFINITY)));
        assert_eq!(s.pop_smallest(), Some((3, -1e300)));
    }

    #[test]
    fn drain_and_refill_reanchors() {
        let mut s = RankIndex::new();
        s.insert(1u8, 1e9, NO_AUX);
        assert_eq!(s.pop_smallest(), Some((1, 1e9)));
        assert!(s.is_empty());
        // A fresh anchor far from the first one must work fine.
        s.insert(2, -1e9, NO_AUX);
        assert_eq!(s.smallest(), Some((2, -1e9)));
    }

    #[test]
    fn model_based_random_ops() {
        // Reference model: HashMap + full scan for min (same model the
        // KeyedSet test uses, so both structures answer identically).
        let mut s = RankIndex::new();
        let mut model: HashMap<u64, f64> = HashMap::new();
        let mut seed = 99u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            seed >> 33
        };
        for _ in 0..5000 {
            match next() % 4 {
                0 | 1 => {
                    let k = next() % 40;
                    // Spread keys across several buckets, with ties.
                    let key = (next() % 1000) as f64 * 250.0;
                    s.insert(k, key, NO_AUX);
                    model.insert(k, key);
                }
                2 => {
                    let k = next() % 40;
                    assert_eq!(s.remove(&k), model.remove(&k));
                }
                _ => {
                    let got = s.pop_smallest();
                    let want = model
                        .iter()
                        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(b.0)))
                        .map(|(k, v)| (*k, *v));
                    assert_eq!(got, want);
                    if let Some((k, _)) = want {
                        model.remove(&k);
                    }
                }
            }
            assert_eq!(s.len(), model.len());
            let want_min = model
                .iter()
                .min_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(a.0.cmp(b.0)))
                .map(|(k, v)| (*k, *v));
            assert_eq!(s.smallest(), want_min);
        }
    }
}
