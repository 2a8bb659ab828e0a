//! Cafe's bucketed rank index: a timing-wheel-style order structure over
//! `f64` virtual-timestamp keys where re-keying is a field store.
//!
//! [`KeyedSet`](crate::ds::KeyedSet) implements the paper's §6 structure
//! literally — a binary tree set plus a hash map — which makes re-keying a
//! present chunk an O(log N) tree remove+insert *per chunk per request*.
//! By Theorem 1 the pairwise order of Cafe's virtual keys
//! (`key_x = t − IAT_x`) is evaluation-time invariant, a touch raises a
//! key (`DESIGN.md` §8), and only the smallest-key end is ever read in
//! order. So the key line is cut into fixed-width buckets
//! (`BUCKET_WIDTH_MS`), each an unordered vector, and the index is lazy:
//!
//! * an entry's stored bucket is a *lower bound* on the bucket its key
//!   maps to (**stored ≤ true**). Raising a key writes the key and flags
//!   the stored bucket dirty; only a re-key that lowers the bucket (time
//!   running backwards, arbitrary by-item keys) moves the entry at once;
//! * every ordered read **settles** each dirty bucket it enters: entries
//!   whose key now maps to a later bucket are appended there, the rest are
//!   sorted. Buckets no read reaches are never sorted.
//!
//! Entries are **slot-addressed**: [`RankIndex::insert_new`] returns a slab
//! slot, stable until [`RankIndex::remove_slot`], and there is no hash map
//! (Cafe keeps the slot in its chunk directory); [`RankMap`] puts one in
//! front of the same buckets for callers that address by item.
//!
//! Determinism contract: every ordered read yields *exactly* the ascending
//! `(key, item)` order a `BTreeSet<(OrdF64, T)>` would, ties included.
//! Bucketing is monotone (equal keys share a bucket; larger keys never
//! land in a smaller one, even under the span clamp); a read enters
//! buckets in ascending order, and by *stored ≤ true* whatever a settle
//! sends onwards, or waits in a later bucket, orders above the residents;
//! residents compare by `(total_cmp(key), item)` with `-0.0` normalized to
//! `+0.0` at insertion, as [`OrdF64`](crate::ds::OrdF64) does. Laziness
//! changes *when* comparisons happen, never their result
//! (`crates/core/tests/prop_rank_index.rs` holds the model oracle).

use std::cmp::Ordering;
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
/// monotone so ordering stays exact; only the settle batches grow.
const MAX_BUCKET_SPAN: i64 = 1 << 20;

/// Sentinel slab index meaning "no entry"; as a bucket position, the dead
/// marker of a free-listed slot.
const NONE_IDX: u32 = u32::MAX;

/// Aux payload of a caller with no sidecar handle to attach.
pub const NO_AUX: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<T> {
    item: T,
    key: f64,
    /// Caller-owned sidecar (Cafe stores the popularity-table handle here
    /// so eviction scans read IAT slabs without a hash lookup).
    aux: u32,
    /// Global id of the bucket holding this entry: never above the bucket
    /// `key` maps to.
    bucket: i64,
    /// Position inside that bucket's item vector ([`NONE_IDX`]: free slot).
    pos: u32,
}

/// One key-range bucket: slab slots. Unless `dirty`, every entry is a
/// resident (its key maps here) and the order is *descending* by
/// `(key, item)` — the global minimum sits at the tail, so removing it
/// preserves sortedness.
#[derive(Debug, Clone, Default)]
struct Bucket {
    items: Vec<u32>,
    dirty: bool,
}

/// A slot-addressed set of items ordered by a mutable `f64` key, bucketed
/// for O(1) insert/re-key/remove with exact `BTreeSet`-equivalent ascending
/// iteration (smaller key = less popular = evicted first).
///
/// Ordered scans take `&mut self` because they settle the buckets they
/// enter; [`Self::smallest`] stays `&self` via an incrementally maintained
/// minimum, which is always a resident of its bucket with every bucket
/// below it empty.
///
/// # Examples
///
/// ```
/// use vcdn_core::ds::{RankIndex, NO_AUX};
///
/// let mut s: RankIndex<&str> = RankIndex::new();
/// let a = s.insert_new("a", 5.0, NO_AUX);
/// s.insert_new("b", 1.0, NO_AUX);
/// s.rekey_slot(a, 0.5, NO_AUX);
/// assert_eq!(s.smallest(), Some(("a", 0.5)));
/// assert_eq!(s.remove_slot(a), 0.5);
/// assert_eq!(s.smallest(), Some(("b", 1.0)));
/// ```
#[derive(Debug, Clone)]
pub struct RankIndex<T: Ord + Copy> {
    slab: Vec<Entry<T>>,
    free: Vec<u32>,
    /// Buckets for global ids `base ..= base + buckets.len() − 1`.
    buckets: VecDeque<Bucket>,
    base: i64,
    /// Clamp anchor: global bucket id of the first key inserted while the
    /// index was empty (fixed until the index drains, so the key→bucket
    /// map never changes under live entries).
    anchor: Option<i64>,
    /// Slab slot of the lexicographic `(key, item)` minimum.
    min_idx: u32,
    relocations: u64,
}

fn order<T: Ord>(ak: f64, ai: &T, bk: f64, bi: &T) -> Ordering {
    ak.total_cmp(&bk).then_with(|| ai.cmp(bi))
}

impl<T: Ord + Copy> Default for RankIndex<T> {
    fn default() -> Self {
        RankIndex {
            slab: Vec::new(),
            free: Vec::new(),
            buckets: VecDeque::new(),
            base: 0,
            anchor: None,
            min_idx: NONE_IDX,
            relocations: 0,
        }
    }
}

impl<T: Ord + Copy> RankIndex<T> {
    /// Creates an empty index.
    pub fn new() -> Self {
        RankIndex::default()
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(item, key)` at `slot`, or `None` when the slot is not live.
    pub fn get(&self, slot: u32) -> Option<(T, f64)> {
        let e = self.slab.get(slot as usize)?;
        (e.pos != NONE_IDX).then_some((e.item, e.key))
    }

    /// The global bucket id for `key`, clamped to the anchored window.
    fn bucket_of(&self, key: f64) -> i64 {
        // `as i64` saturates, and clamping is monotone: ordering across
        // buckets is preserved for every representable key.
        let raw = (key / BUCKET_WIDTH_MS).floor() as i64;
        let anchor = self.anchor.unwrap_or(raw);
        raw.clamp(
            anchor.saturating_sub(MAX_BUCKET_SPAN),
            anchor.saturating_add(MAX_BUCKET_SPAN),
        )
    }

    /// Grows the bucket window to cover global id `g`; returns its offset.
    fn ensure_bucket(&mut self, g: i64) -> usize {
        if self.buckets.is_empty() {
            self.base = g;
        }
        while g < self.base {
            self.buckets.push_front(Bucket::default());
            self.base -= 1;
        }
        let off = (g - self.base) as usize;
        while off >= self.buckets.len() {
            self.buckets.push_back(Bucket::default());
        }
        off
    }

    /// Appends slab entry `idx` (key already set, mapping to `g`) to `g`.
    fn attach(&mut self, idx: u32, g: i64) {
        let off = self.ensure_bucket(g);
        let bucket = &mut self.buckets[off];
        // A lone resident is in order; any other append is not known to be.
        bucket.dirty = !bucket.items.is_empty();
        let e = &mut self.slab[idx as usize];
        e.bucket = g;
        e.pos = bucket.items.len() as u32;
        bucket.items.push(idx);
    }

    /// Unlinks slab entry `idx` from its bucket (does not free the slot).
    fn detach(&mut self, idx: u32) {
        let e = &self.slab[idx as usize];
        let pos = e.pos as usize;
        let bucket = &mut self.buckets[(e.bucket - self.base) as usize];
        bucket.items.swap_remove(pos);
        if let Some(&moved) = bucket.items.get(pos) {
            // The tail element jumped forward: order is no longer known.
            self.slab[moved as usize].pos = pos as u32;
            bucket.dirty = true;
        }
    }

    /// Settles bucket `off`: entries whose key now maps to a later bucket
    /// move there, the residents are sorted descending by `(key, item)`.
    fn settle(&mut self, off: usize) {
        let g = self.base + off as i64;
        let mut items = std::mem::take(&mut self.buckets[off].items);
        items.retain(|&idx| {
            let home = self.bucket_of(self.slab[idx as usize].key);
            debug_assert!(home >= g, "stored bucket above the key's");
            if home != g {
                self.attach(idx, home);
                self.relocations += 1;
            }
            home == g
        });
        let slab = &mut self.slab;
        items.sort_unstable_by(|&a, &b| {
            let (ea, eb) = (&slab[a as usize], &slab[b as usize]);
            order(eb.key, &eb.item, ea.key, &ea.item)
        });
        for (pos, &idx) in items.iter().enumerate() {
            slab[idx as usize].pos = pos as u32;
        }
        self.buckets[off].items = items;
        self.buckets[off].dirty = false;
    }

    /// Re-finds the minimum after it was removed or re-keyed upward. Every
    /// bucket below its old one is empty, so the settled front bucket's
    /// tail is the new minimum; drained front buckets are trimmed.
    fn refind_min(&mut self) {
        self.min_idx = NONE_IDX;
        while let Some(front) = self.buckets.front() {
            if front.dirty {
                self.settle(0);
            }
            if let Some(&tail) = self.buckets.front().and_then(|b| b.items.last()) {
                self.min_idx = tail;
                return;
            }
            self.buckets.pop_front();
            self.base += 1;
        }
    }

    /// Inserts `item`, which must not be present, with `key`; `aux` is an
    /// opaque caller payload handed back by ordered scans ([`NO_AUX`] when
    /// unused). Returns the entry's **slab slot** — stable until
    /// [`Self::remove_slot`] — the address [`Self::rekey_slot`] takes.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN.
    pub fn insert_new(&mut self, item: T, key: f64, aux: u32) -> u32 {
        assert!(!key.is_nan(), "RankIndex cannot hold a NaN key");
        // Normalize -0.0 so stored keys follow the IEEE order exactly
        // (same as OrdF64 in the tree-based KeyedSet).
        let key = key + 0.0;
        let g = self.bucket_of(key);
        self.anchor.get_or_insert(g);
        let entry = Entry {
            item,
            key,
            aux,
            bucket: g,
            pos: 0,
        };
        let idx = super::alloc(&mut self.slab, &mut self.free, entry);
        self.attach(idx, g);
        self.challenge_min(idx);
        idx
    }

    /// Re-keys the entry at `slot`, refreshing `aux`. A key that rises —
    /// a Cafe touch — is a field store that leaves the entry in its stored
    /// bucket for the next ordered read to settle.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN, or with `RankIndex slot {slot} is not live`
    /// if `slot` holds no entry (a slot kept past its entry's removal may
    /// by then name another item: slots are reused).
    pub fn rekey_slot(&mut self, slot: u32, key: f64, aux: u32) {
        assert!(!key.is_nan(), "RankIndex cannot hold a NaN key");
        let live = self.get(slot).is_some();
        assert!(live, "RankIndex slot {slot} is not live");
        let key = key + 0.0;
        let e = &mut self.slab[slot as usize];
        e.aux = aux;
        let old_key = std::mem::replace(&mut e.key, key);
        let stored = e.bucket;
        if key > old_key {
            // Bucketing is monotone: the stored bucket is still a lower
            // bound. Only the minimum rising must be acted on at once.
            self.buckets[(stored - self.base) as usize].dirty = true;
            if slot == self.min_idx {
                self.refind_min();
            }
        } else if key < old_key {
            let g = self.bucket_of(key);
            if g < stored {
                // The one eager move: stored must stay a lower bound.
                self.detach(slot);
                self.attach(slot, g);
            } else {
                self.buckets[(stored - self.base) as usize].dirty = true;
            }
            // A shrinking key keeps, or takes, the minimum.
            self.challenge_min(slot);
        }
    }

    /// Makes `idx` the cached minimum if it orders below it.
    fn challenge_min(&mut self, idx: u32) {
        let c = &self.slab[idx as usize];
        let min = self.slab.get(self.min_idx as usize);
        if min.is_none_or(|m| order(c.key, &c.item, m.key, &m.item) == Ordering::Less) {
            self.min_idx = idx;
        }
    }

    /// Removes the entry at `slot`; returns its key.
    ///
    /// # Panics
    ///
    /// Panics with `RankIndex slot {slot} is not live` if `slot` does not
    /// hold an entry (never inserted, or already removed).
    pub fn remove_slot(&mut self, slot: u32) -> f64 {
        let live = self.get(slot).is_some();
        assert!(live, "RankIndex slot {slot} is not live");
        self.detach(slot);
        let e = &mut self.slab[slot as usize];
        e.pos = NONE_IDX;
        let key = e.key;
        self.free.push(slot);
        if self.is_empty() {
            // Drained: drop all buckets and re-arm the clamp anchor.
            self.buckets.clear();
            self.anchor = None;
            self.min_idx = NONE_IDX;
        } else if slot == self.min_idx {
            self.refind_min();
        }
        key
    }

    /// The smallest-key (least popular) item — O(1), no sorting.
    pub fn smallest(&self) -> Option<(T, f64)> {
        self.get(self.min_idx)
    }

    /// Visits the `n` smallest-key items that do not satisfy `exclude`,
    /// in exact ascending `(key, item)` order (fewer if the index runs
    /// out), as `visit(item, key, aux)`. Buckets are settled as the scan
    /// enters them; buckets the scan never reaches stay as they are.
    pub fn for_smallest_excluding(
        &mut self,
        n: usize,
        exclude: impl Fn(&T) -> bool,
        mut visit: impl FnMut(T, f64, u32),
    ) {
        let Some(min) = self.slab.get(self.min_idx as usize) else {
            return;
        };
        // Every bucket below the minimum's is empty.
        let mut off = (min.bucket - self.base) as usize;
        let mut taken = 0usize;
        // A settle can add buckets at the far end: re-read the length.
        while taken < n && off < self.buckets.len() {
            if self.buckets[off].dirty {
                self.settle(off);
            }
            // Descending storage read back-to-front = ascending order.
            for &idx in self.buckets[off].items.iter().rev() {
                let e = &self.slab[idx as usize];
                if exclude(&e.item) {
                    continue;
                }
                visit(e.item, e.key, e.aux);
                taken += 1;
                if taken == n {
                    return;
                }
            }
            off += 1;
        }
    }

    /// Collecting [`Self::for_smallest_excluding`] (tests and cold paths).
    pub fn smallest_excluding(&mut self, n: usize, exclude: impl Fn(&T) -> bool) -> Vec<(T, f64)> {
        let mut out = Vec::new();
        self.for_smallest_excluding(n, exclude, |item, key, _| out.push((item, key)));
        out
    }

    /// Every `(item, key)` in ascending `(key, item)` order — allocates and
    /// sorts a fresh vector; snapshot/export path, not for the hot loop.
    pub fn entries_ascending(&self) -> Vec<(T, f64)> {
        let live = self.slab.iter().filter(|e| e.pos != NONE_IDX);
        let mut out: Vec<(T, f64)> = live.map(|e| (e.item, e.key)).collect();
        out.sort_unstable_by(|a, b| order(a.1, &a.0, b.1, &b.0));
        out
    }

    /// How many entries settles have moved to a later bucket (for tests).
    pub fn relocations(&self) -> u64 {
        self.relocations
    }

    /// Checks every structural invariant (tests): stored ≤ true and exact
    /// back-pointers for every entry, clean buckets hold only residents in
    /// descending `(key, item)` order, the minimum is the true one with
    /// every bucket below it empty, `len` counts the entries in buckets,
    /// free slots are marked dead.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        let mut live = 0usize;
        for (g, b) in (self.base..).zip(&self.buckets) {
            for (pos, &idx) in b.items.iter().enumerate() {
                let e = &self.slab[idx as usize];
                assert_eq!((e.bucket, e.pos as usize), (g, pos), "slot {idx}: place");
                let home = self.bucket_of(e.key);
                assert!(g <= home, "slot {idx}: stored in {g}, key maps to {home}");
                assert!(b.dirty || g == home, "slot {idx}: stale in a clean bucket");
            }
            let at = |idx: &u32| &self.slab[*idx as usize];
            let descending = b.items.is_sorted_by(|x, y| {
                let (x, y) = (at(x), at(y));
                order(x.key, &x.item, y.key, &y.item) == Ordering::Greater
            });
            assert!(b.dirty || descending, "bucket {g}: clean but out of order");
            live += b.items.len();
        }
        assert_eq!(live, self.len(), "entries in buckets");
        let dead = |&i: &u32| self.slab[i as usize].pos == NONE_IDX;
        assert!(self.free.iter().all(dead), "free slot not marked dead");
        let min = self.entries_ascending().first().copied();
        assert!(self.smallest() == min, "cached minimum is not the minimum");
        if let Some(min) = self.slab.get(self.min_idx as usize) {
            let below = (min.bucket - self.base) as usize;
            let drained = self.buckets.iter().take(below).all(|b| b.items.is_empty());
            assert!(drained, "entries below the minimum's bucket");
        }
    }
}

/// [`RankIndex`] addressed by item: one `FastMap<T, u32>` of slots in
/// front of the same buckets, for callers with no directory of their own
/// to keep slots in (Cafe's `hot` prefetch mirror) and for the
/// [`KeyedSet`](crate::ds::KeyedSet) oracle tests; `insert` is an upsert.
/// Reads that settle nothing ([`RankIndex::smallest`], [`RankIndex::len`],
/// [`RankIndex::entries_ascending`], …) come through `Deref`.
#[derive(Debug, Clone)]
pub struct RankMap<T: Eq + Hash + Ord + Copy> {
    slots: FastMap<T, u32>,
    index: RankIndex<T>,
}

impl<T: Eq + Hash + Ord + Copy> Default for RankMap<T> {
    fn default() -> Self {
        RankMap {
            slots: FastMap::default(),
            index: RankIndex::new(),
        }
    }
}

impl<T: Eq + Hash + Ord + Copy> std::ops::Deref for RankMap<T> {
    type Target = RankIndex<T>;

    fn deref(&self) -> &RankIndex<T> {
        &self.index
    }
}

impl<T: Eq + Hash + Ord + Copy> RankMap<T> {
    /// Creates an empty index.
    pub fn new() -> Self {
        RankMap::default()
    }

    /// Inserts `item` with `key` and `aux`, replacing any previous ones.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN.
    pub fn insert(&mut self, item: T, key: f64, aux: u32) {
        match self.slots.get(&item) {
            Some(&slot) => self.index.rekey_slot(slot, key, aux),
            None => {
                let slot = self.index.insert_new(item, key, aux);
                self.slots.insert(item, slot);
            }
        }
    }

    /// Removes `item`; returns its key if it was present.
    pub fn remove(&mut self, item: &T) -> Option<f64> {
        let slot = self.slots.remove(item)?;
        Some(self.index.remove_slot(slot))
    }

    /// Removes and returns the smallest-key item.
    pub fn pop_smallest(&mut self) -> Option<(T, f64)> {
        let (item, key) = self.index.smallest()?;
        self.remove(&item);
        Some((item, key))
    }

    /// [`RankIndex::for_smallest_excluding`].
    pub fn for_smallest_excluding(
        &mut self,
        n: usize,
        exclude: impl Fn(&T) -> bool,
        visit: impl FnMut(T, f64, u32),
    ) {
        self.index.for_smallest_excluding(n, exclude, visit);
    }

    /// [`RankIndex::smallest_excluding`].
    pub fn smallest_excluding(&mut self, n: usize, exclude: impl Fn(&T) -> bool) -> Vec<(T, f64)> {
        self.index.smallest_excluding(n, exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_lookup_remove() {
        let mut s = RankMap::new();
        s.insert(1u32, 3.0, NO_AUX);
        s.insert(2, 1.0, NO_AUX);
        s.insert(3, 2.0, NO_AUX);
        assert_eq!(s.len(), 3);
        assert_eq!(s.remove(&3), Some(2.0));
        assert_eq!(s.remove(&3), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ordering_and_pops() {
        let mut s = RankMap::new();
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
        let mut s = RankMap::new();
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
        assert_eq!(s.entries_ascending()[1], (2, 19.5));
    }

    #[test]
    fn equal_keys_disambiguated_by_item() {
        let mut s = RankMap::new();
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
        let mut s = RankMap::new();
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
        let mut s = RankMap::new();
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
        RankMap::new().insert(1u8, f64::NAN, NO_AUX);
    }

    #[test]
    fn negative_zero_normalizes_to_positive_zero() {
        let mut s = RankMap::new();
        s.insert(1u8, -0.0, NO_AUX);
        let key = s.smallest().expect("present").1;
        assert!(key.is_sign_positive());
        s.insert(2, 0.0, NO_AUX);
        assert_eq!(s.pop_smallest(), Some((1, 0.0)));
        assert_eq!(s.pop_smallest(), Some((2, 0.0)));
    }

    #[test]
    fn far_flung_keys_clamp_but_stay_ordered() {
        let mut s = RankMap::new();
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
        let mut s = RankMap::new();
        s.insert(1u8, 1e9, NO_AUX);
        assert_eq!(s.pop_smallest(), Some((1, 1e9)));
        assert!(s.is_empty());
        // A fresh anchor far from the first one must work fine.
        s.insert(2, -1e9, NO_AUX);
        assert_eq!(s.smallest(), Some((2, -1e9)));
    }

    #[test]
    fn upward_rekeys_wait_for_the_next_ordered_read() {
        let mut s = RankIndex::new();
        let slots: Vec<u32> = (0..8u32)
            .map(|i| s.insert_new(i, f64::from(i), i))
            .collect();
        // Items 1..8 leave bucket 0 for buckets 1..8; nothing moves yet.
        for (i, &slot) in slots.iter().enumerate().skip(1) {
            s.rekey_slot(slot, i as f64 * BUCKET_WIDTH_MS, NO_AUX);
        }
        assert_eq!((s.relocations(), s.buckets.len()), (0, 1));
        assert_eq!(s.smallest(), Some((0, 0.0)));
        s.audit();
        // A scan of two settles bucket 0 (seven move out) and bucket 1.
        let got = s.smallest_excluding(2, |_| false);
        assert_eq!(got, [(0, 0.0), (1, BUCKET_WIDTH_MS)]);
        assert_eq!(s.relocations(), 7);
        s.audit();
        // The minimum rising is the other ordered read: it settles on the
        // way to the new minimum and trims the drained front.
        s.rekey_slot(slots[0], 9.0 * BUCKET_WIDTH_MS, NO_AUX);
        assert_eq!(s.smallest(), Some((1, BUCKET_WIDTH_MS)));
        assert_eq!((s.base, s.relocations()), (1, 8));
        assert_eq!(s.remove_slot(slots[1]), BUCKET_WIDTH_MS);
        assert_eq!(s.smallest(), Some((2, 2.0 * BUCKET_WIDTH_MS)));
        // A key that falls below its stored bucket moves at once.
        s.rekey_slot(slots[5], -1.0, 55);
        assert_eq!(s.slab[slots[5] as usize].bucket, -1);
        assert_eq!(s.smallest(), Some((5, -1.0)));
        s.audit();
        let mut seen = Vec::new();
        s.for_smallest_excluding(2, |_| false, |item, _, aux| seen.push((item, aux)));
        assert_eq!(seen, [(5, 55), (2, NO_AUX)]);
        let order: Vec<u32> = s.entries_ascending().iter().map(|e| e.0).collect();
        assert_eq!(order, [5, 2, 3, 4, 6, 7, 0]);
    }

    #[test]
    fn slots_are_reused_and_dead_slots_answer_none() {
        let mut s = RankIndex::new();
        let a = s.insert_new('a', 1.0, NO_AUX);
        let b = s.insert_new('b', 2.0, NO_AUX);
        assert_eq!(s.get(a), Some(('a', 1.0)));
        assert_eq!(s.remove_slot(a), 1.0);
        assert_eq!((s.get(a), s.get(99), s.len()), (None, None, 1));
        s.audit();
        assert_eq!(s.insert_new('c', 0.5, NO_AUX), a);
        assert_eq!(s.smallest(), Some(('c', 0.5)));
        assert_eq!(s.get(b), Some(('b', 2.0)));
        s.audit();
    }

    #[test]
    #[should_panic(expected = "RankIndex slot 0 is not live")]
    fn rekeying_a_removed_slot_panics() {
        let mut s = RankIndex::new();
        let a = s.insert_new(1u8, 1.0, NO_AUX);
        s.insert_new(2, 2.0, NO_AUX);
        s.remove_slot(a);
        s.rekey_slot(a, 3.0, NO_AUX);
    }

    #[test]
    #[should_panic(expected = "RankIndex slot 7 is not live")]
    fn removing_a_slot_never_handed_out_panics() {
        let mut s = RankIndex::new();
        s.insert_new(1u8, 1.0, NO_AUX);
        s.remove_slot(7);
    }

    #[test]
    #[should_panic(expected = "RankIndex slot 1 is not live")]
    fn removing_a_slot_twice_panics() {
        let mut s = RankIndex::new();
        s.insert_new(1u8, 1.0, NO_AUX);
        let b = s.insert_new(2, 2.0, NO_AUX);
        s.remove_slot(b);
        s.remove_slot(b);
    }

    #[test]
    fn model_based_random_ops() {
        // Reference model: BTreeMap + full scan for min (same model the
        // KeyedSet test uses, so both structures answer identically).
        let mut s = RankMap::new();
        let mut model: BTreeMap<u64, f64> = BTreeMap::new();
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
        s.audit();
    }
}
