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
//! slot, stable until [`RankIndex::remove_slot`], and there is no hash map:
//! the caller keeps each item's slot (Cafe keeps it in its chunk
//! directory). Each entry carries a caller-typed payload `P` beside its
//! item and key (Cafe's is the chunk's directory slot and Eq. 8 average).
//!
//! Memory follows what the index holds. The bucket window is a deque of
//! 4-byte body numbers, `NO_BODY` for an empty bucket; the item vectors
//! live in one pool of bodies, and a bucket that empties hands its body,
//! capacity and all, to a spare list that the next bucket to open takes
//! from. So the key range the window spans costs 4 bytes a bucket, the
//! pool never holds more bodies than buckets were ever non-empty at once,
//! and reopening a bucket allocates nothing.
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
use std::mem::size_of;

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

/// The window's mark of an empty bucket: it holds no body.
const NO_BODY: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<T, P> {
    item: T,
    key: f64,
    /// Caller-owned sidecar, handed back by ordered scans.
    payload: P,
    /// The bucket holding this entry, as an offset from the anchor's (the
    /// clamp keeps it within ±[`MAX_BUCKET_SPAN`]): never above the bucket
    /// `key` maps to.
    bucket: i32,
    /// Position inside that bucket's item vector ([`NONE_IDX`]: free slot).
    pos: u32,
}

/// One non-empty bucket's slab slots, or a spare body's empty vector.
/// Unless `dirty`, every entry is a resident (its key maps here) and the
/// order is *descending* by `(key, item)` — the global minimum sits at
/// the tail, so removing it preserves sortedness.
#[derive(Debug, Clone, Default)]
struct Body {
    items: Vec<u32>,
    dirty: bool,
}

/// A slot-addressed set of items ordered by a mutable `f64` key, bucketed
/// for O(1) insert/re-key/remove with exact `BTreeSet`-equivalent ascending
/// iteration (smaller key = less popular = evicted first). Each entry
/// carries a payload `P` (`()` for none).
///
/// Ordered scans take `&mut self` because they settle the buckets they
/// enter; [`Self::smallest`] stays `&self` via an incrementally maintained
/// minimum, which is always a resident of its bucket with every bucket
/// below it empty.
///
/// # Examples
///
/// ```
/// use vcdn_core::ds::RankIndex;
///
/// let mut s: RankIndex<&str> = RankIndex::new();
/// let a = s.insert_new("a", 5.0, ());
/// s.insert_new("b", 1.0, ());
/// s.rekey_slot(a, 0.5);
/// assert_eq!(s.smallest(), Some(("a", 0.5)));
/// assert_eq!(s.remove_slot(a), 0.5);
/// assert_eq!(s.smallest(), Some(("b", 1.0)));
/// ```
#[derive(Debug, Clone)]
pub struct RankIndex<T: Ord + Copy, P: Copy = ()> {
    slab: Vec<Entry<T, P>>,
    free: Vec<u32>,
    /// The body of each bucket `base ..= base + window.len() − 1`
    /// (offsets from the anchor's bucket), [`NO_BODY`] while it is empty.
    window: VecDeque<u32>,
    base: i32,
    /// Every body ever opened: those the window names, each non-empty,
    /// and the `spare` ones, each empty.
    bodies: Vec<Body>,
    spare: Vec<u32>,
    /// A settle's movers, between leaving their bucket and joining the
    /// next (empty, capacity kept).
    moving: Vec<u32>,
    /// Clamp anchor: raw bucket id of the first key inserted while the
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

/// The unclamped bucket id of `key`; `as i64` saturates.
fn raw_bucket(key: f64) -> i64 {
    (key / BUCKET_WIDTH_MS).floor() as i64
}

impl<T: Ord + Copy, P: Copy> Default for RankIndex<T, P> {
    fn default() -> Self {
        RankIndex {
            slab: Vec::new(),
            free: Vec::new(),
            window: VecDeque::new(),
            base: 0,
            bodies: Vec::new(),
            spare: Vec::new(),
            moving: Vec::new(),
            anchor: None,
            min_idx: NONE_IDX,
            relocations: 0,
        }
    }
}

impl<T: Ord + Copy, P: Copy> RankIndex<T, P> {
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

    /// The live entry at `slot`.
    ///
    /// # Panics
    ///
    /// Panics with `RankIndex slot {slot} is not live` if `slot` holds no
    /// entry (a slot kept past its entry's removal may by then name
    /// another item: slots are reused).
    fn live(&self, slot: u32) -> &Entry<T, P> {
        let live = self.get(slot).is_some();
        assert!(live, "RankIndex slot {slot} is not live");
        &self.slab[slot as usize]
    }

    /// The item of the entry at `slot`.
    ///
    /// # Panics
    ///
    /// As [`Self::remove_slot`], if `slot` holds no entry.
    pub fn item(&self, slot: u32) -> T {
        self.live(slot).item
    }

    /// The payload of the entry at `slot`.
    ///
    /// # Panics
    ///
    /// As [`Self::remove_slot`], if `slot` holds no entry.
    pub fn payload(&self, slot: u32) -> &P {
        &self.live(slot).payload
    }

    /// The payload of the entry at `slot`, for the caller to update.
    ///
    /// # Panics
    ///
    /// As [`Self::remove_slot`], if `slot` holds no entry.
    pub fn payload_mut(&mut self, slot: u32) -> &mut P {
        self.live(slot);
        &mut self.slab[slot as usize].payload
    }

    /// The bucket for `key`, as an offset from the anchor's, clamped to
    /// the anchored window.
    fn bucket_of(&self, key: f64) -> i32 {
        // Saturating and clamping are both monotone: ordering across
        // buckets is preserved for every representable key.
        let raw = raw_bucket(key);
        let anchor = self.anchor.unwrap_or(raw);
        raw.saturating_sub(anchor)
            .clamp(-MAX_BUCKET_SPAN, MAX_BUCKET_SPAN) as i32
    }

    /// Grows the bucket window to cover bucket `g`; returns its offset.
    fn ensure_bucket(&mut self, g: i32) -> usize {
        if self.window.is_empty() {
            self.base = g;
        }
        while g < self.base {
            self.window.push_front(NO_BODY);
            self.base -= 1;
        }
        let off = (g - self.base) as usize;
        while off >= self.window.len() {
            self.window.push_back(NO_BODY);
        }
        off
    }

    /// The body of the bucket at window offset `off` (which is open).
    fn body_mut(&mut self, off: usize) -> &mut Body {
        &mut self.bodies[self.window[off] as usize]
    }

    /// The body of the bucket at `off`, giving it a spare body (or a new
    /// one) if it is empty.
    fn open(&mut self, off: usize) -> &mut Body {
        if self.window[off] == NO_BODY {
            self.window[off] = self.spare.pop().unwrap_or_else(|| {
                self.bodies.push(Body::default());
                (self.bodies.len() - 1) as u32
            });
        }
        self.body_mut(off)
    }

    /// Hands the emptied bucket at `off`'s body, capacity kept, to the
    /// spare list.
    fn close(&mut self, off: usize) {
        let body = std::mem::replace(&mut self.window[off], NO_BODY);
        debug_assert!(self.bodies[body as usize].items.is_empty());
        self.bodies[body as usize].dirty = false;
        self.spare.push(body);
    }

    /// Appends slab entry `idx` (key already set, mapping to `g`) to `g`.
    fn attach(&mut self, idx: u32, g: i32) {
        let off = self.ensure_bucket(g);
        let body = self.open(off);
        // A lone resident is in order; any other append is not known to be.
        body.dirty = !body.items.is_empty();
        let pos = body.items.len() as u32;
        body.items.push(idx);
        let e = &mut self.slab[idx as usize];
        e.bucket = g;
        e.pos = pos;
    }

    /// Unlinks slab entry `idx` from its bucket (does not free the slot);
    /// a bucket it leaves empty closes.
    fn detach(&mut self, idx: u32) {
        let e = &self.slab[idx as usize];
        let pos = e.pos as usize;
        let off = (e.bucket - self.base) as usize;
        let RankIndex {
            slab,
            window,
            bodies,
            ..
        } = self;
        let body = &mut bodies[window[off] as usize];
        body.items.swap_remove(pos);
        if let Some(&moved) = body.items.get(pos) {
            // The tail element jumped forward: order is no longer known.
            slab[moved as usize].pos = pos as u32;
            body.dirty = true;
        } else if body.items.is_empty() {
            self.close(off);
        }
    }

    /// Settles bucket `off`: the residents are sorted descending by
    /// `(key, item)` — a bucket left with none closes first, so a mover may
    /// take its body — and the entries whose key now maps to a later
    /// bucket move there.
    fn settle(&mut self, off: usize) {
        let g = self.base + off as i32;
        let mut items = std::mem::take(&mut self.body_mut(off).items);
        let mut moving = std::mem::take(&mut self.moving);
        items.retain(|&idx| {
            let home = self.bucket_of(self.slab[idx as usize].key);
            debug_assert!(home >= g, "stored bucket above the key's");
            if home != g {
                moving.push(idx);
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
        let body = self.body_mut(off);
        body.items = items;
        body.dirty = false;
        if body.items.is_empty() {
            self.close(off);
        }
        // Later buckets only: `off` stays where it is.
        for &idx in &moving {
            self.attach(idx, self.bucket_of(self.slab[idx as usize].key));
        }
        self.relocations += moving.len() as u64;
        moving.clear();
        self.moving = moving;
    }

    /// Re-finds the minimum after it was removed or re-keyed upward. Every
    /// bucket below its old one is empty, so the settled front bucket's
    /// tail is the new minimum; drained front buckets are trimmed.
    fn refind_min(&mut self) {
        self.min_idx = NONE_IDX;
        while let Some(&front) = self.window.front() {
            if self.bodies.get(front as usize).is_some_and(|b| b.dirty) {
                self.settle(0);
            }
            // An open body is never empty: an empty bucket's is `NO_BODY`.
            let front = (self.window.front()).and_then(|&b| self.bodies.get(b as usize));
            if let Some(&tail) = front.and_then(|b| b.items.last()) {
                self.min_idx = tail;
                return;
            }
            self.window.pop_front();
            self.base += 1;
        }
    }

    /// Inserts `item`, which must not be present, with `key` and
    /// `payload` (handed back by ordered scans). Returns the entry's
    /// **slab slot** — stable until [`Self::remove_slot`] — the address
    /// [`Self::rekey_slot`] takes.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN.
    pub fn insert_new(&mut self, item: T, key: f64, payload: P) -> u32 {
        assert!(!key.is_nan(), "RankIndex cannot hold a NaN key");
        // Normalize -0.0 so stored keys follow the IEEE order exactly
        // (same as OrdF64 in the tree-based KeyedSet).
        let key = key + 0.0;
        self.anchor.get_or_insert(raw_bucket(key));
        let g = self.bucket_of(key);
        let entry = Entry {
            item,
            key,
            payload,
            bucket: g,
            pos: 0,
        };
        let idx = super::alloc(&mut self.slab, &mut self.free, entry);
        self.attach(idx, g);
        self.challenge_min(idx);
        idx
    }

    /// Re-keys the entry at `slot`. A key that rises — a Cafe touch — is
    /// a field store that leaves the entry in its stored bucket for the
    /// next ordered read to settle.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN, or as [`Self::remove_slot`] if `slot`
    /// holds no entry.
    pub fn rekey_slot(&mut self, slot: u32, key: f64) {
        assert!(!key.is_nan(), "RankIndex cannot hold a NaN key");
        self.live(slot);
        let key = key + 0.0;
        let e = &mut self.slab[slot as usize];
        let old_key = std::mem::replace(&mut e.key, key);
        let stored = (e.bucket - self.base) as usize;
        if key > old_key {
            // Bucketing is monotone: the stored bucket is still a lower
            // bound. Only the minimum rising must be acted on at once.
            self.body_mut(stored).dirty = true;
            if slot == self.min_idx {
                self.refind_min();
            }
        } else if key < old_key {
            let g = self.bucket_of(key);
            if g < self.base + stored as i32 {
                // The one eager move: stored must stay a lower bound.
                self.detach(slot);
                self.attach(slot, g);
            } else {
                self.body_mut(stored).dirty = true;
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
        self.live(slot);
        self.detach(slot);
        let e = &mut self.slab[slot as usize];
        e.pos = NONE_IDX;
        let key = e.key;
        self.free.push(slot);
        if self.is_empty() {
            // Drained, and every body spare: drop the window and re-arm
            // the clamp anchor.
            self.window.clear();
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
    /// out), as `visit(slot, item, key, payload)`. Buckets are settled as
    /// the scan enters them; buckets the scan never reaches stay as they
    /// are.
    pub fn for_smallest_excluding(
        &mut self,
        n: usize,
        exclude: impl Fn(&T) -> bool,
        mut visit: impl FnMut(u32, T, f64, &P),
    ) {
        let Some(min) = self.slab.get(self.min_idx as usize) else {
            return;
        };
        // Every bucket below the minimum's is empty.
        let mut off = (min.bucket - self.base) as usize;
        let mut taken = 0usize;
        // A settle can add buckets at the far end: re-read the length.
        while taken < n && off < self.window.len() {
            if self
                .bodies
                .get(self.window[off] as usize)
                .is_some_and(|b| b.dirty)
            {
                self.settle(off);
            }
            if let Some(body) = self.bodies.get(self.window[off] as usize) {
                // Descending storage read back-to-front = ascending order.
                for &idx in body.items.iter().rev() {
                    let e = &self.slab[idx as usize];
                    if exclude(&e.item) {
                        continue;
                    }
                    visit(idx, e.item, e.key, &e.payload);
                    taken += 1;
                    if taken == n {
                        return;
                    }
                }
            }
            off += 1;
        }
    }

    /// Collecting [`Self::for_smallest_excluding`] (tests and cold paths).
    pub fn smallest_excluding(&mut self, n: usize, exclude: impl Fn(&T) -> bool) -> Vec<(T, f64)> {
        let mut out = Vec::new();
        self.for_smallest_excluding(n, exclude, |_, item, key, _| out.push((item, key)));
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

    /// How many buckets hold an entry (each has a body), and how many
    /// bodies the pool holds — the most that were ever open at once.
    pub fn bodies(&self) -> (usize, usize) {
        (self.bodies.len() - self.spare.len(), self.bodies.len())
    }

    /// Heap bytes the index holds, from its capacities: the slab and its
    /// free list, the bucket window, and the body pool with its spare list,
    /// every body's item vector and the settles' mover list.
    pub fn state_bytes(&self) -> usize {
        let items: usize = self.bodies.iter().map(|b| b.items.capacity()).sum();
        let lists = [&self.free, &self.spare, &self.moving].map(Vec::capacity);
        self.slab.capacity() * size_of::<Entry<T, P>>()
            + (lists.iter().sum::<usize>() + self.window.capacity() + items) * size_of::<u32>()
            + self.bodies.capacity() * size_of::<Body>()
    }

    /// Checks every structural invariant (tests): stored ≤ true and exact
    /// back-pointers for every entry, clean buckets hold only residents in
    /// descending `(key, item)` order, the minimum is the true one with
    /// every bucket below it empty, `len` counts the entries in buckets,
    /// free slots are marked dead, every open body is non-empty, every
    /// spare one empty and no body is named twice.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        let mut live = 0usize;
        let mut named = vec![0u8; self.bodies.len()];
        for (g, &body) in (self.base..).zip(&self.window) {
            if body == NO_BODY {
                continue;
            }
            named[body as usize] += 1;
            let b = &self.bodies[body as usize];
            assert!(!b.items.is_empty(), "bucket {g}: open but empty");
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
        for &body in &self.spare {
            named[body as usize] += 1;
            let b = &self.bodies[body as usize];
            assert!(b.items.is_empty() && !b.dirty, "spare body {body} in use");
        }
        assert!(named.iter().all(|&n| n == 1), "a body named twice, or lost");
        assert_eq!(live, self.len(), "entries in buckets");
        let dead = |&i: &u32| self.slab[i as usize].pos == NONE_IDX;
        assert!(self.free.iter().all(dead), "free slot not marked dead");
        let min = self.entries_ascending().first().copied();
        assert!(self.smallest() == min, "cached minimum is not the minimum");
        if let Some(min) = self.slab.get(self.min_idx as usize) {
            let below = (min.bucket - self.base) as usize;
            let drained = self.window.iter().take(below).all(|&b| b == NO_BODY);
            assert!(drained, "entries below the minimum's bucket");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The index with an item → slot directory in front, kept the way
    /// Cafe's chunk directory keeps each cached chunk's slot.
    struct Dir<T: Ord + Copy, P: Copy = ()> {
        index: RankIndex<T, P>,
        slots: BTreeMap<T, u32>,
    }

    impl<T: Ord + Copy, P: Copy> Dir<T, P> {
        fn new() -> Self {
            Dir {
                index: RankIndex::new(),
                slots: BTreeMap::new(),
            }
        }

        /// Inserts `item`, or re-keys it in its slot and replaces its
        /// payload when present.
        fn insert(&mut self, item: T, key: f64, payload: P) {
            match self.slots.get(&item) {
                Some(&slot) => {
                    self.index.rekey_slot(slot, key);
                    *self.index.payload_mut(slot) = payload;
                }
                None => {
                    let slot = self.index.insert_new(item, key, payload);
                    self.slots.insert(item, slot);
                }
            }
        }

        fn remove(&mut self, item: &T) -> Option<f64> {
            let slot = self.slots.remove(item)?;
            Some(self.index.remove_slot(slot))
        }

        fn pop_smallest(&mut self) -> Option<(T, f64)> {
            let (item, key) = self.index.smallest()?;
            self.remove(&item);
            Some((item, key))
        }
    }

    impl<T: Ord + Copy, P: Copy> std::ops::Deref for Dir<T, P> {
        type Target = RankIndex<T, P>;

        fn deref(&self) -> &RankIndex<T, P> {
            &self.index
        }
    }

    impl<T: Ord + Copy, P: Copy> std::ops::DerefMut for Dir<T, P> {
        fn deref_mut(&mut self) -> &mut RankIndex<T, P> {
            &mut self.index
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut s = Dir::new();
        s.insert(1u32, 3.0, ());
        s.insert(2, 1.0, ());
        s.insert(3, 2.0, ());
        assert_eq!(s.len(), 3);
        assert_eq!(s.remove(&3), Some(2.0));
        assert_eq!(s.remove(&3), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ordering_and_pops() {
        let mut s = Dir::new();
        s.insert("c", 30.0, ());
        s.insert("a", 10.0, ());
        s.insert("b", 20.0, ());
        assert_eq!(s.smallest(), Some(("a", 10.0)));
        assert_eq!(s.pop_smallest(), Some(("a", 10.0)));
        assert_eq!(s.pop_smallest(), Some(("b", 20.0)));
        assert_eq!(s.pop_smallest(), Some(("c", 30.0)));
        assert_eq!(s.pop_smallest(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn rekeying_moves_items_across_buckets() {
        let mut s = Dir::new();
        s.insert(1u8, 10.0, ());
        s.insert(2, 20.0, ());
        // Far re-key: different bucket in both directions.
        s.insert(1, 10.0 + 10.0 * BUCKET_WIDTH_MS, ());
        assert_eq!(s.len(), 2);
        assert_eq!(s.smallest(), Some((2, 20.0)));
        s.insert(1, -5.0 * BUCKET_WIDTH_MS, ());
        assert_eq!(s.smallest(), Some((1, -5.0 * BUCKET_WIDTH_MS)));
        // Same-bucket down-keying keeps the order exact too.
        s.insert(2, 19.5, ());
        assert_eq!(s.entries_ascending()[1], (2, 19.5));
    }

    #[test]
    fn equal_keys_disambiguated_by_item() {
        let mut s = Dir::new();
        s.insert(5u32, 1.0, ());
        s.insert(3, 1.0, ());
        s.insert(4, 1.0, ());
        let order: Vec<u32> = s.entries_ascending().iter().map(|&(t, _)| t).collect();
        assert_eq!(order, vec![3, 4, 5]);
        assert_eq!(s.pop_smallest(), Some((3, 1.0)));
        assert_eq!(s.pop_smallest(), Some((4, 1.0)));
    }

    #[test]
    fn smallest_excluding_skips() {
        let mut s = Dir::new();
        for i in 0..6u32 {
            s.insert(i, i as f64, ());
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
        let mut s = Dir::new();
        s.insert(7u8, 2.0, 42);
        s.insert(8, 1.0, 43);
        let mut seen = Vec::new();
        s.for_smallest_excluding(10, |_| false, |_, item, key, p| seen.push((item, key, *p)));
        assert_eq!(seen, vec![(8, 1.0, 43), (7, 2.0, 42)]);
        // A re-key leaves the payload; the caller edits it in place.
        let slot = s.slots[&7];
        s.rekey_slot(slot, 3.0);
        assert_eq!(*s.payload(slot), 42);
        *s.payload_mut(slot) = 99;
        let mut seen = Vec::new();
        s.for_smallest_excluding(10, |t| *t == 8, |at, item, _, p| seen.push((at, item, *p)));
        assert_eq!(seen, vec![(slot, 7, 99)]);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_keys_rejected() {
        Dir::new().insert(1u8, f64::NAN, ());
    }

    #[test]
    fn negative_zero_normalizes_to_positive_zero() {
        let mut s = Dir::new();
        s.insert(1u8, -0.0, ());
        let key = s.smallest().expect("present").1;
        assert!(key.is_sign_positive());
        s.insert(2, 0.0, ());
        assert_eq!(s.pop_smallest(), Some((1, 0.0)));
        assert_eq!(s.pop_smallest(), Some((2, 0.0)));
    }

    #[test]
    fn far_flung_keys_clamp_but_stay_ordered() {
        let mut s = Dir::new();
        s.insert(1u8, 0.0, ());
        // Both far beyond the anchored window: clamped into edge buckets.
        s.insert(2, 1e300, ());
        s.insert(3, -1e300, ());
        s.insert(4, f64::INFINITY, ());
        s.insert(5, f64::NEG_INFINITY, ());
        let got: Vec<u8> = s.entries_ascending().iter().map(|&(t, _)| t).collect();
        assert_eq!(got, vec![5, 3, 1, 2, 4]);
        assert_eq!(s.pop_smallest(), Some((5, f64::NEG_INFINITY)));
        assert_eq!(s.pop_smallest(), Some((3, -1e300)));
    }

    #[test]
    fn drain_and_refill_reanchors() {
        let mut s = Dir::new();
        s.insert(1u8, 1e9, ());
        assert_eq!(s.pop_smallest(), Some((1, 1e9)));
        assert!(s.is_empty());
        // A fresh anchor far from the first one must work fine.
        s.insert(2, -1e9, ());
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
            s.rekey_slot(slot, i as f64 * BUCKET_WIDTH_MS);
        }
        assert_eq!(
            (s.relocations(), s.window.len(), s.bodies()),
            (0, 1, (1, 1))
        );
        assert_eq!(s.smallest(), Some((0, 0.0)));
        s.audit();
        // A scan of two settles bucket 0 (seven move out) and bucket 1.
        let got = s.smallest_excluding(2, |_| false);
        assert_eq!(got, [(0, 0.0), (1, BUCKET_WIDTH_MS)]);
        assert_eq!(s.relocations(), 7);
        s.audit();
        // The minimum rising is the other ordered read: it settles on the
        // way to the new minimum and trims the drained front.
        s.rekey_slot(slots[0], 9.0 * BUCKET_WIDTH_MS);
        assert_eq!(s.smallest(), Some((1, BUCKET_WIDTH_MS)));
        assert_eq!((s.base, s.relocations()), (1, 8));
        assert_eq!(s.remove_slot(slots[1]), BUCKET_WIDTH_MS);
        assert_eq!(s.smallest(), Some((2, 2.0 * BUCKET_WIDTH_MS)));
        // A key that falls below its stored bucket moves at once.
        s.rekey_slot(slots[5], -1.0);
        *s.payload_mut(slots[5]) = 55;
        assert_eq!(s.slab[slots[5] as usize].bucket, -1);
        assert_eq!(s.smallest(), Some((5, -1.0)));
        s.audit();
        let mut seen = Vec::new();
        s.for_smallest_excluding(2, |_| false, |_, item, _, p| seen.push((item, *p)));
        assert_eq!(seen, [(5, 55), (2, 2)]);
        let order: Vec<u32> = s.entries_ascending().iter().map(|e| e.0).collect();
        assert_eq!(order, [5, 2, 3, 4, 6, 7, 0]);
    }

    #[test]
    fn an_empty_bucket_costs_a_four_byte_window_slot() {
        fn slot_bytes<S>(_: &VecDeque<S>) -> usize {
            size_of::<S>()
        }
        let mut s: RankIndex<u32> = RankIndex::new();
        assert_eq!((slot_bytes(&s.window), size_of::<Body>()), (4, 32));
        // An entry with Cafe's item and payload (a chunk, and a directory
        // slot beside an `f64` average) packs into 48 bytes.
        #[derive(Clone, Copy)]
        struct Cached {
            _video: u32,
            _dt: f64,
        }
        assert_eq!(size_of::<Entry<vcdn_types::ChunkId, Cached>>(), 48);
        // One entry every other bucket across 1,000 buckets: 500 bodies,
        // and the 500 empty buckets between them are window slots.
        let slots: Vec<u32> = (0..500u32)
            .map(|i| s.insert_new(i, f64::from(2 * i) * BUCKET_WIDTH_MS, ()))
            .collect();
        assert_eq!((s.window.len(), s.bodies()), (999, (500, 500)));
        s.audit();
        for slot in slots {
            s.remove_slot(slot);
        }
        assert_eq!(s.bodies(), (0, 500));
        s.audit();
        // Reopening them, from the top down, takes the spare bodies and
        // the window's room: no new memory.
        let held = s.state_bytes();
        for i in (0..500u32).rev() {
            s.insert_new(i, f64::from(2 * i) * BUCKET_WIDTH_MS, ());
        }
        assert_eq!((s.bodies(), s.state_bytes()), ((500, 500), held));
        s.audit();
    }

    #[test]
    fn slots_are_reused_and_dead_slots_answer_none() {
        let mut s = RankIndex::new();
        let a = s.insert_new('a', 1.0, ());
        let b = s.insert_new('b', 2.0, ());
        assert_eq!(s.get(a), Some(('a', 1.0)));
        assert_eq!(s.remove_slot(a), 1.0);
        assert_eq!((s.get(a), s.get(99), s.len()), (None, None, 1));
        s.audit();
        assert_eq!(s.insert_new('c', 0.5, ()), a);
        assert_eq!(s.smallest(), Some(('c', 0.5)));
        assert_eq!(s.get(b), Some(('b', 2.0)));
        s.audit();
    }

    #[test]
    #[should_panic(expected = "RankIndex slot 0 is not live")]
    fn rekeying_a_removed_slot_panics() {
        let mut s = RankIndex::new();
        let a = s.insert_new(1u8, 1.0, ());
        s.insert_new(2, 2.0, ());
        s.remove_slot(a);
        s.rekey_slot(a, 3.0);
    }

    #[test]
    #[should_panic(expected = "RankIndex slot 7 is not live")]
    fn removing_a_slot_never_handed_out_panics() {
        let mut s = RankIndex::new();
        s.insert_new(1u8, 1.0, ());
        s.remove_slot(7);
    }

    #[test]
    #[should_panic(expected = "RankIndex slot 1 is not live")]
    fn removing_a_slot_twice_panics() {
        let mut s = RankIndex::new();
        s.insert_new(1u8, 1.0, ());
        let b = s.insert_new(2, 2.0, ());
        s.remove_slot(b);
        s.remove_slot(b);
    }

    #[test]
    fn model_based_random_ops() {
        // Reference model: BTreeMap + full scan for min (same model the
        // KeyedSet test uses, so both structures answer identically).
        let mut s = Dir::new();
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
                    s.insert(k, key, ());
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
