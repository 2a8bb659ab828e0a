//! Cache-internal data structures.
//!
//! * [`LruList`] — xLRU's recency list (paper §5): arena-backed, addressed
//!   by node handle. [`IndexedLruList`] is the same list behind a key →
//!   handle map: the video popularity tracker runs on it.
//! * [`VideoDir`] — the per-video chunk directory: one hash probe per
//!   request finds a video's slot, whose dense run holds one record per
//!   chunk from the lowest chunk it holds to the highest, bounded by
//!   [`MAX_CHUNK_INDEX`]; slots are free-listed and released when the
//!   owner says the video holds nothing.
//! * [`ChunkLru`] — the disk of LRU and xLRU: an [`LruList`] of chunks
//!   whose handles live in a [`VideoDir`], and the one always-fill step
//!   both serve through ([`ChunkLru::serve`]).
//! * [`KeyedSet`] — a binary-tree set + hash map over `f64` keys: the
//!   structure the paper's §6 gives Cafe, kept as written, though Cafe
//!   runs on [`RankIndex`]. It is the disk
//!   of the §3 baselines' [`RankedCache`](crate::RankedCache), whose LFU
//!   and GDSP keys are small counts that a [`RankIndex`] would put in one
//!   bucket (re-sorting the whole disk on every eviction after a hit),
//!   and the rank-index property tests' ordering oracle.
//! * [`RankIndex`] — the bucketed (timing-wheel-style) replacement Cafe's
//!   hot path runs on, addressed by slab slot with no hash map: a re-key
//!   is a field store, the bucket move and the sort wait for the ordered
//!   read that gets there; bit-identical ordering to [`KeyedSet`]. An
//!   empty bucket is a 4-byte window slot, and bucket bodies come from a
//!   pool that takes them back as buckets empty.
//! * [`PopTable`] — Cafe's popularity records on a [`VideoDir`]: each
//!   chunk's last touch and one word in a 16-byte run record — its EWMA
//!   average while uncached, its [`RankIndex`] slot while cached (the
//!   average then rides in the index entry) — addressed by video slot
//!   and chunk number, runs reserved tightly and trimmed by the sweeps,
//!   which walk the directory only when something can expire.
//! * [`BitTree`] — a set of small integers as a 64-ary tree of bitmaps
//!   with a predecessor query: Psychic's calendar of due requests.

pub mod bit_tree;
pub mod chunk_lru;
pub mod keyed_set;
pub mod lru_list;
pub mod pop_table;
pub mod rank_index;
pub mod video_dir;

pub use bit_tree::BitTree;
pub use chunk_lru::ChunkLru;
pub use keyed_set::{KeyedSet, OrdF64};
pub use lru_list::{IndexedLruList, LruList};
pub use pop_table::{PopTable, NOT_CACHED};
pub use rank_index::{RankIndex, BUCKET_WIDTH_MS};
pub use video_dir::{assert_chunk_index, Absent, VideoDir, MAX_CHUNK_INDEX};

/// Stores `value` in a free-listed slot of `slab` (the last one freed), or
/// appends it; returns the slot. Every slab in this module allocates here.
///
/// # Panics
///
/// Panics if the slab already holds `u32::MAX` slots.
fn alloc<T>(slab: &mut Vec<T>, free: &mut Vec<u32>, value: T) -> u32 {
    if let Some(slot) = free.pop() {
        slab[slot as usize] = value;
        return slot;
    }
    assert!(slab.len() < u32::MAX as usize, "slab full");
    slab.push(value);
    (slab.len() - 1) as u32
}
