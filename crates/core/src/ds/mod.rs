//! Cache-internal data structures.
//!
//! * [`IndexedLruList`] — xLRU's linked list + hash map (paper §5); the
//!   video popularity tracker runs on it.
//! * [`ChunkLru`] — the same recency list under a per-video chunk
//!   directory: the disk of LRU and xLRU, one hash probe per request and a
//!   dense slot read per chunk.
//! * [`KeyedSet`] — Cafe's binary-tree set + hash map over virtual
//!   timestamps, as the paper §6 describes it literally. Kept as the
//!   reference structure (only the §3 baselines still run on it, and the
//!   rank-index property tests treat it as the ordering oracle).
//! * [`RankIndex`] — the bucketed (timing-wheel-style) replacement Cafe's
//!   hot path runs on, addressed by slab slot with no hash map: a re-key
//!   is a field store, the bucket move and the sort wait for the ordered
//!   read that gets there; bit-identical ordering to [`KeyedSet`].
//!   [`RankMap`] is the same index behind an item → slot map.
//! * [`PopTable`] — Cafe's per-video chunk directory: one hash probe per
//!   request, dense chunk runs that also hold each cached chunk's
//!   [`RankIndex`] slot, EWMA state in struct-of-arrays slabs addressed by
//!   compact handles, and sweeps that walk only when something can expire.
//! * [`BitTree`] — a set of small integers as a 64-ary tree of bitmaps
//!   with a predecessor query: Psychic's calendar of due requests.

use vcdn_types::ChunkId;

pub mod bit_tree;
pub mod chunk_lru;
pub mod keyed_set;
pub mod lru_list;
pub mod pop_table;
pub mod rank_index;

pub use bit_tree::BitTree;
pub use chunk_lru::ChunkLru;
pub use keyed_set::{KeyedSet, OrdF64};
pub use lru_list::IndexedLruList;
pub use pop_table::{PopTable, NO_HANDLE};
pub use rank_index::{RankIndex, RankMap, BUCKET_WIDTH_MS, NO_AUX};

/// Exclusive bound on the chunk indices the per-video directories
/// ([`PopTable`], [`ChunkLru`]) accept — the one [`ChunkId::packed`]
/// documents. A video's run is indexed by chunk number, so the bound caps
/// a run at 8 MiB at most, however hostile the request.
pub const MAX_CHUNK_INDEX: u32 = 1 << ChunkId::INDEX_BITS;

/// Refuses a chunk index before it can size a per-video run.
///
/// # Panics
///
/// Panics if `index` is [`MAX_CHUNK_INDEX`] or beyond.
#[inline]
pub fn assert_chunk_index(index: u32) {
    assert!(
        index < MAX_CHUNK_INDEX,
        "chunk index {index} is beyond the {MAX_CHUNK_INDEX}-chunk bound of a video"
    );
}
