//! The per-video chunk directory under [`ChunkLru`](super::ChunkLru) (the
//! LRU / xLRU disk) and [`PopTable`](super::PopTable) (Cafe's popularity
//! records).
//!
//! A request is one video and one contiguous chunk interval (§4.2), so the
//! directory is keyed by *video*: one hash probe ([`VideoDir::slot`]) finds
//! the video's **slot**, and every chunk of the request is then a dense
//! read of the video's run, indexed by chunk number. A run holds one record
//! `R` per chunk from its **base** — the lowest chunk written to it since
//! it was last trimmed — to the highest, [`Absent::NONE`] in its gaps and
//! outside it; it grows to
//! cover each chunk written, never below chunk 0 or past
//! [`MAX_CHUNK_INDEX`], and shrinks only when its owner trims it
//! ([`Video::trim`]). So one request for the last chunk of a fresh video
//! costs one record.
//! Beside the run, an entry carries the owner's count of live records and
//! one owner-defined per-video value, [`Absent::NONE`] in a fresh entry.
//!
//! A run grows by `Vec`'s doubling ([`Video::span_mut`]), or exactly, with
//! a fixed slack, when the owner reserves first ([`Video::reserve_tight`]);
//! a trim gives back what lies past that slack.
//!
//! Slots are free-listed, never compacted: a slot stays valid until the
//! owner [`VideoDir::release`]s it, which it does only once the video
//! holds nothing the owner needs. Slot values are allocation artifacts
//! (free-list reuse order) and never influence ordering or output. Walks
//! ([`VideoDir::retain`], [`VideoDir::iter`]) go over the slab in slot
//! order; the video → slot probe is a lookup-only [`FastMap`].

use std::mem::size_of;
use std::ops::{Index, IndexMut};

use vcdn_types::{ChunkId, FastMap, VideoId};

/// Exclusive bound on the chunk indices a run accepts — the one
/// [`ChunkId::packed`] documents. A run spans chunk numbers, so the bound
/// caps it at 2^20 records, however hostile the requests.
pub const MAX_CHUNK_INDEX: u32 = 1 << ChunkId::INDEX_BITS;

/// Refuses a chunk index before it can size a run.
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

/// A value with an absent state: the record of a chunk the owner holds
/// nothing for, and the per-video value of a fresh entry. A sentinel, not
/// an `Option`, keeps both as small as the value itself.
pub trait Absent: Copy + PartialEq {
    /// The absent value.
    const NONE: Self;
}

/// A bare handle; `u32::MAX` is "none".
impl Absent for u32 {
    const NONE: u32 = u32::MAX;
}

/// No per-video value.
impl Absent for () {
    const NONE: () = ();
}

/// The base of a free-listed entry: real bases are chunk indices, below
/// [`MAX_CHUNK_INDEX`].
const FREE_BASE: u32 = u32::MAX;

/// The records a growing run reserves beyond its new length `len`.
fn slack(len: usize) -> usize {
    (len / 8).max(4)
}

/// One video's directory entry.
#[derive(Debug, Clone)]
pub struct Video<R, V> {
    id: VideoId,
    /// Owner-kept count of the run's live records.
    pub live: u32,
    /// The chunk number of `run[0]`; [`FREE_BASE`] while no video holds
    /// the slot.
    base: u32,
    /// Owner-kept per-video value.
    pub meta: V,
    run: Vec<R>,
}

impl<R: Absent, V: Absent> Video<R, V> {
    /// An empty entry for `id`; a free-listed one if not `used`.
    fn empty(id: VideoId, used: bool) -> Self {
        Video {
            id,
            live: 0,
            base: if used { 0 } else { FREE_BASE },
            meta: V::NONE,
            run: Vec::new(),
        }
    }

    /// Whether a video holds this slot.
    fn used(&self) -> bool {
        self.base != FREE_BASE
    }

    /// The video this entry belongs to.
    pub fn id(&self) -> VideoId {
        self.id
    }

    /// The record of chunk `index` ([`Absent::NONE`] outside the run).
    pub fn rec(&self, index: u32) -> R {
        let at = index.wrapping_sub(self.base) as usize;
        self.run.get(at).copied().unwrap_or(R::NONE)
    }

    /// The chunk number of the run's first record.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// The whole run, chunk [`Self::base`] first.
    pub fn run(&self) -> &[R] {
        &self.run
    }

    /// The whole run, chunk [`Self::base`] first, as it stands.
    pub fn run_mut(&mut self) -> &mut [R] {
        &mut self.run
    }

    /// The run's base and length once it covers chunks `first..=last`.
    fn covering(&self, first: u32, last: u32) -> (u32, usize) {
        let Some(end) = (self.run.len() as u32).checked_sub(1) else {
            return (first, (last - first) as usize + 1);
        };
        let base = self.base.min(first);
        (base, ((self.base + end).max(last) - base) as usize + 1)
    }

    /// Reserves, exactly, the room the run needs to cover chunks
    /// `first..=last`: a fresh run gets their count, a run that grows its
    /// new length plus `max(len / 8, 4)` records. The [`Self::span_mut`]
    /// that follows then grows within it.
    pub fn reserve_tight(&mut self, first: u32, last: u32) {
        let (_, len) = self.covering(first, last);
        if len > self.run.capacity() {
            let slack = if self.run.is_empty() { 0 } else { slack(len) };
            self.run.reserve_exact(len + slack - self.run.len());
        }
    }

    /// Drops the absent records at both ends of the run, moving its base
    /// up past those at the low end, then gives back any capacity beyond
    /// the run's length plus the slack [`Self::reserve_tight`] grows by
    /// (all of it, once the run is empty).
    pub fn trim(&mut self) {
        let Some(first) = self.run.iter().position(|r| *r != R::NONE) else {
            self.run = Vec::new();
            return;
        };
        let end = self
            .run
            .iter()
            .rposition(|r| *r != R::NONE)
            .map_or(0, |last| last + 1);
        self.run.truncate(end);
        if first > 0 {
            self.run.drain(..first);
            self.base += first as u32;
        }
        let keep = self.run.len() + slack(self.run.len());
        if self.run.capacity() > keep {
            self.run.shrink_to(keep);
        }
    }

    /// Chunks `first..=last` of the run, which grows to cover them: by
    /// `Vec`'s doubling, unless [`Self::reserve_tight`] made room first.
    /// A new base moves the run's records up.
    ///
    /// # Panics
    ///
    /// Panics if `last` is [`MAX_CHUNK_INDEX`] or beyond, or below `first`.
    pub fn span_mut(&mut self, first: u32, last: u32) -> &mut [R] {
        assert_chunk_index(last);
        assert!(first <= last, "chunk span {first}..={last} is empty");
        let (base, len) = self.covering(first, last);
        let old = self.run.len();
        if len > old {
            let shift = if old == 0 { 0 } else { self.base - base } as usize;
            self.run.resize(len, R::NONE);
            if shift > 0 {
                self.run.copy_within(..old, shift);
                self.run[..shift].fill(R::NONE);
            }
            self.base = base;
        }
        &mut self.run[(first - base) as usize..=(last - base) as usize]
    }

    /// The record of chunk `index`, growing the run to cover it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is [`MAX_CHUNK_INDEX`] or beyond.
    pub fn rec_mut(&mut self, index: u32) -> &mut R {
        self.span_mut(index, index);
        &mut self.run[(index - self.base) as usize]
    }
}

/// Video → slot probe over a slab of [`Video`] entries.
///
/// # Examples
///
/// ```
/// use vcdn_core::ds::VideoDir;
/// use vcdn_types::VideoId;
///
/// let mut dir: VideoDir<u32, ()> = VideoDir::default();
/// let slot = dir.insert(VideoId(7));
/// *dir[slot].rec_mut(3) = 42; // the run starts at chunk 3
/// *dir[slot].rec_mut(1) = 41; // ... and now at 1, with a gap at 2
/// dir[slot].live += 1;
/// assert_eq!(dir.slot(VideoId(7)), Some(slot));
/// assert_eq!(dir[slot].run(), [41, u32::MAX, 42]);
/// assert_eq!((dir[slot].rec(3), dir[slot].rec(0)), (42, u32::MAX));
/// dir.release(slot);
/// assert_eq!(dir.slot(VideoId(7)), None);
/// assert_eq!(dir.insert(VideoId(8)), slot, "slots are reused");
/// ```
#[derive(Debug, Clone)]
pub struct VideoDir<R, V> {
    slots: FastMap<VideoId, u32>,
    videos: Vec<Video<R, V>>,
    free: Vec<u32>,
}

impl<R, V> Default for VideoDir<R, V> {
    fn default() -> Self {
        VideoDir {
            slots: FastMap::default(),
            videos: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<R: Absent, V: Absent> VideoDir<R, V> {
    /// The slot of `video`, if it has one — the one hash probe of a
    /// request.
    pub fn slot(&self, video: VideoId) -> Option<u32> {
        self.slots.get(&video).copied()
    }

    /// The slot of `video`, taking a free one (or growing the slab) for an
    /// empty entry if it has none.
    pub fn insert(&mut self, video: VideoId) -> u32 {
        let VideoDir {
            slots,
            videos,
            free,
        } = self;
        *slots
            .entry(video)
            .or_insert_with(|| super::alloc(videos, free, Video::empty(video, true)))
    }

    /// Frees `slot`: its run's memory goes, the entry is reset and its
    /// video has no slot until the next [`Self::insert`].
    pub fn release(&mut self, slot: u32) {
        let v = &mut self.videos[slot as usize];
        self.slots.remove(&v.id);
        *v = Video::empty(v.id, false);
        self.free.push(slot);
    }

    /// Keeps only the entries `keep` returns `true` for (it may edit them
    /// first) and releases the rest, in slot order.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut Video<R, V>) -> bool) {
        let VideoDir {
            slots,
            videos,
            free,
        } = self;
        for (slot, v) in (0u32..).zip(videos.iter_mut()) {
            if v.used() && !keep(v) {
                slots.remove(&v.id);
                *v = Video::empty(v.id, false);
                free.push(slot);
            }
        }
    }

    /// Every `(slot, entry)` with a video, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Video<R, V>)> + '_ {
        (0u32..).zip(&self.videos).filter(|(_, v)| v.used())
    }

    /// Heap bytes the directory holds, from capacities: every entry's run,
    /// the entries and their free list, and the video → slot map.
    pub fn state_bytes(&self) -> usize {
        let runs: usize = self.videos.iter().map(|v| v.run.capacity()).sum();
        runs * size_of::<R>()
            + self.videos.capacity() * size_of::<Video<R, V>>()
            + self.free.capacity() * size_of::<u32>()
            + self.slots.heap_bytes()
    }

    /// Checks the directory's invariants (tests): every slot maps back to
    /// its video, `live` counts the run's records that `is_live` accepts,
    /// and every other entry is free-listed and empty.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self, is_live: impl Fn(&R) -> bool) {
        let mut used = 0;
        for (slot, v) in self.iter() {
            assert_eq!(self.slot(v.id), Some(slot), "slot {slot}: video");
            let live = v.run.iter().filter(|r| is_live(r)).count();
            assert_eq!(live, v.live as usize, "{}: live count", v.id);
            used += 1;
        }
        assert_eq!(used, self.slots.len(), "leaked probe");
        assert_eq!(self.free.len() + used, self.videos.len(), "leaked entry");
        for &slot in &self.free {
            let v = &self[slot];
            assert!(
                !v.used() && v.run.capacity() == 0 && v.live == 0,
                "{slot}: freed, held"
            );
        }
    }
}

impl<R, V> Index<u32> for VideoDir<R, V> {
    type Output = Video<R, V>;

    fn index(&self, slot: u32) -> &Video<R, V> {
        &self.videos[slot as usize]
    }
}

impl<R, V> IndexMut<u32> for VideoDir<R, V> {
    fn index_mut(&mut self, slot: u32) -> &mut Video<R, V> {
        &mut self.videos[slot as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "chunk index 1048576 is beyond")]
    fn rejects_an_index_that_would_size_the_run() {
        let mut dir: VideoDir<u32, ()> = VideoDir::default();
        let slot = dir.insert(VideoId(1));
        dir[slot].rec_mut(MAX_CHUNK_INDEX);
    }

    #[test]
    fn a_run_starts_at_the_lowest_chunk_it_holds() {
        let mut dir: VideoDir<u32, ()> = VideoDir::default();
        let slot = dir.insert(VideoId(1));
        let v = &mut dir[slot];
        // The last chunk the bound admits, on a fresh video: one record.
        *v.rec_mut(MAX_CHUNK_INDEX - 1) = 7;
        assert_eq!((v.base(), v.run().len()), (MAX_CHUNK_INDEX - 1, 1));
        assert!(v.run.capacity() < 8, "{}", v.run.capacity());
        // A lower span moves the run's records up; gaps read absent.
        v.span_mut(MAX_CHUNK_INDEX - 4, MAX_CHUNK_INDEX - 3).fill(5);
        assert_eq!(v.run(), [5, 5, u32::NONE, 7]);
        assert_eq!(v.rec(MAX_CHUNK_INDEX - 5), u32::NONE);
        assert_eq!(v.rec(MAX_CHUNK_INDEX - 2), u32::NONE);
        // A span inside the run grows nothing.
        assert_eq!(
            v.span_mut(MAX_CHUNK_INDEX - 3, MAX_CHUNK_INDEX - 2),
            [5, u32::NONE]
        );
        assert_eq!((v.base(), v.run().len()), (MAX_CHUNK_INDEX - 4, 4));
        dir.audit(|_| false);
    }

    #[test]
    fn a_tight_run_reserves_its_length_and_then_an_eighth() {
        let mut v: Video<u32, ()> = Video::empty(VideoId(1), true);
        v.reserve_tight(10, 19);
        v.span_mut(10, 19);
        assert_eq!((v.base(), v.run.len(), v.run.capacity()), (10, 10, 10));
        // Growing by one reserves max(len / 8, 4) more, exactly.
        v.reserve_tight(20, 20);
        v.span_mut(20, 20);
        assert_eq!((v.run.len(), v.run.capacity()), (11, 15));
        // Within the slack nothing moves; past it, 100 + 100 / 8.
        v.reserve_tight(21, 24);
        v.span_mut(21, 24);
        assert_eq!(v.run.capacity(), 15);
        v.reserve_tight(0, 99);
        v.span_mut(0, 99);
        assert_eq!((v.base(), v.run.len(), v.run.capacity()), (0, 100, 112));
    }
}
