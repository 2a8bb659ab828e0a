//! The per-video chunk directory under [`ChunkLru`](super::ChunkLru) (the
//! LRU / xLRU disk) and [`PopTable`](super::PopTable) (Cafe's popularity
//! state).
//!
//! A request is one video and one contiguous chunk interval (§4.2), so the
//! directory is keyed by *video*: one hash probe ([`VideoDir::slot`]) finds
//! the video's **slot**, and every chunk of the request is then a dense
//! read of the video's run, indexed by chunk number. A run holds one record
//! `R` per chunk, [`Absent::NONE`] in its gaps and past its end; it grows
//! to the highest index written and no further than [`MAX_CHUNK_INDEX`].
//! Beside the run, an entry carries the owner's count of live records and
//! one owner-defined per-video value, [`Absent::NONE`] in a fresh entry.
//!
//! Slots are free-listed, never compacted: a slot stays valid until the
//! owner [`VideoDir::release`]s it, which it does only once the video
//! holds nothing the owner needs. Slot values are allocation artifacts
//! (free-list reuse order) and never influence ordering or output. Walks
//! ([`VideoDir::retain`], [`VideoDir::iter`]) go over the slab in slot
//! order; the video → slot probe is a lookup-only [`FastMap`].

use std::ops::{Index, IndexMut};

use vcdn_types::{ChunkId, FastMap, VideoId};

/// Exclusive bound on the chunk indices a run accepts — the one
/// [`ChunkId::packed`] documents. A run is indexed by chunk number, so the
/// bound caps it at 8 MiB at most, however hostile the request.
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

/// One video's directory entry.
#[derive(Debug, Clone)]
pub struct Video<R, V> {
    id: VideoId,
    /// Whether a video holds this slot (free-listed entries do not).
    used: bool,
    /// Owner-kept count of the run's live records.
    pub live: u32,
    /// Owner-kept per-video value.
    pub meta: V,
    run: Vec<R>,
}

impl<R: Absent, V: Absent> Video<R, V> {
    /// An empty entry for `id`; a free-listed one if not `used`.
    fn empty(id: VideoId, used: bool) -> Self {
        Video {
            id,
            used,
            live: 0,
            meta: V::NONE,
            run: Vec::new(),
        }
    }

    /// The video this entry belongs to.
    pub fn id(&self) -> VideoId {
        self.id
    }

    /// The record of chunk `index` ([`Absent::NONE`] past the run's end).
    pub fn rec(&self, index: u32) -> R {
        self.run.get(index as usize).copied().unwrap_or(R::NONE)
    }

    /// The whole run, chunk 0 first.
    pub fn run(&self) -> &[R] {
        &self.run
    }

    /// The whole run, grown to reach chunk `last`.
    ///
    /// # Panics
    ///
    /// Panics if `last` is [`MAX_CHUNK_INDEX`] or beyond.
    pub fn run_mut(&mut self, last: u32) -> &mut [R] {
        assert_chunk_index(last);
        if self.run.len() <= last as usize {
            self.run.resize(last as usize + 1, R::NONE);
        }
        &mut self.run
    }

    /// The record of chunk `index`, growing the run to reach it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is [`MAX_CHUNK_INDEX`] or beyond.
    pub fn rec_mut(&mut self, index: u32) -> &mut R {
        &mut self.run_mut(index)[index as usize]
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
/// *dir[slot].rec_mut(3) = 42; // chunks 0..=2 become gaps
/// dir[slot].live += 1;
/// assert_eq!(dir.slot(VideoId(7)), Some(slot));
/// assert_eq!((dir[slot].rec(3), dir[slot].rec(1)), (42, u32::MAX));
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
            if v.used && !keep(v) {
                slots.remove(&v.id);
                *v = Video::empty(v.id, false);
                free.push(slot);
            }
        }
    }

    /// Every `(slot, entry)` with a video, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Video<R, V>)> + '_ {
        (0u32..).zip(&self.videos).filter(|(_, v)| v.used)
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
                !v.used && v.run.is_empty() && v.live == 0,
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
}
