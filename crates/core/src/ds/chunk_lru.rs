//! The chunk-level LRU disk of [`LruCache`](crate::LruCache) and
//! [`XlruCache`](crate::XlruCache): the paper's recency list (§5) under a
//! per-video chunk directory.
//!
//! The directory is a [`VideoDir`]: one hash probe ([`ChunkLru::video`])
//! finds the video's slot, and every chunk of the request is then a dense
//! read of its run ([`ChunkLru::handle`]) — the node handle of a cached
//! chunk, or nothing. The recency list is the [`LruList`] that
//! [`IndexedLruList`](super::IndexedLruList) keeps behind its key map; a
//! node carries its video's slot and its chunk number, so evicting the
//! tail clears the directory through that back-reference without a probe.
//! An entry lives exactly as long as the video has a cached chunk: the
//! structure holds nothing for videos that left the disk.

use vcdn_types::{ChunkId, Timestamp, VideoId};

use super::{Absent, LruList, VideoDir};

const NIL: u32 = u32::NONE;

/// Access-time-ordered set of cached chunks with O(1) head insertion,
/// touch and tail eviction, addressed through a per-video directory.
///
/// Head = most recently used; tail = least recently used. As in
/// [`LruList`], entries can only be (re)inserted at the head with a time
/// no older than the current head.
///
/// # Examples
///
/// ```
/// use vcdn_core::ds::ChunkLru;
/// use vcdn_types::{ChunkId, Timestamp, VideoId};
///
/// let mut disk = ChunkLru::new();
/// disk.insert(VideoId(7), 0, Timestamp(1));
/// disk.insert(VideoId(7), 1, Timestamp(2));
/// // One probe for the video, then dense reads per chunk.
/// let slot = disk.video(VideoId(7)).unwrap();
/// let h = disk.handle(slot, 0).unwrap();
/// assert_eq!(disk.handle(slot, 2), None);
/// disk.touch_handle(h, Timestamp(3)); // chunk 0 moves to the head
/// assert_eq!(disk.pop_oldest(), Some((ChunkId::new(VideoId(7), 1), Timestamp(2))));
/// assert_eq!(disk.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChunkLru {
    /// Runs of node handles; `live` counts a video's cached chunks.
    dir: VideoDir<u32, ()>,
    /// Nodes carry `(video slot, chunk number)`.
    list: LruList<(u32, u32)>,
}

impl ChunkLru {
    /// Creates an empty disk.
    pub fn new() -> Self {
        ChunkLru::default()
    }

    /// Number of cached chunks.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// The directory slot of `video`, if any of its chunks is cached —
    /// the one hash probe of a request. The slot stays valid until a
    /// [`Self::pop_oldest`] removes the video's last cached chunk.
    pub fn video(&self, video: VideoId) -> Option<u32> {
        self.dir.slot(video)
    }

    /// The node handle of chunk `index` of the video at `slot`, if cached.
    pub fn handle(&self, slot: u32, index: u32) -> Option<u32> {
        let h = self.dir[slot].rec(index);
        (h != NIL).then_some(h)
    }

    /// Whether `chunk` is cached.
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.video(chunk.video)
            .is_some_and(|slot| self.handle(slot, chunk.index).is_some())
    }

    /// The least recently used chunk and its access time.
    pub fn oldest(&self) -> Option<(ChunkId, Timestamp)> {
        self.list.oldest().map(|(&loc, t)| (self.chunk_of(loc), t))
    }

    /// Moves the cached chunk behind handle `h` to the head with access
    /// time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is older than the current head's access time (the
    /// list keeps times sorted, paper §5).
    pub fn touch_handle(&mut self, h: u32, t: Timestamp) {
        let at = |&(slot, index): &(u32, u32)| self.dir[slot].rec(index);
        debug_assert_eq!(at(self.list.item(h)), h, "directory and node disagree");
        self.list.touch(h, t);
    }

    /// Caches chunk `index` of `video`, known to be absent, at the head
    /// with access time `t`; creates the video's entry if this is its
    /// first cached chunk.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is already cached, if `index` is
    /// [`MAX_CHUNK_INDEX`](super::MAX_CHUNK_INDEX) or beyond (the index
    /// sizes the video's run), or if `t` is older than the current head's
    /// access time.
    pub fn insert(&mut self, video: VideoId, index: u32, t: Timestamp) {
        let slot = self.dir.insert(video);
        let v = &mut self.dir[slot];
        let rec = v.rec_mut(index);
        assert!(*rec == NIL, "chunk inserted twice");
        *rec = self.list.push_front((slot, index), t);
        v.live += 1;
    }

    /// Removes and returns the least recently used chunk; releases the
    /// video's directory entry when that was its last cached chunk.
    pub fn pop_oldest(&mut self) -> Option<(ChunkId, Timestamp)> {
        let (h, (slot, index), time) = self.list.pop_oldest()?;
        let v = &mut self.dir[slot];
        let held = std::mem::replace(v.rec_mut(index), NIL);
        debug_assert_eq!(held, h, "directory and node disagree");
        v.live -= 1;
        let id = ChunkId::new(v.id(), index);
        if v.live == 0 {
            self.dir.release(slot);
        }
        Some((id, time))
    }

    /// Iterates cached chunks from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (ChunkId, Timestamp)> + '_ {
        self.list.iter().map(|(&loc, t)| (self.chunk_of(loc), t))
    }

    /// Checks every structural invariant (tests): the directory's
    /// ([`VideoDir::audit`], `live` counting the cached chunks), each
    /// entry holds a chunk whose node points back at it, and the list
    /// threads every node once, newest first.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        self.dir.audit(|&h| h != NIL);
        let mut records = 0usize;
        for (slot, v) in self.dir.iter() {
            assert!(v.live > 0, "{}: entry outlived its last chunk", v.id());
            records += v.live as usize;
            for (index, &h) in (0u32..).zip(v.run()).filter(|e| *e.1 != NIL) {
                assert_eq!(*self.list.item(h), (slot, index), "{}: node", v.id());
            }
        }
        assert_eq!(self.len(), records, "nodes outside the directory");
        assert_eq!(self.iter().count(), records, "list length");
        assert!(self.iter().is_sorted_by(|a, b| a.1 >= b.1), "list order");
        assert_eq!(self.iter().last(), self.oldest());
    }

    fn chunk_of(&self, (slot, index): (u32, u32)) -> ChunkId {
        ChunkId::new(self.dir[slot].id(), index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(video: u64, index: u32) -> ChunkId {
        ChunkId::new(VideoId(video), index)
    }

    #[test]
    fn one_probe_then_dense_reads() {
        let mut l = ChunkLru::new();
        l.insert(VideoId(1), 0, Timestamp(10));
        l.insert(VideoId(1), 3, Timestamp(20));
        l.insert(VideoId(2), 1, Timestamp(30));
        assert_eq!(l.len(), 3);
        let slot = l.video(VideoId(1)).unwrap();
        assert!(l.handle(slot, 0).is_some() && l.handle(slot, 3).is_some());
        assert_eq!(l.handle(slot, 1), None);
        assert_eq!(l.video(VideoId(3)), None);
        assert!(l.contains(id(2, 1)) && !l.contains(id(2, 0)) && !l.contains(id(3, 0)));
        l.touch_handle(l.handle(slot, 0).unwrap(), Timestamp(40));
        assert_eq!(l.oldest(), Some((id(1, 3), Timestamp(20))));
        let order: Vec<ChunkId> = l.iter().map(|e| e.0).collect();
        assert_eq!(order, vec![id(1, 0), id(2, 1), id(1, 3)]);
        // The video's last chunk out releases its entry.
        assert_eq!(l.pop_oldest(), Some((id(1, 3), Timestamp(20))));
        assert_eq!(l.pop_oldest(), Some((id(2, 1), Timestamp(30))));
        assert_eq!(l.video(VideoId(2)), None);
        l.audit();
    }

    #[test]
    fn touching_the_head_and_a_singleton_keeps_the_links() {
        let mut l = ChunkLru::new();
        l.insert(VideoId(1), 0, Timestamp(1));
        let h = l.handle(l.video(VideoId(1)).unwrap(), 0).unwrap();
        l.touch_handle(h, Timestamp(2)); // singleton: head and tail at once
        l.insert(VideoId(1), 1, Timestamp(2));
        let head = l.handle(l.video(VideoId(1)).unwrap(), 1).unwrap();
        l.touch_handle(head, Timestamp(2)); // already the head, equal time
        let all: Vec<_> = l.iter().collect();
        assert_eq!(
            all,
            vec![(id(1, 1), Timestamp(2)), (id(1, 0), Timestamp(2))]
        );
        l.audit();
    }

    #[test]
    #[should_panic(expected = "monotone insertions")]
    fn rejects_backdated_insertions() {
        let mut l = ChunkLru::new();
        l.insert(VideoId(1), 0, Timestamp(100));
        l.insert(VideoId(2), 0, Timestamp(50));
    }

    #[test]
    #[should_panic(expected = "monotone insertions")]
    fn rejects_backdated_touches() {
        let mut l = ChunkLru::new();
        l.insert(VideoId(1), 0, Timestamp(100));
        let h = l.handle(l.video(VideoId(1)).unwrap(), 0).unwrap();
        l.touch_handle(h, Timestamp(99));
    }

    #[test]
    #[should_panic(expected = "chunk inserted twice")]
    fn rejects_a_second_insert_of_a_cached_chunk() {
        let mut l = ChunkLru::new();
        l.insert(VideoId(1), 0, Timestamp(1));
        l.insert(VideoId(1), 0, Timestamp(2));
    }
}
