//! The chunk-level LRU disk of [`LruCache`](crate::LruCache) and
//! [`XlruCache`](crate::XlruCache): the paper's recency list (§5) under a
//! per-video chunk directory.
//!
//! A request is one video and one contiguous chunk interval (§4.2), so
//! the directory is keyed by *video*: one hash probe ([`ChunkLru::video`])
//! finds the video's entry, and every chunk of the request is then a dense
//! read of `chunks[index]` ([`ChunkLru::handle`]) — the node handle of a
//! cached chunk, or nothing. The recency list is the arena-backed doubly
//! linked list of [`IndexedLruList`](super::IndexedLruList); a node
//! carries its chunk number and its video's slot, so evicting the tail
//! clears the directory through that back-reference without a probe. An
//! entry lives exactly as long as the video has a cached chunk: the
//! structure holds nothing for videos that left the disk.
//!
//! Handles and slots are allocation artifacts (free-list reuse order) and
//! never influence ordering or output: the list order is the order of the
//! `touch_handle` / `insert` / `pop_oldest` calls alone.

use vcdn_types::{ChunkId, FastMap, Timestamp, VideoId};

use super::assert_chunk_index;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    time: Timestamp,
    /// Chunk number within the video.
    index: u32,
    /// Slot of the owning video in `videos`.
    video: u32,
    prev: u32,
    next: u32,
}

/// One directory entry; live while `cached > 0`, free-listed otherwise.
#[derive(Debug, Clone)]
struct Video {
    id: VideoId,
    /// Non-`NIL` slots of `chunks`.
    cached: u32,
    /// Indexed by chunk number: the chunk's node handle, or `NIL`.
    chunks: Vec<u32>,
}

/// Access-time-ordered set of cached chunks with O(1) head insertion,
/// touch and tail eviction, addressed through a per-video directory.
///
/// Head = most recently used; tail = least recently used. As in
/// [`IndexedLruList`](super::IndexedLruList), entries can only be
/// (re)inserted at the head with a time no older than the current head.
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
#[derive(Debug, Clone)]
pub struct ChunkLru {
    dir: FastMap<VideoId, u32>,
    videos: Vec<Video>,
    free_videos: Vec<u32>,
    nodes: Vec<Node>,
    free_nodes: Vec<u32>,
    head: u32,
    tail: u32,
}

impl Default for ChunkLru {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkLru {
    /// Creates an empty disk.
    pub fn new() -> Self {
        ChunkLru {
            dir: FastMap::default(),
            videos: Vec::new(),
            free_videos: Vec::new(),
            nodes: Vec::new(),
            free_nodes: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of cached chunks.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free_nodes.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    // lint: hot
    /// The directory slot of `video`, if any of its chunks is cached —
    /// the one hash probe of a request. The slot stays valid until a
    /// [`Self::pop_oldest`] removes the video's last cached chunk.
    pub fn video(&self, video: VideoId) -> Option<u32> {
        self.dir.get(&video).copied()
    }

    // lint: hot
    /// The node handle of chunk `index` of the video at `slot`, if cached.
    pub fn handle(&self, slot: u32, index: u32) -> Option<u32> {
        match self.videos[slot as usize].chunks.get(index as usize) {
            Some(&h) if h != NIL => Some(h),
            _ => None,
        }
    }

    /// Whether `chunk` is cached.
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.video(chunk.video)
            .is_some_and(|slot| self.handle(slot, chunk.index).is_some())
    }

    // lint: hot
    /// The least recently used chunk and its access time.
    pub fn oldest(&self) -> Option<(ChunkId, Timestamp)> {
        if self.tail == NIL {
            return None;
        }
        let n = &self.nodes[self.tail as usize];
        Some((self.chunk_of(n), n.time))
    }

    // lint: hot
    /// Moves the cached chunk behind handle `h` to the head with access
    /// time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is older than the current head's access time (the
    /// list keeps times sorted, paper §5).
    pub fn touch_handle(&mut self, h: u32, t: Timestamp) {
        self.assert_monotone(t);
        debug_assert_eq!(
            {
                let n = &self.nodes[h as usize];
                self.videos[n.video as usize].chunks[n.index as usize]
            },
            h,
            "directory slot and node disagree"
        );
        self.unlink(h);
        self.nodes[h as usize].time = t;
        self.link_front(h);
    }

    // lint: hot
    /// Caches chunk `index` of `video`, known to be absent, at the head
    /// with access time `t`; creates the video's entry if this is its
    /// first cached chunk.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is already cached, if `index` is
    /// [`MAX_CHUNK_INDEX`](super::MAX_CHUNK_INDEX) or beyond (the index
    /// sizes the video's dense run), or if `t` is older than the current
    /// head's access time.
    pub fn insert(&mut self, video: VideoId, index: u32, t: Timestamp) {
        self.assert_monotone(t);
        assert_chunk_index(index);
        let slot = match self.dir.get(&video) {
            Some(&slot) => slot,
            None => {
                let slot = self.alloc_video(video);
                self.dir.insert(video, slot);
                slot
            }
        };
        let v = &mut self.videos[slot as usize];
        let i = index as usize;
        if v.chunks.len() <= i {
            v.chunks.resize(i + 1, NIL);
        }
        assert!(v.chunks[i] == NIL, "chunk inserted twice");
        let node = Node {
            time: t,
            index,
            video: slot,
            prev: NIL,
            next: NIL,
        };
        let h = match self.free_nodes.pop() {
            Some(h) => {
                self.nodes[h as usize] = node;
                h
            }
            None => {
                assert!(self.nodes.len() < NIL as usize, "arena full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        v.chunks[i] = h;
        v.cached += 1;
        self.link_front(h);
    }

    // lint: hot
    /// Removes and returns the least recently used chunk; releases the
    /// video's directory entry when that was its last cached chunk.
    pub fn pop_oldest(&mut self) -> Option<(ChunkId, Timestamp)> {
        if self.tail == NIL {
            return None;
        }
        let h = self.tail;
        self.unlink(h);
        self.free_nodes.push(h);
        let n = &self.nodes[h as usize];
        let (slot, index, time) = (n.video, n.index, n.time);
        let v = &mut self.videos[slot as usize];
        debug_assert_eq!(
            v.chunks[index as usize], h,
            "directory slot and node disagree"
        );
        v.chunks[index as usize] = NIL;
        v.cached -= 1;
        let id = v.id;
        if v.cached == 0 {
            // Frees the run too: a released entry holds no memory beyond
            // its place in `videos`.
            drop(std::mem::take(&mut v.chunks));
            self.dir.remove(&id);
            self.free_videos.push(slot);
        }
        Some((ChunkId::new(id, index), time))
    }

    /// Iterates cached chunks from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (ChunkId, Timestamp)> + '_ {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            let n = self.nodes.get(cursor as usize)?;
            cursor = n.next;
            Some((self.chunk_of(n), n.time))
        })
    }

    /// Checks every structural invariant (tests): each non-`NIL` slot of a
    /// live entry points at a node of that chunk, `cached` counts those
    /// slots, the directory maps exactly the live entries, and the list
    /// threads every node once, newest first.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        let mut live = 0usize;
        let mut slots = 0usize;
        for (slot, v) in self.videos.iter().enumerate() {
            let cached = v.chunks.iter().filter(|&&h| h != NIL).count();
            assert_eq!(cached, v.cached as usize, "{}: cached count", v.id);
            if cached == 0 {
                assert!(v.chunks.is_empty(), "{}: released entry keeps a run", v.id);
                continue;
            }
            live += 1;
            slots += cached;
            assert_eq!(
                self.dir.get(&v.id),
                Some(&(slot as u32)),
                "{}: directory",
                v.id
            );
            for (index, &h) in v.chunks.iter().enumerate() {
                if h != NIL {
                    let n = &self.nodes[h as usize];
                    assert_eq!((n.video as usize, n.index as usize), (slot, index));
                }
            }
        }
        assert_eq!(self.dir.len(), live, "directory holds a dead video");
        assert_eq!(
            self.free_videos.len(),
            self.videos.len() - live,
            "leaked entry"
        );
        assert_eq!(self.len(), slots, "nodes outside the directory");
        assert_eq!(self.iter().count(), slots, "list length");
        assert!(self.iter().is_sorted_by(|a, b| a.1 >= b.1), "list order");
        assert_eq!(self.iter().last(), self.oldest());
    }

    fn chunk_of(&self, n: &Node) -> ChunkId {
        ChunkId::new(self.videos[n.video as usize].id, n.index)
    }

    // lint: hot
    fn assert_monotone(&self, t: Timestamp) {
        if self.head != NIL {
            assert!(
                t >= self.nodes[self.head as usize].time,
                "touch time must be >= current head time (monotone insertions)"
            );
        }
    }

    /// Takes a free directory slot (or grows the directory) for `id`.
    fn alloc_video(&mut self, id: VideoId) -> u32 {
        match self.free_videos.pop() {
            Some(slot) => {
                self.videos[slot as usize].id = id;
                slot
            }
            None => {
                assert!(self.videos.len() < NIL as usize, "directory full");
                self.videos.push(Video {
                    id,
                    cached: 0,
                    chunks: Vec::new(),
                });
                (self.videos.len() - 1) as u32
            }
        }
    }

    // lint: hot
    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    // lint: hot
    fn link_front(&mut self, i: u32) {
        let n = &mut self.nodes[i as usize];
        n.prev = NIL;
        n.next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::MAX_CHUNK_INDEX;
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
        // A gap in the run and an index past its end both read as absent.
        assert!(l.handle(slot, 0).is_some() && l.handle(slot, 3).is_some());
        assert_eq!((l.handle(slot, 1), l.handle(slot, 9)), (None, None));
        assert_eq!(l.video(VideoId(3)), None);
        assert!(l.contains(id(2, 1)) && !l.contains(id(2, 0)) && !l.contains(id(3, 0)));
        l.touch_handle(l.handle(slot, 0).unwrap(), Timestamp(40));
        assert_eq!(l.oldest(), Some((id(1, 3), Timestamp(20))));
        let order: Vec<ChunkId> = l.iter().map(|e| e.0).collect();
        assert_eq!(order, vec![id(1, 0), id(2, 1), id(1, 3)]);
        l.audit();
    }

    #[test]
    fn last_chunk_out_releases_the_entry_and_slots_are_recycled() {
        let mut l = ChunkLru::new();
        for round in 0..10u64 {
            for v in 0..20u64 {
                l.insert(VideoId(round * 100 + v), 2, Timestamp(round));
                l.insert(VideoId(round * 100 + v), 0, Timestamp(round));
            }
            for v in 0..20u64 {
                // One chunk gone: the entry stays. Both gone: released.
                assert!(l.pop_oldest().is_some());
                assert!(l.video(VideoId(round * 100 + v)).is_some());
                assert!(l.pop_oldest().is_some());
                assert_eq!(l.video(VideoId(round * 100 + v)), None);
            }
            l.audit();
        }
        assert!(l.is_empty());
        assert_eq!(l.pop_oldest(), None);
        // Neither arena grew past the peak live count.
        assert_eq!((l.videos.len(), l.nodes.len(), l.dir.len()), (20, 40, 0));
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

    #[test]
    #[should_panic(expected = "chunk index 1048576 is beyond")]
    fn rejects_an_index_that_would_size_the_run() {
        ChunkLru::new().insert(VideoId(1), MAX_CHUNK_INDEX, Timestamp(1));
    }
}
