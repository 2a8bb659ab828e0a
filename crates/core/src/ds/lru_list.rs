//! The xLRU data structure: a doubly linked recency list plus a hash map.
//!
//! Per the paper (§5): "The disk cache and the popularity tracker can both
//! be implemented using the same data structure, which consists of a linked
//! list maintaining access times in sorted order, and a hash map that maps
//! keys to list entries. ... This enables O(1) lookup of access time,
//! retrieval of cache age, removal of the oldest entries, and insertion of
//! entries at list head. Note that insertion of a video ID with an
//! arbitrary access time smaller than list head is not possible."
//!
//! [`LruList`] is the list: arena-backed (indices into a `Vec`, with a
//! free list) so entries never move and no unsafe pointer juggling is
//! needed, and addressed by the node **handle** that
//! [`LruList::push_front`] returns. [`IndexedLruList`] puts a key → handle
//! map in front of it (the tracker); [`ChunkLru`](super::ChunkLru) keeps
//! the handles in its per-video directory instead (the disk).

use std::hash::Hash;

use vcdn_types::{FastMap, Timestamp};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<T> {
    item: T,
    time: Timestamp,
    prev: u32,
    next: u32,
}

/// An access-time-ordered list with O(1) head insertion, touch and tail
/// eviction, addressed by node handle.
///
/// Head = most recently used; tail = least recently used. The list
/// enforces the paper's monotonicity rule: entries can only be (re)inserted
/// at the head with a time no older than the current head. Handles are
/// allocation artifacts (free-list reuse order) and never influence
/// ordering: the list order is the order of the calls alone.
#[derive(Debug, Clone)]
pub struct LruList<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
}

impl<T: Copy> Default for LruList<T> {
    fn default() -> Self {
        LruList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<T: Copy> LruList<T> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// The item behind handle `h`.
    pub fn item(&self, h: u32) -> &T {
        &self.nodes[h as usize].item
    }

    /// The least recently used entry and its access time.
    pub fn oldest(&self) -> Option<(&T, Timestamp)> {
        self.nodes
            .get(self.tail as usize)
            .map(|n| (&n.item, n.time))
    }

    /// The most recently used entry's access time.
    pub fn newest_time(&self) -> Option<Timestamp> {
        Some(self.nodes.get(self.head as usize)?.time)
    }

    /// Inserts `item` at the head with access time `t`; returns its handle,
    /// stable until the entry is popped.
    ///
    /// # Panics
    ///
    /// Panics if `t` is older than the current head's access time.
    pub fn push_front(&mut self, item: T, t: Timestamp) -> u32 {
        self.assert_monotone(t);
        let node = Node {
            item,
            time: t,
            prev: NIL,
            next: NIL,
        };
        let h = super::alloc(&mut self.nodes, &mut self.free, node);
        self.link_front(h);
        h
    }

    /// Moves the entry behind handle `h` to the head with access time `t`;
    /// returns its previous access time.
    ///
    /// # Panics
    ///
    /// Panics if `t` is older than the current head's access time — the
    /// list keeps times sorted and, per the paper, "insertion of a \[key\]
    /// with an arbitrary access time smaller than list head is not
    /// possible".
    pub fn touch(&mut self, h: u32, t: Timestamp) -> Timestamp {
        self.assert_monotone(t);
        self.unlink(h);
        let prev = std::mem::replace(&mut self.nodes[h as usize].time, t);
        self.link_front(h);
        prev
    }

    /// Removes the least recently used entry; returns its handle (free for
    /// reuse from now on), item and access time.
    pub fn pop_oldest(&mut self) -> Option<(u32, T, Timestamp)> {
        let h = self.tail;
        let n = self.nodes.get(h as usize)?;
        let (item, time) = (n.item, n.time);
        self.unlink(h);
        self.free.push(h);
        Some((h, item, time))
    }

    /// Iterates entries from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&T, Timestamp)> + '_ {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            let n = self.nodes.get(cursor as usize)?;
            cursor = n.next;
            Some((&n.item, n.time))
        })
    }

    fn assert_monotone(&self, t: Timestamp) {
        assert!(
            t >= self.newest_time().unwrap_or(t),
            "touch time must be >= current head time (monotone insertions)"
        );
    }

    fn unlink(&mut self, i: u32) {
        let n = &self.nodes[i as usize];
        let (prev, next) = (n.prev, n.next);
        match self.nodes.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.nodes.get_mut(next as usize) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    fn link_front(&mut self, i: u32) {
        let n = &mut self.nodes[i as usize];
        n.prev = NIL;
        n.next = self.head;
        match self.nodes.get_mut(self.head as usize) {
            Some(head) => head.prev = i,
            None => self.tail = i,
        }
        self.head = i;
    }
}

/// [`LruList`] addressed by key: the paper's list plus hash map, with O(1)
/// head insertion, lookup, touch and tail eviction. Reads that need no
/// key ([`LruList::oldest`], [`LruList::len`], [`LruList::iter`], …) come
/// through `Deref`.
///
/// # Examples
///
/// ```
/// use vcdn_core::ds::IndexedLruList;
/// use vcdn_types::Timestamp;
///
/// let mut lru: IndexedLruList<&str> = IndexedLruList::new();
/// assert_eq!(lru.touch("a", Timestamp(1)), None);
/// lru.touch("b", Timestamp(2));
/// // "a" moves to head; its previous access time comes back.
/// assert_eq!(lru.touch("a", Timestamp(3)), Some(Timestamp(1)));
/// assert_eq!(lru.oldest(), Some((&"b", Timestamp(2))));
/// assert_eq!(lru.pop_oldest(), Some(("b", Timestamp(2))));
/// assert_eq!(lru.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IndexedLruList<K: Eq + Hash + Copy> {
    index: FastMap<K, u32>,
    list: LruList<K>,
}

impl<K: Eq + Hash + Copy> Default for IndexedLruList<K> {
    fn default() -> Self {
        IndexedLruList {
            index: FastMap::default(),
            list: LruList::default(),
        }
    }
}

impl<K: Eq + Hash + Copy> std::ops::Deref for IndexedLruList<K> {
    type Target = LruList<K>;

    fn deref(&self) -> &LruList<K> {
        &self.list
    }
}

impl<K: Eq + Hash + Copy> IndexedLruList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
        IndexedLruList::default()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Inserts `key` at the head with access time `t`, or moves an existing
    /// entry to the head and updates its time; returns the entry's previous
    /// access time (`None` for a new key), so a read-then-update — Figure 1
    /// lines 1–2 — is one probe.
    ///
    /// # Panics
    ///
    /// Panics if `t` is older than the current head's access time (see
    /// [`LruList::touch`]).
    pub fn touch(&mut self, key: K, t: Timestamp) -> Option<Timestamp> {
        match self.index.get(&key) {
            Some(&h) => Some(self.list.touch(h, t)),
            None => {
                let h = self.list.push_front(key, t);
                self.index.insert(key, h);
                None
            }
        }
    }

    /// Removes and returns the least recently used entry.
    pub fn pop_oldest(&mut self) -> Option<(K, Timestamp)> {
        let (_, key, time) = self.list.pop_oldest()?;
        self.index.remove(&key);
        Some((key, time))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_lru_ordering() {
        let mut l = IndexedLruList::new();
        l.touch(1, Timestamp(10));
        l.touch(2, Timestamp(20));
        l.touch(3, Timestamp(30));
        assert_eq!(l.len(), 3);
        assert_eq!(l.oldest(), Some((&1, Timestamp(10))));
        l.touch(1, Timestamp(40)); // 1 becomes newest
        assert_eq!(l.oldest(), Some((&2, Timestamp(20))));
        assert_eq!(l.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![1, 3, 2]);
    }

    #[test]
    fn pop_oldest_drains_in_time_order() {
        let mut l = IndexedLruList::new();
        for i in 0..5 {
            l.touch(i, Timestamp(i * 10));
        }
        let mut popped = Vec::new();
        while let Some((k, _)) = l.pop_oldest() {
            popped.push(k);
        }
        assert_eq!(popped, vec![0, 1, 2, 3, 4]);
        assert!(l.is_empty());
        assert_eq!(l.pop_oldest(), None);
    }

    #[test]
    fn last_access_lookup() {
        // The previous access time is what `touch` hands back.
        let mut l = IndexedLruList::new();
        l.touch("x", Timestamp(7));
        assert_eq!(l.touch("x", Timestamp(9)), Some(Timestamp(7)));
        assert!(l.contains(&"x"));
        assert!(!l.contains(&"y"));
    }

    #[test]
    fn slots_are_recycled() {
        let mut l = IndexedLruList::new();
        for round in 0..10u64 {
            for i in 0..100u64 {
                l.touch(i, Timestamp(round * 100 + i));
            }
            for _ in 0..50 {
                l.pop_oldest();
            }
            for i in 0..50u64 {
                l.touch(1000 + i, Timestamp(round * 100 + 99));
            }
            for _ in 0..50 {
                l.pop_oldest();
            }
        }
        // Arena must not grow without bound: at most the peak live count.
        assert!(l.nodes.len() <= 150, "arena grew to {}", l.nodes.len());
    }

    #[test]
    #[should_panic(expected = "monotone insertions")]
    fn rejects_backdated_insertions() {
        let mut l = IndexedLruList::new();
        l.touch(1, Timestamp(100));
        l.touch(2, Timestamp(50));
    }

    #[test]
    fn equal_time_insertions_allowed() {
        let mut l = IndexedLruList::new();
        l.touch(1, Timestamp(100));
        l.touch(2, Timestamp(100));
        l.touch(3, Timestamp(100));
        assert_eq!(l.len(), 3);
        // Most recent insertion wins the head on ties.
        assert_eq!(l.iter().next().unwrap().0, &3);
        assert_eq!(l.oldest().unwrap().0, &1);
    }

    #[test]
    fn singleton_list_edge_cases() {
        let mut l = IndexedLruList::new();
        l.touch(9, Timestamp(1));
        assert_eq!(l.oldest(), Some((&9, Timestamp(1))));
        assert_eq!(l.newest_time(), Some(Timestamp(1)));
        l.touch(9, Timestamp(2)); // self-move
        assert_eq!(l.len(), 1);
        assert_eq!(l.pop_oldest(), Some((9, Timestamp(2))));
        assert_eq!(l.newest_time(), None);
    }

    #[test]
    fn model_based_random_ops_match_reference() {
        // Compare against a naive Vec-based model under a scripted op mix.
        use std::collections::VecDeque;
        let mut l = IndexedLruList::new();
        let mut model: VecDeque<(u64, Timestamp)> = VecDeque::new(); // front = newest
        let mut clock = 0u64;
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..5000 {
            clock += 1;
            let t = Timestamp(clock);
            if next() % 2 == 0 {
                let k = next() % 50;
                l.touch(k, t);
                model.retain(|(mk, _)| *mk != k);
                model.push_front((k, t));
            } else {
                assert_eq!(l.pop_oldest(), model.pop_back());
            }
            assert_eq!(l.len(), model.len());
            assert_eq!(
                l.iter().map(|(k, t)| (*k, t)).collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>()
            );
        }
    }
}
