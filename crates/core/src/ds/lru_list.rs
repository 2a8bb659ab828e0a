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
//! The list is arena-backed (indices into a `Vec`, with a free list) so
//! entries never move and no unsafe pointer juggling is needed.

use std::hash::Hash;

use vcdn_types::{FastMap, Timestamp};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node<K> {
    key: K,
    time: Timestamp,
    prev: u32,
    next: u32,
}

/// An access-time-ordered LRU structure with O(1) head insertion, lookup,
/// touch, and tail eviction.
///
/// Head = most recently used; tail = least recently used. The structure
/// enforces the paper's monotonicity rule: entries can only be (re)inserted
/// at the head with a time no older than the current head.
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
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    index: FastMap<K, u32>,
    head: u32,
    tail: u32,
}

impl<K: Eq + Hash + Copy> Default for IndexedLruList<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash + Copy> IndexedLruList<K> {
    /// Creates an empty list.
    pub fn new() -> Self {
        IndexedLruList {
            nodes: Vec::new(),
            free: Vec::new(),
            index: FastMap::default(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    // lint: hot
    /// Last access time of `key`, if tracked.
    pub fn last_access(&self, key: &K) -> Option<Timestamp> {
        self.index.get(key).map(|&i| self.nodes[i as usize].time)
    }

    // lint: hot
    /// Whether `key` is present.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    // lint: hot
    /// The least recently used entry and its access time.
    pub fn oldest(&self) -> Option<(&K, Timestamp)> {
        if self.tail == NIL {
            return None;
        }
        let n = &self.nodes[self.tail as usize];
        Some((&n.key, n.time))
    }

    // lint: hot
    /// The most recently used entry's access time.
    pub fn newest_time(&self) -> Option<Timestamp> {
        if self.head == NIL {
            return None;
        }
        Some(self.nodes[self.head as usize].time)
    }

    // lint: hot
    /// Inserts `key` at the head with access time `t`, or moves an existing
    /// entry to the head and updates its time; returns the entry's previous
    /// access time (`None` for a new key), so a read-then-update — Figure 1
    /// lines 1–2 — is one probe.
    ///
    /// # Panics
    ///
    /// Panics if `t` is older than the current head's access time — the
    /// structure keeps times sorted and, per the paper, "insertion of a
    /// \[key\] with an arbitrary access time smaller than list head is not
    /// possible".
    pub fn touch(&mut self, key: K, t: Timestamp) -> Option<Timestamp> {
        if let Some(head_t) = self.newest_time() {
            assert!(
                t >= head_t,
                "touch time must be >= current head time (monotone insertions)"
            );
        }
        if let Some(&i) = self.index.get(&key) {
            self.unlink(i);
            let prev = std::mem::replace(&mut self.nodes[i as usize].time, t);
            self.link_front(i);
            return Some(prev);
        }
        let node = Node {
            key,
            time: t,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = node;
                slot
            }
            None => {
                assert!(self.nodes.len() < NIL as usize, "arena full");
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        self.index.insert(key, i);
        self.link_front(i);
        None
    }

    // lint: hot
    /// Removes and returns the least recently used entry.
    pub fn pop_oldest(&mut self) -> Option<(K, Timestamp)> {
        if self.tail == NIL {
            return None;
        }
        let i = self.tail;
        self.unlink(i);
        self.free.push(i);
        let n = &self.nodes[i as usize];
        let key = n.key;
        let time = n.time;
        self.index.remove(&key);
        Some((key, time))
    }

    // lint: hot
    /// Removes an arbitrary entry; returns its access time if present.
    pub fn remove(&mut self, key: &K) -> Option<Timestamp> {
        let i = self.index.remove(key)?;
        self.unlink(i);
        self.free.push(i);
        Some(self.nodes[i as usize].time)
    }

    /// Iterates entries from most to least recently used.
    pub fn iter(&self) -> impl Iterator<Item = (&K, Timestamp)> {
        LruIter {
            list: self,
            cursor: self.head,
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
        } else if self.head == i {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == i {
            self.tail = prev;
        }
        let n = &mut self.nodes[i as usize];
        n.prev = NIL;
        n.next = NIL;
    }

    // lint: hot
    fn link_front(&mut self, i: u32) {
        self.nodes[i as usize].prev = NIL;
        self.nodes[i as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }
}

struct LruIter<'a, K: Eq + Hash + Copy> {
    list: &'a IndexedLruList<K>,
    cursor: u32,
}

impl<'a, K: Eq + Hash + Copy> Iterator for LruIter<'a, K> {
    type Item = (&'a K, Timestamp);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor == NIL {
            return None;
        }
        let n = &self.list.nodes[self.cursor as usize];
        self.cursor = n.next;
        Some((&n.key, n.time))
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
    fn remove_arbitrary_entries() {
        let mut l = IndexedLruList::new();
        for i in 0..4 {
            l.touch(i, Timestamp(i));
        }
        assert_eq!(l.remove(&2), Some(Timestamp(2)));
        assert_eq!(l.remove(&2), None);
        assert_eq!(l.len(), 3);
        assert_eq!(l.iter().map(|(k, _)| *k).collect::<Vec<_>>(), vec![3, 1, 0]);
        // Removing head and tail keeps links consistent.
        assert_eq!(l.remove(&3), Some(Timestamp(3)));
        assert_eq!(l.remove(&0), Some(Timestamp(0)));
        assert_eq!(l.oldest(), Some((&1, Timestamp(1))));
    }

    #[test]
    fn last_access_lookup() {
        let mut l = IndexedLruList::new();
        l.touch("x", Timestamp(7));
        assert_eq!(l.last_access(&"x"), Some(Timestamp(7)));
        assert_eq!(l.last_access(&"y"), None);
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
            let op = next() % 3;
            clock += 1;
            let t = Timestamp(clock);
            match op {
                0 => {
                    let k = next() % 50;
                    l.touch(k, t);
                    model.retain(|(mk, _)| *mk != k);
                    model.push_front((k, t));
                }
                1 => {
                    let got = l.pop_oldest();
                    let want = model.pop_back();
                    assert_eq!(got, want);
                }
                _ => {
                    let k = next() % 50;
                    let got = l.remove(&k);
                    let pos = model.iter().position(|(mk, _)| *mk == k);
                    let want = pos.map(|p| model.remove(p).unwrap().1);
                    assert_eq!(got, want);
                }
            }
            assert_eq!(l.len(), model.len());
            assert_eq!(
                l.iter().map(|(k, t)| (*k, t)).collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>()
            );
        }
    }
}
