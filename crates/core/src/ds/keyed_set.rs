//! Cafe's popularity structure: a binary-tree set ordered by virtual
//! timestamps plus a hash map for O(1) lookups.
//!
//! Per the paper (§6): "as a data structure that enables such insertions,
//! we employ a binary tree maintaining the chunks in ascending order of
//! their keys, as well as a hash map to enable fast lookup ... In other
//! words, we replace the linked list in xLRU Cache with a binary tree set.
//! This enables the desired flexibility in insertions, with an
//! insertion/deletion time of O(log N) and lookup/retrieval of least
//! popular chunks in O(1)."
//!
//! Keys are `f64` virtual timestamps (`key_x = t − IAT_x(t)`, Eq. 9), which
//! unlike xLRU's physical timestamps are *not* monotone across insertions.

use std::collections::BTreeSet;
use std::hash::Hash;

use vcdn_types::FastMap;

/// A totally ordered `f64` wrapper for use inside `BTreeSet`.
///
/// Construction rejects NaN, making the `Ord` implementation sound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(f64);

impl OrdF64 {
    /// Wraps a non-NaN float.
    ///
    /// # Panics
    ///
    /// Panics on NaN input.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "OrdF64 cannot hold NaN");
        // Normalize -0.0 to +0.0 so `Ord` (total_cmp) agrees exactly with
        // the IEEE partial order for every value this type can hold.
        OrdF64(v + 0.0)
    }

    /// The wrapped value.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // NaN is excluded at construction and -0.0 normalized, so this is
        // exactly the IEEE order partial_cmp would give — without a panic
        // path.
        self.0.total_cmp(&other.0)
    }
}

/// A set of items ordered by a mutable `f64` priority key, with O(log n)
/// insert/update/remove, O(1)-ish smallest retrieval, and hash-map lookup
/// of any item's current key.
///
/// Smaller key = less popular = evicted first (keys are virtual
/// timestamps: older ⇒ colder).
///
/// # Examples
///
/// ```
/// use vcdn_core::ds::KeyedSet;
///
/// let mut s: KeyedSet<&str> = KeyedSet::new();
/// s.insert("a", 5.0);
/// s.insert("b", 1.0);
/// s.insert("a", 0.5); // re-keying an existing item
/// assert_eq!(s.smallest(), Some(("a", 0.5)));
/// assert_eq!(s.key_of(&"b"), Some(1.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct KeyedSet<T: Eq + Hash + Ord + Copy> {
    tree: BTreeSet<(OrdF64, T)>,
    keys: FastMap<T, OrdF64>,
}

impl<T: Eq + Hash + Ord + Copy> KeyedSet<T> {
    /// Creates an empty set.
    pub fn new() -> Self {
        KeyedSet {
            tree: BTreeSet::new(),
            keys: FastMap::default(),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Whether `item` is present.
    pub fn contains(&self, item: &T) -> bool {
        self.keys.contains_key(item)
    }

    /// The current key of `item`, if present.
    pub fn key_of(&self, item: &T) -> Option<f64> {
        self.keys.get(item).map(|k| k.get())
    }

    /// Inserts `item` with `key`, replacing any previous key.
    ///
    /// # Panics
    ///
    /// Panics if `key` is NaN.
    pub fn insert(&mut self, item: T, key: f64) {
        let key = OrdF64::new(key);
        if let Some(old) = self.keys.insert(item, key) {
            self.tree.remove(&(old, item));
        }
        self.tree.insert((key, item));
    }

    /// Removes `item`; returns its key if it was present.
    pub fn remove(&mut self, item: &T) -> Option<f64> {
        let old = self.keys.remove(item)?;
        self.tree.remove(&(old, *item));
        Some(old.get())
    }

    /// The smallest-key (least popular) item.
    pub fn smallest(&self) -> Option<(T, f64)> {
        self.tree.first().map(|(k, t)| (*t, k.get()))
    }

    /// Removes and returns the smallest-key item.
    pub fn pop_smallest(&mut self) -> Option<(T, f64)> {
        let (k, t) = *self.tree.first()?;
        self.tree.remove(&(k, t));
        self.keys.remove(&t);
        Some((t, k.get()))
    }

    /// Iterates items in ascending key order.
    pub fn iter_ascending(&self) -> impl Iterator<Item = (T, f64)> + '_ {
        self.tree.iter().map(|(k, t)| (*t, k.get()))
    }

    /// The `n` smallest-key items that do not satisfy `exclude`, in
    /// ascending key order (fewer if the set runs out).
    pub fn smallest_excluding(&self, n: usize, exclude: impl Fn(&T) -> bool) -> Vec<(T, f64)> {
        let kept = self.tree.iter().filter(|(_, t)| !exclude(t));
        kept.take(n).map(|(k, t)| (*t, k.get())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn insert_lookup_remove() {
        let mut s = KeyedSet::new();
        s.insert(1u32, 3.0);
        s.insert(2, 1.0);
        s.insert(3, 2.0);
        assert_eq!(s.len(), 3);
        assert!(s.contains(&1));
        assert_eq!(s.key_of(&3), Some(2.0));
        assert_eq!(s.remove(&3), Some(2.0));
        assert_eq!(s.remove(&3), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ordering_and_pops() {
        let mut s = KeyedSet::new();
        s.insert("c", 30.0);
        s.insert("a", 10.0);
        s.insert("b", 20.0);
        assert_eq!(s.smallest(), Some(("a", 10.0)));
        assert_eq!(s.pop_smallest(), Some(("a", 10.0)));
        assert_eq!(s.pop_smallest(), Some(("b", 20.0)));
        assert_eq!(s.pop_smallest(), Some(("c", 30.0)));
        assert_eq!(s.pop_smallest(), None);
        assert!(s.is_empty());
    }

    #[test]
    fn rekeying_moves_items() {
        let mut s = KeyedSet::new();
        s.insert(1u8, 10.0);
        s.insert(2, 20.0);
        s.insert(1, 30.0); // 1 becomes most popular
        assert_eq!(s.len(), 2);
        assert_eq!(s.smallest(), Some((2, 20.0)));
        assert_eq!(s.key_of(&1), Some(30.0));
        // Non-monotone insertion: down-keying works too (the xLRU list
        // cannot do this; the tree must).
        s.insert(1, 5.0);
        assert_eq!(s.smallest(), Some((1, 5.0)));
    }

    #[test]
    fn equal_keys_disambiguated_by_item() {
        let mut s = KeyedSet::new();
        s.insert(5u32, 1.0);
        s.insert(3, 1.0);
        s.insert(4, 1.0);
        assert_eq!(s.len(), 3);
        let order: Vec<u32> = s.iter_ascending().map(|(t, _)| t).collect();
        assert_eq!(order, vec![3, 4, 5]);
    }

    #[test]
    fn smallest_excluding_skips() {
        let mut s = KeyedSet::new();
        for i in 0..6u32 {
            s.insert(i, i as f64);
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
    #[should_panic(expected = "NaN")]
    fn nan_keys_rejected() {
        KeyedSet::new().insert(1u8, f64::NAN);
    }

    #[test]
    fn negative_and_fractional_keys() {
        let mut s = KeyedSet::new();
        s.insert(1u8, -5.5);
        s.insert(2, 0.0);
        s.insert(3, -5.4);
        assert_eq!(s.pop_smallest(), Some((1, -5.5)));
        assert_eq!(s.pop_smallest(), Some((3, -5.4)));
    }

    #[test]
    fn negative_zero_normalizes_to_positive_zero() {
        // total_cmp would order -0.0 < 0.0; construction normalizes so the
        // two spellings are one key and the IEEE order is preserved.
        let mut s = KeyedSet::new();
        s.insert(1u8, -0.0);
        let key = s.key_of(&1).expect("present");
        assert!(key.is_sign_positive());
        s.insert(2, 0.0);
        assert_eq!(s.remove(&1), Some(0.0));
        assert_eq!(s.remove(&2), Some(0.0));
        assert!(s.is_empty());
    }

    #[test]
    fn model_based_random_ops() {
        // Reference model: BTreeMap + full scan for min.
        let mut s = KeyedSet::new();
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
                    let key = (next() % 1000) as f64 / 10.0;
                    s.insert(k, key);
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
        }
    }
}
