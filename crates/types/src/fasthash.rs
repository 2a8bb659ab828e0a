//! A fast, non-cryptographic hasher and the workspace's only hash
//! containers.
//!
//! Replay spends most of its time in hash lookups keyed by
//! [`ChunkId`](crate::ChunkId)/[`VideoId`](crate::VideoId); the std
//! `RandomState`/SipHash default is DoS-resistant but costs tens of cycles
//! per lookup, which the single-process simulator does not need. This
//! module provides an FxHash-style multiply-xor hasher (the family used by
//! rustc's interner tables) implemented in-repo — the build is offline, so
//! no external crates — plus [`FastMap`]/[`FastSet`], used by every policy
//! and the sharding layer.
//!
//! Determinism by type: [`FastMap`] and [`FastSet`] answer lookups and
//! nothing else. They have no `iter`, `keys`, `values`, `drain`,
//! `retain` or `IntoIterator`, and their `Debug` prints only the length,
//! so no hash order can reach a caller, let alone an output. Code that
//! needs an order walks a slab or a `BTreeMap`. The std `HashMap` and
//! `HashSet` are `clippy::disallowed_types` everywhere else (root
//! `clippy.toml`); this module is their one sanctioned home. The `std-hash`
//! cargo feature swaps the hasher back to std's `RandomState`, and the
//! full test suite — golden replays included — passes bit-for-bit either
//! way.
//!
//! # Examples
//!
//! ```
//! use vcdn_types::fasthash::{FastMap, FastSet};
//!
//! let mut m: FastMap<u64, &str> = FastMap::default();
//! m.insert(7, "chunk");
//! assert_eq!(m.get(&7), Some(&"chunk"));
//!
//! let mut s: FastSet<u32> = FastSet::default();
//! s.insert(3);
//! assert!(s.contains(&3));
//! ```
//!
//! Iteration does not compile:
//!
//! ```compile_fail
//! use vcdn_types::FastMap;
//!
//! let m: FastMap<u64, u64> = FastMap::default();
//! for (k, v) in m.iter() {
//!     println!("{k}={v}");
//! }
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "the one home of the std hash containers, wrapped lookup-only"
)]

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ops::Index;

/// Multiplicative constant: 2^64 / φ, the same odd constant Fibonacci
/// hashing uses, so single-`u64` keys get well-mixed high bits.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Bits to rotate the running state between words, decorrelating fields of
/// multi-word keys (e.g. a struct hashed as several `write_*` calls).
const ROTATE: u32 = 26;

/// An FxHash-style multiply-xor hasher: `state = (state.rot(R) ^ word) * SEED`.
///
/// Not collision-resistant against adversaries — use only for in-process
/// tables keyed by trusted simulator IDs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = (self.state.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Fold the high bits down: in a multiply-mix, bit `i` of the
        // product depends only on input bits `0..=i`, so the low bits are
        // poorly mixed — and hashbrown derives the bucket index from the
        // LOW bits of the hash. Without this fold, every video's chunk 0
        // (identical low 20 packed bits) lands in one bucket and lookups
        // degrade to linear probe chains.
        self.state ^ (self.state >> 32)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" hash differently.
            self.mix(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.mix(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// Zero-sized builder for [`FxHasher`]; every hasher starts from the same
/// state, so hashes are reproducible across runs.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Hashes one `u64` key through [`FxHasher`] without constructing a
/// `BuildHasher` — the scalar entry point for shard selection, where the
/// key is a packed [`ChunkId`](crate::ChunkId).
///
/// The stream is identical to `FxBuildHasher::default().hash_one(key)` for
/// a `u64`, and — like everything in this module — deterministic across
/// processes, so a shard partition derived from it is stable across runs.
#[inline]
pub fn hash_u64(key: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(key);
    h.finish()
}

/// Maps `key` to one of `shards` partitions: `hash_u64(key) % shards`.
///
/// Used by the sharded serving engine to assign every packed
/// [`ChunkId`](crate::ChunkId) to exactly one policy shard; the high-bit
/// fold in [`FxHasher::finish`] keeps the modulus well spread even for
/// dense video IDs.
///
/// # Panics
///
/// Panics if `shards == 0` (division by zero).
#[inline]
pub fn shard_for(key: u64, shards: usize) -> usize {
    (hash_u64(key) % shards as u64) as usize
}

/// The hasher behind [`FastMap`] / [`FastSet`]: [`FxBuildHasher`], or
/// std's `RandomState` under `--features std-hash` (the cross-hasher
/// determinism check).
#[cfg(not(feature = "std-hash"))]
type Build = FxBuildHasher;
#[cfg(feature = "std-hash")]
type Build = std::hash::RandomState;

/// A lookup-only hash map on the fast hasher: get, insert, remove and
/// [`Entry`], but no iteration (see the [module docs](self)).
#[derive(Clone)]
pub struct FastMap<K, V>(HashMap<K, V, Build>);

/// A lookup-only hash set on the fast hasher: insert and membership, but
/// no iteration (see the [module docs](self)).
#[derive(Clone)]
pub struct FastSet<T>(HashSet<T, Build>);

impl<K, V> Default for FastMap<K, V> {
    fn default() -> Self {
        FastMap(HashMap::default())
    }
}

impl<T> Default for FastSet<T> {
    fn default() -> Self {
        FastSet(HashSet::default())
    }
}

impl<K, V> fmt::Debug for FastMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastMap")
            .field("len", &self.0.len())
            .finish()
    }
}

impl<T> fmt::Debug for FastSet<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FastSet")
            .field("len", &self.0.len())
            .finish()
    }
}

impl<K: Eq + Hash, V> FastMap<K, V> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Heap bytes of the map's table, from its capacity as the std
    /// SwissTable lays it out: a power-of-two count of buckets with room
    /// for 7/8 as many entries (one fewer below 8 buckets), one entry and
    /// one control byte a bucket. It reads the bucket count because
    /// `capacity()` itself drops by the tombstones removals leave, and by
    /// how many depends on where the hasher put the keys.
    pub fn heap_bytes(&self) -> usize {
        let room = self.0.capacity();
        let buckets = match room {
            0 => 0,
            1..8 => (room + 1).next_power_of_two(),
            _ => (room * 8 / 7).next_power_of_two(),
        };
        buckets * (std::mem::size_of::<(K, V)>() + 1)
    }

    /// The value under `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// Whether `key` has an entry.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.0.contains_key(key)
    }

    /// Sets `key` to `value`, returning the value it replaced.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Removes `key`, returning its value.
    #[inline]
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    /// The entry of `key`, for in-place insert-or-update.
    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }
}

impl<K: Eq + Hash, V> Index<&K> for FastMap<K, V> {
    type Output = V;

    /// The value under `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` has no entry.
    #[inline]
    fn index(&self, key: &K) -> &V {
        &self.0[key]
    }
}

impl<T: Eq + Hash> FromIterator<T> for FastSet<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        FastSet(iter.into_iter().collect())
    }
}

impl<T: Eq + Hash> FastSet<T> {
    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the set holds no element.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Whether `value` is in the set.
    #[inline]
    pub fn contains(&self, value: &T) -> bool {
        self.0.contains(value)
    }

    /// Adds `value`; `false` if it was already present.
    #[inline]
    pub fn insert(&mut self, value: T) -> bool {
        self.0.insert(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_builders() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"abc"), hash_of(&"abc"));
    }

    #[test]
    fn distinct_small_keys_spread() {
        // Consecutive u64 keys must not collide and must differ in their
        // high bits (HashMap uses the top 7 bits for its control bytes).
        let hashes: Vec<u64> = (0u64..1000).map(|i| hash_of(&i)).collect();
        let mut sorted = hashes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1000, "collisions among 1000 small keys");
        let top_bytes: HashSet<u8> = hashes.iter().map(|h| (h >> 57) as u8).collect();
        assert!(
            top_bytes.len() > 32,
            "high bits poorly mixed: {top_bytes:?}"
        );
    }

    #[test]
    fn low_bits_spread_across_videos() {
        // Same chunk index, different videos: the packed key differs only
        // in its high bits, but the bucket index (low hash bits) must
        // still spread. A regression here makes HashMap lookups linear.
        let buckets: HashSet<u64> = (0u64..1024)
            .map(|v| hash_of(&crate::ChunkId::new(crate::VideoId(v), 0)) & 0xFFFF)
            .collect();
        assert!(buckets.len() > 900, "low bits clustered: {}", buckets.len());
    }

    #[test]
    fn byte_slices_length_sensitive() {
        let mut a = FxHasher::default();
        a.write(b"ab");
        let mut b = FxHasher::default();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn multiword_fields_decorrelated() {
        // (1, 2) and (2, 1) hash differently despite identical word sets.
        let mut a = FxHasher::default();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = FxHasher::default();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn fastmap_matches_std_hashmap_model() {
        // Property test: a FastMap driven by a deterministic op stream
        // agrees with a std-hasher HashMap reference at every step. The
        // keys are ChunkId-packed u64s, the shape the hot path uses.
        let mut fast: FastMap<u64, u64> = FastMap::default();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng: u64 = 0x5EED_CAFE;
        for step in 0..20_000u64 {
            // SplitMix64 step — deterministic, no external crates.
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let key = crate::ChunkId::new(crate::VideoId(z % 256), (z >> 8) as u32 % 64).packed();
            match z >> 62 {
                0 => {
                    assert_eq!(fast.insert(key, step), model.insert(key, step));
                }
                1 => {
                    assert_eq!(fast.remove(&key), model.remove(&key));
                }
                _ => {
                    assert_eq!(fast.get(&key), model.get(&key));
                }
            }
            assert_eq!(fast.len(), model.len());
        }
        for (key, value) in &model {
            assert_eq!(fast.get(key), Some(value));
        }
    }

    #[test]
    fn hash_u64_matches_build_hasher_stream() {
        for key in [0u64, 1, 42, u64::MAX, 0x9E37_79B9] {
            assert_eq!(hash_u64(key), hash_of(&key));
        }
    }

    #[test]
    fn shard_for_is_stable_in_range_and_spread() {
        let shards = 8;
        let mut counts = [0u32; 8];
        for v in 0u64..4096 {
            let key = crate::ChunkId::new(crate::VideoId(v), 0).packed();
            let s = shard_for(key, shards);
            assert!(s < shards);
            assert_eq!(s, shard_for(key, shards), "unstable shard for v{v}");
            counts[s] += 1;
        }
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                (300..800).contains(&c),
                "shard {s} got {c} of 4096 dense videos — poor spread"
            );
        }
    }

    #[test]
    #[should_panic]
    fn shard_for_zero_shards_panics() {
        let _ = shard_for(7, 0);
    }

    #[test]
    fn fastmap_basic_ops() {
        let mut m: FastMap<u32, u32> = FastMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 100);
        assert_eq!(m.get(&7), Some(&14));
        assert_eq!(m.remove(&7), Some(14));
        assert_eq!(m.get(&7), None);
    }
}
