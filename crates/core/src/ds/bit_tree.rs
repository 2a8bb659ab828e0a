//! A set of small integers as a 64-ary tree of bitmaps.
//!
//! `levels[0]` has one bit per possible member; bit `i` of `levels[l + 1]`
//! says "word `i` of `levels[l]` is non-zero"; the top level is one word.
//! Insert and remove touch one word per level and stop at the first level
//! whose summary bit does not change; a predecessor query climbs until a
//! word has a bit below the position and descends by `leading_zeros`.
//! Nothing is allocated after [`BitTree::new`].

/// A set of integers below a universe fixed at construction.
///
/// # Examples
///
/// ```
/// use vcdn_core::ds::BitTree;
///
/// let mut set = BitTree::new(10_000);
/// set.insert(7);
/// set.insert(4_100);
/// assert_eq!(set.last_below(10_000), Some(4_100));
/// assert_eq!(set.last_below(4_100), Some(7));
/// set.remove(7);
/// assert_eq!(set.last_below(4_100), None);
/// ```
#[derive(Debug, Clone)]
pub struct BitTree {
    universe: usize,
    levels: Vec<Vec<u64>>,
}

/// Position of the highest set bit of a non-zero word.
fn top_bit(word: u64) -> usize {
    63 - word.leading_zeros() as usize
}

impl BitTree {
    /// An empty set of integers in `0..universe`.
    pub fn new(universe: usize) -> Self {
        let mut words = universe.div_ceil(64).max(1);
        let mut levels = vec![vec![0u64; words]];
        while words > 1 {
            words = words.div_ceil(64);
            levels.push(vec![0u64; words]);
        }
        BitTree { universe, levels }
    }

    // lint: hot
    /// Adds `i`; a no-op if it is a member already.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the universe.
    pub fn insert(&mut self, mut i: usize) {
        assert!(i < self.universe, "{i} is outside the universe");
        for words in &mut self.levels {
            let word = &mut words[i >> 6];
            let was_empty = *word == 0;
            *word |= 1 << (i & 63);
            if !was_empty {
                break;
            }
            i >>= 6;
        }
    }

    // lint: hot
    /// Removes `i`; a no-op if it is not a member.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not below the universe.
    pub fn remove(&mut self, mut i: usize) {
        assert!(i < self.universe, "{i} is outside the universe");
        for words in &mut self.levels {
            let word = &mut words[i >> 6];
            *word &= !(1 << (i & 63));
            if *word != 0 {
                break;
            }
            i >>= 6;
        }
    }

    // lint: hot
    /// The largest member strictly below `bound` (any `bound`: one at or
    /// above the universe asks for the maximum).
    pub fn last_below(&self, bound: usize) -> Option<usize> {
        let mut at = bound.min(self.universe);
        for (level, words) in self.levels.iter().enumerate() {
            // `at` is an exclusive bound on this level's bits: look at the
            // bits at or below `at - 1` in that bit's own word, and if there
            // is none, for a non-empty word below it, one level up.
            at = at.checked_sub(1)?;
            let found = words[at >> 6] & (u64::MAX >> (63 - (at & 63)));
            if found != 0 {
                at = at & !63 | top_bit(found);
                for words in self.levels[..level].iter().rev() {
                    at = at << 6 | top_bit(words[at]);
                }
                return Some(at);
            }
            at >>= 6;
        }
        None
    }

    // lint: hot
    /// The members from the largest down. Asks nothing of the set until
    /// the first `next`.
    pub fn descending(&self) -> impl Iterator<Item = usize> + '_ {
        let mut bound = usize::MAX;
        std::iter::from_fn(move || {
            bound = self.last_below(bound)?;
            Some(bound)
        })
    }
}
