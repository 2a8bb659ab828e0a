//! Disk-allocation model: why the paper stores fixed-size chunks.
//!
//! Section 4 justifies chunking in one sentence: dividing disk and files
//! into fixed-size chunks "eliminates the inefficiencies of
//! allocating/de-allocating disk blocks to segments of arbitrary sizes".
//! This module makes that inefficiency measurable: a first-fit free-list
//! allocator over a byte space, with coalescing frees and external-
//! fragmentation accounting. Replaying a cache-fill/evict churn stream
//! through it (see the `ablation_chunking` experiment) shows variable-size
//! segment storage forcing extra evictions once the free space shatters —
//! overhead that fixed-size chunks avoid by construction.

use std::collections::BTreeMap;

/// A contiguous free region `[offset, offset + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FreeBlock {
    offset: u64,
    len: u64,
}

/// First-fit segment allocator with coalescing frees.
///
/// # Examples
///
/// ```
/// use vcdn_sim::diskalloc::{AllocError, SegmentAllocator};
///
/// let mut a = SegmentAllocator::new(100);
/// a.alloc(1, 40).unwrap(); // [0, 40)
/// a.alloc(2, 40).unwrap(); // [40, 80)
/// a.free(1).unwrap();
/// // 60 bytes are free, but split into a 40-byte and a 20-byte hole:
/// assert_eq!(a.free_bytes(), 60);
/// assert_eq!(a.largest_free_block(), 40);
/// assert_eq!(a.alloc(3, 41), Err(AllocError::Fragmented));
/// ```
#[derive(Debug, Clone)]
pub struct SegmentAllocator {
    capacity: u64,
    /// Free blocks sorted by offset (invariant: non-overlapping,
    /// non-adjacent — adjacent blocks are coalesced).
    free: Vec<FreeBlock>,
    /// Live allocations by caller-supplied id.
    allocations: BTreeMap<u64, FreeBlock>,
    /// Allocation attempts that failed due to fragmentation (enough free
    /// bytes in total, but no single hole large enough).
    pub fragmentation_failures: u64,
    /// Allocation attempts that failed because free bytes were simply
    /// insufficient.
    pub capacity_failures: u64,
}

/// Why an allocation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// Total free bytes are insufficient: the caller must evict.
    NeedEviction,
    /// Enough free bytes exist, but no contiguous hole fits: external
    /// fragmentation. The caller must evict *more* than byte accounting
    /// suggests (the §4 inefficiency).
    Fragmented,
    /// The id is already allocated.
    DuplicateId,
    /// Zero-length allocations are meaningless.
    ZeroLength,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NeedEviction => write!(f, "insufficient free bytes"),
            AllocError::Fragmented => write!(f, "no contiguous hole (fragmentation)"),
            AllocError::DuplicateId => write!(f, "id already allocated"),
            AllocError::ZeroLength => write!(f, "zero-length allocation"),
        }
    }
}

impl std::error::Error for AllocError {}

impl SegmentAllocator {
    /// Creates an allocator over `capacity` bytes, all free.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be > 0");
        SegmentAllocator {
            capacity,
            free: vec![FreeBlock {
                offset: 0,
                len: capacity,
            }],
            allocations: BTreeMap::new(),
            fragmentation_failures: 0,
            capacity_failures: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Total free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free.iter().map(|b| b.len).sum()
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.capacity - self.free_bytes()
    }

    /// The largest contiguous free hole.
    pub fn largest_free_block(&self) -> u64 {
        self.free.iter().map(|b| b.len).max().unwrap_or(0)
    }

    /// External fragmentation in `[0, 1]`:
    /// `1 − largest_hole / free_bytes` (0 when free space is one hole or
    /// there is none).
    pub fn external_fragmentation(&self) -> f64 {
        let free = self.free_bytes();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_block() as f64 / free as f64
    }

    /// Live allocation count.
    pub fn allocation_count(&self) -> usize {
        self.allocations.len()
    }

    /// Whether `id` is currently allocated.
    pub fn contains(&self, id: u64) -> bool {
        self.allocations.contains_key(&id)
    }

    /// Allocates `len` bytes under `id`, first-fit. On failure the error
    /// distinguishes insufficient bytes from fragmentation and the
    /// corresponding failure counter is incremented.
    pub fn alloc(&mut self, id: u64, len: u64) -> Result<u64, AllocError> {
        if len == 0 {
            return Err(AllocError::ZeroLength);
        }
        if self.allocations.contains_key(&id) {
            return Err(AllocError::DuplicateId);
        }
        let Some(pos) = self.free.iter().position(|b| b.len >= len) else {
            if self.free_bytes() >= len {
                self.fragmentation_failures += 1;
                return Err(AllocError::Fragmented);
            }
            self.capacity_failures += 1;
            return Err(AllocError::NeedEviction);
        };
        let block = self.free[pos];
        if block.len == len {
            self.free.remove(pos);
        } else {
            self.free[pos] = FreeBlock {
                offset: block.offset + len,
                len: block.len - len,
            };
        }
        self.allocations.insert(
            id,
            FreeBlock {
                offset: block.offset,
                len,
            },
        );
        Ok(block.offset)
    }

    /// Frees the allocation under `id`, coalescing with neighbours.
    /// Returns the freed length, or `None` if the id is unknown.
    pub fn free(&mut self, id: u64) -> Option<u64> {
        let block = self.allocations.remove(&id)?;
        // Insert sorted by offset. A live allocation's offset is never on
        // the free list, so `Ok` cannot occur; both arms carry a valid
        // insertion point, so taking either keeps the list sorted.
        let pos = self
            .free
            .binary_search_by_key(&block.offset, |b| b.offset)
            .unwrap_or_else(|pos| pos);
        self.free.insert(pos, block);
        // Coalesce with the next block, then the previous one.
        if pos + 1 < self.free.len()
            && self.free[pos].offset + self.free[pos].len == self.free[pos + 1].offset
        {
            self.free[pos].len += self.free[pos + 1].len;
            self.free.remove(pos + 1);
        }
        if pos > 0 && self.free[pos - 1].offset + self.free[pos - 1].len == self.free[pos].offset {
            self.free[pos - 1].len += self.free[pos].len;
            self.free.remove(pos);
        }
        Some(block.len)
    }

    /// Verifies internal invariants (tests and debug assertions): free
    /// blocks sorted, non-overlapping, non-adjacent; allocations within
    /// capacity and disjoint from free space.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<u64> = None;
        for b in &self.free {
            if b.len == 0 {
                return Err("zero-length free block".into());
            }
            if b.offset + b.len > self.capacity {
                return Err("free block out of bounds".into());
            }
            if let Some(end) = prev_end {
                if b.offset < end {
                    return Err("free blocks overlap".into());
                }
                if b.offset == end {
                    return Err("uncoalesced adjacent free blocks".into());
                }
            }
            prev_end = Some(b.offset + b.len);
        }
        let mut spans: Vec<FreeBlock> = self.allocations.values().copied().collect();
        spans.extend(self.free.iter().copied());
        spans.sort_by_key(|b| b.offset);
        let mut covered = 0u64;
        for s in &spans {
            if s.offset != covered {
                return Err(format!("gap or overlap at offset {covered}"));
            }
            covered = s.offset + s.len;
        }
        if covered != self.capacity {
            return Err(format!("space not fully accounted: {covered}"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut a = SegmentAllocator::new(1000);
        let off = a.alloc(1, 300).expect("fits");
        assert_eq!(off, 0);
        assert_eq!(a.used_bytes(), 300);
        assert_eq!(a.free(1), Some(300));
        assert_eq!(a.used_bytes(), 0);
        assert_eq!(a.largest_free_block(), 1000);
        a.check_invariants().expect("invariants");
    }

    #[test]
    fn first_fit_and_split() {
        let mut a = SegmentAllocator::new(100);
        a.alloc(1, 30).expect("fits");
        a.alloc(2, 30).expect("fits");
        a.alloc(3, 40).expect("fits");
        assert_eq!(a.free_bytes(), 0);
        a.free(2).expect("allocated");
        // First fit places a smaller allocation in the freed hole.
        let off = a.alloc(4, 10).expect("fits in hole");
        assert_eq!(off, 30);
        a.check_invariants().expect("invariants");
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let mut a = SegmentAllocator::new(90);
        a.alloc(1, 30).expect("fits");
        a.alloc(2, 30).expect("fits");
        a.alloc(3, 30).expect("fits");
        a.free(1);
        a.free(3);
        assert_eq!(a.free.len(), 2);
        a.free(2); // middle free must merge all three
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.largest_free_block(), 90);
        a.check_invariants().expect("invariants");
    }

    #[test]
    fn free_inserts_at_front_middle_and_end_of_the_free_list() {
        // Ten 10-byte allocations fill the disk; freeing every other one
        // leaves non-adjacent holes, so no free coalesces.
        let mut a = SegmentAllocator::new(100);
        for id in 0..10 {
            a.alloc(id, 10).expect("fits");
        }
        let offsets = |a: &SegmentAllocator| a.free.iter().map(|b| b.offset).collect::<Vec<_>>();
        a.free(4).expect("allocated");
        a.free(8).expect("allocated"); // end
        assert_eq!(offsets(&a), [40, 80]);
        a.free(0).expect("allocated"); // front
        assert_eq!(offsets(&a), [0, 40, 80]);
        a.free(6).expect("allocated"); // middle
        assert_eq!(offsets(&a), [0, 40, 60, 80]);
        a.check_invariants().expect("invariants");
    }

    #[test]
    fn fragmentation_distinguished_from_capacity() {
        let mut a = SegmentAllocator::new(100);
        a.alloc(1, 25).expect("fits");
        a.alloc(2, 25).expect("fits");
        a.alloc(3, 25).expect("fits");
        a.alloc(4, 25).expect("fits");
        a.free(1);
        a.free(3);
        // 50 bytes free, but in two 25-byte holes.
        assert_eq!(a.free_bytes(), 50);
        assert_eq!(a.alloc(5, 40), Err(AllocError::Fragmented));
        assert_eq!(a.fragmentation_failures, 1);
        assert_eq!(a.alloc(6, 60), Err(AllocError::NeedEviction));
        assert_eq!(a.capacity_failures, 1);
        assert!(a.external_fragmentation() > 0.4);
        a.check_invariants().expect("invariants");
    }

    #[test]
    fn duplicate_and_zero_rejected() {
        let mut a = SegmentAllocator::new(10);
        a.alloc(1, 5).expect("fits");
        assert_eq!(a.alloc(1, 2), Err(AllocError::DuplicateId));
        assert_eq!(a.alloc(2, 0), Err(AllocError::ZeroLength));
        assert_eq!(a.free(99), None);
    }

    #[test]
    fn fixed_size_chunks_never_fragment() {
        // The §4 argument: with uniform allocation sizes, any free space
        // is always usable — fragmentation failures cannot happen.
        let mut a = SegmentAllocator::new(1000);
        let chunk = 100u64;
        let mut next_id = 0u64;
        let mut live: Vec<u64> = Vec::new();
        let mut rng = 123456789u64;
        for _ in 0..10_000 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            if rng.is_multiple_of(3) && !live.is_empty() {
                let idx = (rng >> 33) as usize % live.len();
                a.free(live.swap_remove(idx));
            } else {
                match a.alloc(next_id, chunk) {
                    Ok(_) => {
                        live.push(next_id);
                        next_id += 1;
                    }
                    Err(AllocError::NeedEviction) => {
                        if !live.is_empty() {
                            a.free(live.remove(0));
                        }
                    }
                    Err(e) => panic!("uniform chunks must not fail with {e}"),
                }
            }
        }
        assert_eq!(a.fragmentation_failures, 0);
        a.check_invariants().expect("invariants");
    }

    #[test]
    fn variable_sizes_do_fragment_under_churn() {
        let mut a = SegmentAllocator::new(10_000);
        let mut next_id = 0u64;
        let mut live: Vec<(u64, u64)> = Vec::new(); // (id, len)
        let mut rng = 42u64;
        let mut step = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng >> 33
        };
        for _ in 0..20_000 {
            let len = 50 + step() % 900;
            loop {
                match a.alloc(next_id, len) {
                    Ok(_) => {
                        live.push((next_id, len));
                        next_id += 1;
                        break;
                    }
                    Err(AllocError::Fragmented) | Err(AllocError::NeedEviction) => {
                        if live.is_empty() {
                            break;
                        }
                        let (id, _) = live.remove(0);
                        a.free(id);
                    }
                    Err(e) => panic!("unexpected {e}"),
                }
            }
        }
        assert!(
            a.fragmentation_failures > 0,
            "variable-size churn should hit fragmentation"
        );
        a.check_invariants().expect("invariants");
    }

    #[test]
    fn model_based_random_ops() {
        // Shadow model: set of (id, len); verify byte accounting and
        // invariants under random alloc/free.
        let mut a = SegmentAllocator::new(5_000);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = 7u64;
        let mut step = || {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            rng >> 33
        };
        for i in 0..5_000u64 {
            if step() % 2 == 0 {
                let len = 1 + step() % 400;
                if a.alloc(i, len).is_ok() {
                    model.insert(i, len);
                }
            } else if let Some(&id) = model.keys().next() {
                assert_eq!(a.free(id), Some(model.remove(&id).expect("in model")));
            }
            assert_eq!(a.used_bytes(), model.values().sum::<u64>());
            assert_eq!(a.allocation_count(), model.len());
        }
        a.check_invariants().expect("invariants");
    }
}
