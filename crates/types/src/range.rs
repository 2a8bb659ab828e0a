//! Inclusive byte and chunk ranges, and the byte→chunk conversion.
//!
//! The paper's request carries an inclusive byte range `[R.b0, R.b1]` and
//! derives the chunk range `[R.c0, R.c1] = [⌊R.b0/K⌋, ⌊R.b1/K⌋]` for chunk
//! size `K` (Section 4). Both ranges here are inclusive on both ends.

use std::fmt;

use crate::impl_json_struct;

/// Errors constructing ranges or chunk sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeError {
    /// The range's start exceeds its end.
    Inverted {
        /// Offending start bound.
        start: u64,
        /// Offending end bound.
        end: u64,
    },
    /// A chunk size of zero bytes was requested.
    ZeroChunkSize,
}

impl fmt::Display for RangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RangeError::Inverted { start, end } => {
                write!(f, "inverted range: start {start} > end {end}")
            }
            RangeError::ZeroChunkSize => write!(f, "chunk size must be non-zero"),
        }
    }
}

impl std::error::Error for RangeError {}

/// The fixed chunk size `K` in bytes (non-zero).
///
/// # Examples
///
/// ```
/// use vcdn_types::ChunkSize;
///
/// let k = ChunkSize::new(2 * 1024 * 1024).unwrap();
/// assert_eq!(k.bytes(), 2 * 1024 * 1024);
/// assert!(ChunkSize::new(0).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkSize(u64);

impl ChunkSize {
    /// The paper's default chunk size of 2 MB.
    pub const DEFAULT: ChunkSize = ChunkSize(2 * 1024 * 1024);

    /// Creates a chunk size; fails on zero.
    pub const fn new(bytes: u64) -> Result<Self, RangeError> {
        if bytes == 0 {
            Err(RangeError::ZeroChunkSize)
        } else {
            Ok(ChunkSize(bytes))
        }
    }

    /// The chunk size in bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Number of chunks needed to store `len` bytes (ceiling division).
    pub const fn chunks_for_len(self, len: u64) -> u64 {
        len.div_ceil(self.0)
    }

    /// The chunk index containing byte offset `byte`.
    pub const fn chunk_of_byte(self, byte: u64) -> u64 {
        byte / self.0
    }
}

impl Default for ChunkSize {
    fn default() -> Self {
        ChunkSize::DEFAULT
    }
}

impl fmt::Display for ChunkSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{}MiB", self.0 / (1024 * 1024))
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// An inclusive byte range `[start, end]` within a video file.
///
/// # Examples
///
/// ```
/// use vcdn_types::ByteRange;
///
/// let r = ByteRange::new(10, 19).unwrap();
/// assert_eq!(r.len(), 10);
/// assert!(ByteRange::new(5, 4).is_err());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteRange {
    /// First byte offset (inclusive).
    pub start: u64,
    /// Last byte offset (inclusive).
    pub end: u64,
}

impl_json_struct!(ByteRange { start, end });

impl ByteRange {
    /// Creates an inclusive byte range; fails if `start > end`.
    pub const fn new(start: u64, end: u64) -> Result<Self, RangeError> {
        if start > end {
            Err(RangeError::Inverted { start, end })
        } else {
            Ok(ByteRange { start, end })
        }
    }

    /// A range covering the first `len` bytes of a file (`len > 0`).
    pub const fn prefix(len: u64) -> Result<Self, RangeError> {
        if len == 0 {
            Err(RangeError::Inverted { start: 0, end: 0 })
        } else {
            Ok(ByteRange {
                start: 0,
                end: len - 1,
            })
        }
    }

    /// Number of bytes covered (inclusive, hence `end - start + 1`).
    pub const fn len(self) -> u64 {
        self.end - self.start + 1
    }

    /// Inclusive ranges are never empty; provided for API completeness.
    pub const fn is_empty(self) -> bool {
        false
    }

    /// The chunk range covering this byte range for chunk size `k`.
    pub const fn chunk_range(self, k: ChunkSize) -> ChunkRange {
        ChunkRange {
            start: k.chunk_of_byte(self.start) as u32,
            end: k.chunk_of_byte(self.end) as u32,
        }
    }
}

impl fmt::Display for ByteRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytes[{}..={}]", self.start, self.end)
    }
}

/// An inclusive range of chunk indices `[start, end]` within one video.
///
/// # Examples
///
/// ```
/// use vcdn_types::ChunkRange;
///
/// let r = ChunkRange::new(2, 4).unwrap();
/// assert_eq!(r.len(), 3);
/// assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 3, 4]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRange {
    /// First chunk index (inclusive).
    pub start: u32,
    /// Last chunk index (inclusive).
    pub end: u32,
}

impl ChunkRange {
    /// Creates an inclusive chunk range; fails if `start > end`.
    pub const fn new(start: u32, end: u32) -> Result<Self, RangeError> {
        if start > end {
            Err(RangeError::Inverted {
                start: start as u64,
                end: end as u64,
            })
        } else {
            Ok(ChunkRange { start, end })
        }
    }

    /// Number of chunks covered.
    pub const fn len(self) -> u64 {
        (self.end - self.start) as u64 + 1
    }

    /// Inclusive ranges are never empty; provided for API completeness.
    pub const fn is_empty(self) -> bool {
        false
    }

    /// Whether chunk index `c` falls inside the range.
    pub const fn contains(self, c: u32) -> bool {
        self.start <= c && c <= self.end
    }

    /// Iterates the covered chunk indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u32> {
        self.start..=self.end
    }
}

impl fmt::Display for ChunkRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "chunks[{}..={}]", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_rejects_zero() {
        assert_eq!(ChunkSize::new(0), Err(RangeError::ZeroChunkSize));
    }

    #[test]
    fn chunks_for_len_is_ceiling() {
        let k = ChunkSize::new(10).unwrap();
        assert_eq!(k.chunks_for_len(0), 0);
        assert_eq!(k.chunks_for_len(1), 1);
        assert_eq!(k.chunks_for_len(10), 1);
        assert_eq!(k.chunks_for_len(11), 2);
    }

    #[test]
    fn byte_to_chunk_range_matches_paper() {
        // K = 10: bytes [0, 9] -> chunk 0 only; bytes [5, 25] -> chunks 0..=2.
        let k = ChunkSize::new(10).unwrap();
        let r = ByteRange::new(0, 9).unwrap().chunk_range(k);
        assert_eq!((r.start, r.end), (0, 0));
        let r = ByteRange::new(5, 25).unwrap().chunk_range(k);
        assert_eq!((r.start, r.end), (0, 2));
    }

    #[test]
    fn chunk_boundary_is_exclusive_of_next_chunk() {
        // Byte 2*K-1 is the last byte of chunk 1; byte 2*K is the first of chunk 2.
        let k = ChunkSize::new(100).unwrap();
        assert_eq!(
            ByteRange::new(0, 199).unwrap().chunk_range(k),
            ChunkRange::new(0, 1).unwrap()
        );
        assert_eq!(
            ByteRange::new(0, 200).unwrap().chunk_range(k),
            ChunkRange::new(0, 2).unwrap()
        );
    }

    #[test]
    fn inverted_ranges_rejected() {
        assert!(ByteRange::new(3, 2).is_err());
        assert!(ChunkRange::new(3, 2).is_err());
        assert!(ByteRange::prefix(0).is_err());
    }

    #[test]
    fn prefix_covers_exactly_len_bytes() {
        let r = ByteRange::prefix(1024).unwrap();
        assert_eq!(r.start, 0);
        assert_eq!(r.end, 1023);
        assert_eq!(r.len(), 1024);
    }

    #[test]
    fn chunk_range_iteration_and_contains() {
        let r = ChunkRange::new(5, 7).unwrap();
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![5, 6, 7]);
        assert!(r.contains(5) && r.contains(7));
        assert!(!r.contains(4) && !r.contains(8));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn single_point_ranges() {
        assert_eq!(ByteRange::new(9, 9).unwrap().len(), 1);
        assert_eq!(ChunkRange::new(4, 4).unwrap().len(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ChunkSize::DEFAULT.to_string(), "2MiB");
        assert_eq!(ChunkSize::new(123).unwrap().to_string(), "123B");
        assert_eq!(ByteRange::new(1, 2).unwrap().to_string(), "bytes[1..=2]");
        assert_eq!(ChunkRange::new(1, 2).unwrap().to_string(), "chunks[1..=2]");
    }
}
