//! Identifiers for videos and fixed-size chunks.

use std::fmt;

use crate::{impl_json_newtype, impl_json_struct};

/// Opaque identifier of a video file in the CDN catalog.
///
/// The paper's request record carries `R.v`; anonymised IDs are modelled as
/// plain `u64`s assigned by the trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VideoId(pub u64);

impl_json_newtype!(VideoId);

impl fmt::Display for VideoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A fixed-size chunk of a video: the unit of disk storage and cache-fill.
///
/// Section 4 of the paper divides files into chunks of `K` bytes
/// ("e.g., 2 MB") so that partial caching deals in uniform units "uniquely
/// identified with a video ID `v` and chunk number `c`".
///
/// # Examples
///
/// ```
/// use vcdn_types::{ChunkId, VideoId};
///
/// let c = ChunkId::new(VideoId(3), 14);
/// assert_eq!(c.video, VideoId(3));
/// assert_eq!(c.index, 14);
/// assert_eq!(c.to_string(), "v3#14");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChunkId {
    /// The video this chunk belongs to.
    pub video: VideoId,
    /// Zero-based chunk number within the video.
    pub index: u32,
}

impl_json_struct!(ChunkId { video, index });

impl ChunkId {
    /// Bits of the packed representation holding the chunk index; the
    /// video id occupies the bits above. `packed() >> INDEX_BITS`
    /// recovers the video id (in the injective range).
    pub const INDEX_BITS: u32 = 20;

    /// Creates a chunk identifier.
    pub const fn new(video: VideoId, index: u32) -> Self {
        ChunkId { video, index }
    }

    /// Packs both fields into one `u64`: video id in the high bits, chunk
    /// number in the low [`ChunkId::INDEX_BITS`] (catalog videos are far
    /// below 2^20 chunks ≈ 2 TB at 2 MB/chunk). Injective while
    /// `video < 2^44`; beyond that it degrades to an ordinary
    /// (collision-tolerant) hash input, never a unique key.
    pub const fn packed(self) -> u64 {
        (self.video.0 << ChunkId::INDEX_BITS) ^ self.index as u64
    }
}

/// Hashes as a single packed `u64` instead of field-by-field, so hot maps
/// pay for one hasher round per lookup rather than two.
impl std::hash::Hash for ChunkId {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.packed());
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.video, self.index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ordering_is_video_major() {
        let a = ChunkId::new(VideoId(1), 99);
        let b = ChunkId::new(VideoId(2), 0);
        assert!(a < b);
        assert!(ChunkId::new(VideoId(1), 3) < ChunkId::new(VideoId(1), 4));
    }

    #[test]
    fn display_formats() {
        assert_eq!(VideoId(42).to_string(), "v42");
        assert_eq!(ChunkId::new(VideoId(42), 7).to_string(), "v42#7");
    }

    #[test]
    fn packed_is_injective_in_range() {
        let mut seen = crate::FastSet::default();
        for v in [0u64, 1, 2, 1 << 20, (1 << 44) - 1] {
            for c in [0u32, 1, 999, (1 << 20) - 1] {
                assert!(
                    seen.insert(ChunkId::new(VideoId(v), c).packed()),
                    "packed collision at v{v}#{c}"
                );
            }
        }
    }

    #[test]
    fn chunk_id_is_hashable_key() {
        let mut m = crate::FastMap::default();
        m.insert(ChunkId::new(VideoId(1), 2), "x");
        assert_eq!(m.get(&ChunkId::new(VideoId(1), 2)), Some(&"x"));
        assert_eq!(m.get(&ChunkId::new(VideoId(1), 3)), None);
    }
}
