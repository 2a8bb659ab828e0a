//! The viewing-session model: from one "user presses play" event to the
//! sequence of HTTP byte-range requests a video client issues.
//!
//! Sessions are what give the workload its *intra-file* structure (paper
//! §2, "Diverse intra-file popularities"): players fetch the stream in
//! consecutive byte-range requests, viewers frequently abandon early, and
//! occasionally seek — so early chunks of every file see far more hits than
//! late ones, and caches must reason about partially-present files.

use vcdn_types::{ByteRange, DurationMs, Request, Timestamp, VideoId};

use crate::{dist::sample_watch_fraction, rng::DetRng};

/// Parameters of the session model.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Probability a session plays the video to the end.
    pub p_full_watch: f64,
    /// Mean watched fraction of abandoning sessions (truncated-exponential
    /// mean, in `(0, 1]`).
    pub mean_partial_fraction: f64,
    /// Probability the session starts at a random offset (a seek) instead
    /// of the beginning.
    pub p_seek_start: f64,
    /// Bytes covered by each individual range request.
    pub request_bytes: u64,
    /// Video playback bitrate in bytes per second — spaces out the range
    /// requests of one session over playback time.
    pub bitrate_bytes_per_sec: u64,
}

impl SessionConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.p_full_watch) {
            return Err("p_full_watch out of [0,1]".into());
        }
        if !(self.mean_partial_fraction > 0.0 && self.mean_partial_fraction <= 1.0) {
            return Err("mean_partial_fraction out of (0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.p_seek_start) {
            return Err("p_seek_start out of [0,1]".into());
        }
        if self.request_bytes == 0 {
            return Err("request_bytes must be > 0".into());
        }
        if self.bitrate_bytes_per_sec == 0 {
            return Err("bitrate_bytes_per_sec must be > 0".into());
        }
        Ok(())
    }
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            p_full_watch: 0.25,
            mean_partial_fraction: 0.35,
            p_seek_start: 0.08,
            request_bytes: 16 * 1024 * 1024,
            // ~2 Mbit/s video -> 256 KiB/s.
            bitrate_bytes_per_sec: 256 * 1024,
        }
    }
}

/// Expands one session (a user starting `video` at `start`) into the
/// sequence of byte-range [`Request`]s the client issues.
///
/// The session watches a prefix-biased fraction of the file (optionally
/// from a seek offset), fetching `request_bytes` per request, paced at the
/// playback bitrate. Every returned request stays within
/// `[0, video_size_bytes)` and the list is non-empty and time-ordered.
///
/// # Panics
///
/// Panics if `video_size_bytes == 0` or the config fails validation.
///
/// # Examples
///
/// ```
/// use vcdn_trace::{rng::DetRng, session::{expand_session, SessionConfig}};
/// use vcdn_types::{Timestamp, VideoId};
///
/// let cfg = SessionConfig::default();
/// let mut rng = DetRng::new(5);
/// let reqs = expand_session(VideoId(3), 50_000_000, Timestamp(1_000), &cfg, &mut rng);
/// assert!(!reqs.is_empty());
/// assert!(reqs.windows(2).all(|w| w[0].t <= w[1].t));
/// ```
pub fn expand_session(
    video: VideoId,
    video_size_bytes: u64,
    start: Timestamp,
    config: &SessionConfig,
    rng: &mut DetRng,
) -> Vec<Request> {
    config
        .validate()
        .unwrap_or_else(|e| panic!("invalid SessionConfig: {e}"));
    let mut requests = Vec::new();
    expand_session_into(&mut requests, video, video_size_bytes, start, config, rng);
    requests
}

/// [`expand_session`] for a caller that expands many sessions: appends the
/// session's requests to `out` and trusts `config`, which the caller has
/// validated once (the generator does, in `TraceGenerator::new`).
///
/// # Panics
///
/// Panics if `video_size_bytes == 0`.
pub fn expand_session_into(
    out: &mut Vec<Request>,
    video: VideoId,
    video_size_bytes: u64,
    start: Timestamp,
    config: &SessionConfig,
    rng: &mut DetRng,
) {
    assert!(video_size_bytes > 0, "video size must be > 0");

    // Where playback begins.
    let seek_offset = if rng.chance(config.p_seek_start) && video_size_bytes > 1 {
        rng.below(video_size_bytes)
    } else {
        0
    };
    let remaining = video_size_bytes.saturating_sub(seek_offset);

    // How much of the remaining stream the viewer consumes.
    let frac = sample_watch_fraction(rng, config.p_full_watch, config.mean_partial_fraction);
    let watched = ((remaining as f64 * frac) as u64).clamp(1, remaining);
    let end = seek_offset + watched - 1; // inclusive

    // Emit consecutive range requests paced at the playback bitrate.
    let mut cursor = seek_offset;
    let mut t = start;
    let pace = DurationMs(
        config.request_bytes.saturating_mul(1_000) / config.bitrate_bytes_per_sec.max(1),
    );
    while cursor <= end {
        let req_end = (cursor.saturating_add(config.request_bytes) - 1).min(end);
        let bytes = ByteRange::new(cursor, req_end).expect("cursor <= req_end by construction");
        out.push(Request::new(video, bytes, t));
        cursor = req_end + 1;
        t += pace;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SessionConfig {
        SessionConfig::default()
    }

    #[test]
    fn requests_are_consecutive_and_within_file() {
        let mut rng = DetRng::new(1);
        for _ in 0..200 {
            let size = rng.range_inclusive(1, 200_000_000);
            let reqs = expand_session(VideoId(1), size, Timestamp(0), &cfg(), &mut rng);
            assert!(!reqs.is_empty());
            for w in reqs.windows(2) {
                assert_eq!(
                    w[1].bytes.start,
                    w[0].bytes.end + 1,
                    "ranges must be consecutive"
                );
                assert!(w[0].t <= w[1].t);
            }
            assert!(reqs.last().unwrap().bytes.end < size);
        }
    }

    #[test]
    fn single_byte_video_yields_one_request() {
        let mut rng = DetRng::new(2);
        let reqs = expand_session(VideoId(0), 1, Timestamp(5), &cfg(), &mut rng);
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].bytes, ByteRange::new(0, 0).unwrap());
    }

    #[test]
    fn full_watch_covers_whole_file_without_seek() {
        let config = SessionConfig {
            p_full_watch: 1.0,
            p_seek_start: 0.0,
            ..cfg()
        };
        let mut rng = DetRng::new(3);
        let size = 30_000_000;
        let reqs = expand_session(VideoId(9), size, Timestamp(0), &config, &mut rng);
        assert_eq!(reqs[0].bytes.start, 0);
        assert_eq!(reqs.last().unwrap().bytes.end, size - 1);
        let covered: u64 = reqs.iter().map(|r| r.byte_len()).sum();
        assert_eq!(covered, size);
    }

    #[test]
    fn early_chunks_are_hotter_in_aggregate() {
        // Prefix bias: over many sessions on one file, the first tenth of
        // the file must receive more request bytes than the last tenth.
        let mut rng = DetRng::new(4);
        let size = 100_000_000u64;
        let mut first_decile = 0u64;
        let mut last_decile = 0u64;
        for _ in 0..500 {
            for r in expand_session(VideoId(0), size, Timestamp(0), &cfg(), &mut rng) {
                if r.bytes.start < size / 10 {
                    first_decile += 1;
                }
                if r.bytes.end >= size / 10 * 9 {
                    last_decile += 1;
                }
            }
        }
        assert!(
            first_decile > last_decile * 2,
            "prefix bias missing: first={first_decile} last={last_decile}"
        );
    }

    #[test]
    fn pacing_spaces_requests_by_bitrate() {
        let config = SessionConfig {
            p_full_watch: 1.0,
            p_seek_start: 0.0,
            request_bytes: 1_000_000,
            bitrate_bytes_per_sec: 500_000,
            ..cfg()
        };
        let mut rng = DetRng::new(5);
        let reqs = expand_session(VideoId(0), 3_000_000, Timestamp(0), &config, &mut rng);
        assert_eq!(reqs.len(), 3);
        // 1 MB at 500 KB/s = 2 s between requests.
        assert_eq!(reqs[1].t - reqs[0].t, DurationMs::from_secs(2));
        assert_eq!(reqs[2].t - reqs[1].t, DurationMs::from_secs(2));
    }

    #[test]
    fn seek_sessions_start_mid_file() {
        let config = SessionConfig {
            p_seek_start: 1.0,
            ..cfg()
        };
        let mut rng = DetRng::new(6);
        let mut saw_nonzero_start = false;
        for _ in 0..50 {
            let reqs = expand_session(VideoId(0), 50_000_000, Timestamp(0), &config, &mut rng);
            saw_nonzero_start |= reqs[0].bytes.start > 0;
        }
        assert!(saw_nonzero_start);
    }

    #[test]
    fn config_validation_catches_errors() {
        let mut c = cfg();
        c.p_full_watch = 1.5;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.mean_partial_fraction = 0.0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.request_bytes = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.bitrate_bytes_per_sec = 0;
        assert!(c.validate().is_err());
        assert!(cfg().validate().is_ok());
    }
}
