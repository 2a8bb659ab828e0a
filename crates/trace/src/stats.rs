//! Empirical statistics over traces.
//!
//! Used by tests to assert the synthetic workload has the shape the paper's
//! conclusions rely on (Zipf head, heavy tail, prefix-biased chunk
//! popularity, diurnal volume), and by experiment binaries to describe
//! the workloads they replay.

use std::collections::BTreeMap;

use vcdn_types::{ChunkId, ChunkSize, DurationMs, FastMap, VideoId};

use crate::trace::Trace;

/// Summary statistics of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total requests.
    pub requests: usize,
    /// Distinct videos requested.
    pub unique_videos: usize,
    /// Distinct chunks requested (at the given chunk size).
    pub unique_chunks: usize,
    /// Total requested bytes.
    pub requested_bytes: u64,
    /// Total requested chunk-granularity bytes (chunks × K per request).
    pub requested_chunk_bytes: u64,
    /// Fraction of videos requested at most twice (the one-timer tail).
    pub tail_fraction: f64,
    /// Fitted Zipf slope of the video rank-frequency curve (negated
    /// exponent; ~0.6–1.2 for video workloads).
    pub zipf_slope: f64,
    /// Requests per hour-of-day (length 24), for diurnal checks.
    pub hourly_histogram: Vec<u64>,
}

/// Per-video hit counts (by request count).
pub fn video_hit_counts(trace: &Trace) -> BTreeMap<VideoId, u64> {
    let mut hits = BTreeMap::new();
    for r in &trace.requests {
        *hits.entry(r.video).or_insert(0u64) += 1;
    }
    hits
}

/// Per-chunk hit counts at chunk size `k`.
pub fn chunk_hit_counts(trace: &Trace, k: ChunkSize) -> FastMap<ChunkId, u64> {
    let mut hits = FastMap::default();
    for r in &trace.requests {
        for c in r.chunk_range(k).iter() {
            *hits.entry(ChunkId::new(r.video, c)).or_insert(0u64) += 1;
        }
    }
    hits
}

/// Least-squares slope of `log(freq)` against `log(rank)` over the top
/// ranks (a crude but serviceable Zipf-exponent estimate).
fn fit_zipf_slope(sorted_counts: &[u64]) -> f64 {
    // Use the top half of ranks with >= 2 hits to avoid tail noise.
    let pts: Vec<(f64, f64)> = sorted_counts
        .iter()
        .enumerate()
        .filter(|(_, &c)| c >= 2)
        .map(|(i, &c)| (((i + 1) as f64).ln(), (c as f64).ln()))
        .collect();
    if pts.len() < 3 {
        return 0.0;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return 0.0;
    }
    (n * sxy - sx * sy) / denom
}

/// Computes [`TraceStats`] for a trace at chunk size `k`.
pub fn trace_stats(trace: &Trace, k: ChunkSize) -> TraceStats {
    let hits = video_hit_counts(trace);
    let chunks = chunk_hit_counts(trace, k);
    let mut counts: Vec<u64> = hits.values().copied().collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    let tail = counts.iter().filter(|&&c| c <= 2).count();
    let mut hourly = vec![0u64; 24];
    for r in &trace.requests {
        let h = (r.t.as_millis() / DurationMs::HOUR.as_millis()) % 24;
        hourly[h as usize] += 1;
    }
    TraceStats {
        requests: trace.len(),
        unique_videos: hits.len(),
        unique_chunks: chunks.len(),
        requested_bytes: trace.total_requested_bytes(),
        requested_chunk_bytes: trace
            .requests
            .iter()
            .map(|r| r.chunk_len(k) * k.bytes())
            .sum(),
        tail_fraction: if counts.is_empty() {
            0.0
        } else {
            tail as f64 / counts.len() as f64
        },
        zipf_slope: -fit_zipf_slope(&counts),
        hourly_histogram: hourly,
    }
}

/// Mean request hits per chunk position decile, across all videos with at
/// least 10 chunks — quantifies the intra-file prefix bias (§2 of the
/// paper).
pub fn chunk_position_profile(trace: &Trace, k: ChunkSize) -> Vec<f64> {
    // Per video: number of chunks seen (max index + 1) and hits per chunk.
    let mut per_video: BTreeMap<VideoId, BTreeMap<u32, u64>> = BTreeMap::new();
    for r in &trace.requests {
        let entry = per_video.entry(r.video).or_default();
        for c in r.chunk_range(k).iter() {
            *entry.entry(c).or_insert(0) += 1;
        }
    }
    let mut decile_sum = [0.0f64; 10];
    let mut decile_n = vec![0u64; 10];
    for chunk_hits in per_video.values() {
        let max_idx = *chunk_hits.keys().max().expect("non-empty per-video map");
        if max_idx < 9 {
            continue;
        }
        let len = max_idx as f64 + 1.0;
        for (&c, &h) in chunk_hits {
            let d = ((c as f64 / len * 10.0) as usize).min(9);
            decile_sum[d] += h as f64;
            decile_n[d] += 1;
        }
    }
    decile_sum
        .iter()
        .zip(&decile_n)
        .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generator::TraceGenerator, profile::ServerProfile};

    fn trace() -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), 11).generate(DurationMs::from_days(2))
    }

    #[test]
    fn stats_are_internally_consistent() {
        let t = trace();
        let s = trace_stats(&t, ChunkSize::DEFAULT);
        assert_eq!(s.requests, t.len());
        assert!(s.unique_videos > 0);
        assert!(s.unique_chunks >= s.unique_videos);
        assert!(s.requested_chunk_bytes >= s.requested_bytes);
        assert_eq!(s.hourly_histogram.iter().sum::<u64>() as usize, s.requests);
    }

    #[test]
    fn synthetic_workload_is_zipf_like_with_tail() {
        let s = trace_stats(&trace(), ChunkSize::DEFAULT);
        assert!(
            s.zipf_slope > 0.3 && s.zipf_slope < 2.5,
            "zipf slope {} out of plausible band",
            s.zipf_slope
        );
        assert!(
            s.tail_fraction > 0.2,
            "tail fraction {} too small",
            s.tail_fraction
        );
    }

    #[test]
    fn prefix_bias_shows_in_position_profile() {
        let p = chunk_position_profile(&trace(), ChunkSize::new(1024 * 1024).unwrap());
        assert_eq!(p.len(), 10);
        assert!(
            p[0] > p[9],
            "first decile ({}) should out-hit last ({})",
            p[0],
            p[9]
        );
    }

    #[test]
    fn video_hit_counts_sum_to_requests() {
        let t = trace();
        let hits = video_hit_counts(&t);
        assert_eq!(hits.values().sum::<u64>() as usize, t.len());
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::new(
            crate::trace::TraceMeta {
                name: "empty".into(),
                seed: 0,
                duration: DurationMs::ZERO,
                description: String::new(),
            },
            vec![],
        );
        let s = trace_stats(&t, ChunkSize::DEFAULT);
        assert_eq!(s.requests, 0);
        assert_eq!(s.tail_fraction, 0.0);
        assert_eq!(s.zipf_slope, 0.0);
    }
}
