//! Down-sampling a trace for the Optimal-cache experiment.
//!
//! The paper's §9.1 limits the data fed to the Integer-Programming Optimal
//! cache: "We use the traces of a two day period, which we down-sample to
//! contain the requests for a representative subset of 100 distinct files —
//! selected uniformly from the list of files sorted by their hit count
//! during the two days. We also cap the file size to 20 MB for this
//! experiment. We select the disk size such that it can store 5 % of all
//! requested chunks in the down-sampled data."
//!
//! [`downsample`] reproduces exactly that procedure.

use vcdn_types::{ByteRange, ChunkSize, FastSet, Request, Timestamp, VideoId};

use crate::{stats::video_hit_counts, trace::Trace};

/// Parameters of the §9.1 down-sampling procedure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DownsampleConfig {
    /// Number of distinct files to keep (paper: 100).
    pub files: usize,
    /// File-size cap in bytes (paper: 20 MB); requests beyond the cap are
    /// clipped, requests entirely beyond it dropped.
    pub size_cap_bytes: u64,
    /// Window start (inclusive).
    pub from: Timestamp,
    /// Window end (exclusive). Paper: a two-day period.
    pub to: Timestamp,
}

impl DownsampleConfig {
    /// The paper's configuration over `[from, from + 2 days)`.
    pub fn paper_default(from: Timestamp) -> Self {
        DownsampleConfig {
            files: 100,
            size_cap_bytes: 20 * 1024 * 1024,
            from,
            to: from + vcdn_types::DurationMs::from_days(2),
        }
    }
}

/// Down-samples `trace` per the paper's §9.1 procedure and returns the
/// reduced trace. Selection is deterministic: files are sorted by
/// (hit count, video id) descending and picked at uniformly spaced indices.
///
/// # Panics
///
/// Panics if `config.files == 0` or `config.size_cap_bytes == 0`.
pub fn downsample(trace: &Trace, config: &DownsampleConfig) -> Trace {
    assert!(config.files > 0, "files must be > 0");
    assert!(config.size_cap_bytes > 0, "size_cap_bytes must be > 0");
    let window = trace.window(config.from, config.to);

    // Rank files by hit count over the window (stable total order).
    let hits = video_hit_counts(&window);
    let mut ranked: Vec<(VideoId, u64)> = hits.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    // Uniform selection across the sorted list — "selected uniformly from
    // the list of files sorted by their hit count".
    let keep: FastSet<VideoId> = if ranked.len() <= config.files {
        ranked.iter().map(|(v, _)| *v).collect()
    } else {
        (0..config.files)
            .map(|i| {
                // Evenly spaced positions across the ranked list.
                let pos = i * (ranked.len() - 1) / (config.files - 1).max(1);
                ranked[pos].0
            })
            .collect()
    };

    let cap_end = config.size_cap_bytes.saturating_sub(1); // inclusive last allowed byte
    let requests: Vec<Request> = window
        .requests
        .iter()
        .filter(|r| keep.contains(&r.video))
        .filter_map(|r| {
            if r.bytes.start > cap_end {
                return None; // entirely beyond the cap
            }
            let clipped = ByteRange::new(r.bytes.start, r.bytes.end.min(cap_end))
                .expect("start <= min(end, cap) checked above");
            Some(Request::new(r.video, clipped, r.t))
        })
        .collect();

    Trace {
        meta: crate::trace::TraceMeta {
            description: format!(
                "{} [downsampled: {} files, cap {} bytes]",
                window.meta.description,
                keep.len(),
                config.size_cap_bytes
            ),
            ..window.meta.clone()
        },
        requests,
    }
}

/// The paper's disk size for the Optimal experiment: the number of chunks
/// that stores `percent`% of all *distinct* requested chunks in `trace`.
pub fn disk_chunks_for_fraction(trace: &Trace, k: ChunkSize, percent: f64) -> u64 {
    let unique = crate::stats::chunk_hit_counts(trace, k).len();
    ((unique as f64 * percent / 100.0).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generator::TraceGenerator, profile::ServerProfile};
    use vcdn_types::DurationMs;

    fn trace() -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), 21).generate(DurationMs::from_days(3))
    }

    fn cfg(files: usize) -> DownsampleConfig {
        DownsampleConfig {
            files,
            size_cap_bytes: 20 * 1024 * 1024,
            from: Timestamp::EPOCH,
            to: Timestamp(DurationMs::from_days(2).as_millis()),
        }
    }

    #[test]
    fn keeps_at_most_the_requested_number_of_files() {
        let t = trace();
        let d = downsample(&t, &cfg(50));
        let hits = video_hit_counts(&d);
        assert!(hits.len() <= 50);
        assert!(hits.len() >= 40, "selection too lossy: {}", hits.len());
    }

    #[test]
    fn respects_the_window() {
        let d = downsample(&trace(), &cfg(50));
        let end = Timestamp(DurationMs::from_days(2).as_millis());
        assert!(d.requests.iter().all(|r| r.t < end));
    }

    #[test]
    fn caps_file_size() {
        let d = downsample(&trace(), &cfg(100));
        let cap = 20 * 1024 * 1024;
        assert!(d.requests.iter().all(|r| r.bytes.end < cap));
    }

    #[test]
    fn selection_spans_popularity_spectrum() {
        // Selected files must include both popular and unpopular ones.
        let t = trace();
        let window = t.window(
            Timestamp::EPOCH,
            Timestamp(DurationMs::from_days(2).as_millis()),
        );
        let hits = video_hit_counts(&window);
        let d = downsample(&t, &cfg(30));
        let kept = video_hit_counts(&d);
        let kept_counts: Vec<u64> = kept.keys().map(|v| hits[v]).collect();
        let max_all = *hits.values().max().unwrap();
        let kept_max = *kept_counts.iter().max().unwrap();
        let kept_min = *kept_counts.iter().min().unwrap();
        assert_eq!(kept_max, max_all, "most popular file must be selected");
        assert!(
            kept_min <= 3,
            "tail file should be selected, min={kept_min}"
        );
    }

    #[test]
    fn deterministic() {
        let t = trace();
        assert_eq!(downsample(&t, &cfg(40)), downsample(&t, &cfg(40)));
    }

    #[test]
    fn small_trace_keeps_all_files() {
        let t = trace();
        let d = downsample(&t, &cfg(usize::MAX / 2));
        let before = video_hit_counts(&t.window(
            Timestamp::EPOCH,
            Timestamp(DurationMs::from_days(2).as_millis()),
        ))
        .len();
        assert_eq!(video_hit_counts(&d).len(), before);
    }

    #[test]
    fn disk_fraction_is_5pct_of_unique_chunks() {
        let t = trace();
        let k = ChunkSize::DEFAULT;
        let unique = crate::stats::chunk_hit_counts(&t, k).len() as f64;
        let disk = disk_chunks_for_fraction(&t, k, 5.0);
        assert!((disk as f64 - unique * 0.05).abs() <= 1.0);
        assert!(disk_chunks_for_fraction(&t, k, 1e-9) >= 1);
    }

    #[test]
    fn paper_default_config() {
        let c = DownsampleConfig::paper_default(Timestamp(5));
        assert_eq!(c.files, 100);
        assert_eq!(c.size_cap_bytes, 20 * 1024 * 1024);
        assert_eq!(c.to - c.from, DurationMs::from_days(2));
    }
}
