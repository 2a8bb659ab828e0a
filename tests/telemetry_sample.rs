//! Pins the committed telemetry sample (`results/telemetry_sample.jsonl`)
//! to the `vcdn-telemetry/1` contract: the file must parse, carry one
//! bundle per policy in figure order, keep its meta section counts honest,
//! and expose the heavy-hitter tables introduced with the top-K sketch.
//!
//! The sample is regenerated with (see `EXPERIMENTS.md`):
//!
//! ```sh
//! ./target/release/replay_observe --interval-mins 1440 --events 64 \
//!     --out results/telemetry_sample.jsonl
//! ```
//!
//! The file is byte-reproducible, and CI's `observe-smoke` job holds it to
//! that: it re-runs the command and `cmp`s the output against the committed
//! file, which pins every bundle line of all four policies at the paper
//! point. This test only reads the file.
//!
//! If either fails after a deliberate workload or schema change, re-run
//! that command and re-validate with `obs_check` before committing.

use vcdn::obs::SCHEMA;
use vcdn::types::json::{self, Json};

/// The sample's standard workload: Europe profile, scale 1/16, 30 days,
/// seed 20140413 (see `EXPERIMENT_SEED`).
const REQUESTS: u64 = 181_607;

fn sample_text() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/telemetry_sample.jsonl"
    );
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn meta_u64(meta: &Json, key: &str) -> u64 {
    match meta.get(key) {
        Some(Json::Int(i)) => u64::try_from(*i).unwrap_or_else(|_| panic!("meta.{key} negative")),
        other => panic!("meta.{key} = {other:?}, expected integer"),
    }
}

/// One bundle: the meta line plus its typed line counts.
struct Bundle {
    meta: Json,
    metrics: usize,
    topk: Vec<Json>,
    windows: Vec<Json>,
    alerts: Vec<Json>,
    samples: usize,
    events: usize,
}

fn parse_sample() -> Vec<Bundle> {
    let mut bundles: Vec<Bundle> = Vec::new();
    for (i, line) in sample_text().lines().enumerate() {
        let j = json::parse(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        let kind = j.get("type").and_then(Json::as_str).map(str::to_string);
        match kind.as_deref() {
            Some("meta") => bundles.push(Bundle {
                meta: j,
                metrics: 0,
                topk: Vec::new(),
                windows: Vec::new(),
                alerts: Vec::new(),
                samples: 0,
                events: 0,
            }),
            Some(kind) => {
                let b = bundles.last_mut().unwrap_or_else(|| {
                    panic!("line {}: {kind} record before any meta line", i + 1)
                });
                match kind {
                    "metric" => b.metrics += 1,
                    "topk" => b.topk.push(j),
                    "window" => b.windows.push(j),
                    "alert" => b.alerts.push(j),
                    "sample" => b.samples += 1,
                    "event" => b.events += 1,
                    other => panic!("line {}: unknown record type {other:?}", i + 1),
                }
            }
            None => panic!("line {}: missing type field", i + 1),
        }
    }
    bundles
}

#[test]
fn sample_has_one_bundle_per_policy_in_figure_order() {
    let bundles = parse_sample();
    let policies: Vec<&str> = bundles
        .iter()
        .map(|b| b.meta.get("policy").and_then(Json::as_str).expect("policy"))
        .collect();
    assert_eq!(policies, ["lru", "xlru", "cafe", "psychic"]);
    for b in &bundles {
        assert_eq!(b.meta.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(meta_u64(&b.meta, "requests"), REQUESTS);
    }
}

#[test]
fn sample_meta_counts_match_the_lines() {
    for b in parse_sample() {
        let label = b.meta.get("policy").and_then(Json::as_str).unwrap_or("?");
        assert_eq!(meta_u64(&b.meta, "metrics"), b.metrics as u64, "{label}");
        assert_eq!(meta_u64(&b.meta, "topk"), b.topk.len() as u64, "{label}");
        assert_eq!(
            meta_u64(&b.meta, "windows"),
            b.windows.len() as u64,
            "{label}"
        );
        assert_eq!(
            meta_u64(&b.meta, "alerts"),
            b.alerts.len() as u64,
            "{label}"
        );
        assert_eq!(meta_u64(&b.meta, "samples"), b.samples as u64, "{label}");
        assert_eq!(meta_u64(&b.meta, "events"), b.events as u64, "{label}");
        // Daily samples over 30 days: t = 0d .. 30d inclusive.
        assert_eq!(b.samples, 31, "{label}");
        assert_eq!(b.events, 64, "{label}");
        // Daily health windows: days 0..29 plus the flushed tail window.
        assert_eq!(b.windows.len(), 31, "{label}");
        assert_eq!(meta_u64(&b.meta, "windows_dropped"), 0, "{label}");
        assert_eq!(
            meta_u64(&b.meta, "events_dropped"),
            REQUESTS - b.events as u64,
            "{label}"
        );
    }
}

#[test]
fn sample_windows_are_contiguous_and_flag_the_warmup_churn() {
    for b in parse_sample() {
        let label = b.meta.get("policy").and_then(Json::as_str).unwrap_or("?");
        for (i, w) in b.windows.iter().enumerate() {
            assert_eq!(meta_u64(w, "index"), i as u64, "{label}");
        }
        // Day 0 fills the empty disk, so every policy's warm-up window
        // trips the occupancy-churn threshold — the one expected alert
        // in a healthy 30-day replay.
        assert!(
            b.alerts.iter().any(|a| {
                a.get("rule").and_then(Json::as_str) == Some("occupancy-churn")
                    && meta_u64(a, "window") == 0
            }),
            "{label}: no warm-up churn alert at window 0"
        );
    }
}

#[test]
fn sample_heavy_hitter_tables_are_full_sorted_and_bounded() {
    for b in parse_sample() {
        let label = b.meta.get("policy").and_then(Json::as_str).unwrap_or("?");
        let k = meta_u64(&b.meta, "topk_k");
        assert_eq!(k, 8, "{label}");
        // The catalog has far more than k videos, so the sketch is full.
        assert_eq!(b.topk.len() as u64, k, "{label}");
        let mut prev: Option<(u64, u64)> = None; // (count, video)
        for (i, t) in b.topk.iter().enumerate() {
            assert_eq!(meta_u64(t, "rank"), i as u64 + 1, "{label}");
            let count = meta_u64(t, "count");
            let err = meta_u64(t, "err");
            let video = meta_u64(t, "video");
            assert!(err < count, "{label} rank {}: err {err} >= {count}", i + 1);
            assert!(count <= REQUESTS, "{label}: count exceeds trace length");
            if let Some((pc, pv)) = prev {
                assert!(
                    count < pc || (count == pc && video > pv),
                    "{label} rank {}: (count desc, video asc) order broken",
                    i + 1
                );
            }
            prev = Some((count, video));
        }
    }
}
