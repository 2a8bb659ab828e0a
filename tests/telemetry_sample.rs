//! Pins the committed telemetry sample (`results/telemetry_sample.jsonl`)
//! to the `vcdn-telemetry/1` contract: the file must read through the
//! bundle reader — which holds every line to the writer's grammar and the
//! meta lines' counts to the lines that follow — pass `check`, and carry
//! the facts only this file pins: one bundle per policy in figure order,
//! the paper point's request count and section sizes, full heavy-hitter
//! tables, and the one expected alert.
//!
//! The sample is regenerated with (see `EXPERIMENTS.md`):
//!
//! ```sh
//! ./target/release/obs record --interval-mins 1440 --events 64 \
//!     --out results/telemetry_sample.jsonl
//! ```
//!
//! The file is byte-reproducible, and CI's `observe-smoke` job holds it to
//! that: it re-runs the command and `cmp`s the output against the committed
//! file, which pins every bundle line of all four policies at the paper
//! point. This test only reads the file.
//!
//! If either fails after a deliberate workload or schema change, re-run
//! that command and re-validate with `obs check` before committing.

use vcdn::obs::{check, TelemetryBundle};

/// The sample's standard workload: Europe profile, scale 1/16, 30 days,
/// seed 20140413 (see `EXPERIMENT_SEED`).
const REQUESTS: u64 = 181_607;

fn sample() -> Vec<TelemetryBundle> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/results/telemetry_sample.jsonl"
    );
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    TelemetryBundle::parse_jsonl(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn sample_has_one_bundle_per_policy_in_figure_order() {
    let bundles = sample();
    let policies: Vec<String> = bundles
        .iter()
        .map(|b| b.meta_get("policy").expect("policy"))
        .collect();
    assert_eq!(policies, ["lru", "xlru", "cafe", "psychic"]);
    for b in &bundles {
        assert_eq!(b.meta_get::<u64>("requests"), Some(REQUESTS));
    }
}

#[test]
fn sample_meta_counts_match_the_lines() {
    // That each meta line counts its sections exactly is the reader's
    // contract; what the counts *are* is pinned here.
    for b in sample() {
        let label = b.label();
        assert_eq!(check(&b), Vec::<String>::new(), "{label}");
        // Daily samples over 30 days: t = 0d .. 30d inclusive.
        assert_eq!(b.series.len(), 31, "{label}");
        assert_eq!(b.events.len(), 64, "{label}");
        // Daily health windows: days 0..29 plus the flushed tail window.
        assert_eq!(b.windows.len(), 31, "{label}");
        assert_eq!(b.windows_dropped, 0, "{label}");
        assert_eq!(b.events_dropped, REQUESTS - 64, "{label}");
    }
}

#[test]
fn sample_windows_are_contiguous_and_flag_the_warmup_churn() {
    for b in sample() {
        let label = b.label();
        assert_eq!(b.windows[0].index, 0, "{label}");
        // Day 0 fills the empty disk, so every policy's warm-up window
        // trips the occupancy-churn threshold — the one expected alert
        // in a healthy 30-day replay.
        let alerts: Vec<(&str, u64)> = (b.alerts.iter())
            .map(|a| (a.rule.as_str(), a.window))
            .collect();
        assert_eq!(alerts, [("occupancy-churn", 0)], "{label}");
    }
}

#[test]
fn sample_heavy_hitter_tables_are_full_sorted_and_bounded() {
    // Order and bounds are `check`'s (run above); the catalog has far
    // more than k videos, so each sketch must also be full.
    for b in sample() {
        let label = b.label();
        assert_eq!(b.meta_get::<u64>("topk_k"), Some(8), "{label}");
        assert_eq!(b.topk.len(), 8, "{label}");
        assert_eq!(check(&b), Vec::<String>::new(), "{label}");
    }
}
