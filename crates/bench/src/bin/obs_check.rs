//! Telemetry JSONL validator: structural and semantic checks over a
//! `vcdn-telemetry/1` export, used by the CI observe-smoke job and
//! the engine-bundle pin test (`tests/pins.rs`).
//!
//! For every bundle (delimited by `"type":"meta"` lines) it verifies:
//! the schema tag, that the meta line's section counts match the actual
//! line counts, that every line is one of the known record types, that
//! top-K lines are count-bounded and sorted (sequential 1-based ranks per
//! shard, counts non-increasing with video-ascending ties, `err < count`,
//! at most `topk_k` entries per shard), that the sample grid is evenly
//! spaced with exact cumulative counters whose final Eq. 2 efficiency
//! recomputes from its own byte counters, that event sequence numbers are
//! strictly increasing with consistent verdicts, and that histogram
//! metric lines conserve their samples.
//!
//! Engine bundles (`"source":"engine"`) additionally get the span checks:
//! the dispatch counter equals the meta `dispatched` count and the sum of
//! per-shard `processed_total` counters (conservation — every dispatched
//! request decided exactly once), and every shard stream carries its
//! queue-gap histogram and load-share gauge. Engine bundles have no
//! sampler, so the sample-grid requirement is waived for them.
//!
//! Window sections get their own checks: a contiguous index grid,
//! in-range efficiency/redirect rates, and (when the ring evicted
//! nothing and the meta line carries run totals) exact delta
//! conservation back to the cumulative byte counters. Alert lines must
//! carry known severities in window order and reference windows inside
//! the exported grid.
//!
//! Flags: `--in <path>` (default `results/telemetry.jsonl`) and
//! `--rules <path>` to additionally verify that a watchdog rules file
//! parses and round-trips through its canonical rendering. Exits
//! non-zero with one line per violation if any check fails.

use std::process::ExitCode;

use vcdn_bench::telemetry::{as_f64, as_u64, parse_bundles, BundleDoc};
use vcdn_bench::Args;
use vcdn_obs::SCHEMA;
use vcdn_types::float::exactly_zero;
use vcdn_types::json::Json;
use vcdn_types::CostModel;

fn check_bundle(idx: usize, b: &BundleDoc, errs: &mut Vec<String>) {
    let mut err = |msg: String| errs.push(format!("bundle {idx} ({}): {msg}", b.label()));
    if b.meta_str("schema") != Some(SCHEMA) {
        err(format!("schema is not {SCHEMA:?}"));
    }
    for (key, actual) in [
        ("metrics", b.metrics.len()),
        ("topk", b.topk.len()),
        ("windows", b.windows.len()),
        ("alerts", b.alerts.len()),
        ("samples", b.samples.len()),
        ("events", b.events.len()),
    ] {
        match b.meta_u64(key) {
            Some(n) if n as usize == actual => {}
            other => err(format!("meta.{key} = {other:?}, counted {actual}")),
        }
    }
    if b.metrics.is_empty() {
        err("no metric lines".into());
    }
    let is_engine = b.meta_str("source") == Some("engine");
    if b.samples.is_empty() && !is_engine {
        err("no sample lines — sampler was never fed".into());
    }

    // Metric lines: known kinds; histograms conserve their samples.
    for m in &b.metrics {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
        match m.get("kind").and_then(Json::as_str) {
            Some("counter") | Some("gauge") => {}
            Some("histogram") => {
                let Some(Json::Arr(buckets)) = m.get("buckets") else {
                    err(format!("histogram {name} has no buckets"));
                    continue;
                };
                let count: u64 = buckets.iter().filter_map(|b| as_u64(Some(b))).sum();
                if Some(count) != as_u64(m.get("value")) {
                    err(format!("histogram {name}: buckets sum != count"));
                }
            }
            // Timing histograms are non-deterministic and must never be
            // exported.
            other => err(format!("metric {name}: unexpected kind {other:?}")),
        }
    }

    // Top-K lines: shard-major, ranks sequential from 1, counts sorted
    // non-increasing with video-ascending ties, err < count, per-shard
    // entry count bounded by the sketch capacity, and no sketch count
    // exceeding the bundle's total request count.
    let topk_k = b.meta_u64("topk_k");
    let total = b
        .meta_u64("dispatched")
        .or_else(|| b.meta_u64("requests"))
        .unwrap_or(u64::MAX);
    if !b.topk.is_empty() && topk_k.is_none() {
        err("topk lines present but meta.topk_k missing".into());
    }
    let mut prev: Option<(u64, u64, u64, u64)> = None; // shard, rank, count, video
    let mut per_shard = 0u64;
    for t in &b.topk {
        let shard = as_u64(t.get("shard")).unwrap_or(u64::MAX);
        let rank = as_u64(t.get("rank")).unwrap_or(0);
        let video = as_u64(t.get("video")).unwrap_or(u64::MAX);
        let count = as_u64(t.get("count")).unwrap_or(0);
        let errv = as_u64(t.get("err")).unwrap_or(u64::MAX);
        if errv >= count {
            err(format!("topk s{shard}#{rank}: err {errv} >= count {count}"));
        }
        if count > total {
            err(format!(
                "topk s{shard}#{rank}: count {count} exceeds total requests {total}"
            ));
        }
        per_shard = match prev {
            Some((ps, ..)) if ps == shard => per_shard + 1,
            _ => 1,
        };
        if let Some(k) = topk_k {
            if per_shard > k {
                err(format!("topk s{shard}: more than topk_k={k} entries"));
            }
        }
        match prev {
            None => {
                if rank != 1 {
                    err(format!("topk s{shard}: first rank is {rank}, not 1"));
                }
            }
            Some((ps, pr, pc, pv)) => {
                if shard == ps {
                    if rank != pr + 1 {
                        err(format!("topk s{shard}: rank {rank} after {pr}"));
                    }
                    if count > pc || (count == pc && video <= pv) {
                        err(format!(
                            "topk s{shard}#{rank}: order violates (count desc, video asc)"
                        ));
                    }
                } else {
                    if shard < ps {
                        err(format!("topk: shard {shard} after shard {ps}"));
                    }
                    if rank != 1 {
                        err(format!("topk s{shard}: first rank is {rank}, not 1"));
                    }
                }
            }
        }
        prev = Some((shard, rank, count, video));
    }

    // Engine bundles: span conservation and per-stream queue metrics.
    if is_engine {
        let scope = |suffix: &str| {
            b.metrics
                .iter()
                .filter(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .is_some_and(|n| n.ends_with(suffix))
                })
                .count()
        };
        let shards = b.meta_u64("shards").unwrap_or(0) as usize;
        let dispatched_meta = b.meta_u64("dispatched");
        let dispatched = b
            .metrics
            .iter()
            .find(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.ends_with(".engine.span.dispatched_total"))
            })
            .and_then(|m| as_u64(m.get("value")))
            .unwrap_or(u64::MAX);
        if Some(dispatched) != dispatched_meta {
            err(format!(
                "span.dispatched_total {dispatched} != meta.dispatched {dispatched_meta:?}"
            ));
        }
        let processed: u64 = b
            .metrics
            .iter()
            .filter(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.ends_with(".span.processed_total"))
            })
            .filter_map(|m| as_u64(m.get("value")))
            .sum();
        if processed != dispatched {
            err(format!(
                "span conservation broken: dispatched {dispatched} != sum processed {processed}"
            ));
        }
        for (suffix, what) in [
            (".span.queue_gap", "queue-gap histogram"),
            (".span.load_share_x1000", "load-share gauge"),
            (".span.processed_total", "processed counter"),
        ] {
            let n = scope(suffix);
            if n != shards {
                err(format!("{n} {what}s for {shards} shard streams"));
            }
        }
        // The skew gauges live under the engine scope; look them up by
        // suffix since the scope prefix is caller-chosen.
        for gauge in ["skew_requests_x1000", "skew_bytes_x1000"] {
            let suffix = format!(".engine.span.{gauge}");
            if !b.metrics.iter().any(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .is_some_and(|n| n.ends_with(&suffix))
            }) {
                err(format!("engine bundle missing {gauge} gauge"));
            }
        }
    }

    // Windows: a contiguous index grid, rates within range, sketch
    // counts consistent, and — when the meta line carries run totals and
    // the ring evicted nothing — exact delta conservation: the window
    // deltas sum back to the run's cumulative byte counters.
    let mut window_max = None;
    let mut sums = [0u64; 5]; // hit, fill, redirect, served, redirected
    for (i, w) in b.windows.iter().enumerate() {
        let index = as_u64(w.get("index")).unwrap_or(u64::MAX);
        match window_max {
            None => {}
            Some(prev) if index == prev + 1 => {}
            Some(prev) => err(format!(
                "window {index} after {prev}: index grid not contiguous"
            )),
        }
        window_max = Some(index);
        for (j, key) in [
            "hit_bytes",
            "fill_bytes",
            "redirect_bytes",
            "served_requests",
            "redirected_requests",
        ]
        .iter()
        .enumerate()
        {
            match as_u64(w.get(key)) {
                Some(v) => sums[j] += v,
                None => err(format!("window {i}: missing {key}")),
            }
        }
        for key in ["efficiency", "redirect_rate"] {
            let v = as_f64(w.get(key)).unwrap_or(f64::NAN);
            if !(v.is_finite() && (-1e9..=1.0).contains(&v)) {
                err(format!("window {i}: {key} = {v} out of range"));
            }
        }
        if as_u64(w.get("queue_gap_count")).unwrap_or(0) > 0
            && as_u64(w.get("queue_gap_p99")).is_none()
        {
            err(format!("window {i}: gap samples without a p99"));
        }
    }
    let dropped = b.meta_u64("windows_dropped");
    if !b.windows.is_empty() && dropped.is_none() {
        err("window lines present but meta.windows_dropped missing".into());
    }
    if dropped == Some(0) && !b.windows.is_empty() {
        for (j, key) in ["hit_bytes", "fill_bytes", "redirect_bytes"]
            .iter()
            .enumerate()
        {
            if let Some(total) = b.meta_u64(key) {
                if sums[j] != total {
                    err(format!(
                        "window deltas sum {} != meta.{key} {total} (conservation)",
                        sums[j]
                    ));
                }
            }
        }
    }

    // Alerts: known severities, non-decreasing window order, and every
    // referenced window exists in the exported grid (when the ring
    // evicted windows, existence can only be bounded from above: alerts
    // fire at close time and may outlive their window).
    let mut prev_alert = None;
    for a in &b.alerts {
        let window = as_u64(a.get("window")).unwrap_or(u64::MAX);
        let rule = a.get("rule").and_then(Json::as_str).unwrap_or("");
        if rule.is_empty() {
            err(format!("alert at window {window}: empty rule name"));
        }
        match a.get("severity").and_then(Json::as_str) {
            Some("warning") | Some("critical") => {}
            other => err(format!("alert {rule}: unknown severity {other:?}")),
        }
        if prev_alert.is_some_and(|p| window < p) {
            err(format!("alert {rule}: window {window} out of order"));
        }
        prev_alert = Some(window);
        match window_max {
            Some(max) if window <= max => {}
            _ => err(format!(
                "alert {rule}: window {window} beyond the exported grid"
            )),
        }
        if dropped == Some(0)
            && !b
                .windows
                .iter()
                .any(|w| as_u64(w.get("index")) == Some(window))
        {
            err(format!(
                "alert {rule}: window {window} missing from the grid"
            ));
        }
    }

    // Sample grid: evenly spaced, cumulative counters monotone, final
    // cumulative efficiency recomputes from its own byte counters (Eq. 2).
    let interval = b.meta_u64("interval_ms").unwrap_or(0);
    let mut prev_cum = 0u64;
    for (i, s) in b.samples.iter().enumerate() {
        if as_u64(s.get("t_ms")) != Some(i as u64 * interval) {
            err(format!("sample {i}: t_ms off the interval grid"));
            break;
        }
        let cum = ["cum_hit_bytes", "cum_fill_bytes", "cum_redirect_bytes"]
            .iter()
            .filter_map(|k| as_u64(s.get(k)))
            .sum::<u64>();
        if cum < prev_cum {
            err(format!("sample {i}: cumulative bytes decreased"));
        }
        prev_cum = cum;
    }
    if let (Some(last), Some(alpha)) = (b.samples.last(), as_f64(b.meta.get("alpha"))) {
        let costs = CostModel::from_alpha(alpha).expect("valid alpha in meta");
        let fill = as_u64(last.get("cum_fill_bytes")).unwrap_or(0) as f64;
        let red = as_u64(last.get("cum_redirect_bytes")).unwrap_or(0) as f64;
        let total = as_u64(last.get("cum_hit_bytes")).unwrap_or(0) as f64 + fill + red;
        let want = if exactly_zero(total) {
            0.0
        } else {
            1.0 - fill / total * costs.c_f() - red / total * costs.c_r()
        };
        let got = as_f64(last.get("cum_efficiency")).unwrap_or(f64::NAN);
        // NaN must fail too, so compare for "close enough" and negate.
        let close = (got - want).abs() < 1e-9;
        if !close {
            err(format!(
                "final cum_efficiency {got} does not recompute to {want} (Eq. 2)"
            ));
        }
    }

    // Events: strictly increasing seq, verdict-consistent chunk splits.
    let mut prev_seq = None;
    for e in &b.events {
        let seq = as_u64(e.get("seq"));
        if seq.is_none() || prev_seq.is_some() && seq <= prev_seq {
            err(format!(
                "event seq {seq:?} after {prev_seq:?} not increasing"
            ));
            break;
        }
        prev_seq = seq;
        let hit = as_u64(e.get("hit_chunks")).unwrap_or(0);
        let fill = as_u64(e.get("fill_chunks")).unwrap_or(0);
        let chunks = as_u64(e.get("chunks")).unwrap_or(0);
        match e.get("verdict").and_then(Json::as_str) {
            Some("serve") if hit + fill == chunks => {}
            Some("redirect") if hit == 0 && fill == 0 => {}
            v => err(format!(
                "event {seq:?}: verdict {v:?} inconsistent with chunks"
            )),
        }
    }
}

/// Verifies a watchdog rules file parses and round-trips: parse, render
/// canonically, re-parse, compare. A rules file the watchdog would
/// reject — or one whose canonical form drifts — fails the check.
fn check_rules_file(path: &str, errs: &mut Vec<String>) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            errs.push(format!("rules {path}: cannot read: {e}"));
            return;
        }
    };
    let rules = match vcdn_obs::parse_rules(&text) {
        Ok(r) => r,
        Err(e) => {
            errs.push(format!("rules {path}: {e}"));
            return;
        }
    };
    if rules.is_empty() {
        errs.push(format!("rules {path}: no rules defined"));
    }
    let rendered = vcdn_obs::render_rules(&rules);
    match vcdn_obs::parse_rules(&rendered) {
        Ok(again) if again == rules => {}
        Ok(_) => errs.push(format!(
            "rules {path}: canonical rendering drifts on re-parse"
        )),
        Err(e) => errs.push(format!(
            "rules {path}: canonical rendering unparseable: {e}"
        )),
    }
}

fn main() -> ExitCode {
    let args = Args::from_env("obs_check");
    let path: String = args
        .get("in")
        .unwrap_or_else(|| "results/telemetry.jsonl".to_string());
    let rules_path: Option<String> = args.get("rules");
    args.finish();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[obs_check] cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut errs: Vec<String> = Vec::new();
    if let Some(rules_path) = rules_path {
        check_rules_file(&rules_path, &mut errs);
    }
    let bundles = parse_bundles(&text, &mut errs);
    if bundles.is_empty() {
        errs.push("no telemetry bundles found".into());
    }
    for (i, b) in bundles.iter().enumerate() {
        check_bundle(i, b, &mut errs);
    }

    if errs.is_empty() {
        println!(
            "[obs_check] {path}: {} bundle(s), {} lines — all checks passed",
            bundles.len(),
            text.lines().count()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("[obs_check] FAIL {e}");
        }
        eprintln!("[obs_check] {path}: {} violation(s)", errs.len());
        ExitCode::FAILURE
    }
}
