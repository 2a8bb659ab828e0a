//! Telemetry report and diff tool for `vcdn-telemetry/1` bundles.
//!
//! Two modes:
//!
//! * **Render** — `obs_report --in <path>` prints a human-readable report
//!   per bundle: the meta identity, counter/gauge values grouped by
//!   scope, histogram means and tail bounds, the per-shard heavy-hitter
//!   tables with their `[count − err, count]` bounds, and section sizes.
//! * **Diff** — `obs_report --diff <a> <b> [--tol <f>]` compares two
//!   documents bundle-by-bundle and field-by-field: integer fields
//!   (byte counters, metric values, topk counts) must match exactly,
//!   float fields (efficiency, latency quantile estimates, alpha) within
//!   `--tol` (default 1e-9). Metrics are matched by name, topk lines by
//!   (shard, rank), samples and events by index. Exits non-zero and
//!   prints one line per mismatch if the documents differ —
//!   `tests/pins.rs` diffs a 1-worker against a 4-worker engine export
//!   and requires zero differences.

use std::process::ExitCode;

use vcdn_bench::telemetry::{as_f64, as_u64, parse_bundles, BundleDoc};
use vcdn_bench::Args;
use vcdn_types::json::Json;

/// Renders one histogram metric line as mean plus upper-bound quantiles
/// recovered from the log-bucket layout (bucket i ≥ 1 covers
/// [2^(i−1), 2^i)).
fn histogram_summary(m: &Json) -> String {
    let count = as_u64(m.get("value")).unwrap_or(0);
    let sum = as_u64(m.get("sum")).unwrap_or(0);
    if count == 0 {
        return "empty".to_string();
    }
    let mean = sum as f64 / count as f64;
    let Some(Json::Arr(buckets)) = m.get("buckets") else {
        return format!("n={count} mean={mean:.2}");
    };
    let quantile_bound = |q: f64| {
        let target = (q * count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, b) in buckets.iter().enumerate() {
            seen += as_u64(Some(b)).unwrap_or(0);
            if seen >= target {
                return if i == 0 { 0u64 } else { 1u64 << i };
            }
        }
        u64::MAX
    };
    format!(
        "n={count} mean={mean:.2} p50≤{} p99≤{}",
        quantile_bound(0.5),
        quantile_bound(0.99)
    )
}

fn render(path: &str, bundles: &[BundleDoc]) {
    println!("telemetry report: {path}");
    println!("{}", "=".repeat(60));
    for (i, b) in bundles.iter().enumerate() {
        println!("\nbundle {i}: {}", b.label());
        // Meta identity, skipping the section counts (shown below).
        if let Json::Obj(fields) = &b.meta {
            let skip = [
                "type",
                "metrics",
                "topk",
                "samples",
                "events",
                "events_dropped",
            ];
            for (k, v) in fields {
                if !skip.contains(&k.as_str()) {
                    println!("  {k}: {v}");
                }
            }
        }
        println!(
            "  sections: {} metrics, {} topk, {} samples, {} events ({} dropped)",
            b.metrics.len(),
            b.topk.len(),
            b.samples.len(),
            b.events.len(),
            b.meta_u64("events_dropped").unwrap_or(0),
        );
        if !b.metrics.is_empty() {
            println!("  metrics:");
            for m in &b.metrics {
                let name = m.get("name").and_then(Json::as_str).unwrap_or("?");
                match m.get("kind").and_then(Json::as_str) {
                    Some("histogram") => println!("    {name}: {}", histogram_summary(m)),
                    _ => println!("    {name}: {}", as_u64(m.get("value")).unwrap_or(0)),
                }
            }
        }
        if !b.topk.is_empty() {
            println!("  heavy hitters (count bounds [count-err, count]):");
            let mut shard_shown = u64::MAX;
            for t in &b.topk {
                let shard = as_u64(t.get("shard")).unwrap_or(0);
                if shard != shard_shown {
                    println!("    shard {shard}:");
                    shard_shown = shard;
                }
                let count = as_u64(t.get("count")).unwrap_or(0);
                let err = as_u64(t.get("err")).unwrap_or(0);
                println!(
                    "      #{} video {:>8}  [{}, {}]",
                    as_u64(t.get("rank")).unwrap_or(0),
                    as_u64(t.get("video")).unwrap_or(0),
                    count - err.min(count),
                    count,
                );
            }
        }
        if let Some(last) = b.samples.last() {
            println!(
                "  final sample: t={}ms cum_efficiency={}",
                as_u64(last.get("t_ms")).unwrap_or(0),
                as_f64(last.get("cum_efficiency")).unwrap_or(f64::NAN),
            );
        }
    }
}

/// Flattens a JSON object into (path, leaf) pairs for field-by-field
/// comparison. Arrays index into the path.
fn flatten<'a>(prefix: &str, j: &'a Json, out: &mut Vec<(String, &'a Json)>) {
    match j {
        Json::Obj(fields) => {
            for (k, v) in fields {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&p, v, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), v, out);
            }
        }
        _ => out.push((prefix.to_string(), j)),
    }
}

/// Compares two JSON values field-by-field: integers and strings exactly,
/// floats within `tol`. Pushes one line per mismatch.
fn diff_json(ctx: &str, a: &Json, b: &Json, tol: f64, out: &mut Vec<String>) {
    let mut fa = Vec::new();
    let mut fb = Vec::new();
    flatten("", a, &mut fa);
    flatten("", b, &mut fb);
    for (path, va) in &fa {
        let Some((_, vb)) = fb.iter().find(|(p, _)| p == path) else {
            out.push(format!("{ctx}.{path}: only in A ({va})"));
            continue;
        };
        let matches = match (va, vb) {
            (Json::Int(x), Json::Int(y)) => x == y,
            (Json::Float(_), _) | (_, Json::Float(_)) => {
                match (as_f64(Some(va)), as_f64(Some(vb))) {
                    (Some(x), Some(y)) => (x - y).abs() <= tol,
                    _ => false,
                }
            }
            _ => va == vb,
        };
        if !matches {
            out.push(format!("{ctx}.{path}: {va} != {vb}"));
        }
    }
    for (path, vb) in &fb {
        if !fa.iter().any(|(p, _)| p == path) {
            out.push(format!("{ctx}.{path}: only in B ({vb})"));
        }
    }
}

fn topk_key(t: &Json) -> (u64, u64) {
    (
        as_u64(t.get("shard")).unwrap_or(u64::MAX),
        as_u64(t.get("rank")).unwrap_or(u64::MAX),
    )
}

fn metric_name(m: &Json) -> String {
    m.get("name")
        .and_then(Json::as_str)
        .unwrap_or("?")
        .to_string()
}

fn diff_bundles(i: usize, a: &BundleDoc, b: &BundleDoc, tol: f64, out: &mut Vec<String>) {
    let ctx = format!("bundle {i} ({})", a.label());
    diff_json(&format!("{ctx}.meta"), &a.meta, &b.meta, tol, out);
    // Metrics matched by name so a registration-order change reads as a
    // per-metric diff, not a wall of index mismatches.
    for m in &a.metrics {
        let name = metric_name(m);
        match b.metrics.iter().find(|x| metric_name(x) == name) {
            Some(x) => diff_json(&format!("{ctx}.metric {name}"), m, x, tol, out),
            None => out.push(format!("{ctx}.metric {name}: only in A")),
        }
    }
    for m in &b.metrics {
        let name = metric_name(m);
        if !a.metrics.iter().any(|x| metric_name(x) == name) {
            out.push(format!("{ctx}.metric {name}: only in B"));
        }
    }
    // Top-K matched by (shard, rank); samples and events by index.
    for t in &a.topk {
        let key = topk_key(t);
        match b.topk.iter().find(|x| topk_key(x) == key) {
            Some(x) => diff_json(&format!("{ctx}.topk s{}#{}", key.0, key.1), t, x, tol, out),
            None => out.push(format!("{ctx}.topk s{}#{}: only in A", key.0, key.1)),
        }
    }
    for t in &b.topk {
        let key = topk_key(t);
        if !a.topk.iter().any(|x| topk_key(x) == key) {
            out.push(format!("{ctx}.topk s{}#{}: only in B", key.0, key.1));
        }
    }
    for (section, xs, ys) in [
        ("sample", &a.samples, &b.samples),
        ("event", &a.events, &b.events),
    ] {
        if xs.len() != ys.len() {
            out.push(format!(
                "{ctx}: {} {section}s in A, {} in B",
                xs.len(),
                ys.len()
            ));
        }
        for (j, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
            diff_json(&format!("{ctx}.{section}[{j}]"), x, y, tol, out);
        }
    }
}

fn read_bundles(path: &str) -> Result<Vec<BundleDoc>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut errs = Vec::new();
    let bundles = parse_bundles(&text, &mut errs);
    if !errs.is_empty() {
        return Err(format!("{path}: {}", errs.join("; ")));
    }
    if bundles.is_empty() {
        return Err(format!("{path}: no telemetry bundles"));
    }
    Ok(bundles)
}

fn main() -> ExitCode {
    let args = Args::from_env("obs_report");
    // --diff takes two operands: the files to compare.
    let diff = args.values("diff", 2);
    let tol: f64 = args.get("tol").unwrap_or(1e-9);
    let path: String = args
        .get("in")
        .unwrap_or_else(|| "results/telemetry.jsonl".to_string());
    args.finish();
    if let Some([path_a, path_b]) = diff.as_deref() {
        let (a, b) = match (read_bundles(path_a), read_bundles(path_b)) {
            (Ok(a), Ok(b)) => (a, b),
            (ra, rb) => {
                for r in [ra.err(), rb.err()].into_iter().flatten() {
                    eprintln!("[obs_report] {r}");
                }
                return ExitCode::FAILURE;
            }
        };
        let mut out = Vec::new();
        if a.len() != b.len() {
            out.push(format!("{} bundles in A, {} in B", a.len(), b.len()));
        }
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            diff_bundles(i, x, y, tol, &mut out);
        }
        if out.is_empty() {
            println!(
                "[obs_report] {path_a} == {path_b} ({} bundle(s), tol {tol:e})",
                a.len()
            );
            ExitCode::SUCCESS
        } else {
            for line in &out {
                println!("[obs_report] DIFF {line}");
            }
            eprintln!("[obs_report] {} difference(s)", out.len());
            ExitCode::FAILURE
        }
    } else {
        match read_bundles(&path) {
            Ok(bundles) => {
                render(&path, &bundles);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("[obs_report] {e}");
                ExitCode::FAILURE
            }
        }
    }
}
