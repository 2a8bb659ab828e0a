//! `obs <command> [flags]` — the one tool over `vcdn-telemetry/1` bundles
//! (`OBSERVABILITY.md` documents the schema and every command):
//!
//! * `record` replays the standard workload through LRU, xLRU, Cafe and
//!   Psychic with full telemetry and writes the four bundles as one
//!   document. Flags: `--scale <f>` (default 1/16), `--days <n>` (30),
//!   `--interval-mins <n>` sample interval (60), `--window-mins <n>`
//!   health-window width (1440; 0 disables the window and alert
//!   sections), `--events <n>` retained per policy (4096), `--out <path>`
//!   (`results/telemetry.jsonl`). One of the interval and the window must
//!   be a whole multiple of the other (both fold from one ring; see
//!   [`TelemetryConfig::folds`]). Byte-identical for any `VCDN_WORKERS`.
//! * `check --in <path> [--rules <path>]` reads a document and holds
//!   every bundle to [`vcdn_obs::check`]; with `--rules`, also that a
//!   watchdog rules file parses and round-trips. One `FAIL` line per
//!   violation, exit 1.
//! * `report --in <path>` prints each bundle for a human: meta entries,
//!   the six sections' sizes, metrics, heavy hitters, alerts, last sample.
//! * `diff <a> <b>` compares two documents exactly ([`vcdn_obs::diff`]):
//!   one `DIFF` line per differing line, exit 1.
//! * `watch` runs the flash-crowd scenario ([`vcdn_bench::scenario`]) and
//!   renders its health-window timeline and alert log. Flags:
//!   `--workers <n>`, `--out <path>` (the bundle), `--golden <path>` (the
//!   alert log must match it byte for byte), `--write-golden <path>`.
//!   Without `--golden`, any critical alert is exit 1.
//!
//! Every command reads a document through the one reader,
//! [`TelemetryBundle::parse_jsonl`]: a file it refuses is a failure that
//! names the line, never a report over defaults. Exit 2 with one stderr
//! line is a bad command line (see [`Args`]).

use std::process::ExitCode;

use vcdn_bench::scenario::run_flash_crowd;
use vcdn_bench::{grid_workers, sweep, trace_for, Algo, Args, EXPERIMENT_SEED, PAPER_DISK_BYTES};
use vcdn_core::CacheConfig;
use vcdn_obs::{
    render_alert_log, AlertEvent, MetricSnapshot, Severity, TelemetryBundle, WindowRecord,
};
use vcdn_sim::observe::{grid_jsonl, telemetry_cell, TelemetryConfig};
use vcdn_sim::report::{eff, Table};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::ServerProfile;
use vcdn_types::{ChunkSize, CostModel, DurationMs};

/// A command: `Err` is its failure's last (or only) line, exit 1.
type Command = fn(&Args) -> Result<(), String>;

const COMMANDS: [(&str, Command); 5] = [
    ("record", record),
    ("check", check),
    ("report", report),
    ("diff", diff),
    ("watch", watch),
];

fn main() -> ExitCode {
    let cli = Args::new("obs", []);
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        cli.fail("usage: obs <record|check|report|diff|watch> [flags]");
    };
    let Some((_, run)) = COMMANDS.iter().find(|(n, _)| *n == name) else {
        cli.fail(&format!(
            "no command named {name:?} (record, check, report, diff, watch)"
        ));
    };
    match run(&Args::new(&format!("obs {name}"), argv)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[obs {name}] {e}");
            ExitCode::FAILURE
        }
    }
}

/// Where `obs record` writes and the reading commands look by default.
const DEFAULT_DOCUMENT: &str = "results/telemetry.jsonl";

/// Reads the document at `path` through the bundle reader.
fn read_document(path: &str) -> Result<Vec<TelemetryBundle>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match TelemetryBundle::parse_jsonl(&text) {
        Ok(bundles) if bundles.is_empty() => Err(format!("{path}: no telemetry bundles")),
        Ok(bundles) => Ok(bundles),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

/// Writes `text` to `path`, creating its directory.
fn write_file(path: &str, text: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("mkdir {dir:?}: {e}"));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

fn record(args: &Args) -> Result<(), String> {
    let (scale, days) = (args.scale(), args.days());
    let interval_mins: u64 = args.get("interval-mins").unwrap_or(60);
    let window_mins: u64 = args.get("window-mins").unwrap_or(1440);
    let events: usize = args.get("events").unwrap_or(4096);
    let out: String = args.get("out").unwrap_or_else(|| DEFAULT_DOCUMENT.into());
    args.finish();

    let k = ChunkSize::DEFAULT;
    let disk = scale.disk_chunks(PAPER_DISK_BYTES, k);
    let costs = CostModel::from_alpha(2.0).expect("valid alpha");
    let telemetry = TelemetryConfig::new()
        .with_sample_interval(DurationMs::from_secs(interval_mins * 60))
        .with_window(DurationMs::from_secs(window_mins * 60))
        .with_event_capacity(events);
    if !telemetry.folds() {
        args.fail(&format!(
            "--interval-mins {interval_mins} and --window-mins {window_mins}: \
             neither is a whole multiple of the other"
        ));
    }
    eprintln!(
        "[obs record] scale={} days={days} disk={disk} chunks, alpha=2, \
         interval={interval_mins}min window={window_mins}min events={events} \
         seed={EXPERIMENT_SEED}",
        scale.0
    );

    let trace = trace_for(ServerProfile::europe(), scale, days);
    eprintln!("[obs record] trace: {} requests", trace.len());

    let trace_ref = &trace;
    let cells = [Algo::Lru, Algo::Xlru, Algo::Cafe, Algo::Psychic]
        .into_iter()
        .map(|algo| {
            telemetry_cell(
                algo.name(),
                Replayer::new(ReplayConfig::bench(k, costs)),
                trace_ref,
                telemetry,
                move || algo.build(&trace_ref.requests, CacheConfig::new(disk, k, costs)),
            )
        })
        .collect();
    let run = sweep("obs record", cells);

    let mut table = Table::new(vec![
        "policy",
        "efficiency",
        "samples",
        "windows",
        "alerts",
        "events",
        "dropped",
        "evictions",
    ]);
    for cell in &run.results {
        let (report, bundle) = &cell.value;
        let evictions = bundle
            .metrics
            .iter()
            .find(|m| m.name.ends_with("evicted_chunks_total"))
            .map_or(0, |m| m.value);
        table.row(vec![
            report.policy.to_string(),
            eff(report.efficiency()),
            bundle.series.len().to_string(),
            bundle.windows.len().to_string(),
            bundle.alerts.len().to_string(),
            bundle.events.len().to_string(),
            bundle.events_dropped.to_string(),
            evictions.to_string(),
        ]);
    }
    println!("{}", table.render());

    // Warm-up view: cumulative Eq. 2 efficiency converging toward the
    // aggregate as the cache fills (the paper's §9 warm-up phase).
    let first = &run.results[1]; // xlru — the paper's first algorithm
    let series = &first.value.1.series;
    if !series.is_empty() {
        let mut warmup = Table::new(vec!["t", "interval eff", "cum eff", "occupancy"]);
        let picks = 6.min(series.len());
        for i in 0..picks {
            let s = &series[(series.len() - 1) * i / (picks - 1).max(1)];
            warmup.row(vec![
                format!("{:.1}d", s.t_ms as f64 / 86_400_000.0),
                eff(s.efficiency),
                eff(s.cum_efficiency),
                format!("{}/{}", s.occupancy_chunks, s.capacity_chunks),
            ]);
        }
        println!("warm-up ({}):", first.value.0.policy);
        println!("{}", warmup.render());
    }

    let jsonl = grid_jsonl(&run.results);
    write_file(&out, &jsonl);
    eprintln!(
        "[obs record] wrote {out}: {} lines, {} bytes",
        jsonl.lines().count(),
        jsonl.len()
    );
    Ok(())
}

/// Verifies a watchdog rules file parses and round-trips: parse, render
/// canonically, re-parse, compare. A rules file the watchdog would
/// reject — or one whose canonical form drifts — fails the check.
fn check_rules_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let rules = vcdn_obs::parse_rules(&text).map_err(|e| e.to_string())?;
    if rules.is_empty() {
        return Err("no rules defined".into());
    }
    match vcdn_obs::parse_rules(&vcdn_obs::render_rules(&rules)) {
        Ok(again) if again == rules => Ok(()),
        Ok(_) => Err("canonical rendering drifts on re-parse".into()),
        Err(e) => Err(format!("canonical rendering unparseable: {e}")),
    }
}

fn check(args: &Args) -> Result<(), String> {
    let path: String = args.get("in").unwrap_or_else(|| DEFAULT_DOCUMENT.into());
    let rules_path: Option<String> = args.get("rules");
    args.finish();

    let mut errs: Vec<String> = Vec::new();
    if let Some(rules) = &rules_path {
        errs.extend((check_rules_file(rules).err()).map(|e| format!("rules {rules}: {e}")));
    }
    let bundles = read_document(&path).unwrap_or_else(|e| {
        errs.push(e);
        Vec::new()
    });
    for (i, b) in bundles.iter().enumerate() {
        let label = b.label();
        errs.extend((vcdn_obs::check(b).into_iter()).map(|e| format!("bundle {i} ({label}): {e}")));
    }
    if errs.is_empty() {
        println!(
            "[obs check] {path}: {} bundle(s) — all checks passed",
            bundles.len()
        );
        return Ok(());
    }
    for e in &errs {
        eprintln!("[obs check] FAIL {e}");
    }
    Err(format!("{path}: {} violation(s)", errs.len()))
}

/// Renders one histogram metric as mean plus upper-bound quantiles
/// recovered from the log-bucket layout (bucket i ≥ 1 covers
/// [2^(i−1), 2^i)).
fn histogram_summary(m: &MetricSnapshot, buckets: &[u64]) -> String {
    let count = m.value;
    if count == 0 {
        return "empty".to_string();
    }
    let mean = m.sum as f64 / count as f64;
    let quantile_bound = |q: f64| {
        let target = (q * count as f64).ceil() as u64;
        let mut seen = 0u64;
        let reached = |b: &u64| {
            seen = seen.saturating_add(*b);
            seen >= target
        };
        match buckets.iter().position(reached) {
            Some(0) => 0,
            Some(i) => 1u64 << i.min(63),
            None => u64::MAX,
        }
    };
    format!(
        "n={count} mean={mean:.2} p50≤{} p99≤{}",
        quantile_bound(0.5),
        quantile_bound(0.99)
    )
}

fn report(args: &Args) -> Result<(), String> {
    let path: String = args.get("in").unwrap_or_else(|| DEFAULT_DOCUMENT.into());
    args.finish();
    let bundles = read_document(&path)?;
    println!("telemetry report: {path}");
    println!("{}", "=".repeat(60));
    for (i, b) in bundles.iter().enumerate() {
        println!("\nbundle {i}: {}", b.label());
        for (k, v) in &b.meta {
            println!("  {k}: {v}");
        }
        println!(
            "  sections: {} metrics, {} topk, {} windows ({} dropped), {} alerts, \
             {} samples, {} events ({} dropped)",
            b.metrics.len(),
            b.topk.len(),
            b.windows.len(),
            b.windows_dropped,
            b.alerts.len(),
            b.series.len(),
            b.events.len(),
            b.events_dropped,
        );
        if !b.metrics.is_empty() {
            println!("  metrics:");
        }
        for m in &b.metrics {
            match &m.histogram {
                Some(hist) => println!("    {}: {}", m.name, histogram_summary(m, &hist.buckets)),
                None => println!("    {}: {}", m.name, m.value),
            }
        }
        if !b.topk.is_empty() {
            println!("  heavy hitters (count bounds [count-err, count]):");
        }
        for (j, t) in b.topk.iter().enumerate() {
            if j == 0 || b.topk[j - 1].shard != t.shard {
                println!("    shard {}:", t.shard);
            }
            println!(
                "      #{} video {:>8}  [{}, {}]",
                t.rank,
                t.video,
                t.count.saturating_sub(t.err),
                t.count,
            );
        }
        if !b.alerts.is_empty() {
            println!("  alerts:");
            for line in render_alert_log(&b.alerts).lines() {
                println!("    {line}");
            }
        }
        if let Some(last) = b.series.last() {
            println!(
                "  final sample: t={}ms cum_efficiency={}",
                last.t_ms, last.cum_efficiency
            );
        }
    }
    Ok(())
}

fn diff(args: &Args) -> Result<(), String> {
    let (path_a, path_b) = (args.operand("<a>"), args.operand("<b>"));
    args.finish();
    let (a, b) = (read_document(&path_a)?, read_document(&path_b)?);
    let out = vcdn_obs::diff(&a, &b);
    if out.is_empty() {
        println!("[obs diff] {path_a} == {path_b} ({} bundle(s))", a.len());
        return Ok(());
    }
    for line in &out {
        println!("[obs diff] DIFF {line}");
    }
    Err(format!("{} difference(s)", out.len()))
}

/// Ten-step ASCII intensity ramp for the sparklines.
const RAMP: &[u8] = b" .:-=+*#%@";

/// One labelled sparkline row with its min/max legend: `values` scaled
/// linearly into the ramp between the series' own min and max (a flat
/// series renders low).
fn row(label: &str, values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let sparkline: String = values
        .iter()
        .map(|&v| {
            let frac = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            let i = (frac * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[i.min(RAMP.len() - 1)] as char
        })
        .collect();
    format!("{label:<14} |{sparkline}| {lo:.3} .. {hi:.3}\n")
}

/// The full timeline block: one sparkline per window metric plus an
/// alert marker row (`!` critical, `w` warning).
fn render_timeline(windows: &[WindowRecord], alerts: &[AlertEvent]) -> String {
    type Metric = fn(&WindowRecord) -> f64;
    let rows: [(&str, Metric); 5] = [
        ("efficiency", |w| w.efficiency),
        ("redirect_rate", |w| w.redirect_rate),
        ("fill_chunks", |w| w.filled_chunks as f64),
        ("evict_chunks", |w| w.evicted_chunks as f64),
        ("queue_gap_p99", |w| w.queue_gap_p99 as f64),
    ];
    let mut out = String::new();
    for (label, metric) in rows {
        out.push_str(&row(label, &windows.iter().map(metric).collect::<Vec<_>>()));
    }
    let mut markers = vec![b' '; windows.len()];
    let base = windows.first().map_or(0, |w| w.index);
    for a in alerts {
        if let Some(slot) = a.window.checked_sub(base).map(|i| i as usize) {
            if let Some(m) = markers.get_mut(slot) {
                *m = match a.severity {
                    Severity::Critical => b'!',
                    Severity::Warning if *m != b'!' => b'w',
                    Severity::Warning => *m,
                };
            }
        }
    }
    out.push_str(&format!(
        "{:<14} |{}| windows {base}..{}\n",
        "alerts",
        String::from_utf8(markers).expect("ascii markers"),
        base + windows.len().saturating_sub(1) as u64,
    ));
    out
}

fn watch(args: &Args) -> Result<(), String> {
    let workers: usize = args.get("workers").unwrap_or_else(grid_workers);
    let out: Option<String> = args.get("out");
    let write_golden: Option<String> = args.get("write-golden");
    let golden: Option<String> = args.get("golden");
    args.finish();
    eprintln!("[obs watch] flash-crowd scenario on {workers} worker(s)");
    let run = run_flash_crowd(workers);

    println!(
        "flash-crowd: {} requests, {} windows ({} ms each), {} alert(s), efficiency {:.4}",
        run.report.total_requests(),
        run.bundle.windows.len(),
        run.report.window_ms,
        run.bundle.alerts.len(),
        run.report.efficiency(),
    );
    print!(
        "{}",
        render_timeline(&run.bundle.windows, &run.bundle.alerts)
    );
    println!("alert log:");
    print!("{}", run.alert_log);

    if let Some(out) = out {
        let jsonl = run.bundle.to_jsonl();
        write_file(&out, &jsonl);
        eprintln!("[obs watch] wrote {out}: {} lines", jsonl.lines().count());
    }
    if let Some(path) = write_golden {
        write_file(&path, &run.alert_log);
        eprintln!("[obs watch] pinned alert log to {path}");
    }

    if let Some(golden_path) = golden {
        let golden = std::fs::read_to_string(&golden_path)
            .map_err(|e| format!("cannot read golden {golden_path}: {e}"))?;
        if run.alert_log != golden {
            return Err(format!(
                "ALERT LOG DRIFTED from {golden_path} — expected:\n{golden}"
            ));
        }
        println!("[obs watch] alert log matches golden {golden_path}");
    } else if (run.bundle.alerts.iter()).any(|a| a.severity == Severity::Critical) {
        return Err("critical alert(s) fired — failing (regression gate)".into());
    }
    Ok(())
}
