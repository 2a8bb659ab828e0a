//! Watchdog timeline viewer and CI gate for the flash-crowd scenario.
//!
//! Runs the canonical flash-crowd run ([`vcdn_bench::scenario`]) on the
//! configured worker count and renders the health-window timeline as an
//! ASCII sparkline per metric — interval efficiency, redirect rate,
//! fill and eviction churn, queue-gap p99 — followed by the watchdog
//! alert log. Everything rendered is a pure function of the trace, so
//! the output is byte-identical for any worker count.
//!
//! Exit status is the CI contract: with `--golden <path>` the rendered
//! alert log must match the pinned golden byte-for-byte (the expected
//! incident signature); without it, any critical alert fails the run —
//! pointing this binary at a healthy workload turns it into an
//! efficiency-regression gate.
//!
//! Flags: `--workers <n>` (default `VCDN_WORKERS` / available cores),
//! `--golden <path>` compare the alert log against a pinned golden,
//! `--write-golden <path>` write the rendered alert log (for pinning),
//! `--out <path>` write the full telemetry bundle JSONL.

use std::process::ExitCode;

use vcdn_bench::scenario::run_flash_crowd;
use vcdn_bench::{grid_workers, Args};
use vcdn_obs::{Severity, WindowRecord};

/// Ten-step ASCII intensity ramp for the sparklines.
const RAMP: &[u8] = b" .:-=+*#%@";

/// Renders `values` as one sparkline row, linearly scaled into the ramp
/// between the series' own min and max (a flat series renders low).
fn sparkline(values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            let frac = if hi > lo { (v - lo) / (hi - lo) } else { 0.0 };
            let i = (frac * (RAMP.len() - 1) as f64).round() as usize;
            RAMP[i.min(RAMP.len() - 1)] as char
        })
        .collect()
}

/// One labelled sparkline row with its min/max legend.
fn row(label: &str, values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{label:<14} |{}| {lo:.3} .. {hi:.3}", sparkline(values))
}

/// The full timeline block: one sparkline per window metric plus an
/// alert marker row (`!` critical, `w` warning).
fn render_timeline(windows: &[WindowRecord], alerts: &[vcdn_obs::AlertEvent]) -> String {
    let mut out = String::new();
    let pull = |f: &dyn Fn(&WindowRecord) -> f64| -> Vec<f64> { windows.iter().map(f).collect() };
    out.push_str(&row("efficiency", &pull(&|w| w.efficiency)));
    out.push('\n');
    out.push_str(&row("redirect_rate", &pull(&|w| w.redirect_rate)));
    out.push('\n');
    out.push_str(&row("fill_chunks", &pull(&|w| w.filled_chunks as f64)));
    out.push('\n');
    out.push_str(&row("evict_chunks", &pull(&|w| w.evicted_chunks as f64)));
    out.push('\n');
    out.push_str(&row("queue_gap_p99", &pull(&|w| w.queue_gap_p99 as f64)));
    out.push('\n');
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
        "{:<14} |{}| windows {base}..{}",
        "alerts",
        String::from_utf8(markers).expect("ascii markers"),
        base + windows.len().saturating_sub(1) as u64,
    ));
    out.push('\n');
    out
}

fn main() -> ExitCode {
    let args = Args::from_env("obs_watch");
    let workers: usize = args.get("workers").unwrap_or_else(grid_workers);
    let out: Option<String> = args.get("out");
    let write_golden: Option<String> = args.get("write-golden");
    let golden: Option<String> = args.get("golden");
    args.finish();
    eprintln!("[obs_watch] flash-crowd scenario on {workers} worker(s)");
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
        if let Some(dir) = std::path::Path::new(&out).parent() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("mkdir {dir:?}: {e}"));
        }
        let jsonl = run.bundle.to_jsonl();
        std::fs::write(&out, &jsonl).unwrap_or_else(|e| panic!("write {out}: {e}"));
        eprintln!("[obs_watch] wrote {out}: {} lines", jsonl.lines().count());
    }
    if let Some(path) = write_golden {
        std::fs::write(&path, &run.alert_log).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[obs_watch] pinned alert log to {path}");
    }

    if let Some(golden_path) = golden {
        let golden = match std::fs::read_to_string(&golden_path) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("[obs_watch] cannot read golden {golden_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if run.alert_log == golden {
            println!("[obs_watch] alert log matches golden {golden_path}");
            ExitCode::SUCCESS
        } else {
            eprintln!("[obs_watch] ALERT LOG DRIFTED from {golden_path} — expected:\n{golden}");
            ExitCode::FAILURE
        }
    } else if run
        .bundle
        .alerts
        .iter()
        .any(|a| a.severity == Severity::Critical)
    {
        eprintln!("[obs_watch] critical alert(s) fired — failing (regression gate)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
