//! Observed replay: runs the standard workload through all four policies
//! (LRU, xLRU, Cafe, Psychic) with full telemetry — scoped metrics,
//! decision events and the trace-time series — and writes the combined
//! JSONL telemetry bundle (one bundle per policy, concatenated in policy
//! order).
//!
//! The export is deterministic: wall-clock timing histograms are excluded,
//! every cell owns its state, and bundles are emitted in input order, so
//! the file is byte-identical for any `VCDN_WORKERS` setting. Validate it
//! with the `obs_check` binary; `OBSERVABILITY.md` documents the schema.
//!
//! Flags: `--scale <f>` (default 1/16), `--days <n>` (default 30),
//! `--interval-mins <n>` sample interval (default 60),
//! `--window-mins <n>` health-window width (default 1440 — one window
//! per trace day; 0 disables the window/alert sections),
//! `--events <n>` retained decision events per policy (default 4096),
//! `--out <path>` (default `results/telemetry.jsonl`),
//! `--time-decisions` to also fill the (unexported) latency histogram.

use vcdn_bench::{sweep, trace_for, Algo, Args, EXPERIMENT_SEED, PAPER_DISK_BYTES};
use vcdn_core::CacheConfig;
use vcdn_sim::observe::{grid_jsonl, telemetry_cell, TelemetryConfig};
use vcdn_sim::report::{eff, Table};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::ServerProfile;
use vcdn_types::{ChunkSize, CostModel, DurationMs};

fn main() {
    let args = Args::from_env("replay_observe");
    let (scale, days) = (args.scale(), args.days());
    let interval_mins: u64 = args.get("interval-mins").unwrap_or(60);
    let window_mins: u64 = args.get("window-mins").unwrap_or(1440);
    let events: usize = args.get("events").unwrap_or(4096);
    let out: String = args
        .get("out")
        .unwrap_or_else(|| "results/telemetry.jsonl".to_string());
    let time_decisions = args.switch("time-decisions");
    args.finish();

    let k = ChunkSize::DEFAULT;
    let disk = scale.disk_chunks(PAPER_DISK_BYTES, k);
    let costs = CostModel::from_alpha(2.0).expect("valid alpha");
    let telemetry = TelemetryConfig::new()
        .with_sample_interval(DurationMs::from_secs(interval_mins * 60))
        .with_window(DurationMs::from_secs(window_mins * 60))
        .with_event_capacity(events)
        .with_time_decisions(time_decisions);
    eprintln!(
        "[replay_observe] scale={} days={days} disk={disk} chunks, alpha=2, \
         interval={interval_mins}min window={window_mins}min events={events} \
         seed={EXPERIMENT_SEED}",
        scale.0
    );

    let trace = trace_for(ServerProfile::europe(), scale, days);
    eprintln!("[replay_observe] trace: {} requests", trace.len());

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
    let run = sweep("replay_observe", cells);

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
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("mkdir {dir:?}: {e}"));
    }
    std::fs::write(&out, &jsonl).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!(
        "[replay_observe] wrote {out}: {} lines, {} bytes",
        jsonl.lines().count(),
        jsonl.len()
    );
}
