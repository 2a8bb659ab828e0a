//! The runner's core guarantee: a grid run is byte-identical no matter
//! how many workers execute it.
//!
//! This drives a *real* sweep — replaying a generated trace through xLRU
//! and Cafe across several α values — through [`run_grid`] with 1 worker
//! and with many, and asserts the two result vectors are identical.

use std::sync::Arc;

use vcdn_core::{CacheConfig, CachePolicy, CafeCache, CafeConfig, XlruCache};
use vcdn_obs::{diff, MetricSnapshot, MetricsRegistry, MetricsSink, TelemetryBundle};
use vcdn_sim::engine::{engine_bundle, EngineConfig, ShardedEngine};
use vcdn_sim::observe::{grid_jsonl, telemetry_cell, TelemetryConfig};
use vcdn_sim::runner::{run_grid, Cell, CellResult};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::{ServerProfile, Trace, TraceGenerator};
use vcdn_types::{ChunkSize, CostModel, DurationMs};

mod matrix;

use matrix::Source::{Empty, OneShard, Tiny};

fn trace() -> Trace {
    TraceGenerator::new(ServerProfile::tiny_test(), 4217).generate(DurationMs::from_hours(12))
}

/// A cell's payload: policy name plus the full
/// (hit, fill, redirect, served, redirected) accounting.
type Accounting = (String, u64, u64, u64, u64, u64);

/// One sweep: the (α × policy) grid.
fn sweep_cells(trace: &Trace) -> Vec<Cell<'_, Accounting>> {
    let k = ChunkSize::DEFAULT;
    [0.5, 1.0, 2.0, 4.0]
        .into_iter()
        .flat_map(|alpha| {
            ["xlru", "cafe"].into_iter().map(move |name| {
                Cell::new(format!("alpha={alpha} {name}"), move || {
                    let costs = CostModel::from_alpha(alpha).expect("valid alpha");
                    let mut policy: Box<dyn CachePolicy> = match name {
                        "xlru" => Box::new(XlruCache::new(CacheConfig::new(96, k, costs))),
                        _ => Box::new(CafeCache::new(CafeConfig::new(96, k, costs))),
                    };
                    let r =
                        Replayer::new(ReplayConfig::new(k, costs)).replay(trace, policy.as_mut());
                    (
                        r.policy.to_string(),
                        r.overall.hit_bytes,
                        r.overall.fill_bytes,
                        r.overall.redirect_bytes,
                        r.overall.served_requests,
                        r.overall.redirected_requests,
                    )
                })
            })
        })
        .collect()
}

#[test]
fn one_worker_and_many_workers_agree_exactly() {
    let trace = trace();
    let sequential: Vec<CellResult<_>> = run_grid(sweep_cells(&trace), 1).results;
    let parallel: Vec<CellResult<_>> = run_grid(sweep_cells(&trace), 8).results;
    // CellResult equality covers label and value (the full byte
    // accounting); wall time is explicitly excluded.
    assert_eq!(sequential, parallel);
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    let trace = trace();
    let a = run_grid(sweep_cells(&trace), 5).results;
    let b = run_grid(sweep_cells(&trace), 3).results;
    assert_eq!(a, b);
}

/// The observability extension of the same guarantee: a telemetry grid's
/// exported JSONL — metrics, time series and decision events for every
/// (α × policy) cell — is byte-identical no matter the worker count.
fn telemetry_jsonl(trace: &Trace, workers: usize) -> String {
    let k = ChunkSize::DEFAULT;
    let telemetry = TelemetryConfig::new().with_event_capacity(256);
    let cells = [0.5, 2.0]
        .into_iter()
        .flat_map(|alpha| {
            ["xlru", "cafe"].into_iter().map(move |name| {
                let costs = CostModel::from_alpha(alpha).expect("valid alpha");
                telemetry_cell(
                    format!("alpha={alpha} {name}"),
                    Replayer::new(ReplayConfig::new(k, costs)),
                    trace,
                    telemetry,
                    move || -> Box<dyn CachePolicy> {
                        match name {
                            "xlru" => Box::new(XlruCache::new(CacheConfig::new(96, k, costs))),
                            _ => Box::new(CafeCache::new(CafeConfig::new(96, k, costs))),
                        }
                    },
                )
            })
        })
        .collect();
    grid_jsonl(&run_grid(cells, workers).results)
}

#[test]
fn telemetry_export_is_byte_identical_across_worker_counts() {
    let trace = trace();
    let sequential = telemetry_jsonl(&trace, 1);
    let parallel = telemetry_jsonl(&trace, 8);
    assert!(!sequential.is_empty());
    assert!(
        sequential == parallel,
        "telemetry JSONL diverged across worker counts: {:#?}",
        diff(
            &TelemetryBundle::parse_jsonl(&sequential).expect("1-worker export reads"),
            &TelemetryBundle::parse_jsonl(&parallel).expect("8-worker export reads"),
        )
    );
}

/// The engine-level extension of the same guarantee: every policy's
/// sharded engine produces identical per-shard and aggregate counters at
/// 1, 2, 3, 4 and 8 workers — on this file's trace and on the empty one,
/// which at 1–8 workers is a zero report with no windows. Every other row
/// of the replay matrix runs on both too.
#[test]
fn engine_counters_identical_at_1_2_4_8_workers() {
    for policy in matrix::POLICIES {
        matrix::every_cell(policy, (Tiny(4217, 12), matrix::K, 2.0, 96));
        matrix::every_cell(policy, (Empty, matrix::K, 2.0, 96));
    }
}

/// The observability extension at the engine level: an *instrumented*
/// engine's telemetry bundle — span counters, queue-gap histograms,
/// load-share and skew gauges, the per-shard heavy-hitter tables, and
/// the window/alert sections — serialises to byte-identical JSONL at
/// 1, 2, 4 and 8 workers. This is the deterministic-tracing contract:
/// logical-clock spans, sketches and tumbling windows depend only on the
/// trace order, never on thread interleaving (the wall-clock timing
/// histograms are excluded from the export by kind).
///
/// The bundle is also pinned against a committed golden
/// (`crates/bench/goldens/engine_bundle_xlru_4shards.jsonl`): comparing
/// worker counts only with each other would not notice `queue_gap`,
/// `load_share_x1000`, metric registration order or the window
/// `queue_gap_*` fields all shifting together.
#[test]
fn engine_bundle_identical_at_1_2_4_8_workers() {
    let trace = trace();
    let k = ChunkSize::DEFAULT;
    let costs = CostModel::from_alpha(2.0).expect("valid alpha");
    let bundle_at = |workers: usize| {
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = registry.clone();
        let cfg = EngineConfig::new(4, 96, k, costs).expect("valid engine config");
        let mut engine = ShardedEngine::try_new(cfg, |_, cache| -> Box<dyn CachePolicy> {
            Box::new(XlruCache::new(cache))
        })
        .expect("engine builds");
        engine.attach_obs(&sink, "det");
        engine.run(&trace, workers);
        [engine_bundle(&engine, &registry)]
    };
    let baseline = bundle_at(1);
    let golden = include_str!("../../bench/goldens/engine_bundle_xlru_4shards.jsonl");
    let golden = TelemetryBundle::parse_jsonl(golden).expect("the golden reads");
    // `diff` is empty exactly when the two serialise to the same bytes,
    // and otherwise names the lines that drifted.
    assert_eq!(
        diff(&baseline, &golden),
        Vec::<String>::new(),
        "engine telemetry bundle (A) drifted from the pinned golden (B)"
    );
    let [b] = &baseline;
    assert!(!b.topk.is_empty(), "sketch exported");
    assert!(!b.windows.is_empty(), "windows exported");
    let spans = |m: &MetricSnapshot| m.name.ends_with("span.dispatched_total");
    assert!(b.metrics.iter().any(spans), "spans exported");
    for workers in [2, 4, 8] {
        assert_eq!(
            diff(&baseline, &bundle_at(workers)),
            Vec::<String>::new(),
            "engine telemetry bundle diverged at {workers} workers (B)"
        );
    }
}

/// Sharded-vs-unsharded oracle, part 1: a one-shard engine is exactly the
/// single-cache replay — same overall and steady accounting, same Eq. 2
/// efficiency — and so is the one hot shard of a trace whose every video
/// hashes to it, while the other shards see nothing and the skew gauge
/// reads its maximum. Every other row of the replay matrix runs too.
#[test]
fn one_shard_engine_equals_single_cache_replay() {
    for policy in matrix::POLICIES {
        matrix::every_cell(policy, (OneShard(99, 24), matrix::K, 2.0, 96));
    }
}

/// Sharded-vs-unsharded oracle, part 2: for N > 1 the byte totals are
/// conserved and the Eq. 2 efficiency over the summed shard counters stays
/// within a partitioning tolerance of the unsharded one — here on a
/// 97-chunk disk that the shards split unevenly.
#[test]
fn multi_shard_totals_conserve_demand_and_efficiency() {
    let point = (Tiny(99, 12), matrix::K, 2.0, 97);
    matrix::cells(point).for_each(|c| c.demand_row(&c.replay_row()));
}

#[test]
fn results_arrive_in_submission_order() {
    let trace = trace();
    let labels: Vec<String> = run_grid(sweep_cells(&trace), 8)
        .results
        .into_iter()
        .map(|c| c.label)
        .collect();
    let expected: Vec<String> = [0.5, 1.0, 2.0, 4.0]
        .iter()
        .flat_map(|a| ["xlru", "cafe"].map(|n| format!("alpha={a} {n}")))
        .collect();
    assert_eq!(labels, expected);
}
