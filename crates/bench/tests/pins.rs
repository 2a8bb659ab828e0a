//! The counter pins of the `--scale 0.004 --days 4` smoke trace (1,739
//! requests): what a single-threaded replay and a 16-shard engine account
//! for LRU, xLRU, Cafe and Psychic at α = 2, compared whole against
//! `goldens/perf_smoke.json` and `goldens/contention_smoke.json`. Every
//! pinned value must also come out the same observed or detached and on
//! one worker or four; the engine's telemetry bundles must too, and must
//! read cleanly in `obs check`, `obs report` and `obs diff`.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use vcdn_bench::{trace_for, Algo, Scale, EXPERIMENT_SEED, PAPER_DISK_BYTES};
use vcdn_core::CacheConfig;
use vcdn_obs::{MetricsRegistry, MetricsSink, TelemetryBundle};
use vcdn_sim::engine::{engine_bundle, shard_requests, EngineConfig, EngineReport, ShardedEngine};
use vcdn_sim::{DecisionCtx, ReplayConfig, ReplayObserver, Replayer};
use vcdn_trace::{ServerProfile, Trace};
use vcdn_types::json::{self, Json};
use vcdn_types::{ChunkSize, CostModel, Request};

const SCALE: Scale = Scale(0.004);
const DAYS: u64 = 4;
const ALPHA: f64 = 2.0;
const SHARDS: usize = 16;
const POLICIES: [Algo; 4] = [Algo::Lru, Algo::Xlru, Algo::Cafe, Algo::Psychic];

fn smoke_trace() -> Trace {
    trace_for(ServerProfile::europe(), SCALE, DAYS)
}

fn costs() -> CostModel {
    CostModel::from_alpha(ALPHA).expect("valid alpha")
}

fn disk_chunks() -> u64 {
    SCALE.disk_chunks(PAPER_DISK_BYTES, ChunkSize::DEFAULT)
}

fn int(v: u64) -> Json {
    Json::Int(v as i128)
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// The document both goldens share: run parameters, then one row per policy.
fn document(bench: &str, requests: usize, extra: Vec<(&str, Json)>, rows: Vec<Json>) -> Json {
    let mut fields = vec![
        ("bench", Json::Str(bench.into())),
        ("seed", int(EXPERIMENT_SEED)),
        ("scale", Json::Float(SCALE.0)),
        ("days", int(DAYS)),
        ("alpha", Json::Float(ALPHA)),
    ];
    fields.extend(extra);
    fields.push(("requests", int(requests as u64)));
    fields.push(("policies", Json::Arr(rows)));
    obj(fields)
}

/// Whole-document equality with `goldens/<name>`, asserted one policy-row
/// field at a time first so that a mismatch names the policy and the field.
fn assert_matches_golden(got: &Json, name: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(name);
    let text = std::fs::read_to_string(&path).expect("golden is readable");
    let want = json::parse(&text).expect("golden is JSON");
    let rows = |doc: &Json| match doc.get("policies") {
        Some(Json::Arr(rows)) => rows.clone(),
        _ => panic!("{name}: no policies array"),
    };
    for (got, want) in rows(got).iter().zip(&rows(&want)) {
        let (Json::Obj(got), Json::Obj(want)) = (got, want) else {
            panic!("{name}: a policy row is not an object");
        };
        let policy = &want[0].1;
        for (got, want) in got.iter().zip(want) {
            assert_eq!(got, want, "{name}: {policy} (measured vs pinned)");
        }
    }
    assert_eq!(got, &want, "{name} (measured vs pinned)");
}

/// Counts the decisions it is shown.
struct Counting(usize);

impl ReplayObserver for Counting {
    fn on_decision(&mut self, _ctx: &DecisionCtx<'_>) {
        self.0 += 1;
    }
}

#[test]
fn replay_counters_match_the_pinned_smoke_golden() {
    let trace = smoke_trace();
    let k = ChunkSize::DEFAULT;
    let cache = CacheConfig::new(disk_chunks(), k, costs());
    let replayer = Replayer::new(ReplayConfig::bench(k, costs()));
    let rows = POLICIES
        .iter()
        .map(|algo| {
            let mut policy = algo.build(&trace.requests, cache);
            let report = replayer.replay(&trace, policy.as_mut());
            let mut seen = Counting(0);
            let mut policy = algo.build(&trace.requests, cache);
            let observed = replayer.replay_observed(&trace, policy.as_mut(), &mut seen);
            assert_eq!(
                report,
                observed,
                "{}: observing moved a counter",
                algo.name()
            );
            assert_eq!(seen.0, trace.len(), "{}", algo.name());
            let (steady, overall) = (&report.steady, &report.overall);
            obj(vec![
                ("policy", Json::Str(report.policy.into())),
                ("efficiency_steady", Json::Float(report.efficiency())),
                ("steady_hit_bytes", int(steady.hit_bytes)),
                ("steady_fill_bytes", int(steady.fill_bytes)),
                ("steady_redirect_bytes", int(steady.redirect_bytes)),
                ("overall_hit_bytes", int(overall.hit_bytes)),
                ("overall_fill_bytes", int(overall.fill_bytes)),
                ("overall_redirect_bytes", int(overall.redirect_bytes)),
            ])
        })
        .collect();
    let doc = document("perf_baseline", trace.len(), Vec::new(), rows);
    assert_matches_golden(&doc, "perf_smoke.json");
}

/// One pass of the smoke trace through a fresh 16-shard engine on
/// `workers` threads, instrumented when `observed`: the report and the
/// engine's bundle.
fn engine_run(
    algo: Algo,
    trace: &Trace,
    per_shard: &[Vec<Request>],
    workers: usize,
    observed: bool,
) -> (EngineReport, TelemetryBundle) {
    let cfg = EngineConfig::bench(SHARDS, disk_chunks(), ChunkSize::DEFAULT, costs())
        .expect("valid config");
    let mut engine = ShardedEngine::try_new(cfg, |i, cache| algo.build(&per_shard[i], cache))
        .expect("engine builds");
    let registry = Arc::new(MetricsRegistry::new());
    if observed {
        let sink: Arc<dyn MetricsSink> = registry.clone();
        engine.attach_obs(&sink, algo.name());
    }
    let report = engine.run(trace, workers);
    let bundle = engine_bundle(&engine, &registry);
    (report, bundle)
}

/// The per-shard Space-Saving tables as one: shards partition videos, so
/// entries never collide — concatenate, re-sort by `(count desc, video
/// asc)` and keep the strongest 8.
fn merged_top_videos(bundle: &TelemetryBundle) -> Json {
    let mut all: Vec<(u64, u64, u64)> = (bundle.topk.iter())
        .map(|r| (r.video, r.count, r.err))
        .collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(8);
    let row = |(video, count, err)| {
        obj(vec![
            ("video", int(video)),
            ("count", int(count)),
            ("err", int(err)),
        ])
    };
    Json::Arr(all.into_iter().map(row).collect())
}

/// Shard imbalance, max/mean × 1000.
fn skew_x1000(per_shard: impl Iterator<Item = u64> + Clone) -> Json {
    let (max, total) = (per_shard.clone().max().unwrap_or(0), per_shard.sum::<u64>());
    int((max as u128 * 1000 * SHARDS as u128 / total as u128) as u64)
}

#[test]
fn engine_counters_match_the_pinned_smoke_golden_at_1_and_4_workers() {
    let trace = smoke_trace();
    let per_shard = shard_requests(&trace, SHARDS);
    let rows = POLICIES
        .iter()
        .map(|&algo| {
            let name = algo.name();
            let (report, _) = engine_run(algo, &trace, &per_shard, 1, false);
            let (detached4, _) = engine_run(algo, &trace, &per_shard, 4, false);
            assert_eq!(report, detached4, "{name}: 4 workers moved a counter");
            let [top_videos, top_videos4] = [1, 4].map(|workers| {
                let (observed, bundle) = engine_run(algo, &trace, &per_shard, workers, true);
                assert_eq!(
                    report, observed,
                    "{name}: observing moved a counter at {workers} worker(s)"
                );
                merged_top_videos(&bundle)
            });
            assert_eq!(top_videos, top_videos4, "{name}: 4 workers moved a sketch");
            let shards = &report.shards;
            let per = |f: fn(&vcdn_sim::engine::ShardReport) -> u64| shards.iter().map(f);
            let arr = |f| Json::Arr(per(f).map(int).collect());
            let (agg, steady) = (report.aggregate_overall(), report.aggregate_steady());
            obj(vec![
                ("policy", Json::Str(shards[0].policy.into())),
                ("efficiency_steady", Json::Float(report.efficiency())),
                ("aggregate_hit_bytes", int(agg.hit_bytes)),
                ("aggregate_fill_bytes", int(agg.fill_bytes)),
                ("aggregate_redirect_bytes", int(agg.redirect_bytes)),
                ("served_requests", int(agg.served_requests)),
                ("redirected_requests", int(agg.redirected_requests)),
                ("steady_hit_bytes", int(steady.hit_bytes)),
                ("steady_fill_bytes", int(steady.fill_bytes)),
                ("steady_redirect_bytes", int(steady.redirect_bytes)),
                ("shard_requests", arr(|s| s.requests)),
                ("shard_hit_bytes", arr(|s| s.overall.hit_bytes)),
                ("shard_fill_bytes", arr(|s| s.overall.fill_bytes)),
                ("shard_used_chunks", arr(|s| s.used_chunks)),
                ("shard_skew_requests_x1000", skew_x1000(per(|s| s.requests))),
                (
                    "shard_skew_bytes_x1000",
                    skew_x1000(per(|s| s.overall.requested_bytes())),
                ),
                ("top_videos", top_videos),
            ])
        })
        .collect();
    let shape = vec![
        ("shards", int(SHARDS as u64)),
        ("disk_chunks", int(disk_chunks())),
    ];
    let doc = document("contention", trace.len(), shape, rows);
    assert_matches_golden(&doc, "contention_smoke.json");
}

#[test]
fn engine_bundles_pass_the_tools() {
    let trace = smoke_trace();
    let per_shard = shard_requests(&trace, SHARDS);
    let bundles = |workers: usize| -> Vec<String> {
        (POLICIES.iter())
            .map(|&algo| engine_run(algo, &trace, &per_shard, workers, true).1)
            .map(|bundle| bundle.to_jsonl())
            .collect()
    };
    let (one, four) = (bundles(1), bundles(4));
    for (algo, (one, four)) in POLICIES.iter().zip(one.iter().zip(&four)) {
        let name = algo.name();
        assert!(
            one == four,
            "{name}: engine bundle differs between 1 and 4 workers"
        );
    }

    let path = |name: &str| format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"));
    let (a, b) = (path("engine_w1.jsonl"), path("engine_w4.jsonl"));
    std::fs::write(&a, one.concat()).unwrap();
    std::fs::write(&b, four.concat()).unwrap();
    for args in [
        vec!["check", "--in", &a],
        vec!["report", "--in", &a],
        vec!["diff", &a, &b],
    ] {
        let obs = Command::new(env!("CARGO_BIN_EXE_obs")).args(&args).output();
        let out = obs.expect("obs runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "obs {args:?}: {stderr}");
    }
}
