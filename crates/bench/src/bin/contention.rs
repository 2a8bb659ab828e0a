//! Contention scaling bench: the sharded serving engine's aggregate
//! throughput as worker threads grow, with the determinism contract
//! enforced on every run.
//!
//! For each policy (LRU, xLRU, Cafe, Psychic) the standard generated
//! workload is run through a [`ShardedEngine`] at each thread count in
//! the sweep (default 1/2/4/8/16). Per-shard byte counters must be
//! bit-identical across *all* thread counts — the binary asserts it run
//! by run, so a scaling number is only ever reported for a provably
//! deterministic configuration. Results land in `BENCH_PR8.json`
//! (`--out`): deterministic per-shard/aggregate counters plus a
//! machine-dependent `throughput` array per policy.
//!
//! After the timed (detached) reps, each thread count gets one
//! *instrumented* pass: a fresh engine with `attach_obs`, whose report
//! must equal the detached baseline bit-for-bit (observers change
//! nothing — the off-means-free contract, enforced here in both
//! directions). The instrumented pass yields deterministic per-policy
//! fields: the shard-imbalance skew (`max/mean × 1000` over requests and
//! bytes) and the merged heavy-hitter `top_videos` table from the
//! per-shard Space-Saving sketches. The engine has no queues, so there
//! are no queue statistics to report: the timing-excluded `throughput`
//! entries carry wall-clock throughput only. `--bundle <path>`
//! additionally writes the instrumented engines' telemetry bundles
//! (first thread count, one per policy) as concatenated JSONL — the
//! document CI's report-smoke job renders and diffs across worker
//! counts.
//!
//! `--check <file>` re-verifies the deterministic fields against a
//! previously written document via the shared baseline machinery —
//! because thread counts live only in timing-excluded fields, a
//! `--threads 1` run checks cleanly against a `--threads 4` golden,
//! which is exactly the cross-thread counter diff CI's contention-smoke
//! job performs.
//!
//! Flags: `--scale <f>` (default 1/16), `--days <n>` (default 30),
//! `--shards <n>` (default 16), `--threads <a,b,c>` (default
//! `1,2,4,8,16`), `--reps <n>` best-of timed runs (default 3),
//! `--out <path>` (default `BENCH_PR8.json`), `--bundle <path>`,
//! `--check <path>`.

use std::sync::Arc;
use std::time::Instant;

use vcdn_bench::{trace_for, Algo, Args, EXPERIMENT_SEED, PAPER_DISK_BYTES};
use vcdn_core::{
    CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig, XlruCache,
};
use vcdn_obs::{MetricsRegistry, MetricsSink};
use vcdn_sim::engine::{engine_bundle, shard_requests, EngineConfig, EngineReport, ShardedEngine};
use vcdn_sim::report::{eff, Table};
use vcdn_trace::{ServerProfile, Trace};
use vcdn_types::json::Json;
use vcdn_types::{ChunkId, ChunkSize, CostModel, Request};

/// Machine-dependent fields, excluded from golden comparison. `threads`
/// is the sweep shape and `cores` the host's parallelism — not
/// measurements, but they must not break the 1-thread-vs-4-thread CI
/// diff or cross-machine golden checks, so they ride in the timing
/// bucket.
const TIMING: [&str; 3] = ["threads", "throughput", "cores"];

/// One (thread count → best wall seconds) measurement (wall-clock,
/// reported only inside timing-excluded fields).
struct Throughput {
    threads: usize,
    best_secs: f64,
}

/// One merged heavy-hitter row (video, Space-Saving count and error).
struct TopVideo {
    video: u64,
    count: u64,
    err: u64,
}

/// One policy's sweep: the deterministic report plus per-thread timing,
/// the merged heavy-hitter table and the first instrumented pass's
/// telemetry bundle.
struct PolicyRun {
    report: EngineReport,
    sweep: Vec<Throughput>,
    top_videos: Vec<TopVideo>,
    bundle_jsonl: String,
}

fn engine_for(
    algo: Algo,
    per_shard: &[Vec<Request>],
    shards: usize,
    disk: u64,
    k: ChunkSize,
    costs: CostModel,
) -> ShardedEngine {
    let cfg = EngineConfig::bench(shards, disk, k, costs).expect("valid engine config");
    ShardedEngine::try_new(cfg, |i, cache| -> Box<dyn CachePolicy> {
        match algo {
            Algo::Lru => Box::new(LruCache::new(cache)),
            Algo::Xlru => Box::new(XlruCache::new(cache)),
            Algo::Cafe => Box::new(CafeCache::new(CafeConfig {
                cache,
                ..CafeConfig::new(cache.disk_chunks, k, costs)
            })),
            Algo::Psychic => Box::new(PsychicCache::new(
                PsychicConfig::new(cache.disk_chunks, k, costs),
                &per_shard[i],
            )),
        }
    })
    .expect("engine builds")
}

/// The fixed shape of one contention sweep.
#[derive(Clone, Copy)]
struct SweepCfg {
    shards: usize,
    disk: u64,
    k: ChunkSize,
    costs: CostModel,
    reps: u32,
}

fn sweep_policy(
    algo: Algo,
    trace: &Trace,
    per_shard: &[Vec<Request>],
    cfg: SweepCfg,
    threads: &[usize],
) -> PolicyRun {
    let SweepCfg {
        shards,
        disk,
        k,
        costs,
        reps,
    } = cfg;
    let requests = trace.len() as f64;
    let mut baseline: Option<EngineReport> = None;
    let mut sweep = Vec::new();
    let mut top_videos = Vec::new();
    let mut bundle_jsonl = String::new();
    for &t in threads {
        let mut best_secs = f64::INFINITY;
        for _ in 0..reps {
            let mut engine = engine_for(algo, per_shard, shards, disk, k, costs);
            let t0 = Instant::now();
            let report = engine.run(trace, t);
            best_secs = best_secs.min(t0.elapsed().as_secs_f64());
            // The determinism contract, enforced per run: every rep at
            // every thread count must produce bit-identical per-shard
            // counters (EngineReport equality covers each shard's full
            // accounting and excludes the worker count).
            if let Some(base) = &baseline {
                assert_eq!(
                    base,
                    &report,
                    "{}: shard counters diverged at {t} thread(s)",
                    algo.name()
                );
            } else {
                baseline = Some(report);
            }
        }
        // One instrumented pass per thread count: same trace through a
        // fresh observed engine. Its report must equal the detached
        // baseline (off means free, observed means unchanged).
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = registry.clone();
        let mut engine = engine_for(algo, per_shard, shards, disk, k, costs);
        engine.attach_obs(&sink, algo.name());
        let observed = engine.run(trace, t);
        assert_eq!(
            baseline.as_ref().expect("baseline set"),
            &observed,
            "{}: instrumentation changed the accounting at {t} thread(s)",
            algo.name()
        );
        if sweep.is_empty() {
            // First thread count: keep the sketch table and the bundle.
            top_videos = merge_top_videos(&observed);
            bundle_jsonl =
                engine_bundle(&observed, &registry, &vcdn_obs::default_rules()).to_jsonl();
        }
        eprintln!(
            "[contention] {:<8} {:>2} thread(s)  {:>12.0} req/s",
            algo.name(),
            t,
            requests / best_secs
        );
        sweep.push(Throughput {
            threads: t,
            best_secs,
        });
    }
    PolicyRun {
        report: baseline.expect("at least one thread count"),
        sweep,
        top_videos,
        bundle_jsonl,
    }
}

/// Merges the per-shard sketches into one table: shards partition videos,
/// so entries never collide — concatenate, re-sort by `(count desc,
/// video asc)` and keep the strongest 8. Deterministic: a pure function
/// of the per-shard exports.
fn merge_top_videos(report: &EngineReport) -> Vec<TopVideo> {
    let mut all: Vec<TopVideo> = report
        .shards
        .iter()
        .flat_map(|s| {
            s.top_videos.iter().map(|e| TopVideo {
                video: e.key >> ChunkId::INDEX_BITS,
                count: e.count,
                err: e.err,
            })
        })
        .collect();
    all.sort_by(|a, b| b.count.cmp(&a.count).then(a.video.cmp(&b.video)));
    all.truncate(8);
    all
}

/// The run parameters recorded in the document header.
struct RunShape<'a> {
    scale: f64,
    days: u64,
    shards: usize,
    disk: u64,
    requests: u64,
    threads: &'a [usize],
    cores: usize,
}

fn json_of(shape: &RunShape<'_>, rows: &[PolicyRun]) -> Json {
    let &RunShape {
        scale,
        days,
        shards,
        disk,
        requests,
        threads,
        cores,
    } = shape;
    let policies = rows
        .iter()
        .map(|p| {
            let agg = p.report.aggregate_overall();
            let steady = p.report.aggregate_steady();
            let shard_arr = |f: fn(&vcdn_sim::engine::ShardReport) -> u64| {
                Json::Arr(
                    p.report
                        .shards
                        .iter()
                        .map(|s| Json::Int(f(s) as i128))
                        .collect(),
                )
            };
            let base = p.sweep.first().map(|t| t.best_secs).unwrap_or(f64::NAN);
            let throughput = p
                .sweep
                .iter()
                .map(|t| {
                    Json::Obj(vec![
                        ("threads".into(), Json::Int(t.threads as i128)),
                        (
                            "requests_per_sec".into(),
                            Json::Float(requests as f64 / t.best_secs),
                        ),
                        ("speedup_vs_first".into(), Json::Float(base / t.best_secs)),
                    ])
                })
                .collect();
            // Shard imbalance, max/mean ×1000 — a pure function of the
            // per-shard counters, so golden-compared like the byte
            // totals it derives from.
            let skew = |max: u64, total: u64| {
                if total == 0 {
                    0
                } else {
                    (max as u128 * 1000 * p.report.shards.len() as u128 / total as u128) as i128
                }
            };
            let req_skew = skew(
                p.report
                    .shards
                    .iter()
                    .map(|s| s.requests)
                    .max()
                    .unwrap_or(0),
                p.report.shards.iter().map(|s| s.requests).sum(),
            );
            let byte_skew = skew(
                p.report
                    .shards
                    .iter()
                    .map(|s| s.overall.requested_bytes())
                    .max()
                    .unwrap_or(0),
                p.report
                    .shards
                    .iter()
                    .map(|s| s.overall.requested_bytes())
                    .sum(),
            );
            let top_videos = p
                .top_videos
                .iter()
                .map(|t| {
                    Json::Obj(vec![
                        ("video".into(), Json::Int(t.video as i128)),
                        ("count".into(), Json::Int(t.count as i128)),
                        ("err".into(), Json::Int(t.err as i128)),
                    ])
                })
                .collect();
            let policy = p.report.shards.first().map(|s| s.policy).unwrap_or("?");
            Json::Obj(vec![
                ("policy".into(), Json::Str(policy.into())),
                (
                    "efficiency_steady".into(),
                    Json::Float(p.report.efficiency()),
                ),
                (
                    "aggregate_hit_bytes".into(),
                    Json::Int(agg.hit_bytes as i128),
                ),
                (
                    "aggregate_fill_bytes".into(),
                    Json::Int(agg.fill_bytes as i128),
                ),
                (
                    "aggregate_redirect_bytes".into(),
                    Json::Int(agg.redirect_bytes as i128),
                ),
                (
                    "served_requests".into(),
                    Json::Int(agg.served_requests as i128),
                ),
                (
                    "redirected_requests".into(),
                    Json::Int(agg.redirected_requests as i128),
                ),
                (
                    "steady_hit_bytes".into(),
                    Json::Int(steady.hit_bytes as i128),
                ),
                (
                    "steady_fill_bytes".into(),
                    Json::Int(steady.fill_bytes as i128),
                ),
                (
                    "steady_redirect_bytes".into(),
                    Json::Int(steady.redirect_bytes as i128),
                ),
                ("shard_requests".into(), shard_arr(|s| s.requests)),
                ("shard_hit_bytes".into(), shard_arr(|s| s.overall.hit_bytes)),
                (
                    "shard_fill_bytes".into(),
                    shard_arr(|s| s.overall.fill_bytes),
                ),
                ("shard_used_chunks".into(), shard_arr(|s| s.used_chunks)),
                ("shard_skew_requests_x1000".into(), Json::Int(req_skew)),
                ("shard_skew_bytes_x1000".into(), Json::Int(byte_skew)),
                ("top_videos".into(), Json::Arr(top_videos)),
                ("throughput".into(), Json::Arr(throughput)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("bench".into(), Json::Str("contention".into())),
        ("seed".into(), Json::Int(EXPERIMENT_SEED as i128)),
        ("scale".into(), Json::Float(scale)),
        ("days".into(), Json::Int(days as i128)),
        ("alpha".into(), Json::Float(2.0)),
        ("shards".into(), Json::Int(shards as i128)),
        ("disk_chunks".into(), Json::Int(disk as i128)),
        ("requests".into(), Json::Int(requests as i128)),
        (
            "threads".into(),
            Json::Arr(threads.iter().map(|&t| Json::Int(t as i128)).collect()),
        ),
        ("cores".into(), Json::Int(cores as i128)),
        ("policies".into(), Json::Arr(policies)),
    ])
}

fn parse_threads(args: &Args) -> Vec<usize> {
    let spec: String = args
        .get("threads")
        .unwrap_or_else(|| "1,2,4,8,16".to_string());
    spec.split(',')
        .map(|s| match s.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(e) => args.fail(&format!("--threads entry {s:?}: {e}")),
        })
        .collect()
}

fn main() {
    let args = Args::from_env("contention");
    let (scale, days) = (args.scale(), args.days());
    let shards: usize = args.get("shards").unwrap_or(16);
    let reps: u32 = args.get("reps").unwrap_or(3).max(1);
    let out: String = args
        .get("out")
        .unwrap_or_else(|| "BENCH_PR8.json".to_string());
    let bundle_out: Option<String> = args.get("bundle");
    let check: Option<String> = args.get("check");
    let threads = parse_threads(&args);
    args.finish();

    // Record the machine's actual parallelism up front, and be honest on
    // stderr when the sweep asks for more workers than there are cores:
    // oversubscribed points measure scheduler interleaving, not scaling.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let max_threads = threads.iter().copied().max().unwrap_or(1);
    if cores < max_threads {
        eprintln!(
            "[contention] WARNING: {cores} online core(s) < {max_threads} requested \
             worker(s); oversubscribed sweep points do not measure real scaling"
        );
    }

    let k = ChunkSize::DEFAULT;
    let disk = scale.disk_chunks(PAPER_DISK_BYTES, k).max(shards as u64);
    let costs = CostModel::from_alpha(2.0).expect("valid alpha");
    eprintln!(
        "[contention] scale={} days={days} shards={shards} disk={disk} chunks, threads={threads:?}, reps={reps}, cores={cores}",
        scale.0
    );
    let t0 = Instant::now();
    let trace = trace_for(ServerProfile::europe(), scale, days);
    let requests = trace.len() as u64;
    let per_shard = shard_requests(&trace, shards);
    eprintln!(
        "[contention] trace: {requests} requests ({:.2?})",
        t0.elapsed()
    );

    let sweep_cfg = SweepCfg {
        shards,
        disk,
        k,
        costs,
        reps,
    };
    let mut rows = Vec::new();
    for algo in [Algo::Lru, Algo::Xlru, Algo::Cafe, Algo::Psychic] {
        rows.push(sweep_policy(algo, &trace, &per_shard, sweep_cfg, &threads));
    }

    let mut table = Table::new(vec![
        "policy",
        "efficiency",
        "threads:req/s",
        "best speedup",
    ]);
    for p in &rows {
        let base = p.sweep.first().map(|t| t.best_secs).unwrap_or(f64::NAN);
        let cells: Vec<String> = p
            .sweep
            .iter()
            .map(|t| format!("{}:{:.0}", t.threads, requests as f64 / t.best_secs))
            .collect();
        let best = p
            .sweep
            .iter()
            .map(|t| base / t.best_secs)
            .fold(f64::NEG_INFINITY, f64::max);
        let policy = p.report.shards.first().map(|s| s.policy).unwrap_or("?");
        table.row(vec![
            policy.to_string(),
            eff(p.report.efficiency()),
            cells.join(" "),
            format!("{best:.2}x"),
        ]);
    }
    println!("{}", table.render());

    let json = json_of(
        &RunShape {
            scale: scale.0,
            days,
            shards,
            disk,
            requests,
            threads: &threads,
            cores,
        },
        &rows,
    );
    if let Some(golden_path) = check {
        vcdn_bench::baseline::enforce_golden("contention", &json, &golden_path, &TIMING);
    }
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("[contention] wrote {out}");
    if let Some(path) = bundle_out {
        let doc: String = rows.iter().map(|p| p.bundle_jsonl.as_str()).collect();
        std::fs::write(&path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
        eprintln!("[contention] wrote {path} (engine telemetry bundles)");
    }
}
