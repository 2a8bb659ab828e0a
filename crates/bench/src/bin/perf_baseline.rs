//! Tracked throughput baseline: replays the standard generated workload
//! through all four policies (LRU, xLRU, Cafe, Psychic) single-threaded,
//! reporting simulated requests/sec and steady-state efficiency per
//! policy, and writes the result as JSON (`BENCH_PR2.json` by default) so
//! the repo carries a measured perf trajectory from PR 2 onward.
//!
//! Replay *metrics* (byte counters, efficiency) are deterministic; only
//! the timing fields vary across machines. `--check <file>` re-verifies
//! the deterministic fields against a previously written JSON — the CI
//! perf smoke job uses it to pin the replay outputs while still uploading
//! fresh timing numbers as an artifact.
//!
//! Besides whole-replay throughput, each policy gets one extra observed
//! replay that buckets per-request decide-path wall latency into the
//! vcdn-obs log histogram; the JSON carries `decide_ns_p50` /
//! `decide_ns_p99` / `decide_ns_mean` per policy (timing fields, excluded
//! from `--check` like the throughput numbers — see OBSERVABILITY.md).
//!
//! Flags: `--scale <f>` (default 1/16), `--days <n>` (default 30),
//! `--reps <n>` timed replays per policy, best-of (default 3),
//! `--out <path>` (default `BENCH_PR2.json`), `--check <path>`.

use std::time::Instant;

use vcdn_bench::{trace_for, Algo, Args, EXPERIMENT_SEED, PAPER_DISK_BYTES};
use vcdn_obs::histogram::{bucket_index, HistogramSnapshot, BUCKETS};
use vcdn_sim::report::{eff, Table};
use vcdn_sim::{DecisionCtx, ReplayConfig, ReplayObserver, ReplayReport, Replayer};
use vcdn_trace::ServerProfile;
use vcdn_types::json::Json;
use vcdn_types::{ChunkSize, CostModel};

/// Buckets per-request decide-path wall latency (ns) into the shared
/// vcdn-obs log-histogram layout. Runs on its own replay so the timed
/// best-of reps stay clock-free.
struct LatencyObserver {
    hist: HistogramSnapshot,
}

impl LatencyObserver {
    fn new() -> Self {
        LatencyObserver {
            hist: HistogramSnapshot {
                count: 0,
                sum: 0,
                buckets: vec![0; BUCKETS],
            },
        }
    }
}

impl ReplayObserver for LatencyObserver {
    fn wants_timing(&self) -> bool {
        true
    }

    fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
        if let Some(ns) = ctx.latency_ns {
            self.hist.count += 1;
            self.hist.sum += ns;
            self.hist.buckets[bucket_index(ns)] += 1;
        }
    }
}

/// One policy's measured row.
struct PolicyPerf {
    report: ReplayReport,
    best_secs: f64,
    decide_ns: HistogramSnapshot,
}

fn json_of(scale: f64, days: u64, requests: u64, rows: &[PolicyPerf]) -> Json {
    let policies = rows
        .iter()
        .map(|p| {
            let t = &p.report.steady;
            Json::Obj(vec![
                ("policy".into(), Json::Str(p.report.policy.into())),
                (
                    "requests_per_sec".into(),
                    Json::Float(requests as f64 / p.best_secs),
                ),
                ("replay_wall_ms".into(), Json::Float(p.best_secs * 1_000.0)),
                (
                    "decide_ns_p50".into(),
                    Json::Int(p.decide_ns.quantile_upper_bound(0.50) as i128),
                ),
                (
                    "decide_ns_p99".into(),
                    Json::Int(p.decide_ns.quantile_upper_bound(0.99) as i128),
                ),
                ("decide_ns_mean".into(), Json::Float(p.decide_ns.mean())),
                (
                    "efficiency_steady".into(),
                    Json::Float(p.report.efficiency()),
                ),
                ("steady_hit_bytes".into(), Json::Int(t.hit_bytes as i128)),
                ("steady_fill_bytes".into(), Json::Int(t.fill_bytes as i128)),
                (
                    "steady_redirect_bytes".into(),
                    Json::Int(t.redirect_bytes as i128),
                ),
                (
                    "overall_hit_bytes".into(),
                    Json::Int(p.report.overall.hit_bytes as i128),
                ),
                (
                    "overall_fill_bytes".into(),
                    Json::Int(p.report.overall.fill_bytes as i128),
                ),
                (
                    "overall_redirect_bytes".into(),
                    Json::Int(p.report.overall.redirect_bytes as i128),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("bench".into(), Json::Str("perf_baseline".into())),
        ("seed".into(), Json::Int(EXPERIMENT_SEED as i128)),
        ("scale".into(), Json::Float(scale)),
        ("days".into(), Json::Int(days as i128)),
        ("alpha".into(), Json::Float(2.0)),
        ("requests".into(), Json::Int(requests as i128)),
        ("policies".into(), Json::Arr(policies)),
    ])
}

/// Machine-dependent timing fields, excluded from golden comparison
/// (see `vcdn_bench::baseline` for the shared diff machinery).
const TIMING: [&str; 5] = [
    "requests_per_sec",
    "replay_wall_ms",
    "decide_ns_p50",
    "decide_ns_p99",
    "decide_ns_mean",
];

fn main() {
    let args = Args::from_env("perf_baseline");
    let (scale, days) = (args.scale(), args.days());
    let reps: u32 = args.get("reps").unwrap_or(3).max(1);
    let out: String = args
        .get("out")
        .unwrap_or_else(|| "BENCH_PR2.json".to_string());
    let check: Option<String> = args.get("check");
    args.finish();

    let k = ChunkSize::DEFAULT;
    let disk = scale.disk_chunks(PAPER_DISK_BYTES, k);
    let costs = CostModel::from_alpha(2.0).expect("valid alpha");
    eprintln!(
        "[perf_baseline] scale={} days={days} disk={disk} chunks, alpha=2, reps={reps}",
        scale.0
    );
    let t0 = Instant::now();
    let trace = trace_for(ServerProfile::europe(), scale, days);
    let requests = trace.len() as u64;
    eprintln!(
        "[perf_baseline] trace: {requests} requests ({:.2?})",
        t0.elapsed()
    );

    // Bench-mode replay: per-request invariant checks off (the test suite
    // keeps them on); single-threaded so requests/sec is a clean per-core
    // number.
    let replayer = Replayer::new(ReplayConfig::bench(k, costs));
    let mut rows = Vec::new();
    for algo in [Algo::Lru, Algo::Xlru, Algo::Cafe, Algo::Psychic] {
        let mut best_secs = f64::INFINITY;
        let mut report = None;
        for _ in 0..reps {
            let mut policy = algo.build(&trace, disk, k, costs);
            let t0 = Instant::now();
            let r = replayer.replay(&trace, policy.as_mut());
            best_secs = best_secs.min(t0.elapsed().as_secs_f64());
            if let Some(prev) = &report {
                assert_eq!(prev, &r, "{}: replay is not deterministic", algo.name());
            }
            report = Some(r);
        }
        let report = report.expect("reps >= 1");
        // One observed replay for the decide-path latency histogram; the
        // per-request clock reads make it slower than the timed reps, so
        // it runs separately and must reproduce the same report.
        let mut observer = LatencyObserver::new();
        let mut policy = algo.build(&trace, disk, k, costs);
        let observed = replayer.replay_observed(&trace, policy.as_mut(), &mut observer);
        assert_eq!(
            report,
            observed,
            "{}: observed replay diverged",
            algo.name()
        );
        let decide_ns = observer.hist;
        eprintln!(
            "[perf_baseline] {:<8} {:>10.0} req/s  efficiency {:.4}  decide p50/p99 {}ns/{}ns",
            report.policy,
            requests as f64 / best_secs,
            report.efficiency(),
            decide_ns.quantile_upper_bound(0.50),
            decide_ns.quantile_upper_bound(0.99),
        );
        rows.push(PolicyPerf {
            report,
            best_secs,
            decide_ns,
        });
    }

    let mut table = Table::new(vec!["policy", "req/s", "efficiency", "steady bytes h/f/r"]);
    for p in &rows {
        let t = &p.report.steady;
        table.row(vec![
            p.report.policy.to_string(),
            format!("{:.0}", requests as f64 / p.best_secs),
            eff(p.report.efficiency()),
            format!("{}/{}/{}", t.hit_bytes, t.fill_bytes, t.redirect_bytes),
        ]);
    }
    println!("{}", table.render());

    let json = json_of(scale.0, days, requests, &rows);
    if let Some(golden_path) = check {
        vcdn_bench::baseline::enforce_golden("perf_baseline", &json, &golden_path, &TIMING);
    }
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("write {out}: {e}"));
    eprintln!("[perf_baseline] wrote {out}");
}
