//! Opt-in soak test: a heavier replay through every algorithm with all
//! invariant checks enabled. Excluded from the default run; execute with
//! `cargo test --test soak -- --ignored`.

use std::sync::Arc;

use vcdn::cache::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig,
    XlruCache,
};
use vcdn::obs::{MetricsRegistry, MetricsSink};
use vcdn::sim::engine::{engine_bundle, EngineConfig, ShardedEngine};
use vcdn::sim::{ReplayConfig, Replayer};
use vcdn::trace::{ServerProfile, TraceGenerator};
use vcdn::types::{ChunkSize, CostModel, DurationMs};

/// Seeded concurrency stress for the sharded serving engine: a long trace
/// through 16 shards on 8 worker threads, repeated three times, asserting
/// the exported `vcdn-telemetry/1` JSONL is byte-identical across
/// repetitions (the `cmp` in test form). A torn atomic update, a racy
/// per-shard counter or any ordering-dependent accounting shows up as a
/// bundle diff here before it ever reaches CI's cmp job.
#[test]
fn concurrent_engine_stress_repeats_bit_identical_telemetry() {
    let k = ChunkSize::DEFAULT;
    let costs = CostModel::from_alpha(2.0).expect("valid");
    let profile = ServerProfile::europe().scaled(1.0 / 16.0);
    let trace = TraceGenerator::new(profile, 77_177).generate(DurationMs::from_days(7));
    assert!(
        trace.len() > 20_000,
        "stress trace too small: {}",
        trace.len()
    );

    let run_once = || {
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = registry.clone();
        let cfg = EngineConfig::new(16, 4 * 1024, k, costs).expect("valid engine config");
        let mut engine = ShardedEngine::try_new(cfg, |_, cache| -> Box<dyn CachePolicy> {
            Box::new(XlruCache::new(cache))
        })
        .expect("engine builds");
        engine.attach_obs(&sink, "stress");
        let report = engine.run(&trace, 8);
        (engine_bundle(&engine, &registry).to_jsonl(), report)
    };

    let (first_jsonl, first_report) = run_once();
    assert!(
        first_jsonl.lines().count() > 16,
        "bundle suspiciously small"
    );
    assert_eq!(first_report.total_requests() as usize, trace.len());
    for rep in 1..3 {
        let (jsonl, report) = run_once();
        assert_eq!(first_report, report, "rep {rep}: engine report diverged");
        assert_eq!(
            first_jsonl, jsonl,
            "rep {rep}: telemetry JSONL diverged across identical concurrent runs"
        );
    }
}

#[test]
#[ignore = "heavy: ~1 minute; run with --ignored"]
fn month_long_soak_with_invariant_checks() {
    let k = ChunkSize::DEFAULT;
    let profile = ServerProfile::europe().scaled(1.0 / 64.0);
    let trace = TraceGenerator::new(profile, 424242).generate(DurationMs::from_days(30));
    assert!(
        trace.len() > 10_000,
        "soak trace too small: {}",
        trace.len()
    );
    let disk = 8 * 1024;
    for alpha in [0.5, 1.0, 2.0, 4.0] {
        let costs = CostModel::from_alpha(alpha).expect("valid");
        let replayer = Replayer::new(ReplayConfig::new(k, costs)); // checks on
        let mut policies: Vec<Box<dyn CachePolicy>> = vec![
            Box::new(LruCache::new(CacheConfig::new(disk, k, costs))),
            Box::new(XlruCache::new(CacheConfig::new(disk, k, costs))),
            Box::new(CafeCache::new(CafeConfig::new(disk, k, costs))),
            Box::new(PsychicCache::new(
                PsychicConfig::new(disk, k, costs),
                &trace.requests,
            )),
        ];
        let mut efficiencies = Vec::new();
        for p in &mut policies {
            let r = replayer.replay(&trace, p.as_mut());
            assert_eq!(r.overall.total_requests() as usize, trace.len());
            efficiencies.push((r.policy, r.efficiency()));
        }
        // Psychic dominates the online caches at every alpha.
        let by_name = |n: &str| {
            efficiencies
                .iter()
                .find(|(p, _)| *p == n)
                .map(|(_, e)| *e)
                .expect("policy ran")
        };
        assert!(
            by_name("psychic") >= by_name("cafe") - 0.02,
            "alpha={alpha}"
        );
        assert!(
            by_name("psychic") >= by_name("xlru") - 0.02,
            "alpha={alpha}"
        );
        if alpha >= 2.0 {
            assert!(
                by_name("cafe") > by_name("xlru"),
                "alpha={alpha}: cafe must win under ingress constraint"
            );
        }
    }
}
