//! Writer ≡ reader on real bundles: every `vcdn-telemetry/1` document the
//! repo produces or tracks reads back through
//! [`TelemetryBundle::parse_jsonl`], re-serialises to the same bytes, and
//! passes [`check`]; and a bundle read back from its own export holds the
//! sections it was written from.

use std::sync::Arc;

use vcdn_bench::scenario::run_flash_crowd;
use vcdn_bench::Algo;
use vcdn_core::{CacheConfig, CachePolicy, XlruCache};
use vcdn_obs::{check, MetricsRegistry, MetricsSink, TelemetryBundle};
use vcdn_sim::engine::{engine_bundle, EngineConfig, ShardedEngine};
use vcdn_sim::observe::{replay_with_telemetry, TelemetryConfig};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::{ServerProfile, Trace, TraceGenerator};
use vcdn_types::{ChunkSize, CostModel, DurationMs, TrafficCounter};

fn trace() -> Trace {
    TraceGenerator::new(ServerProfile::tiny_test(), 29).generate(DurationMs::from_hours(12))
}

/// `text` reads, writes back byte for byte and passes `check`; returns
/// the bundles read.
fn round_trip(text: &str, what: &str) -> Vec<TelemetryBundle> {
    let bundles = TelemetryBundle::parse_jsonl(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    let written: String = bundles.iter().map(TelemetryBundle::to_jsonl).collect();
    assert!(written == text, "{what}: re-serialisation differs");
    for b in &bundles {
        assert_eq!(check(b), Vec::<String>::new(), "{what} ({})", b.label());
    }
    bundles
}

/// `b`'s export read back gives `b`'s sections — except what a sample
/// line does not carry, the cumulative request counts.
fn assert_reads_back(b: &TelemetryBundle, what: &str) {
    let read = round_trip(&b.to_jsonl(), what);
    let [read] = &read[..] else {
        panic!("{what}: {} bundles", read.len())
    };
    assert_eq!(read.meta, b.meta, "{what}");
    assert_eq!(read.metrics, b.metrics, "{what}");
    assert_eq!(read.topk, b.topk, "{what}");
    assert_eq!(read.windows, b.windows, "{what}");
    assert_eq!(read.alerts, b.alerts, "{what}");
    assert_eq!(read.windows_dropped, b.windows_dropped, "{what}");
    assert_eq!(read.events, b.events, "{what}");
    assert_eq!(read.events_dropped, b.events_dropped, "{what}");
    let mut series = b.series.clone();
    for s in &mut series {
        s.cum = TrafficCounter {
            served_requests: 0,
            redirected_requests: 0,
            ..s.cum
        };
    }
    assert_eq!(read.series, series, "{what}");
}

#[test]
fn replay_bundles_of_every_policy_and_shape_read_back() {
    let trace = trace();
    let k = ChunkSize::DEFAULT;
    let costs = CostModel::from_alpha(2.0).unwrap();
    let replayer = Replayer::new(ReplayConfig::new(k, costs));
    let shapes = [
        ("default", TelemetryConfig::new()),
        (
            "16-event ring",
            TelemetryConfig::new().with_event_capacity(16),
        ),
        (
            "windows disabled",
            TelemetryConfig::new().with_window(DurationMs::ZERO),
        ),
    ];
    for algo in [Algo::Lru, Algo::Xlru, Algo::Cafe, Algo::Psychic] {
        for (shape, telemetry) in &shapes {
            let mut policy = algo.build(&trace.requests, CacheConfig::new(64, k, costs));
            let (_, bundle) = replay_with_telemetry(&replayer, &trace, policy.as_mut(), telemetry);
            if *shape == "16-event ring" {
                assert!(bundle.events_dropped > 0, "the ring must have wrapped");
            }
            assert_reads_back(&bundle, &format!("{} {shape}", algo.name()));
        }
    }
}

#[test]
fn engine_and_flash_crowd_bundles_read_back() {
    let costs = CostModel::from_alpha(2.0).unwrap();
    let cfg = EngineConfig::new(4, 96, ChunkSize::DEFAULT, costs).unwrap();
    let mut engine = ShardedEngine::try_new(cfg, |_, cache| -> Box<dyn CachePolicy> {
        Box::new(XlruCache::new(cache))
    })
    .unwrap();
    let registry = Arc::new(MetricsRegistry::new());
    let sink: Arc<dyn MetricsSink> = registry.clone();
    engine.attach_obs(&sink, "rt");
    engine.run(&trace(), 2);
    let bundle = engine_bundle(&engine, &registry);
    assert_reads_back(&bundle, "4-shard engine");
    assert_reads_back(&run_flash_crowd(2).bundle, "flash crowd");
}

#[test]
fn tracked_documents_read_back() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    for (path, bundles) in [
        ("results/telemetry_sample.jsonl", 4),
        ("crates/bench/goldens/engine_bundle_xlru_4shards.jsonl", 1),
    ] {
        let text = std::fs::read_to_string(format!("{root}/{path}")).unwrap();
        assert_eq!(round_trip(&text, path).len(), bundles, "{path}");
    }
}
