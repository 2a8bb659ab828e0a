//! Deterministic scenario traces for the watchdog validation suite.
//!
//! Scenario suites stress the telemetry plane the way production
//! incidents do (ROADMAP keeps the rest of them, the live-edge
//! scenarios, parked). The first one is the classic
//! CDN incident: a **flash crowd** — a video goes viral mid-trace and a
//! surge of sessions for its (previously cold) renditions slams one
//! server. The surge churns the cache: fills for the viral chunks evict
//! the working set, the cache age collapses, and xLRU's Eq. 5 defense
//! starts redirecting the long tail. Interval efficiency drops and the
//! redirect rate spikes for the duration of the burst — exactly the
//! signature the `efficiency-drop` and `redirect-spike` rules of
//! [`vcdn_obs::RULES`] exist to catch.
//!
//! Everything here is seeded and trace-clock-driven, so the scenario's
//! windows, alerts and rendered alert log are byte-identical across
//! worker counts and machines — CI pins the alert log as a golden file.

use std::sync::Arc;

use vcdn_core::{CachePolicy, XlruCache};
use vcdn_obs::{render_alert_log, MetricsRegistry, MetricsSink, TelemetryBundle};
use vcdn_sim::engine::{engine_bundle, EngineConfig, EngineReport, ShardedEngine};
use vcdn_trace::rng::DetRng;
use vcdn_trace::{ServerProfile, Trace, TraceGenerator};
use vcdn_types::{ByteRange, ChunkSize, CostModel, DurationMs, Request, Timestamp, VideoId};

use crate::EXPERIMENT_SEED;

/// Shape of the synthetic flash crowd.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdSpec {
    /// Base trace length in days.
    pub days: u64,
    /// Burst start as a fraction of the trace duration.
    pub start_frac: f64,
    /// Burst length in hours (spanning several one-hour health windows,
    /// so the `for N` debounced rules can fire).
    pub burst_hours: u64,
    /// Requests in the burst.
    pub burst_requests: usize,
    /// Distinct renditions of the viral video (bitrates/languages); all
    /// are fresh ids above the base catalog.
    pub renditions: u64,
    /// Bytes per rendition.
    pub rendition_bytes: u64,
    /// Bytes each burst request pulls (a range within its rendition).
    pub request_bytes: u64,
}

impl Default for FlashCrowdSpec {
    fn default() -> Self {
        FlashCrowdSpec {
            days: 2,
            start_frac: 0.5,
            burst_hours: 3,
            burst_requests: 1_500,
            renditions: 6,
            rendition_bytes: 64 * 1024 * 1024,
            request_bytes: 8 * 1024 * 1024,
        }
    }
}

/// The tiny-test base trace with a flash crowd spliced in: burst
/// requests for `spec.renditions` fresh video ids, uniformly spread over
/// `[start_frac, start_frac + burst_hours]`, stably merged into the base
/// request stream by timestamp (base requests win ties, so the base
/// replay order is undisturbed).
pub fn flash_crowd_trace(spec: &FlashCrowdSpec) -> Trace {
    let base = TraceGenerator::new(ServerProfile::tiny_test(), EXPERIMENT_SEED)
        .generate(DurationMs::from_days(spec.days));
    let duration = base.meta.duration;
    let first_viral = base.requests.iter().map(|r| r.video.0).max().unwrap_or(0) + 1;

    let start_ms = (duration.as_millis() as f64 * spec.start_frac) as u64;
    let burst_ms = DurationMs::from_hours(spec.burst_hours).as_millis();
    let mut rng = DetRng::new(EXPERIMENT_SEED ^ 0xf1a5_4c40);
    let mut burst: Vec<Request> = (0..spec.burst_requests)
        .map(|i| {
            let t = start_ms.saturating_add((i as u64 * burst_ms) / spec.burst_requests as u64);
            let video = VideoId(first_viral + rng.below(spec.renditions));
            let start = rng.below(spec.rendition_bytes.saturating_sub(spec.request_bytes) + 1);
            let bytes = ByteRange::new(start, start.saturating_add(spec.request_bytes) - 1)
                .expect("start <= end by construction");
            Request::new(video, bytes, Timestamp(t))
        })
        .collect();

    // Stable two-way merge by timestamp; both inputs are sorted.
    let mut requests = Vec::with_capacity(base.requests.len() + burst.len());
    let mut bi = burst.drain(..).peekable();
    for r in &base.requests {
        while bi.peek().is_some_and(|b| b.t < r.t) {
            requests.push(bi.next().expect("peeked"));
        }
        requests.push(*r);
    }
    requests.extend(bi);

    let mut meta = base.meta.clone();
    meta.name = "flash-crowd".into();
    meta.description = format!(
        "tiny-test {}d + viral burst: {} requests over {}h from {:.0}% across {} renditions",
        spec.days,
        spec.burst_requests,
        spec.burst_hours,
        spec.start_frac * 100.0,
        spec.renditions,
    );
    Trace { meta, requests }
}

/// Outcome of the canonical flash-crowd run, ready for rendering,
/// golden comparison and CI gating.
#[derive(Debug)]
pub struct FlashCrowdRun {
    /// The engine's accounting.
    pub report: EngineReport,
    /// The full `vcdn-telemetry/1` bundle (windows + alerts included).
    pub bundle: TelemetryBundle,
    /// The rendered watchdog alert log (the pinned golden).
    pub alert_log: String,
}

/// Runs the canonical flash-crowd scenario: the [`flash_crowd_trace`]
/// through a 4-shard xLRU engine sized so the burst's fills churn the
/// working set, instrumented, on `workers` threads, judged by the stock
/// [`vcdn_obs::RULES`]. Deterministic: the report's accounting, the
/// bundle and the alert log are identical for any `workers`.
pub fn run_flash_crowd(workers: usize) -> FlashCrowdRun {
    let trace = flash_crowd_trace(&FlashCrowdSpec::default());
    let k = ChunkSize::DEFAULT;
    let costs = CostModel::from_alpha(2.0).expect("valid alpha");
    let cfg = EngineConfig::new(4, 64, k, costs).expect("valid engine config");
    let mut engine = ShardedEngine::try_new(cfg, |_, cache| -> Box<dyn CachePolicy> {
        Box::new(XlruCache::new(cache))
    })
    .expect("engine builds");
    let registry = Arc::new(MetricsRegistry::new());
    let sink: Arc<dyn MetricsSink> = registry.clone();
    engine.attach_obs(&sink, "flash");
    let report = engine.run(&trace, workers);
    let bundle = engine_bundle(&engine, &registry);
    let alert_log = render_alert_log(&bundle.alerts);
    FlashCrowdRun {
        report,
        bundle,
        alert_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flash_crowd_trace_is_sorted_and_spliced() {
        let spec = FlashCrowdSpec::default();
        let trace = flash_crowd_trace(&spec);
        assert_eq!(trace.meta.name, "flash-crowd");
        for pair in trace.requests.windows(2) {
            assert!(pair[0].t <= pair[1].t, "merge broke timestamp order");
        }
        // The burst's renditions are fresh ids, above the base catalog,
        // and all of its requests land inside the burst interval.
        let base = TraceGenerator::new(ServerProfile::tiny_test(), EXPERIMENT_SEED)
            .generate(DurationMs::from_days(spec.days));
        let max_base = base.requests.iter().map(|r| r.video.0).max().unwrap();
        let viral: Vec<&Request> = trace
            .requests
            .iter()
            .filter(|r| r.video.0 > max_base)
            .collect();
        assert_eq!(viral.len(), spec.burst_requests);
        let start = (base.meta.duration.as_millis() as f64 * spec.start_frac) as u64;
        let end = start + DurationMs::from_hours(spec.burst_hours).as_millis();
        for r in &viral {
            assert!(r.t.0 >= start && r.t.0 < end, "burst request at {}", r.t.0);
        }
        assert_eq!(trace.requests.len(), base.requests.len() + viral.len());
    }

    #[test]
    fn flash_crowd_run_is_deterministic_across_workers() {
        let a = run_flash_crowd(1);
        let b = run_flash_crowd(4);
        assert_eq!(a.report, b.report);
        assert_eq!(a.bundle.to_jsonl(), b.bundle.to_jsonl());
        assert_eq!(a.alert_log, b.alert_log);
    }
}
