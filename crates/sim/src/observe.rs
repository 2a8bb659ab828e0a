//! Telemetry collection for replays: wires a [`ReplayObserver`] to the
//! `vcdn-obs` registry, decision-event ring and time-series sampler, and
//! packages one replay's output as a [`TelemetryBundle`].
//!
//! Every recorder takes its per-request delta from the one
//! [`WindowInput::from_decision`]: the sampler and the health-window ring
//! here, the engine's per-shard rings in [`crate::engine`].
//! [`TelemetryConfig::new`] is also the single source of the engine's
//! instrumentation sizes (sketch slots, window width, ring bound).
//!
//! [`replay_with_telemetry`] is the one-call entry point: it attaches
//! scoped policy metrics, observes the replay, and returns the report
//! plus a JSONL-ready bundle. [`telemetry_cell`] wraps the same call as a
//! [`Cell`] for [`crate::runner::run_grid`] fan-out — each cell owns its
//! policy, registry, ring and sampler, so a grid's bundles are
//! byte-identical for any worker count.

use std::sync::Arc;

use vcdn_core::CachePolicy;
use vcdn_obs::topk::{SpaceSaving, TopKRecord};
use vcdn_obs::window::{WindowInput, WindowRing};
use vcdn_obs::{
    default_rules, DecisionEvent, EventRing, MetricsRegistry, MetricsSink, PolicyObs,
    ReplaySampler, TelemetryBundle, Verdict, Watchdog,
};
use vcdn_trace::Trace;
use vcdn_types::json::Json;
use vcdn_types::{ChunkId, CostModel, Decision, DurationMs};

use crate::replay::{DecisionCtx, ReplayObserver, ReplayReport, Replayer};
use crate::runner::{Cell, CellResult};

/// Telemetry collection knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Trace-time length of one [`vcdn_obs::SeriesSample`] interval.
    pub sample_interval: DurationMs,
    /// Decision events retained (the [`EventRing`] capacity); older events
    /// are displaced and counted as dropped.
    pub event_capacity: usize,
    /// Slots in the Space-Saving heavy-hitter sketch over the replay's
    /// video stream (0 disables the sketch and the bundle's topk lines).
    pub topk_k: usize,
    /// Trace-time width of one health window ([`vcdn_obs::window`]);
    /// [`DurationMs::ZERO`] disables the window plane and the watchdog.
    pub window: DurationMs,
    /// Closed health windows retained in the bounded ring (the watchdog
    /// still sees every window at close time; only the export is bounded).
    pub window_retain: usize,
}

impl TelemetryConfig {
    /// Hourly samples, 4096 retained events, an 8-slot heavy-hitter
    /// sketch, hourly health windows retaining the last 768 (32 days of
    /// trace time).
    pub fn new() -> TelemetryConfig {
        TelemetryConfig {
            sample_interval: DurationMs::HOUR,
            event_capacity: 4096,
            topk_k: 8,
            window: DurationMs::HOUR,
            window_retain: 768,
        }
    }

    /// Overrides the sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn with_sample_interval(mut self, interval: DurationMs) -> Self {
        assert!(interval.as_millis() > 0, "sample interval must be > 0");
        self.sample_interval = interval;
        self
    }

    /// Overrides the event-ring capacity.
    pub fn with_event_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "event capacity must be > 0");
        self.event_capacity = capacity;
        self
    }

    /// Overrides the heavy-hitter sketch capacity (0 disables).
    pub fn with_topk(mut self, k: usize) -> Self {
        self.topk_k = k;
        self
    }

    /// Overrides the health-window width ([`DurationMs::ZERO`] disables
    /// the window plane and the watchdog).
    pub fn with_window(mut self, width: DurationMs) -> Self {
        self.window = width;
        self
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::new()
    }
}

/// A [`ReplayObserver`] that records every decision into a metrics
/// registry, a bounded event ring and a trace-time sampler.
///
/// Construct with [`TelemetryObserver::new`], attach the same registry to
/// the policy (see [`replay_with_telemetry`], which does both), replay
/// with [`Replayer::replay_observed`], then call
/// [`TelemetryObserver::finish`] for the bundle.
pub struct TelemetryObserver {
    registry: Arc<MetricsRegistry>,
    ring: EventRing,
    sampler: ReplaySampler,
    topk: Option<SpaceSaving>,
    windows: Option<WindowRing>,
    watchdog: Watchdog,
    costs: CostModel,
    chunk_bytes: u64,
    meta: Vec<(String, Json)>,
}

impl TelemetryObserver {
    /// Creates an observer whose bundle exports `registry`'s metrics —
    /// the registry the policy's [`PolicyObs`] records into.
    pub fn new(
        registry: Arc<MetricsRegistry>,
        replayer: &Replayer,
        telemetry: &TelemetryConfig,
    ) -> TelemetryObserver {
        let cfg = replayer.config();
        TelemetryObserver {
            registry,
            ring: EventRing::new(telemetry.event_capacity),
            sampler: ReplaySampler::new(telemetry.sample_interval.as_millis(), cfg.costs),
            topk: (telemetry.topk_k > 0).then(|| SpaceSaving::new(telemetry.topk_k)),
            windows: (telemetry.window.as_millis() > 0)
                .then(|| WindowRing::new(telemetry.window.as_millis(), telemetry.window_retain)),
            // The unsharded replayer is one request stream.
            watchdog: Watchdog::new(default_rules(), cfg.costs, 1),
            costs: cfg.costs,
            chunk_bytes: cfg.chunk_size.bytes(),
            meta: Vec::new(),
        }
    }

    /// Adds a metadata entry to the eventual bundle's meta line.
    pub fn meta_entry(&mut self, key: &str, value: Json) -> &mut Self {
        self.meta.push((key.to_string(), value));
        self
    }

    /// Consumes the observer, assembling the bundle: meta entries, the
    /// registry's deterministic metric snapshots, the health windows and
    /// watchdog alerts, the time series and the retained events.
    pub fn finish(mut self) -> TelemetryBundle {
        let mut bundle = TelemetryBundle::new();
        bundle.meta = self.meta;
        bundle.metrics = self.registry.snapshot(true);
        if let Some(mut ring) = self.windows.take() {
            let watchdog = &mut self.watchdog;
            ring.finish(&mut |w| watchdog.on_window(w));
            bundle.set_windows(ring.closed_windows(), self.costs, ring.dropped());
        }
        bundle.alerts = self.watchdog.into_alerts();
        if let Some(sketch) = &self.topk {
            bundle.topk.extend(TopKRecord::ranked(0, &sketch.entries()));
        }
        bundle.events_dropped = self.ring.dropped();
        bundle.events = self.ring.iter_oldest_first().cloned().collect();
        bundle.series = self.sampler.finish();
        bundle
    }
}

impl ReplayObserver for TelemetryObserver {
    fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
        if let Some(sketch) = self.topk.as_mut() {
            sketch.record(ChunkId::new(ctx.request.video, 0).packed());
        }
        let verdict = match ctx.decision {
            Decision::Serve(o) => Verdict::Serve {
                hit_chunks: o.hit_chunks,
                filled_chunks: o.filled_chunks,
            },
            Decision::Redirect => Verdict::Redirect,
        };
        // The replayer is one stream with no dispatcher: no queue gap.
        let input = WindowInput::from_decision(
            ctx.request.t.as_millis(),
            ctx.decision,
            ctx.chunks,
            self.chunk_bytes,
            None,
        );
        self.ring.push(DecisionEvent::from_decision(
            ctx.seq,
            ctx.request,
            ctx.first_chunk,
            ctx.chunks as u32,
            ctx.policy,
            verdict,
            ctx.detail,
            input.evicted_chunks,
        ));
        self.sampler.record(
            &input,
            ctx.occupancy_chunks,
            ctx.capacity_chunks,
            ctx.detail.cache_age_ms,
        );
        if let Some(ring) = self.windows.as_mut() {
            let watchdog = &mut self.watchdog;
            ring.record(&input, &mut |w| watchdog.on_window(w));
        }
    }
}

/// Replays `trace` through `policy` with full telemetry: attaches scoped
/// policy metrics to a fresh registry, observes every decision, and
/// returns the ordinary report alongside the telemetry bundle.
///
/// The bundle's meta line records the policy, cost model, chunk size,
/// sample interval and trace identity; its metrics are the policy's
/// scoped counters/gauges/histograms in registration order. The policy is
/// detached again on return: the registry it wrote to is private to this
/// call.
pub fn replay_with_telemetry(
    replayer: &Replayer,
    trace: &Trace,
    policy: &mut dyn CachePolicy,
    telemetry: &TelemetryConfig,
) -> (ReplayReport, TelemetryBundle) {
    let registry = Arc::new(MetricsRegistry::new());
    let scope = policy.name();
    policy.attach_obs(PolicyObs::attach(
        Arc::clone(&registry) as Arc<dyn MetricsSink>,
        scope,
    ));
    let mut observer = TelemetryObserver::new(Arc::clone(&registry), replayer, telemetry);
    let cfg = replayer.config();
    observer.meta_entry("policy", Json::Str(scope.into()));
    observer.meta_entry("alpha", Json::Float(cfg.costs.alpha()));
    observer.meta_entry("chunk_bytes", Json::Int(cfg.chunk_size.bytes() as i128));
    observer.meta_entry(
        "interval_ms",
        Json::Int(telemetry.sample_interval.as_millis() as i128),
    );
    observer.meta_entry("window_ms", Json::Int(telemetry.window.as_millis() as i128));
    observer.meta_entry("topk_k", Json::Int(telemetry.topk_k as i128));
    observer.meta_entry("trace", Json::Str(trace.meta.name.clone()));
    observer.meta_entry("requests", Json::Int(trace.len() as i128));
    let report = replayer.replay_observed(trace, policy, &mut observer);
    policy.attach_obs(PolicyObs::noop());
    (report, observer.finish())
}

/// Wraps a telemetry replay as a [`Cell`] for [`crate::runner::run_grid`].
///
/// The policy is built *inside* the cell so every cell owns all of its
/// state (policy, registry, ring, sampler) — the runner's determinism
/// contract. The cell's label is recorded in the bundle's meta line as
/// `"cell"`.
pub fn telemetry_cell<'a, F>(
    label: impl Into<String>,
    replayer: Replayer,
    trace: &'a Trace,
    telemetry: TelemetryConfig,
    make_policy: F,
) -> Cell<'a, (ReplayReport, TelemetryBundle)>
where
    F: FnOnce() -> Box<dyn CachePolicy> + Send + 'a,
{
    let label = label.into();
    let cell_label = label.clone();
    Cell::new(label, move || {
        let mut policy = make_policy();
        let (report, mut bundle) =
            replay_with_telemetry(&replayer, trace, policy.as_mut(), &telemetry);
        bundle
            .meta
            .insert(0, ("cell".into(), Json::Str(cell_label)));
        (report, bundle)
    })
}

/// Concatenates a telemetry grid's bundles as one JSONL document, in cell
/// input order — the deterministic export `obs record` writes and
/// the determinism tests byte-compare.
pub fn grid_jsonl(results: &[CellResult<(ReplayReport, TelemetryBundle)>]) -> String {
    let mut out = String::new();
    for cell in results {
        out.push_str(&cell.value.1.to_jsonl());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::ReplayConfig;
    use crate::runner::run_grid;
    use vcdn_core::{CacheConfig, CafeCache, CafeConfig, LruCache, XlruCache};
    use vcdn_trace::{ServerProfile, TraceGenerator};
    use vcdn_types::json;
    use vcdn_types::{ChunkSize, CostModel};

    fn trace() -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), 29).generate(DurationMs::from_hours(12))
    }

    fn replayer(costs: CostModel) -> Replayer {
        Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs))
    }

    #[test]
    fn telemetry_replay_matches_plain_replay() {
        let t = trace();
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut plain = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let baseline = replayer(costs).replay(&t, &mut plain);

        let mut observed = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let (report, bundle) =
            replay_with_telemetry(&replayer(costs), &t, &mut observed, &TelemetryConfig::new());
        assert_eq!(report, baseline);
        assert!(!bundle.metrics.is_empty());
        assert!(!bundle.topk.is_empty());
        assert!(!bundle.windows.is_empty());
        assert!(!bundle.series.is_empty());
        assert!(!bundle.events.is_empty());
    }

    /// An xLRU that remembers whether the last handle it was given is
    /// live, and whether it was while requests arrived.
    struct Attachment {
        inner: XlruCache,
        attached: bool,
        attached_at_requests: Vec<bool>,
    }

    impl CachePolicy for Attachment {
        fn handle_request(&mut self, request: &vcdn_types::Request) -> vcdn_types::Decision {
            self.attached_at_requests.push(self.attached);
            self.inner.handle_request(request)
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn chunk_size(&self) -> ChunkSize {
            self.inner.chunk_size()
        }
        fn costs(&self) -> CostModel {
            self.inner.costs()
        }
        fn disk_used_chunks(&self) -> u64 {
            self.inner.disk_used_chunks()
        }
        fn disk_capacity_chunks(&self) -> u64 {
            self.inner.disk_capacity_chunks()
        }
        fn contains_chunk(&self, chunk: vcdn_types::ChunkId) -> bool {
            self.inner.contains_chunk(chunk)
        }
        fn attach_obs(&mut self, obs: PolicyObs) {
            self.attached = obs.enabled();
            self.inner.attach_obs(obs);
        }
        fn decision_detail(&self) -> vcdn_core::DecisionDetail {
            self.inner.decision_detail()
        }
    }

    #[test]
    fn telemetry_replay_detaches_the_policy() {
        let t = trace();
        let costs = CostModel::from_alpha(2.0).unwrap();
        let xlru = || XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let mut policy = Attachment {
            inner: xlru(),
            attached: false,
            attached_at_requests: Vec::new(),
        };
        let (_, bundle) =
            replay_with_telemetry(&replayer(costs), &t, &mut policy, &TelemetryConfig::new());
        assert_eq!(policy.attached_at_requests, vec![true; t.len()]);
        assert!(!policy.attached, "the private registry must be let go");
        // Detaching costs the bundle nothing.
        let (_, direct) =
            replay_with_telemetry(&replayer(costs), &t, &mut xlru(), &TelemetryConfig::new());
        assert_eq!(bundle.to_jsonl(), direct.to_jsonl());
    }

    #[test]
    fn windows_conserve_the_replay_totals() {
        // With no ring eviction, the sum of exported window deltas must
        // equal the replay's overall counters exactly, and window indices
        // must be contiguous from 0.
        let t = trace();
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut cache = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let (report, bundle) =
            replay_with_telemetry(&replayer(costs), &t, &mut cache, &TelemetryConfig::new());
        assert_eq!(bundle.windows_dropped, 0);
        let mut hit = 0u64;
        let mut fill = 0u64;
        let mut red = 0u64;
        let mut served = 0u64;
        let mut redirected = 0u64;
        for (i, w) in bundle.windows.iter().enumerate() {
            assert_eq!(w.index, i as u64, "window indices must be contiguous");
            hit += w.hit_bytes;
            fill += w.fill_bytes;
            red += w.redirect_bytes;
            served += w.served_requests;
            redirected += w.redirected_requests;
        }
        assert_eq!(hit, report.overall.hit_bytes);
        assert_eq!(fill, report.overall.fill_bytes);
        assert_eq!(red, report.overall.redirect_bytes);
        assert_eq!(served, report.overall.served_requests);
        assert_eq!(redirected, report.overall.redirected_requests);
        // The replayer is a single stream: skew inputs must reflect that.
        for w in &bundle.windows {
            assert_eq!(
                w.max_stream_requests,
                w.served_requests + w.redirected_requests
            );
            assert_eq!(w.queue_gap_count, 0, "no dispatcher, no gap sketch");
        }
    }

    #[test]
    fn disabling_windows_removes_the_sections() {
        let t = trace();
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let cfg = TelemetryConfig::new().with_window(DurationMs::ZERO);
        let (_, bundle) = replay_with_telemetry(&replayer(costs), &t, &mut cache, &cfg);
        assert!(bundle.windows.is_empty());
        assert!(bundle.alerts.is_empty());
        assert_eq!(bundle.windows_dropped, 0);
    }

    #[test]
    fn topk_records_bound_true_counts_and_rank_sequentially() {
        let t = trace();
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut cache = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let (_, bundle) =
            replay_with_telemetry(&replayer(costs), &t, &mut cache, &TelemetryConfig::new());
        let mut truth: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for r in &t.requests {
            *truth.entry(r.video.0).or_insert(0) += 1;
        }
        assert!(bundle.topk.len() <= 8);
        for (i, rec) in bundle.topk.iter().enumerate() {
            assert_eq!(rec.shard, 0);
            assert_eq!(rec.rank as usize, i + 1, "ranks must be sequential");
            let true_count = truth.get(&rec.video).copied().unwrap_or(0);
            assert!(
                rec.count >= true_count && rec.count - rec.err <= true_count,
                "video {}: sketch [{}, {}] vs true {true_count}",
                rec.video,
                rec.count - rec.err,
                rec.count
            );
        }
        // Any video hotter than n/k is guaranteed tracked.
        let n_over_k = t.len() as u64 / 8;
        for (&video, &count) in &truth {
            if count > n_over_k {
                assert!(
                    bundle.topk.iter().any(|r| r.video == video),
                    "heavy video {video} (true {count} > {n_over_k}) untracked"
                );
            }
        }
        // Disabling the sketch removes the lines and the meta points at 0.
        let off = TelemetryConfig::new().with_topk(0);
        let mut cache = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let (_, bundle_off) = replay_with_telemetry(&replayer(costs), &t, &mut cache, &off);
        assert!(bundle_off.topk.is_empty());
    }

    #[test]
    fn series_cumulative_matches_aggregate_eq2() {
        // The last sample's cumulative counters and efficiency must equal
        // the replay's overall aggregate exactly (Eq. 2 identity).
        let t = trace();
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut cache = CafeCache::new(CafeConfig::new(64, ChunkSize::DEFAULT, costs));
        let (report, bundle) =
            replay_with_telemetry(&replayer(costs), &t, &mut cache, &TelemetryConfig::new());
        let last = bundle.series.last().unwrap();
        assert_eq!(last.cum, report.overall);
        assert_eq!(last.cum_efficiency, report.overall.efficiency(costs));
    }

    #[test]
    fn metrics_agree_with_report_counters() {
        let t = trace();
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let (report, bundle) =
            replay_with_telemetry(&replayer(costs), &t, &mut cache, &TelemetryConfig::new());
        let metric = |name: &str| {
            bundle
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .value
        };
        assert_eq!(
            metric("lru.serve_requests_total"),
            report.overall.served_requests
        );
        assert_eq!(
            metric("lru.redirect_requests_total"),
            report.overall.redirected_requests
        );
        let k = ChunkSize::DEFAULT.bytes();
        assert_eq!(metric("lru.hit_chunks_total") * k, report.overall.hit_bytes);
        assert_eq!(
            metric("lru.fill_chunks_total") * k,
            report.overall.fill_bytes
        );
    }

    #[test]
    fn every_jsonl_line_parses() {
        let t = trace();
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut cache = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let cfg = TelemetryConfig::new().with_event_capacity(64);
        let (_, bundle) = replay_with_telemetry(&replayer(costs), &t, &mut cache, &cfg);
        let jsonl = bundle.to_jsonl();
        for line in jsonl.lines() {
            json::parse(line).unwrap_or_else(|e| panic!("bad JSONL line {line}: {e:?}"));
        }
        // Ring capacity 64 on a non-trivial trace: drops must be counted.
        assert_eq!(bundle.events.len(), 64);
        assert!(bundle.events_dropped > 0);
    }

    #[test]
    fn telemetry_grid_is_worker_count_invariant() {
        let t = trace();
        let costs = CostModel::from_alpha(2.0).unwrap();
        let jsonl_for = |workers: usize| {
            let cells = vec![
                telemetry_cell(
                    "xlru",
                    replayer(costs),
                    &t,
                    TelemetryConfig::new(),
                    move || {
                        Box::new(XlruCache::new(CacheConfig::new(
                            64,
                            ChunkSize::DEFAULT,
                            costs,
                        ))) as Box<dyn CachePolicy>
                    },
                ),
                telemetry_cell(
                    "cafe",
                    replayer(costs),
                    &t,
                    TelemetryConfig::new(),
                    move || {
                        Box::new(CafeCache::new(CafeConfig::new(
                            64,
                            ChunkSize::DEFAULT,
                            costs,
                        ))) as Box<dyn CachePolicy>
                    },
                ),
            ];
            grid_jsonl(&run_grid(cells, workers).results)
        };
        assert_eq!(jsonl_for(1), jsonl_for(4));
    }
}
