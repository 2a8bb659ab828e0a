//! Telemetry collection for replays: wires a [`ReplayObserver`] to the
//! `vcdn-obs` registry, decision-event ring, health windows and
//! time-series sampler, and packages one replay's output as a
//! [`TelemetryBundle`].
//!
//! Every window recorder takes its per-request delta from the one
//! [`WindowInput::from_decision`]: the observer's one ring here — whose
//! closed windows fold into both the health windows and the series — and
//! the engine's per-shard rings in [`crate::engine`].
//! [`TelemetryConfig::new`] is also the single source of the engine's
//! instrumentation sizes (sketch slots, window width), and
//! [`WINDOW_RETAIN`] bounds every retained window sequence.
//!
//! The policy metric family is recorded here too, not by the policy:
//! [`TelemetryObserver`] registers it under the policy's name and records
//! each decision and the occupancy after it from the [`DecisionCtx`], so a
//! policy — or a wrapper around one — holds no writer and forwards nothing.
//!
//! [`replay_with_telemetry`] is the one-call entry point: it observes the
//! replay into a fresh registry and returns the report plus a JSONL-ready
//! bundle. [`telemetry_cell`] wraps the same call as a
//! [`Cell`] for [`crate::runner::run_grid`] fan-out — each cell owns its
//! policy, registry, ring and sampler, so a grid's bundles are
//! byte-identical for any worker count.

use std::collections::VecDeque;
use std::sync::Arc;

use vcdn_core::CachePolicy;
use vcdn_obs::topk::{SpaceSaving, TopKRecord};
use vcdn_obs::window::{WindowFold, WindowInput, WindowRing, WindowStats};
use vcdn_obs::{
    DecisionEvent, EventRing, MetricsRegistry, PolicyObs, ReplaySampler, TelemetryBundle, Verdict,
};
use vcdn_trace::Trace;
use vcdn_types::json::Json;
use vcdn_types::{ChunkId, CostModel, Decision, DurationMs};

use crate::replay::{DecisionCtx, ReplayObserver, ReplayReport, Replayer};
use crate::runner::{Cell, CellResult};

/// Closed health windows every recorder retains for export — the
/// Replayer's health windows and each engine shard's ring — 32 days of
/// hourly windows. Older windows are counted as dropped, and the watchdog,
/// which judges the exported windows only, never sees them.
pub const WINDOW_RETAIN: usize = 768;

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
}

impl TelemetryConfig {
    /// Hourly samples, 4096 retained events, an 8-slot heavy-hitter
    /// sketch and hourly health windows (the last [`WINDOW_RETAIN`]
    /// retained).
    pub fn new() -> TelemetryConfig {
        TelemetryConfig {
            sample_interval: DurationMs::HOUR,
            event_capacity: 4096,
            topk_k: 8,
            window: DurationMs::HOUR,
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

    /// Whether the sample interval and the health-window width fold onto
    /// the observer's one ring: windows off, or one width a whole multiple
    /// of the other.
    pub fn folds(&self) -> bool {
        let (interval, window) = (self.sample_interval.as_millis(), self.window.as_millis());
        window == 0 || interval.is_multiple_of(window) || window.is_multiple_of(interval)
    }

    /// The width (ms) of the observer's one window ring: the finer of the
    /// sample interval and the health-window width — the interval alone
    /// with windows off. The coarser of the two is folded from the windows
    /// it closes ([`WindowFold`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`TelemetryConfig::folds`]: 90-minute samples over
    /// hourly windows have no ring both could be folded from.
    pub fn ring_width_ms(&self) -> u64 {
        let (interval, window) = (self.sample_interval.as_millis(), self.window.as_millis());
        assert!(
            self.folds(),
            "sample interval {interval} ms and health window {window} ms: \
             neither is a whole multiple of the other"
        );
        interval.min(if window == 0 { interval } else { window })
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig::new()
    }
}

/// A [`ReplayObserver`] that records every decision into the policy
/// metric family in a metrics registry, a bounded event ring, health
/// windows and a trace-time sampler.
///
/// Construct with [`TelemetryObserver::new`] (see [`replay_with_telemetry`]),
/// replay with [`Replayer::replay_observed`], then call
/// [`TelemetryObserver::finish`] for the bundle.
///
/// A request is bucketed into trace time once: the observer holds one
/// [`WindowRing`], [`TelemetryConfig::ring_width_ms`] wide, and every
/// window it closes is folded into the health windows and into the
/// sampler's series.
pub struct TelemetryObserver {
    registry: Arc<MetricsRegistry>,
    policy: PolicyObs,
    ring: EventRing,
    topk: Option<SpaceSaving>,
    windows: WindowRing,
    health: Option<Health>,
    sampler: ReplaySampler,
    costs: CostModel,
    chunk_bytes: u64,
    meta: Vec<(String, Json)>,
}

/// The health-window plane: the ring's windows folded to the health
/// width, the last [`WINDOW_RETAIN`] kept for the bundle.
struct Health {
    fold: WindowFold,
    closed: VecDeque<WindowStats>,
    dropped: u64,
}

impl Health {
    fn close(&mut self, w: WindowStats) {
        self.closed.push_back(w);
        if self.closed.len() > WINDOW_RETAIN {
            self.closed.pop_front();
            self.dropped += 1;
        }
    }
}

/// Hands one window the ring closed to both of its consumers.
fn on_window(health: &mut Option<Health>, sampler: &mut ReplaySampler, w: &WindowStats) {
    if let Some(h) = health {
        if let Some(wide) = h.fold.push(w) {
            h.close(wide);
        }
    }
    sampler.on_window(w);
}

impl TelemetryObserver {
    /// Creates an observer whose bundle exports `registry`'s metrics,
    /// registering there the policy metric family under `scope` (names
    /// come out as `{scope}.serve_requests_total` etc.; see
    /// [`PolicyObs::attach`]) — the family this observer records.
    ///
    /// # Panics
    ///
    /// As [`TelemetryConfig::ring_width_ms`]: if neither the sample
    /// interval nor the enabled health-window width is a whole multiple
    /// of the other. As [`PolicyObs::attach`], if `registry` already
    /// has a live writer of `{scope}.occupancy_chunks`.
    pub fn new(
        registry: Arc<MetricsRegistry>,
        scope: &str,
        replayer: &Replayer,
        telemetry: &TelemetryConfig,
    ) -> TelemetryObserver {
        let cfg = replayer.config();
        let width = telemetry.ring_width_ms();
        let window = telemetry.window.as_millis();
        TelemetryObserver {
            policy: PolicyObs::attach(Arc::clone(&registry) as _, scope),
            registry,
            ring: EventRing::new(telemetry.event_capacity),
            topk: (telemetry.topk_k > 0).then(|| SpaceSaving::new(telemetry.topk_k)),
            // Nothing reads the ring's own closed windows: its consumers
            // take them as they close.
            windows: WindowRing::new(width, 1),
            health: (window > 0).then(|| Health {
                fold: WindowFold::new(window / width),
                closed: VecDeque::new(),
                dropped: 0,
            }),
            sampler: ReplaySampler::new(telemetry.sample_interval.as_millis(), width, cfg.costs),
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
    /// the watchdog alerts over them, the time series and the retained
    /// events.
    pub fn finish(mut self) -> TelemetryBundle {
        let mut bundle = TelemetryBundle::new();
        bundle.meta = self.meta;
        bundle.metrics = self.registry.snapshot();
        let (health, sampler) = (&mut self.health, &mut self.sampler);
        self.windows.finish(&mut |w| on_window(health, sampler, w));
        if let Some(mut h) = self.health {
            if let Some(partial) = h.fold.finish() {
                h.close(partial);
            }
            // The unsharded replayer is one request stream.
            bundle.set_windows(&h.closed, self.costs, h.dropped, 1);
        }
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
        self.policy
            .record_decision(ctx.decision, ctx.occupancy_chunks);
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
        let (health, sampler) = (&mut self.health, &mut self.sampler);
        self.windows
            .record(&input, &mut |w| on_window(health, sampler, w));
        sampler.stamp(
            ctx.occupancy_chunks,
            ctx.capacity_chunks,
            ctx.detail.cache_age_ms,
        );
    }
}

/// Replays `trace` through `policy` with full telemetry: observes every
/// decision into a fresh registry, and returns the ordinary report
/// alongside the telemetry bundle.
///
/// The bundle's meta line records the policy, cost model, chunk size,
/// sample interval and trace identity; its metrics are the policy metric
/// family under the policy's name, in registration order.
///
/// # Panics
///
/// As [`TelemetryObserver::new`], on a sample interval and window width
/// that do not fold ([`TelemetryConfig::folds`]).
pub fn replay_with_telemetry(
    replayer: &Replayer,
    trace: &Trace,
    policy: &mut dyn CachePolicy,
    telemetry: &TelemetryConfig,
) -> (ReplayReport, TelemetryBundle) {
    let scope = policy.name();
    let mut observer =
        TelemetryObserver::new(Arc::new(MetricsRegistry::new()), scope, replayer, telemetry);
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
        let mut truth: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
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

    /// What a benchmark-side timing wrapper forwards: these eight methods
    /// and nothing else, so every other defaulted `CachePolicy` method —
    /// `attach_obs` included — is the default behind it.
    struct Forward(Box<dyn CachePolicy>);

    impl CachePolicy for Forward {
        fn handle_request(&mut self, request: &vcdn_types::Request) -> vcdn_types::Decision {
            self.0.handle_request(request)
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn chunk_size(&self) -> ChunkSize {
            self.0.chunk_size()
        }
        fn costs(&self) -> CostModel {
            self.0.costs()
        }
        fn disk_used_chunks(&self) -> u64 {
            self.0.disk_used_chunks()
        }
        fn disk_capacity_chunks(&self) -> u64 {
            self.0.disk_capacity_chunks()
        }
        fn contains_chunk(&self, chunk: vcdn_types::ChunkId) -> bool {
            self.0.contains_chunk(chunk)
        }
        fn decision_detail(&self) -> vcdn_core::DecisionDetail {
            self.0.decision_detail()
        }
    }

    #[test]
    fn a_forwarding_wrapper_exports_the_bare_policys_bundle() {
        let t = trace();
        let costs = CostModel::from_alpha(2.0).unwrap();
        let cache = CacheConfig::new(64, ChunkSize::DEFAULT, costs);
        type Build = fn(&Trace, CacheConfig) -> Box<dyn CachePolicy>;
        let policies: [Build; 4] = [
            |_, c| Box::new(LruCache::new(c)),
            |_, c| Box::new(XlruCache::new(c)),
            |_, c| {
                Box::new(CafeCache::new(CafeConfig::new(
                    c.disk_chunks,
                    c.chunk_size,
                    c.costs,
                )))
            },
            |t, c| {
                Box::new(vcdn_core::PsychicCache::new(
                    vcdn_core::PsychicConfig::new(c.disk_chunks, c.chunk_size, c.costs),
                    &t.requests,
                ))
            },
        ];
        for build in policies {
            let cfg = TelemetryConfig::new().with_event_capacity(256);
            let bundle = |policy: &mut dyn CachePolicy| {
                replay_with_telemetry(&replayer(costs), &t, policy, &cfg)
                    .1
                    .to_jsonl()
            };
            let bare = bundle(build(&t, cache).as_mut());
            let wrapped = bundle(&mut Forward(build(&t, cache)));
            assert!(bare.contains("serve_requests_total\",\"kind\":\"counter\",\"value\":"));
            assert_eq!(wrapped, bare, "{}", build(&t, cache).name());
        }
    }

    #[test]
    #[should_panic(expected = "neither is a whole multiple of the other")]
    fn an_interval_and_window_that_do_not_fold_are_refused() {
        let cfg = TelemetryConfig::new().with_sample_interval(DurationMs::from_secs(90 * 60));
        assert!(!cfg.folds());
        assert!(cfg.with_window(DurationMs::ZERO).folds());
        assert!(cfg.with_window(DurationMs::from_secs(30 * 60)).folds());
        assert!(cfg.with_window(DurationMs::from_secs(3 * 3600)).folds());
        TelemetryObserver::new(
            Arc::new(MetricsRegistry::new()),
            "lru",
            &replayer(CostModel::balanced()),
            &cfg,
        );
    }
}
