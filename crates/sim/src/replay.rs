//! The replay engine: drives a request trace through a cache policy and
//! accounts traffic the way the paper's evaluation does.
//!
//! The per-request step — decide, check the serve contract, account the
//! full run and its steady-state part, hand the decision to an observer —
//! exists once, as the crate-private `Kernel::serve_one`. [`Replayer`] is
//! its one-stream driver and adds only the hourly report grid; the sharded
//! engine ([`crate::engine`]) and the co-located, fleet and hierarchy
//! replays drive the same kernel over several streams.
//!
//! Accounting is in chunk-granularity bytes (`chunks × K`) on all three
//! buckets — hits, fills, redirects — because a chunk is fetched and
//! stored in full even when requested partially (§4.2), and a uniform unit
//! keeps the identity `hit + fill + redirect = requested` exact.
//!
//! The paper reports steady-state efficiency as "the average over the
//! second half of the month ... to exclude the initial cache warmup phase"
//! (§9); [`ReplayReport::steady`] implements exactly that, alongside
//! hourly windows for the Figure 3 time series.

use vcdn_core::CachePolicy;
use vcdn_obs::window::assert_window_in_grid;
use vcdn_obs::DecisionDetail;
use vcdn_trace::Trace;
use vcdn_types::{ChunkSize, CostModel, Decision, DurationMs, Request, Timestamp, TrafficCounter};

/// Replay options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayConfig {
    /// Chunk size used for byte accounting (must match the policy's).
    pub chunk_size: vcdn_types::ChunkSize,
    /// Cost model used for efficiency reporting (must match the policy's).
    pub costs: CostModel,
    /// Fraction of the replay after which steady-state accounting begins
    /// (paper: 0.5 — the second half).
    pub steady_after: f64,
    /// Verify policy invariants (capacity, serve completeness) after every
    /// request; cheap, on by default.
    pub check_invariants: bool,
}

impl ReplayConfig {
    /// The paper's measurement setup: steady state over the second half
    /// (the report grid is always the paper's hourly one).
    pub fn new(chunk_size: vcdn_types::ChunkSize, costs: CostModel) -> Self {
        ReplayConfig {
            chunk_size,
            costs,
            steady_after: STEADY_AFTER,
            check_invariants: true,
        }
    }

    /// Overrides the steady-state start fraction.
    pub fn with_steady_after(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&fraction),
            "steady_after must be in [0, 1)"
        );
        self.steady_after = fraction;
        self
    }

    /// Toggles the per-request invariant walk (capacity, serve
    /// completeness). On by default; benches turn it off because the
    /// asserts sit on the replay hot loop, while tests keep it on.
    pub fn with_check_invariants(mut self, on: bool) -> Self {
        self.check_invariants = on;
        self
    }

    /// The measurement configuration for benches and sweeps: identical to
    /// [`ReplayConfig::new`] but with the per-request invariant checks
    /// off. The invariants stay enforced by the test suite, which replays
    /// the same policies with [`ReplayConfig::new`].
    pub fn bench(chunk_size: vcdn_types::ChunkSize, costs: CostModel) -> Self {
        Self::new(chunk_size, costs).with_check_invariants(false)
    }
}

/// Everything known about one replayed request at decision time, handed
/// to a [`ReplayObserver`].
#[derive(Debug, Clone, Copy)]
pub struct DecisionCtx<'a> {
    /// 0-based request sequence number within the replay.
    pub seq: u64,
    /// The replayed request.
    pub request: &'a Request,
    /// Requested chunks under the replay's chunk size.
    pub chunks: u64,
    /// First requested chunk index.
    pub first_chunk: u32,
    /// The policy's decision.
    pub decision: &'a Decision,
    /// The policy's cost/age detail for this decision.
    pub detail: DecisionDetail,
    /// The deciding policy's name.
    pub policy: &'static str,
    /// Chunks on disk after the decision.
    pub occupancy_chunks: u64,
    /// Disk capacity in chunks.
    pub capacity_chunks: u64,
    /// Wall time `handle_request` took, when the observer asked for
    /// timing (non-deterministic — excluded from deterministic exports).
    pub latency_ns: Option<u64>,
}

/// Per-decision hook for [`Replayer::replay_observed`].
///
/// The unit type `()` is the no-op observer: its [`ReplayObserver::ACTIVE`]
/// is `false`, so the observer branch (including the `decision_detail`
/// call and the latency clock reads) compiles out of the hot loop entirely
/// and [`Replayer::replay`] keeps its unobserved cost.
pub trait ReplayObserver {
    /// Whether this observer does anything; `false` erases all observer
    /// work at compile time.
    const ACTIVE: bool = true;

    /// Whether `handle_request` should be wall-clock timed for
    /// [`DecisionCtx::latency_ns`]. Defaults to `false`; timing is
    /// inherently non-deterministic.
    fn wants_timing(&self) -> bool {
        false
    }

    /// Called once per replayed request, after accounting.
    fn on_decision(&mut self, ctx: &DecisionCtx<'_>);
}

/// The no-op observer: replaying with it is identical to not observing.
impl ReplayObserver for () {
    const ACTIVE: bool = false;

    fn on_decision(&mut self, _ctx: &DecisionCtx<'_>) {}
}

/// The paper's steady-state cut (§9): the second half of the trace.
pub(crate) const STEADY_AFTER: f64 = 0.5;

/// One request stream's accounting: the full run and its steady-state
/// part.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct StreamTraffic {
    pub(crate) overall: TrafficCounter,
    pub(crate) steady: TrafficCounter,
}

/// The request kernel: the one decide → verify → account → observe step
/// behind every replay loop in this crate. A driver picks the policy a
/// request goes to and owns that stream's [`StreamTraffic`]; the kernel
/// does the rest.
#[derive(Debug)]
pub(crate) struct Kernel {
    chunk_size: ChunkSize,
    steady_from: Timestamp,
    check_invariants: bool,
}

impl Kernel {
    /// A kernel for replaying `trace`: steady-state accounting starts
    /// `steady_after` of the way through the trace's horizon (its declared
    /// duration, else one past its last timestamp).
    pub(crate) fn for_trace(
        trace: &Trace,
        chunk_size: ChunkSize,
        steady_after: f64,
        check_invariants: bool,
    ) -> Kernel {
        let horizon = if trace.meta.duration > DurationMs::ZERO {
            trace.meta.duration
        } else {
            DurationMs(trace.end_time().as_millis().saturating_add(1))
        };
        Kernel {
            chunk_size,
            steady_from: Timestamp((horizon.as_millis() as f64 * steady_after) as u64),
            check_invariants,
        }
    }

    /// Serves `request` (number `seq` of its driver's stream) from
    /// `policy`: decides, checks the serve contract, accounts the decision
    /// into `traffic` and hands it to `observer`. With the `()` observer
    /// the observer work — the `decision_detail` call and the latency
    /// clock reads included — compiles out.
    ///
    /// # Panics
    ///
    /// With `check_invariants`, panics if a `Serve` does not cover the
    /// full request or leaves the policy over capacity.
    #[inline]
    pub(crate) fn serve_one<O: ReplayObserver>(
        &self,
        policy: &mut dyn CachePolicy,
        request: &Request,
        seq: u64,
        traffic: &mut StreamTraffic,
        observer: &mut O,
    ) -> Decision {
        let (chunks, chunk_bytes) = (request.chunk_len(self.chunk_size), self.chunk_size.bytes());
        #[expect(
            clippy::disallowed_methods,
            reason = "opt-in latency histogram only; excluded from deterministic telemetry payloads"
        )]
        let started = (O::ACTIVE && observer.wants_timing()).then(std::time::Instant::now);
        let decision = policy.handle_request(request);
        let latency_ns = started.map(|t| t.elapsed().as_nanos() as u64);

        if self.check_invariants {
            if let Decision::Serve(o) = &decision {
                assert_eq!(
                    o.served_chunks(),
                    chunks,
                    "{}: serve must cover the full request",
                    policy.name()
                );
                assert!(
                    policy.disk_used_chunks() <= policy.disk_capacity_chunks(),
                    "{}: capacity exceeded",
                    policy.name()
                );
            }
        }
        traffic
            .overall
            .record_decision(&decision, chunks, chunk_bytes);
        if request.t >= self.steady_from {
            traffic
                .steady
                .record_decision(&decision, chunks, chunk_bytes);
        }

        if O::ACTIVE {
            observer.on_decision(&DecisionCtx {
                seq,
                request,
                chunks,
                first_chunk: request.chunk_range(self.chunk_size).start,
                decision: &decision,
                detail: policy.decision_detail(),
                policy: policy.name(),
                occupancy_chunks: policy.disk_used_chunks(),
                capacity_chunks: policy.disk_capacity_chunks(),
                latency_ns,
            });
        }
        decision
    }
}

/// Per-window traffic statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStat {
    /// Window start time.
    pub start: Timestamp,
    /// Traffic in the window.
    pub traffic: TrafficCounter,
}

/// Outcome of replaying one trace through one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// The policy's name.
    pub policy: &'static str,
    /// Traffic over the full replay.
    pub overall: TrafficCounter,
    /// Traffic over the steady-state portion (the paper's reported
    /// numbers).
    pub steady: TrafficCounter,
    /// Per-window traffic on the paper's hourly grid.
    pub windows: Vec<WindowStat>,
    /// The cost model used for efficiency computation.
    pub costs: CostModel,
}

impl ReplayReport {
    /// Steady-state cache efficiency (Eq. 2) — the paper's headline
    /// metric.
    pub fn efficiency(&self) -> f64 {
        self.steady.efficiency(self.costs)
    }

    /// Steady-state ingress-to-egress percentage.
    pub fn ingress_pct(&self) -> f64 {
        self.steady.ingress_pct()
    }

    /// Steady-state redirected percentage of requested bytes.
    pub fn redirect_pct(&self) -> f64 {
        self.steady.redirect_pct()
    }
}

/// Drives traces through policies.
#[derive(Debug, Clone, Copy)]
pub struct Replayer {
    config: ReplayConfig,
}

impl Replayer {
    /// Creates a replayer.
    pub fn new(config: ReplayConfig) -> Self {
        Replayer { config }
    }

    /// The replay configuration.
    pub fn config(&self) -> &ReplayConfig {
        &self.config
    }

    /// Replays `trace` through `policy`, returning the traffic report.
    ///
    /// # Panics
    ///
    /// Panics if the policy's chunk size or cost model disagree with the
    /// replay configuration, (with `check_invariants`) if the policy
    /// violates its contract, or if a request's timestamp falls in hourly
    /// window [`vcdn_obs::window::MAX_WINDOWS`] or later ("exceeds
    /// MAX_WINDOWS") — a far-future timestamp is refused, not walked to.
    pub fn replay(&self, trace: &Trace, policy: &mut dyn CachePolicy) -> ReplayReport {
        self.replay_observed(trace, policy, &mut ())
    }

    /// Replays `trace` through `policy`, invoking `observer` once per
    /// request. With the `()` observer this is exactly [`Replayer::replay`]
    /// — the observer branch compiles out.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Replayer::replay`].
    pub fn replay_observed<O: ReplayObserver>(
        &self,
        trace: &Trace,
        policy: &mut dyn CachePolicy,
        observer: &mut O,
    ) -> ReplayReport {
        let cfg = &self.config;
        assert_eq!(
            policy.chunk_size(),
            cfg.chunk_size,
            "policy/replayer chunk size mismatch"
        );
        assert!(
            (policy.costs().alpha() - cfg.costs.alpha()).abs() < 1e-12,
            "policy/replayer cost model mismatch"
        );
        let kernel = Kernel::for_trace(
            trace,
            cfg.chunk_size,
            cfg.steady_after,
            cfg.check_invariants,
        );
        let mut traffic = StreamTraffic::default();
        // The report grid: the paper's hourly series (Fig. 3).
        let window_ms = DurationMs::HOUR.as_millis();
        let mut windows: Vec<WindowStat> = Vec::new();
        for (seq, request) in trace.requests.iter().enumerate() {
            let decision = kernel.serve_one(policy, request, seq as u64, &mut traffic, observer);
            let widx = request.t.as_millis() / window_ms;
            if widx >= windows.len() as u64 {
                assert_window_in_grid(widx, request.t.as_millis(), window_ms);
                windows.extend((windows.len() as u64..=widx).map(|i| WindowStat {
                    start: Timestamp(i * window_ms),
                    traffic: TrafficCounter::default(),
                }));
            }
            windows[widx as usize].traffic.record_decision(
                &decision,
                request.chunk_len(cfg.chunk_size),
                cfg.chunk_size.bytes(),
            );
        }

        ReplayReport {
            policy: policy.name(),
            overall: traffic.overall,
            steady: traffic.steady,
            windows,
            costs: cfg.costs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_core::{CacheConfig, LruCache, XlruCache};
    use vcdn_trace::{TraceGenerator, TraceMeta};
    use vcdn_types::{ByteRange, ChunkSize, Request, VideoId};

    fn k100() -> ChunkSize {
        ChunkSize::new(100).unwrap()
    }

    fn mk_trace(reqs: Vec<Request>, duration_ms: u64) -> Trace {
        Trace::new(
            TraceMeta {
                name: "t".into(),
                seed: 0,
                duration: DurationMs(duration_ms),
                description: String::new(),
            },
            reqs,
        )
    }

    #[test]
    fn accounting_identity_holds() {
        let trace = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 3)
            .generate(DurationMs::from_hours(8));
        let costs = CostModel::balanced();
        let cfg = ReplayConfig::new(ChunkSize::DEFAULT, costs);
        let mut cache = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let report = Replayer::new(cfg).replay(&trace, &mut cache);
        // Every requested chunk-byte is a hit, fill or redirect.
        let expected: u64 = trace
            .requests
            .iter()
            .map(|r| r.chunk_len(ChunkSize::DEFAULT) * ChunkSize::DEFAULT.bytes())
            .sum();
        assert_eq!(report.overall.requested_bytes(), expected);
        assert_eq!(report.overall.total_requests() as usize, trace.len());
        // Window traffic sums to the overall counter.
        let window_sum = report
            .windows
            .iter()
            .fold(TrafficCounter::default(), |acc, w| acc + w.traffic);
        assert_eq!(window_sum, report.overall);
    }

    #[test]
    fn steady_excludes_first_half() {
        // Two requests: one early, one late; steady sees only the late one.
        let reqs = vec![
            Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(10)),
            Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(900)),
        ];
        let trace = mk_trace(reqs, 1_000);
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), costs));
        let report = Replayer::new(ReplayConfig::new(k100(), costs)).replay(&trace, &mut cache);
        assert_eq!(report.overall.total_requests(), 2);
        assert_eq!(report.steady.total_requests(), 1);
        // The late request is a pure hit.
        assert_eq!(report.steady.hit_bytes, 100);
        assert!((report.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn windows_are_hour_aligned() {
        let reqs = vec![
            Request::new(VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(0)),
            Request::new(
                VideoId(2),
                ByteRange::new(0, 99).unwrap(),
                Timestamp(DurationMs::from_hours(2).as_millis() + 5),
            ),
        ];
        let trace = mk_trace(reqs, DurationMs::from_hours(3).as_millis());
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), costs));
        let report = Replayer::new(ReplayConfig::new(k100(), costs)).replay(&trace, &mut cache);
        assert_eq!(report.windows.len(), 3);
        assert_eq!(report.windows[1].traffic.total_requests(), 0);
        assert_eq!(report.windows[2].traffic.total_requests(), 1);
        assert_eq!(
            report.windows[2].start,
            Timestamp(DurationMs::from_hours(2).as_millis())
        );
    }

    #[test]
    #[should_panic(expected = "chunk size mismatch")]
    fn chunk_size_mismatch_detected() {
        let trace = mk_trace(vec![], 10);
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), costs));
        let cfg = ReplayConfig::new(ChunkSize::DEFAULT, costs);
        Replayer::new(cfg).replay(&trace, &mut cache);
    }

    #[test]
    #[should_panic(expected = "cost model mismatch")]
    fn cost_mismatch_detected() {
        let trace = mk_trace(vec![], 10);
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), CostModel::balanced()));
        let cfg = ReplayConfig::new(k100(), CostModel::from_alpha(2.0).unwrap());
        Replayer::new(cfg).replay(&trace, &mut cache);
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let trace = mk_trace(vec![], 0);
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(4, k100(), costs));
        let report = Replayer::new(ReplayConfig::new(k100(), costs)).replay(&trace, &mut cache);
        assert_eq!(report.overall, TrafficCounter::default());
        assert_eq!(report.efficiency(), 0.0);
        assert!(report.windows.is_empty());
    }

    #[test]
    fn config_validation() {
        let c = ReplayConfig::new(k100(), CostModel::balanced()).with_steady_after(0.25);
        assert!((c.steady_after - 0.25).abs() < 1e-12);
    }

    #[test]
    fn bench_config_disables_invariants_only() {
        let costs = CostModel::balanced();
        let checked = ReplayConfig::new(k100(), costs);
        let bench = ReplayConfig::bench(k100(), costs);
        assert!(checked.check_invariants);
        assert!(!bench.check_invariants);
        assert_eq!(bench.with_check_invariants(true), checked);
        // The flag only gates asserts — reports are identical either way.
        let trace = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 5)
            .generate(DurationMs::from_hours(6));
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut a = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let mut b = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let ra = Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs)).replay(&trace, &mut a);
        let rb =
            Replayer::new(ReplayConfig::bench(ChunkSize::DEFAULT, costs)).replay(&trace, &mut b);
        assert_eq!(ra, rb);
    }

    #[test]
    #[should_panic(expected = "steady_after")]
    fn bad_steady_fraction_rejected() {
        let _ = ReplayConfig::new(k100(), CostModel::balanced()).with_steady_after(1.0);
    }

    /// Counts what it sees; used to check the observer contract.
    #[derive(Default)]
    struct CountingObserver {
        decisions: u64,
        serves: u64,
        redirects: u64,
        chunks: u64,
        last_seq: Option<u64>,
        saw_latency: bool,
        occupancy_ok: bool,
        timing: bool,
    }

    impl ReplayObserver for CountingObserver {
        fn wants_timing(&self) -> bool {
            self.timing
        }

        fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
            assert_eq!(ctx.seq, self.last_seq.map_or(0, |s| s + 1));
            self.last_seq = Some(ctx.seq);
            self.decisions += 1;
            self.chunks += ctx.chunks;
            match ctx.decision {
                Decision::Serve(_) => self.serves += 1,
                Decision::Redirect => self.redirects += 1,
            }
            self.saw_latency |= ctx.latency_ns.is_some();
            self.occupancy_ok = ctx.occupancy_chunks <= ctx.capacity_chunks;
        }
    }

    #[test]
    fn observer_sees_every_request_and_report_is_unchanged() {
        let trace = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 11)
            .generate(DurationMs::from_hours(8));
        let costs = CostModel::from_alpha(2.0).unwrap();
        let cfg = ReplayConfig::new(ChunkSize::DEFAULT, costs);
        let mut plain = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let baseline = Replayer::new(cfg).replay(&trace, &mut plain);

        let mut observed = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let mut obs = CountingObserver::default();
        let report = Replayer::new(cfg).replay_observed(&trace, &mut observed, &mut obs);

        assert_eq!(report, baseline);
        assert_eq!(obs.decisions as usize, trace.len());
        assert_eq!(obs.serves, report.overall.served_requests);
        assert_eq!(obs.redirects, report.overall.redirected_requests);
        assert!(obs.occupancy_ok);
        // Timing was not requested, so no clock was read.
        assert!(!obs.saw_latency);
    }

    #[test]
    fn observer_timing_is_opt_in() {
        let trace = TraceGenerator::new(vcdn_trace::ServerProfile::tiny_test(), 11)
            .generate(DurationMs::from_hours(1));
        let costs = CostModel::balanced();
        let mut cache = LruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
        let mut obs = CountingObserver {
            timing: true,
            ..CountingObserver::default()
        };
        Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs))
            .replay_observed(&trace, &mut cache, &mut obs);
        assert!(obs.decisions > 0);
        assert!(obs.saw_latency);
    }
}
