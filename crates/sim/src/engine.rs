//! The concurrent sharded serving engine: one process, many policy shards,
//! millions of requests per second.
//!
//! The paper's defense lines assume each cache server absorbs heavy
//! independent traffic, but [`crate::replay::Replayer`] is single-threaded:
//! parallelism so far has been *across* grid cells, never within one
//! server's request stream. This module adds the within-box layer:
//!
//! * **Shard ownership.** The engine owns `N` independent
//!   [`CachePolicy`] instances ("shards"), each with a slice of the total
//!   disk capacity ([`EngineConfig::shard_capacities`]; slices always sum
//!   to the configured total). Every video — and therefore every packed
//!   [`ChunkId`] — maps to exactly one shard via
//!   [`vcdn_types::fasthash::shard_for`] ([`shard_of_video`],
//!   [`shard_of_chunk`]), so no chunk is ever cached twice and no policy
//!   state is ever shared.
//! * **Request feed.** There is none to speak of: every worker scans the
//!   whole request slice, hashes each request to its shard
//!   ([`shard_of_video`], a few nanoseconds) and serves the ones whose
//!   shard it owns. Shard `s` is statically owned by worker `s % workers`,
//!   resolved once per run into a shard → (worker, slot) table, so each
//!   shard's requests are consumed by exactly one thread, in trace order.
//!   No dispatcher, no queues, no hand-off — re-hashing a request on every
//!   worker is cheaper than any way of telling another thread about it.
//!   The calling thread is worker 0; one worker is the same loop with no
//!   thread spawned.
//! * **Determinism by construction.** Because shards are independent and
//!   each shard's request sub-stream is processed in trace order by a
//!   single owner, per-shard byte counters are bit-identical for *any*
//!   worker count — the invariant `runner_determinism.rs` and
//!   `prop_engine.rs` pin. The logical dispatch clock needs no thread of
//!   its own either: a request's trace index **is** its dispatch tick.
//! * **One request step.** A shard is a policy, its traffic counters and
//!   an optional observer; serving a request is the same crate-private
//!   request kernel the [`crate::replay::Replayer`] drives (decide, check
//!   invariants, account overall and steady-state traffic, observe), so a
//!   one-shard engine *is* a Replayer without the hourly report grid.
//! * **No locks.** A shard is touched by exactly one thread per run and
//!   nothing else is mutable while workers run. Instrumentation
//!   ([`ShardedEngine::attach_obs`]) lives in this module: one
//!   [`ReplayObserver`] per shard, fed by the kernel with the request's
//!   trace index as `seq`; its metrics go into `vcdn-obs` tallies the
//!   shard's worker alone writes — the shard's policy metric family
//!   (recorded by the observer from each decision; the policy itself
//!   records nothing), its stage and dispatch counters on the logical
//!   clock, and its share of the engine-level totals, which the registry
//!   sums by name — so no two workers share a counter's cache line, and a
//!   snapshot taken at quiescence is consistent with the per-shard
//!   reports. A detached shard is served with the `()` observer: off
//!   means free.
//! * **Accounting apart from export.** [`EngineReport`] is the run's
//!   accounting only. [`engine_bundle`] is the one telemetry export: it
//!   merges the shards' sketches and health windows once, when called.
//! * **Failure.** A panicking shard policy (or a failed invariant check)
//!   unwinds its worker; the other workers run to the end of the slice —
//!   they wait on nothing — and the panic then propagates out of
//!   [`ShardedEngine::run`]. Never a hang.
//!
//! # Examples
//!
//! ```
//! use vcdn_core::XlruCache;
//! use vcdn_sim::engine::{EngineConfig, ShardedEngine};
//! use vcdn_trace::{ServerProfile, TraceGenerator};
//! use vcdn_types::{ChunkSize, CostModel, DurationMs};
//!
//! let trace = TraceGenerator::new(ServerProfile::tiny_test(), 7)
//!     .generate(DurationMs::from_hours(6));
//! let costs = CostModel::from_alpha(2.0).unwrap();
//! let cfg = EngineConfig::new(4, 128, ChunkSize::DEFAULT, costs).unwrap();
//! let mut engine =
//!     ShardedEngine::try_new(cfg, |_, cache| Box::new(XlruCache::new(cache))).unwrap();
//! let report = engine.run(&trace, 4);
//! assert_eq!(report.total_requests() as usize, trace.len());
//! ```

use std::fmt;
use std::sync::Arc;

use vcdn_obs::topk::{SpaceSaving, TopKRecord};
use vcdn_obs::window::{merge_windows, WindowInput, WindowRing, WindowStats};

use vcdn_core::{CacheConfig, CachePolicy};
use vcdn_obs::{
    MetricId, MetricKind, MetricsRegistry, MetricsSink, PolicyObs, Tally, TelemetryBundle,
};
use vcdn_trace::Trace;
use vcdn_types::json::Json;
use vcdn_types::{
    fasthash, ChunkId, ChunkSize, CostModel, Decision, Request, TrafficCounter, VideoId,
};

use crate::observe::{TelemetryConfig, WINDOW_RETAIN};
use crate::replay::{DecisionCtx, Kernel, ReplayObserver, StreamTraffic, STEADY_AFTER};

/// The shard that owns every chunk of `video`: fasthash over the packed
/// [`ChunkId`] of the video's first chunk, mod the shard count. Keying on
/// the video (rather than the individual chunk index) keeps a whole
/// request on one shard, so a policy sees the same request stream it would
/// see as a stand-alone cache for its partition. This is the practice the
/// paper's §2 footnote 2 recommends for co-located servers: dividing the
/// file-ID space over them, so that no two hold the same chunk.
///
/// # Panics
///
/// Panics if `shards == 0`.
#[inline]
pub fn shard_of_video(video: VideoId, shards: usize) -> usize {
    fasthash::shard_for(ChunkId::new(video, 0).packed(), shards)
}

/// The shard that owns `chunk`: its video's shard, so every chunk of a
/// video lives in exactly one partition.
///
/// # Panics
///
/// Panics if `shards == 0`.
#[inline]
pub fn shard_of_chunk(chunk: ChunkId, shards: usize) -> usize {
    shard_of_video(chunk.video, shards)
}

/// Splits `trace` into per-shard request streams under the engine's
/// partition, preserving trace order within each shard. Used to build
/// policies that need their shard's future (Psychic) and by tests as the
/// per-shard oracle. Each stream is counted before it is filled, so it is
/// allocated once, at exactly its length.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_requests(trace: &Trace, shards: usize) -> Vec<Vec<Request>> {
    let mut counts = vec![0usize; shards];
    for request in &trace.requests {
        counts[shard_of_video(request.video, shards)] += 1;
    }
    let mut per: Vec<Vec<Request>> = counts.iter().map(|&n| Vec::with_capacity(n)).collect();
    for request in &trace.requests {
        per[shard_of_video(request.video, shards)].push(*request);
    }
    per
}

/// Why an engine could not be configured or constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// `shards == 0`.
    NoShards,
    /// Fewer disk chunks than shards — a shard would get zero capacity.
    DiskTooSmall {
        /// Requested shard count.
        shards: usize,
        /// Requested total capacity in chunks.
        disk_chunks: u64,
    },
    /// A factory-built policy disagrees with the engine configuration.
    PolicyMismatch {
        /// The shard whose policy was rejected.
        shard: usize,
        /// What disagreed (chunk size, cost model or capacity).
        what: &'static str,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoShards => write!(f, "engine needs at least one shard"),
            EngineError::DiskTooSmall {
                shards,
                disk_chunks,
            } => write!(
                f,
                "{disk_chunks} disk chunks cannot give each of {shards} shards a chunk"
            ),
            EngineError::PolicyMismatch { shard, what } => {
                write!(f, "shard {shard}: policy {what} mismatches engine config")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Sharded engine options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Number of policy shards (fixed per engine; workers vary per run).
    pub shards: usize,
    /// Total disk capacity in chunks, split across shards.
    pub disk_chunks: u64,
    /// Chunk size used for byte accounting (must match the policies').
    pub chunk_size: ChunkSize,
    /// Cost model used for efficiency reporting (must match the policies').
    pub costs: CostModel,
    /// Verify policy invariants (capacity, serve completeness) after
    /// every request; cheap, on by default.
    pub check_invariants: bool,
}

impl EngineConfig {
    /// Creates a configuration: `shards` policy shards sharing
    /// `disk_chunks` of capacity, with the paper's measurement defaults
    /// (steady state over the second half, invariant checks on).
    pub fn new(
        shards: usize,
        disk_chunks: u64,
        chunk_size: ChunkSize,
        costs: CostModel,
    ) -> Result<EngineConfig, EngineError> {
        if shards == 0 {
            return Err(EngineError::NoShards);
        }
        if disk_chunks < shards as u64 {
            return Err(EngineError::DiskTooSmall {
                shards,
                disk_chunks,
            });
        }
        Ok(EngineConfig {
            shards,
            disk_chunks,
            chunk_size,
            costs,
            check_invariants: true,
        })
    }

    /// The measurement configuration for benches: identical to
    /// [`EngineConfig::new`] but with per-request invariant checks off
    /// (the test suite keeps them on).
    pub fn bench(
        shards: usize,
        disk_chunks: u64,
        chunk_size: ChunkSize,
        costs: CostModel,
    ) -> Result<EngineConfig, EngineError> {
        Ok(EngineConfig {
            check_invariants: false,
            ..EngineConfig::new(shards, disk_chunks, chunk_size, costs)?
        })
    }

    /// Per-shard disk capacities: `disk_chunks / shards` each, with the
    /// remainder spread one chunk at a time over the first shards. Always
    /// sums to exactly [`EngineConfig::disk_chunks`], and every shard gets
    /// at least one chunk (enforced by [`EngineConfig::new`]).
    pub fn shard_capacities(&self) -> Vec<u64> {
        let n = self.shards as u64;
        let base = self.disk_chunks / n;
        let extra = self.disk_chunks % n;
        (0..n).map(|s| base + u64::from(s < extra)).collect()
    }
}

/// Registers `metrics` in one tally and returns it with their ids in
/// order.
fn register<const N: usize>(
    sink: &Arc<dyn MetricsSink>,
    metrics: [(String, MetricKind); N],
) -> ([MetricId; N], Tally) {
    let tally = sink.register(&metrics);
    (tally.ids(), tally)
}

/// Registers `metrics` under `{scope}.engine.`.
fn engine_tally<const N: usize>(
    sink: &Arc<dyn MetricsSink>,
    scope: &str,
    metrics: [(&str, MetricKind); N],
) -> ([MetricId; N], Tally) {
    register(
        sink,
        metrics.map(|(m, kind)| (format!("{scope}.engine.{m}"), kind)),
    )
}

/// The engine-level traffic totals, one writer per shard: each shard's
/// observer adds its own requests into its own tally, and the registry
/// sums the shards' tallies by name, so the totals equal the sum of the
/// per-shard counters in any quiescent snapshot.
const TOTALS: [(&str, MetricKind); 6] = [
    ("serve_requests_total", MetricKind::Counter),
    ("redirect_requests_total", MetricKind::Counter),
    ("hit_chunks_total", MetricKind::Counter),
    ("fill_chunks_total", MetricKind::Counter),
    ("redirect_chunks_total", MetricKind::Counter),
    ("evicted_chunks_total", MetricKind::Counter),
];

/// The shard-imbalance gauges — max/mean ×1000 over per-shard request and
/// requested-byte totals — written by the engine itself at the end of
/// every run.
const SKEW: [(&str, MetricKind); 2] = [
    ("span.skew_requests_x1000", MetricKind::Gauge),
    ("span.skew_bytes_x1000", MetricKind::Gauge),
];

/// One shard's instrumentation, created by [`ShardedEngine::attach_obs`]:
/// the shard policy's metric family, its share of the engine totals, its
/// stage and dispatch accounting on the logical clock, a heavy-hitter
/// sketch over its video stream and a health-window ring over its request
/// sub-stream. The ring is never flushed mid-lifetime: warm continuation
/// keeps feeding the open window, and [`engine_bundle`] merges
/// non-destructive snapshots.
///
/// The stage and dispatch accounting (`{scope}.s{i:02}.span.*` and
/// `{scope}.engine.span.dispatched_total`) runs on the logical dispatch
/// clock — a request's trace index is its dispatch tick — so every value
/// is a pure function of the trace, identical at any worker count:
///
/// * `processed_total` counts the requests shard `i` decided and
///   `evict_events_total` those that evicted at least one chunk;
/// * `dispatched_total` counts requests entering the engine (every shard
///   is one writer of it; the registry sums them), so at quiescence it
///   equals the sum of the shards' `processed_total`;
/// * `queue_gap` is a histogram of the gap in dispatch ticks between
///   consecutive arrivals at the shard (the first measures from tick 0),
///   a proxy for how bursty its feed is;
/// * `load_share_x1000` is the shard's running share of all dispatched
///   requests, ×1000.
struct ShardObserver {
    policy: PolicyObs,
    /// `processed_total`, `evict_events_total`.
    stages: ([MetricId; 2], Tally),
    /// `dispatched_total`, `queue_gap`, `load_share_x1000`.
    dispatch: ([MetricId; 3], Tally),
    totals: ([MetricId; 6], Tally),
    /// Last dispatch tick seen on this shard, plus one (0 = never).
    last_plus1: u64,
    /// Requests dispatched to this shard so far.
    dispatched: u64,
    chunk_bytes: u64,
    topk: SpaceSaving,
    window: WindowRing,
}

impl ShardObserver {
    /// One observer per shard of `shards`, in shard order.
    /// Registration order is export order: every shard's policy family
    /// and stage counters, then every shard's dispatch metrics, then every
    /// shard's share of the engine totals.
    fn attach(
        sink: &Arc<dyn MetricsSink>,
        scope: &str,
        shards: &[EngineShard],
        chunk_bytes: u64,
    ) -> Vec<ShardObserver> {
        use MetricKind::{Counter, Gauge, Histogram};
        let families: Vec<_> = (shards.iter().enumerate())
            .map(|(i, shard)| {
                let name = shard.policy.name();
                let policy =
                    PolicyObs::attach(Arc::clone(sink), &format!("{scope}.s{i:02}.{name}"));
                let stages = [
                    (format!("{scope}.s{i:02}.span.processed_total"), Counter),
                    (format!("{scope}.s{i:02}.span.evict_events_total"), Counter),
                ];
                (policy, register(sink, stages))
            })
            .collect();
        let dispatch: Vec<_> = (0..shards.len())
            .map(|i| {
                let metrics = [
                    (format!("{scope}.engine.span.dispatched_total"), Counter),
                    (format!("{scope}.s{i:02}.span.queue_gap"), Histogram),
                    (format!("{scope}.s{i:02}.span.load_share_x1000"), Gauge),
                ];
                register(sink, metrics)
            })
            .collect();
        let sizes = TelemetryConfig::new();
        (families.into_iter().zip(dispatch))
            .map(|((policy, stages), dispatch)| ShardObserver {
                policy,
                stages,
                dispatch,
                totals: engine_tally(sink, scope, TOTALS),
                last_plus1: 0,
                dispatched: 0,
                chunk_bytes,
                topk: SpaceSaving::new(sizes.topk_k),
                window: WindowRing::new(sizes.window.as_millis(), WINDOW_RETAIN),
            })
            .collect()
    }

    /// Records the request with dispatch tick `tick` arriving on this
    /// shard — the dispatch count, queue gap and load share — and returns
    /// its queue gap. Ticks increase across calls.
    fn record_dispatch(&mut self, tick: u64) -> u64 {
        let gap = tick + 1 - self.last_plus1;
        self.last_plus1 = tick + 1;
        self.dispatched += 1;
        let ([dispatched, queue_gap, load_share], t) = &self.dispatch;
        t.add(*dispatched, 1);
        t.observe(*queue_gap, gap);
        t.set(*load_share, self.dispatched * 1000 / (tick + 1));
        gap
    }

    /// Counts one decided request, and an evict stage if it evicted.
    fn record_stages(&self, evicted: bool) {
        let ([processed, evict_events], t) = &self.stages;
        t.add(*processed, 1);
        t.add(*evict_events, u64::from(evicted));
    }
}

/// The kernel's [`DecisionCtx::seq`] is the request's global dispatch
/// index (trace order over the engine's lifetime) — the logical clock
/// behind the stage accounting and the window plane's queue-gap sketch.
impl ReplayObserver for ShardObserver {
    fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
        self.policy
            .record_decision(ctx.decision, ctx.occupancy_chunks);
        self.topk
            .record(ChunkId::new(ctx.request.video, 0).packed());
        let queue_gap = self.record_dispatch(ctx.seq);
        let input = WindowInput::from_decision(
            ctx.request.t.as_millis(),
            ctx.decision,
            ctx.chunks,
            self.chunk_bytes,
            Some(queue_gap),
        );
        let ([served, redirected, hit, fill, redirect_chunks, evicted], t) = &self.totals;
        match ctx.decision {
            Decision::Serve(o) => {
                t.add(*served, 1);
                t.add(*hit, o.hit_chunks);
                t.add(*fill, o.filled_chunks);
                t.add(*evicted, input.evicted_chunks);
            }
            Decision::Redirect => {
                t.add(*redirected, 1);
                t.add(*redirect_chunks, ctx.chunks);
            }
        }
        self.record_stages(input.evicted_chunks > 0);
        // Detection runs at export over the merged windows (in
        // engine_bundle), so closing needs no callback here.
        self.window.record(&input, &mut |_| {});
    }
}

/// One policy shard plus its private accounting. Only the worker that owns
/// the shard for the current run ever touches it. Detached shards carry no
/// observer and serve through the kernel's `()` path: off means free.
struct EngineShard {
    policy: Box<dyn CachePolicy>,
    traffic: StreamTraffic,
    obs: Option<ShardObserver>,
}

/// One worker's whole run: scan every request in trace order and serve
/// the ones whose shard `route` assigns to worker `w`. `own` holds `w`'s
/// shards at the slots `route` names. Every worker count runs exactly
/// this loop; with one worker the filter is always true. This — plus
/// [`shard_of_video`] — is the engine's per-request path: no allocation,
/// no map churn, no locks.
fn serve_owned(
    w: usize,
    own: &mut [&mut EngineShard],
    route: &[(usize, usize)],
    requests: &[Request],
    tick_base: u64,
    kernel: &Kernel,
) {
    for (i, request) in requests.iter().enumerate() {
        let (owner, slot) = route[shard_of_video(request.video, route.len())];
        if owner != w {
            continue;
        }
        let EngineShard {
            policy,
            traffic,
            obs,
        } = &mut *own[slot];
        let tick = tick_base + i as u64;
        match obs {
            Some(obs) => kernel.serve_one(policy.as_mut(), request, tick, traffic, obs),
            None => kernel.serve_one(policy.as_mut(), request, tick, traffic, &mut ()),
        };
    }
}

/// One shard's share of an [`EngineReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Shard index (also the partition id).
    pub shard: usize,
    /// The shard policy's name.
    pub policy: &'static str,
    /// The shard's capacity slice, in chunks.
    pub capacity_chunks: u64,
    /// Chunks on the shard's disk after the run.
    pub used_chunks: u64,
    /// Requests this shard handled.
    pub requests: u64,
    /// The shard's full-run traffic.
    pub overall: TrafficCounter,
    /// The shard's steady-state traffic.
    pub steady: TrafficCounter,
}

/// Outcome of running a trace through the sharded engine: its accounting
/// only. What an attached engine recorded is exported by
/// [`engine_bundle`].
///
/// Equality compares everything but `workers`, so runs at different
/// worker counts compare equal exactly when their shard-level accounting
/// is bit-identical (the determinism contract).
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Worker threads the run used.
    pub workers: usize,
    /// Requests dispatched into the engine over its lifetime.
    pub dispatched: u64,
    /// The cost model used for efficiency computation.
    pub costs: CostModel,
}

impl PartialEq for EngineReport {
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards
            && self.dispatched == other.dispatched
            && self.costs == other.costs
    }
}

impl EngineReport {
    /// Sum of per-shard full-run traffic.
    pub fn aggregate_overall(&self) -> TrafficCounter {
        self.shards
            .iter()
            .fold(TrafficCounter::default(), |acc, s| acc + s.overall)
    }

    /// Sum of per-shard steady-state traffic.
    pub fn aggregate_steady(&self) -> TrafficCounter {
        self.shards
            .iter()
            .fold(TrafficCounter::default(), |acc, s| acc + s.steady)
    }

    /// Steady-state cache efficiency (Eq. 2) over the aggregate traffic.
    pub fn efficiency(&self) -> f64 {
        self.aggregate_steady().efficiency(self.costs)
    }

    /// Requests handled across all shards.
    pub fn total_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }
}

/// The sharded concurrent cache front-end. See the module docs for the
/// ownership and determinism model.
pub struct ShardedEngine {
    cfg: EngineConfig,
    shards: Vec<EngineShard>,
    /// The skew gauges' tally, once attached.
    skew: Option<([MetricId; 2], Tally)>,
    dispatched: u64,
    last_workers: usize,
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("cfg", &self.cfg)
            .field("shards", &self.shards.len())
            .field("dispatched", &self.dispatched)
            .finish()
    }
}

impl ShardedEngine {
    /// Builds an engine: `factory(shard_index, cache_config)` constructs
    /// each shard's policy with its capacity slice. Rejects policies whose
    /// chunk size, cost model or capacity disagree with the engine.
    pub fn try_new<F>(cfg: EngineConfig, mut factory: F) -> Result<ShardedEngine, EngineError>
    where
        F: FnMut(usize, CacheConfig) -> Box<dyn CachePolicy>,
    {
        if cfg.shards == 0 {
            return Err(EngineError::NoShards);
        }
        if cfg.disk_chunks < cfg.shards as u64 {
            return Err(EngineError::DiskTooSmall {
                shards: cfg.shards,
                disk_chunks: cfg.disk_chunks,
            });
        }
        let mut shards = Vec::with_capacity(cfg.shards);
        for (i, cap) in cfg.shard_capacities().into_iter().enumerate() {
            let policy = factory(i, CacheConfig::new(cap, cfg.chunk_size, cfg.costs));
            if policy.chunk_size() != cfg.chunk_size {
                return Err(EngineError::PolicyMismatch {
                    shard: i,
                    what: "chunk size",
                });
            }
            if (policy.costs().alpha() - cfg.costs.alpha()).abs() > 1e-12 {
                return Err(EngineError::PolicyMismatch {
                    shard: i,
                    what: "cost model",
                });
            }
            if policy.disk_capacity_chunks() != cap {
                return Err(EngineError::PolicyMismatch {
                    shard: i,
                    what: "capacity",
                });
            }
            shards.push(EngineShard {
                policy,
                traffic: StreamTraffic::default(),
                obs: None,
            });
        }
        Ok(ShardedEngine {
            cfg,
            shards,
            skew: None,
            dispatched: 0,
            last_workers: 1,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The shard owning `video` under this engine's partition.
    pub fn shard_of(&self, video: VideoId) -> usize {
        shard_of_video(video, self.cfg.shards)
    }

    /// Whether `chunk` is cached, checked on its owning shard only (shard
    /// ownership means no other shard can hold it).
    pub fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.shards[shard_of_chunk(chunk, self.cfg.shards)]
            .policy
            .contains_chunk(chunk)
    }

    /// Attaches shared metrics: each shard's observer records its policy's
    /// decisions under `{scope}.s{i:02}.{policy}` (the policy itself is
    /// handed nothing), every shard adds its requests into its own share of
    /// the `{scope}.engine.*` aggregate counters (summed by the registry),
    /// and the rest of the instrumentation comes alive — per-shard stage
    /// counters and queue-gap histograms (`{scope}.s{i:02}.span.*`), the
    /// dispatch count (`{scope}.engine.span.dispatched_total`),
    /// shard-imbalance gauges, and per shard one Space-Saving sketch and
    /// one health-window ring, sized as [`TelemetryConfig::new`] sizes the
    /// Replayer's and retaining [`WINDOW_RETAIN`] windows. Detached engines
    /// skip all of it (off means free). Call before [`ShardedEngine::run`];
    /// snapshots taken at quiescence (after `run` returns) are consistent
    /// with the report.
    ///
    /// # Panics
    ///
    /// As [`MetricsSink::register`]: if `sink` already holds a live writer
    /// of one of this engine's gauges — an engine attached twice to one
    /// registry under one scope.
    pub fn attach_obs(&mut self, sink: &Arc<dyn MetricsSink>, scope: &str) {
        let chunk_bytes = self.cfg.chunk_size.bytes();
        let observers = ShardObserver::attach(sink, scope, &self.shards, chunk_bytes);
        self.skew = Some(engine_tally(sink, scope, SKEW));
        for (shard, obs) in self.shards.iter_mut().zip(observers) {
            shard.obs = Some(obs);
        }
    }

    /// Runs the whole trace through the engine on `workers` threads — the
    /// calling thread plus `workers − 1` spawned ones, clamped to the shard
    /// count. Per-shard results are bit-identical for any worker count.
    ///
    /// # Panics
    ///
    /// A panicking shard policy, or a failed `check_invariants` assert,
    /// propagates to the caller with its original message once every
    /// worker has joined. Workers wait on nothing, so the others finish
    /// their scan and the call returns in bounded time — never a hang.
    /// So does an attached engine's refusal of a request whose timestamp
    /// falls in health window [`vcdn_obs::window::MAX_WINDOWS`] or later
    /// ("exceeds MAX_WINDOWS"; see [`WindowRing::record`]). The engine's
    /// counters are unspecified afterwards.
    pub fn run(&mut self, trace: &Trace, workers: usize) -> EngineReport {
        self.run_prefix(trace, workers, trace.len())
    }

    /// Runs only the first `limit` requests — the deterministic stop
    /// path. Every request of the prefix is processed exactly once; the
    /// report's accounting equals a replay of the truncated trace.
    ///
    /// Running again continues with warm shards (counters and cache state
    /// accumulate), mirroring a long-lived serving process; feed the
    /// remaining suffix, not the same prefix — policies require request
    /// timestamps to stay monotone across calls.
    ///
    /// # Panics
    ///
    /// As [`ShardedEngine::run`]: a shard policy's panic or a failed
    /// invariant check propagates after all workers have joined.
    pub fn run_prefix(&mut self, trace: &Trace, workers: usize, limit: usize) -> EngineReport {
        let limit = limit.min(trace.len());
        let n = self.cfg.shards;
        let workers = workers.max(1).min(n);
        let kernel = Kernel::for_trace(
            trace,
            self.cfg.chunk_size,
            STEADY_AFTER,
            self.cfg.check_invariants,
        );
        let requests = &trace.requests[..limit];
        // A request's dispatch tick is its trace-order position over the
        // engine's lifetime (warm continuation keeps it monotone).
        let tick_base = self.dispatched;

        // Static shard ownership: worker `s % workers` owns shard `s`.
        // Resolved once into shard → (worker, slot in the worker's set) so
        // the request path divides nothing.
        let mut owned: Vec<Vec<&mut EngineShard>> = (0..workers).map(|_| Vec::new()).collect();
        let mut route = Vec::with_capacity(n);
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let w = s % workers;
            route.push((w, owned[w].len()));
            owned[w].push(shard);
        }
        let (kernel, route) = (&kernel, route.as_slice());
        std::thread::scope(|scope| {
            let mut owned = owned.into_iter().enumerate();
            let mine = owned.next();
            let spawned: Vec<_> = owned
                .map(|(w, mut own)| {
                    scope
                        .spawn(move || serve_owned(w, &mut own, route, requests, tick_base, kernel))
                })
                .collect();
            if let Some((w, mut own)) = mine {
                serve_owned(w, &mut own, route, requests, tick_base, kernel);
            }
            // Join explicitly so a worker's panic reaches the caller with
            // its own payload rather than the scope's generic message.
            for handle in spawned {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        self.dispatched += limit as u64;
        self.last_workers = workers;
        self.refresh_skew_gauges();
        self.report()
    }

    /// Recomputes the shard-imbalance gauges from the cumulative per-shard
    /// accounting: `max/mean × 1000` over requests and requested bytes.
    /// A perfectly balanced partition reads 1000; pure functions of the
    /// per-shard counters, hence worker-count-invariant.
    fn refresh_skew_gauges(&self) {
        let Some(([skew_requests, skew_bytes], tally)) = &self.skew else {
            return;
        };
        let n = self.shards.len() as u128;
        let skew = |max: u64, total: u64| (max as u128 * 1000 * n / total as u128) as u64;
        let requests = |s: &EngineShard| s.traffic.overall.total_requests();
        let req_max = self.shards.iter().map(requests).max().unwrap_or(0);
        let req_total: u64 = self.shards.iter().map(requests).sum();
        if req_total > 0 {
            tally.set(*skew_requests, skew(req_max, req_total));
        }
        let bytes = |s: &EngineShard| s.traffic.overall.requested_bytes();
        let byte_max = self.shards.iter().map(bytes).max().unwrap_or(0);
        let byte_total = self
            .shards
            .iter()
            .fold(TrafficCounter::default(), |a, s| a + s.traffic.overall)
            .requested_bytes();
        if byte_total > 0 {
            tally.set(*skew_bytes, skew(byte_max, byte_total));
        }
    }

    /// The engine's cumulative report (all requests run so far).
    pub fn report(&self) -> EngineReport {
        EngineReport {
            shards: (self.shards.iter().enumerate())
                .map(|(i, s)| ShardReport {
                    shard: i,
                    policy: s.policy.name(),
                    capacity_chunks: s.policy.disk_capacity_chunks(),
                    used_chunks: s.policy.disk_used_chunks(),
                    requests: s.traffic.overall.total_requests(),
                    overall: s.traffic.overall,
                    steady: s.traffic.steady,
                })
                .collect(),
            workers: self.last_workers,
            dispatched: self.dispatched,
            costs: self.cfg.costs,
        }
    }
}

/// Packages what `engine` has run so far as a `vcdn-telemetry/1` bundle:
/// a meta line identifying the engine run plus the registry's
/// deterministic metric snapshots (per-shard policy scopes and the engine
/// aggregates), the shards' heavy-hitter tables, the health windows merged
/// across shards, and the watchdog alerts [`vcdn_obs::RULES`] raise over
/// them. A detached engine exports empty `topk`, `window` and `alert`
/// sections.
///
/// Each shard's ring keeps its last [`WINDOW_RETAIN`] windows, so rings
/// that dropped different numbers of windows start at different indices.
/// Only the windows from the latest first-retained index on hold every
/// shard's requests: the bundle exports those, and counts the engine
/// windows before them as dropped. Alerts are judged over the exported
/// windows only.
///
/// The worker count is deliberately **not** part of the meta line: bundles
/// are byte-identical across worker counts, extending the repo-wide
/// telemetry determinism contract to the concurrent engine. Detection
/// runs with `streams` = shard count, so the skew metric reads
/// max-shard/mean-shard load.
pub fn engine_bundle(engine: &ShardedEngine, registry: &MetricsRegistry) -> TelemetryBundle {
    let report = engine.report();
    let observers: Vec<(usize, &ShardObserver)> = (engine.shards.iter().enumerate())
        .filter_map(|(i, s)| Some((i, s.obs.as_ref()?)))
        .collect();
    let mut bundle = TelemetryBundle::new();
    bundle.meta_entry("source", Json::Str("engine".into()));
    let policy = report.shards.first().map_or("?", |s| s.policy);
    bundle.meta_entry("policy", Json::Str(policy.into()));
    bundle.meta_entry("shards", Json::Int(report.shards.len() as i128));
    bundle.meta_entry("alpha", Json::Float(report.costs.alpha()));
    bundle.meta_entry("dispatched", Json::Int(report.dispatched as i128));
    let agg = report.aggregate_overall();
    bundle.meta_entry("hit_bytes", Json::Int(agg.hit_bytes as i128));
    bundle.meta_entry("fill_bytes", Json::Int(agg.fill_bytes as i128));
    bundle.meta_entry("redirect_bytes", Json::Int(agg.redirect_bytes as i128));
    let first = observers.first().map(|(_, o)| o);
    let topk_k = first.map_or(0, |o| o.topk.k());
    bundle.meta_entry("topk_k", Json::Int(topk_k as i128));
    let window_ms = first.map_or(0, |o| o.window.width_ms());
    bundle.meta_entry("window_ms", Json::Int(window_ms as i128));
    bundle.metrics = registry.snapshot();
    for (i, o) in &observers {
        let entries = o.topk.entries();
        bundle.topk.extend(TopKRecord::ranked(*i as u32, &entries));
    }
    // Non-destructive snapshots (closed + dirty open), cut to the windows
    // every shard still holds, then folded into one grid. The fold is
    // associative and order-invariant, so the result is
    // worker-count-invariant.
    let mut sets: Vec<Vec<WindowStats>> = (observers.iter())
        .map(|(_, o)| o.window.snapshot_windows())
        .collect();
    let from = sets.iter().filter_map(|s| s.first()).map(|w| w.index).max();
    let from = from.unwrap_or(0);
    sets.iter_mut().for_each(|s| s.retain(|w| w.index >= from));
    let windows = merge_windows(&sets);
    let shards = report.shards.len() as u64;
    bundle.set_windows(&windows, report.costs, from, shards);
    bundle
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_core::{CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig, XlruCache};
    use vcdn_obs::{MetricSnapshot, WindowRecord};
    use vcdn_trace::{ServerProfile, TraceGenerator};
    use vcdn_types::{ByteRange, DurationMs};

    use crate::matrix::{self, Source::Tiny};

    fn trace() -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), 99).generate(DurationMs::from_hours(12))
    }

    fn costs() -> CostModel {
        CostModel::from_alpha(2.0).unwrap()
    }

    fn xlru_engine(shards: usize, disk: u64) -> ShardedEngine {
        let cfg = EngineConfig::new(shards, disk, ChunkSize::DEFAULT, costs()).unwrap();
        ShardedEngine::try_new(cfg, |_, cache| Box::new(XlruCache::new(cache))).unwrap()
    }

    /// An attached engine's bundle after `engine.run(trace, workers)`,
    /// with the run's report.
    fn attached_bundle(
        mut engine: ShardedEngine,
        trace: &Trace,
        workers: usize,
    ) -> (EngineReport, TelemetryBundle) {
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = registry.clone();
        engine.attach_obs(&sink, "e0");
        let report = engine.run(trace, workers);
        let bundle = engine_bundle(&engine, &registry);
        (report, bundle)
    }

    fn value(metrics: &[MetricSnapshot], name: &str) -> u64 {
        let Some(metric) = metrics.iter().find(|m| m.name == name) else {
            panic!("metric {name} missing")
        };
        metric.value
    }

    #[test]
    fn config_rejects_degenerate_shapes() {
        let k = ChunkSize::DEFAULT;
        assert_eq!(
            EngineConfig::new(0, 64, k, costs()),
            Err(EngineError::NoShards)
        );
        assert_eq!(
            EngineConfig::new(8, 5, k, costs()),
            Err(EngineError::DiskTooSmall {
                shards: 8,
                disk_chunks: 5
            })
        );
        assert!(EngineConfig::new(8, 8, k, costs()).is_ok());
    }

    #[test]
    fn capacities_sum_and_spread() {
        let cfg = EngineConfig::new(5, 23, ChunkSize::DEFAULT, costs()).unwrap();
        let caps = cfg.shard_capacities();
        assert_eq!(caps, vec![5, 5, 5, 4, 4]);
        assert_eq!(caps.iter().sum::<u64>(), 23);
    }

    #[test]
    fn factory_mismatches_rejected() {
        let k100 = ChunkSize::new(100).unwrap();
        let cfg = EngineConfig::new(2, 64, ChunkSize::DEFAULT, costs()).unwrap();
        let wrong_k = ShardedEngine::try_new(cfg, |_, _| {
            Box::new(LruCache::new(CacheConfig::new(32, k100, costs())))
        });
        assert_eq!(
            wrong_k.err(),
            Some(EngineError::PolicyMismatch {
                shard: 0,
                what: "chunk size"
            })
        );
        let wrong_cap = ShardedEngine::try_new(cfg, |_, _| {
            Box::new(LruCache::new(CacheConfig::new(
                7,
                ChunkSize::DEFAULT,
                costs(),
            )))
        });
        assert_eq!(
            wrong_cap.err(),
            Some(EngineError::PolicyMismatch {
                shard: 0,
                what: "capacity"
            })
        );
    }

    #[test]
    fn chunk_shard_follows_video_shard() {
        for v in 0..200u64 {
            let vid = VideoId(v);
            let s = shard_of_video(vid, 7);
            assert!(s < 7);
            for c in [0u32, 1, 63, 1000] {
                assert_eq!(shard_of_chunk(ChunkId::new(vid, c), 7), s);
            }
        }
    }

    /// The seed trace of these tests on a 96-chunk disk, and on 97 chunks
    /// (shards of unequal capacity), through the replay matrix's rows for
    /// all four policies.
    const SEED: matrix::Point = (Tiny(99, 12), matrix::K, 2.0, 96);
    const UNEVEN: matrix::Point = (Tiny(99, 12), matrix::K, 2.0, 97);

    #[test]
    fn single_shard_engine_matches_unsharded_replay() {
        matrix::cells(SEED).for_each(|c| c.one_shard_row(&c.replay_row()));
    }

    #[test]
    fn worker_count_does_not_change_any_shard_counter() {
        for c in matrix::cells(SEED) {
            c.workers_row(4);
        }
    }

    #[test]
    fn every_request_lands_on_its_videos_shard() {
        matrix::cells(SEED).for_each(|c| c.per_shard_row(4));
    }

    #[test]
    fn sharded_engine_equals_per_shard_replays() {
        matrix::cells(UNEVEN).for_each(|c| c.per_shard_row(3));
    }

    #[test]
    fn run_prefix_equals_truncated_trace() {
        matrix::cells(SEED).for_each(|c| c.prefix_row(4));
    }

    #[test]
    fn warm_continuation_matches_uninterrupted_run() {
        matrix::cells(SEED).for_each(|c| c.warm_row(2));
    }

    #[test]
    fn all_four_policies_run_sharded() {
        matrix::cells(SEED).for_each(|c| c.demand_row(&c.replay_row()));
    }

    #[test]
    fn attached_registry_totals_match_report() {
        let (report, bundle) = attached_bundle(xlru_engine(4, 96), &trace(), 4);
        let metric = |name: &str| value(&bundle.metrics, name);
        let agg = report.aggregate_overall();
        let k = ChunkSize::DEFAULT.bytes();
        // Chunk totals are compared in bytes (metric × k), so a byte total
        // that is not a whole number of chunks fails.
        for (name, unit, total) in [
            ("serve_requests_total", 1, agg.served_requests),
            ("redirect_requests_total", 1, agg.redirected_requests),
            ("hit_chunks_total", k, agg.hit_bytes),
            ("fill_chunks_total", k, agg.fill_bytes),
            ("redirect_chunks_total", k, agg.redirect_bytes),
        ] {
            assert_eq!(metric(&format!("e0.engine.{name}")) * unit, total, "{name}");
        }
        // Engine totals equal the sum of per-shard policy scopes.
        let scoped_sum: u64 = (bundle.metrics.iter())
            .filter(|m| m.name.starts_with("e0.s") && m.name.ends_with("serve_requests_total"))
            .map(|m| m.value)
            .sum();
        assert_eq!(scoped_sum, agg.served_requests);
        // Per-shard scopes agree with the per-shard reports.
        for shard in &report.shards {
            assert_eq!(
                metric(&format!("e0.s{:02}.xlru.serve_requests_total", shard.shard)),
                shard.overall.served_requests,
                "shard {} scope",
                shard.shard
            );
        }
    }

    /// Forwards the seven required `CachePolicy` methods and nothing else,
    /// so the engine's telemetry must not depend on anything a wrapper
    /// could forget to forward.
    struct Required(Box<dyn CachePolicy>);

    impl CachePolicy for Required {
        fn handle_request(&mut self, request: &Request) -> Decision {
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
        fn contains_chunk(&self, chunk: ChunkId) -> bool {
            self.0.contains_chunk(chunk)
        }
    }

    #[test]
    fn shard_requests_partitions_in_order_at_exact_capacity() {
        let t = trace();
        for shards in [1, 3, 8] {
            let per = shard_requests(&t, shards);
            assert_eq!(per.len(), shards);
            for (s, requests) in per.iter().enumerate() {
                assert_eq!(requests.capacity(), requests.len(), "shard {s} of {shards}");
                let mine = |r: &&Request| shard_of_video(r.video, shards) == s;
                let want: Vec<Request> = t.requests.iter().filter(mine).copied().collect();
                assert_eq!(*requests, want, "shard {s} of {shards}");
            }
        }
    }

    #[test]
    fn engine_bundle_is_worker_count_invariant_jsonl() {
        let t = trace();
        let per_shard = shard_requests(&t, 4);
        type Build = fn(&[Request], CacheConfig) -> Box<dyn CachePolicy>;
        let jsonl_for = |build: Build, wrapped: bool, workers: usize| {
            let registry = Arc::new(MetricsRegistry::new());
            let sink: Arc<dyn MetricsSink> = registry.clone();
            let cfg = EngineConfig::new(4, 96, ChunkSize::DEFAULT, costs()).unwrap();
            let mut engine =
                ShardedEngine::try_new(cfg, |i, cache| match build(&per_shard[i], cache) {
                    policy if wrapped => Box::new(Required(policy)),
                    policy => policy,
                })
                .unwrap();
            engine.attach_obs(&sink, "e0");
            engine.run(&t, workers);
            engine_bundle(&engine, &registry).to_jsonl()
        };
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
            |shard, c| {
                let psychic = PsychicConfig::new(c.disk_chunks, c.chunk_size, c.costs);
                Box::new(PsychicCache::new(psychic, shard))
            },
        ];
        for build in policies {
            let bare = jsonl_for(build, false, 1);
            let name = build(&[], CacheConfig::new(1, ChunkSize::DEFAULT, costs())).name();
            assert!(bare.contains(&format!("\"e0.s00.{name}.serve_requests_total\"")));
            // The same bytes at 4 workers, and behind a wrapper at either.
            for (wrapped, workers) in [(false, 4), (true, 1), (true, 4)] {
                assert_eq!(
                    jsonl_for(build, wrapped, workers),
                    bare,
                    "{name}: wrapped {wrapped}, {workers} worker(s)"
                );
            }
        }
        let w1 = jsonl_for(policies[1], false, 1);
        for line in w1.lines() {
            vcdn_types::json::parse(line)
                .unwrap_or_else(|e| panic!("bad JSONL line {line}: {e:?}"));
        }
        // The invariant covers the new record kinds too: span metrics,
        // heavy-hitter lines and health windows are part of the
        // byte-compared payload.
        assert!(w1.contains("\"topk_k\":8"));
        assert!(w1.contains("\"type\":\"topk\""));
        assert!(w1.contains("\"type\":\"window\""));
        assert!(w1.contains("span.dispatched_total"));
        assert!(w1.contains("span.queue_gap"));
        assert!(w1.contains("span.skew_requests_x1000"));
    }

    #[test]
    fn engine_windows_conserve_report_totals() {
        let t = trace();
        let (report, bundle) = attached_bundle(xlru_engine(4, 96), &t, 3);
        let hour = DurationMs::HOUR.as_millis();
        assert_eq!(bundle.meta_get::<u64>("window_ms"), Some(hour));
        assert_eq!(bundle.windows_dropped, 0, "12h trace fits the ring");
        assert!(!bundle.windows.is_empty());
        // A contiguous grid from window 0 ...
        assert_eq!(vcdn_obs::check(&bundle), Vec::<String>::new());
        assert_eq!(bundle.windows[0].index, 0);
        // ... whose deltas sum to the report's aggregate accounting: the
        // shard rings saw every request exactly once.
        let sum = |f: fn(&WindowRecord) -> u64| bundle.windows.iter().map(f).sum::<u64>();
        let windows_total = TrafficCounter {
            hit_bytes: sum(|w| w.hit_bytes),
            fill_bytes: sum(|w| w.fill_bytes),
            redirect_bytes: sum(|w| w.redirect_bytes),
            served_requests: sum(|w| w.served_requests),
            redirected_requests: sum(|w| w.redirected_requests),
        };
        assert_eq!(windows_total, report.aggregate_overall());
        // One queue-gap sample per dispatched request, mirroring the
        // per-shard queue-gap histograms.
        assert_eq!(sum(|w| w.queue_gap_count), t.len() as u64);
        // A detached engine exports no windows (off means free).
        let mut detached = xlru_engine(4, 96);
        let bare = detached.run(&t, 3);
        let registry = MetricsRegistry::new();
        let bare_bundle = engine_bundle(&detached, &registry);
        assert!(bare_bundle.windows.is_empty() && bare_bundle.topk.is_empty());
        assert_eq!(bare_bundle.meta_get::<u64>("window_ms"), Some(0));
        // Equality still holds across the instrumentation divide.
        assert_eq!(bare, report);
    }

    /// Each shard ring keeps its last `WINDOW_RETAIN` windows. Video `a`
    /// (shard 0) is requested hourly for hours 0..=850 and video `b`
    /// (shard 1) for hours 0..=900: shard 0's ring keeps windows 82..=850,
    /// shard 1's 132..=900. Windows 82..=131 hold shard 0's request alone,
    /// so the export starts at window 132, where the drops end.
    #[test]
    fn ring_drops_export_only_windows_every_shard_holds() {
        let video_on = |shard| (0..).map(VideoId).find(|&v| shard_of_video(v, 2) == shard);
        let (a, b) = (video_on(0).unwrap(), video_on(1).unwrap());
        let k = ChunkSize::DEFAULT;
        let chunk = ByteRange::new(0, k.bytes() - 1).unwrap();
        let hour = DurationMs::HOUR.as_millis();
        let requests: Vec<Request> = (0..=900u64)
            .flat_map(|h| [(a, h), (b, h)])
            .filter(|&(v, h)| v == b || h <= 850)
            .map(|(v, h)| Request::new(v, chunk, vcdn_types::Timestamp(h * hour)))
            .collect();
        let meta = vcdn_trace::TraceMeta {
            name: "two-videos".into(),
            seed: 0,
            duration: DurationMs::from_hours(901),
            description: "two videos, one request an hour each".into(),
        };
        let t = Trace::new(meta, requests);
        let (_, bundle) = attached_bundle(xlru_engine(2, 4), &t, 2);
        let shard1_first = 900 - WINDOW_RETAIN as u64;
        assert_eq!(bundle.windows_dropped, shard1_first);
        assert_eq!(bundle.windows.len(), WINDOW_RETAIN + 1);
        for w in &bundle.windows {
            let requests = w.served_requests + w.redirected_requests;
            let want = if w.index <= 850 { 2 } else { 1 };
            assert_eq!(requests, want, "window {}", w.index);
        }
        assert_eq!(bundle.windows[0].index, shard1_first);
        assert_eq!(vcdn_obs::check(&bundle), Vec::<String>::new());
    }

    #[test]
    fn replay_and_engine_judge_only_the_windows_they_export() {
        // One request an hour for 900 hours, a fresh video only in hours
        // 20–22: a 4-chunk LRU fills for those three, an efficiency drop in
        // windows the 768-window ring has dropped by the end of the run.
        let k = ChunkSize::DEFAULT;
        let chunk = ByteRange::new(0, k.bytes() - 1).unwrap();
        let hour = DurationMs::HOUR.as_millis();
        let trace = |hours: u64| {
            let requests: Vec<Request> = (0..hours)
                .map(|h| {
                    let video = VideoId(if (20..=22).contains(&h) { h } else { 0 });
                    Request::new(video, chunk, vcdn_types::Timestamp(h * hour))
                })
                .collect();
            let meta = vcdn_trace::TraceMeta {
                name: "fresh-videos-at-hour-20".into(),
                seed: 0,
                duration: DurationMs::from_hours(hours),
                description: "one request an hour, fresh videos in hours 20-22".into(),
            };
            Trace::new(meta, requests)
        };
        let cache = CacheConfig::new(4, k, costs());
        let replay = |t: &Trace| {
            let replayer = crate::replay::Replayer::new(crate::ReplayConfig::new(k, costs()));
            let telemetry = crate::observe::TelemetryConfig::new();
            let mut lru = LruCache::new(cache);
            crate::observe::replay_with_telemetry(&replayer, t, &mut lru, &telemetry).1
        };
        // Exported whole, the incident raises its alert.
        let short = replay(&trace(100));
        let fired: Vec<(&str, u64)> = (short.alerts.iter())
            .map(|a| (a.rule.as_str(), a.window))
            .collect();
        assert_eq!(fired, [("efficiency-drop", 21)]);

        let t = trace(900);
        let cfg = EngineConfig::new(1, 4, k, costs()).unwrap();
        let engine = ShardedEngine::try_new(cfg, |_, c| Box::new(LruCache::new(c))).unwrap();
        let (_, engine) = attached_bundle(engine, &t, 1);
        let replay = replay(&t);
        for bundle in [&replay, &engine] {
            // The engine exports its open window too: 131 or 132 dropped.
            let dropped = bundle.windows_dropped;
            assert!(dropped >= 900 - WINDOW_RETAIN as u64 - 1, "{dropped}");
            assert!(bundle.alerts.iter().all(|a| a.window >= dropped));
            assert_eq!(vcdn_obs::check(bundle), Vec::<String>::new());
        }
        assert_eq!(replay.alerts, engine.alerts);
        assert_eq!(replay.alerts, []);
    }

    #[test]
    fn span_conservation_and_topk_bounds_hold() {
        let t = trace();
        let shards = 4;
        let (report, bundle) = attached_bundle(xlru_engine(shards, 96), &t, 3);
        let metric = |name: &str| value(&bundle.metrics, name);
        // Conservation: every dispatched request decided exactly once.
        let dispatched = metric("e0.engine.span.dispatched_total");
        assert_eq!(dispatched, t.len() as u64);
        let processed: u64 = (0..shards)
            .map(|i| metric(&format!("e0.s{i:02}.span.processed_total")))
            .sum();
        assert_eq!(dispatched, processed);
        for s in &report.shards {
            assert_eq!(
                metric(&format!("e0.s{:02}.span.processed_total", s.shard)),
                s.requests,
                "shard {} span vs report",
                s.shard
            );
        }
        // Queue-gap histograms observe one gap per dispatched request.
        let gap_count: u64 = (bundle.metrics.iter())
            .filter(|m| m.name.ends_with("span.queue_gap"))
            .map(|m| m.value)
            .sum();
        assert_eq!(gap_count, dispatched);
        // Skew gauges: max/mean ×1000 is at least 1000 by construction.
        assert!(metric("e0.engine.span.skew_requests_x1000") >= 1000);
        assert!(metric("e0.engine.span.skew_bytes_x1000") >= 1000);
        // Top-K sketches obey the Space-Saving bound against the exact
        // per-shard truth, and the heaviest video per shard is tracked.
        assert_eq!(bundle.meta_get::<u64>("topk_k"), Some(8));
        for (s, requests) in shard_requests(&t, shards).iter().enumerate() {
            let mut truth: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
            for r in requests {
                *truth.entry(r.video.0).or_insert(0) += 1;
            }
            let top: Vec<&TopKRecord> = (bundle.topk.iter())
                .filter(|r| r.shard as usize == s)
                .collect();
            assert!(!top.is_empty(), "shard {s} sketch empty");
            assert!(top.len() <= 8);
            let n_over_k = requests.len() as u64 / 8;
            for e in &top {
                let true_count = truth.get(&e.video).copied().unwrap_or(0);
                assert!(
                    e.count >= true_count && e.count - e.err <= true_count,
                    "shard {s} video {}: sketch [{}, {}] vs true {true_count}",
                    e.video,
                    e.count - e.err,
                    e.count
                );
            }
            if let Some((&hot, &hot_count)) = truth
                .iter()
                .max_by_key(|&(&v, &c)| (c, std::cmp::Reverse(v)))
            {
                if hot_count > n_over_k {
                    assert!(
                        top.iter().any(|e| e.video == hot),
                        "shard {s}: heavy video {hot} untracked"
                    );
                }
            }
        }
    }

    #[test]
    fn contains_chunk_checks_owning_shard() {
        let t = trace();
        let mut engine = xlru_engine(4, 96);
        engine.run(&t, 2);
        let mut cached = 0u64;
        for r in &t.requests {
            for c in r.chunk_range(ChunkSize::DEFAULT).iter() {
                if engine.contains_chunk(ChunkId::new(r.video, c)) {
                    cached += 1;
                }
            }
        }
        let used: u64 = engine.report().shards.iter().map(|s| s.used_chunks).sum();
        assert!(cached > 0, "warm engine should hold requested chunks");
        assert!(used > 0);
    }

    fn registry() -> (Arc<MetricsRegistry>, Arc<dyn MetricsSink>) {
        let reg = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = reg.clone();
        (reg, sink)
    }

    /// The observers [`ShardedEngine::attach_obs`] gives a `shards`-shard
    /// engine under scope `e`.
    fn observers(sink: &Arc<dyn MetricsSink>, shards: usize) -> Vec<ShardObserver> {
        let engine = xlru_engine(shards, 96);
        ShardObserver::attach(sink, "e", &engine.shards, ChunkSize::DEFAULT.bytes())
    }

    /// Feeds the shard sequence through per-shard observers the way the
    /// engine does: position in the sequence is the dispatch tick.
    fn dispatch(sink: &Arc<dyn MetricsSink>, shards: usize, seq: &[usize]) -> Vec<u64> {
        let mut obs = observers(sink, shards);
        (seq.iter().enumerate())
            .map(|(tick, &s)| obs[s].record_dispatch(tick as u64))
            .collect()
    }

    #[test]
    fn dispatch_conserves_and_shares_sum() {
        let (reg, sink) = registry();
        // Shards: 0,0,1,0 — ticks 0..4.
        dispatch(&sink, 2, &[0, 0, 1, 0]);
        assert_eq!(value(&reg.snapshot(), "e.engine.span.dispatched_total"), 4);
        // Shard 0 got 3 of 4 → share 750; shard 1 got 1 of 3 at its last
        // update (tick 2) → share 333.
        assert_eq!(value(&reg.snapshot(), "e.s00.span.load_share_x1000"), 750);
        assert_eq!(value(&reg.snapshot(), "e.s01.span.load_share_x1000"), 333);
    }

    #[test]
    fn queue_gap_measures_logical_interarrival() {
        let (reg, sink) = registry();
        let gaps = dispatch(&sink, 2, &[0, 1, 1, 0]);
        // Shard 0: gaps 1 (tick 0, first) and 3 (tick 3 − tick 0).
        // Shard 1: gaps 2 (tick 1, first) and 1 (tick 2 − tick 1).
        assert_eq!(gaps, vec![1, 2, 1, 3]);
        let snap = reg.snapshot();
        let hist = |name: &str| {
            snap.iter()
                .find(|m| m.name == name)
                .and_then(|m| m.histogram.clone())
                .unwrap_or_else(|| panic!("histogram {name} missing"))
        };
        let (s0, s1) = (hist("e.s00.span.queue_gap"), hist("e.s01.span.queue_gap"));
        assert_eq!([(s0.count, s0.sum), (s1.count, s1.sum)], [(2, 4), (2, 3)]);
    }

    #[test]
    fn shard_spans_count_decide_and_evict() {
        let (reg, sink) = registry();
        let obs = observers(&sink, 4);
        obs[3].record_stages(false);
        obs[3].record_stages(true);
        obs[3].record_stages(false);
        assert_eq!(value(&reg.snapshot(), "e.s03.span.processed_total"), 3);
        assert_eq!(value(&reg.snapshot(), "e.s03.span.evict_events_total"), 1);
    }

    #[test]
    fn logical_plane_is_fully_deterministic_kind() {
        let (reg, sink) = registry();
        let mut obs = observers(&sink, 4);
        for tick in 0..16 {
            obs[tick % 4].record_dispatch(tick as u64);
        }
        for (i, o) in obs.iter().enumerate() {
            o.record_stages(i % 2 == 0);
        }
        // Per shard the policy family and two stage counters, one shared
        // dispatch counter, two dispatch metrics per shard, and the six
        // shared engine totals: every one exports, shared names as one.
        let snap = reg.snapshot();
        let spans = snap.iter().filter(|m| m.name.contains(".span."));
        assert_eq!(spans.count(), 1 + 4 * 2 + 4 * 2, "span metrics must export");
        assert_eq!(snap.len(), 4 * (8 + 2) + 1 + 4 * 2 + 6);
        assert_eq!(value(&reg.snapshot(), "e.engine.span.dispatched_total"), 16);
    }
}
