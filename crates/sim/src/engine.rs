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
//!   ([`ShardedEngine::attach_obs`]) is one [`ReplayObserver`] per shard,
//!   fed by the kernel with the request's trace index as `seq`; its
//!   metrics go into `vcdn-obs` tallies the shard's worker alone writes —
//!   the shard's policy metric family (recorded by the observer from each
//!   decision; the policy itself records nothing), its stage counters, and
//!   its share of the engine-level totals, which the registry sums by
//!   name — so no two workers share a counter's cache line, and a snapshot
//!   taken at quiescence is consistent with the per-shard reports. A
//!   detached shard is served with the `()` observer: off means free.
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

use vcdn_obs::span::{DispatchSpans, ShardSpans};
use vcdn_obs::topk::{SpaceSaving, TopKEntry, TopKRecord};
use vcdn_obs::window::{merge_windows, WindowInput, WindowRing, WindowStats};

use vcdn_core::{CacheConfig, CachePolicy};
use vcdn_obs::{
    MetricId, MetricKind, MetricsRegistry, MetricsSink, PolicyObs, Rule, Tally, TelemetryBundle,
    Watchdog,
};
use vcdn_trace::Trace;
use vcdn_types::json::Json;
use vcdn_types::{
    fasthash, ChunkId, ChunkSize, CostModel, Decision, Request, TrafficCounter, VideoId,
};

use crate::observe::TelemetryConfig;
use crate::replay::{DecisionCtx, Kernel, ReplayObserver, StreamTraffic, STEADY_AFTER};

/// The shard that owns every chunk of `video`: fasthash over the packed
/// [`ChunkId`] of the video's first chunk, mod the shard count. Keying on
/// the video (rather than the individual chunk index) keeps a whole
/// request on one shard, so a policy sees the same request stream it would
/// see as a stand-alone cache for its partition.
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
/// per-shard oracle.
///
/// # Panics
///
/// Panics if `shards == 0`.
pub fn shard_requests(trace: &Trace, shards: usize) -> Vec<Vec<Request>> {
    let mut per: Vec<Vec<Request>> = (0..shards).map(|_| Vec::new()).collect();
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

/// Registers `metrics` under `{scope}.engine.` and returns the tally with
/// their ids in order.
fn engine_tally<const N: usize>(
    sink: &Arc<dyn MetricsSink>,
    scope: &str,
    metrics: [(&str, MetricKind); N],
) -> ([MetricId; N], Tally) {
    let tally = sink.register(&metrics.map(|(m, kind)| (format!("{scope}.engine.{m}"), kind)));
    (tally.ids(), tally)
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
/// the shard policy's metric family, its share of the engine totals, the
/// shard's stage counters and dispatch-stage accounting on the logical
/// clock, a heavy-hitter sketch over its video stream and a health-window
/// ring over its request sub-stream. The ring is never flushed mid-lifetime: warm continuation
/// keeps feeding the open window, and reports merge non-destructive
/// snapshots.
struct ShardObserver {
    policy: PolicyObs,
    totals: ([MetricId; 6], Tally),
    chunk_bytes: u64,
    spans: ShardSpans,
    dispatch: DispatchSpans,
    topk: SpaceSaving,
    window: WindowRing,
}

/// The kernel's [`DecisionCtx::seq`] is the request's global dispatch
/// index (trace order over the engine's lifetime) — the logical clock
/// behind the span plane and the window plane's queue-gap sketch.
impl ReplayObserver for ShardObserver {
    fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
        self.policy
            .record_decision(ctx.decision, ctx.occupancy_chunks);
        self.topk
            .record(ChunkId::new(ctx.request.video, 0).packed());
        let queue_gap = self.dispatch.record(ctx.seq);
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
        self.spans.record(input.evicted_chunks > 0);
        // Shard-level detection runs at report time over the merged
        // windows (Watchdog::run in engine_bundle), so closing needs no
        // callback here.
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
///
/// Equality compares the accounting payload only; `top_videos` is
/// deliberately excluded so an instrumented engine's report compares
/// equal to a detached baseline's (the off-means-free assertion of
/// `crates/bench/tests/pins.rs`).
#[derive(Debug, Clone)]
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
    /// The shard's heavy hitters (empty when the engine runs detached):
    /// Space-Saving entries keyed by the packed first chunk of each
    /// video, sorted `(count desc, key asc)`. Excluded from equality.
    pub top_videos: Vec<TopKEntry>,
}

impl PartialEq for ShardReport {
    fn eq(&self, other: &Self) -> bool {
        self.shard == other.shard
            && self.policy == other.policy
            && self.capacity_chunks == other.capacity_chunks
            && self.used_chunks == other.used_chunks
            && self.requests == other.requests
            && self.overall == other.overall
            && self.steady == other.steady
    }
}

/// Outcome of running a trace through the sharded engine.
///
/// Equality compares the deterministic payload — per-shard reports,
/// dispatched count and cost model. `workers` is deliberately excluded so
/// runs at different worker counts compare equal exactly when their
/// shard-level accounting is bit-identical (the determinism contract).
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
    /// Per-shard sketch capacity in effect (0 when the engine ran
    /// detached and no sketches existed). Excluded from equality.
    pub topk_k: usize,
    /// Health windows merged across shards, in index order (empty when
    /// the engine ran detached). Excluded from equality like
    /// `top_videos`: the windows themselves are worker-count-invariant,
    /// but an instrumented report must still compare equal to a detached
    /// baseline's.
    pub windows: Vec<WindowStats>,
    /// Window width in effect (0 when detached). Excluded from equality.
    pub window_ms: u64,
    /// Closed windows evicted from the per-shard rings before this
    /// report, summed across shards. Excluded from equality.
    pub windows_dropped: u64,
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
    /// and the span/sketch/window instrumentation comes alive —
    /// per-shard stage counters and queue-gap histograms
    /// (`{scope}.s{i:02}.span.*`), the dispatch count
    /// (`{scope}.engine.span.dispatched_total`), shard-imbalance gauges,
    /// and per shard one Space-Saving sketch and one health-window ring,
    /// sized as [`TelemetryConfig::new`] sizes the Replayer's. Detached
    /// engines skip all of it (off means free). Call before
    /// [`ShardedEngine::run`]; snapshots taken at quiescence (after `run`
    /// returns) are consistent with the report.
    ///
    /// # Panics
    ///
    /// As [`MetricsSink::register`]: if `sink` already holds a live writer
    /// of one of this engine's gauges — an engine attached twice to one
    /// registry under one scope.
    pub fn attach_obs(&mut self, sink: &Arc<dyn MetricsSink>, scope: &str) {
        // Registration order is export order: every shard's policy and
        // stage counters, then the dispatch-stage metrics, then the engine
        // aggregates (each shard a writer of the totals, then the skew
        // gauges).
        let families: Vec<(PolicyObs, ShardSpans)> = (self.shards.iter().enumerate())
            .map(|(i, shard)| {
                let shard_scope = format!("{scope}.s{i:02}.{}", shard.policy.name());
                (
                    PolicyObs::attach(Arc::clone(sink), &shard_scope),
                    ShardSpans::attach(sink, scope, i),
                )
            })
            .collect();
        let dispatch = DispatchSpans::attach(sink, scope, self.cfg.shards);
        let totals: Vec<_> = (0..self.cfg.shards)
            .map(|_| engine_tally(sink, scope, TOTALS))
            .collect();
        self.skew = Some(engine_tally(sink, scope, SKEW));
        let sizes = TelemetryConfig::new();
        for (shard, (((policy, spans), dispatch), totals)) in
            (self.shards.iter_mut()).zip(families.into_iter().zip(dispatch).zip(totals))
        {
            shard.obs = Some(ShardObserver {
                policy,
                totals,
                chunk_bytes: self.cfg.chunk_size.bytes(),
                spans,
                dispatch,
                topk: SpaceSaving::new(sizes.topk_k),
                window: WindowRing::new(sizes.window.as_millis(), sizes.window_retain),
            });
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
        // Non-destructive per-shard window snapshots (closed + dirty open)
        // folded into one engine-level grid. The fold is associative and
        // order-invariant, so the result is worker-count-invariant.
        let observers: Vec<&ShardObserver> =
            self.shards.iter().filter_map(|s| s.obs.as_ref()).collect();
        let window_sets: Vec<Vec<WindowStats>> = observers
            .iter()
            .map(|o| o.window.snapshot_windows())
            .collect();
        EngineReport {
            shards: self
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| ShardReport {
                    shard: i,
                    policy: s.policy.name(),
                    capacity_chunks: s.policy.disk_capacity_chunks(),
                    used_chunks: s.policy.disk_used_chunks(),
                    requests: s.traffic.overall.total_requests(),
                    overall: s.traffic.overall,
                    steady: s.traffic.steady,
                    top_videos: s.obs.as_ref().map(|o| o.topk.entries()).unwrap_or_default(),
                })
                .collect(),
            workers: self.last_workers,
            dispatched: self.dispatched,
            costs: self.cfg.costs,
            topk_k: observers.first().map_or(0, |o| o.topk.k()),
            window_ms: observers.first().map_or(0, |o| o.window.width_ms()),
            windows_dropped: observers.iter().map(|o| o.window.dropped()).sum(),
            windows: merge_windows(&window_sets),
        }
    }
}

/// Packages an engine run as a `vcdn-telemetry/1` bundle: a meta line
/// identifying the engine run plus the registry's deterministic metric
/// snapshots (per-shard policy scopes and the engine aggregates), the
/// merged health windows, and the watchdog alerts the `rules` produce
/// over them (pass [`vcdn_obs::default_rules`] for the stock rule set).
///
/// The worker count is deliberately **not** part of the meta line: bundles
/// are byte-identical across worker counts, extending the repo-wide
/// telemetry determinism contract to the concurrent engine. Detection
/// here is batch — the merged engine-level grid only exists at report
/// time — and runs with `streams` = shard count, so the skew metric
/// reads max-shard/mean-shard load.
pub fn engine_bundle(
    report: &EngineReport,
    registry: &MetricsRegistry,
    rules: &[Rule],
) -> TelemetryBundle {
    let mut bundle = TelemetryBundle::new();
    bundle.meta_entry("source", Json::Str("engine".into()));
    bundle.meta_entry(
        "policy",
        Json::Str(
            report
                .shards
                .first()
                .map(|s| s.policy)
                .unwrap_or("?")
                .into(),
        ),
    );
    bundle.meta_entry("shards", Json::Int(report.shards.len() as i128));
    bundle.meta_entry("alpha", Json::Float(report.costs.alpha()));
    bundle.meta_entry("dispatched", Json::Int(report.dispatched as i128));
    let agg = report.aggregate_overall();
    bundle.meta_entry("hit_bytes", Json::Int(agg.hit_bytes as i128));
    bundle.meta_entry("fill_bytes", Json::Int(agg.fill_bytes as i128));
    bundle.meta_entry("redirect_bytes", Json::Int(agg.redirect_bytes as i128));
    bundle.meta_entry("topk_k", Json::Int(report.topk_k as i128));
    bundle.meta_entry("window_ms", Json::Int(report.window_ms as i128));
    bundle.metrics = registry.snapshot();
    for shard in &report.shards {
        bundle
            .topk
            .extend(TopKRecord::ranked(shard.shard as u32, &shard.top_videos));
    }
    bundle.set_windows(&report.windows, report.costs, report.windows_dropped);
    bundle.alerts = Watchdog::run(
        rules,
        report.costs,
        report.shards.len() as u64,
        &report.windows,
    );
    bundle
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::{ReplayConfig, Replayer};
    use vcdn_core::{CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig, XlruCache};
    use vcdn_trace::{ServerProfile, TraceGenerator};
    use vcdn_types::DurationMs;

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

    #[test]
    fn single_shard_engine_matches_unsharded_replay() {
        let t = trace();
        let mut engine = xlru_engine(1, 96);
        let engine_report = engine.run(&t, 1);

        let mut cache = XlruCache::new(CacheConfig::new(96, ChunkSize::DEFAULT, costs()));
        let replay =
            Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs())).replay(&t, &mut cache);

        let shard = &engine_report.shards[0];
        assert_eq!(shard.overall, replay.overall);
        assert_eq!(shard.steady, replay.steady);
        assert_eq!(engine_report.efficiency(), replay.efficiency());
    }

    #[test]
    fn worker_count_does_not_change_any_shard_counter() {
        let t = trace();
        let reports: Vec<EngineReport> = [1, 2, 3, 8]
            .into_iter()
            .map(|w| xlru_engine(4, 96).run(&t, w))
            .collect();
        for r in &reports[1..] {
            assert_eq!(&reports[0], r);
        }
        // Workers field reflects the actual (clamped) count but is
        // excluded from equality.
        assert_eq!(reports[3].workers, 4);
        // Detached engines carry no sketches: off means free.
        assert_eq!(reports[0].topk_k, 0);
        assert!(reports[0].shards.iter().all(|s| s.top_videos.is_empty()));
    }

    #[test]
    fn every_request_lands_on_its_videos_shard() {
        let t = trace();
        let shards = 4;
        let mut engine = xlru_engine(shards, 96);
        let report = engine.run(&t, 2);
        let per_shard = shard_requests(&t, shards);
        for (s, expected) in per_shard.iter().enumerate() {
            assert_eq!(
                report.shards[s].requests,
                expected.len() as u64,
                "shard {s} request count"
            );
        }
        assert_eq!(report.total_requests() as usize, t.len());
        let requested: u64 = t
            .requests
            .iter()
            .map(|r| r.chunk_len(ChunkSize::DEFAULT) * ChunkSize::DEFAULT.bytes())
            .sum();
        assert_eq!(report.aggregate_overall().requested_bytes(), requested);
    }

    #[test]
    fn sharded_engine_equals_per_shard_replays() {
        // The strongest oracle: shard s of the engine behaves exactly like
        // a stand-alone cache of the shard's capacity replaying the
        // shard's sub-trace.
        let t = trace();
        let shards = 3;
        let mut engine = xlru_engine(shards, 97);
        let report = engine.run(&t, 3);
        let caps = engine.config().shard_capacities();
        for (s, requests) in shard_requests(&t, shards).into_iter().enumerate() {
            let sub = Trace::new(t.meta.clone(), requests);
            let mut cache = XlruCache::new(CacheConfig::new(caps[s], ChunkSize::DEFAULT, costs()));
            let replay = Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs()))
                .replay(&sub, &mut cache);
            assert_eq!(report.shards[s].overall, replay.overall, "shard {s}");
            assert_eq!(report.shards[s].steady, replay.steady, "shard {s}");
        }
    }

    #[test]
    fn run_prefix_equals_truncated_trace() {
        let t = trace();
        let cut = t.len() / 3;
        let mut prefix_engine = xlru_engine(4, 96);
        let prefix_report = prefix_engine.run_prefix(&t, 4, cut);

        let truncated = Trace::new(t.meta.clone(), t.requests[..cut].to_vec());
        let mut full_engine = xlru_engine(4, 96);
        let full_report = full_engine.run(&truncated, 1);
        assert_eq!(prefix_report, full_report);
        assert_eq!(prefix_report.dispatched, cut as u64);
    }

    #[test]
    fn warm_continuation_matches_uninterrupted_run() {
        // Stopping after a prefix and continuing with the suffix must be
        // indistinguishable from never stopping: cache state, counters and
        // steady-state accounting all carry across run calls.
        let t = trace();
        let cut = t.len() / 2;
        let mut split = xlru_engine(2, 96);
        split.run_prefix(&t, 2, cut);
        let suffix = Trace::new(t.meta.clone(), t.requests[cut..].to_vec());
        let split_report = split.run(&suffix, 2);

        let full_report = xlru_engine(2, 96).run(&t, 2);
        assert_eq!(split_report, full_report);
        assert_eq!(split_report.dispatched, t.len() as u64);
    }

    #[test]
    fn all_four_policies_run_sharded() {
        let t = trace();
        let k = ChunkSize::DEFAULT;
        let shards = 4;
        let per_shard = shard_requests(&t, shards);
        let mut engines: Vec<(&str, ShardedEngine)> = Vec::new();
        let cfg = EngineConfig::new(shards, 96, k, costs()).unwrap();
        engines.push((
            "lru",
            ShardedEngine::try_new(cfg, |_, c| Box::new(LruCache::new(c))).unwrap(),
        ));
        engines.push((
            "xlru",
            ShardedEngine::try_new(cfg, |_, c| Box::new(XlruCache::new(c))).unwrap(),
        ));
        engines.push((
            "cafe",
            ShardedEngine::try_new(cfg, |_, c| {
                Box::new(CafeCache::new(CafeConfig {
                    cache: c,
                    ..CafeConfig::new(c.disk_chunks, k, costs())
                }))
            })
            .unwrap(),
        ));
        engines.push((
            "psychic",
            ShardedEngine::try_new(cfg, |i, c| {
                Box::new(PsychicCache::new(
                    PsychicConfig::new(c.disk_chunks, k, costs()),
                    &per_shard[i],
                ))
            })
            .unwrap(),
        ));
        for (name, engine) in &mut engines {
            let report = engine.run(&t, 3);
            assert_eq!(
                report.total_requests() as usize,
                t.len(),
                "{name} engine lost requests"
            );
            assert_eq!(report.shards[0].policy, *name);
        }
    }

    #[test]
    fn attached_registry_totals_match_report() {
        let t = trace();
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = registry.clone();
        let mut engine = xlru_engine(4, 96);
        engine.attach_obs(&sink, "e0");
        let report = engine.run(&t, 4);
        let snap = registry.snapshot();
        let metric = |name: &str| {
            snap.iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .value
        };
        let agg = report.aggregate_overall();
        assert_eq!(
            metric("e0.engine.serve_requests_total"),
            agg.served_requests
        );
        assert_eq!(
            metric("e0.engine.redirect_requests_total"),
            agg.redirected_requests
        );
        let k = ChunkSize::DEFAULT.bytes();
        assert_eq!(metric("e0.engine.hit_chunks_total") * k, agg.hit_bytes);
        assert_eq!(metric("e0.engine.fill_chunks_total") * k, agg.fill_bytes);
        assert_eq!(
            metric("e0.engine.redirect_chunks_total") * k,
            agg.redirect_bytes
        );
        // Engine totals equal the sum of per-shard policy scopes.
        let scoped_sum: u64 = snap
            .iter()
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
            let report = engine.run(&t, workers);
            engine_bundle(&report, &registry, &vcdn_obs::default_rules()).to_jsonl()
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
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = registry.clone();
        let mut engine = xlru_engine(4, 96);
        engine.attach_obs(&sink, "e0");
        let report = engine.run(&t, 3);
        assert_eq!(report.window_ms, DurationMs::HOUR.as_millis());
        assert_eq!(report.windows_dropped, 0, "12h trace fits the ring");
        assert!(!report.windows.is_empty());
        // Merged windows form a contiguous grid starting at window 0.
        for (i, w) in report.windows.iter().enumerate() {
            assert_eq!(w.index, report.windows[0].index + i as u64);
        }
        assert_eq!(report.windows[0].index, 0);
        // Σ(window deltas) equals the report's aggregate accounting: the
        // shard rings saw every request exactly once.
        let sum = report
            .windows
            .iter()
            .fold(TrafficCounter::default(), |acc, w| acc + w.traffic);
        assert_eq!(sum, report.aggregate_overall());
        // One queue-gap sample per dispatched request, mirroring the
        // span-plane histograms.
        let gaps: u64 = report.windows.iter().map(|w| w.queue_gap.count).sum();
        assert_eq!(gaps, t.len() as u64);
        // A detached engine exports no windows (off means free).
        let mut detached = xlru_engine(4, 96);
        let bare = detached.run(&t, 3);
        assert!(bare.windows.is_empty());
        assert_eq!(bare.window_ms, 0);
        // Equality still holds across the instrumentation divide.
        assert_eq!(bare, report);
    }

    #[test]
    fn span_conservation_and_topk_bounds_hold() {
        let t = trace();
        let shards = 4;
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = registry.clone();
        let mut engine = xlru_engine(shards, 96);
        engine.attach_obs(&sink, "e0");
        let report = engine.run(&t, 3);
        let snap = registry.snapshot();
        let metric = |name: &str| {
            snap.iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("metric {name} missing"))
                .value
        };
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
        let gap_count: u64 = snap
            .iter()
            .filter(|m| m.name.ends_with("span.queue_gap"))
            .map(|m| m.value)
            .sum();
        assert_eq!(gap_count, dispatched);
        // Skew gauges: max/mean ×1000 is at least 1000 by construction.
        assert!(metric("e0.engine.span.skew_requests_x1000") >= 1000);
        assert!(metric("e0.engine.span.skew_bytes_x1000") >= 1000);
        // Top-K sketches obey the Space-Saving bound against the exact
        // per-shard truth, and the heaviest video per shard is tracked.
        assert_eq!(report.topk_k, 8);
        let per = shard_requests(&t, shards);
        for s in &report.shards {
            let mut truth: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
            for r in &per[s.shard] {
                *truth.entry(r.video.0).or_insert(0) += 1;
            }
            assert!(!s.top_videos.is_empty(), "shard {} sketch empty", s.shard);
            assert!(s.top_videos.len() <= 8);
            let n_over_k = per[s.shard].len() as u64 / 8;
            for e in &s.top_videos {
                let video = e.key >> ChunkId::INDEX_BITS;
                let true_count = truth.get(&video).copied().unwrap_or(0);
                assert!(
                    e.count >= true_count && e.count - e.err <= true_count,
                    "shard {} video {video}: sketch [{}, {}] vs true {true_count}",
                    s.shard,
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
                        s.top_videos
                            .iter()
                            .any(|e| e.key >> ChunkId::INDEX_BITS == hot),
                        "shard {}: heavy video {hot} untracked",
                        s.shard
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
}
