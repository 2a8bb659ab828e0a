//! The replay matrix: every policy through every driver, on every trace
//! point, agreeing to the counter.
//!
//! For LRU, xLRU, Cafe and Psychic, on each [`Point`] (a trace, a chunk
//! size, α and a disk), the rows of a [`Cell`] must agree:
//!
//! - the Replayer row: Eq. 2 accounts every requested byte, the hourly
//!   windows partition the run, steady state is exactly the requests from
//!   half the declared horizon on (the replayer checks the `CachePolicy`
//!   contract after every request);
//! - a repeat: the trace generated again and replayed again in the same
//!   process gives the same report, windows included — under
//!   `--features vcdn-types/std-hash` every hot map gets a fresh random
//!   hasher, so this is the end-to-end witness that no hash order leaks;
//! - the engine rows: a one-shard engine ≡ the replay; the engine at 1, 2,
//!   3, 4 and 8 workers, per shard and aggregate; each engine shard ≡ a
//!   replay of its `shard_requests` sub-trace; at 2, 4 and 8 shards, the
//!   same demand as the replay and an Eq. 2 efficiency within a
//!   partitioning tolerance of it; `run_prefix` ≡ a run of the truncated
//!   trace; a warm continuation ≡ an uninterrupted run;
//! - the time-shift row: the same counters, Replayer and engine, with every
//!   request moved later by up to 2^40 ms.
//!
//! Psychic's shards know the full trace's per-shard futures in every cell.
//! The §3 baselines (`Lfu`, `Lru2`, `Gdsp`) are cells too, for the
//! Replayer and repeat rows the hash-independence pins run.
//! Each row is a method of [`Cell`]; [`every_cell`] runs all of them and
//! the facts of the empty and the one-shard traces. The test files that
//! include this module (the engine's unit tests too, through `#[path]`)
//! choose the points and the rows, and hold the literal byte pins their
//! points are checked against.

// Each test binary runs only some of the points.
#![allow(dead_code)]

use std::sync::Arc;

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig,
    RankedCache, XlruCache,
};
use vcdn_obs::{MetricsRegistry, MetricsSink, TelemetryBundle};
use vcdn_sim::engine::{
    engine_bundle, shard_of_video, shard_requests, EngineConfig, EngineReport, ShardedEngine,
};
use vcdn_sim::{ReplayConfig, ReplayReport, Replayer};
use vcdn_trace::{ServerProfile, Trace, TraceGenerator, TraceMeta};
use vcdn_types::{
    ByteRange, ChunkSize, CostModel, DurationMs, Request, Timestamp, TrafficCounter, VideoId,
};
use Source::{Empty, Golden, OneShard, Tiny};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    Lru,
    Xlru,
    Cafe,
    Psychic,
    Lfu,
    Lru2,
    Gdsp,
}

/// The four policies of the matrix.
pub const POLICIES: [Policy; 4] = [Policy::Lru, Policy::Xlru, Policy::Cafe, Policy::Psychic];

impl Policy {
    /// The policy's [`CachePolicy::name`].
    fn name(self) -> &'static str {
        match self {
            Policy::Lru => "lru",
            Policy::Xlru => "xlru",
            Policy::Cafe => "cafe",
            Policy::Psychic => "psychic",
            Policy::Lfu => "lfu",
            Policy::Lru2 => "lru-k",
            Policy::Gdsp => "gdsp",
        }
    }

    /// The policy over `cache`; Psychic knows `future`.
    fn build(self, cache: CacheConfig, future: &[Request]) -> Box<dyn CachePolicy> {
        let (disk, k, costs) = (cache.disk_chunks, cache.chunk_size, cache.costs);
        match self {
            Policy::Lru => Box::new(LruCache::new(cache)),
            Policy::Xlru => Box::new(XlruCache::new(cache)),
            Policy::Cafe => Box::new(CafeCache::new(CafeConfig::new(disk, k, costs))),
            Policy::Psychic => {
                let psychic = PsychicConfig::new(disk, k, costs);
                Box::new(PsychicCache::new(psychic, future))
            }
            Policy::Lfu => Box::new(RankedCache::lfu(cache)),
            Policy::Lru2 => Box::new(RankedCache::lru2(cache)),
            Policy::Gdsp => Box::new(RankedCache::gdsp(cache)),
        }
    }
}

/// Where a point's trace comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// `ServerProfile::tiny_test` at (seed, hours).
    Tiny(u64, u64),
    /// The hand-written [`golden_trace`], declared this many minutes
    /// long.
    Golden(u64),
    /// No requests at all.
    Empty,
    /// A tiny trace at (seed, hours) cut to the requests of shard 0 of
    /// [`SHARDS`]: every video hashes to one shard.
    OneShard(u64, u64),
}

/// One trace and cache shape: (source, chunk bytes, α, disk chunks).
pub type Point = (Source, u64, f64, u64);

/// Shards of the engine's per-shard and worker-count cells.
const SHARDS: usize = 4;
/// The generated traces' chunk size, `ChunkSize::DEFAULT`.
pub const K: u64 = 2 << 20;

/// 14 requests (video, first byte, last byte, minute) over 3 videos within
/// one hour, on 100-byte chunks: enough re-requests that the policies
/// admit content and enough distinct chunks (14 > the 6-chunk disk) that
/// they must also evict and redirect.
pub fn golden_trace(minutes: u64) -> Trace {
    let requests = [
        (1, 0, 299, 1),
        (2, 0, 199, 2),
        (1, 0, 299, 3),
        (3, 0, 99, 4),
        (1, 100, 399, 5),
        (2, 0, 199, 6),
        (2, 200, 399, 7),
        (1, 0, 199, 8),
        (3, 0, 99, 9),
        (1, 0, 399, 10),
        (2, 0, 99, 11),
        (3, 100, 299, 12),
        (1, 200, 399, 13),
        (2, 100, 399, 14),
    ];
    let requests = requests.map(|(video, start, end, minute)| {
        let bytes = ByteRange::new(start, end).expect("start <= end");
        Request::new(VideoId(video), bytes, Timestamp(minute * 60_000))
    });
    let meta = TraceMeta {
        name: "golden".into(),
        seed: 0,
        duration: DurationMs::from_secs(minutes * 60),
        description: "hand-written golden-regression trace".into(),
    };
    Trace::new(meta, requests.to_vec())
}

pub fn trace_of(source: Source) -> Trace {
    let tiny = |seed, hours| {
        let generator = TraceGenerator::new(ServerProfile::tiny_test(), seed);
        generator.generate(DurationMs::from_hours(hours))
    };
    match source {
        Tiny(seed, hours) => tiny(seed, hours),
        Golden(minutes) => golden_trace(minutes),
        Empty => Trace::new(golden_trace(60).meta, Vec::new()),
        OneShard(seed, hours) => {
            let t = tiny(seed, hours);
            let one = shard_requests(&t, SHARDS).swap_remove(0);
            Trace::new(t.meta, one)
        }
    }
}

/// One policy at one point, and how to build each driver.
pub struct Cell {
    policy: Policy,
    point: Point,
    trace: Trace,
    k: ChunkSize,
    costs: CostModel,
    disk: u64,
    /// The cell's name in failure messages.
    at: String,
}

impl Cell {
    pub fn new(policy: Policy, point: Point) -> Cell {
        let (source, chunk_bytes, alpha, disk) = point;
        let trace = trace_of(source);
        let k = ChunkSize::new(chunk_bytes).expect("non-zero");
        let costs = CostModel::from_alpha(alpha).expect("valid alpha");
        let at = format!("{policy:?} at {point:?}");
        Cell {
            policy,
            point,
            trace,
            k,
            costs,
            disk,
            at,
        }
    }

    fn sub(&self, requests: &[Request]) -> Trace {
        Trace::new(self.trace.meta.clone(), requests.to_vec())
    }

    fn replayer(&self) -> Replayer {
        Replayer::new(ReplayConfig::new(self.k, self.costs))
    }

    /// The policy on a `disk`-chunk cache replaying `requests`.
    fn replay(&self, requests: &[Request], disk: u64) -> ReplayReport {
        let cache = CacheConfig::new(disk, self.k, self.costs);
        let mut policy = self.policy.build(cache, requests);
        self.replayer().replay(&self.sub(requests), policy.as_mut())
    }

    /// A detached `shards`-shard engine of the policy.
    fn engine(&self, shards: usize) -> ShardedEngine {
        let cfg = EngineConfig::new(shards, self.disk, self.k, self.costs).expect("shape");
        let futures = shard_requests(&self.trace, shards);
        let build = |s: usize, cache| self.policy.build(cache, &futures[s]);
        ShardedEngine::try_new(cfg, build).expect("engine builds")
    }

    /// An attached `SHARDS`-shard engine's report at `workers`, and its
    /// bundle.
    fn attached(&self, workers: usize) -> (EngineReport, TelemetryBundle) {
        let registry = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = registry.clone();
        let mut engine = self.engine(SHARDS);
        engine.attach_obs(&sink, "m");
        let report = engine.run(&self.trace, workers);
        (report, engine_bundle(&engine, &registry))
    }

    fn requested_bytes(&self) -> u64 {
        let k = self.k;
        self.trace
            .requests
            .iter()
            .map(|r| r.chunk_len(k) * k.bytes())
            .sum()
    }

    fn generated(&self) -> bool {
        matches!(self.point.0, Tiny(..) | OneShard(..))
    }

    /// The Replayer row; its report is what the other rows agree with.
    pub fn replay_row(&self) -> ReplayReport {
        let (trace, at, n) = (&self.trace, &self.at, self.trace.len());
        let requested = self.requested_bytes();
        let replay = self.replay(&trace.requests, self.disk);
        assert_eq!(replay.policy, self.policy.name(), "{at}: policy name");
        let overall = replay.overall;
        assert_eq!(overall.requested_bytes(), requested, "{at}: Eq. 2");
        assert_eq!(overall.total_requests() as usize, n, "{at}");
        let windows = replay.windows.iter().map(|w| w.traffic);
        let windows = windows.fold(TrafficCounter::default(), |a, w| a + w);
        assert_eq!(windows, overall, "{at}: window leak");
        assert!(replay.steady.requested_bytes() <= requested, "{at}");
        assert!(replay.steady.total_requests() as usize <= n, "{at}");
        // Steady state is the requests at or after half the declared horizon
        // (the golden trace's 14 all fall in its first half hour).
        let cut = trace.meta.duration.as_millis() / 2;
        let steady = trace
            .requests
            .iter()
            .filter(|r| r.t.as_millis() >= cut)
            .count();
        assert_eq!(
            replay.steady.total_requests() as usize,
            steady,
            "{at}: steady cut"
        );
        assert!(!self.generated() || steady > 0, "{at}: steady half");
        let eff = replay.efficiency();
        assert!(
            n == 0 || (-1.0..=1.0).contains(&eff),
            "{at}: efficiency {eff}"
        );
        replay
    }

    /// A repeat, from a regenerated trace.
    pub fn repeat_row(&self, replay: &ReplayReport) {
        let (again, at) = (Cell::new(self.policy, self.point), &self.at);
        assert_eq!(again.trace, self.trace, "{at}: trace regenerated");
        let repeat = again.replay(&again.trace.requests, self.disk);
        assert_eq!(&repeat, replay, "{at}: repeat");
    }

    /// One shard is the replay, whatever the worker count asks for.
    pub fn one_shard_row(&self, replay: &ReplayReport) {
        let one = self.engine(1).run(&self.trace, 4);
        let (shard, at) = (&one.shards[0], &self.at);
        assert_eq!(one.workers, 1, "{at}: clamp");
        assert_eq!(
            (shard.overall, shard.steady),
            (replay.overall, replay.steady),
            "{at}"
        );
        let eff = replay.efficiency().to_bits();
        assert_eq!(one.efficiency().to_bits(), eff, "{at}");
    }

    /// The `shards`-shard engine at 1, 2, 3, 4 and 8 workers: every shard
    /// counter and the aggregates; a detached engine exports empty `topk`
    /// and `window` sections. Returns the one-worker report.
    pub fn workers_row(&self, shards: usize) -> EngineReport {
        let (trace, name) = (&self.trace, self.policy.name());
        let base = self.engine(shards).run(trace, 1);
        for workers in [2, 3, 4, 8] {
            let mut engine = self.engine(shards);
            let run = engine.run(trace, workers);
            let at = format!("{}, {workers} workers", self.at);
            assert_eq!(run, base, "{at}");
            assert_eq!(run.workers, workers.min(shards), "{at}: clamp");
            assert_eq!(run.aggregate_overall(), base.aggregate_overall(), "{at}");
            assert_eq!(run.aggregate_steady(), base.aggregate_steady(), "{at}");
            let bundle = engine_bundle(&engine, &MetricsRegistry::new());
            assert!(bundle.topk.is_empty() && bundle.windows.is_empty(), "{at}");
            for key in ["topk_k", "window_ms"] {
                assert_eq!(bundle.meta_get::<u64>(key), Some(0), "{at}: {key}");
            }
            assert!(run.shards.iter().all(|s| s.policy == name), "{at}");
        }
        base
    }

    /// Each engine shard is a stand-alone cache of its capacity replaying
    /// its sub-trace.
    pub fn per_shard_row(&self, shards: usize) {
        let trace = &self.trace;
        let engine = self.engine(shards);
        let caps = engine.config().shard_capacities();
        let report = { engine }.run(trace, shards);
        for (s, sub) in shard_requests(trace, shards).iter().enumerate() {
            let alone = self.replay(sub, caps[s]);
            let (shard, at) = (
                &report.shards[s],
                format!("{}, shard {s} of {shards}", self.at),
            );
            assert_eq!(shard.requests, sub.len() as u64, "{at}");
            assert_eq!(
                (shard.overall, shard.steady),
                (alone.overall, alone.steady),
                "{at}"
            );
        }
        let at = &self.at;
        assert_eq!(report.total_requests() as usize, trace.len(), "{at}");
        let agg = report.aggregate_overall();
        assert_eq!(agg.requested_bytes(), self.requested_bytes(), "{at}");
    }

    /// Sharding partitions capacity, not demand: at 2, 4 and 8 shards the
    /// same requests and bytes, and an efficiency close to the single
    /// cache's (only on generated traces, big enough for the tolerance).
    pub fn demand_row(&self, replay: &ReplayReport) {
        let (n, requested, eff) = (
            self.trace.len(),
            self.requested_bytes(),
            replay.efficiency(),
        );
        for shards in [2, 4, 8].into_iter().filter(|_| self.generated()) {
            let report = self.engine(shards).run(&self.trace, 4);
            let (agg, at) = (
                report.aggregate_overall(),
                format!("{}, {shards} shards", self.at),
            );
            assert_eq!(agg.requested_bytes(), requested, "{at}");
            assert_eq!(agg.total_requests() as usize, n, "{at}");
            let sharded = report.efficiency();
            let close = sharded.is_finite() && (sharded - eff).abs() < 0.15;
            assert!(
                close,
                "{at}: sharded efficiency {sharded} too far from unsharded {eff}"
            );
        }
    }

    /// Stopping a `shards`-shard engine after a prefix is running the
    /// truncated trace.
    pub fn prefix_row(&self, shards: usize) {
        let (trace, at) = (&self.trace, &self.at);
        let cut = trace.len() / 3;
        let prefix = self.engine(shards).run_prefix(trace, 4, cut);
        let head = self.sub(&trace.requests[..cut]);
        let truncated = self.engine(shards).run(&head, 1);
        assert_eq!(prefix, truncated, "{at}: prefix");
        assert_eq!(prefix.dispatched, cut as u64, "{at}");
    }

    /// Continuing a `shards`-shard engine warm is never stopping: cache
    /// state, counters and steady-state accounting carry across run calls.
    pub fn warm_row(&self, shards: usize) {
        let (trace, at, n) = (&self.trace, &self.at, self.trace.len());
        let mut split = self.engine(shards);
        split.run_prefix(trace, 2, n / 2);
        let continued = split.run(&self.sub(&trace.requests[n / 2..]), 2);
        assert_eq!(continued, self.engine(shards).run(trace, 2), "{at}: warm");
        assert_eq!(continued.dispatched, n as u64, "{at}");
    }

    /// Moving the trace later in time changes no counter. Every request is
    /// shifted by 1 ms, 7 d + 13 ms and 2^40 ms, and the declared horizon
    /// grows by twice the shift, so the steady-state cut (half the horizon)
    /// moves with the requests. The Replayer's and a detached
    /// `SHARDS`-shard engine's overall and steady counters must stay
    /// byte-equal to the unshifted runs'.
    pub fn time_shift_row(&self, replay: &ReplayReport) {
        let counters = |r: &EngineReport| -> Vec<_> {
            (r.shards.iter())
                .map(|s| (s.requests, s.overall, s.steady))
                .collect()
        };
        let base = counters(&self.engine(SHARDS).run(&self.trace, 1));
        for shift in [1, DurationMs::from_days(7).as_millis() + 13, 1 << 40] {
            let mut trace = self.trace.clone();
            for r in &mut trace.requests {
                r.t = Timestamp(r.t.as_millis() + shift);
            }
            trace.meta.duration = DurationMs(trace.meta.duration.as_millis() + 2 * shift);
            let shifted = Cell {
                trace,
                at: format!("{}, shifted {shift} ms", self.at),
                ..*self
            };
            let at = &shifted.at;
            let moved = shifted.replay(&shifted.trace.requests, self.disk);
            let moved = (moved.overall, moved.steady);
            assert_eq!(moved, (replay.overall, replay.steady), "{at}: replay");
            let engine = shifted.engine(SHARDS).run(&shifted.trace, 1);
            assert_eq!(counters(&engine), base, "{at}: engine");
        }
    }

    /// Every engine row; returns the `SHARDS`-shard engine's report.
    pub fn engine_rows(&self, replay: &ReplayReport) -> EngineReport {
        self.one_shard_row(replay);
        let base = self.workers_row(SHARDS);
        self.per_shard_row(3);
        self.per_shard_row(SHARDS);
        self.demand_row(replay);
        self.prefix_row(SHARDS);
        self.warm_row(2);
        base
    }
}

/// The cells of every policy at `point`.
pub fn cells(point: Point) -> impl Iterator<Item = Cell> {
    POLICIES
        .into_iter()
        .map(move |policy| Cell::new(policy, point))
}

/// The overall (hit, fill, redirect) bytes of a report.
pub fn bytes(report: &ReplayReport) -> (u64, u64, u64) {
    let t = report.overall;
    (t.hit_bytes, t.fill_bytes, t.redirect_bytes)
}

/// Runs every row of `policy` at `point`, and the facts of the empty and
/// the one-shard traces; returns the Replayer row.
pub fn every_cell(policy: Policy, point: Point) -> ReplayReport {
    let c = Cell::new(policy, point);
    let at = &c.at;
    let replay = c.replay_row();
    c.repeat_row(&replay);
    let engine = c.engine_rows(&replay);
    let zero = TrafficCounter::default();
    match point.0 {
        Empty => {
            assert!(replay.overall == zero && replay.windows.is_empty(), "{at}");
            for workers in 1..=8 {
                let (report, bundle) = c.attached(workers);
                let at = format!("{at}, {workers} workers");
                assert_eq!(report, engine, "{at}");
                let totals = (report.aggregate_overall(), report.dispatched);
                assert_eq!(totals, (zero, 0), "{at}");
                assert!(bundle.windows.is_empty(), "{at}");
            }
        }
        OneShard(..) => {
            let on_zero = |r: &Request| shard_of_video(r.video, SHARDS) == 0;
            assert!(c.trace.len() > 100, "{at}: trace size");
            assert!(c.trace.requests.iter().all(on_zero), "{at}: one shard");
            let (report, bundle) = c.attached(2);
            let skew = "m.engine.span.skew_requests_x1000";
            let skew = (bundle.metrics.iter()).find(|m| m.name == skew);
            let skew = skew.map(|m| m.value);
            assert_eq!(report, engine, "{at}");
            // The hot shard is its own replay: the whole trace on a
            // quarter of the disk; the others see nothing.
            let hot = c.replay(&c.trace.requests, c.disk / SHARDS as u64);
            let shard = &engine.shards[0];
            assert_eq!(
                (shard.overall, shard.steady),
                (hot.overall, hot.steady),
                "{at}"
            );
            for s in &engine.shards[1..] {
                assert_eq!((s.requests, s.overall), (0, zero), "{at}");
            }
            assert_eq!(skew, Some(4_000), "{at}: skew_requests_x1000");
        }
        Tiny(..) | Golden(_) => {}
    }
    replay
}
