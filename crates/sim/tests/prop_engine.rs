//! Property tests for the sharded serving engine, driven by the repo's
//! own [`DetRng`] (no external property-testing crates — the build is
//! offline). Each property runs over many deterministic random cases, so
//! failures are reproducible from the printed case parameters alone.
//!
//! Properties pinned here:
//! * partition totality — every `ChunkId` maps to exactly one shard, and
//!   always the shard of its video;
//! * partition stability — the video→shard map is identical across
//!   independent runs and independent engine instances;
//! * capacity conservation — per-shard capacity slices sum to the
//!   configured total for arbitrary (shards, disk) shapes;
//! * stop/drain conservation — stopping the feed after a random number of
//!   requests never loses or double-counts a request, at any worker count;
//! * fault propagation — a shard policy that panics mid-run unwinds
//!   `run` with its own message in bounded time, at any worker count;
//! * one serve contract — a policy whose serve under-covers its request,
//!   or whose disk reads over capacity, is refused with the kernel's own
//!   message by both drivers of the kernel, in bounded time;
//! * bounded time on a hostile clock — a far-future timestamp is refused
//!   with a documented panic, never walked to one window at a time.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use vcdn_core::{CacheConfig, CachePolicy, LruCache, XlruCache};
use vcdn_obs::{MetricsRegistry, MetricsSink};
use vcdn_sim::engine::{
    shard_of_chunk, shard_of_video, shard_requests, EngineConfig, ShardedEngine,
};
use vcdn_sim::{replay_with_telemetry, ReplayConfig, Replayer, TelemetryConfig};
use vcdn_trace::rng::DetRng;
use vcdn_trace::{ServerProfile, Trace, TraceGenerator, TraceMeta};
use vcdn_types::{
    ByteRange, ChunkId, ChunkSize, CostModel, Decision, DurationMs, Request, Timestamp, VideoId,
};

const PROP_SEED: u64 = 0x5EED_6E61_4E50_5236; // stable per-file seed

fn costs() -> CostModel {
    CostModel::from_alpha(2.0).expect("valid alpha")
}

fn golden_trace(seed: u64, hours: u64) -> Trace {
    TraceGenerator::new(ServerProfile::tiny_test(), seed).generate(DurationMs::from_hours(hours))
}

fn xlru_engine(shards: usize, disk: u64) -> ShardedEngine {
    let cfg =
        EngineConfig::new(shards, disk, ChunkSize::DEFAULT, costs()).expect("valid engine config");
    ShardedEngine::try_new(cfg, |_, cache| -> Box<dyn CachePolicy> {
        Box::new(XlruCache::new(cache))
    })
    .expect("engine builds")
}

/// Every chunk id maps to exactly one shard — the shard of its video —
/// for randomized (video, index, shard-count) triples.
#[test]
fn every_chunk_maps_to_exactly_one_shard() {
    let mut rng = DetRng::new(PROP_SEED);
    for case in 0..2_000 {
        let shards = rng.range_inclusive(1, 32) as usize;
        let video = VideoId(rng.next_u64());
        let index = rng.below(1 << 20) as u32;
        let chunk = ChunkId::new(video, index);
        let s = shard_of_chunk(chunk, shards);
        assert!(s < shards, "case {case}: shard {s} out of range {shards}");
        assert_eq!(
            s,
            shard_of_video(video, shards),
            "case {case}: chunk strayed from its video's shard"
        );
        // Totality is exclusivity here: the map is a function of
        // (video, shards) only, so no second shard can claim the chunk.
        for other in 0..shards {
            if other != s {
                assert_ne!(
                    shard_of_chunk(chunk, shards),
                    other,
                    "case {case}: chunk claimed by two shards"
                );
            }
        }
    }
}

/// The video→shard partition is stable: recomputing it — in any order,
/// from any engine instance — yields the identical map.
#[test]
fn partition_is_stable_across_runs() {
    let mut rng = DetRng::new(PROP_SEED ^ 1);
    for _ in 0..20 {
        let shards = rng.range_inclusive(1, 16) as usize;
        let videos: Vec<VideoId> = (0..500).map(|_| VideoId(rng.below(1 << 44))).collect();
        let first: Vec<usize> = videos.iter().map(|&v| shard_of_video(v, shards)).collect();
        // Recompute in reverse order (no hidden state) and through engine
        // instances (no per-instance salt).
        let engine_a = xlru_engine(shards, 64);
        let engine_b = xlru_engine(shards, 64);
        for (i, &v) in videos.iter().enumerate().rev() {
            assert_eq!(first[i], shard_of_video(v, shards));
            assert_eq!(first[i], engine_a.shard_of(v));
            assert_eq!(first[i], engine_b.shard_of(v));
        }
    }
}

/// Per-shard capacity slices sum to the configured total and differ by at
/// most one chunk, for arbitrary valid (shards, disk_chunks) shapes.
#[test]
fn shard_capacities_sum_to_total() {
    let mut rng = DetRng::new(PROP_SEED ^ 2);
    for case in 0..2_000 {
        let shards = rng.range_inclusive(1, 64) as usize;
        let disk = rng.range_inclusive(shards as u64, 1 << 20);
        let cfg = EngineConfig::new(shards, disk, ChunkSize::DEFAULT, costs())
            .expect("valid engine config");
        let caps = cfg.shard_capacities();
        assert_eq!(caps.len(), shards, "case {case}");
        assert_eq!(
            caps.iter().sum::<u64>(),
            disk,
            "case {case}: slices must sum"
        );
        let min = caps.iter().min().expect("non-empty");
        let max = caps.iter().max().expect("non-empty");
        assert!(*min >= 1, "case {case}: a shard got zero capacity");
        assert!(max - min <= 1, "case {case}: uneven split {min}..{max}");
    }
}

/// Randomized stop/drain: dispatching a random prefix of the trace at a
/// random worker count, stopping, then draining never loses or
/// double-counts a request — the engine's accounting equals an
/// uninterrupted single-worker run over the same prefix, request for
/// request and byte for byte.
#[test]
fn random_stop_drain_conserves_every_request() {
    let trace = golden_trace(4217, 12);
    let mut rng = DetRng::new(PROP_SEED ^ 3);
    for case in 0..12 {
        let shards = rng.range_inclusive(1, 8) as usize;
        let workers = rng.range_inclusive(1, 8) as usize;
        let cut = rng.below(trace.len() as u64 + 1) as usize;

        let mut stopped = xlru_engine(shards, 96);
        let stopped_report = stopped.run_prefix(&trace, workers, cut);

        let prefix = Trace::new(trace.meta.clone(), trace.requests[..cut].to_vec());
        let mut oracle = xlru_engine(shards, 96);
        let oracle_report = oracle.run(&prefix, 1);

        assert_eq!(
            stopped_report.dispatched, cut as u64,
            "case {case} (shards={shards} workers={workers} cut={cut})"
        );
        assert_eq!(
            stopped_report.total_requests(),
            cut as u64,
            "case {case}: lost or duplicated requests"
        );
        assert_eq!(
            stopped_report, oracle_report,
            "case {case} (shards={shards} workers={workers} cut={cut}): \
             drained accounting diverged from uninterrupted run"
        );
    }
}

/// How a [`Faulty`] policy breaks its contract.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Panics on its n-th request — a stand-in for any policy bug.
    PanicsAt(u64),
    /// Claims `Serve` while delivering one chunk too few — one breach the
    /// kernel's invariant walk exists to catch.
    UnderCovers,
    /// Reports one chunk more on disk than its capacity — the other.
    OverCapacity,
}

/// A policy that behaves like its inner cache except for one [`Fault`].
struct Faulty<P> {
    inner: P,
    seen: u64,
    fault: Fault,
}

fn faulty<P: CachePolicy + 'static>(inner: P, fault: Fault) -> Box<dyn CachePolicy> {
    Box::new(Faulty {
        inner,
        seen: 0,
        fault,
    })
}

impl<P: CachePolicy> CachePolicy for Faulty<P> {
    fn handle_request(&mut self, request: &Request) -> Decision {
        self.seen += 1;
        let decision = self.inner.handle_request(request);
        match (&self.fault, decision) {
            (Fault::PanicsAt(n), _) if self.seen == *n => {
                panic!("injected fault on request {n}")
            }
            (Fault::UnderCovers, Decision::Serve(mut o)) => {
                if o.filled_chunks > 0 {
                    o.filled_chunks -= 1;
                } else {
                    o.hit_chunks -= 1;
                }
                Decision::Serve(o)
            }
            (_, decision) => decision,
        }
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
        match self.fault {
            Fault::OverCapacity => self.inner.disk_capacity_chunks() + 1,
            _ => self.inner.disk_used_chunks(),
        }
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.inner.disk_capacity_chunks()
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.inner.contains_chunk(chunk)
    }
}

/// Runs `f` on a helper thread and returns its panic message (`None` if it
/// returned normally), failing the test if it is still running after
/// `secs` — so a hang fails at the timeout instead of wedging the suite.
fn panic_message_within<F>(secs: u64, what: &str, f: F) -> Option<String>
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let message = catch_unwind(AssertUnwindSafe(f)).err().map(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
                .unwrap_or_default()
        });
        // The receiver is gone only if the test already timed out.
        let _ = tx.send(message);
    });
    rx.recv_timeout(Duration::from_secs(secs))
        .unwrap_or_else(|_| panic!("{what}: still running after {secs} s"))
}

/// A shard policy that panics on its 11th request must unwind `run` with
/// the policy's own message, promptly, at 1, 2 and 4 workers — never a
/// hang. The trace routes thousands of further requests to the victim
/// shard (far more than any bounded hand-off buffer would absorb), so an
/// engine in which anything waits on the dead worker cannot finish; the
/// run happens on a helper thread so that a hang fails the test at the
/// timeout instead of wedging the suite.
#[test]
fn panicking_shard_policy_unwinds_run_at_any_worker_count() {
    const SHARDS: usize = 4;
    const VICTIM: usize = 1;
    let trace = Arc::new(golden_trace(4217, 240));
    let victim_requests = shard_requests(&trace, SHARDS)[VICTIM].len();
    assert!(
        victim_requests > 11 + 8 * 256,
        "trace too short to outlast a bounded queue: {victim_requests} victim requests"
    );
    for workers in [1, 2, 4] {
        let trace = Arc::clone(&trace);
        let what = format!("{workers} workers: run after a shard policy panic");
        let message = panic_message_within(10, &what, move || {
            let cfg = EngineConfig::new(SHARDS, 96, ChunkSize::DEFAULT, costs())
                .expect("valid engine config");
            let mut engine = ShardedEngine::try_new(cfg, |shard, cache| -> Box<dyn CachePolicy> {
                let fail_at = if shard == VICTIM { 11 } else { u64::MAX };
                faulty(XlruCache::new(cache), Fault::PanicsAt(fail_at))
            })
            .expect("engine builds");
            engine.run(&trace, workers);
        });
        assert_eq!(
            message.as_deref(),
            Some("injected fault on request 11"),
            "{workers} workers: run must unwind with the policy's panic message"
        );
    }
}

fn honest() -> LruCache {
    LruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs()))
}

/// Both drivers of the kernel — the Replayer, and the engine at 1 and 4
/// workers — refuse each serve-contract breach with the kernel's own
/// message, within 10 s. The checks are on by default (`ReplayConfig::new`,
/// `EngineConfig::new`) and run in release builds too.
#[test]
fn both_drivers_refuse_a_serve_contract_breach() {
    /// Replays the tiny trace with every policy at fault: through the
    /// Replayer (`None`), or through a 4-shard engine at `workers`.
    fn drive(fault: Fault, workers: Option<usize>) {
        let trace = golden_trace(7, 2);
        let Some(workers) = workers else {
            let replayer = Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs()));
            replayer.replay(&trace, faulty(honest(), fault).as_mut());
            return;
        };
        let cfg =
            EngineConfig::new(4, 96, ChunkSize::DEFAULT, costs()).expect("valid engine config");
        let mut engine = ShardedEngine::try_new(cfg, |_, cache| -> Box<dyn CachePolicy> {
            faulty(LruCache::new(cache), fault)
        })
        .expect("engine builds");
        engine.run(&trace, workers);
    }
    let faults = [
        (Fault::UnderCovers, "lru: serve must cover the full request"),
        (Fault::OverCapacity, "lru: capacity exceeded"),
    ];
    for (fault, want) in faults {
        for workers in [None, Some(1), Some(4)] {
            let what = format!("{fault:?} policy, engine workers {workers:?}");
            let message = panic_message_within(10, &what, move || drive(fault, workers));
            assert!(
                message.as_deref().is_some_and(|m| m.contains(want)),
                "{what}: expected the kernel's \"{want}\" panic, got {message:?}"
            );
        }
    }
}

/// A time-ordered two-request trace whose second timestamp is far out (a
/// trace stamped in epoch-ms instead of zero-based ms is enough) must be
/// refused with the documented `MAX_WINDOWS` panic by every driver that
/// keeps a time grid — inside 5 s, where walking the grid one empty
/// window at a time would take hours or exhaust memory.
#[test]
fn far_future_timestamp_is_refused_in_bounded_time() {
    fn refused(what: &str, drive: impl FnOnce(&Trace) + Send + 'static) {
        let at = |t| {
            Request::new(
                VideoId(1),
                ByteRange::new(0, 99).expect("range"),
                Timestamp(t),
            )
        };
        let hostile = Trace::new(
            TraceMeta {
                name: "hostile".into(),
                seed: 0,
                duration: DurationMs::ZERO,
                description: String::new(),
            },
            vec![at(0), at(u64::MAX / 2)],
        );
        let message = panic_message_within(5, what, move || drive(&hostile));
        assert!(
            message
                .as_deref()
                .is_some_and(|m| m.contains("exceeds MAX_WINDOWS")),
            "{what}: expected the MAX_WINDOWS refusal, got {message:?}"
        );
    }
    let replayer = Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs()));
    refused("plain replay", move |trace| {
        replayer.replay(trace, &mut honest());
    });
    refused("replay_with_telemetry", move |trace| {
        replay_with_telemetry(&replayer, trace, &mut honest(), &TelemetryConfig::new());
    });
    refused("attached 4-shard engine", |trace| {
        let sink: Arc<dyn MetricsSink> = Arc::new(MetricsRegistry::new());
        let mut engine = xlru_engine(4, 96);
        engine.attach_obs(&sink, "e0");
        engine.run(trace, 2);
    });
}
