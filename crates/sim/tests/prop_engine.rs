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
//!   `run` with its own message in bounded time, at any worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use vcdn_core::{CachePolicy, XlruCache};
use vcdn_sim::engine::{
    shard_of_chunk, shard_of_video, shard_requests, EngineConfig, ShardedEngine,
};
use vcdn_trace::rng::DetRng;
use vcdn_trace::{ServerProfile, Trace, TraceGenerator};
use vcdn_types::{ChunkId, ChunkSize, CostModel, Decision, DurationMs, Request, VideoId};

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

/// A policy that behaves like its inner cache until its `fail_at`-th
/// request, then panics — a stand-in for any policy bug.
struct PanicsAt {
    inner: XlruCache,
    seen: u64,
    fail_at: u64,
}

impl CachePolicy for PanicsAt {
    fn handle_request(&mut self, request: &Request) -> Decision {
        self.seen += 1;
        assert!(
            self.seen != self.fail_at,
            "injected fault on request {}",
            self.fail_at
        );
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

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.inner.contains_chunk(chunk)
    }
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
        let (tx, rx) = mpsc::channel();
        let trace = Arc::clone(&trace);
        std::thread::spawn(move || {
            let cfg = EngineConfig::new(SHARDS, 96, ChunkSize::DEFAULT, costs())
                .expect("valid engine config");
            let mut engine = ShardedEngine::try_new(cfg, |shard, cache| -> Box<dyn CachePolicy> {
                Box::new(PanicsAt {
                    inner: XlruCache::new(cache),
                    seen: 0,
                    fail_at: if shard == VICTIM { 11 } else { u64::MAX },
                })
            })
            .expect("engine builds");
            let outcome = catch_unwind(AssertUnwindSafe(|| engine.run(&trace, workers)));
            let message = outcome.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|m| m.to_string()))
                    .unwrap_or_default()
            });
            // The receiver is gone only if the test already timed out.
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("{workers} workers: run hung after a shard policy panic"));
        assert_eq!(
            message.as_deref(),
            Some("injected fault on request 11"),
            "{workers} workers: run must unwind with the policy's panic message"
        );
    }
}
