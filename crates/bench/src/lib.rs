//! The experiment harness: every figure of the paper, and what they share.
//!
//! [`figures::FIGURES`] lists one function per experiment (see `DESIGN.md`
//! §4 for the index); the `figures` binary dispatches on the name. This
//! library also centralises the pieces they share: the scale model mapping
//! the paper's physical setup (1 TB disks, month-long traces) onto
//! laptop-sized runs, strict flag parsing ([`Args`]), trace construction
//! per server profile, the policy factory, and the grid helpers that run
//! the same trace through xLRU, Cafe and Psychic.

#![forbid(unsafe_code)]

pub mod args;
pub mod figures;
pub mod scenario;

pub use args::Args;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig,
    XlruCache,
};
use vcdn_sim::runner::{run_grid, worker_count, Cell, GridRun};
use vcdn_sim::{ReplayConfig, ReplayReport, Replayer};
use vcdn_trace::{downsample, DownsampleConfig, ServerProfile, Trace, TraceGenerator};
use vcdn_types::{ChunkSize, CostModel, DurationMs, Request, Timestamp};

/// The paper's reference disk size (Figures 3–5, 7): 1 TB.
pub const PAPER_DISK_BYTES: u64 = 1024 * 1024 * 1024 * 1024;

/// Experiment scale: all volumes (disk, catalog, request rate) shrink by
/// the same linear factor, preserving the disk-to-working-set ratios that
/// drive the paper's results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// The default experiment scale (1/16 of the paper's physical setup).
    pub fn default_experiment() -> Self {
        Scale(1.0 / 16.0)
    }

    /// The scaled chunk count for a paper-scale disk of `bytes`.
    pub fn disk_chunks(&self, bytes: u64, k: ChunkSize) -> u64 {
        (((bytes as f64 * self.0) / k.bytes() as f64).round() as u64).max(1)
    }

    /// Scales a server profile's volume knobs.
    pub fn profile(&self, p: ServerProfile) -> ServerProfile {
        p.scaled(self.0)
    }
}

/// The workload seed used across all experiments (recorded in
/// `EXPERIMENTS.md`; change it and every number changes together).
pub const EXPERIMENT_SEED: u64 = 20140413; // EuroSys'14 opening day

/// Generates a scaled trace for a profile under the experiment seed;
/// ends the command, as a bad command line does, if it holds no requests.
pub fn trace_for(profile: ServerProfile, scale: Scale, days: u64) -> Trace {
    refuse_empty(
        TraceGenerator::new(scale.profile(profile), EXPERIMENT_SEED)
            .generate(DurationMs::from_days(days)),
    )
}

/// Ends a `figures` or `obs` command as a bad command line does (exit 2)
/// if `trace`, just generated, holds no requests
/// ([`Trace::require_requests`]), with its one `error:` line on stderr —
/// before the command prints a table or writes a bundle.
fn refuse_empty(trace: Trace) -> Trace {
    if let Err(e) = trace.require_requests() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    trace
}

/// §9.1's limited-scale trace for the LP experiments: two days of
/// `profile` at `profile_scale`, down-sampled to `files` files uniformly
/// from the hit-count-sorted list (20 MB size cap), first `max_requests`.
pub fn reduced_two_day_trace(
    profile: ServerProfile,
    profile_scale: f64,
    files: usize,
    max_requests: usize,
) -> Trace {
    let full = trace_for(profile, Scale(profile_scale), 2);
    let cfg = DownsampleConfig {
        files,
        ..DownsampleConfig::paper_default(Timestamp::EPOCH)
    };
    let mut t = downsample(&full, &cfg);
    t.requests.truncate(max_requests);
    t
}

/// The evaluation's reference setup (Figs. 3–5 and most ablations): the
/// Europe server's trace, the paper's 1 TB disk at `scale` in chunks, and
/// the 2 MiB chunk size — announced on stderr under `title`.
pub fn reference_setup(title: &str, scale: Scale, days: u64) -> (Trace, u64, ChunkSize) {
    let k = ChunkSize::DEFAULT;
    let disk = scale.disk_chunks(PAPER_DISK_BYTES, k);
    let trace = trace_for(ServerProfile::europe(), scale, days);
    eprintln!(
        "{title}: europe, {days} days, {} requests, disk={disk} chunks (scale {})",
        trace.len(),
        scale.0
    );
    (trace, disk, k)
}

/// The three algorithms of the paper's main experiments, in figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Baseline LRU (context only; not in the paper's figures).
    Lru,
    /// xLRU (§5).
    Xlru,
    /// Cafe (§6).
    Cafe,
    /// Psychic (§8).
    Psychic,
}

impl Algo {
    /// The paper's three compared algorithms, in bar-group order.
    pub fn paper_three() -> [Algo; 3] {
        [Algo::Xlru, Algo::Cafe, Algo::Psychic]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Lru => "lru",
            Algo::Xlru => "xlru",
            Algo::Cafe => "cafe",
            Algo::Psychic => "psychic",
        }
    }

    /// Builds the policy on `cache` (Psychic needs the requests it will
    /// be replayed on: a whole trace's, or one engine shard's).
    pub fn build(&self, requests: &[Request], cache: CacheConfig) -> Box<dyn CachePolicy> {
        let (disk_chunks, k, costs) = (cache.disk_chunks, cache.chunk_size, cache.costs);
        match self {
            Algo::Lru => Box::new(LruCache::new(cache)),
            Algo::Xlru => Box::new(XlruCache::new(cache)),
            Algo::Cafe => Box::new(CafeCache::new(CafeConfig {
                cache,
                ..CafeConfig::new(disk_chunks, k, costs)
            })),
            Algo::Psychic => Box::new(PsychicCache::new(
                PsychicConfig::new(disk_chunks, k, costs),
                requests,
            )),
        }
    }
}

/// Replays `trace` through one algorithm and reports.
pub fn run_algo(
    algo: Algo,
    trace: &Trace,
    disk_chunks: u64,
    k: ChunkSize,
    costs: CostModel,
) -> ReplayReport {
    let mut policy = algo.build(&trace.requests, CacheConfig::new(disk_chunks, k, costs));
    Replayer::new(ReplayConfig::bench(k, costs)).replay(trace, policy.as_mut())
}

/// Worker threads for experiment grids: the `VCDN_WORKERS` environment
/// variable if set, else available parallelism (see
/// [`vcdn_sim::runner::worker_count`]).
pub fn grid_workers() -> usize {
    worker_count()
}

/// Runs an experiment grid with a shared progress/timing report on stderr:
/// one line per finished cell, then totals with the measured speedup over
/// a sequential run (sum of per-cell wall times / grid wall time).
///
/// Results are deterministic: identical (labels and values) for any worker
/// count — set `VCDN_WORKERS=1` to force a sequential run.
pub fn sweep<'a, T: Send>(title: &str, cells: Vec<Cell<'a, T>>) -> GridRun<T> {
    let workers = grid_workers();
    let total = cells.len();
    eprintln!("[{title}] {total} cells on {workers} worker(s)");
    let done = AtomicUsize::new(0);
    let done = &done;
    let wrapped: Vec<Cell<T>> = cells
        .into_iter()
        .map(|cell| {
            let (label, job) = cell.into_parts();
            let echo = label.clone();
            let title = title.to_string();
            Cell::new(label, move || {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "progress line on stderr; never part of a cell's value"
                )]
                let t0 = Instant::now();
                let value = job();
                let i = done.fetch_add(1, Ordering::Relaxed) + 1;
                eprintln!("[{title}] {i}/{total} done: {echo} ({:.2?})", t0.elapsed());
                value
            })
        })
        .collect();
    let run = run_grid(wrapped, workers);
    eprintln!(
        "[{title}] total {:.2?}; cells sum {:.2?}; speedup {:.2}x on {} worker(s)",
        run.total_wall,
        run.cell_wall_sum(),
        run.speedup(),
        run.workers,
    );
    run
}

/// One axis point of a policy × axis experiment: a labelled replay
/// configuration `(label, trace, disk chunks, K, costs)`.
pub type Point<'a> = (String, &'a Trace, u64, ChunkSize, CostModel);

/// Replays every point through xLRU, Cafe and Psychic as one [`sweep`] of
/// `3 × points.len()` cells labelled `"{label} {algo}"`, and returns one
/// `[xlru, cafe, psychic]` report group per point, in input order.
pub fn sweep_paper_three(title: &str, points: &[Point<'_>]) -> Vec<[ReplayReport; 3]> {
    let cells: Vec<Cell<ReplayReport>> = points
        .iter()
        .flat_map(|&(ref label, trace, disk, k, costs)| {
            Algo::paper_three().into_iter().map(move |algo| {
                Cell::new(format!("{label} {}", algo.name()), move || {
                    run_algo(algo, trace, disk, k, costs)
                })
            })
        })
        .collect();
    let mut reports = sweep(title, cells).values().into_iter();
    points
        .iter()
        .map(|_| std::array::from_fn(|_| reports.next().expect("three cells per point")))
        .collect()
}

/// Steady-state efficiencies of one report group, `[xlru, cafe, psychic]`.
pub fn efficiencies(group: &[ReplayReport; 3]) -> [f64; 3] {
    group.each_ref().map(ReplayReport::efficiency)
}

/// Generates the traces of a multi-trace experiment one after another,
/// each on all [`grid_workers`] sampler threads — inside grid cells the
/// generator's threads would multiply by the grid's — with a stderr line
/// per `(label, profile, scale, seed)`; traces returned in input order.
pub fn sweep_traces(
    title: &str,
    days: u64,
    specs: Vec<(String, ServerProfile, Scale, u64)>,
) -> Vec<Trace> {
    let total = specs.len();
    eprintln!(
        "[{title}] {total} traces, each on {} sampler worker(s)",
        grid_workers()
    );
    specs
        .into_iter()
        .enumerate()
        .map(|(i, (label, profile, scale, seed))| {
            #[expect(
                clippy::disallowed_methods,
                reason = "progress line on stderr; never part of the trace"
            )]
            let t0 = Instant::now();
            let trace = refuse_empty(
                TraceGenerator::new(scale.profile(profile), seed)
                    .generate(DurationMs::from_days(days)),
            );
            let n = i + 1;
            eprintln!(
                "[{title}] {n}/{total} done: trace {label} ({:.2?})",
                t0.elapsed()
            );
            trace
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_paper_disk() {
        let s = Scale(1.0 / 16.0);
        let k = ChunkSize::DEFAULT;
        // 1 TiB / 16 = 64 GiB = 32768 chunks of 2 MiB.
        assert_eq!(s.disk_chunks(PAPER_DISK_BYTES, k), 32_768);
        assert_eq!(Scale(1e-12).disk_chunks(PAPER_DISK_BYTES, k), 1);
    }

    #[test]
    fn algo_names_and_order() {
        let names: Vec<&str> = Algo::paper_three().iter().map(Algo::name).collect();
        assert_eq!(names, vec!["xlru", "cafe", "psychic"]);
        assert_eq!(Algo::Lru.name(), "lru");
    }

    #[test]
    fn sweep_preserves_input_order() {
        let cells: Vec<Cell<u32>> = (0..6)
            .map(|i| Cell::new(format!("c{i}"), move || i * 3))
            .collect();
        let run = sweep("test-sweep", cells);
        assert_eq!(run.values(), vec![0, 3, 6, 9, 12, 15]);
    }

    #[test]
    fn all_algorithms_replay_a_tiny_trace() {
        let scale = Scale(1.0);
        let trace = trace_for(ServerProfile::tiny_test(), scale, 1);
        let k = ChunkSize::DEFAULT;
        let costs = CostModel::from_alpha(2.0).unwrap();
        for algo in [Algo::Lru, Algo::Xlru, Algo::Cafe, Algo::Psychic] {
            let report = run_algo(algo, &trace, 64, k, costs);
            assert_eq!(report.policy, algo.name());
            assert!(report.overall.total_requests() as usize == trace.len());
        }
    }
}
