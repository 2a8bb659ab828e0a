//! End-to-end integration tests: trace generation → replay → metrics,
//! across every cache algorithm.

use vcdn::cache::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, LruCache, PsychicCache, PsychicConfig,
    XlruCache,
};
use vcdn::sim::{ReplayConfig, ReplayReport, Replayer};
use vcdn::trace::{ServerProfile, Trace, TraceGenerator};
use vcdn::types::{ChunkSize, CostModel, DurationMs};

// The replay matrix of the `vcdn-sim` tests: every policy through every
// driver (Replayer, repeat, sharded engine at 1–8 workers, per-shard
// replays, run_prefix, warm continuation) on one trace point.
#[path = "../crates/sim/tests/matrix/mod.rs"]
mod matrix;

use matrix::{every_cell, Point, Source::Tiny, POLICIES};

const K: ChunkSize = ChunkSize::DEFAULT;
const DISK: u64 = 256;

fn trace(days: u64, seed: u64) -> Trace {
    TraceGenerator::new(ServerProfile::tiny_test(), seed).generate(DurationMs::from_days(days))
}

fn run_all(trace: &Trace, alpha: f64) -> Vec<ReplayReport> {
    let costs = CostModel::from_alpha(alpha).expect("valid alpha");
    let replayer = Replayer::new(ReplayConfig::new(K, costs));
    let mut caches: Vec<Box<dyn CachePolicy>> = vec![
        Box::new(LruCache::new(CacheConfig::new(DISK, K, costs))),
        Box::new(XlruCache::new(CacheConfig::new(DISK, K, costs))),
        Box::new(CafeCache::new(CafeConfig::new(DISK, K, costs))),
        Box::new(PsychicCache::new(
            PsychicConfig::new(DISK, K, costs),
            &trace.requests,
        )),
    ];
    caches
        .iter_mut()
        .map(|c| replayer.replay(trace, c.as_mut()))
        .collect()
}

/// Eq. 2 accounts every requested byte, every request is counted and the
/// efficiency is within the metric's range (the Replayer row); every
/// other row of the matrix runs on this shape too.
#[test]
fn every_algorithm_accounts_every_byte() {
    for policy in POLICIES {
        every_cell(policy, (Tiny(1, 48), matrix::K, 2.0, DISK));
    }
}

#[test]
fn lru_never_redirects_and_pays_maximal_ingress() {
    let t = trace(2, 2);
    let reports = run_all(&t, 1.0);
    let lru = &reports[0];
    assert_eq!(lru.overall.redirected_requests, 0);
    assert_eq!(lru.overall.redirect_bytes, 0);
    // Every other algorithm ingresses at most as much as fill-everything.
    for r in &reports[1..] {
        assert!(
            r.overall.fill_bytes <= lru.overall.fill_bytes,
            "{} ingressed more than LRU",
            r.policy
        );
    }
}

#[test]
fn offline_knowledge_beats_online_when_constrained() {
    // At alpha = 2 (the paper's constrained setting), the future-aware
    // Psychic must beat both online algorithms, and Cafe must beat xLRU.
    let t = trace(6, 3);
    let reports = run_all(&t, 2.0);
    let (xlru, cafe, psychic) = (
        reports[1].efficiency(),
        reports[2].efficiency(),
        reports[3].efficiency(),
    );
    assert!(
        psychic > cafe - 0.01,
        "psychic {psychic} should be >= cafe {cafe}"
    );
    assert!(
        cafe > xlru,
        "cafe {cafe} should beat xlru {xlru} at alpha=2"
    );
}

#[test]
fn alpha_knob_shrinks_cafe_ingress_monotonically() {
    let t = trace(6, 4);
    let mut last_ingress = f64::INFINITY;
    for alpha in [0.5, 1.0, 2.0, 4.0] {
        let costs = CostModel::from_alpha(alpha).expect("valid alpha");
        let mut cafe = CafeCache::new(CafeConfig::new(DISK, K, costs));
        let r = Replayer::new(ReplayConfig::new(K, costs)).replay(&t, &mut cafe);
        let ing = r.overall.fill_bytes as f64;
        assert!(
            ing <= last_ingress * 1.02,
            "cafe ingress must not grow with alpha: {ing} after {last_ingress}"
        );
        last_ingress = ing;
    }
}

/// The Replayer and repeat rows of every policy at `point`.
fn replayer_rows(point: Point) {
    matrix::cells(point).for_each(|c| c.repeat_row(&c.replay_row()));
}

/// The trace generated twice is the same, and replays to the same
/// report (the repeat row).
#[test]
fn pipeline_is_deterministic() {
    replayer_rows((Tiny(5, 48), matrix::K, 2.0, DISK));
}

/// The replayer checks capacity and the `CachePolicy` contract after every
/// request, and so does every engine shard; a churny workload at α = 0.5.
#[test]
fn capacity_respected_throughout_by_all() {
    for policy in POLICIES {
        every_cell(policy, (Tiny(6, 72), matrix::K, 0.5, DISK));
    }
}

/// The hourly windows sum to the overall traffic (the Replayer row).
#[test]
fn windows_partition_overall_traffic() {
    replayer_rows((Tiny(7, 48), matrix::K, 2.0, DISK));
}

/// Steady state is exactly the requests from half the horizon on, a
/// non-empty part of the overall traffic (the Replayer row).
#[test]
fn steady_state_is_subset_of_overall() {
    replayer_rows((Tiny(8, 48), matrix::K, 1.0, DISK));
}

#[test]
fn higher_alpha_never_increases_reported_xlru_ingress() {
    // xLRU's Eq. 5 admits strictly fewer videos as alpha grows.
    let t = trace(4, 9);
    let mut last = u64::MAX;
    for alpha in [0.5, 1.0, 2.0, 4.0, 8.0] {
        let costs = CostModel::from_alpha(alpha).expect("valid alpha");
        let mut x = XlruCache::new(CacheConfig::new(DISK, K, costs));
        let r = Replayer::new(ReplayConfig::new(K, costs)).replay(&t, &mut x);
        assert!(
            r.overall.fill_bytes <= last,
            "xlru fill grew with alpha: {} > {last}",
            r.overall.fill_bytes
        );
        last = r.overall.fill_bytes;
    }
}

#[test]
fn trace_io_roundtrip_preserves_replay_results() {
    let t = trace(1, 10);
    let dir = std::env::temp_dir().join("vcdn-integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("roundtrip.jsonl");
    t.save_jsonl(&path).expect("save");
    let loaded = Trace::load_jsonl(&path).expect("load");
    assert_eq!(loaded, t);
    let a = run_all(&t, 2.0);
    let b = run_all(&loaded, 2.0);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.overall, y.overall);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn psychic_first_half_is_as_good_as_second() {
    // §9.1: "Psychic and Optimal cache ... do not require any history, and
    // their first-hour outcome is as good as the rest" — unlike the
    // history-based caches, Psychic's efficiency must not improve much
    // from the first half of the replay to the second.
    let t = trace(6, 11);
    let costs = CostModel::from_alpha(2.0).expect("valid");
    let mut psychic = PsychicCache::new(PsychicConfig::new(DISK, K, costs), &t.requests);
    let report = Replayer::new(ReplayConfig::new(K, costs)).replay(&t, &mut psychic);
    let overall = report.overall.efficiency(costs);
    let steady = report.efficiency();
    // Overall includes the "warm-up" half; for Psychic the gap stays
    // small because it needs no request history.
    assert!(
        (steady - overall).abs() < 0.08,
        "psychic warm-up gap too large: overall {overall}, steady {steady}"
    );
}

#[test]
fn cafe_popularity_state_stays_bounded_under_churn() {
    // The cleanup sweep must keep Cafe's tracker from growing with the
    // total number of distinct chunks ever seen.
    let t = trace(8, 12);
    let costs = CostModel::from_alpha(2.0).expect("valid");
    let mut cafe = CafeCache::new(CafeConfig::new(64, K, costs));
    for r in &t.requests {
        cafe.handle_request(r);
    }
    let unique = vcdn::trace::stats::chunk_hit_counts(&t, K).len();
    assert!(
        cafe.tracked_chunks() < unique,
        "tracker ({}) should be smaller than all chunks ever seen ({unique})",
        cafe.tracked_chunks()
    );
}
