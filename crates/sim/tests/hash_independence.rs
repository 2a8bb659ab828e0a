//! Replay output must not depend on the hash function behind the hot maps.
//!
//! Every policy keeps its working state in `FastMap`/`FastSet`
//! (`vcdn_types::fasthash`); the `std-hash` cargo feature swaps the hasher
//! under them back to the std `RandomState`, which is randomized *per
//! process*. These tests pin full byte accounting for all four policies on
//! a deterministically generated trace — the same pins must hold:
//!
//! - under the default FxHash build (`cargo test`),
//! - under `cargo test --features vcdn-types/std-hash`, and
//! - across repeated runs within one process (fresh randomized hasher
//!   state each time under std-hash).
//!
//! The maps are lookup-only, so no iteration order can leak by
//! construction; these pins are the end-to-end witness.

use vcdn_core::{
    CacheConfig, CachePolicy, CafeCache, CafeConfig, PsychicCache, PsychicConfig, XlruCache,
};
use vcdn_sim::{ReplayConfig, ReplayReport, Replayer};
use vcdn_trace::{ServerProfile, Trace, TraceGenerator};
use vcdn_types::{ChunkSize, CostModel, DurationMs, Timestamp};

/// Deterministic workload: tiny profile, fixed seed, two days.
fn trace() -> Trace {
    TraceGenerator::new(ServerProfile::tiny_test(), 1234).generate(DurationMs::from_days(2))
}

const DISK: u64 = 256;
const ALPHA: f64 = 2.0;

fn replay(policy: &mut dyn CachePolicy, trace: &Trace) -> ReplayReport {
    let costs = CostModel::from_alpha(ALPHA).expect("valid alpha");
    Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs)).replay(trace, policy)
}

fn policies(trace: &Trace) -> Vec<Box<dyn CachePolicy>> {
    let costs = CostModel::from_alpha(ALPHA).expect("valid alpha");
    let cfg = CacheConfig::new(DISK, ChunkSize::DEFAULT, costs);
    vec![
        Box::new(vcdn_core::LruCache::new(cfg)),
        Box::new(XlruCache::new(cfg)),
        Box::new(CafeCache::new(CafeConfig::new(
            DISK,
            ChunkSize::DEFAULT,
            costs,
        ))),
        Box::new(PsychicCache::new(
            PsychicConfig::new(DISK, ChunkSize::DEFAULT, costs),
            &trace.requests,
        )),
    ]
}

/// Pinned overall (hit, fill, redirect) bytes per policy, in the order
/// produced by [`policies`]. Computed once with the std hasher and the Fx
/// hasher producing identical numbers; any divergence between the two
/// builds fails this test in whichever build no longer matches.
const PINS: [(&str, u64, u64, u64); 4] = [
    ("lru", 6469713920, 2428502016, 0),
    ("xlru", 6394216448, 1803550720, 700448768),
    ("cafe", 6719275008, 910163968, 1268776960),
    ("psychic", 7195328512, 861929472, 840957952),
];

#[test]
fn replay_bytes_match_pins_for_all_policies() {
    let trace = trace();
    for (mut policy, pin) in policies(&trace).into_iter().zip(PINS) {
        let r = replay(policy.as_mut(), &trace);
        eprintln!(
            "(\"{}\", {}, {}, {}),",
            r.policy, r.overall.hit_bytes, r.overall.fill_bytes, r.overall.redirect_bytes
        );
        assert_eq!(
            (
                r.policy,
                r.overall.hit_bytes,
                r.overall.fill_bytes,
                r.overall.redirect_bytes
            ),
            pin,
            "replay output depends on hasher or changed"
        );
    }
}

/// The hot mirror (a `RankMap`: the rank index behind an item → slot hash
/// map, the only one on Cafe's request path; switched on by the first
/// `prefetch_candidates` read and maintained incrementally through every
/// touch/fill/evict after it) must be decision-neutral: a Cafe replay
/// with the mirror live produces the exact pinned bytes of the plain
/// replay, under either hasher. This exercises the rank index's
/// non-disk configuration — hot-rank keys, mirror rebuilds on cleanup —
/// against the same hasher-independence bar as the decide path.
#[test]
fn hot_tracking_cafe_replay_matches_pins() {
    let trace = trace();
    let costs = CostModel::from_alpha(ALPHA).expect("valid alpha");
    let mut cafe = CafeCache::new(CafeConfig::new(DISK, ChunkSize::DEFAULT, costs));
    assert!(cafe.prefetch_candidates(0, Timestamp(0)).is_empty());
    let r = replay(&mut cafe, &trace);
    let (name, hit, fill, redirect) = PINS[2];
    assert_eq!(
        (
            r.policy,
            r.overall.hit_bytes,
            r.overall.fill_bytes,
            r.overall.redirect_bytes
        ),
        (name, hit, fill, redirect),
        "hot mirror altered replay output (or it depends on the hasher)"
    );
}

#[test]
fn repeated_replays_are_byte_identical() {
    // Two full replays in one process: under std-hash each FastMap gets a
    // fresh random seed, so equality here means iteration order never
    // reaches the output. Full ReplayReport equality covers windows too.
    let trace = trace();
    let runs: Vec<Vec<ReplayReport>> = (0..2)
        .map(|_| {
            policies(&trace)
                .into_iter()
                .map(|mut p| replay(p.as_mut(), &trace))
                .collect()
        })
        .collect();
    assert_eq!(runs[0], runs[1]);
}
