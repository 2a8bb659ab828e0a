//! Cafe's state in bytes at the paper point (europe × 1/16, 30 days,
//! α = 2, a 32,768-chunk disk: the `cafe_paper` benchmark workload's
//! trace, 181,607 requests): [`CafeCache::state_bytes`] after a whole
//! Replayer pass, and summed over the eight shards of the sharded engine,
//! each shard's Cafe fed its own stream at its own capacity — what each
//! engine shard holds after the same pass.
//!
//! `state_bytes` is computed from capacities (popularity runs, directory,
//! video → slot map, rank slab, bucket window and body pool), so it is a
//! pure function of the decisions: a change to how Cafe lays out or grows
//! its state moves these pins exactly, where the benchmark's peak RSS
//! reads the same change through the allocator, in noise. Re-pin with a
//! CHANGES.md line that says why.
//!
//! `cargo test -p vcdn-sim --test state_bytes` (seconds, debug or
//! release; CI runs it in both). The pins hold under both hashers: the video → slot map counts by its bucket count
//! ([`FastMap::heap_bytes`](vcdn_types::FastMap::heap_bytes)), which the
//! per-process seed of `std-hash` does not move.

use vcdn_core::{CachePolicy, CafeCache, CafeConfig};
use vcdn_sim::engine::{shard_requests, EngineConfig};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::{ServerProfile, TraceGenerator};
use vcdn_types::{ChunkSize, CostModel, DurationMs};

const SEED: u64 = 20140413;
const DISK: u64 = 32_768;
const SHARDS: usize = 8;

/// `state_bytes` after the Replayer pass, and summed over the engine's
/// shards.
const REPLAY_BYTES: usize = 6_997_008;
const ENGINE_BYTES: usize = 8_049_248;

#[test]
fn cafe_state_bytes_at_the_paper_point() {
    let trace = TraceGenerator::new(ServerProfile::europe().scaled(1.0 / 16.0), SEED)
        .generate(DurationMs::from_days(30));
    assert_eq!(trace.len(), 181_607, "the paper point's trace");
    let k = ChunkSize::DEFAULT;
    let costs = CostModel::from_alpha(2.0).expect("valid alpha");
    let cafe = |disk| CafeCache::new(CafeConfig::new(disk, k, costs));

    let mut replayed = cafe(DISK);
    Replayer::new(ReplayConfig::bench(k, costs)).replay(&trace, &mut replayed);

    let engine = EngineConfig::bench(SHARDS, DISK, k, costs).expect("valid engine config");
    let streams = shard_requests(&trace, SHARDS);
    let sharded: usize = (engine.shard_capacities().into_iter().zip(&streams))
        .map(|(capacity, stream)| {
            let mut shard = cafe(capacity);
            for request in stream {
                shard.handle_request(request);
            }
            shard.state_bytes()
        })
        .sum();

    assert_eq!(
        (replayed.state_bytes(), sharded),
        (REPLAY_BYTES, ENGINE_BYTES),
        "(replay, engine) state bytes"
    );
}
