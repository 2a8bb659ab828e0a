//! Golden-output regression test for the replay engine.
//!
//! A tiny hand-written trace ([`matrix::golden_trace`]) goes through every
//! cell of the replay matrix; the Replayer row's hit/fill/redirect byte
//! counts are pinned to hard-coded values. Any change to policy decisions,
//! chunk accounting or the replay loop shows up here as an exact-number
//! diff, not a vague "efficiency moved".
//!
//! The trace is built by hand (not generated) so the goldens only depend
//! on the policies and the replayer, never on the workload generator.

mod matrix;

use matrix::{Policy, Source::Golden};
use vcdn_types::ChunkSize;

/// Chunk size: 100 bytes, so chunk counts read directly off byte ranges.
const K: u64 = 100;
/// Disk: 6 chunks — small enough that the trace forces evictions.
const DISK: u64 = 6;
/// α_F2R = 2 (the paper's headline configuration).
const ALPHA: f64 = 2.0;

/// Expected overall (hit, fill, redirect) bytes per policy. LRU's 10 hit
/// chunks follow by hand from the 6-chunk recency list.
const GOLDEN_LRU: (u64, u64, u64) = (1_000, 2_100, 0);
const GOLDEN_XLRU: (u64, u64, u64) = (1_000, 1_000, 1_100);
const GOLDEN_CAFE: (u64, u64, u64) = (1_400, 900, 800);
const GOLDEN_PSYCHIC: (u64, u64, u64) = (1_600, 700, 800);

/// The trace declared an hour long through every cell, with the pinned
/// bytes; then declared 28 minutes long, so the steady-state cut falls on
/// its last request.
fn check(policy: Policy, golden: (u64, u64, u64)) {
    let report = matrix::every_cell(policy, (Golden(60), K, ALPHA, DISK));
    let got = matrix::bytes(&report);
    assert_eq!(got, golden, "{policy:?} (hit, fill, redirect) bytes");
    matrix::every_cell(policy, (Golden(28), K, ALPHA, DISK));
}

#[test]
fn lru_golden_bytes() {
    check(Policy::Lru, GOLDEN_LRU);
}

#[test]
fn xlru_golden_bytes() {
    check(Policy::Xlru, GOLDEN_XLRU);
}

#[test]
fn cafe_golden_bytes() {
    check(Policy::Cafe, GOLDEN_CAFE);
}

#[test]
fn psychic_golden_bytes() {
    check(Policy::Psychic, GOLDEN_PSYCHIC);
}

#[test]
fn golden_trace_is_well_formed() {
    let trace = matrix::golden_trace(60);
    assert_eq!(trace.len(), 14);
    assert!(trace.requests.windows(2).all(|w| w[0].t <= w[1].t));
    // 3 videos, 14 requests, 31 requested chunks in total.
    let k = ChunkSize::new(K).expect("non-zero");
    let chunks: u64 = trace.requests.iter().map(|r| r.chunk_len(k)).sum();
    assert_eq!(chunks, 31);
}
