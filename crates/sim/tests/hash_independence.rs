//! Replay output must not depend on the hash function behind the hot maps.
//!
//! Every policy keeps its working state in `FastMap`/`FastSet`
//! (`vcdn_types::fasthash`); the `std-hash` cargo feature swaps the hasher
//! under them back to the std `RandomState`, which is randomized *per
//! process*. These tests pin full byte accounting for the four paper
//! policies and the three §3 baselines on a deterministically generated
//! trace, through the Replayer and repeat rows of the replay matrix — the
//! same pins must hold (and, for every policy, the time-shift row):
//!
//! - under the default FxHash build (`cargo test`),
//! - under `cargo test --features vcdn-types/std-hash`, and
//! - across repeated runs within one process (fresh randomized hasher
//!   state each time under std-hash).
//!
//! The maps are lookup-only, so no iteration order can leak by
//! construction; these pins are the end-to-end witness.

mod matrix;

use matrix::{Cell, Point, Policy, Source::Tiny};

/// Deterministic workload: tiny profile, fixed seed, two days, on a
/// 256-chunk disk at α = 2.
const POINT: Point = (Tiny(1234, 48), matrix::K, 2.0, 256);

/// Pinned overall (hit, fill, redirect) bytes per policy. Computed once
/// with the std hasher and the Fx hasher producing identical numbers; any
/// divergence between the two builds fails this test in whichever build
/// no longer matches.
const PINS: [(Policy, (u64, u64, u64)); 7] = [
    (Policy::Lru, (6469713920, 2428502016, 0)),
    (Policy::Xlru, (6394216448, 1803550720, 700448768)),
    (Policy::Cafe, (6719275008, 910163968, 1268776960)),
    (Policy::Psychic, (7195328512, 861929472, 840957952)),
    (Policy::Lfu, (6673137664, 2225078272, 0)),
    (Policy::Lru2, (6673137664, 2225078272, 0)),
    (Policy::Gdsp, (6568280064, 2329935872, 0)),
];

/// The Replayer row against the pins.
#[test]
fn replay_bytes_match_pins_for_all_policies() {
    for (policy, pin) in PINS {
        let replay = Cell::new(policy, POINT).replay_row();
        assert_eq!(matrix::bytes(&replay), pin, "{policy:?}: pinned bytes");
    }
}

#[test]
fn time_shifts_change_no_counter() {
    for (policy, _) in PINS {
        let cell = Cell::new(policy, POINT);
        cell.time_shift_row(&cell.replay_row());
    }
}

#[test]
fn repeated_replays_are_byte_identical() {
    for (policy, _) in PINS {
        let cell = Cell::new(policy, POINT);
        cell.repeat_row(&cell.replay_row());
    }
}
