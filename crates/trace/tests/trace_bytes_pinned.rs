//! The generator's byte contract: FNV-1a-64 of the VCTB file
//! (`save_binary`) of the two traces every golden in the repo hangs off.
//! A generator change that keeps these hashes changed no request, no
//! header field and no checksum; one that moves them is a different
//! workload and has to re-record every pinned counter downstream.

use vcdn_trace::{save_binary, ServerProfile, TraceGenerator};
use vcdn_types::DurationMs;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(requests, file length, FNV-1a-64)` of the trace's VCTB bytes.
fn vctb(profile: ServerProfile, seed: u64, duration: DurationMs, tag: &str) -> (usize, usize, u64) {
    let trace = TraceGenerator::new(profile, seed).generate(duration);
    let path = std::env::temp_dir().join(format!("vcdn-pin-{}-{tag}.vctb", std::process::id()));
    save_binary(&trace, &path).expect("temp dir is writable");
    let bytes = std::fs::read(&path).expect("just written");
    std::fs::remove_file(&path).ok();
    (trace.requests.len(), bytes.len(), fnv1a64(&bytes))
}

#[test]
fn fnv1a64_matches_published_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn tiny_test_seed_42_six_hours() {
    let got = vctb(
        ServerProfile::tiny_test(),
        42,
        DurationMs::from_hours(6),
        "tiny",
    );
    assert_eq!(got, (352, 11_373, 0xeb9e_72ed_a561_441a));
}

#[test]
fn europe_sixteenth_thirty_days_is_the_paper_point() {
    let profile = ServerProfile::europe().scaled(1.0 / 16.0);
    let got = vctb(profile, 20140413, DurationMs::from_days(30), "paper");
    assert_eq!(got, (181_607, 5_811_535, 0x1fb7_151a_46cb_7dad));
}

/// The benchmark's `xlru_large.vctb` / `cafe_large.vctb` at the default
/// seed. 1.7 M requests: seconds optimised, minutes in a debug build.
#[test]
#[cfg_attr(debug_assertions, ignore = "full-size: run with --release")]
fn europe_half_thirty_days_is_the_large_workload() {
    let profile = ServerProfile::europe().scaled(0.5);
    let got = vctb(profile, 20140413, DurationMs::from_days(30), "large");
    assert_eq!(got, (1_711_552, 54_769_776, 0x7dd3_c048_8d38_55ec));
}
