//! `obs_check` against truncated telemetry (ROADMAP item 5): a bundle
//! written whole passes; cut short anywhere — after any line, or inside a
//! line of any section — it is reported as a `FAIL` with exit status 1,
//! never accepted and never a panic.

use std::path::PathBuf;
use std::process::Command;

use vcdn_core::{CacheConfig, XlruCache};
use vcdn_sim::observe::{replay_with_telemetry, TelemetryConfig};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::{ServerProfile, TraceGenerator};
use vcdn_types::{ChunkSize, CostModel, DurationMs};

/// A `tiny_test` xLRU bundle with every section populated; 16 events keep
/// it to a few dozen lines, one `obs_check` run per cut.
fn bundle_jsonl() -> String {
    let trace =
        TraceGenerator::new(ServerProfile::tiny_test(), 29).generate(DurationMs::from_hours(12));
    let costs = CostModel::from_alpha(2.0).unwrap();
    let mut xlru = XlruCache::new(CacheConfig::new(64, ChunkSize::DEFAULT, costs));
    let replayer = Replayer::new(ReplayConfig::new(ChunkSize::DEFAULT, costs));
    let telemetry = TelemetryConfig::new().with_event_capacity(16);
    replay_with_telemetry(&replayer, &trace, &mut xlru, &telemetry)
        .1
        .to_jsonl()
}

/// Runs `obs_check` over `text`; returns its exit code and stderr.
fn obs_check(text: &str, name: &str) -> (Option<i32>, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_obs_check"))
        .arg("--in")
        .arg(&path)
        .output()
        .expect("obs_check binary runs");
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

fn assert_rejected(text: &str, what: &str) {
    let (code, stderr) = obs_check(text, "truncated.jsonl");
    assert_eq!(code, Some(1), "{what}: {stderr}");
    assert!(stderr.contains("[obs_check] FAIL "), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn a_truncated_bundle_is_a_reported_failure_wherever_it_is_cut() {
    let jsonl = bundle_jsonl();
    let (code, stderr) = obs_check(&jsonl, "whole.jsonl");
    assert_eq!(code, Some(0), "the whole bundle must pass: {stderr}");

    let line_ends: Vec<usize> = jsonl.match_indices('\n').map(|(i, _)| i + 1).collect();
    assert_rejected("", "empty file");
    for &end in &line_ends[..line_ends.len() - 1] {
        assert_rejected(&jsonl[..end], &format!("cut after byte {end}"));
    }

    // One cut inside the first line of every section.
    let mut sections = Vec::new();
    let mut start = 0;
    for &end in &line_ends {
        let line = &jsonl[start..end];
        let kind = line
            .split('"')
            .nth(3)
            .expect("every line leads with its type");
        if !sections.contains(&kind) {
            sections.push(kind);
            assert_rejected(
                &jsonl[..start + line.len() / 2],
                &format!("cut inside {kind}"),
            );
        }
        start = end;
    }
    assert_eq!(
        sections,
        ["meta", "metric", "topk", "window", "alert", "sample", "event"]
    );
}
