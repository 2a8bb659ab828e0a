//! End-to-end tests of the `vcdn` command-line interface, driving the real
//! binary through generate → stats → replay → bound round trips.

use std::path::PathBuf;
use std::process::{Command, Output};

use vcdn::trace::{save_binary, Trace};

fn vcdn(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vcdn"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_trace(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vcdn-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn help_prints_usage() {
    let out = vcdn(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for cmd in ["gen", "stats", "replay", "bound"] {
        assert!(text.contains(cmd), "usage missing '{cmd}'");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = vcdn(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn gen_stats_replay_bound_roundtrip() {
    let path = temp_trace("roundtrip.jsonl");
    let path_s = path.to_str().expect("utf-8 path");

    // Generate.
    let out = vcdn(&[
        "gen",
        "--profile",
        "tiny",
        "--days",
        "1",
        "--seed",
        "7",
        "--out",
        path_s,
    ]);
    assert!(out.status.success(), "gen failed: {}", stderr(&out));
    assert!(stdout(&out).contains("wrote"));

    // Stats.
    let out = vcdn(&["stats", "--trace", path_s]);
    assert!(out.status.success(), "stats failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("unique videos"));
    assert!(text.contains("zipf slope"));

    // Replay with each algorithm.
    for algo in ["lru", "lfu", "lru2", "xlru", "cafe", "psychic"] {
        let out = vcdn(&[
            "replay",
            "--trace",
            path_s,
            "--algo",
            algo,
            "--alpha",
            "2",
            "--disk-chunks",
            "64",
        ]);
        assert!(out.status.success(), "replay {algo}: {}", stderr(&out));
        assert!(stdout(&out).contains("efficiency"));
    }

    // Disk in GB instead of chunks.
    let out = vcdn(&[
        "replay",
        "--trace",
        path_s,
        "--algo",
        "cafe",
        "--alpha",
        "1",
        "--disk-gb",
        "0.25",
    ]);
    assert!(out.status.success(), "disk-gb replay: {}", stderr(&out));

    // Bound on a truncated prefix.
    let out = vcdn(&[
        "bound",
        "--trace",
        path_s,
        "--alpha",
        "2",
        "--disk-chunks",
        "16",
        "--requests",
        "40",
    ]);
    assert!(out.status.success(), "bound failed: {}", stderr(&out));
    assert!(stdout(&out).contains("efficiency upper bound"));

    std::fs::remove_file(&path).ok();
}

#[test]
fn replay_requires_disk_size() {
    let path = temp_trace("nodisk.jsonl");
    let path_s = path.to_str().expect("utf-8 path");
    vcdn(&["gen", "--days", "1", "--out", path_s]);
    let out = vcdn(&["replay", "--trace", path_s, "--algo", "cafe"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--disk-chunks or --disk-gb"));
    std::fs::remove_file(&path).ok();
}

/// Runs `vcdn <args>` expecting the one-line `error: …` exit 1 that names
/// `what`, and nothing on stdout.
fn refused(args: &[&str], what: &str) {
    let out = vcdn(args);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert_eq!(stdout(&out), "", "{args:?}");
    assert!(
        err.starts_with("error: ") && err.contains(what),
        "{args:?}: {err}"
    );
    assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
}

#[test]
fn zero_disk_and_overflowing_chunk_size_are_refused() {
    let path = temp_trace("refusals.jsonl");
    let p = path.to_str().expect("utf-8 path");
    vcdn(&["gen", "--days", "1", "--out", p]);
    let zero = "disk must hold at least one chunk";
    refused(&["bound", "--trace", p, "--disk-chunks", "0"], zero);
    refused(&["replay", "--trace", p, "--disk-chunks", "0"], zero);
    // 2^44 + 1 MiB: times 2^20 it wraps to 1 MiB in an unchecked release
    // build.
    let huge = "17592186044417";
    refused(&["stats", "--trace", p, "--chunk-mb", huge], "--chunk-mb");
    let replay = [
        "replay",
        "--trace",
        p,
        "--chunk-mb",
        huge,
        "--disk-chunks",
        "8",
    ];
    refused(&replay, "--chunk-mb");
    let bound = [
        "bound",
        "--trace",
        p,
        "--chunk-mb",
        huge,
        "--disk-chunks",
        "8",
    ];
    refused(&bound, "--chunk-mb");
    // 9e12 chunks of 2 MiB is 17,166,138 TiB: past u64 bytes, so it must
    // not print a wrapped size.
    let disk = ["replay", "--trace", p, "--algo", "lru", "--disk-chunks"];
    refused(&[&disk[..], &["9000000000000"]].concat(), "--disk-chunks");
    let gb = ["replay", "--trace", p, "--algo", "lru", "--disk-gb"];
    for bad in ["inf", "NaN", "-1", "0"] {
        refused(&[&gb[..], &[bad]].concat(), "--disk-gb");
    }
    refused(&[&gb[..], &["1e12"]].concat(), "--disk-gb");
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_repeated_and_conflicting_flags_are_refused() {
    let path = temp_trace("flags.jsonl");
    let p = path.to_str().expect("utf-8 path");
    vcdn(&["gen", "--days", "1", "--out", p]);
    let replay = format!("replay --trace {p} --algo xlru --disk-chunks 64");
    let state_path = temp_trace("flags-state.json");
    std::fs::remove_file(&state_path).ok();
    let state = state_path.to_str().expect("utf-8 path");
    for (line, what) in [
        (format!("{replay} --alhpa 2"), "unknown flag --alhpa"),
        (
            format!("{replay} --disk-gb 0.001"),
            "--disk-chunks and --disk-gb",
        ),
        (
            format!("{replay} --alpha 1 --alpha 2"),
            "--alpha given twice",
        ),
        // Each command takes its own flags only.
        (
            format!("stats --trace {p} --alpha 2"),
            "unknown flag --alpha",
        ),
        (format!("gen --out {p} --trace {p}"), "unknown flag --trace"),
        // Days whose milliseconds overflow a u64 once wrapped to 1.40 days.
        (
            format!("gen --days 213503982336 --out {p}"),
            "--days 213503982336: too many days",
        ),
        // Zero days once wrote a 0-request trace.
        (
            format!("gen --days 0 --out {p}"),
            "--days must be at least 1",
        ),
        (
            format!("bound --trace {p} --disk-gb 1"),
            "unknown flag --disk-gb",
        ),
        (format!("help --trace {p}"), "unknown flag --trace"),
    ] {
        refused(&line.split(' ').collect::<Vec<_>>(), what);
    }
    // Replay always starts from a cold cache: no state file in or out.
    for verb in ["load", "save"] {
        let flag = format!("--{verb}-state");
        let line = format!("{replay} {flag} {state}");
        refused(
            &line.split(' ').collect::<Vec<_>>(),
            &format!("unknown flag {flag}"),
        );
    }
    assert!(!state_path.exists(), "a state file was written");
    std::fs::remove_file(&path).ok();
}

#[test]
fn traces_without_requests_are_refused() {
    // A header-only JSONL, cut from a generated trace.
    let full = temp_trace("empty-src.jsonl");
    let p = full.to_str().expect("utf-8 path");
    vcdn(&["gen", "--days", "1", "--out", p]);
    let text = std::fs::read_to_string(&full).expect("generated trace");
    let header = text.lines().next().expect("header line");
    let jsonl = temp_trace("empty.jsonl");
    std::fs::write(&jsonl, format!("{header}\n")).expect("write");
    // A 0-record VCTB.
    let vctb = temp_trace("empty.vctb");
    let meta = Trace::load_jsonl(&full).expect("generated trace").meta;
    save_binary(&Trace::new(meta, Vec::new()), &vctb).expect("write");
    for path in [&jsonl, &vctb] {
        let t = path.to_str().expect("utf-8 path");
        let what = "the trace holds no requests";
        refused(&["stats", "--trace", t], what);
        refused(&["replay", "--trace", t, "--disk-chunks", "8"], what);
        refused(&["bound", "--trace", t, "--disk-chunks", "8"], what);
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_file(&full).ok();
    // A generated trace with no requests (no session starts at this
    // scale) is refused before the file is written, in either format.
    for name in ["unwritten.jsonl", "unwritten.vctb"] {
        let out = temp_trace(name);
        let o = out.to_str().expect("utf-8 path");
        let tiny = [
            "gen",
            "--profile",
            "europe",
            "--scale",
            "1e-9",
            "--days",
            "1",
        ];
        refused(
            &[&tiny[..], &["--out", o]].concat(),
            "the generated trace holds no requests",
        );
        assert!(!out.exists(), "{name} was written");
    }
}

#[test]
fn gen_rejects_bad_inputs() {
    let out = vcdn(&["gen", "--profile", "mars", "--out", "/tmp/x.jsonl"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown profile"));

    let out = vcdn(&["gen", "--days", "1"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--out is required"));

    let out = vcdn(&["gen", "--scale", "-1", "--out", "/tmp/x.jsonl"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("--scale"));
}

#[test]
fn stats_rejects_missing_file() {
    let out = vcdn(&["stats", "--trace", "/nonexistent/definitely/missing.jsonl"]);
    assert!(!out.status.success());
}

#[test]
fn flags_require_values() {
    let out = vcdn(&["gen", "--days"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("requires a value"));
}

#[test]
fn binary_trace_format_roundtrips_through_cli() {
    let path = temp_trace("bin.vctb");
    let path_s = path.to_str().expect("utf-8 path");
    let out = vcdn(&[
        "gen",
        "--profile",
        "tiny",
        "--days",
        "1",
        "--seed",
        "9",
        "--out",
        path_s,
    ]);
    assert!(out.status.success(), "gen vctb: {}", stderr(&out));
    let out = vcdn(&["stats", "--trace", path_s]);
    assert!(out.status.success(), "stats vctb: {}", stderr(&out));
    let out = vcdn(&[
        "replay",
        "--trace",
        path_s,
        "--algo",
        "xlru",
        "--alpha",
        "2",
        "--disk-chunks",
        "32",
    ]);
    assert!(out.status.success(), "replay vctb: {}", stderr(&out));
    std::fs::remove_file(&path).ok();
}
