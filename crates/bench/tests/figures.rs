//! The `figures` dispatcher end to end: its index matches the tracked
//! results, bad command lines never print a table, and stdout does not
//! depend on the worker count. (CI `cmp`s every default-flag run against
//! `results/`; this file stays small-scale so the debug profile can run it.)

use std::collections::BTreeSet;
use std::process::{Command, Output};

use vcdn_bench::figures::FIGURES;

fn figures(args: &[&str], workers: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .env("VCDN_WORKERS", workers)
        .output()
        .expect("figures binary runs")
}

#[test]
fn index_matches_tracked_results() {
    let listed = figures(&["--list"], "1");
    assert!(listed.status.success());
    let names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        String::from_utf8(listed.stdout).unwrap(),
        names.join("\n") + "\n"
    );

    let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut tracked: BTreeSet<String> = std::fs::read_dir(results)
        .expect("results/ exists")
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter_map(|f| f.strip_suffix(".txt").map(String::from))
        .collect();
    // Documented exceptions: a `--scale 1.0` run of fig3_timeseries and the
    // `obs record` table (under its former name) are tracked without being figures; the
    // calibration smoke run is a figure without a tracked table.
    assert!(tracked.remove("fig3_fullscale") && tracked.remove("replay_observe"));
    tracked.insert("smoke".into());
    let listed: BTreeSet<String> = names.iter().map(|n| n.to_string()).collect();
    assert_eq!(listed.len(), names.len(), "duplicate figure name");
    assert_eq!(listed, tracked);
}

#[test]
fn bad_command_lines_exit_2_with_empty_stdout() {
    let mut cases: Vec<Vec<&str>> = vec![
        vec![],
        vec!["no_such_figure"],
        vec!["--list", "extra"],
        vec!["fig4_alpha_sweep", "--scale", "abc"],
        vec!["fig4_alpha_sweep", "--scale", "-1"],
        vec!["fig4_alpha_sweep", "--scale"],
        vec!["fig4_alpha_sweep", "--alpha", "4"],
        vec!["fig6_disk_sweep", "--alpha", "2", "stray"],
        // Days whose milliseconds overflow a u64, and zero days, which
        // once printed a table of 0.000 efficiencies.
        vec!["fig4_alpha_sweep", "--days", "213503982336"],
        vec!["fig4_alpha_sweep", "--days", "0"],
        vec!["smoke", "--days", "0"],
        // A scale at which no session starts: an empty trace, refused
        // with one `error:` line before any table.
        vec!["fig4_alpha_sweep", "--scale", "1e-9", "--days", "1"],
    ];
    // Every figure closes its flag set before it starts working.
    cases.extend(FIGURES.iter().map(|(n, _)| vec![*n, "--no-such-flag"]));
    for case in cases {
        let out = figures(&case, "1");
        assert_eq!(out.status.code(), Some(2), "{case:?}");
        assert!(out.stdout.is_empty(), "{case:?} printed to stdout");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "{case:?} stderr: {err}");
    }
}

#[test]
fn an_empty_trace_in_a_multi_trace_figure_is_refused() {
    // The trace grid announces itself on stderr before the first trace;
    // the first empty one ends the run with its `error:` line, no table.
    let out = figures(
        &["fig7_world_servers", "--scale", "1e-9", "--days", "1"],
        "1",
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed to stdout");
    let err = String::from_utf8(out.stderr).unwrap();
    let errors: Vec<&str> = err.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{err}");
    assert!(errors[0].contains("holds no requests"), "{err}");
    assert_eq!(err.lines().last(), Some(errors[0]), "{err}");
}

#[test]
fn stdout_is_identical_at_1_and_4_workers() {
    // One single-grid figure and the two-grid (traces, then replays) one.
    for name in ["fig4_alpha_sweep", "fig7_world_servers"] {
        let run = |workers| {
            let out = figures(&[name, "--scale", "0.002", "--days", "2"], workers);
            assert!(out.status.success(), "{name} at {workers} worker(s)");
            String::from_utf8(out.stdout).unwrap()
        };
        let one = run("1");
        assert!(one.contains("xlru"), "{name} printed no table");
        assert_eq!(one, run("4"), "{name} depends on the worker count");
    }
}
