//! The `obs` tool end to end: bad command lines never print anything to
//! stdout, and `obs diff` — in-process through [`vcdn_obs::diff`], once
//! through the binary for its exit status — sees a one-field difference
//! in a line of any type.

use std::path::PathBuf;
use std::process::{Command, Output};

use vcdn_bench::scenario::run_flash_crowd;
use vcdn_obs::{diff, TelemetryBundle};

fn obs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(args)
        .output()
        .expect("obs binary runs")
}

#[test]
fn bad_command_lines_exit_2_with_empty_stdout() {
    let mut cases: Vec<Vec<&str>> = vec![
        vec![],
        vec!["no_such_command"],
        vec!["check", "--in"],
        vec!["check", "stray"],
        vec!["record", "--scale", "abc"],
        vec!["record", "--events"],
        vec!["diff"],
        vec!["diff", "a.jsonl"],
        vec!["diff", "a.jsonl", "b.jsonl", "c.jsonl"],
        // A flag a command's predecessor took is as unknown as any other.
        vec!["diff", "a.jsonl", "b.jsonl", "--in", "c.jsonl"],
        // Samples and health windows fold from one ring: neither width
        // divides the other here.
        vec!["record", "--interval-mins", "90", "--window-mins", "60"],
        vec!["record", "--window-mins", "1000"],
    ];
    // Every command closes its flag set before it starts working.
    for command in ["record", "check", "report", "diff", "watch"] {
        cases.push(vec![command, "--no-such-flag"]);
    }
    for case in cases {
        let out = obs(&case);
        assert_eq!(out.status.code(), Some(2), "{case:?}");
        assert!(out.stdout.is_empty(), "{case:?} printed to stdout");
        let err = String::from_utf8(out.stderr).unwrap();
        assert_eq!(err.lines().count(), 1, "{case:?} stderr: {err}");
    }
}

fn write_tmp(name: &str, text: &str) -> String {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    path.into_os_string().into_string().unwrap()
}

/// The tracked paper-point sample: four bundles, every section populated
/// but for the engine-only ones.
fn sample() -> String {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/telemetry_sample.jsonl"
    );
    std::fs::read_to_string(path).unwrap()
}

/// `text` with its first `from` replaced by `to`: one field of one line.
fn edit(text: &str, from: &str, to: &str) -> String {
    assert!(text.contains(from), "{from} not in the document");
    text.replacen(from, to, 1)
}

#[test]
fn diff_sees_a_one_field_difference_in_every_line_type() {
    // The flash-crowd engine bundle: every section but samples and events.
    // The tracked sample's first bundle supplies those two.
    let sample = sample();
    let flash = run_flash_crowd(1).bundle.to_jsonl();
    let doc = flash.clone() + &sample;
    let a = TelemetryBundle::parse_jsonl(&doc).unwrap();
    assert_eq!(diff(&a, &a), Vec::<String>::new());

    for (bundle, key, from, to) in [
        ("bundle 0 (engine)", "meta", "\"shards\":4", "\"shards\":5"),
        (
            "bundle 0 (engine)",
            "metric flash.s00.xlru.fill_chunks_per_request",
            "\"buckets\":[",
            "\"buckets\":[1",
        ),
        ("bundle 0 (engine)", "topk s0#1", "\"err\":0", "\"err\":1"),
        (
            "bundle 0 (engine)",
            "window[0]",
            "\"filled_chunks\":",
            "\"filled_chunks\":9",
        ),
        (
            "bundle 0 (engine)",
            "alert[0]",
            "\"rule\":\"",
            "\"rule\":\"x",
        ),
        (
            "bundle 0 (engine)",
            "alert[0]",
            "\"observed\":",
            "\"observed\":1",
        ),
        (
            "bundle 1 (lru)",
            "sample[0]",
            "\"occupancy_chunks\":",
            "\"occupancy_chunks\":1",
        ),
        (
            "bundle 1 (lru)",
            "event[0]",
            "\"evicted\":",
            "\"evicted\":7",
        ),
    ] {
        let text = match bundle {
            "bundle 0 (engine)" => edit(&flash, from, to) + &sample,
            _ => flash.clone() + &edit(&sample, from, to),
        };
        let b = TelemetryBundle::parse_jsonl(&text).unwrap_or_else(|e| panic!("{key}: {e}"));
        let found = diff(&a, &b);
        assert_eq!(found.len(), 1, "{key}: {found:?}");
        let at = (0..doc.len())
            .find(|&i| doc.as_bytes()[i] != text.as_bytes()[i])
            .unwrap();
        let line_of = |s: &str| {
            let start = s[..at].rfind('\n').map_or(0, |i| i + 1);
            s[start..].lines().next().unwrap().to_string()
        };
        let want = format!("{bundle} {key}: {} != {}", line_of(&doc), line_of(&text));
        assert_eq!(found[0], want);
    }
}

#[test]
fn obs_diff_exits_1_on_the_edit_its_predecessor_called_equal() {
    // ISSUE 24's demonstration: `obs_report --diff` printed `==` for this.
    let sample = sample();
    let edited = [
        ("\"filled_chunks\":10699", "\"filled_chunks\":99999"),
        ("\"max_stream_requests\":6999", "\"max_stream_requests\":1"),
        (
            "\"rule\":\"occupancy-churn\"",
            "\"rule\":\"something-else\"",
        ),
        ("\"observed\":16063.0", "\"observed\":1.0"),
    ]
    .iter()
    .fold(sample.clone(), |text, (from, to)| edit(&text, from, to));
    let (a, b) = (
        write_tmp("diff_a.jsonl", &sample),
        write_tmp("diff_b.jsonl", &edited),
    );

    let same = obs(&["diff", &a, &a]);
    assert_eq!(same.status.code(), Some(0));
    let out = obs(&["diff", &a, &b]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "{stdout}");
    let sample_line = |n: usize| sample.lines().nth(n - 1).unwrap();
    let edited_line = |n: usize| edited.lines().nth(n - 1).unwrap();
    assert_eq!(
        lines[0],
        format!(
            "[obs diff] DIFF bundle 0 (lru) window[1]: {} != {}",
            sample_line(19),
            edited_line(19)
        )
    );
    assert_eq!(
        lines[1],
        format!(
            "[obs diff] DIFF bundle 0 (lru) alert[0]: {} != {}",
            sample_line(49),
            edited_line(49)
        )
    );
}

#[test]
fn the_reader_refuses_the_two_lines_its_predecessor_passed() {
    // ISSUE 24's other demonstration, on the tracked sample: `obs_check`
    // printed "all checks passed" over an event line gutted to three
    // fields and a window line seven fields short.
    let sample = sample();
    let with_line = |n: usize, line: &str| -> String {
        let mut lines: Vec<&str> = sample.lines().collect();
        lines[n - 1] = line;
        lines.join("\n") + "\n"
    };
    let gutted = r#"{"type":"event","seq":181543,"verdict":"redirect"}"#;
    let window = sample.lines().nth(18).unwrap();
    let short = window[..window.find(",\"filled_chunks\"").unwrap()].to_string() + "}";
    for (n, line, field) in [(81, gutted, "t_ms"), (19, &short[..], "filled_chunks")] {
        let e = TelemetryBundle::parse_jsonl(&with_line(n, line)).expect_err("refused");
        assert_eq!(e.to_string(), format!("line {n}: missing field `{field}`"));
        let out = obs(&[
            "check",
            "--in",
            &write_tmp("gutted.jsonl", &with_line(n, line)),
        ]);
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(&format!("gutted.jsonl: line {n}: missing field `{field}`")));
    }
}
