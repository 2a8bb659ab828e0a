//! The bundle reader against damaged telemetry: a bundle written whole is
//! read and passes `check`; cut short anywhere — after any line, or inside
//! a line of any section — or with any one line damaged in any way, it is
//! an `Err` naming the line (and the field where there is one), and
//! `obs check` reports it as a `FAIL` with exit status 1 — never accepted,
//! never a default, never a panic.

use std::path::PathBuf;
use std::process::Command;

use vcdn_core::{CacheConfig, XlruCache};
use vcdn_obs::{check, ReadError, TelemetryBundle};
use vcdn_sim::observe::{replay_with_telemetry, TelemetryConfig};
use vcdn_sim::{ReplayConfig, Replayer};
use vcdn_trace::{ServerProfile, TraceGenerator};
use vcdn_types::json::{self, Json};
use vcdn_types::{ChunkSize, CostModel, DurationMs};

/// A `tiny_test` xLRU bundle with every section populated; 16 events keep
/// it to a few dozen lines.
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

const SECTIONS: [&str; 7] = [
    "meta", "metric", "topk", "window", "alert", "sample", "event",
];

/// The line type every bundle line leads with.
fn kind(line: &str) -> &str {
    line.split('"').nth(3).expect("a line leads with its type")
}

/// 0-based index of the first line of each section, in [`SECTIONS`] order.
fn section_starts(lines: &[&str]) -> Vec<usize> {
    SECTIONS
        .iter()
        .map(|s| lines.iter().position(|l| kind(l) == *s).expect(s))
        .collect()
}

/// Runs `obs check` over `text`; returns its exit code and stderr.
fn obs_check(text: &str, name: &str) -> (Option<i32>, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_obs"))
        .args(["check", "--in"])
        .arg(&path)
        .output()
        .expect("obs binary runs");
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

fn refused(text: &str, what: &str) -> ReadError {
    match TelemetryBundle::parse_jsonl(text) {
        Err(e) => e,
        Ok(_) => panic!("{what}: accepted"),
    }
}

#[test]
fn a_truncated_bundle_is_a_reported_failure_wherever_it_is_cut() {
    let jsonl = bundle_jsonl();
    let whole = TelemetryBundle::parse_jsonl(&jsonl).expect("the whole bundle reads");
    assert_eq!(check(&whole[0]), Vec::<String>::new());
    let (code, stderr) = obs_check(&jsonl, "whole.jsonl");
    assert_eq!(code, Some(0), "the whole bundle must pass: {stderr}");

    let lines: Vec<&str> = jsonl.split_inclusive('\n').collect();
    for n in 1..lines.len() {
        let e = refused(&lines[..n].concat(), &format!("cut after line {n}"));
        assert_eq!(e.line, n + 1, "{e}");
        assert!(e.what.contains("end of document"), "{e}");
    }
    // One cut inside the first line of every section.
    for (start, section) in section_starts(&lines).into_iter().zip(SECTIONS) {
        let cut = lines[..start].concat() + &lines[start][..lines[start].len() / 2];
        let e = refused(&cut, &format!("cut inside {section}"));
        assert_eq!(e.line, start + 1, "cut inside {section}: {e}");
        assert!(e.what.contains("unparseable"), "{e}");
    }

    // What the tool makes of a refusal, and of a file with nothing in it.
    let half = lines[..lines.len() / 2].concat();
    for (text, what) in [(half.as_str(), "end of document"), ("", "no telemetry")] {
        let (code, stderr) = obs_check(text, "truncated.jsonl");
        assert_eq!(code, Some(1), "{what}: {stderr}");
        assert!(stderr.contains("[obs check] FAIL "), "{what}: {stderr}");
        assert!(stderr.contains(what), "{stderr}");
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
}

/// `line`'s fields; `Json`'s rendering is the bundle writer's, so an
/// untouched field list renders back to the line.
fn fields(line: &str) -> Vec<(String, Json)> {
    match json::parse(line).unwrap() {
        Json::Obj(fields) => {
            assert_eq!(render(&fields), line);
            fields
        }
        other => panic!("not an object: {other}"),
    }
}

fn render(fields: &[(String, Json)]) -> String {
    format!("{}\n", Json::Obj(fields.to_vec()))
}

#[test]
fn a_damaged_line_is_refused_whatever_the_damage() {
    let jsonl = bundle_jsonl();
    let lines: Vec<&str> = jsonl.split_inclusive('\n').collect();
    // `doc` with line `at` (0-based) replaced must be refused on that
    // line, in words that name `field`.
    let refuse_line = |at: usize, with: String, field: &str, what: &str| {
        let doc = [
            &lines[..at].concat(),
            with.as_str(),
            &lines[at + 1..].concat(),
        ]
        .concat();
        let e = refused(&doc, what);
        assert_eq!(e.line, at + 1, "{what}: {e}");
        assert!(e.what.contains(&format!("`{field}`")), "{what}: {e}");
    };

    for (at, section) in section_starts(&lines).into_iter().zip(SECTIONS) {
        let whole = fields(lines[at]);
        // On the meta line only the fields the writer owns are fixed: the
        // entries between `schema` and the counts are the caller's.
        let owned: Vec<usize> = match section {
            "meta" => (0..2).chain(whole.len() - 8..whole.len()).collect(),
            _ => (0..whole.len()).collect(),
        };
        for &i in &owned {
            let name = &whole[i].0;
            let mut gone = whole.clone();
            gone.remove(i);
            refuse_line(
                at,
                render(&gone),
                name,
                &format!("{section} without {name}"),
            );

            let mut renamed = whole.clone();
            renamed[i].0.push_str("_x");
            let what = format!("{section} with {name} renamed");
            refuse_line(at, render(&renamed), name, &what);

            if let Json::Int(v) = whole[i].1 {
                let mut mistyped = whole.clone();
                mistyped[i].1 = Json::Str(v.to_string());
                let what = format!("{section} with {name} a string");
                refuse_line(at, render(&mistyped), name, &what);
            }
        }
        for pair in owned.windows(2).filter(|p| p[1] == p[0] + 1) {
            let mut swapped = whole.clone();
            swapped.swap(pair[0], pair[1]);
            let (a, b) = (&whole[pair[0]].0, &whole[pair[1]].0);
            let what = format!("{section} with {a} and {b} swapped");
            refuse_line(at, render(&swapped), b, &what);
        }
        let mut extra = whole.clone();
        extra.push(("extra".into(), Json::Int(1)));
        let named = if section == "meta" {
            "metrics"
        } else {
            "extra"
        };
        let what = format!("{section} with a field added");
        refuse_line(at, render(&extra), named, &what);
    }

    // A position past 32 bits, where the record holds a `u32`.
    let starts = section_starts(&lines);
    for (at, name) in [
        (starts[2], "shard"),
        (starts[2], "rank"),
        (starts[6], "chunk"),
        (starts[6], "chunks"),
    ] {
        let mut wide = fields(lines[at]);
        let slot = wide.iter_mut().find(|(k, _)| k == name).unwrap();
        slot.1 = Json::Int(1 << 32);
        refuse_line(at, render(&wide), name, &format!("{name} = 2^32"));
    }

    // A redirect has no chunk split; one that carries hit chunks is not
    // something the writer writes.
    let served = (starts[6]..lines.len())
        .find(|&i| {
            lines[i].contains("\"verdict\":\"serve\"") && !lines[i].contains("\"hit_chunks\":0,")
        })
        .expect("an event that hit");
    let redirect = lines[served].replace("\"verdict\":\"serve\"", "\"verdict\":\"redirect\"");
    refuse_line(
        served,
        redirect,
        "hit_chunks",
        "a redirect carrying hit chunks",
    );

    // The two lines `obs_check` used to pass (ISSUE 24): an event gutted
    // to three fields, and a window line cut off before `filled_chunks`.
    let seq = &fields(lines[starts[6]])[1].1;
    let gutted_event = format!("{{\"type\":\"event\",\"seq\":{seq},\"verdict\":\"redirect\"}}\n");
    refuse_line(starts[6], gutted_event, "t_ms", "the gutted event line");
    let window = fields(lines[starts[3]]);
    let seven_fields_short = render(&window[..window.len() - 7]);
    let what = "the seven-fields-short window line";
    refuse_line(starts[3], seven_fields_short, "filled_chunks", what);
}

#[test]
fn counts_and_section_order_are_held_to_the_meta_line() {
    let jsonl = bundle_jsonl();
    let lines: Vec<&str> = jsonl.split_inclusive('\n').collect();
    let starts = section_starts(&lines);
    let meta = fields(lines[0]);
    let with_count = |name: &str, count: i128| {
        let mut meta = meta.clone();
        let slot = meta.iter_mut().rev().find(|(k, _)| k == name).unwrap();
        slot.1 = Json::Int(count);
        render(&meta) + &lines[1..].concat()
    };
    let count_of = |name: &str| match meta.iter().rev().find(|(k, _)| k == name).unwrap().1 {
        Json::Int(n) => n,
        ref other => panic!("{name} = {other}"),
    };

    let counts = ["metrics", "topk", "windows", "alerts", "samples", "events"];
    for (s, name) in counts.into_iter().enumerate() {
        let section = SECTIONS[s + 1];
        let (first, n) = (starts[s + 1], count_of(name));
        // The line after the section's last, 1-based; past the end for `events`.
        let after = first + n as usize + 1;
        // One too high: the section ends with a line still owed.
        let e = refused(&with_count(name, n + 1), &format!("{name} + 1"));
        assert_eq!(e.line, after, "{name} + 1: {e}");
        let owed = format!("counts 1 more `{section}` line(s)");
        assert!(e.what.contains(&owed), "{name} + 1: {e}");
        // One too low: the section's last line arrives unowed.
        let e = refused(&with_count(name, n - 1), &format!("{name} - 1"));
        assert_eq!(e.line, after - 1, "{name} - 1: {e}");
        assert!(e.what.contains(&format!("`{section}` line")), "{e}");
    }

    // A count nothing can honour is refused where it stops holding, not
    // allocated for.
    let e = refused(&with_count("events", u64::MAX as i128), "events = u64::MAX");
    assert_eq!(e.line, lines.len() + 1, "{e}");
    assert!(e.what.contains("more `event` line(s)"), "{e}");
    let e = refused(
        &with_count("metrics", u64::MAX as i128),
        "metrics = u64::MAX",
    );
    assert_eq!(e.line, starts[2] + 1, "{e}");
    assert!(e.what.contains("`topk` line where"), "{e}");

    // Two sections swapped: the top-K block ahead of the metric block.
    let swapped = [
        &lines[..1],
        &lines[starts[2]..starts[3]],
        &lines[starts[1]..starts[2]],
        &lines[starts[3]..],
    ]
    .concat()
    .concat();
    let e = refused(&swapped, "topk before metrics");
    assert_eq!(e.line, 2, "{e}");
    assert!(e.what.contains("`topk` line where"), "{e}");
    assert!(e.what.contains("more `metric` line(s)"), "{e}");

    // A line before any meta line, and a stray one after the last section.
    let e = refused(&lines[1..].concat(), "no meta line");
    assert_eq!(e.line, 1, "{e}");
    assert!(e.what.contains("before any meta line"), "{e}");
    let e = refused(&(jsonl.clone() + lines[starts[1]]), "a stray metric line");
    assert_eq!(e.line, lines.len() + 1, "{e}");
    assert!(e.what.contains("counts no more lines"), "{e}");
}
