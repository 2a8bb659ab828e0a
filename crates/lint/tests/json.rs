//! `vcdn-lint --json` contract: stdout is one well-formed JSON document
//! with a stable field order, findings sorted by (file, line, rule), and
//! the same content as the human-readable format.

use std::path::{Path, PathBuf};
use std::process::Command;

use vcdn_types::json::{parse, Json};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(args: &[&str], root: &Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_vcdn-lint"))
        .args(args)
        .arg("--root")
        .arg(root)
        .output()
        .expect("run vcdn-lint")
}

fn array<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    match doc.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("`{key}` should be an array, got {other:?}"),
    }
}

fn str_field(v: &Json, key: &str) -> String {
    v.get(key)
        .and_then(|j| j.as_str())
        .unwrap_or_else(|| panic!("missing string field `{key}` in {v:?}"))
        .to_string()
}

fn num_field(v: &Json, key: &str) -> u32 {
    match v.get(key) {
        Some(Json::Int(n)) => *n as u32,
        other => panic!("missing number field `{key}`, got {other:?}"),
    }
}

#[test]
fn json_output_parses_and_matches_human_format() {
    let ws = fixture("ws");

    let json_out = run(&["--check", "--json"], &ws);
    assert_eq!(json_out.status.code(), Some(1), "seeded ws must fail");
    let stdout = String::from_utf8(json_out.stdout).expect("utf-8 stdout");
    let doc = parse(&stdout).expect("stdout parses as JSON");

    // Summary counters are present and truthful.
    assert_eq!(num_field(&doc, "files_scanned"), 6);
    assert_eq!(num_field(&doc, "suppressed"), 0);
    assert_eq!(doc.get("clean"), Some(&Json::Bool(false)));
    assert!(array(&doc, "allow_errors").is_empty());

    // Findings match the human format line-for-line, in the same order.
    let human_out = run(&["--check"], &ws);
    assert_eq!(human_out.status.code(), Some(1));
    let human = String::from_utf8(human_out.stdout).expect("utf-8 stdout");
    let human_lines: Vec<&str> = human.lines().collect();

    let findings = array(&doc, "findings");
    assert_eq!(findings.len(), human_lines.len());
    for (f, line) in findings.iter().zip(&human_lines) {
        let rebuilt = format!(
            "{}:{}: [{}] {} — `{}`",
            str_field(f, "file"),
            num_field(f, "line"),
            str_field(f, "rule"),
            str_field(f, "message"),
            str_field(f, "snippet")
        );
        assert_eq!(
            &rebuilt, line,
            "JSON finding must round-trip to the human line"
        );
    }

    // Sorted by (file, line, rule).
    let keys: Vec<(String, u32, String)> = findings
        .iter()
        .map(|f| {
            (
                str_field(f, "file"),
                num_field(f, "line"),
                str_field(f, "rule"),
            )
        })
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "findings must be sorted by file:line:rule");
}

#[test]
fn json_field_order_is_stable() {
    let out = run(&["--check", "--json"], &fixture("ws"));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");

    // Top-level key order is part of the contract (diffable artifacts).
    let top: Vec<usize> = [
        "\"findings\"",
        "\"allow_errors\"",
        "\"files_scanned\"",
        "\"suppressed\"",
        "\"clean\"",
    ]
    .iter()
    .map(|k| stdout.find(k).unwrap_or_else(|| panic!("missing key {k}")))
    .collect();
    assert!(
        top.windows(2).all(|w| w[0] < w[1]),
        "top-level key order drifted"
    );

    // Per-finding key order, checked on the first finding object.
    let first = stdout
        .find("{\"file\"")
        .expect("finding objects must lead with \"file\"");
    let obj_end = stdout[first..]
        .find('}')
        .map(|i| first + i)
        .expect("object closes");
    let obj = &stdout[first..obj_end];
    let fields: Vec<usize> = [
        "\"file\"",
        "\"line\"",
        "\"rule\"",
        "\"message\"",
        "\"snippet\"",
    ]
    .iter()
    .map(|k| {
        obj.find(k)
            .unwrap_or_else(|| panic!("missing key {k} in {obj}"))
    })
    .collect();
    assert!(
        fields.windows(2).all(|w| w[0] < w[1]),
        "finding key order drifted"
    );

    // Byte-stable: two runs over the same tree are identical.
    let again = run(&["--check", "--json"], &fixture("ws"));
    assert_eq!(
        stdout,
        String::from_utf8(again.stdout).expect("utf-8 stdout")
    );
}

#[test]
fn json_reports_allow_errors() {
    let out = run(&["--check", "--json"], &fixture("ws-allow"));
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = parse(&stdout).expect("stdout parses as JSON");
    assert!(array(&doc, "findings").is_empty());
    assert_eq!(array(&doc, "allow_errors").len(), 2);
    assert_eq!(num_field(&doc, "suppressed"), 1);
    assert_eq!(doc.get("clean"), Some(&Json::Bool(false)));
    let messages: Vec<String> = array(&doc, "allow_errors")
        .iter()
        .map(|e| str_field(e, "message"))
        .collect();
    assert!(messages.iter().any(|m| m.contains("stale")));
    assert!(messages.iter().any(|m| m.contains("justification")));
}
