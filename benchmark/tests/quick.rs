//! Smoke runs of every workload at `--quick` size: the metric lists, the
//! ledger, the contract line, repeatability and failure accounting.

use std::path::PathBuf;
use std::process::Command;

use vcdn_benchmark::compare::{compare, load_records};
use vcdn_benchmark::run::{run, Measured, RunOptions, RunResult, Window};
use vcdn_benchmark::schema::{Declared, Manifest};
use vcdn_benchmark::workload::{PolicyKind, Workload, DEFAULT_SEED};
use vcdn_types::json::{self, Json};

/// Each test writes under a directory of its own: tests run in parallel.
fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}"))
}

fn quick(workload: Workload, traced: bool, test: &str) -> RunResult {
    run(&RunOptions {
        workload,
        seed: DEFAULT_SEED,
        window: Window::Rounds(3),
        traced,
        out_dir: out_dir(test),
    })
    .expect("a quick run can always be carried out")
}

fn names(measured: &[Measured]) -> Vec<&str> {
    measured.iter().map(|m| m.def.name).collect()
}

fn declared(list: &[Declared]) -> Vec<&str> {
    list.iter().map(|d| d.name.as_str()).collect()
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, found {other}"),
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics_and_closes_its_ledger() {
    let manifest = Manifest::load().unwrap();
    for workload in Workload::ALL {
        let result = quick(workload.quick(), true, "metrics");
        assert!(result.correct, "{}: {:?}", workload.name, result.failures);
        assert_eq!(result.failed, 0);
        assert!(result.attempted > 0);
        assert_eq!(names(&result.end_to_end), declared(&manifest.end_to_end));
        assert_eq!(names(&result.per_layer), declared(&manifest.per_layer));
        for m in result.end_to_end.iter().chain(&result.per_layer) {
            assert!(
                matches!(m.value, Json::Float(v) if v.is_finite())
                    || matches!(m.value, Json::Int(_)),
                "{}: {} = {}",
                workload.name,
                m.def.name,
                m.value
            );
        }
        // The ledger closes: the steps of each traced pass sum to its wall.
        assert_eq!(result.traced_passes.len(), 4);
        for (driver, spans) in &result.traced_passes {
            assert!(
                spans.closure_pct() < 2.0,
                "{} {}: {:.3} % unclaimed",
                workload.name,
                driver.name(),
                spans.closure_pct()
            );
        }
        // A traced run's contract line carries the per-layer metrics.
        let line = result.contract_line();
        assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            keys(line.get("metrics").unwrap()),
            declared(&manifest.per_layer)
        );
        // spans.jsonl: every line a span of one of the four passes.
        let spans = std::fs::read_to_string(
            out_dir("metrics").join(format!("{}.spans.jsonl", workload.name)),
        )
        .unwrap();
        let mut passes = Vec::new();
        for line in spans.lines() {
            let span = json::parse(line).unwrap();
            for key in [
                "pass", "driver", "id", "parent", "name", "start_ns", "end_ns", "count", "busy_ns",
            ] {
                assert!(span.get(key).is_some(), "span without `{key}`: {line}");
            }
            passes.push(span.get("pass").cloned().unwrap());
        }
        passes.dedup();
        assert_eq!(passes, [1, 2, 3, 4].map(Json::Int));
    }
}

#[test]
fn an_untraced_run_reports_the_end_to_end_metrics_only() {
    let manifest = Manifest::load().unwrap();
    let result = quick(Workload::ALL[3].quick(), false, "untraced");
    assert!(result.correct, "{:?}", result.failures);
    assert!(result.per_layer.is_empty());
    assert!(result.traced_passes.is_empty());
    let line = result.contract_line();
    assert_eq!(
        keys(line.get("metrics").unwrap()),
        declared(&manifest.end_to_end)
    );
}

#[test]
fn simulated_statistics_repeat_exactly() {
    let manifest = Manifest::load().unwrap();
    let workload = Workload::ALL[2].quick();
    let mut sets = Vec::new();
    for test in ["repeat-a", "repeat-b"] {
        quick(workload, true, test);
        let path = out_dir(test).join(format!("{}.result.json", workload.name));
        sets.push(load_records(&path).unwrap());
    }
    let comparison = compare(&sets[0], &sets[1], &manifest);
    assert!(
        comparison.mismatches.is_empty(),
        "{:?}",
        comparison.mismatches
    );
    // All six end-to-end rows are there, and the exact metrics were compared.
    assert_eq!(comparison.rows.len(), manifest.end_to_end.len());
    assert!(comparison.exact_compared > 20);
}

#[test]
fn an_under_covering_policy_is_failed_operations_not_a_panic_or_a_number() {
    let faulty = Workload {
        policy: PolicyKind::FaultyXlru,
        ..Workload::ALL[0].quick()
    };
    let result = quick(faulty, false, "faulty");
    assert!(!result.correct);
    assert!(result.failed > 0 && result.failed <= result.attempted);
    assert!(result
        .failures
        .iter()
        .any(|f| f.contains("the trace requests")));
    // No throughput is claimed for a driver whose output was wrong.
    for m in &result.end_to_end {
        if m.def.name.ends_with("_req_per_s") {
            assert_eq!(m.value, Json::Null, "{}", m.def.name);
        }
    }
    assert_eq!(
        result.contract_line().get("correct"),
        Some(&Json::Bool(false))
    );
}

#[test]
fn the_command_line_ends_with_the_contract_line_and_refuses_nonsense() {
    let bin = env!("CARGO_BIN_EXE_vcdn-benchmark");
    let ok = Command::new(bin)
        .args(["run", "--quick", "--workload", "cafe_paper"])
        .args(["--seed", "7", "--seconds", "1", "--trace", "0"])
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let stdout = String::from_utf8(ok.stdout).unwrap();
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
    let setup = last.get("metrics").unwrap().get("setup_s").unwrap();
    assert_eq!(keys(setup), ["value", "unit"]);

    for bad in [
        &["run", "--workload", "lru"][..],
        &["run", "--workload", "cafe_paper", "--trace", "2"],
        &["run"],
        &["compare", "only-one-file"],
        &[],
    ] {
        let refused = Command::new(bin).args(bad).output().unwrap();
        assert_eq!(refused.status.code(), Some(2), "{bad:?}");
        assert!(refused.stdout.is_empty(), "{bad:?}");
    }
}
