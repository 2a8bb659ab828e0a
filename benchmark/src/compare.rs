//! `compare`: one set of results judged against another by the bounds
//! `BENCHMARK.json` fixes.
//!
//! A results file holds one JSON object per line, as `run` writes them
//! (`<workload>.result.json`, `results/trajectory.jsonl`, or several of
//! those concatenated); the more runs per workload, the better the
//! spread is known. For every workload × end-to-end metric the medians
//! of the two sides' untraced runs (traced ones only where a side has no
//! others) are set against each other:
//!
//! * **unresolved** — the run-to-run spread (interquartile range ÷
//!   median, the wider side's) exceeds the metric's bound, so the bound
//!   cannot be tested — unless every run of the new side beats every run
//!   of the base, which counts as improved;
//! * **regressed** / **improved** — the new median is worse / better
//!   than the base's by more than the bound;
//! * **unchanged** — otherwise.
//!
//! Simulated statistics are not judged by bounds: wherever both sides
//! ran the same workload on the same seed, every exact metric must be
//! identical, and any difference is reported as a mismatch.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use vcdn_sim::report::Table;
use vcdn_types::json::{self, Json};

use crate::schema::{Manifest, END_TO_END, PER_LAYER, RESULT_SCHEMA};
use crate::stats::{iqr, median};

/// One run, as read back from a results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Scale and days the workload ran at (a `--quick` run's differ).
    pub size: (f64, u64),
    /// Workload seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub traced: bool,
    /// Whether the run passed its correctness gate.
    pub correct: bool,
    /// Every metric of the run that carries a value, by name.
    pub values: BTreeMap<String, Json>,
}

/// Parses the result lines of `text` (blank lines are skipped).
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut records = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: &str| format!("line {}: {what}", i + 1);
        let doc = json::parse(line).map_err(|e| at(&e.to_string()))?;
        if doc.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
            return Err(at(&format!("not a {RESULT_SCHEMA} result")));
        }
        let (
            Some(workload),
            Some(Json::Float(scale)),
            Some(Json::Int(days)),
            Some(Json::Int(seed)),
            Some(Json::Bool(traced)),
            Some(Json::Bool(correct)),
        ) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("scale"),
            doc.get("days"),
            doc.get("seed"),
            doc.get("traced"),
            doc.get("correct"),
        )
        else {
            return Err(at("missing workload, scale, days, seed, traced or correct"));
        };
        let mut values = BTreeMap::new();
        for section in ["end_to_end", "per_layer"] {
            let Some(Json::Obj(metrics)) = doc.get(section) else {
                return Err(at(&format!("missing object `{section}`")));
            };
            for (name, metric) in metrics {
                match metric.get("value") {
                    None | Some(Json::Null) => {}
                    Some(value) => {
                        values.insert(name.clone(), value.clone());
                    }
                }
            }
        }
        records.push(Record {
            workload: workload.to_string(),
            size: (*scale, *days as u64),
            seed: u64::try_from(*seed).map_err(|_| at("seed out of range"))?,
            traced: *traced,
            correct: *correct,
            values,
        });
    }
    Ok(records)
}

/// Reads a results file.
pub fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_records(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// What became of a metric between base and new.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than the base by more than the bound.
    Improved,
    /// Within the bound of the base.
    Unchanged,
    /// Worse than the base by more than the bound.
    Regressed,
    /// The spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// One workload × end-to-end metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Metric unit.
    pub unit: String,
    /// Median of the base's runs.
    pub base: f64,
    /// Median of the new side's runs.
    pub new: f64,
    /// Runs on the base and the new side.
    pub runs: (usize, usize),
    /// The wider side's interquartile range ÷ median.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The judgement.
    pub verdict: Verdict,
}

/// A finished comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Workload × end-to-end metric, in `BENCHMARK.json` order.
    pub rows: Vec<Row>,
    /// Exact values compared between same-seed runs.
    pub exact_compared: usize,
    /// Incorrect runs and simulated statistics that differ.
    pub mismatches: Vec<String>,
}

impl Comparison {
    /// Whether the new side may stand: nothing regressed, nothing simulated
    /// moved, every run correct.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.rows.iter().all(|r| r.verdict != Verdict::Regressed)
    }
}

/// One side's values of an end-to-end metric: from its untraced runs of
/// `workload` if it has any, else from its traced ones (whose rounds hold
/// extra drivers and read lower).
fn floats(records: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    let runs = || {
        records
            .iter()
            .filter(|r| r.correct && r.workload == workload)
    };
    let untraced_only = runs().any(|r| !r.traced);
    runs()
        .filter(|r| !(untraced_only && r.traced))
        .filter_map(|r| match r.values.get(metric) {
            Some(Json::Float(v)) => Some(*v),
            Some(Json::Int(v)) => Some(*v as f64),
            _ => None,
        })
        .collect()
}

/// Spread and verdict for one metric, given both sides' runs and their
/// medians `mb` and `mn`.
fn judge(
    (base, mb): (&[f64], f64),
    (new, mn): (&[f64], f64),
    higher_is_better: bool,
    bound: f64,
) -> (f64, Verdict) {
    let spread = (iqr(base) / mb).abs().max((iqr(new) / mn).abs());
    let better = |a: f64, b: f64| if higher_is_better { a > b } else { a < b };
    let gain = if higher_is_better { mn - mb } else { mb - mn } / mb.abs();
    let verdict = if spread > bound {
        if new.iter().all(|&n| base.iter().all(|&b| better(n, b))) {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if -gain > bound {
        Verdict::Regressed
    } else if gain > bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (spread, verdict)
}

/// Compares `new` against `base` by `manifest`'s bounds.
pub fn compare(base: &[Record], new: &[Record], manifest: &Manifest) -> Comparison {
    let mut rows = Vec::new();
    for workload in &manifest.workloads {
        for metric in &manifest.end_to_end {
            let b = floats(base, workload, &metric.name);
            let n = floats(new, workload, &metric.name);
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let bound = metric.bound.unwrap_or(0.0);
            let (mb, mn) = (median(&b), median(&n));
            let (spread, verdict) = judge((&b, mb), (&n, mn), metric.higher_is_better, bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                unit: metric.unit.clone(),
                base: mb,
                new: mn,
                runs: (b.len(), n.len()),
                spread,
                bound,
                verdict,
            });
        }
    }

    let mut mismatches = Vec::new();
    for workload in &manifest.workloads {
        let mut sizes = base.iter().chain(new).filter(|r| &r.workload == workload);
        if let Some(first) = sizes.next() {
            if sizes.any(|r| r.size != first.size) {
                mismatches.push(format!(
                    "{workload}: runs of different sizes (scale, days) are mixed"
                ));
            }
        }
    }
    for (side, records) in [("base", base), ("new", new)] {
        for r in records.iter().filter(|r| !r.correct) {
            mismatches.push(format!(
                "{side}: the {} run at seed {} failed its correctness gate",
                r.workload, r.seed
            ));
        }
    }
    // Every exact metric, wherever one workload ran on one seed more than
    // once — across the two sides or within one.
    let mut seen: BTreeMap<(&str, u64, &str), &Json> = BTreeMap::new();
    let mut exact_compared = 0;
    let exact = END_TO_END.iter().chain(&PER_LAYER).filter(|d| d.exact);
    for def in exact {
        for r in base.iter().chain(new).filter(|r| r.correct) {
            let Some(value) = r.values.get(def.name) else {
                continue;
            };
            match seen.insert((r.workload.as_str(), r.seed, def.name), value) {
                Some(first) if first != value => mismatches.push(format!(
                    "{} at seed {}: {} was {first}, then {value}",
                    r.workload, r.seed, def.name
                )),
                Some(_) => exact_compared += 1,
                None => {}
            }
        }
    }
    Comparison {
        rows,
        exact_compared,
        mismatches,
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut table = Table::new(vec![
            "workload", "metric", "base", "new", "new/base", "runs", "spread", "bound", "verdict",
        ]);
        for r in &self.rows {
            table.row(vec![
                r.workload.clone(),
                r.metric.clone(),
                format!("{:.6} {}", r.base, r.unit),
                format!("{:.6} {}", r.new, r.unit),
                format!("{:.4}", r.new / r.base),
                format!("{}/{}", r.runs.0, r.runs.1),
                format!("{:.4}", r.spread),
                r.bound.to_string(),
                r.verdict.to_string(),
            ]);
        }
        write!(f, "{}", table.render())?;
        writeln!(
            f,
            "simulated statistics: {} values compared between same-seed runs, {} differ",
            self.exact_compared,
            self.mismatches.len()
        )?;
        for m in &self.mismatches {
            writeln!(f, "  MISMATCH {m}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, seed: u64, replay: f64, efficiency: f64) -> String {
        format!(
            "{{\"schema\":\"{RESULT_SCHEMA}\",\"workload\":\"{workload}\",\
             \"scale\":0.0625,\"days\":30,\"seed\":{seed},\"traced\":false,\
             \"correct\":true,\"end_to_end\":{{\
             \"replay_req_per_s\":{{\"value\":{replay:?},\"unit\":\"req/s\"}},\
             \"engine_req_per_s\":{{\"value\":null,\"unit\":\"req/s\"}},\
             \"efficiency_steady\":{{\"value\":{efficiency:?},\"unit\":\"ratio\"}}}},\
             \"per_layer\":{{}}}}\n"
        )
    }

    fn set(replays: &[f64], efficiency: f64) -> Vec<Record> {
        let text: String = replays
            .iter()
            .enumerate()
            .map(|(seed, &r)| record("cafe_paper", seed as u64, r, efficiency))
            .collect();
        parse_records(&text).unwrap()
    }

    fn verdict_of(c: &Comparison, metric: &str) -> Verdict {
        c.rows.iter().find(|r| r.metric == metric).unwrap().verdict
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let manifest = Manifest::load().unwrap();
        let base = set(&[100.0, 101.0, 99.0, 100.5], 0.7);
        // Same again: unchanged, every exact value identical.
        let same = compare(&base, &base, &manifest);
        assert!(same.passed());
        assert_eq!(verdict_of(&same, "replay_req_per_s"), Verdict::Unchanged);
        assert_eq!(same.exact_compared, 4);
        // A null metric is no number: no row.
        assert!(same.rows.iter().all(|r| r.metric != "engine_req_per_s"));
        // 30 % slower: regressed.
        let slow = compare(&base, &set(&[70.0, 71.0, 69.0, 70.5], 0.7), &manifest);
        assert_eq!(verdict_of(&slow, "replay_req_per_s"), Verdict::Regressed);
        assert!(!slow.passed());
        // 30 % faster: improved.
        let fast = compare(&base, &set(&[130.0, 131.0, 129.0, 130.5], 0.7), &manifest);
        assert_eq!(verdict_of(&fast, "replay_req_per_s"), Verdict::Improved);
        assert!(fast.passed());
        // Spread wider than the bound: unresolved, unless every new run
        // beats every base run.
        let noisy = set(&[100.0, 160.0, 80.0, 130.0], 0.7);
        let unresolved = compare(&base, &noisy, &manifest);
        assert_eq!(
            verdict_of(&unresolved, "replay_req_per_s"),
            Verdict::Unresolved
        );
        assert!(unresolved.passed());
        let clear = compare(&base, &set(&[200.0, 320.0, 160.0, 260.0], 0.7), &manifest);
        assert_eq!(verdict_of(&clear, "replay_req_per_s"), Verdict::Improved);
    }

    #[test]
    fn a_simulated_statistic_that_moves_is_a_mismatch_whatever_the_bound() {
        let manifest = Manifest::load().unwrap();
        let base = set(&[100.0, 100.0], 0.7);
        let moved = compare(&base, &set(&[100.0, 100.0], 0.7000000001), &manifest);
        assert_eq!(verdict_of(&moved, "efficiency_steady"), Verdict::Unchanged);
        assert_eq!(moved.mismatches.len(), 2);
        assert!(!moved.passed());
        assert!(moved.to_string().contains("MISMATCH cafe_paper at seed 0"));
    }

    #[test]
    fn traced_runs_lend_their_end_to_end_figures_only_when_alone() {
        let manifest = Manifest::load().unwrap();
        let base = set(&[100.0, 100.0], 0.7);
        let mut mixed = set(&[100.0, 100.0, 50.0], 0.7);
        mixed[2].traced = true;
        assert_eq!(floats(&mixed, "cafe_paper", "replay_req_per_s"), [100.0; 2]);
        assert_eq!(
            verdict_of(&compare(&base, &mixed, &manifest), "replay_req_per_s"),
            Verdict::Unchanged
        );
        mixed.iter_mut().for_each(|r| r.traced = true);
        assert_eq!(floats(&mixed, "cafe_paper", "replay_req_per_s").len(), 3);
    }

    #[test]
    fn smoke_test_runs_do_not_pass_for_full_size_ones() {
        let manifest = Manifest::load().unwrap();
        let base = set(&[100.0, 100.0], 0.7);
        let mut quick = base.clone();
        quick[0].size = (0.004, 4);
        let mixed = compare(&base, &quick, &manifest);
        assert!(mixed.mismatches[0].contains("different sizes"));
        assert!(!mixed.passed());
    }

    #[test]
    fn foreign_lines_are_refused() {
        assert!(parse_records("{\"bench\":\"perf_baseline\"}\n").is_err());
        assert!(parse_records("not json\n").is_err());
        assert!(parse_records("\n\n").unwrap().is_empty());
    }
}
