//! The metric lists, and the root `BENCHMARK.json` that declares them.
//!
//! The tables below fix the order metrics are emitted in (so two result
//! files diff cleanly) and which per-layer metrics are *simulated*: those
//! repeat exactly for a given workload and seed, and `compare` holds a
//! performance change to that. `BENCHMARK.json` carries the same names
//! with units, directions and regression bounds; a test keeps the two in
//! step.

use vcdn_types::json::{self, Json};

/// The repo's `BENCHMARK.json`, compiled in: the bounds `compare` judges
/// by and the default window length are whatever the file says.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Schema tag of result lines.
pub const RESULT_SCHEMA: &str = "vcdn-benchmark/1";

/// A metric the harness emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, unique over both lists.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether the value is simulated (repeats exactly per seed).
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        exact: true,
    }
}

/// The end-to-end metrics, in emission order.
pub const END_TO_END: [MetricDef; 6] = [
    timed("setup_s", "s"),
    timed("replay_req_per_s", "req/s"),
    timed("telemetry_req_per_s", "req/s"),
    timed("engine_req_per_s", "req/s"),
    timed("peak_rss_mib", "MiB"),
    exact("efficiency_steady", "ratio"),
];

/// The per-layer metrics, in emission order.
pub const PER_LAYER: [MetricDef; 71] = [
    // trace
    timed("trace.generate_s", "s"),
    timed("trace.generate_req_per_s", "req/s"),
    timed("trace.encode_s", "s"),
    timed("trace.decode_s", "s"),
    timed("trace.decode_req_per_s", "req/s"),
    exact("trace.requests", "count"),
    exact("trace.file_bytes", "bytes"),
    // core
    timed("core.build_s", "s"),
    timed("core.decide_busy_s", "s"),
    exact("core.decide_samples", "count"),
    timed("core.decide_ns_p50", "ns"),
    timed("core.decide_ns_p99", "ns"),
    timed("core.decide_ns_p999", "ns"),
    timed("core.decide_ns_tail", "ns"),
    exact("core.decide_tail_pct", "%"),
    timed("core.decide_ns_mean.hit", "ns"),
    timed("core.decide_ns_mean.fill", "ns"),
    timed("core.decide_ns_mean.evict", "ns"),
    timed("core.decide_ns_mean.redirect", "ns"),
    exact("core.requests.hit", "count"),
    exact("core.requests.fill", "count"),
    exact("core.requests.evict", "count"),
    exact("core.requests.redirect", "count"),
    exact("core.hit_chunks", "count"),
    exact("core.fill_chunks", "count"),
    exact("core.evicted_chunks", "count"),
    exact("core.chunk_hit_ratio", "ratio"),
    // sim
    timed("sim.replay_s", "s"),
    timed("sim.report_s", "s"),
    timed("sim.null_replay_ns_per_req", "ns"),
    timed("sim.engine.run_s", "s"),
    timed("sim.engine.w2_run_s", "s"),
    timed("sim.engine.w2_req_per_s", "req/s"),
    timed("sim.engine.null_w1_ns_per_req", "ns"),
    timed("sim.engine.null_w2_ns_per_req", "ns"),
    timed("sim.engine.route_ns_per_req", "ns"),
    timed("sim.engine.partition_s", "s"),
    timed("sim.engine.shard_busy_sum_s", "s"),
    timed("sim.engine.shard_busy_max_s", "s"),
    timed("sim.engine.wait_s", "s"),
    timed("sim.engine.parallel_efficiency", "ratio"),
    exact("sim.engine.skew_requests_x1000", "count"),
    exact("sim.engine.efficiency_steady", "ratio"),
    // obs
    timed("obs.level.detached_ns_per_req", "ns"),
    timed("obs.level.noop_ns_per_req", "ns"),
    timed("obs.level.full_ns_per_req", "ns"),
    timed("obs.full_overhead_pct", "%"),
    timed("obs.bundle_serialize_s", "s"),
    exact("obs.bundle_bytes", "bytes"),
    exact("obs.bundle_lines", "count"),
    exact("obs.events_dropped", "count"),
    exact("obs.windows", "count"),
    exact("obs.windows_dropped", "count"),
    exact("obs.alerts", "count"),
    // bench: the harness itself
    timed("bench.rounds", "count"),
    timed("bench.window_s", "s"),
    timed("bench.cores", "count"),
    timed("bench.spread_pct.replay", "%"),
    timed("bench.spread_pct.telemetry", "%"),
    timed("bench.spread_pct.engine", "%"),
    timed("bench.spread_pct.engine_w2", "%"),
    timed("bench.ledger_closure_pct.replay", "%"),
    timed("bench.ledger_closure_pct.telemetry", "%"),
    timed("bench.ledger_closure_pct.engine", "%"),
    timed("bench.ledger_closure_pct.engine_w2", "%"),
    timed("bench.trace_overhead_pct.replay", "%"),
    timed("bench.trace_overhead_pct.telemetry", "%"),
    timed("bench.trace_overhead_pct.engine", "%"),
    timed("bench.trace_overhead_pct.engine_w2", "%"),
    timed("bench.ops_attempted", "count"),
    timed("bench.ops_failed", "count"),
];

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the base's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness reads.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Window length of one run, in seconds.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics.
    pub per_layer: Vec<Declared>,
}

fn text<'a>(obj: &'a Json, key: &str) -> Result<&'a str, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}` in {obj}"))
}

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json: missing array `{key}`")),
    }
}

fn declared(doc: &Json, key: &str) -> Result<Vec<Declared>, String> {
    list(doc, key)?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: text(m, "name")?.to_string(),
                unit: text(m, "unit")?.to_string(),
                higher_is_better: match text(m, "better")? {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                },
                bound: match m.get("bound") {
                    Some(Json::Float(b)) => Some(*b),
                    Some(Json::Int(b)) => Some(*b as f64),
                    _ => None,
                },
            })
        })
        .collect()
}

impl Manifest {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Manifest, String> {
        let doc = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let Some(Json::Int(run_seconds)) = doc.get("run_seconds") else {
            return Err("BENCHMARK.json: missing integer `run_seconds`".into());
        };
        Ok(Manifest {
            run_seconds: u64::try_from(*run_seconds)
                .map_err(|_| "BENCHMARK.json: run_seconds out of range".to_string())?,
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: declared(&doc, "end_to_end")?,
            per_layer: declared(&doc, "per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn pairs(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    fn declared_pairs(declared: &[Declared]) -> Vec<(String, String)> {
        declared
            .iter()
            .map(|d| (d.name.clone(), d.unit.clone()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_harness_emits() {
        let manifest = Manifest::load().unwrap();
        assert_eq!(declared_pairs(&manifest.end_to_end), pairs(&END_TO_END));
        assert_eq!(declared_pairs(&manifest.per_layer), pairs(&PER_LAYER));
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name).collect();
        assert_eq!(manifest.workloads, names);
        assert!((1..=60).contains(&manifest.run_seconds));
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_within_the_contract() {
        let manifest = Manifest::load().unwrap();
        for m in &manifest.end_to_end {
            let bound = m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
            assert!((0.0..=0.25).contains(&bound), "{}: bound {bound}", m.name);
        }
        let setup = &manifest.end_to_end[0];
        assert_eq!(
            (setup.name.as_str(), setup.higher_is_better),
            ("setup_s", false)
        );
        assert!(manifest.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
