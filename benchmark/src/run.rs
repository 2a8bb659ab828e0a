//! One run of one workload: set-up, the measurement window, the
//! correctness gate, the traced passes, and the metrics read off them.
//!
//! The run is a closed loop with one client: the materialised trace is
//! fed as fast as the program consumes it, pass after pass, so every
//! throughput is requests per second of *host* time at the workload's
//! stated size. Simulated statistics are reported separately and repeat
//! exactly.
//!
//! **Estimator.** The drivers' passes are interleaved round-robin
//! (replay, telemetry, engine, replay, …) until the window is used up,
//! and each req/s figure is requests ÷ the **median** pass time; every
//! step-level per-layer row is the median of that step over the same
//! passes. This is measured: the sizing box moves between three speed
//! states (a fixed loop reads 9.1, 10.8 or 11.7 ms) that each last 10–30 s
//! — as long as a window — so what a run reads depends on which states
//! its window met. Over two campaigns (18 runs per workload, 20 s
//! windows) the quartile spread between runs was 7.1 % on average (10.0 %
//! at worst) for the median, against 12.5 % (18.6 %) for the fastest
//! decile and 10.5 % (18.1 %) for the minimum, which swing with whether a
//! window happened to catch the rare fast state. The fastest decile is
//! still reported, as `bench.spread_pct.*` = p50 ÷ p10 − 1.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use vcdn_sim::EngineReport;
use vcdn_trace::save_binary;
use vcdn_types::json::Json;

use crate::drivers::{BundleFacts, Driver, Output, Pass, PassEnv};
use crate::gate::{Gate, TraceFacts};
use crate::machine;
use crate::schema::{MetricDef, END_TO_END, PER_LAYER, RESULT_SCHEMA};
use crate::shims::{DecideStats, Outcome};
use crate::spans::{PassSpans, ROOT};
use crate::stats::{nearest_rank, sorted, tail_ppm, P10, P50, P99, P999};
use crate::workload::{Workload, SHARDS, WORKERS};

/// The share of a traced pass its top-level steps may leave unclaimed.
const LEDGER_TOLERANCE_PCT: f64 = 2.0;

/// How long the round-robin goes on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// Until about this many seconds have passed (whole rounds only, at
    /// least one).
    Seconds(f64),
    /// Exactly this many rounds — smoke tests.
    Rounds(usize),
}

/// Everything a run is told.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// The workload (possibly shrunk by [`Workload::quick`]).
    pub workload: Workload,
    /// Workload seed: same seed, same trace.
    pub seed: u64,
    /// Window length.
    pub window: Window,
    /// Whether to add the probe drivers and the traced passes, which the
    /// per-layer metrics come from.
    pub traced: bool,
    /// Directory for the trace, the bundle, the spans and the result.
    pub out_dir: PathBuf,
}

/// A metric with the value one run measured. `Json::Null` stands for "no
/// number": the driver behind it failed the correctness gate.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    /// The metric.
    pub def: MetricDef,
    /// `Json::Float`, `Json::Int` or `Json::Null`.
    pub value: Json,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload as run (shrunk, if the run was `--quick`).
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Whether the per-layer metrics were measured.
    pub traced: bool,
    /// Whether every check passed.
    pub correct: bool,
    /// Requests driven through checked passes.
    pub attempted: u64,
    /// Requests of passes that failed a check.
    pub failed: u64,
    /// What failed.
    pub failures: Vec<String>,
    /// The end-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Measured>,
    /// The per-layer metrics, in [`PER_LAYER`] order (empty unless traced).
    pub per_layer: Vec<Measured>,
    /// Wall seconds of every window pass, per driver, in the order they
    /// ran — the samples behind the req/s figures.
    pub pass_wall_s: Vec<(Driver, Vec<f64>)>,
    /// The traced passes' spans, for the ledger and `spans.jsonl`.
    pub traced_passes: Vec<(Driver, PassSpans)>,
}

/// Pass spans of the window, per driver.
#[derive(Default)]
struct Samples {
    per_driver: [Vec<PassSpans>; Driver::ALL.len()],
}

impl Samples {
    /// The `ppm` percentile over `driver`'s passes of the busy seconds of
    /// the steps called `step` (the whole pass for [`ROOT`]).
    fn percentile(&self, driver: Driver, step: &str, ppm: u32) -> f64 {
        let secs = self.per_driver[driver as usize]
            .iter()
            .map(|p| p.busy_s(step))
            .collect();
        nearest_rank(&sorted(secs), ppm)
    }

    fn median(&self, driver: Driver, step: &str) -> f64 {
        self.percentile(driver, step, P50)
    }
}

/// Collects metric values by name and hands them out in table order.
#[derive(Default)]
struct Metrics(BTreeMap<String, Json>);

impl Metrics {
    fn float(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), Json::Float(value));
    }

    fn count(&mut self, name: impl Into<String>, value: u64) {
        self.0.insert(name.into(), Json::Int(value.into()));
    }

    /// Takes the values of `defs`, in order. A metric nobody measured is
    /// a bug in the harness, reported rather than papered over.
    fn take(&mut self, defs: &[MetricDef]) -> Result<Vec<Measured>, String> {
        defs.iter()
            .map(|&def| {
                let value = self
                    .0
                    .remove(def.name)
                    .ok_or_else(|| format!("metric {} was not measured", def.name))?;
                Ok(Measured { def, value })
            })
            .collect()
    }
}

/// What set-up measured and learnt.
struct SetUp {
    generate_s: f64,
    encode_s: f64,
    total_s: f64,
    facts: TraceFacts,
    file_bytes: u64,
}

/// Generates the trace and writes it to `trace_path`, `setup_reps` times;
/// the fastest repetition counts.
fn set_up(workload: &Workload, seed: u64, trace_path: &Path) -> Result<SetUp, String> {
    let at_path = |e: &dyn std::fmt::Display| format!("{}: {e}", trace_path.display());
    let mut fastest = [f64::INFINITY; 3];
    let mut facts = None;
    for _ in 0..workload.setup_reps {
        let started = Instant::now();
        let trace = workload.generate(seed)?;
        let generate_s = started.elapsed().as_secs_f64();
        save_binary(&trace, trace_path).map_err(|e| at_path(&e))?;
        let total_s = started.elapsed().as_secs_f64();
        for (best, rep) in fastest
            .iter_mut()
            .zip([generate_s, total_s - generate_s, total_s])
        {
            *best = best.min(rep);
        }
        facts.get_or_insert_with(|| TraceFacts::of(&trace));
    }
    let [generate_s, encode_s, total_s] = fastest;
    Ok(SetUp {
        generate_s,
        encode_s,
        total_s,
        facts: facts.ok_or("a workload sets up at least once")?,
        file_bytes: std::fs::metadata(trace_path)
            .map_err(|e| at_path(&e))?
            .len(),
    })
}

/// What the window measured.
struct Windowed {
    samples: Samples,
    rounds: usize,
    seconds: f64,
    peak_rss_mib: f64,
}

/// The window: untraced passes of `drivers`, round-robin, every one
/// checked by the gate.
fn window(
    env: &PassEnv<'_>,
    gate: &mut Gate,
    drivers: &[Driver],
    length: Window,
) -> Result<Windowed, String> {
    let mut samples = Samples::default();
    let mut peak_rss_mib = 0.0;
    let mut rounds = 0;
    let started = Instant::now();
    let seconds = loop {
        for &driver in drivers {
            let pass = env.run(driver, false)?;
            gate.check(driver, &pass);
            samples.per_driver[driver as usize].push(pass.spans);
            // The high-water mark of set-up plus one pass through each
            // front door, all on one thread so far: it repeats within
            // 0.5 %. Read at exit it would also count what the allocator's
            // per-thread arenas happen to keep after threaded engine
            // passes, which is a race (cafe_large: 276 or 317 MiB) and
            // says nothing about the program.
            if rounds == 0 && driver == Driver::Engine {
                peak_rss_mib = machine::peak_rss_mib()?;
            }
        }
        rounds += 1;
        let elapsed = started.elapsed().as_secs_f64();
        let done = match length {
            Window::Rounds(n) => rounds >= n,
            // Stop at the round boundary nearest the target.
            Window::Seconds(s) => elapsed + 0.5 * elapsed / rounds as f64 >= s,
        };
        if done {
            break elapsed;
        }
    };
    Ok(Windowed {
        samples,
        rounds,
        seconds,
        peak_rss_mib,
    })
}

/// Runs one workload.
///
/// Returns `Err` when the run could not be carried out at all (an
/// unoptimised build of a full-size workload, I/O failure); a run that was
/// carried out but produced wrong output returns `Ok` with
/// `correct == false`.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let workload = &opts.workload;
    if cfg!(debug_assertions) && workload.is_full_size() {
        return Err("full-size workloads are measured in release builds only".into());
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;
    let file = |suffix: &str| opts.out_dir.join(format!("{}.{suffix}", workload.name));
    let (trace_path, bundle_path) = (file("vctb"), file("telemetry.jsonl"));
    let origin = Instant::now();

    let setup = set_up(workload, opts.seed, &trace_path)?;
    let env = PassEnv {
        workload,
        trace_path: &trace_path,
        bundle_path: &bundle_path,
        origin,
    };
    let mut gate = Gate::new(workload, opts.seed, setup.facts);
    let drivers: &[Driver] = if opts.traced {
        &Driver::ALL
    } else {
        &Driver::END_TO_END
    };
    let windowed = window(&env, &mut gate, drivers, opts.window)?;

    // One traced pass per driver that has one. An untraced run still owes
    // the gate its threaded-equals-inline check.
    let mut traced: Vec<(Driver, Pass)> = Vec::new();
    if opts.traced {
        for driver in Driver::TRACED {
            let pass = env.run(driver, true)?;
            gate.check(driver, &pass);
            let open = pass.spans.closure_pct();
            if open > LEDGER_TOLERANCE_PCT {
                gate.fail(format!(
                    "{}: the traced pass's steps leave {open:.2} % of its wall time unclaimed",
                    driver.name()
                ));
            }
            traced.push((driver, pass));
        }
    } else {
        gate.check(Driver::EngineW2, &env.run(Driver::EngineW2, false)?);
    }

    let mut m = Metrics::default();
    end_to_end_metrics(&mut m, &setup, &windowed, &gate)?;
    let mut per_layer = Vec::new();
    if opts.traced {
        layer_metrics(&mut m, &setup, &windowed, &gate, &traced)?;
        per_layer = m.take(&PER_LAYER)?;
    }
    let end_to_end = m.take(&END_TO_END)?;
    if let Some(stray) = m.0.keys().next() {
        return Err(format!("metric {stray} is measured but not listed"));
    }

    let result = RunResult {
        workload: *workload,
        seed: opts.seed,
        traced: opts.traced,
        correct: gate.correct(),
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.messages,
        end_to_end,
        per_layer,
        pass_wall_s: drivers
            .iter()
            .map(|&d| {
                let walls = windowed.samples.per_driver[d as usize]
                    .iter()
                    .map(PassSpans::wall_s);
                (d, walls.collect())
            })
            .collect(),
        traced_passes: traced.into_iter().map(|(d, p)| (d, p.spans)).collect(),
    };
    if opts.traced {
        let mut jsonl = String::new();
        for (pass_id, (driver, spans)) in result.traced_passes.iter().enumerate() {
            spans.to_jsonl(pass_id as u32 + 1, driver.name(), &mut jsonl);
        }
        write(&file("spans.jsonl"), &jsonl)?;
    }
    write(
        &file("result.json"),
        &format!("{}\n", result.to_json(Vec::new())),
    )?;
    Ok(result)
}

fn end_to_end_metrics(
    m: &mut Metrics,
    setup: &SetUp,
    windowed: &Windowed,
    gate: &Gate,
) -> Result<(), String> {
    let Some(Output::Replay(report)) = gate.last(Driver::Replay) else {
        return Err("the replay driver produced no report".into());
    };
    m.float("setup_s", setup.total_s);
    for driver in Driver::END_TO_END {
        let name = format!("{}_req_per_s", driver.name());
        if gate.driver_failed(driver) {
            m.0.insert(name, Json::Null);
        } else {
            let pass_s = windowed.samples.median(driver, ROOT);
            m.float(name, setup.facts.requests as f64 / pass_s);
        }
    }
    m.float("peak_rss_mib", windowed.peak_rss_mib);
    m.float("efficiency_steady", report.efficiency());
    Ok(())
}

fn layer_metrics(
    m: &mut Metrics,
    setup: &SetUp,
    windowed: &Windowed,
    gate: &Gate,
    traced: &[(Driver, Pass)],
) -> Result<(), String> {
    let (
        [(_, replay), (_, _), (_, _), (_, engine_w2)],
        Some(Output::Telemetry(_, bundle)),
        Some(Output::Engine(engine_report)),
    ) = (
        traced,
        gate.last(Driver::Telemetry),
        gate.last(Driver::Engine),
    )
    else {
        return Err("a traced run has four traced passes and a report per driver".into());
    };
    let requests = setup.facts.requests as f64;
    let samples = &windowed.samples;
    let per_req = |driver, step| samples.median(driver, step) * 1e9 / requests;

    m.float("trace.generate_s", setup.generate_s);
    m.float("trace.generate_req_per_s", requests / setup.generate_s);
    m.float("trace.encode_s", setup.encode_s);
    let decode_s = samples.median(Driver::Replay, "trace.decode");
    m.float("trace.decode_s", decode_s);
    m.float("trace.decode_req_per_s", requests / decode_s);
    m.count("trace.requests", setup.facts.requests);
    m.count("trace.file_bytes", setup.file_bytes);

    m.float("core.build_s", samples.median(Driver::Replay, "core.build"));
    decide_metrics(m, replay);

    m.float("sim.replay_s", samples.median(Driver::Replay, "sim.replay"));
    m.float("sim.report_s", samples.median(Driver::Replay, "sim.report"));
    m.float(
        "sim.null_replay_ns_per_req",
        per_req(Driver::Probes, "sim.null_replay"),
    );
    m.float(
        "sim.engine.run_s",
        samples.median(Driver::Engine, "sim.engine.run"),
    );
    m.float(
        "sim.engine.w2_run_s",
        samples.median(Driver::EngineW2, "sim.engine.run"),
    );
    m.float(
        "sim.engine.w2_req_per_s",
        requests / samples.median(Driver::EngineW2, ROOT),
    );
    for (name, step) in [
        ("sim.engine.null_w1_ns_per_req", "sim.engine.null_w1"),
        ("sim.engine.null_w2_ns_per_req", "sim.engine.null_w2"),
        ("sim.engine.route_ns_per_req", "sim.engine.route"),
    ] {
        m.float(name, per_req(Driver::Probes, step));
    }
    m.float(
        "sim.engine.partition_s",
        samples.median(Driver::Probes, "sim.engine.partition"),
    );
    threaded_engine_metrics(m, engine_w2, engine_report);

    let detached = per_req(Driver::Replay, "sim.replay");
    let full = per_req(Driver::Telemetry, "sim.replay");
    m.float("obs.level.detached_ns_per_req", detached);
    m.float(
        "obs.level.noop_ns_per_req",
        per_req(Driver::Noop, "sim.replay"),
    );
    m.float("obs.level.full_ns_per_req", full);
    m.float("obs.full_overhead_pct", (full / detached - 1.0) * 100.0);
    m.float(
        "obs.bundle_serialize_s",
        samples.median(Driver::Telemetry, "obs.bundle"),
    );
    bundle_metrics(m, bundle);

    m.count("bench.rounds", windowed.rounds as u64);
    m.float("bench.window_s", windowed.seconds);
    m.count("bench.cores", machine::online_cores() as u64);
    for (driver, pass) in traced {
        let name = driver.name();
        let p10 = samples.percentile(*driver, ROOT, P10);
        let p50 = samples.median(*driver, ROOT);
        m.float(
            format!("bench.spread_pct.{name}"),
            (p50 / p10 - 1.0) * 100.0,
        );
        m.float(
            format!("bench.ledger_closure_pct.{name}"),
            pass.spans.closure_pct(),
        );
        m.float(
            format!("bench.trace_overhead_pct.{name}"),
            (pass.spans.wall_s() / p50 - 1.0) * 100.0,
        );
    }
    m.count("bench.ops_attempted", gate.attempted);
    m.count("bench.ops_failed", gate.failed);
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `core.decide*` rows, from the traced `Replayer` pass.
fn decide_metrics(m: &mut Metrics, replay: &Pass) {
    let mut ns = replay.decide_latencies_ns.clone();
    ns.sort_unstable();
    let stats: &DecideStats = &replay.decide[0].stats;
    m.float("core.decide_busy_s", stats.busy_ns() as f64 / 1e9);
    m.count("core.decide_samples", ns.len() as u64);
    m.count("core.decide_ns_p50", nearest_rank(&ns, P50).into());
    m.count("core.decide_ns_p99", nearest_rank(&ns, P99).into());
    m.count("core.decide_ns_p999", nearest_rank(&ns, P999).into());
    // The highest percentile that still has ten samples beyond it; on a
    // trace too short for any, the median.
    let tail = tail_ppm(ns.len()).unwrap_or(P50);
    m.count("core.decide_ns_tail", nearest_rank(&ns, tail).into());
    m.float("core.decide_tail_pct", f64::from(tail) / 1e4);
    for outcome in Outcome::ALL {
        let (calls, ns) = (stats.calls[outcome as usize], stats.ns[outcome as usize]);
        m.count(format!("core.requests.{}", outcome.name()), calls);
        m.float(
            format!("core.decide_ns_mean.{}", outcome.name()),
            ns as f64 / calls.max(1) as f64,
        );
    }
    m.count("core.hit_chunks", stats.hit_chunks);
    m.count("core.fill_chunks", stats.fill_chunks);
    m.count("core.evicted_chunks", stats.evicted_chunks);
    let served = stats.hit_chunks + stats.fill_chunks;
    m.float(
        "core.chunk_hit_ratio",
        stats.hit_chunks as f64 / served.max(1) as f64,
    );
}

/// The rows only the traced threaded engine pass can give: who was busy
/// for how long, and how long the run waited on hand-off rather than on
/// decide.
fn threaded_engine_metrics(m: &mut Metrics, engine: &Pass, report: &EngineReport) {
    let run_s = engine.spans.busy_s("sim.engine.run");
    let busy_s = |ns: u64| ns as f64 / 1e9;
    let mut worker_ns = [0u64; WORKERS];
    for d in &engine.decide {
        // The engine's static ownership: shard s belongs to worker s mod W.
        worker_ns[d.shard % WORKERS] += d.stats.busy_ns();
    }
    let shard_ns = engine.decide.iter().map(|d| d.stats.busy_ns());
    let sum_s = busy_s(shard_ns.clone().sum());
    m.float("sim.engine.shard_busy_sum_s", sum_s);
    m.float(
        "sim.engine.shard_busy_max_s",
        busy_s(shard_ns.max().unwrap_or(0)),
    );
    m.float(
        "sim.engine.wait_s",
        run_s - busy_s(worker_ns.into_iter().max().unwrap_or(0)),
    );
    m.float(
        "sim.engine.parallel_efficiency",
        sum_s / (WORKERS as f64 * run_s),
    );
    // max ÷ mean × 1000 over per-shard requests, as the engine's own
    // `span.skew_requests_x1000` gauge computes it.
    let max = report.shards.iter().map(|s| s.requests).max().unwrap_or(0);
    let total = report.total_requests().max(1);
    m.count(
        "sim.engine.skew_requests_x1000",
        (u128::from(max) * 1000 * SHARDS as u128 / u128::from(total)) as u64,
    );
    m.float("sim.engine.efficiency_steady", report.efficiency());
}

fn bundle_metrics(m: &mut Metrics, bundle: &BundleFacts) {
    m.count("obs.bundle_bytes", bundle.bytes);
    m.count("obs.bundle_lines", bundle.lines);
    m.count("obs.events_dropped", bundle.events_dropped);
    m.count("obs.windows", bundle.windows);
    m.count("obs.windows_dropped", bundle.windows_dropped);
    m.count("obs.alerts", bundle.alerts);
}

fn metrics_json(metrics: &[Measured]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.def.name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), m.value.clone()),
                        ("unit".to_string(), Json::Str(m.def.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

impl RunResult {
    /// The line the benchmark contract asks for on standard output:
    /// `correct`, `attempted`, `failed`, and the end-to-end metrics of an
    /// untraced run or the per-layer metrics of a traced one.
    pub fn contract_line(&self) -> Json {
        let metrics = if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Int(self.attempted.into())),
            ("failed".to_string(), Json::Int(self.failed.into())),
            ("metrics".to_string(), metrics_json(metrics)),
        ])
    }

    /// The full result as one JSON object with a fixed field order — the
    /// line written to `<workload>.result.json` and appended to the
    /// trajectory. `recorded` is extra machine context
    /// ([`machine::recorded_context`]).
    pub fn to_json(&self, recorded: Vec<(String, Json)>) -> Json {
        let mut context = machine::context();
        context.extend(recorded);
        Json::Obj(vec![
            ("schema".to_string(), Json::Str(RESULT_SCHEMA.to_string())),
            (
                "workload".to_string(),
                Json::Str(self.workload.name.to_string()),
            ),
            ("scale".to_string(), Json::Float(self.workload.scale)),
            ("days".to_string(), Json::Int(self.workload.days.into())),
            ("seed".to_string(), Json::Int(self.seed.into())),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("correct".to_string(), Json::Bool(self.correct)),
            ("attempted".to_string(), Json::Int(self.attempted.into())),
            ("failed".to_string(), Json::Int(self.failed.into())),
            (
                "failures".to_string(),
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
            ("context".to_string(), Json::Obj(context)),
            ("end_to_end".to_string(), metrics_json(&self.end_to_end)),
            ("per_layer".to_string(), metrics_json(&self.per_layer)),
            (
                "pass_wall_s".to_string(),
                Json::Obj(
                    self.pass_wall_s
                        .iter()
                        .map(|(driver, walls)| {
                            let walls = walls.iter().map(|&w| Json::Float(w)).collect();
                            (driver.name().to_string(), Json::Arr(walls))
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Every metric by name with its unit, the traced passes' ledgers and
    /// any failures, for a human.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "workload {} (scale {}, {} days)  seed {}  cores {}  {}\n",
            self.workload.name,
            self.workload.scale,
            self.workload.days,
            self.seed,
            machine::online_cores(),
            if self.traced { "traced" } else { "untraced" },
        );
        for (title, metrics) in [
            ("end-to-end", &self.end_to_end),
            ("per-layer", &self.per_layer),
        ] {
            if metrics.is_empty() {
                continue;
            }
            let _ = writeln!(out, "\n{title}");
            for m in metrics {
                let value = match &m.value {
                    Json::Float(v) if v.abs() >= 1000.0 => format!("{v:.0}"),
                    Json::Float(v) => format!("{v:.6}"),
                    Json::Null => "no number: the driver failed the gate".to_string(),
                    other => other.to_string(),
                };
                let _ = writeln!(out, "  {:<40} {value} {}", m.def.name, m.def.unit);
            }
        }
        if !self.traced_passes.is_empty() {
            let _ = writeln!(
                out,
                "\nledger (one traced pass per driver; self = busy - children)"
            );
            for (driver, spans) in &self.traced_passes {
                let wall = spans.wall_s();
                for (depth, s) in spans.tree() {
                    let label = match s.shard {
                        Some(shard) => format!("{}[{shard}]", s.name),
                        None => s.name.to_string(),
                    };
                    let _ = writeln!(
                        out,
                        "  {:<10}{:indent$}{label:<width$} busy {:>10.6} s  self {:>10.6} s  {:>5.1} %",
                        driver.name(),
                        "",
                        s.busy_ns as f64 / 1e9,
                        spans.self_ns(s.id) as f64 / 1e9,
                        s.busy_ns as f64 / 1e9 / wall * 100.0,
                        indent = depth * 2,
                        width = 28 - depth * 2,
                    );
                }
            }
        }
        let _ = writeln!(
            out,
            "\nattempted {} requests, {} failed: {}",
            self.attempted,
            self.failed,
            if self.correct { "correct" } else { "INCORRECT" }
        );
        for failure in &self.failures {
            let _ = writeln!(out, "  FAILED {failure}");
        }
        out
    }
}
