//! The passes: each takes the VCTB file the set-up wrote and goes from
//! bytes to a rendered report through one of the program's front doors.
//!
//! The three end-to-end drivers are [`Driver::Replay`]
//! (`Replayer::replay`, detached), [`Driver::Telemetry`]
//! (`replay_with_telemetry`, bundle written out) and [`Driver::Engine`]
//! (`ShardedEngine`, 8 shards, inline on the calling thread). A traced run
//! adds three more to the round-robin so that they are measured by the
//! same estimator: [`Driver::EngineW2`] (the same engine on 2 workers —
//! per-layer only, because the sizing box's two vCPUs are at times served
//! by a single host CPU, which halves any threaded number for minutes),
//! [`Driver::Noop`] (the policy attached to a `NoopSink` — what "off"
//! costs) and [`Driver::Probes`] (the drive steps over a [`NullPolicy`],
//! the routing function and the partition, on one decoded trace).
//!
//! Every pass records its steps as spans; a *traced* pass also arms the
//! per-request shims and hangs `core.decide` aggregates under its drive
//! step. Tear-down (dropping trace and policy) is outside the pass.
//!
//! [`NullPolicy`]: crate::shims::NullPolicy

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use vcdn_core::{CacheConfig, CachePolicy};
use vcdn_obs::{MetricsSink, NoopSink, PolicyObs, TelemetryBundle};
use vcdn_sim::report::{bytes, eff, Table};
use vcdn_sim::{
    replay_with_telemetry, shard_of_video, shard_requests, EngineConfig, EngineReport,
    ReplayConfig, ReplayReport, Replayer, ShardedEngine, TelemetryConfig,
};
use vcdn_trace::{load_binary, Trace};
use vcdn_types::Request;

use crate::shims::{DecideSpan, DecideTimer, NullPolicy, SpanCollector, SpanPolicy};
use crate::spans::PassSpans;
use crate::workload::{
    build_policy, costs, Plain, PolicyKind, Shim, Workload, CHUNK, SHARDS, WORKERS,
};

/// A way of driving the trace through the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `Replayer::replay`, no observer.
    Replay,
    /// `replay_with_telemetry`, bundle serialised and written.
    Telemetry,
    /// `ShardedEngine::run`, inline on one worker.
    Engine,
    /// `ShardedEngine::run` on [`WORKERS`] worker threads.
    EngineW2,
    /// `Replayer::replay` with the policy attached to a `NoopSink`.
    Noop,
    /// Null-policy drive steps, routing and partition.
    Probes,
}

impl Driver {
    /// The drivers behind the end-to-end metrics, in round order.
    pub const END_TO_END: [Driver; 3] = [Driver::Replay, Driver::Telemetry, Driver::Engine];
    /// The drivers that get a traced pass: the end-to-end three and the
    /// threaded engine.
    pub const TRACED: [Driver; 4] = [
        Driver::Replay,
        Driver::Telemetry,
        Driver::Engine,
        Driver::EngineW2,
    ];
    /// The round of a traced run. The threaded pass comes late and the
    /// cheap probes after it, so that whatever two busy vCPUs do to the
    /// host lands on nothing that is compared with an end-to-end pass.
    pub const ALL: [Driver; 6] = [
        Driver::Replay,
        Driver::Telemetry,
        Driver::Engine,
        Driver::Noop,
        Driver::EngineW2,
        Driver::Probes,
    ];

    /// Lower-case name, as used in metric names and `spans.jsonl`.
    pub fn name(self) -> &'static str {
        match self {
            Driver::Replay => "replay",
            Driver::Telemetry => "telemetry",
            Driver::Engine => "engine",
            Driver::EngineW2 => "engine_w2",
            Driver::Noop => "noop",
            Driver::Probes => "probes",
        }
    }
}

/// What every pass of a run shares.
#[derive(Debug, Clone, Copy)]
pub struct PassEnv<'a> {
    /// The workload being run.
    pub workload: &'a Workload,
    /// The VCTB file set-up wrote — the program's only input.
    pub trace_path: &'a Path,
    /// Where the telemetry bundle goes.
    pub bundle_path: &'a Path,
    /// The run-wide clock spans are taken against.
    pub origin: Instant,
}

/// Exact, simulated facts about a telemetry bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BundleFacts {
    /// Serialised size.
    pub bytes: u64,
    /// JSONL lines.
    pub lines: u64,
    /// Decision events the ring displaced.
    pub events_dropped: u64,
    /// Health windows exported.
    pub windows: u64,
    /// Health windows the ring displaced.
    pub windows_dropped: u64,
    /// Watchdog alerts.
    pub alerts: u64,
}

/// What a pass produced, for the correctness gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// A `Replayer` report ([`Driver::Replay`], [`Driver::Noop`]).
    Replay(ReplayReport),
    /// A `Replayer` report plus its bundle's facts.
    Telemetry(ReplayReport, BundleFacts),
    /// An engine report.
    Engine(EngineReport),
    /// Nothing to verify.
    Probes,
}

/// One completed pass.
#[derive(Debug)]
pub struct Pass {
    /// Requests the pass drove.
    pub requests: u64,
    /// Step spans (plus decide aggregates when traced).
    pub spans: PassSpans,
    /// The produced reports.
    pub output: Output,
    /// Per-request decide latencies (traced [`Driver::Replay`] only).
    pub decide_latencies_ns: Vec<u32>,
    /// Per-shard decide totals (traced passes only).
    pub decide: Vec<DecideSpan>,
}

/// The [`Shim`] of traced telemetry and engine passes.
struct Timed {
    origin: Instant,
    collector: SpanCollector,
}

impl Shim for Timed {
    fn wrap<P: CachePolicy + 'static>(&self, shard: usize, policy: P) -> Box<dyn CachePolicy> {
        Box::new(SpanPolicy::new(
            policy,
            shard,
            self.origin,
            Arc::clone(&self.collector),
        ))
    }
}

impl PassEnv<'_> {
    /// Runs one pass of `driver`; `traced` arms the per-request shims.
    pub fn run(&self, driver: Driver, traced: bool) -> Result<Pass, String> {
        match driver {
            Driver::Replay => self.replay(false, traced),
            Driver::Noop => self.replay(true, false),
            Driver::Telemetry => self.telemetry(traced),
            Driver::Engine => self.engine(1, traced),
            Driver::EngineW2 => self.engine(WORKERS, traced),
            Driver::Probes => self.probes(),
        }
    }

    fn replayer(&self) -> Replayer {
        Replayer::new(ReplayConfig::bench(CHUNK, costs()))
    }

    fn cache(&self) -> CacheConfig {
        CacheConfig::new(self.workload.disk_chunks(), CHUNK, costs())
    }

    fn engine_config(&self) -> Result<EngineConfig, String> {
        EngineConfig::bench(SHARDS, self.workload.disk_chunks(), CHUNK, costs())
            .map_err(|e| e.to_string())
    }

    fn decode(&self, spans: &mut PassSpans) -> Result<Trace, String> {
        let step = spans.begin("trace.decode");
        let trace = load_binary(self.trace_path)
            .map_err(|e| format!("{}: {e}", self.trace_path.display()))?;
        spans.end(step);
        Ok(trace)
    }

    fn replay(&self, noop_sink: bool, traced: bool) -> Result<Pass, String> {
        let mut spans = PassSpans::start(self.origin);
        let trace = self.decode(&mut spans)?;

        let step = spans.begin("core.build");
        let mut policy = build_policy(
            self.workload.policy,
            self.cache(),
            &trace.requests,
            0,
            &Plain,
        );
        if noop_sink {
            let sink: Arc<dyn MetricsSink> = NoopSink::shared();
            policy.attach_obs(PolicyObs::attach(sink, policy.name()));
        }
        spans.end(step);

        let drive = spans.begin("sim.replay");
        let mut timer = DecideTimer::with_capacity(if traced { trace.len() } else { 0 });
        let report = if traced {
            self.replayer()
                .replay_observed(&trace, policy.as_mut(), &mut timer)
        } else {
            self.replayer().replay(&trace, policy.as_mut())
        };
        spans.end(drive);

        let step = spans.begin("sim.report");
        black_box(render_replay(&report));
        spans.end(step);
        spans.finish();

        let mut decide = Vec::new();
        if traced {
            // The observer learns durations, not start times: the
            // aggregate spans its drive step.
            let within = spans.span(drive);
            decide.push(DecideSpan {
                shard: 0,
                start_ns: within.start_ns,
                end_ns: within.end_ns,
                stats: timer.stats,
            });
            hang_decide(&mut spans, drive, &decide);
        }
        Ok(Pass {
            requests: trace.len() as u64,
            spans,
            output: Output::Replay(report),
            decide_latencies_ns: timer.latencies_ns,
            decide,
        })
    }

    fn telemetry(&self, traced: bool) -> Result<Pass, String> {
        let collector = SpanCollector::default();
        let mut spans = PassSpans::start(self.origin);
        let trace = self.decode(&mut spans)?;

        let step = spans.begin("core.build");
        let mut policy = self.build(self.cache(), traced, &collector, &trace.requests, 0);
        spans.end(step);

        let drive = spans.begin("sim.replay");
        let (report, bundle) = replay_with_telemetry(
            &self.replayer(),
            &trace,
            policy.as_mut(),
            &TelemetryConfig::new(),
        );
        spans.end(drive);

        let step = spans.begin("sim.report");
        black_box(render_replay(&report));
        spans.end(step);

        let step = spans.begin("obs.bundle");
        let jsonl = bundle.to_jsonl();
        std::fs::write(self.bundle_path, &jsonl)
            .map_err(|e| format!("{}: {e}", self.bundle_path.display()))?;
        spans.end(step);
        spans.finish();

        drop(policy);
        let decide = take_spans(&collector);
        hang_decide(&mut spans, drive, &decide);
        Ok(Pass {
            requests: trace.len() as u64,
            spans,
            output: Output::Telemetry(report, bundle_facts(&bundle, &jsonl)),
            decide_latencies_ns: Vec::new(),
            decide,
        })
    }

    fn engine(&self, workers: usize, traced: bool) -> Result<Pass, String> {
        let collector = SpanCollector::default();
        let mut spans = PassSpans::start(self.origin);
        let trace = self.decode(&mut spans)?;

        let step = spans.begin("core.build");
        // Only Psychic needs to know which requests each shard will see.
        let per_shard = (self.workload.policy == PolicyKind::Psychic).then(|| {
            let step = spans.begin("sim.engine.partition");
            let per_shard = shard_requests(&trace, SHARDS);
            spans.end(step);
            per_shard
        });
        let mut engine = ShardedEngine::try_new(self.engine_config()?, |shard, cache| {
            let future = per_shard.as_ref().map_or(&[][..], |p| &p[shard]);
            self.build(cache, traced, &collector, future, shard)
        })
        .map_err(|e| e.to_string())?;
        spans.end(step);

        let drive = spans.begin("sim.engine.run");
        let report = engine.run(&trace, workers);
        spans.end(drive);

        let step = spans.begin("sim.report");
        black_box(render_engine(&report));
        spans.end(step);
        spans.finish();

        drop(engine);
        let decide = take_spans(&collector);
        hang_decide(&mut spans, drive, &decide);
        Ok(Pass {
            requests: trace.len() as u64,
            spans,
            output: Output::Engine(report),
            decide_latencies_ns: Vec::new(),
            decide,
        })
    }

    fn probes(&self) -> Result<Pass, String> {
        let mut spans = PassSpans::start(self.origin);
        let trace = self.decode(&mut spans)?;
        let null = |_shard: usize, cache: CacheConfig| -> Box<dyn CachePolicy> {
            Box::new(NullPolicy::new(cache))
        };

        let step = spans.begin("sim.null_replay");
        black_box(
            self.replayer()
                .replay(&trace, &mut NullPolicy::new(self.cache())),
        );
        spans.end(step);

        for (name, workers) in [("sim.engine.null_w1", 1), ("sim.engine.null_w2", WORKERS)] {
            let mut engine =
                ShardedEngine::try_new(self.engine_config()?, null).map_err(|e| e.to_string())?;
            let step = spans.begin(name);
            black_box(engine.run(&trace, workers));
            spans.end(step);
        }

        let step = spans.begin("sim.engine.route");
        let mut sum = 0usize;
        for request in &trace.requests {
            sum = sum.wrapping_add(shard_of_video(black_box(request.video), SHARDS));
        }
        black_box(sum);
        spans.end(step);

        let step = spans.begin("sim.engine.partition");
        black_box(shard_requests(&trace, SHARDS));
        spans.end(step);
        spans.finish();
        Ok(Pass {
            requests: trace.len() as u64,
            spans,
            output: Output::Probes,
            decide_latencies_ns: Vec::new(),
            decide: Vec::new(),
        })
    }

    /// The workload's policy, behind a [`SpanPolicy`] when `traced`.
    fn build(
        &self,
        cache: CacheConfig,
        traced: bool,
        collector: &SpanCollector,
        future: &[Request],
        shard: usize,
    ) -> Box<dyn CachePolicy> {
        let kind = self.workload.policy;
        if traced {
            let shim = Timed {
                origin: self.origin,
                collector: Arc::clone(collector),
            };
            build_policy(kind, cache, future, shard, &shim)
        } else {
            build_policy(kind, cache, future, shard, &Plain)
        }
    }
}

/// The spans dropped [`SpanPolicy`]s left behind, in shard order.
fn take_spans(collector: &SpanCollector) -> Vec<DecideSpan> {
    let mut spans = std::mem::take(
        &mut *collector
            .lock()
            .expect("no policy panicked while the pass ran"),
    );
    spans.sort_by_key(|s| s.shard);
    spans
}

fn hang_decide(spans: &mut PassSpans, drive: u32, decide: &[DecideSpan]) {
    for d in decide {
        spans.aggregate(
            drive,
            "core.decide",
            d.shard as u32,
            (d.start_ns, d.end_ns),
            d.stats.total_calls(),
            d.stats.busy_ns(),
        );
    }
}

fn bundle_facts(bundle: &TelemetryBundle, jsonl: &str) -> BundleFacts {
    BundleFacts {
        bytes: jsonl.len() as u64,
        lines: jsonl.lines().count() as u64,
        events_dropped: bundle.events_dropped,
        windows: bundle.windows.len() as u64,
        windows_dropped: bundle.windows_dropped,
        alerts: bundle.alerts.len() as u64,
    }
}

/// The report a user of the `Replayer` reads: the hourly series behind
/// Figure 3 and the steady-state summary line.
fn render_replay(report: &ReplayReport) -> String {
    let mut table = Table::new(vec![
        "hour",
        "requests",
        "requested",
        "efficiency",
        "ingress%",
        "redirect%",
    ]);
    for (hour, w) in report.windows.iter().enumerate() {
        let t = &w.traffic;
        table.row(vec![
            hour.to_string(),
            t.total_requests().to_string(),
            bytes(t.requested_bytes()),
            eff(t.efficiency(report.costs)),
            format!("{:.1}", t.ingress_pct()),
            format!("{:.1}", t.redirect_pct()),
        ]);
    }
    format!(
        "{}{}: steady efficiency {} ingress {:.1}% redirect {:.1}%\n",
        table.render(),
        report.policy,
        eff(report.efficiency()),
        report.ingress_pct(),
        report.redirect_pct(),
    )
}

/// The report a user of the engine reads: one row per shard and the
/// aggregate line.
fn render_engine(report: &EngineReport) -> String {
    let mut table = Table::new(vec![
        "shard",
        "policy",
        "requests",
        "used/capacity",
        "requested",
        "efficiency",
    ]);
    for s in &report.shards {
        table.row(vec![
            s.shard.to_string(),
            s.policy.to_string(),
            s.requests.to_string(),
            format!("{}/{}", s.used_chunks, s.capacity_chunks),
            bytes(s.overall.requested_bytes()),
            eff(s.steady.efficiency(report.costs)),
        ]);
    }
    format!(
        "{}{} requests on {} workers: steady efficiency {}\n",
        table.render(),
        report.total_requests(),
        report.workers,
        eff(report.efficiency()),
    )
}
