//! What telemetry costs per request, recorder by recorder. One xLRU replay
//! of the paper point records its decisions; each `vcdn-obs` recorder is
//! then driven over them alone, best of N, and the whole
//! `TelemetryObserver` and its `to_jsonl` last. No policy in the loop is
//! what makes the rows readable on a box whose clock speed wanders.
//! `cargo run --release -p vcdn-sim --example observer_ledger -- 0.0625 15`
use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vcdn_core::{CacheConfig, XlruCache};
use vcdn_obs::topk::SpaceSaving;
use vcdn_obs::window::{WindowFold, WindowInput, WindowRing};
use vcdn_obs::{default_rules, DecisionDetail, DecisionEvent, EventRing, MetricsRegistry};
use vcdn_obs::{PolicyObs, ReplaySampler, Verdict, Watchdog};
use vcdn_sim::observe::{TelemetryConfig, TelemetryObserver};
use vcdn_sim::{DecisionCtx, ReplayConfig, ReplayObserver, Replayer};
use vcdn_trace::{ServerProfile, TraceGenerator};
use vcdn_types::{ChunkId, ChunkSize, CostModel, Decision, DurationMs};

/// The by-value half of a [`DecisionCtx`]; the request comes from the trace.
struct Recorded {
    decision: Decision,
    detail: DecisionDetail,
    chunks: u64,
    first_chunk: u32,
    occupancy: u64,
}

struct Recorder(Vec<Recorded>);

impl ReplayObserver for Recorder {
    fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
        self.0.push(Recorded {
            decision: ctx.decision.clone(),
            detail: ctx.detail,
            chunks: ctx.chunks,
            first_chunk: ctx.first_chunk,
            occupancy: ctx.occupancy_chunks,
        });
    }
}

/// One timed pass of `drive` over freshly built `state`.
fn timed<S>(mut state: S, drive: impl FnOnce(&mut S)) -> Duration {
    #[expect(clippy::disallowed_methods, reason = "the ledger's stopwatch")]
    let start = Instant::now();
    drive(&mut state);
    let spent = start.elapsed();
    black_box(state);
    spent
}

fn main() {
    let arg = |i| std::env::args().nth(i).and_then(|a| a.parse::<f64>().ok());
    let (scale, reps) = (
        arg(1).unwrap_or(1.0 / 16.0),
        arg(2).unwrap_or(15.0) as usize,
    );
    let (k, costs) = (
        ChunkSize::DEFAULT,
        CostModel::from_alpha(2.0).expect("alpha 2"),
    );
    let disk = ((((1u64 << 40) as f64 * scale) / k.bytes() as f64).round() as u64).max(1);
    let trace = TraceGenerator::new(ServerProfile::europe().scaled(scale), 20140413)
        .generate(DurationMs::from_days(30));
    let replayer = Replayer::new(ReplayConfig::bench(k, costs));
    let mut recorder = Recorder(Vec::with_capacity(trace.len()));
    let mut xlru = XlruCache::new(CacheConfig::new(disk, k, costs));
    replayer.replay_observed(&trace, &mut xlru, &mut recorder);
    let steps: Vec<_> = trace.requests.iter().zip(&recorder.0).collect();

    let n = steps.len() as f64;
    let best = |pass: &mut dyn FnMut() -> Duration| (0..reps.max(1)).map(|_| pass()).min();
    let row = |name: &str, pass: &mut dyn FnMut() -> Duration| {
        let ns = best(pass).expect("reps >= 1").as_secs_f64() * 1e9 / n;
        println!("{name:<22}{ns:>7.1} ns/request");
    };
    let input = |r: &vcdn_types::Request, d: &Recorded| {
        WindowInput::from_decision(r.t.as_millis(), &d.decision, d.chunks, k.bytes(), None)
    };
    let cfg = TelemetryConfig::new();
    let (hour, retain) = (cfg.window.as_millis(), cfg.window_retain);
    let registry = || Arc::new(MetricsRegistry::new());

    row("WindowInput (shared)", &mut || {
        timed((), |_| {
            for (r, d) in &steps {
                black_box(input(r, d));
            }
        })
    });
    row("Tally (PolicyObs)", &mut || {
        timed(PolicyObs::attach(registry(), "xlru"), |obs| {
            (steps.iter()).for_each(|(_, d)| obs.record_decision(&d.decision, d.occupancy))
        })
    });
    row("SpaceSaving (k = 8)", &mut || {
        timed(SpaceSaving::new(cfg.topk_k), |sketch| {
            (steps.iter()).for_each(|(r, _)| sketch.record(ChunkId::new(r.video, 0).packed()))
        })
    });
    row("EventRing", &mut || {
        timed(EventRing::new(cfg.event_capacity), |ring| {
            for (seq, (r, d)) in steps.iter().enumerate() {
                let verdict = match &d.decision {
                    Decision::Serve(o) => Verdict::Serve {
                        hit_chunks: o.hit_chunks,
                        filled_chunks: o.filled_chunks,
                    },
                    Decision::Redirect => Verdict::Redirect,
                };
                let (chunks, evicted) = (d.chunks as u32, input(r, d).evicted_chunks);
                ring.push(DecisionEvent::from_decision(
                    seq as u64,
                    r,
                    d.first_chunk,
                    chunks,
                    "xlru",
                    verdict,
                    d.detail,
                    evicted,
                ));
            }
        })
    });
    // The observer's one ring at its default (hourly samples, hourly
    // health windows): each closed window folded into a health window the
    // watchdog judges and the last `retain` keep, and into a sample.
    row("1 ring+watchdog+series", &mut || {
        let state = (
            WindowRing::new(hour, 1),
            (WindowFold::new(1), Watchdog::new(default_rules(), costs, 1)),
            VecDeque::new(),
            ReplaySampler::new(hour, hour, costs),
        );
        timed(state, |(ring, (fold, watchdog), kept, sampler)| {
            for (r, d) in &steps {
                ring.record(&input(r, d), &mut |w| {
                    if let Some(wide) = fold.push(w) {
                        watchdog.on_window(&wide);
                        kept.push_back(wide);
                        if kept.len() > retain {
                            kept.pop_front();
                        }
                    }
                    sampler.on_window(w);
                });
                sampler.stamp(d.occupancy, disk, d.detail.cache_age_ms);
            }
        })
    });

    let mut bundle = None;
    row("TelemetryObserver, all", &mut || {
        let mut observer = TelemetryObserver::new(registry(), "xlru", &replayer, &cfg);
        let spent = timed((), |_| {
            for (seq, (request, d)) in steps.iter().enumerate() {
                observer.on_decision(&DecisionCtx {
                    seq: seq as u64,
                    request,
                    chunks: d.chunks,
                    first_chunk: d.first_chunk,
                    decision: &d.decision,
                    detail: d.detail,
                    policy: "xlru",
                    occupancy_chunks: d.occupancy,
                    capacity_chunks: disk,
                    latency_ns: None,
                });
            }
        });
        bundle = Some(observer.finish());
        spent
    });
    let bundle = bundle.expect("reps >= 1");
    let mut jsonl = String::new();
    let export = best(&mut || timed((), |_| jsonl = bundle.to_jsonl())).expect("reps >= 1");
    let (ms, lines, bytes) = (
        export.as_secs_f64() * 1e3,
        jsonl.lines().count(),
        jsonl.len(),
    );
    println!("to_jsonl              {ms:>7.2} ms ({lines} lines, {bytes} bytes)");
    println!("{n} requests, best of {reps}");
}
