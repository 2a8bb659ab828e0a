//! The correctness gate: every pass's output is checked, outside the
//! timer, before its time may count.
//!
//! Checks, per pass:
//!
//! * hit + fill + redirect bytes equal the bytes the *trace* requests
//!   (summed from the generated trace, independently of any replay), and
//!   served + redirected requests equal the trace's request count;
//! * the output equals the previous round's output of the same driver;
//! * a `Replayer` report from the telemetry or no-op-sink driver equals
//!   the detached driver's (observing must not change the outcome);
//! * the 2-worker engine report equals the inline 1-worker one, shard by
//!   shard;
//! * at the default seed, the `*_paper` workloads reproduce the byte
//!   counters pinned in `goldens/paper_point.json` bit for bit.
//!
//! A pass that fails any check counts all of its requests as failed
//! operations.

use vcdn_sim::ReplayReport;
use vcdn_trace::Trace;
use vcdn_types::json::{self, Json};
use vcdn_types::TrafficCounter;

use crate::drivers::{Driver, Output, Pass};
use crate::workload::{Workload, CHUNK, DEFAULT_SEED};

/// The pinned paper-point counters (copied from `BENCH_PR7.json`).
const GOLDENS: &str = include_str!("../goldens/paper_point.json");

/// Failure messages kept for the report; later ones are only counted.
const MAX_MESSAGES: usize = 16;

/// What the trace itself says was requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFacts {
    /// Requests in the trace.
    pub requests: u64,
    /// Chunk-granular requested bytes (`Σ chunks × K`).
    pub requested_bytes: u64,
}

impl TraceFacts {
    /// Reads the facts off a generated trace.
    pub fn of(trace: &Trace) -> TraceFacts {
        TraceFacts {
            requests: trace.len() as u64,
            requested_bytes: trace
                .requests
                .iter()
                .map(|r| r.chunk_len(CHUNK) * CHUNK.bytes())
                .sum(),
        }
    }
}

/// Pinned counters of one `*_paper` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Golden {
    efficiency_steady: f64,
    steady: [u64; 3],
    overall: [u64; 3],
}

fn golden_for(workload: &str) -> Option<Golden> {
    let doc = json::parse(GOLDENS).expect("goldens/paper_point.json is valid JSON");
    let row = doc.get("workloads")?.get(workload)?;
    let int = |key: &str| match row.get(key) {
        Some(Json::Int(v)) => *v as u64,
        other => panic!("golden {workload}.{key}: expected an integer, found {other:?}"),
    };
    let bytes = |scope: &str| {
        ["hit", "fill", "redirect"].map(|bucket| int(&format!("{scope}_{bucket}_bytes")))
    };
    let Some(Json::Float(efficiency_steady)) = row.get("efficiency_steady") else {
        panic!("golden {workload}.efficiency_steady: expected a float");
    };
    Some(Golden {
        efficiency_steady: *efficiency_steady,
        steady: bytes("steady"),
        overall: bytes("overall"),
    })
}

fn buckets(t: &TrafficCounter) -> [u64; 3] {
    [t.hit_bytes, t.fill_bytes, t.redirect_bytes]
}

/// Accumulates attempted and failed operations over a run.
#[derive(Debug)]
pub struct Gate {
    facts: TraceFacts,
    golden: Option<Golden>,
    last: [Option<Output>; Driver::ALL.len()],
    /// Requests driven through checked passes.
    pub attempted: u64,
    /// Requests of passes that failed a check.
    pub failed: u64,
    /// Checks that failed, over all passes.
    pub failed_checks: u64,
    /// The first [`MAX_MESSAGES`] failure messages.
    pub messages: Vec<String>,
    failed_drivers: [bool; Driver::ALL.len()],
}

impl Gate {
    /// A gate for `workload` replaying the trace described by `facts`.
    /// The goldens apply only to the full-size workload at the default
    /// seed.
    pub fn new(workload: &Workload, seed: u64, facts: TraceFacts) -> Gate {
        Gate {
            facts,
            golden: (workload.is_full_size() && seed == DEFAULT_SEED)
                .then(|| golden_for(workload.name))
                .flatten(),
            last: Default::default(),
            attempted: 0,
            failed: 0,
            failed_checks: 0,
            messages: Vec::new(),
            failed_drivers: [false; Driver::ALL.len()],
        }
    }

    /// Whether every check so far passed.
    pub fn correct(&self) -> bool {
        self.failed_checks == 0
    }

    /// The output of `driver`'s latest checked pass.
    pub fn last(&self, driver: Driver) -> Option<&Output> {
        self.last[driver as usize].as_ref()
    }

    /// Whether any pass of `driver` failed a check.
    pub fn driver_failed(&self, driver: Driver) -> bool {
        self.failed_drivers[driver as usize]
    }

    /// Records a failure of the harness's own bookkeeping (no operations
    /// are charged, but the run is no longer correct).
    pub fn fail(&mut self, message: String) {
        self.failed_checks += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    /// Checks one pass of `driver`.
    pub fn check(&mut self, driver: Driver, pass: &Pass) {
        let mut problems = Vec::new();
        match &pass.output {
            Output::Probes => return,
            Output::Replay(report) | Output::Telemetry(report, _) => {
                self.check_traffic(&report.overall, &mut problems);
                self.check_golden(report, &mut problems);
                if driver != Driver::Replay {
                    if let Some(Output::Replay(detached)) = &self.last[Driver::Replay as usize] {
                        if detached != report {
                            problems.push("report differs from the detached replay's".into());
                        }
                    }
                }
            }
            Output::Engine(report) => {
                self.check_traffic(&report.aggregate_overall(), &mut problems);
                if report.dispatched != self.facts.requests {
                    problems.push(format!(
                        "dispatched {} of {} requests",
                        report.dispatched, self.facts.requests
                    ));
                }
                if driver != Driver::Engine {
                    if let Some(Output::Engine(inline)) = &self.last[Driver::Engine as usize] {
                        for (a, b) in report.shards.iter().zip(&inline.shards) {
                            if a != b {
                                problems.push(format!(
                                    "shard {}: the {}-worker report differs from the inline one",
                                    a.shard, report.workers
                                ));
                            }
                        }
                    }
                }
            }
        }
        let slot = &mut self.last[driver as usize];
        if slot.as_ref().is_some_and(|prev| prev != &pass.output) {
            problems.push("output differs from the previous round's".into());
        }
        *slot = Some(pass.output.clone());
        self.settle(driver, pass, problems);
    }

    fn check_traffic(&self, overall: &TrafficCounter, problems: &mut Vec<String>) {
        if overall.requested_bytes() != self.facts.requested_bytes {
            problems.push(format!(
                "hit + fill + redirect = {} bytes, the trace requests {}",
                overall.requested_bytes(),
                self.facts.requested_bytes
            ));
        }
        if overall.total_requests() != self.facts.requests {
            problems.push(format!(
                "served + redirected = {} requests, the trace holds {}",
                overall.total_requests(),
                self.facts.requests
            ));
        }
    }

    fn check_golden(&self, report: &ReplayReport, problems: &mut Vec<String>) {
        let Some(golden) = &self.golden else {
            return;
        };
        let got = Golden {
            efficiency_steady: report.efficiency(),
            steady: buckets(&report.steady),
            overall: buckets(&report.overall),
        };
        if got.efficiency_steady.to_bits() != golden.efficiency_steady.to_bits()
            || got.steady != golden.steady
            || got.overall != golden.overall
        {
            problems.push(format!(
                "paper-point counters moved: got {got:?}, pinned {golden:?}"
            ));
        }
    }

    fn settle(&mut self, driver: Driver, pass: &Pass, problems: Vec<String>) {
        self.attempted += pass.requests;
        if problems.is_empty() {
            return;
        }
        self.failed += pass.requests;
        self.failed_drivers[driver as usize] = true;
        for problem in problems {
            self.fail(format!("{}: {problem}", driver.name()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_parse_and_carry_the_pinned_efficiencies() {
        let cafe = golden_for("cafe_paper").unwrap();
        assert_eq!(cafe.efficiency_steady, 0.7324497627615406);
        assert_eq!(cafe.steady[0], 776_053_194_752);
        let psychic = golden_for("psychic_paper").unwrap();
        assert_eq!(psychic.efficiency_steady, 0.7997144412748901);
        assert_eq!(psychic.overall[2], 398_687_469_568);
        assert!(golden_for("xlru_large").is_none());
    }

    #[test]
    fn goldens_apply_only_to_the_full_workload_at_the_default_seed() {
        let facts = TraceFacts {
            requests: 1,
            requested_bytes: 1,
        };
        let paper = Workload::by_name("cafe_paper").unwrap();
        assert!(Gate::new(&paper, DEFAULT_SEED, facts).golden.is_some());
        assert!(Gate::new(&paper, DEFAULT_SEED + 1, facts).golden.is_none());
        assert!(Gate::new(&paper.quick(), DEFAULT_SEED, facts)
            .golden
            .is_none());
    }
}
