//! The policy metric family's recording handle.
//!
//! A [`PolicyObs`] is the [`Tally`] registered for one policy's decisions
//! plus the [`MetricId`]s of its metrics in it, so recording never touches
//! the registry: a decision is a handful of relaxed loads and stores into
//! cells only this handle writes — no `dyn` call, no lock-prefixed
//! instruction. The registry reads the cells when it is snapshotted.
//!
//! Its owner is whoever drives the policy, never the policy itself: the
//! replay's telemetry observer and each engine shard's observer hold one
//! and record every decision (and the occupancy after it) that the request
//! kernel hands them. A sink that records nothing yields the no-op handle,
//! which owns no cells; recording first checks for them.
//!
//! Metric names are scoped by an attach-time prefix (e.g. `xlru.` or
//! `s03.cafe.`), which is how several policies — or several shard
//! servers running the same policy — share one registry without
//! colliding.

use std::sync::Arc;

use vcdn_types::Decision;

use crate::registry::{MetricId, MetricKind, MetricsSink, Tally};

/// Every policy's metric family, in registration (export) order.
const METRICS: [(&str, MetricKind); 8] = [
    ("serve_requests_total", MetricKind::Counter),
    ("redirect_requests_total", MetricKind::Counter),
    ("hit_chunks_total", MetricKind::Counter),
    ("fill_chunks_total", MetricKind::Counter),
    ("evicted_chunks_total", MetricKind::Counter),
    ("fill_chunks_per_request", MetricKind::Histogram),
    ("eviction_batch_chunks", MetricKind::Histogram),
    ("occupancy_chunks", MetricKind::Gauge),
];

/// A policy's tally plus where each of its metrics lives in it. The
/// handle is the metrics' one writer, and it is not `Clone`.
#[derive(Debug, Default)]
pub struct PolicyObs {
    attached: Option<([MetricId; 8], Tally)>,
}

impl PolicyObs {
    /// A detached handle: no cells, nothing recorded.
    pub fn noop() -> PolicyObs {
        PolicyObs { attached: None }
    }

    /// Attaches to `sink`, registering the policy metric set under
    /// `scope` (names come out as `{scope}.serve_requests_total` etc.) —
    /// or returns the detached handle if the sink records nothing.
    /// Registration is the only non-hot-path work; keep the handle and
    /// reuse it for the whole replay.
    ///
    /// # Panics
    ///
    /// As [`MetricsSink::register`]: if `{scope}.occupancy_chunks` already
    /// has a live writer in `sink` — one policy per scope at a time.
    pub fn attach(sink: Arc<dyn MetricsSink>, scope: &str) -> PolicyObs {
        if !sink.enabled() {
            return PolicyObs::noop();
        }
        let tally =
            sink.register(&METRICS.map(|(metric, kind)| (format!("{scope}.{metric}"), kind)));
        PolicyObs {
            attached: Some((tally.ids(), tally)),
        }
    }

    /// Whether recording does anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.attached.is_some()
    }

    /// Records a full decision outcome — verdict counters, hit/fill
    /// chunks, the eviction batch if any — plus the resulting disk
    /// occupancy. One call per observed request.
    #[inline]
    pub fn record_decision(&self, decision: &Decision, occupancy_chunks: u64) {
        if let Some((ids, tally)) = &self.attached {
            record(ids, tally, decision, occupancy_chunks);
        }
    }
}

/// The attached half of [`PolicyObs::record_decision`], kept out of line:
/// the observers that call it inline the attached check and pay one call
/// for the tally, the unit the observer ledger's "Tally (PolicyObs)" row
/// times.
#[inline(never)]
fn record(ids: &[MetricId; 8], t: &Tally, decision: &Decision, occupancy_chunks: u64) {
    let [serve, redirect, hit, fill, evicted, per_request, batch, occupancy] = *ids;
    match decision {
        Decision::Serve(o) => {
            t.add(serve, 1);
            t.add(hit, o.hit_chunks);
            t.add(fill, o.filled_chunks);
            t.observe(per_request, o.filled_chunks);
            if !o.evicted.is_empty() {
                let chunks = o.evicted.len() as u64;
                t.add(evicted, chunks);
                t.observe(batch, chunks);
            }
        }
        Decision::Redirect => t.add(redirect, 1),
    }
    t.set(occupancy, occupancy_chunks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use vcdn_types::{ChunkId, ServeOutcome, VideoId};

    fn serve(hit_chunks: u64, filled_chunks: u64, evicted: usize) -> Decision {
        Decision::Serve(ServeOutcome {
            hit_chunks,
            filled_chunks,
            evicted: vec![ChunkId::new(VideoId(1), 0); evicted],
        })
    }

    #[test]
    fn noop_handle_is_disabled_and_inert() {
        let obs = PolicyObs::noop();
        assert!(!obs.enabled());
        obs.record_decision(&serve(4, 2, 10), 5);
        obs.record_decision(&Decision::Redirect, 5);
    }

    #[test]
    fn attached_handle_routes_to_scoped_names() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = PolicyObs::attach(reg.clone(), "xlru");
        assert!(obs.enabled());
        obs.record_decision(&serve(3, 1, 0), 40);
        obs.record_decision(&serve(0, 4, 7), 41);
        obs.record_decision(&Decision::Redirect, 42);

        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        assert_eq!(get("xlru.serve_requests_total").value, 2);
        assert_eq!(get("xlru.redirect_requests_total").value, 1);
        assert_eq!(get("xlru.hit_chunks_total").value, 3);
        assert_eq!(get("xlru.fill_chunks_total").value, 5);
        assert_eq!(get("xlru.evicted_chunks_total").value, 7);
        assert_eq!(get("xlru.occupancy_chunks").value, 42);
        let fills = get("xlru.fill_chunks_per_request");
        assert_eq!(fills.value, 2);
        assert_eq!(fills.sum, 5);
        let batches = get("xlru.eviction_batch_chunks");
        assert_eq!((batches.value, batches.sum), (1, 7));
    }

    #[test]
    fn two_scopes_share_one_registry_without_collisions() {
        let reg = Arc::new(MetricsRegistry::new());
        let a = PolicyObs::attach(reg.clone(), "s00.cafe");
        let b = PolicyObs::attach(reg.clone(), "s01.cafe");
        a.record_decision(&Decision::Redirect, 0);
        b.record_decision(&serve(1, 0, 0), 1);
        let snap = reg.snapshot();
        let get = |name: &str| snap.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(get("s00.cafe.redirect_requests_total"), 1);
        assert_eq!(get("s00.cafe.serve_requests_total"), 0);
        assert_eq!(get("s01.cafe.serve_requests_total"), 1);
    }

    #[test]
    fn the_noop_sink_registers_nothing() {
        let noop = PolicyObs::attach(crate::registry::NoopSink::shared(), "p");
        assert!(!noop.enabled());
    }
}
