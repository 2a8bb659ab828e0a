//! Deterministic span/stage accounting for the request lifecycle:
//! dispatch → shard-decide → evict.
//!
//! The sharded engine has no dispatcher thread and no queues: every worker
//! scans the trace and serves the shards it owns. What survives of the
//! pipeline is its *logical* shape, and that is all this module records.
//! Everything is derived from a logical dispatch clock — **a request's
//! trace index is its dispatch tick** — so every exported value is a pure
//! function of the input stream and identical for any worker count. There
//! is no wall-clock plane: nothing here reads a clock, and every metric is
//! a deterministic kind that bundles export.
//!
//! * [`DispatchSpans`] — one per shard stream, recorded by the shard's
//!   owner with the request's tick:
//!   - `{scope}.engine.span.dispatched_total` — requests entering the
//!     engine (one shared counter, added to atomically by whichever
//!     worker served the request).
//!   - `{scope}.s{i:02}.span.queue_gap` — per-stream histogram of the
//!     logical gap (in global dispatch ticks) between consecutive
//!     arrivals at stream `i`: a deterministic proxy for how bursty a
//!     shard's feed is.
//!   - `{scope}.s{i:02}.span.load_share_x1000` — the stream's running
//!     share of all dispatched requests, ×1000.
//! * [`ShardSpans`] — decide and evict stage counters:
//!   - `{scope}.s{i:02}.span.processed_total` — requests that completed
//!     the shard-decide stage on shard `i`.
//!   - `{scope}.s{i:02}.span.evict_events_total` — decisions that
//!     reached the evict stage (evicted ≥ 1 chunk).
//!
//! Conservation: at quiescence, `dispatched_total` equals the sum of
//! per-shard `processed_total` — every dispatched request is decided
//! exactly once (`obs_check` verifies this on engine bundles).

use std::sync::Arc;

use crate::registry::{MetricId, MetricKind, MetricsSink};

/// One shard stream's dispatch-stage accounting on the logical clock:
/// its arrival count, last tick, queue-gap histogram and load-share
/// gauge, plus a handle on the engine-wide `dispatched_total` counter.
///
/// Owned and mutated by the one worker that owns the shard, which is what
/// keeps the exported values worker-count-invariant; only
/// `dispatched_total` is shared, and it is a commutative atomic add.
#[derive(Debug)]
pub struct DispatchSpans {
    dispatched: MetricId,
    /// Last dispatch tick seen on this stream, plus one (0 = never).
    last_plus1: u64,
    /// Requests dispatched to this stream so far.
    count: u64,
    queue_gap: MetricId,
    load_share: MetricId,
}

impl DispatchSpans {
    /// Registers the dispatch-stage metrics for `streams` shard streams
    /// under `scope` (the same scope the engine's other metrics use) —
    /// `dispatched_total` first, then each stream's pair in stream order —
    /// and returns one accountant per stream.
    pub fn attach(sink: &Arc<dyn MetricsSink>, scope: &str, streams: usize) -> Vec<DispatchSpans> {
        let dispatched = sink.register(
            &format!("{scope}.engine.span.dispatched_total"),
            MetricKind::Counter,
        );
        (0..streams)
            .map(|i| DispatchSpans {
                dispatched,
                last_plus1: 0,
                count: 0,
                queue_gap: sink.register(
                    &format!("{scope}.s{i:02}.span.queue_gap"),
                    MetricKind::Histogram,
                ),
                load_share: sink.register(
                    &format!("{scope}.s{i:02}.span.load_share_x1000"),
                    MetricKind::Gauge,
                ),
            })
            .collect()
    }

    /// Records the request with global dispatch tick `tick` (its trace
    /// index over the engine's lifetime) arriving on this stream: counts
    /// the dispatch stage, observes the stream's logical queue gap and
    /// updates its load-share gauge. Returns the gap — the first arrival
    /// measures its distance from the stream's start.
    ///
    /// Ticks must increase across calls on one stream.
    pub fn record(&mut self, sink: &dyn MetricsSink, tick: u64) -> u64 {
        let gap = tick + 1 - self.last_plus1;
        self.last_plus1 = tick + 1;
        self.count += 1;
        sink.counter_add(self.dispatched, 1);
        sink.observe(self.queue_gap, gap);
        sink.gauge_set(self.load_share, self.count * 1000 / (tick + 1));
        gap
    }
}

/// Shard-side logical stage counters: decide and evict, recorded by the
/// worker that owns the shard. Counters are atomic, and each shard is
/// touched by exactly one worker per run, so the totals are exact.
#[derive(Debug, Clone)]
pub struct ShardSpans {
    processed: MetricId,
    evict_events: MetricId,
}

impl ShardSpans {
    /// Registers shard `i`'s decide/evict stage counters under `scope`.
    pub fn attach(sink: &Arc<dyn MetricsSink>, scope: &str, i: usize) -> ShardSpans {
        ShardSpans {
            processed: sink.register(
                &format!("{scope}.s{i:02}.span.processed_total"),
                MetricKind::Counter,
            ),
            evict_events: sink.register(
                &format!("{scope}.s{i:02}.span.evict_events_total"),
                MetricKind::Counter,
            ),
        }
    }

    /// Counts one completed shard-decide stage; `evicted` decisions also
    /// count an evict stage.
    pub fn record(&self, sink: &dyn MetricsSink, evicted: bool) {
        sink.counter_add(self.processed, 1);
        if evicted {
            sink.counter_add(self.evict_events, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn registry() -> (Arc<MetricsRegistry>, Arc<dyn MetricsSink>) {
        let reg = Arc::new(MetricsRegistry::new());
        let sink: Arc<dyn MetricsSink> = reg.clone();
        (reg, sink)
    }

    fn value(reg: &MetricsRegistry, name: &str) -> u64 {
        reg.snapshot(false)
            .into_iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .value
    }

    /// Feeds the stream sequence through per-stream accountants the way
    /// the engine does: position in the sequence is the dispatch tick.
    fn dispatch(sink: &Arc<dyn MetricsSink>, streams: usize, seq: &[usize]) -> Vec<u64> {
        let mut spans = DispatchSpans::attach(sink, "e", streams);
        seq.iter()
            .enumerate()
            .map(|(tick, &s)| spans[s].record(sink.as_ref(), tick as u64))
            .collect()
    }

    #[test]
    fn dispatch_conserves_and_shares_sum() {
        let (reg, sink) = registry();
        // Streams: 0,0,1,0 — ticks 0..4.
        dispatch(&sink, 2, &[0, 0, 1, 0]);
        assert_eq!(value(&reg, "e.engine.span.dispatched_total"), 4);
        // Stream 0 got 3 of 4 → share 750; stream 1 got 1 of 3 at its
        // last update (tick 2) → share 333.
        assert_eq!(value(&reg, "e.s00.span.load_share_x1000"), 750);
        assert_eq!(value(&reg, "e.s01.span.load_share_x1000"), 333);
    }

    #[test]
    fn queue_gap_measures_logical_interarrival() {
        let (reg, sink) = registry();
        let gaps = dispatch(&sink, 2, &[0, 1, 1, 0]);
        // Stream 0: gaps 1 (tick 0, first) and 3 (tick 3 − tick 0).
        // Stream 1: gaps 2 (tick 1, first) and 1 (tick 2 − tick 1).
        assert_eq!(gaps, vec![1, 2, 1, 3]);
        let snap = reg.snapshot(false);
        let hist = |name: &str| {
            snap.iter()
                .find(|m| m.name == name)
                .and_then(|m| m.histogram.clone())
                .unwrap_or_else(|| panic!("histogram {name} missing"))
        };
        let s0 = hist("e.s00.span.queue_gap");
        assert_eq!(s0.count, 2);
        assert_eq!(s0.sum, 4);
        let s1 = hist("e.s01.span.queue_gap");
        assert_eq!(s1.count, 2);
        assert_eq!(s1.sum, 3);
    }

    #[test]
    fn shard_spans_count_decide_and_evict() {
        let (reg, sink) = registry();
        let spans = ShardSpans::attach(&sink, "e", 3);
        spans.record(sink.as_ref(), false);
        spans.record(sink.as_ref(), true);
        spans.record(sink.as_ref(), false);
        assert_eq!(value(&reg, "e.s03.span.processed_total"), 3);
        assert_eq!(value(&reg, "e.s03.span.evict_events_total"), 1);
    }

    #[test]
    fn logical_plane_is_fully_deterministic_kind() {
        let (reg, sink) = registry();
        let seq: Vec<usize> = (0..16).map(|i| i % 4).collect();
        dispatch(&sink, 4, &seq);
        for i in 0..4 {
            ShardSpans::attach(&sink, "e", i).record(sink.as_ref(), i % 2 == 0);
        }
        let det = reg.snapshot(true);
        let all = reg.snapshot(false);
        assert_eq!(det.len(), all.len(), "span logical metrics must export");
    }
}
