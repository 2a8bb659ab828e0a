//! Tumbling telemetry windows on the logical trace clock, with mergeable
//! per-window sketches in a bounded ring.
//!
//! The sampler ([`crate::ReplaySampler`]) answers "what did the whole run
//! look like over time"; the *window plane* answers the operator's
//! question: "is the cache healthy **right now**" — per-window traffic
//! deltas, Eq. 2 interval efficiency, and log-bucketed sketch snapshots,
//! exported as [`WindowRecord`]s that the watchdog ([`crate::detect()`])
//! judges. Three properties drive the design:
//!
//! * **Logical clock.** Windows tumble on *trace time* (default one hour
//!   of trace time), never wall-clock, so the whole plane is a pure
//!   function of the input stream — byte-identical across machines,
//!   threads and worker counts.
//! * **Mergeable.** Every field of a [`WindowStats`] is a commutative
//!   monoid under [`WindowStats::merge`] (sums for counters and
//!   bucket-wise sums for the log-bucketed [`HistogramSnapshot`] sketches,
//!   `max` for the per-stream peak), so per-shard windows fold into
//!   engine-level windows associatively and order-invariantly — the
//!   sharded engine merges at any worker count and gets the same bytes.
//! * **Bounded.** A [`WindowRing`] retains only the last `retain` closed
//!   windows; a month-long replay holds ~720 hourly windows and the ring
//!   never grows past its bound (evictions are counted in
//!   [`WindowRing::dropped`]). Detection runs over the exported windows,
//!   so an evicted window raises no alert.
//!
//! This is the crate's only time-bucketing accumulator: the sharded
//! engine's per-shard rings and the Replayer's telemetry observer each
//! record into a [`WindowRing`], building the per-request delta with
//! [`WindowInput::from_decision`]. The observer's one ring runs at the
//! finer of its two widths; a [`WindowFold`] builds the coarser one —
//! health windows or time-series samples — from the windows it closes,
//! so a request is bucketed once, not once per consumer. The grid is
//! capped at [`MAX_WINDOWS`]: a request that would open a later window is
//! refused with a panic on arrival, so a far-future timestamp costs
//! nothing instead of one empty window per hour of the gap.
//!
//! Conservation invariant (pinned by `prop_window.rs` and [`crate::check`]):
//! the sum of all window traffic deltas — closed, dropped and open —
//! equals the ring's cumulative [`TrafficCounter`].

use std::collections::VecDeque;

use vcdn_types::json::{Json, ObjectWriter};
use vcdn_types::{CostModel, Decision, TrafficCounter};

use crate::histogram::HistogramSnapshot;
use crate::read::{field, float};

/// The longest window grid any trace may span: a request whose trace time
/// falls in window `MAX_WINDOWS` or later is refused with a panic instead
/// of being walked to one empty window at a time. `1 << 20` hourly
/// windows are about 119 years of trace time, so only a corrupt or
/// mis-based timestamp (epoch ms in a zero-based trace) gets here.
pub const MAX_WINDOWS: u64 = 1 << 20;

/// Panics unless window `index` (of `width_ms`-wide windows, reached by a
/// request at `t_ms`) lies inside the [`MAX_WINDOWS`] grid. Every grid
/// walker calls this when — and only when — a request opens a new window.
///
/// # Panics
///
/// Panics with "exceeds MAX_WINDOWS" if `index >= MAX_WINDOWS`.
pub fn assert_window_in_grid(index: u64, t_ms: u64, width_ms: u64) {
    assert!(
        index < MAX_WINDOWS,
        "t={t_ms}ms is window {index} at {width_ms}ms per window: \
         exceeds MAX_WINDOWS ({MAX_WINDOWS}); is the trace zero-based?"
    );
}

/// One tumbling window's mergeable payload: counter deltas plus sketch
/// snapshots, all pure functions of the requests that fell inside the
/// window.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WindowStats {
    /// Window index: the window covers trace time
    /// `[index·width, (index+1)·width)`.
    pub index: u64,
    /// Traffic served within this window alone (the per-window delta).
    pub traffic: TrafficCounter,
    /// Chunks written to disk (cache fills) within the window.
    pub filled_chunks: u64,
    /// Chunks evicted from disk within the window.
    pub evicted_chunks: u64,
    /// The largest single-stream request count merged into this window:
    /// for a one-producer ring it equals the window's own request count;
    /// merged across shards it is the hottest shard's count (merge takes
    /// the `max`), which makes per-window skew computable after the fold.
    pub max_stream_requests: u64,
    /// Log-bucketed sketch of the logical queue gap (dispatch ticks
    /// between consecutive arrivals at this stream); empty for unsharded
    /// replays.
    pub queue_gap: HistogramSnapshot,
    /// Log-bucketed sketch of request sizes in chunks.
    pub request_chunks: HistogramSnapshot,
}

impl WindowStats {
    /// An empty window at `index`.
    pub fn empty(index: u64) -> WindowStats {
        WindowStats {
            index,
            ..WindowStats::default()
        }
    }

    /// Whether the window saw no traffic and no sketch observations.
    pub fn is_empty(&self) -> bool {
        self.traffic.total_requests() == 0
            && self.filled_chunks == 0
            && self.evicted_chunks == 0
            && self.queue_gap.count == 0
            && self.request_chunks.count == 0
    }

    /// Folds `other` into `self`. Every field is a commutative monoid
    /// (sums, bucket-wise histogram sums, `max` for the stream peak), so
    /// merging is associative and order-invariant — the property
    /// `prop_window.rs` pins.
    ///
    /// # Panics
    ///
    /// Panics if the window indices differ (merging is per-index).
    pub fn merge(&mut self, other: &WindowStats) {
        assert_eq!(
            self.index, other.index,
            "window merge requires equal indices"
        );
        self.traffic += other.traffic;
        self.filled_chunks += other.filled_chunks;
        self.evicted_chunks += other.evicted_chunks;
        self.max_stream_requests = self.max_stream_requests.max(other.max_stream_requests);
        self.queue_gap.merge_from(&other.queue_gap);
        self.request_chunks.merge_from(&other.request_chunks);
    }

    /// Eq. 2 efficiency over this window's traffic alone (`0.0` for an
    /// empty window — the zero-request guard, not `NaN`).
    pub fn efficiency(&self, costs: CostModel) -> f64 {
        self.traffic.efficiency(costs)
    }

    /// Fraction of the window's requested bytes that were redirected
    /// (`0.0` for an empty window).
    pub fn redirect_rate(&self) -> f64 {
        let total = self.traffic.requested_bytes();
        if total == 0 {
            0.0
        } else {
            self.traffic.redirect_bytes as f64 / total as f64
        }
    }
}

/// One exported window line of a `vcdn-telemetry/1` bundle: a
/// [`WindowStats`] flattened against a cost model, with the sketches
/// reduced to deterministic summary statistics. Serialises as
/// `{"type":"window","index":…,…}`; the window width lives in the
/// bundle's meta line (`window_ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowRecord {
    /// Window index (start = `index · window_ms`).
    pub index: u64,
    /// Bytes served from cache within the window.
    pub hit_bytes: u64,
    /// Bytes cache-filled within the window.
    pub fill_bytes: u64,
    /// Bytes redirected within the window.
    pub redirect_bytes: u64,
    /// Requests served within the window.
    pub served_requests: u64,
    /// Requests redirected within the window.
    pub redirected_requests: u64,
    /// Eq. 2 interval efficiency (0.0 for an empty window).
    pub efficiency: f64,
    /// Redirected fraction of requested bytes (0.0 for an empty window).
    pub redirect_rate: f64,
    /// Chunks filled within the window.
    pub filled_chunks: u64,
    /// Chunks evicted within the window.
    pub evicted_chunks: u64,
    /// Hottest single stream's request count (see
    /// [`WindowStats::max_stream_requests`]).
    pub max_stream_requests: u64,
    /// Queue-gap sketch sample count (0 for unsharded replays).
    pub queue_gap_count: u64,
    /// Queue-gap sketch sample sum.
    pub queue_gap_sum: u64,
    /// Upper bound on the queue-gap p99 (log-bucket edge).
    pub queue_gap_p99: u64,
    /// Upper bound on the request-size p99, in chunks.
    pub request_chunks_p99: u64,
}

impl WindowRecord {
    /// Flattens a window against `costs` into its export form.
    pub fn from_stats(w: &WindowStats, costs: CostModel) -> WindowRecord {
        WindowRecord {
            index: w.index,
            hit_bytes: w.traffic.hit_bytes,
            fill_bytes: w.traffic.fill_bytes,
            redirect_bytes: w.traffic.redirect_bytes,
            served_requests: w.traffic.served_requests,
            redirected_requests: w.traffic.redirected_requests,
            efficiency: w.efficiency(costs),
            redirect_rate: w.redirect_rate(),
            filled_chunks: w.filled_chunks,
            evicted_chunks: w.evicted_chunks,
            max_stream_requests: w.max_stream_requests,
            queue_gap_count: w.queue_gap.count,
            queue_gap_sum: w.queue_gap.sum,
            queue_gap_p99: w.queue_gap.quantile_upper_bound(0.99),
            request_chunks_p99: w.request_chunks.quantile_upper_bound(0.99),
        }
    }

    /// Requests within the window, served or redirected. Every request
    /// adds one request-size sample, so a window with none is empty.
    pub fn requests(&self) -> u128 {
        u128::from(self.served_requests) + u128::from(self.redirected_requests)
    }

    /// Disk churn within the window: chunks written plus chunks evicted —
    /// the "how hard is the disk working for its hits" signal the
    /// occupancy-churn watchdog rule thresholds.
    pub fn churn_chunks(&self) -> u64 {
        self.filled_chunks.saturating_add(self.evicted_chunks)
    }

    /// Shard-imbalance within the window: `max/mean × 1000` over `streams`
    /// request streams (1000 = perfectly balanced; meaningful after an
    /// engine-level merge, and identically 1000 for a single stream).
    /// Returns 1000 for an empty window.
    pub fn skew_x1000(&self, streams: u64) -> u64 {
        let total = self.requests();
        if total == 0 || streams == 0 {
            1000
        } else {
            let peak = u128::from(self.max_stream_requests) * 1000;
            (peak.saturating_mul(u128::from(streams)) / total) as u64
        }
    }
}

impl WindowRecord {
    /// Appends this window's bundle line (newline included) to `out`.
    pub fn write_line(&self, out: &mut String) {
        ObjectWriter::new(out)
            .str("type", "window")
            .u64("index", self.index)
            .u64("hit_bytes", self.hit_bytes)
            .u64("fill_bytes", self.fill_bytes)
            .u64("redirect_bytes", self.redirect_bytes)
            .u64("served_requests", self.served_requests)
            .u64("redirected_requests", self.redirected_requests)
            .f64("efficiency", self.efficiency)
            .f64("redirect_rate", self.redirect_rate)
            .u64("filled_chunks", self.filled_chunks)
            .u64("evicted_chunks", self.evicted_chunks)
            .u64("max_stream_requests", self.max_stream_requests)
            .u64("queue_gap_count", self.queue_gap_count)
            .u64("queue_gap_sum", self.queue_gap_sum)
            .u64("queue_gap_p99", self.queue_gap_p99)
            .u64("request_chunks_p99", self.request_chunks_p99)
            .finish_line();
    }

    /// Reads the window [`WindowRecord::write_line`] wrote.
    pub(crate) fn from_json(line: &Json) -> Result<WindowRecord, String> {
        Ok(WindowRecord {
            index: field(line, "index")?,
            hit_bytes: field(line, "hit_bytes")?,
            fill_bytes: field(line, "fill_bytes")?,
            redirect_bytes: field(line, "redirect_bytes")?,
            served_requests: field(line, "served_requests")?,
            redirected_requests: field(line, "redirected_requests")?,
            efficiency: float(line, "efficiency")?,
            redirect_rate: float(line, "redirect_rate")?,
            filled_chunks: field(line, "filled_chunks")?,
            evicted_chunks: field(line, "evicted_chunks")?,
            max_stream_requests: field(line, "max_stream_requests")?,
            queue_gap_count: field(line, "queue_gap_count")?,
            queue_gap_sum: field(line, "queue_gap_sum")?,
            queue_gap_p99: field(line, "queue_gap_p99")?,
            request_chunks_p99: field(line, "request_chunks_p99")?,
        })
    }
}

/// One decided request's contribution to the open window.
#[derive(Debug, Clone, Copy, Default)]
pub struct WindowInput {
    /// The request's trace time in ms (non-decreasing across records).
    pub t_ms: u64,
    /// Bytes served from cache.
    pub hit_bytes: u64,
    /// Bytes cache-filled.
    pub fill_bytes: u64,
    /// Bytes redirected (a nonzero value counts the request as
    /// redirected; zero counts it as served, matching the replay
    /// accounting).
    pub redirect_bytes: u64,
    /// Chunks written to disk by this decision.
    pub filled_chunks: u64,
    /// Chunks evicted by this decision.
    pub evicted_chunks: u64,
    /// Request size in chunks (fed to the request-size sketch).
    pub request_chunks: u64,
    /// Logical queue gap in dispatch ticks (trace positions since the
    /// stream's previous request) when the stream is one shard of a
    /// sharded engine; `None` for unsharded replays — the gap sketch
    /// stays empty.
    pub queue_gap: Option<u64>,
}

impl WindowInput {
    /// The one decision → window-delta step: `decision` on a request of
    /// `request_chunks` chunks at trace time `t_ms`, in chunk-granularity
    /// bytes (`chunks × chunk_bytes`, saturating) exactly as
    /// [`TrafficCounter::record_decision`] accounts it.
    pub fn from_decision(
        t_ms: u64,
        decision: &Decision,
        request_chunks: u64,
        chunk_bytes: u64,
        queue_gap: Option<u64>,
    ) -> WindowInput {
        let (hit, filled, evicted, redirected) = match decision {
            Decision::Serve(o) => (o.hit_chunks, o.filled_chunks, o.evicted.len() as u64, 0),
            Decision::Redirect => (0, 0, 0, request_chunks),
        };
        WindowInput {
            t_ms,
            hit_bytes: hit.saturating_mul(chunk_bytes),
            fill_bytes: filled.saturating_mul(chunk_bytes),
            redirect_bytes: redirected.saturating_mul(chunk_bytes),
            filled_chunks: filled,
            evicted_chunks: evicted,
            request_chunks,
            queue_gap,
        }
    }
}

/// Accumulates per-request deltas into tumbling windows of trace time,
/// retaining a bounded ring of closed windows.
///
/// Feed every decided request through [`WindowRing::record`]; each window
/// that closes is handed to the `on_close` callback *before* entering the
/// ring, so a consumer that folds windows as they close (the replay
/// observer's health windows and series) sees every one. Call
/// [`WindowRing::finish`] after the run to flush the open window, or
/// [`WindowRing::snapshot_windows`] for a non-destructive view (closed
/// windows plus the open one) — what the sharded engine merges at
/// export.
///
/// # Examples
///
/// ```
/// use vcdn_obs::window::{WindowInput, WindowRing};
///
/// let mut ring = WindowRing::new(1_000, 16);
/// let mut closed = Vec::new();
/// for t in [100u64, 2_500] {
///     ring.record(
///         &WindowInput {
///             t_ms: t,
///             hit_bytes: 80,
///             request_chunks: 1,
///             ..WindowInput::default()
///         },
///         &mut |w| closed.push(w.clone()),
///     );
/// }
/// ring.finish(&mut |w| closed.push(w.clone()));
/// // Windows [0,1s) [1s,2s) [2s,3s): the middle one is empty.
/// assert_eq!(closed.len(), 3);
/// assert!(closed[1].is_empty());
/// assert_eq!(closed[2].traffic.hit_bytes, 80);
/// ```
#[derive(Debug, Clone)]
pub struct WindowRing {
    width_ms: u64,
    retain: usize,
    open: WindowStats,
    /// The open window's `[start, end)` in ms of trace time: a record
    /// inside it costs two compares, and only one outside it a division.
    open_start_ms: u64,
    open_end_ms: u64,
    open_dirty: bool,
    closed: VecDeque<WindowStats>,
    dropped: u64,
    cum: TrafficCounter,
    saw_request: bool,
}

impl WindowRing {
    /// Creates a ring of `width_ms`-wide tumbling windows retaining the
    /// last `retain` closed windows.
    ///
    /// # Panics
    ///
    /// Panics if `width_ms == 0` or `retain == 0`.
    pub fn new(width_ms: u64, retain: usize) -> WindowRing {
        assert!(width_ms > 0, "window width must be > 0");
        assert!(retain > 0, "window ring must retain at least one window");
        WindowRing {
            width_ms,
            retain,
            open: WindowStats::empty(0),
            open_start_ms: 0,
            open_end_ms: width_ms,
            open_dirty: false,
            closed: VecDeque::new(),
            dropped: 0,
            cum: TrafficCounter::default(),
            saw_request: false,
        }
    }

    /// The configured window width (ms of trace time).
    pub fn width_ms(&self) -> u64 {
        self.width_ms
    }

    /// Closed windows evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Cumulative traffic over every record fed to the ring — the
    /// conservation target: it equals the sum of all window deltas
    /// (closed, dropped and open).
    pub fn cum(&self) -> TrafficCounter {
        self.cum
    }

    fn close_open(&mut self, on_close: &mut dyn FnMut(&WindowStats)) {
        let next = WindowStats::empty(self.open.index + 1);
        let done = std::mem::replace(&mut self.open, next);
        // Saturation only meets windows no `u64` time can reach, which the
        // order and grid checks in `record` refuse as before.
        self.open_start_ms = self.open.index.saturating_mul(self.width_ms);
        self.open_end_ms = self.open_start_ms.saturating_add(self.width_ms);
        on_close(&done);
        self.closed.push_back(done);
        if self.closed.len() > self.retain {
            self.closed.pop_front();
            self.dropped += 1;
        }
        self.open_dirty = false;
    }

    /// Records one decided request, closing (and reporting via `on_close`)
    /// every window that ended before `input.t_ms` — including empty ones,
    /// so the window grid is complete and evenly spaced.
    ///
    /// # Panics
    ///
    /// Panics if `input.t_ms` falls before the open window's start (trace
    /// time is non-decreasing), or — before closing anything — if it falls
    /// in window [`MAX_WINDOWS`] or later ("exceeds MAX_WINDOWS"): a
    /// far-future timestamp is refused at once, not walked to.
    pub fn record(&mut self, input: &WindowInput, on_close: &mut dyn FnMut(&WindowStats)) {
        if input.t_ms < self.open_start_ms || input.t_ms >= self.open_end_ms {
            let index = input.t_ms / self.width_ms;
            assert!(
                index >= self.open.index,
                "window ring fed out of order: t={}ms before window start {}ms",
                input.t_ms,
                self.open.index.saturating_mul(self.width_ms)
            );
            if index > self.open.index {
                assert_window_in_grid(index, input.t_ms, self.width_ms);
                while self.open.index < index {
                    self.close_open(on_close);
                }
            }
        }
        self.saw_request = true;
        let w = &mut self.open;
        w.traffic.record_hit(input.hit_bytes);
        w.traffic.record_fill(input.fill_bytes);
        w.traffic.record_redirect(input.redirect_bytes);
        self.cum.record_hit(input.hit_bytes);
        self.cum.record_fill(input.fill_bytes);
        self.cum.record_redirect(input.redirect_bytes);
        if input.redirect_bytes > 0 {
            w.traffic.redirected_requests += 1;
            self.cum.redirected_requests += 1;
        } else {
            w.traffic.served_requests += 1;
            self.cum.served_requests += 1;
        }
        w.filled_chunks += input.filled_chunks;
        w.evicted_chunks += input.evicted_chunks;
        w.max_stream_requests = w.traffic.total_requests();
        w.request_chunks.observe(input.request_chunks);
        if let Some(gap) = input.queue_gap {
            w.queue_gap.observe(gap);
        }
        self.open_dirty = true;
    }

    /// Flushes the open window (if it saw any record since the last
    /// close) through `on_close` into the ring. Call once at end of run;
    /// an entirely unfed ring flushes nothing.
    pub fn finish(&mut self, on_close: &mut dyn FnMut(&WindowStats)) {
        if self.saw_request && self.open_dirty {
            self.close_open(on_close);
        }
    }

    /// A non-destructive view of the ring: the retained closed windows
    /// plus the open window if it holds data. The engine merges these
    /// snapshots across shards at export, leaving each ring intact for
    /// warm continuation.
    pub fn snapshot_windows(&self) -> Vec<WindowStats> {
        let mut out: Vec<WindowStats> = self.closed.iter().cloned().collect();
        if self.open_dirty {
            out.push(self.open.clone());
        }
        out
    }
}

/// Folds one stream's closed windows `every` at a time into windows
/// `every` times as wide: what a ring of the wider width would have
/// closed, built from the narrower ring's output.
///
/// Feed it every window a [`WindowRing`] closes, in order (indices
/// consecutive from 0, empty windows included); [`WindowFold::push`]
/// returns each wide window as its last narrow window arrives, and
/// [`WindowFold::finish`] the partial one a run ends in. Wide window `j`
/// sums narrow windows `j·every .. (j+1)·every`; its stream peak is their
/// request count, as a one-producer ring's is.
#[derive(Debug, Clone)]
pub struct WindowFold {
    every: u64,
    open: Option<WindowStats>,
}

impl WindowFold {
    /// A fold of `every` narrow windows into one (`1` passes each through).
    ///
    /// # Panics
    ///
    /// Panics if `every == 0`.
    pub fn new(every: u64) -> WindowFold {
        assert!(every > 0, "a fold takes at least one window");
        WindowFold { every, open: None }
    }

    /// Folds the next closed narrow window; returns the wide window it
    /// completes, if any.
    pub fn push(&mut self, w: &WindowStats) -> Option<WindowStats> {
        let index = w.index / self.every;
        let wide = self.open.get_or_insert_with(|| WindowStats::empty(index));
        let requests = wide.max_stream_requests + w.max_stream_requests;
        wide.merge(&WindowStats { index, ..w.clone() });
        wide.max_stream_requests = requests;
        if (w.index + 1).is_multiple_of(self.every) {
            self.open.take()
        } else {
            None
        }
    }

    /// The partial wide window folded since the last complete one, if the
    /// run ended inside it.
    pub fn finish(&mut self) -> Option<WindowStats> {
        self.open.take()
    }
}

/// Folds per-producer window sets into one set keyed by window index,
/// filling index gaps with empty windows so the result is a contiguous
/// grid from the smallest to the largest index seen. Because
/// [`WindowStats::merge`] is commutative and associative, the result is
/// invariant to the order of `sets` and to how producers were grouped —
/// per-shard windows fold into engine windows identically at any worker
/// count.
pub fn merge_windows(sets: &[Vec<WindowStats>]) -> Vec<WindowStats> {
    let mut by_index: std::collections::BTreeMap<u64, WindowStats> =
        std::collections::BTreeMap::new();
    for set in sets {
        for w in set {
            by_index
                .entry(w.index)
                .and_modify(|acc| acc.merge(w))
                .or_insert_with(|| w.clone());
        }
    }
    let Some((&lo, _)) = by_index.iter().next() else {
        return Vec::new();
    };
    let (&hi, _) = by_index
        .iter()
        .next_back()
        .unwrap_or((&lo, &WindowStats::empty(lo)));
    (lo..=hi)
        .map(|i| by_index.remove(&i).unwrap_or_else(|| WindowStats::empty(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_types::json::Json;

    fn feed(ring: &mut WindowRing, t_ms: u64, hit: u64, red: u64) {
        ring.record(
            &WindowInput {
                t_ms,
                hit_bytes: hit,
                redirect_bytes: red,
                request_chunks: 1,
                ..WindowInput::default()
            },
            &mut |_| {},
        );
    }

    #[test]
    fn windows_tumble_on_the_trace_clock() {
        let mut ring = WindowRing::new(100, 8);
        feed(&mut ring, 10, 5, 0);
        feed(&mut ring, 120, 0, 7);
        feed(&mut ring, 450, 3, 0);
        ring.finish(&mut |_| {});
        let w: Vec<WindowStats> = ring.snapshot_windows();
        let starts: Vec<u64> = w.iter().map(|x| x.index).collect();
        assert_eq!(starts, vec![0, 1, 2, 3, 4]);
        assert_eq!(w[0].traffic.hit_bytes, 5);
        assert_eq!(w[1].traffic.redirect_bytes, 7);
        assert!(w[2].is_empty() && w[3].is_empty());
        assert_eq!(w[4].traffic.hit_bytes, 3);
    }

    #[test]
    fn on_close_sees_every_window_before_ring_eviction() {
        let mut ring = WindowRing::new(10, 2);
        let mut seen = Vec::new();
        for t in (0..70).step_by(10) {
            ring.record(
                &WindowInput {
                    t_ms: t,
                    hit_bytes: 1,
                    request_chunks: 1,
                    ..WindowInput::default()
                },
                &mut |w| seen.push(w.index),
            );
        }
        ring.finish(&mut |w| seen.push(w.index));
        // All 7 windows reported to the callback, ring keeps only 2.
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(ring.snapshot_windows().len(), 2);
        assert_eq!(ring.dropped(), 5);
    }

    #[test]
    fn conservation_sum_of_deltas_equals_cum() {
        let mut ring = WindowRing::new(50, 3);
        let mut dropped_plus_closed = TrafficCounter::default();
        for t in 0..40u64 {
            ring.record(
                &WindowInput {
                    t_ms: t * 31,
                    hit_bytes: t,
                    redirect_bytes: u64::from(t % 5 == 0) * 9,
                    request_chunks: 1,
                    ..WindowInput::default()
                },
                &mut |w| dropped_plus_closed += w.traffic,
            );
        }
        ring.finish(&mut |w| dropped_plus_closed += w.traffic);
        assert_eq!(dropped_plus_closed, ring.cum());
    }

    #[test]
    fn merge_is_order_invariant_and_fills_gaps() {
        let mut a = WindowStats::empty(2);
        a.traffic.record_hit(10);
        a.traffic.served_requests += 1;
        a.max_stream_requests = 1;
        a.queue_gap.observe(4);
        let mut b = WindowStats::empty(4);
        b.traffic.record_fill(3);
        b.traffic.served_requests += 1;
        b.max_stream_requests = 1;
        let ab = merge_windows(&[vec![a.clone()], vec![b.clone()]]);
        let ba = merge_windows(&[vec![b], vec![a]]);
        assert_eq!(ab, ba);
        let idx: Vec<u64> = ab.iter().map(|w| w.index).collect();
        assert_eq!(idx, vec![2, 3, 4]);
        assert!(ab[1].is_empty());
    }

    #[test]
    fn merge_same_index_sums_and_maxes() {
        let mut a = WindowStats::empty(7);
        a.traffic.record_hit(10);
        a.traffic.served_requests += 3;
        a.max_stream_requests = 3;
        a.filled_chunks = 2;
        a.queue_gap.observe(8);
        let mut b = WindowStats::empty(7);
        b.traffic.record_redirect(6);
        b.traffic.redirected_requests += 1;
        b.max_stream_requests = 1;
        b.evicted_chunks = 5;
        b.queue_gap.observe(8);
        a.merge(&b);
        assert_eq!(a.traffic.hit_bytes, 10);
        assert_eq!(a.traffic.redirect_bytes, 6);
        assert_eq!(a.traffic.total_requests(), 4);
        assert_eq!(a.max_stream_requests, 3);
        assert_eq!(a.filled_chunks + a.evicted_chunks, 7);
        assert_eq!(a.queue_gap.count, 2);
        assert_eq!(a.queue_gap.sum, 16);
    }

    #[test]
    #[should_panic(expected = "equal indices")]
    fn merge_rejects_index_mismatch() {
        let mut a = WindowStats::empty(1);
        a.merge(&WindowStats::empty(2));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn time_reversal_is_rejected() {
        let mut ring = WindowRing::new(100, 4);
        feed(&mut ring, 500, 1, 0);
        feed(&mut ring, 10, 1, 0);
    }

    #[test]
    #[should_panic(expected = "before window start 200ms")]
    fn time_reversal_after_a_flush_is_rejected() {
        // `finish` opens window 2; the last instant of window 1 is behind it.
        let mut ring = WindowRing::new(100, 4);
        feed(&mut ring, 150, 1, 0);
        ring.finish(&mut |_| {});
        feed(&mut ring, 199, 1, 0);
    }

    #[test]
    fn window_edges_fall_where_the_division_put_them() {
        // Last instant of a window, first of the next, across a flush, and
        // a width no multiple of which fits in a u64.
        let mut ring = WindowRing::new(100, 8);
        for t in [0, 99, 100, 199] {
            feed(&mut ring, t, 1, 0);
        }
        ring.finish(&mut |_| {});
        for t in [200, 299, 300] {
            feed(&mut ring, t, 1, 0);
        }
        let per_window: Vec<(u64, u64)> = ring
            .snapshot_windows()
            .iter()
            .map(|w| (w.index, w.traffic.hit_bytes))
            .collect();
        assert_eq!(per_window, vec![(0, 2), (1, 2), (2, 2), (3, 1)]);

        let mut wide = WindowRing::new(u64::MAX - 1, 2);
        for t in [0, u64::MAX - 2, u64::MAX - 1, u64::MAX] {
            feed(&mut wide, t, 1, 0);
        }
        let per_window: Vec<(u64, u64)> = wide
            .snapshot_windows()
            .iter()
            .map(|w| (w.index, w.traffic.hit_bytes))
            .collect();
        assert_eq!(per_window, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn last_window_inside_the_cap_is_reached() {
        let mut ring = WindowRing::new(1, 2);
        feed(&mut ring, MAX_WINDOWS - 1, 1, 0);
        assert_eq!(ring.dropped(), MAX_WINDOWS - 1 - 2);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_WINDOWS")]
    fn window_past_the_cap_is_refused() {
        let mut ring = WindowRing::new(1, 2);
        feed(&mut ring, MAX_WINDOWS, 1, 0);
    }

    #[test]
    fn skew_and_rates_have_zero_guards() {
        let costs = CostModel::balanced();
        let w = WindowStats::empty(0);
        assert_eq!(WindowRecord::from_stats(&w, costs).skew_x1000(4), 1000);
        assert_eq!(w.redirect_rate(), 0.0);
        assert_eq!(w.efficiency(costs), 0.0);
        let mut hot = WindowStats::empty(0);
        hot.traffic.served_requests = 4;
        hot.max_stream_requests = 2;
        // max/mean over 4 streams: 2 / (4/4) = 2 → 2000.
        assert_eq!(WindowRecord::from_stats(&hot, costs).skew_x1000(4), 2000);
    }

    #[test]
    fn record_json_shape() {
        let mut w = WindowStats::empty(3);
        w.traffic.record_hit(100);
        w.traffic.served_requests += 1;
        w.max_stream_requests = 1;
        w.request_chunks.observe(2);
        let rec = WindowRecord::from_stats(&w, CostModel::balanced());
        let mut line = String::new();
        rec.write_line(&mut line);
        let parsed = vcdn_types::json::parse(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("window"));
        assert_eq!(parsed.get("index"), Some(&Json::Int(3)));
        assert_eq!(parsed.get("hit_bytes"), Some(&Json::Int(100)));
        assert_eq!(parsed.get("efficiency"), Some(&Json::Float(1.0)));
        assert_eq!(parsed.get("queue_gap_count"), Some(&Json::Int(0)));
    }

    #[test]
    fn snapshot_includes_open_window_without_disturbing_it() {
        let mut ring = WindowRing::new(1_000, 4);
        feed(&mut ring, 100, 10, 0);
        let snap = ring.snapshot_windows();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].traffic.hit_bytes, 10);
        // Continue feeding the same open window.
        feed(&mut ring, 200, 5, 0);
        let snap = ring.snapshot_windows();
        assert_eq!(snap[0].traffic.hit_bytes, 15);
    }
}
