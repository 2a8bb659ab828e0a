//! The replay time-series sampler: periodic snapshots of cache behavior
//! over *trace time*.
//!
//! The paper's evaluation is time-resolved — cache-efficiency warm-up
//! curves, fill/redirect byte breakdowns and cache-age dynamics per server
//! (§9, Figs. 3, 6) — but an end-of-run aggregate throws that structure
//! away. [`ReplaySampler`] closes the gap: fed once per replayed request,
//! it emits one [`SeriesSample`] per elapsed interval of trace time,
//! including empty ones, so the series is a complete, evenly spaced grid.
//!
//! The sampler buckets nothing itself and owns no ring. It is a fold
//! over the windows a [`WindowRing`](crate::window::WindowRing) closes —
//! the one ring a telemetry observer keeps, also feeding its health
//! windows — summing `interval / width` consecutive windows into one
//! sample ([`WindowFold`]), and adding the two things a window does not
//! carry: the running sum of closed samples (`cum`) and the policy state
//! (occupancy, capacity, cache age) held when the sample's last window
//! closes.
//!
//! Determinism: samples carry exact integer byte counters plus floats
//! derived only from them, so a sampler fed the same replay produces
//! byte-identical output regardless of wall-clock, thread count or
//! machine. The cumulative counters reproduce the replay's aggregate
//! exactly: the last sample's `cum_*` fields equal the run's overall
//! [`TrafficCounter`], making the Eq. 2 identity testable to the bit.

use vcdn_types::json::{Json, ObjectWriter};
use vcdn_types::{CostModel, TrafficCounter};

use crate::read::{field, float};
use crate::window::{WindowFold, WindowStats};

/// One interval's snapshot of replay behavior.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSample {
    /// Interval start (trace ms).
    pub t_ms: u64,
    /// Traffic accumulated within this interval alone.
    pub interval: TrafficCounter,
    /// Traffic accumulated from replay start through this interval's end.
    pub cum: TrafficCounter,
    /// Eq. 2 efficiency over this interval alone (`0.0` for an interval
    /// with no requested bytes — the zero-request guard, not `NaN`).
    pub efficiency: f64,
    /// Eq. 2 efficiency from replay start through this interval's end.
    pub cum_efficiency: f64,
    /// Chunks on disk at the last decision at or before interval end.
    pub occupancy_chunks: u64,
    /// Disk capacity in chunks.
    pub capacity_chunks: u64,
    /// Policy cache age (ms) at the last decision observed, where the
    /// policy defines one.
    pub cache_age_ms: Option<f64>,
}

impl SeriesSample {
    /// Appends this sample's bundle line (newline included) to `out`.
    pub fn write_line(&self, out: &mut String) {
        ObjectWriter::new(out)
            .str("type", "sample")
            .u64("t_ms", self.t_ms)
            .u64("hit_bytes", self.interval.hit_bytes)
            .u64("fill_bytes", self.interval.fill_bytes)
            .u64("redirect_bytes", self.interval.redirect_bytes)
            .u64("served_requests", self.interval.served_requests)
            .u64("redirected_requests", self.interval.redirected_requests)
            .f64("efficiency", self.efficiency)
            .u64("cum_hit_bytes", self.cum.hit_bytes)
            .u64("cum_fill_bytes", self.cum.fill_bytes)
            .u64("cum_redirect_bytes", self.cum.redirect_bytes)
            .f64("cum_efficiency", self.cum_efficiency)
            .u64("occupancy_chunks", self.occupancy_chunks)
            .u64("capacity_chunks", self.capacity_chunks)
            .opt_f64("cache_age_ms", self.cache_age_ms)
            .finish_line();
    }

    /// Reads the sample [`SeriesSample::write_line`] wrote. The line does
    /// not carry `cum`'s request counts; they read back as zero.
    pub(crate) fn from_json(line: &Json) -> Result<SeriesSample, String> {
        Ok(SeriesSample {
            t_ms: field(line, "t_ms")?,
            interval: TrafficCounter {
                hit_bytes: field(line, "hit_bytes")?,
                fill_bytes: field(line, "fill_bytes")?,
                redirect_bytes: field(line, "redirect_bytes")?,
                served_requests: field(line, "served_requests")?,
                redirected_requests: field(line, "redirected_requests")?,
            },
            cum: TrafficCounter {
                hit_bytes: field(line, "cum_hit_bytes")?,
                fill_bytes: field(line, "cum_fill_bytes")?,
                redirect_bytes: field(line, "cum_redirect_bytes")?,
                ..TrafficCounter::default()
            },
            efficiency: float(line, "efficiency")?,
            cum_efficiency: float(line, "cum_efficiency")?,
            occupancy_chunks: field(line, "occupancy_chunks")?,
            capacity_chunks: field(line, "capacity_chunks")?,
            cache_age_ms: field(line, "cache_age_ms")?,
        })
    }
}

/// Turns a ring's closed windows into an evenly spaced series over
/// trace time: one [`SeriesSample`] per `interval / width` windows.
///
/// Hand it every window the ring closes through
/// [`ReplaySampler::on_window`], and after each recorded request the
/// policy's state through [`ReplaySampler::stamp`]; after the ring's own
/// `finish`, call [`ReplaySampler::finish`] to flush a trailing partial
/// interval and take the samples.
///
/// # Examples
///
/// ```
/// use vcdn_obs::window::{WindowInput, WindowRing};
/// use vcdn_obs::ReplaySampler;
/// use vcdn_types::CostModel;
///
/// let at = |t_ms, hit_bytes, fill_bytes, redirect_bytes| WindowInput {
///     t_ms,
///     hit_bytes,
///     fill_bytes,
///     redirect_bytes,
///     ..WindowInput::default()
/// };
/// // One-second samples folded from half-second windows.
/// let mut ring = WindowRing::new(500, 1);
/// let mut s = ReplaySampler::new(1_000, 500, CostModel::balanced());
/// for input in [at(100, 80, 20, 0), at(2_500, 0, 0, 50)] {
///     ring.record(&input, &mut |w| s.on_window(w));
///     s.stamp(4, 8, None);
/// }
/// ring.finish(&mut |w| s.on_window(w));
/// let samples = s.finish();
/// assert_eq!(samples.len(), 3); // intervals [0,1s) [1s,2s) [2s,3s)
/// assert_eq!(samples[1].interval.requested_bytes(), 0); // empty, not NaN
/// assert_eq!(samples[1].efficiency, 0.0);
/// assert_eq!(samples[2].cum.requested_bytes(), 150);
/// ```
#[derive(Debug, Clone)]
pub struct ReplaySampler {
    fold: WindowFold,
    interval_ms: u64,
    costs: CostModel,
    cum: TrafficCounter,
    occupancy_chunks: u64,
    capacity_chunks: u64,
    cache_age_ms: Option<f64>,
    samples: Vec<SeriesSample>,
}

impl ReplaySampler {
    /// Creates a sampler emitting one sample per `interval_ms` of trace
    /// time, folded from the closed windows of a `width_ms`-wide ring.
    ///
    /// # Panics
    ///
    /// Panics if `width_ms == 0`, or if `interval_ms` is not a positive
    /// whole multiple of `width_ms`.
    pub fn new(interval_ms: u64, width_ms: u64, costs: CostModel) -> ReplaySampler {
        assert!(
            width_ms > 0 && interval_ms > 0 && interval_ms.is_multiple_of(width_ms),
            "sample interval {interval_ms} ms is not a whole number of {width_ms} ms windows"
        );
        ReplaySampler {
            fold: WindowFold::new(interval_ms / width_ms),
            interval_ms,
            costs,
            cum: TrafficCounter::default(),
            occupancy_chunks: 0,
            capacity_chunks: 0,
            cache_age_ms: None,
            samples: Vec::new(),
        }
    }

    /// Folds the next window the ring closed; the window that completes an
    /// interval becomes a sample carrying the state stamped before it.
    pub fn on_window(&mut self, w: &WindowStats) {
        if let Some(wide) = self.fold.push(w) {
            self.push(&wide);
        }
    }

    /// Stamps the policy's disk state after a decision — `occupancy` and
    /// `capacity` in chunks, and `cache_age_ms` where the policy defines
    /// one (an undefined age keeps the last defined one). Call it after
    /// the ring has recorded the decision, so the windows that request
    /// closed carry the state held before it.
    pub fn stamp(&mut self, occupancy: u64, capacity: u64, cache_age_ms: Option<f64>) {
        self.occupancy_chunks = occupancy;
        self.capacity_chunks = capacity;
        if cache_age_ms.is_some() {
            self.cache_age_ms = cache_age_ms;
        }
    }

    fn push(&mut self, w: &WindowStats) {
        self.cum += w.traffic;
        self.samples.push(SeriesSample {
            t_ms: w.index.saturating_mul(self.interval_ms),
            interval: w.traffic,
            cum: self.cum,
            efficiency: w.traffic.efficiency(self.costs),
            cum_efficiency: self.cum.efficiency(self.costs),
            occupancy_chunks: self.occupancy_chunks,
            capacity_chunks: self.capacity_chunks,
            cache_age_ms: self.cache_age_ms,
        });
    }

    /// Flushes the trailing partial interval and returns the complete
    /// series. A sampler that was handed no window returns no samples.
    pub fn finish(mut self) -> Vec<SeriesSample> {
        if let Some(wide) = self.fold.finish() {
            self.push(&wide);
        }
        self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{WindowInput, WindowRing};
    use vcdn_types::json::Json;

    /// A sampler at `interval_ms` over a ring `width_ms` wide, fed the way
    /// the telemetry observer feeds it.
    struct Fed {
        ring: WindowRing,
        sampler: ReplaySampler,
    }

    impl Fed {
        fn new(interval_ms: u64, width_ms: u64, costs: CostModel) -> Fed {
            Fed {
                ring: WindowRing::new(width_ms, 1),
                sampler: ReplaySampler::new(interval_ms, width_ms, costs),
            }
        }

        fn record(&mut self, input: &WindowInput, occupancy: u64, capacity: u64, age: Option<f64>) {
            let sampler = &mut self.sampler;
            self.ring.record(input, &mut |w| sampler.on_window(w));
            sampler.stamp(occupancy, capacity, age);
        }

        fn finish(mut self) -> Vec<SeriesSample> {
            let sampler = &mut self.sampler;
            self.ring.finish(&mut |w| sampler.on_window(w));
            self.sampler.finish()
        }
    }

    fn at(t_ms: u64, hit_bytes: u64, fill_bytes: u64, redirect_bytes: u64) -> WindowInput {
        WindowInput {
            t_ms,
            hit_bytes,
            fill_bytes,
            redirect_bytes,
            ..WindowInput::default()
        }
    }

    #[test]
    fn cumulative_counters_match_total_exactly() {
        let costs = CostModel::from_alpha(2.0).unwrap();
        let mut s = Fed::new(500, 100, costs);
        let mut total = TrafficCounter::default();
        for i in 0..50u64 {
            let (h, f, r) = match i % 3 {
                0 => (100, 20, 0),
                1 => (0, 0, 70),
                _ => (40, 0, 0),
            };
            s.record(&at(i * 97, h, f, r), i, 100, Some(i as f64));
            total.record_hit(h);
            total.record_fill(f);
            total.record_redirect(r);
            if r > 0 {
                total.redirected_requests += 1;
            } else {
                total.served_requests += 1;
            }
        }
        let samples = s.finish();
        let last = samples.last().unwrap();
        assert_eq!(last.cum, total);
        assert_eq!(last.cum_efficiency, total.efficiency(costs));
        // Interval counters sum to the total too.
        let sum = samples
            .iter()
            .fold(TrafficCounter::default(), |acc, w| acc + w.interval);
        assert_eq!(sum, total);
    }

    #[test]
    fn empty_intervals_are_emitted_with_zero_efficiency() {
        let mut s = Fed::new(100, 50, CostModel::balanced());
        s.record(&at(50, 10, 0, 0), 1, 4, None);
        s.record(&at(950, 10, 0, 0), 2, 4, None);
        let samples = s.finish();
        assert_eq!(samples.len(), 10);
        for sample in &samples[1..9] {
            assert_eq!(sample.interval.requested_bytes(), 0);
            assert_eq!(sample.efficiency, 0.0);
            assert!(sample.efficiency.is_finite());
            // Cumulative state persists through the gap.
            assert_eq!(sample.cum.hit_bytes, 10);
            assert_eq!(sample.occupancy_chunks, 1);
        }
    }

    #[test]
    fn sample_grid_is_evenly_spaced() {
        let mut s = Fed::new(250, 250, CostModel::balanced());
        s.record(&at(0, 1, 0, 0), 1, 1, None);
        s.record(&at(1_100, 1, 0, 0), 1, 1, None);
        let samples = s.finish();
        let starts: Vec<u64> = samples.iter().map(|x| x.t_ms).collect();
        assert_eq!(starts, vec![0, 250, 500, 750, 1000]);
    }

    #[test]
    #[should_panic(expected = "is not a whole number of 60 ms windows")]
    fn an_interval_the_windows_do_not_tile_is_refused() {
        ReplaySampler::new(90, 60, CostModel::balanced());
    }

    #[test]
    fn unfed_sampler_yields_no_samples() {
        let s = Fed::new(1000, 250, CostModel::balanced());
        assert!(s.finish().is_empty());
    }

    #[test]
    fn cache_age_holds_last_known_value() {
        let mut s = Fed::new(100, 25, CostModel::balanced());
        s.record(&at(10, 1, 0, 0), 1, 2, Some(42.0));
        s.record(&at(150, 1, 0, 0), 1, 2, None);
        let samples = s.finish();
        assert_eq!(samples[0].cache_age_ms, Some(42.0));
        assert_eq!(samples[1].cache_age_ms, Some(42.0));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn time_reversal_is_rejected() {
        let mut s = Fed::new(100, 50, CostModel::balanced());
        s.record(&at(500, 1, 0, 0), 1, 1, None);
        s.record(&at(10, 1, 0, 0), 1, 1, None);
    }

    #[test]
    fn sample_serialises_to_flat_object() {
        let mut s = Fed::new(100, 25, CostModel::balanced());
        s.record(&at(10, 80, 20, 0), 3, 8, Some(7.5));
        let sample = &s.finish()[0];
        let mut line = String::new();
        sample.write_line(&mut line);
        let parsed = vcdn_types::json::parse(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("sample"));
        assert_eq!(parsed.get("hit_bytes"), Some(&Json::Int(80)));
        assert_eq!(parsed.get("occupancy_chunks"), Some(&Json::Int(3)));
        assert_eq!(parsed.get("cache_age_ms"), Some(&Json::Float(7.5)));
        assert_eq!(parsed.get("efficiency"), Some(&Json::Float(0.8)));
    }
}
