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
//! The sampler buckets nothing itself. It owns a
//! [`WindowRing`](crate::window::WindowRing) of its interval's width — the
//! crate's one open/close/flush accumulator — and turns each window the
//! ring closes into a sample, adding the two things a window does not
//! carry: the running sum of closed windows (`cum`) and the policy state
//! (occupancy, capacity, cache age) held when the window closes.
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
use crate::window::{WindowInput, WindowRing, WindowStats};

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

/// Turns a replay's decisions into an evenly spaced series over trace
/// time: one [`SeriesSample`] per window its [`WindowRing`] closes.
///
/// Feed every request through [`ReplaySampler::record`]; call
/// [`ReplaySampler::finish`] after the replay to flush the open interval
/// and take the samples.
///
/// # Examples
///
/// ```
/// use vcdn_obs::window::WindowInput;
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
/// let mut s = ReplaySampler::new(1_000, CostModel::balanced());
/// s.record(&at(100, 80, 20, 0), 4, 8, None); // t=100ms: 80B hit, 20B fill
/// s.record(&at(2_500, 0, 0, 50), 4, 8, None); // t=2.5s: 50B redirected
/// let samples = s.finish();
/// assert_eq!(samples.len(), 3); // intervals [0,1s) [1s,2s) [2s,3s)
/// assert_eq!(samples[1].interval.requested_bytes(), 0); // empty, not NaN
/// assert_eq!(samples[1].efficiency, 0.0);
/// assert_eq!(samples[2].cum.requested_bytes(), 150);
/// ```
#[derive(Debug, Clone)]
pub struct ReplaySampler {
    /// The only time-bucketing here: closed windows come back through
    /// `on_close` and are not read again, so the ring retains one.
    ring: WindowRing,
    series: Series,
}

/// What a sample carries beyond its window's own traffic: the running sum
/// of closed windows and the policy state held since the last record.
#[derive(Debug, Clone)]
struct Series {
    interval_ms: u64,
    costs: CostModel,
    cum: TrafficCounter,
    occupancy_chunks: u64,
    capacity_chunks: u64,
    cache_age_ms: Option<f64>,
    samples: Vec<SeriesSample>,
}

impl Series {
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
}

impl ReplaySampler {
    /// Creates a sampler emitting one sample per `interval_ms` of trace
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `interval_ms == 0`.
    pub fn new(interval_ms: u64, costs: CostModel) -> ReplaySampler {
        assert!(interval_ms > 0, "sample interval must be > 0");
        ReplaySampler {
            ring: WindowRing::new(interval_ms, 1),
            series: Series {
                interval_ms,
                costs,
                cum: TrafficCounter::default(),
                occupancy_chunks: 0,
                capacity_chunks: 0,
                cache_age_ms: None,
                samples: Vec::new(),
            },
        }
    }

    /// The configured interval (ms).
    pub fn interval_ms(&self) -> u64 {
        self.series.interval_ms
    }

    /// Records one decided request: `input` is its window delta
    /// ([`WindowInput::from_decision`]), `occupancy`/`capacity` the
    /// policy's disk state after the decision, and `cache_age_ms` the
    /// policy's cache age where defined. Every interval that ended before
    /// `input.t_ms` becomes a sample carrying the state held at its close.
    ///
    /// # Panics
    ///
    /// As [`WindowRing::record`]: if `input.t_ms` moves backwards past an
    /// already closed interval (replay time is non-decreasing), or falls
    /// in interval [`crate::window::MAX_WINDOWS`] or later.
    pub fn record(
        &mut self,
        input: &WindowInput,
        occupancy: u64,
        capacity: u64,
        cache_age_ms: Option<f64>,
    ) {
        let series = &mut self.series;
        self.ring.record(input, &mut |w| series.push(w));
        series.occupancy_chunks = occupancy;
        series.capacity_chunks = capacity;
        if cache_age_ms.is_some() {
            series.cache_age_ms = cache_age_ms;
        }
    }

    /// Flushes the open interval and returns the complete series. An
    /// entirely unfed sampler returns no samples.
    pub fn finish(mut self) -> Vec<SeriesSample> {
        let series = &mut self.series;
        self.ring.finish(&mut |w| series.push(w));
        self.series.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_types::json::Json;

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
        let mut s = ReplaySampler::new(500, costs);
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
        let mut s = ReplaySampler::new(100, CostModel::balanced());
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
        let mut s = ReplaySampler::new(250, CostModel::balanced());
        s.record(&at(0, 1, 0, 0), 1, 1, None);
        s.record(&at(1_100, 1, 0, 0), 1, 1, None);
        let samples = s.finish();
        let starts: Vec<u64> = samples.iter().map(|x| x.t_ms).collect();
        assert_eq!(starts, vec![0, 250, 500, 750, 1000]);
    }

    #[test]
    fn unfed_sampler_yields_no_samples() {
        let s = ReplaySampler::new(1000, CostModel::balanced());
        assert!(s.finish().is_empty());
    }

    #[test]
    fn cache_age_holds_last_known_value() {
        let mut s = ReplaySampler::new(100, CostModel::balanced());
        s.record(&at(10, 1, 0, 0), 1, 2, Some(42.0));
        s.record(&at(150, 1, 0, 0), 1, 2, None);
        let samples = s.finish();
        assert_eq!(samples[0].cache_age_ms, Some(42.0));
        assert_eq!(samples[1].cache_age_ms, Some(42.0));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn time_reversal_is_rejected() {
        let mut s = ReplaySampler::new(100, CostModel::balanced());
        s.record(&at(500, 1, 0, 0), 1, 1, None);
        s.record(&at(10, 1, 0, 0), 1, 1, None);
    }

    #[test]
    fn sample_serialises_to_flat_object() {
        let mut s = ReplaySampler::new(100, CostModel::balanced());
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
