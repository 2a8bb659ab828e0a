//! Millisecond-granularity simulated time.
//!
//! The whole workspace measures time in integer milliseconds since an
//! arbitrary replay epoch. Integer time keeps trace generation and replay
//! fully deterministic; the caching algorithms convert to `f64` only inside
//! their scoring arithmetic (EWMA inter-arrival times, look-ahead windows).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use crate::impl_json_newtype;

/// A span of simulated time in milliseconds.
///
/// # Examples
///
/// ```
/// use vcdn_types::DurationMs;
///
/// assert_eq!(DurationMs::from_secs(2).as_millis(), 2_000);
/// assert_eq!(DurationMs::HOUR.as_millis(), 3_600_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DurationMs(pub u64);

impl_json_newtype!(DurationMs);

impl DurationMs {
    /// Zero-length duration.
    pub const ZERO: DurationMs = DurationMs(0);
    /// One second.
    pub const SECOND: DurationMs = DurationMs(1_000);
    /// One minute.
    pub const MINUTE: DurationMs = DurationMs(60_000);
    /// One hour.
    pub const HOUR: DurationMs = DurationMs(3_600_000);
    /// One day.
    pub const DAY: DurationMs = DurationMs(86_400_000);

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` seconds overflow a `u64` of milliseconds.
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(Self::SECOND.0) {
            Some(ms) => DurationMs(ms),
            None => panic!("DurationMs::from_secs: milliseconds overflow u64"),
        }
    }

    /// Creates a duration from whole hours.
    ///
    /// # Panics
    ///
    /// Panics if `hours` hours overflow a `u64` of milliseconds.
    pub const fn from_hours(hours: u64) -> Self {
        match hours.checked_mul(Self::HOUR.0) {
            Some(ms) => DurationMs(ms),
            None => panic!("DurationMs::from_hours: milliseconds overflow u64"),
        }
    }

    /// Creates a duration from whole days.
    ///
    /// # Panics
    ///
    /// Panics if `days` days overflow a `u64` of milliseconds
    /// (`days > u64::MAX / 86_400_000`, about 213 billion).
    pub const fn from_days(days: u64) -> Self {
        match days.checked_mul(Self::DAY.0) {
            Some(ms) => DurationMs(ms),
            None => panic!("DurationMs::from_days: milliseconds overflow u64"),
        }
    }

    /// The raw millisecond count.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating duration multiplication by an integer factor.
    pub const fn saturating_mul(self, factor: u64) -> Self {
        DurationMs(self.0.saturating_mul(factor))
    }
}

impl fmt::Display for DurationMs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms >= 86_400_000 {
            write!(f, "{:.2}d", ms as f64 / 86_400_000.0)
        } else if ms >= 3_600_000 {
            write!(f, "{:.2}h", ms as f64 / 3_600_000.0)
        } else if ms >= 1_000 {
            write!(f, "{:.2}s", ms as f64 / 1_000.0)
        } else {
            write!(f, "{ms}ms")
        }
    }
}

impl Add for DurationMs {
    type Output = DurationMs;

    fn add(self, rhs: DurationMs) -> DurationMs {
        DurationMs(self.0 + rhs.0)
    }
}

/// An instant in simulated time: milliseconds since the replay epoch.
///
/// Timestamps are totally ordered and support the natural arithmetic with
/// [`DurationMs`]. Subtracting a later timestamp from an earlier one
/// saturates to zero rather than panicking, because popularity-tracking code
/// frequently computes "age" values against clocks that may tie.
///
/// # Examples
///
/// ```
/// use vcdn_types::{DurationMs, Timestamp};
///
/// let t0 = Timestamp(5_000);
/// let t1 = t0 + DurationMs::SECOND;
/// assert_eq!(t1, Timestamp(6_000));
/// assert_eq!(t1 - t0, DurationMs::SECOND);
/// assert_eq!(t0 - t1, DurationMs::ZERO); // saturating
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl_json_newtype!(Timestamp);

impl Timestamp {
    /// The replay epoch (time zero).
    pub const EPOCH: Timestamp = Timestamp(0);

    /// The raw millisecond count since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The timestamp as fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction: the duration since `earlier`, or zero if
    /// `earlier` is in the future.
    pub const fn saturating_since(self, earlier: Timestamp) -> DurationMs {
        DurationMs(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration.
    pub const fn checked_add(self, d: DurationMs) -> Option<Timestamp> {
        match self.0.checked_add(d.0) {
            Some(v) => Some(Timestamp(v)),
            None => None,
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", DurationMs(self.0))
    }
}

impl Add<DurationMs> for Timestamp {
    type Output = Timestamp;

    fn add(self, rhs: DurationMs) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<DurationMs> for Timestamp {
    fn add_assign(&mut self, rhs: DurationMs) {
        self.0 += rhs.0;
    }
}

impl Sub for Timestamp {
    type Output = DurationMs;

    fn sub(self, rhs: Timestamp) -> DurationMs {
        self.saturating_since(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(DurationMs::from_secs(60), DurationMs::MINUTE);
        assert_eq!(DurationMs::from_hours(24), DurationMs::DAY);
        assert_eq!(DurationMs::from_days(1), DurationMs::from_hours(24));
        let last_day = u64::MAX / DurationMs::DAY.as_millis();
        assert_eq!(
            DurationMs::from_days(last_day).as_millis(),
            last_day * DurationMs::DAY.as_millis()
        );
    }

    #[test]
    #[should_panic(expected = "DurationMs::from_days: milliseconds overflow u64")]
    fn a_day_count_past_u64_milliseconds_panics() {
        // 213_503_982_336 days wrapped to 1.40 days before the check.
        DurationMs::from_days(213_503_982_336);
    }

    #[test]
    fn timestamp_arithmetic_roundtrips() {
        let t = Timestamp(123_456);
        assert_eq!((t + DurationMs(44)) - t, DurationMs(44));
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(Timestamp(5) - Timestamp(9), DurationMs::ZERO);
        assert_eq!(Timestamp(9) - Timestamp(5), DurationMs(4));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(Timestamp(u64::MAX).checked_add(DurationMs(1)).is_none());
        assert_eq!(Timestamp(1).checked_add(DurationMs(2)), Some(Timestamp(3)));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(DurationMs(900).to_string(), "900ms");
        assert_eq!(DurationMs::from_secs(90).to_string(), "90.00s");
        assert_eq!(DurationMs::from_hours(2).to_string(), "2.00h");
        assert_eq!(DurationMs::from_days(3).to_string(), "3.00d");
    }

    #[test]
    fn as_secs_f64_scales() {
        assert!((DurationMs(1_500).as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((Timestamp(500).as_secs_f64() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn saturating_mul_caps_at_max() {
        assert_eq!(DurationMs(u64::MAX).saturating_mul(2), DurationMs(u64::MAX));
        assert_eq!(DurationMs(3).saturating_mul(4), DurationMs(12));
    }
}
