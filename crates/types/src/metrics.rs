//! Primitive traffic accounting and the cache-efficiency metric (Eq. 2).
//!
//! Every requested chunk ends up in exactly one of three buckets: served
//! from cache (hit), served by cache-filling (ingress), or redirected.
//! Cache efficiency is then (paper Eq. 2, with `C_F + C_R = 2`):
//!
//! ```text
//! efficiency = 1 − (fill_bytes / requested_bytes)·C_F
//!                − (redirect_bytes / requested_bytes)·C_R   ∈ [−1, 1]
//! ```
//!
//! All accounting here is in *chunk-granularity bytes* (`chunks · K`):
//! a chunk is fetched and stored in full even when requested partially
//! (Section 4.2 of the paper), and using the same unit on all three buckets
//! keeps the identity `hit + fill + redirect = requested` exact.

use std::fmt;
use std::ops::{Add, AddAssign};

use crate::{cost::CostModel, decision::Decision};

/// Accumulated request/traffic counters for a replay (or a window of one).
///
/// # Examples
///
/// ```
/// use vcdn_types::{CostModel, TrafficCounter};
///
/// let mut t = TrafficCounter::default();
/// t.record_hit(80);
/// t.record_fill(10);
/// t.record_redirect(10);
/// let m = CostModel::balanced();
/// assert!((t.efficiency(m) - 0.8).abs() < 1e-12);
/// assert!((t.ingress_pct() - 10.0 / 90.0 * 100.0).abs() < 1e-9);
/// assert!((t.redirect_pct() - 10.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrafficCounter {
    /// Bytes served straight from cache.
    pub hit_bytes: u64,
    /// Bytes served by cache-filling from upstream (ingress).
    pub fill_bytes: u64,
    /// Bytes redirected to an alternative server.
    pub redirect_bytes: u64,
    /// Requests served locally.
    pub served_requests: u64,
    /// Requests redirected.
    pub redirected_requests: u64,
}

impl TrafficCounter {
    /// Records `bytes` served from cache.
    pub fn record_hit(&mut self, bytes: u64) {
        self.hit_bytes = self.hit_bytes.saturating_add(bytes);
    }

    /// Records `bytes` served via cache-fill (ingress).
    pub fn record_fill(&mut self, bytes: u64) {
        self.fill_bytes = self.fill_bytes.saturating_add(bytes);
    }

    /// Records `bytes` redirected away.
    pub fn record_redirect(&mut self, bytes: u64) {
        self.redirect_bytes = self.redirect_bytes.saturating_add(bytes);
    }

    /// Accounts one request's [`Decision`]: a serve adds its hit and fill
    /// chunks (× `chunk_bytes`) and one served request; a redirect adds
    /// all `request_chunks` (× `chunk_bytes`) and one redirected request.
    /// The chunk → byte products and the byte sums saturate, so a hostile
    /// trace degrades to pinned counters instead of overflowing.
    ///
    /// # Examples
    ///
    /// ```
    /// use vcdn_types::{Decision, ServeOutcome, TrafficCounter};
    ///
    /// let mut t = TrafficCounter::default();
    /// let serve = Decision::Serve(ServeOutcome {
    ///     hit_chunks: 3,
    ///     filled_chunks: 1,
    ///     evicted: Vec::new(),
    /// });
    /// t.record_decision(&serve, 4, 10);
    /// t.record_decision(&Decision::Redirect, 2, 10);
    /// assert_eq!((t.hit_bytes, t.fill_bytes, t.redirect_bytes), (30, 10, 20));
    /// assert_eq!((t.served_requests, t.redirected_requests), (1, 1));
    /// ```
    pub fn record_decision(&mut self, decision: &Decision, request_chunks: u64, chunk_bytes: u64) {
        match decision {
            Decision::Serve(o) => {
                self.record_hit(o.hit_chunks.saturating_mul(chunk_bytes));
                self.record_fill(o.filled_chunks.saturating_mul(chunk_bytes));
                self.served_requests += 1;
            }
            Decision::Redirect => {
                self.record_redirect(request_chunks.saturating_mul(chunk_bytes));
                self.redirected_requests += 1;
            }
        }
    }

    /// Total requested bytes: every requested byte is a hit, a fill or a
    /// redirect.
    pub fn requested_bytes(&self) -> u64 {
        self.hit_bytes
            .saturating_add(self.fill_bytes)
            .saturating_add(self.redirect_bytes)
    }

    /// Bytes served to users from this server (egress): hits plus fills.
    pub fn served_bytes(&self) -> u64 {
        self.hit_bytes.saturating_add(self.fill_bytes)
    }

    /// Cache efficiency per Eq. 2 of the paper, in `[-1, 1]`.
    ///
    /// Returns `0.0` when nothing was requested.
    pub fn efficiency(&self, costs: CostModel) -> f64 {
        let total = self.requested_bytes();
        if total == 0 {
            return 0.0;
        }
        let total = total as f64;
        1.0 - (self.fill_bytes as f64 / total) * costs.c_f()
            - (self.redirect_bytes as f64 / total) * costs.c_r()
    }

    /// Ingress-to-egress percentage: the fraction of *served* traffic that
    /// incurred cache-fill ("Ingress %" in the paper's Figure 3/5).
    ///
    /// Returns `0.0` when nothing was served.
    pub fn ingress_pct(&self) -> f64 {
        let served = self.served_bytes();
        if served == 0 {
            return 0.0;
        }
        self.fill_bytes as f64 / served as f64 * 100.0
    }

    /// Redirected fraction of all requested bytes, as a percentage.
    ///
    /// Returns `0.0` when nothing was requested.
    pub fn redirect_pct(&self) -> f64 {
        let total = self.requested_bytes();
        if total == 0 {
            return 0.0;
        }
        self.redirect_bytes as f64 / total as f64 * 100.0
    }

    /// Byte hit rate: fraction of requested bytes served straight from
    /// cache. Equals efficiency only when `α_F2R = 1`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.requested_bytes();
        if total == 0 {
            return 0.0;
        }
        self.hit_bytes as f64 / total as f64
    }

    /// Total requests observed.
    pub fn total_requests(&self) -> u64 {
        self.served_requests + self.redirected_requests
    }
}

impl Add for TrafficCounter {
    type Output = TrafficCounter;

    fn add(self, rhs: TrafficCounter) -> TrafficCounter {
        TrafficCounter {
            hit_bytes: self.hit_bytes.saturating_add(rhs.hit_bytes),
            fill_bytes: self.fill_bytes.saturating_add(rhs.fill_bytes),
            redirect_bytes: self.redirect_bytes.saturating_add(rhs.redirect_bytes),
            served_requests: self.served_requests + rhs.served_requests,
            redirected_requests: self.redirected_requests + rhs.redirected_requests,
        }
    }
}

impl AddAssign for TrafficCounter {
    fn add_assign(&mut self, rhs: TrafficCounter) {
        *self = *self + rhs;
    }
}

impl fmt::Display for TrafficCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hit={}B fill={}B redirect={}B ({} served / {} redirected requests)",
            self.hit_bytes,
            self.fill_bytes,
            self.redirect_bytes,
            self.served_requests,
            self.redirected_requests
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrafficCounter {
        let mut t = TrafficCounter::default();
        t.record_hit(700);
        t.record_fill(200);
        t.record_redirect(100);
        t.served_requests = 9;
        t.redirected_requests = 1;
        t
    }

    #[test]
    fn accounting_identity_holds() {
        let t = sample();
        assert_eq!(t.requested_bytes(), 1000);
        assert_eq!(t.served_bytes(), 900);
        assert_eq!(t.total_requests(), 10);
    }

    #[test]
    fn balanced_efficiency_equals_hit_fraction() {
        let t = sample();
        assert!((t.efficiency(CostModel::balanced()) - 0.7).abs() < 1e-12);
        assert!((t.hit_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn constrained_efficiency_penalises_ingress_more() {
        let t = sample();
        let alpha2 = CostModel::from_alpha(2.0).unwrap();
        // 1 - 0.2*(4/3) - 0.1*(2/3) = 1 - 0.26667 - 0.06667 = 0.66667.
        assert!(
            (t.efficiency(alpha2) - (1.0 - 0.2 * (4.0 / 3.0) - 0.1 * (2.0 / 3.0))).abs() < 1e-12
        );
        assert!(t.efficiency(alpha2) < t.efficiency(CostModel::balanced()));
    }

    #[test]
    fn efficiency_bounds() {
        // All fills, alpha -> large: efficiency approaches 1 - C_F -> -1.
        let mut t = TrafficCounter::default();
        t.record_fill(100);
        let m = CostModel::from_alpha(1e9).unwrap();
        assert!(t.efficiency(m) > -1.0 - 1e-9);
        assert!(t.efficiency(m) < -0.99);
        // All hits: efficiency 1.
        let mut t = TrafficCounter::default();
        t.record_hit(100);
        assert_eq!(t.efficiency(CostModel::balanced()), 1.0);
    }

    #[test]
    fn empty_counters_report_zero() {
        let t = TrafficCounter::default();
        assert_eq!(t.efficiency(CostModel::balanced()), 0.0);
        assert_eq!(t.ingress_pct(), 0.0);
        assert_eq!(t.redirect_pct(), 0.0);
        assert_eq!(t.hit_rate(), 0.0);
    }

    #[test]
    fn requests_without_bytes_report_finite_zero() {
        // A counter can legitimately hold requests but zero bytes (e.g. a
        // telemetry interval whose only requests were zero-length). Every
        // derived ratio must be 0.0 — never NaN from a 0/0.
        let t = TrafficCounter {
            served_requests: 3,
            redirected_requests: 2,
            ..TrafficCounter::default()
        };
        assert_eq!(t.requested_bytes(), 0);
        assert_eq!(t.total_requests(), 5);
        for costs in [CostModel::balanced(), CostModel::from_alpha(2.0).unwrap()] {
            let e = t.efficiency(costs);
            assert!(e.is_finite());
            assert_eq!(e, 0.0);
        }
        assert_eq!(t.ingress_pct(), 0.0);
        assert_eq!(t.redirect_pct(), 0.0);
        assert_eq!(t.hit_rate(), 0.0);
    }

    #[test]
    fn percentages_match_definitions() {
        let t = sample();
        assert!((t.ingress_pct() - 200.0 / 900.0 * 100.0).abs() < 1e-9);
        assert!((t.redirect_pct() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn addition_accumulates_fieldwise() {
        let mut a = sample();
        let b = sample();
        a += b;
        assert_eq!(a.requested_bytes(), 2000);
        assert_eq!(a.total_requests(), 20);
    }
}
