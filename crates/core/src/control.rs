//! Dynamic `α_F2R` adjustment — the paper's §10 control-loop extension.
//!
//! "Dynamic adjustment of α_F2R, although not recommended in a wide range
//! due to the resultant cache pollution and cache churn, can be considered
//! in a small range through a control loop for better responsiveness to
//! dynamics." (§10, *CDN-wide optimality with Cafe Cache*)
//!
//! [`ControlledCafeCache`] wraps a [`CafeCache`] and, once per control
//! window, nudges the cache's internal `α` multiplicatively toward a
//! target ingress-to-egress percentage, clamped to a small band around the
//! CDN-configured base `α`. The wrapper still *reports* the base cost
//! model ([`CachePolicy::costs`]) because that is what the CDN evaluates
//! the server against; only the admission behaviour adapts.

use vcdn_types::{
    ChunkId, ChunkSize, CostModel, Decision, DurationMs, Request, Timestamp, TrafficCounter,
};

use crate::{cafe::CafeCache, policy::CachePolicy};

/// Configuration of the ingress control loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaControlConfig {
    /// Target steady ingress-to-egress percentage (e.g. 10.0).
    pub target_ingress_pct: f64,
    /// Allowed `α` band `(min, max)` — the paper recommends a *small*
    /// range around the configured value.
    pub alpha_band: (f64, f64),
    /// Control period: how much traffic is observed per adjustment.
    pub window: DurationMs,
    /// Multiplicative step per window (e.g. 0.15 ⇒ ±15 % of α per step).
    pub gain: f64,
}

impl AlphaControlConfig {
    /// A sensible default loop: hourly adjustment, ±15 % steps, band
    /// `[base/2, base·2]` around the base cost model's α.
    pub fn around(base: CostModel, target_ingress_pct: f64) -> Self {
        AlphaControlConfig {
            target_ingress_pct,
            alpha_band: (base.alpha() / 2.0, base.alpha() * 2.0),
            window: DurationMs::HOUR,
            gain: 0.15,
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.target_ingress_pct >= 0.0 && self.target_ingress_pct <= 100.0) {
            return Err("target_ingress_pct out of [0,100]".into());
        }
        let (lo, hi) = self.alpha_band;
        if !(lo > 0.0 && lo.is_finite() && hi >= lo && hi.is_finite()) {
            return Err("alpha_band invalid".into());
        }
        if self.window == DurationMs::ZERO {
            return Err("window must be > 0".into());
        }
        if !(self.gain > 0.0 && self.gain < 1.0) {
            return Err("gain must be in (0,1)".into());
        }
        Ok(())
    }
}

/// A Cafe cache whose internal `α_F2R` tracks an ingress target.
///
/// # Examples
///
/// ```
/// use vcdn_core::{CachePolicy, CafeCache, CafeConfig, control::{AlphaControlConfig, ControlledCafeCache}};
/// use vcdn_types::{ChunkSize, CostModel};
///
/// let base = CostModel::from_alpha(2.0).unwrap();
/// let inner = CafeCache::new(CafeConfig::new(64, ChunkSize::DEFAULT, base));
/// let ctl = ControlledCafeCache::try_new(inner, AlphaControlConfig::around(base, 10.0)).unwrap();
/// assert_eq!(ctl.costs().alpha(), 2.0); // reports the base model
/// assert_eq!(ctl.current_alpha(), 2.0); // starts at base
/// ```
#[derive(Debug, Clone)]
pub struct ControlledCafeCache {
    inner: CafeCache,
    control: AlphaControlConfig,
    base: CostModel,
    current_alpha: f64,
    window_traffic: TrafficCounter,
    window_end: Option<Timestamp>,
    adjustments: u64,
}

impl ControlledCafeCache {
    /// Wraps `inner` with the control loop. The inner cache's configured
    /// cost model is taken as the base (reported) model.
    ///
    /// # Errors
    ///
    /// Returns the validation message if `control` fails
    /// [`AlphaControlConfig::validate`].
    pub fn try_new(inner: CafeCache, control: AlphaControlConfig) -> Result<Self, String> {
        control.validate()?;
        let base = inner.costs();
        Ok(ControlledCafeCache {
            current_alpha: base.alpha(),
            inner,
            control,
            base,
            window_traffic: TrafficCounter::default(),
            window_end: None,
            adjustments: 0,
        })
    }

    /// The α currently applied by the inner cache.
    pub fn current_alpha(&self) -> f64 {
        self.current_alpha
    }

    /// Number of control adjustments performed so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    fn adjust(&mut self) {
        let observed = self.window_traffic.ingress_pct();
        if self.window_traffic.served_bytes() > 0 {
            let (lo, hi) = self.control.alpha_band;
            let step = 1.0 + self.control.gain;
            // Too much ingress -> raise alpha (discourage fills); too
            // little -> lower it (cheap ingress is being wasted).
            if observed > self.control.target_ingress_pct {
                self.current_alpha = (self.current_alpha * step).min(hi);
            } else {
                self.current_alpha = (self.current_alpha / step).max(lo);
            }
            // Band-clamped alpha stays finite and positive (validated at
            // construction), so from_alpha cannot fail; fall back to the
            // base model rather than carry a panic path.
            let costs = CostModel::from_alpha(self.current_alpha).unwrap_or(self.base);
            self.inner.set_costs(costs);
            self.adjustments += 1;
        }
        self.window_traffic = TrafficCounter::default();
    }
}

impl CachePolicy for ControlledCafeCache {
    fn handle_request(&mut self, request: &Request) -> Decision {
        let end = *self
            .window_end
            .get_or_insert(request.t + self.control.window);
        if request.t >= end {
            self.adjust();
            self.window_end = Some(request.t + self.control.window);
        }
        let k = self.inner.chunk_size().bytes();
        let chunks = request.chunk_len(self.inner.chunk_size());
        let decision = self.inner.handle_request(request);
        self.window_traffic.record_decision(&decision, chunks, k);
        decision
    }

    fn name(&self) -> &'static str {
        "cafe+ctl"
    }

    fn chunk_size(&self) -> ChunkSize {
        self.inner.chunk_size()
    }

    /// Reports the *base* cost model — the CDN's preference at this
    /// server, which efficiency is evaluated against — not the current
    /// internal control value.
    fn costs(&self) -> CostModel {
        self.base
    }

    fn disk_used_chunks(&self) -> u64 {
        self.inner.disk_used_chunks()
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.inner.disk_capacity_chunks()
    }

    fn contains_chunk(&self, chunk: ChunkId) -> bool {
        self.inner.contains_chunk(chunk)
    }

    fn attach_obs(&mut self, obs: vcdn_obs::PolicyObs) {
        self.inner.attach_obs(obs);
    }

    fn decision_detail(&self) -> vcdn_obs::DecisionDetail {
        self.inner.decision_detail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cafe::CafeConfig;
    use vcdn_types::{ByteRange, VideoId};

    fn req(video: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(0, 99).expect("valid"),
            Timestamp(t),
        )
    }

    fn controlled(target: f64, window_ms: u64) -> ControlledCafeCache {
        let base = CostModel::from_alpha(2.0).expect("valid");
        let k = ChunkSize::new(100).expect("non-zero");
        let inner = CafeCache::new(CafeConfig::new(8, k, base));
        ControlledCafeCache::try_new(
            inner,
            AlphaControlConfig {
                target_ingress_pct: target,
                alpha_band: (1.0, 4.0),
                window: DurationMs(window_ms),
                gain: 0.25,
            },
        )
        .expect("valid control config")
    }

    #[test]
    fn reports_base_costs_not_internal_alpha() {
        let mut c = controlled(0.0, 100);
        // Generate enough fill traffic across windows to move alpha.
        for i in 0..200u64 {
            c.handle_request(&req(i % 30, 1 + i * 20));
        }
        assert!((c.costs().alpha() - 2.0).abs() < 1e-12);
        assert!(c.adjustments() > 0);
    }

    #[test]
    fn alpha_rises_when_ingress_exceeds_target() {
        // Target 0% with sustained fill-heavy traffic: a fresh video pair
        // per window (second request gets admitted => every window has
        // ingress), so alpha must climb to the band max.
        let mut c = controlled(0.0, 100);
        let mut t = 1;
        for i in 0..300u64 {
            c.handle_request(&req(1_000 + i, t));
            c.handle_request(&req(1_000 + i, t + 10));
            t += 120; // one fresh pair per control window
        }
        assert!(
            (c.current_alpha() - 4.0).abs() < 1e-9,
            "alpha should reach the band max, got {}",
            c.current_alpha()
        );
    }

    #[test]
    fn alpha_falls_when_ingress_below_target() {
        // Target 100%: ingress can never exceed it, so alpha sinks to the
        // band minimum.
        let mut c = controlled(100.0, 100);
        for i in 0..500u64 {
            c.handle_request(&req(i % 4, 1 + i * 20));
        }
        assert!(
            (c.current_alpha() - 1.0).abs() < 1e-9,
            "alpha should reach band floor, got {}",
            c.current_alpha()
        );
    }

    #[test]
    fn band_is_never_violated() {
        let mut c = controlled(5.0, 50);
        for i in 0..2_000u64 {
            c.handle_request(&req(i % 50, 1 + i * 10));
            let a = c.current_alpha();
            assert!((1.0..=4.0 + 1e-12).contains(&a), "alpha {a} out of band");
        }
    }

    #[test]
    fn idle_windows_do_not_adjust() {
        let mut c = controlled(10.0, 100);
        // Requests all inside one window: no adjustment should occur.
        for i in 0..10u64 {
            c.handle_request(&req(i, 1 + i));
        }
        assert_eq!(c.adjustments(), 0);
        assert!((c.current_alpha() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let ok = AlphaControlConfig {
            target_ingress_pct: 10.0,
            alpha_band: (1.0, 4.0),
            window: DurationMs::HOUR,
            gain: 0.2,
        };
        assert!(ok.validate().is_ok());
        let mut bad = ok;
        bad.target_ingress_pct = 120.0;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.alpha_band = (0.0, 4.0);
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.alpha_band = (4.0, 1.0);
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.window = DurationMs::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.gain = 1.0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn around_builds_small_band() {
        let base = CostModel::from_alpha(2.0).expect("valid");
        let cfg = AlphaControlConfig::around(base, 12.0);
        assert_eq!(cfg.alpha_band, (1.0, 4.0));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn try_new_rejects_invalid_configs_instead_of_panicking() {
        let base = CostModel::from_alpha(2.0).expect("valid");
        let k = ChunkSize::new(100).expect("non-zero");
        let make_inner = || CafeCache::new(CafeConfig::new(8, k, base));
        let mut bad = AlphaControlConfig::around(base, 10.0);
        bad.gain = 1.0;
        let err = ControlledCafeCache::try_new(make_inner(), bad)
            .expect_err("invalid gain must be rejected");
        assert!(err.contains("gain"), "unexpected message: {err}");
        let mut bad = AlphaControlConfig::around(base, 10.0);
        bad.alpha_band = (0.0, 4.0);
        assert!(ControlledCafeCache::try_new(make_inner(), bad).is_err());
        assert!(
            ControlledCafeCache::try_new(make_inner(), AlphaControlConfig::around(base, 10.0))
                .is_ok()
        );
    }
}
