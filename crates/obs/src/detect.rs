//! Deterministic SLO/anomaly watchdog over a bundle's exported windows.
//!
//! [`detect`] judges the window section of a bundle — [`WindowRecord`]s in
//! index order — against a rule table and returns the alert log. Both
//! producers call it once, from [`crate::TelemetryBundle::set_windows`],
//! with the stock table [`RULES`], so a bundle's alerts are a pure
//! function of the windows it exports: byte-identical at any worker count,
//! never naming a window the bundle does not carry, and recomputed by
//! [`crate::check`] from the bundle alone. Three detector shapes cover the
//! operator questions from the paper's production setting:
//!
//! * **EWMA-baseline drift** ([`RuleOp::DropBelowEwma`] /
//!   [`RuleOp::RiseAboveEwma`]): the observed metric is compared against an
//!   `f64` exponentially weighted moving average of its own history
//!   ([`EWMA_WEIGHT`] on the newest value); a breach is an *absolute*
//!   deviation beyond the rule value (e.g. "efficiency fell ≥ 0.15 below
//!   its recent baseline"). The EWMA is seeded by the first window with
//!   requests and updated after the comparison on every such window,
//!   breaching ones included, so a sudden step change is judged against
//!   the pre-change baseline.
//! * **Absolute threshold** ([`RuleOp::Gt`]): shard skew, queue-gap p99
//!   growth, occupancy churn.
//! * **Debouncing** (`consecutive`): a rule fires only after that many
//!   consecutive breaching windows, and re-arms once the metric recovers —
//!   one alert per excursion, not one per window.
//!
//! Windows with no requests are skipped entirely: they carry no signal,
//! and letting them zero an EWMA would fire false efficiency-drop alerts
//! on every traffic gap.

use vcdn_types::json::{Json, ObjectWriter};

use crate::read::{field, float};
use crate::window::WindowRecord;

/// Weight of the newest observation in the EWMA baseline
/// (`baseline ← (1−w)·baseline + w·observed`).
pub const EWMA_WEIGHT: f64 = 0.2;

/// Alert severity. `Critical` alerts make `obs watch` exit nonzero —
/// the CI regression-gate contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a look; does not gate CI.
    Warning,
    /// An SLO breach; gates CI via `obs watch`'s exit status.
    Critical,
}

impl Severity {
    /// Canonical lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Critical => "critical",
        }
    }

    fn parse(s: &str) -> Option<Severity> {
        match s {
            "warning" => Some(Severity::Warning),
            "critical" => Some(Severity::Critical),
            _ => None,
        }
    }
}

/// Which per-window metric a rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricSel {
    /// Eq. 2 interval efficiency of the window.
    Efficiency,
    /// Redirected fraction of the window's requested bytes.
    RedirectRate,
    /// Upper bound on the window's queue-gap p99 (dispatch ticks).
    QueueGapP99,
    /// Chunks filled plus evicted in the window (disk churn).
    ChurnChunks,
    /// Per-window shard imbalance, `max/mean × 1000`.
    SkewX1000,
}

impl MetricSel {
    /// The metric's value for one exported window, over `streams` request
    /// streams (shard count; 1 for the unsharded replayer).
    pub fn value(self, w: &WindowRecord, streams: u64) -> f64 {
        match self {
            MetricSel::Efficiency => w.efficiency,
            MetricSel::RedirectRate => w.redirect_rate,
            MetricSel::QueueGapP99 => w.queue_gap_p99 as f64,
            MetricSel::ChurnChunks => w.churn_chunks() as f64,
            MetricSel::SkewX1000 => w.skew_x1000(streams) as f64,
        }
    }
}

/// How a rule compares the observed metric with its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleOp {
    /// Breach when observed < EWMA baseline − value.
    DropBelowEwma,
    /// Breach when observed > EWMA baseline + value.
    RiseAboveEwma,
    /// Breach when observed > value (absolute threshold).
    Gt,
}

/// One watchdog rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    /// Rule name, reported verbatim in alerts (e.g. `efficiency-drop`).
    pub name: &'static str,
    /// Alert severity when the rule fires.
    pub severity: Severity,
    /// The per-window metric watched.
    pub metric: MetricSel,
    /// Comparison shape.
    pub op: RuleOp,
    /// Threshold (for `Gt`) or absolute deviation vs the EWMA
    /// baseline (for the drift ops).
    pub value: f64,
    /// Debounce: fire only after this many consecutive breaching
    /// windows (≥ 1).
    pub consecutive: u32,
}

/// The stock rule table every bundle is judged by. Names are distinct:
/// they key the alert streams.
pub const RULES: [Rule; 5] = [
    Rule {
        name: "efficiency-drop",
        severity: Severity::Critical,
        metric: MetricSel::Efficiency,
        op: RuleOp::DropBelowEwma,
        value: 0.15,
        consecutive: 2,
    },
    Rule {
        name: "redirect-spike",
        severity: Severity::Critical,
        metric: MetricSel::RedirectRate,
        op: RuleOp::RiseAboveEwma,
        value: 0.2,
        consecutive: 2,
    },
    Rule {
        name: "queue-gap-p99",
        severity: Severity::Warning,
        metric: MetricSel::QueueGapP99,
        op: RuleOp::Gt,
        value: 65536.0,
        consecutive: 1,
    },
    Rule {
        name: "occupancy-churn",
        severity: Severity::Warning,
        metric: MetricSel::ChurnChunks,
        op: RuleOp::Gt,
        value: 2000.0,
        consecutive: 1,
    },
    Rule {
        name: "shard-skew",
        severity: Severity::Warning,
        metric: MetricSel::SkewX1000,
        op: RuleOp::Gt,
        value: 2500.0,
        consecutive: 3,
    },
];

/// One watchdog firing: which rule breached, on which window, and the
/// baseline/observed pair that crossed. Serialises as
/// `{"type":"alert",…}` in the telemetry bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertEvent {
    /// Index of the window that completed the breach.
    pub window: u64,
    /// Name of the rule that fired.
    pub rule: String,
    /// Severity copied from the rule.
    pub severity: Severity,
    /// The comparison baseline: the rule threshold for `Gt`, the
    /// EWMA at comparison time for the drift ops.
    pub baseline: f64,
    /// The observed metric value in the breaching window.
    pub observed: f64,
}

impl AlertEvent {
    /// Appends this alert's bundle line (newline included) to `out`.
    pub fn write_line(&self, out: &mut String) {
        ObjectWriter::new(out)
            .str("type", "alert")
            .u64("window", self.window)
            .str("rule", &self.rule)
            .str("severity", self.severity.name())
            .f64("baseline", self.baseline)
            .f64("observed", self.observed)
            .finish_line();
    }

    /// Reads the alert [`AlertEvent::write_line`] wrote.
    pub(crate) fn from_json(line: &Json) -> Result<AlertEvent, String> {
        let severity: String = field(line, "severity")?;
        Ok(AlertEvent {
            window: field(line, "window")?,
            rule: field(line, "rule")?,
            severity: Severity::parse(&severity)
                .ok_or_else(|| format!("field `severity`: unknown severity {severity:?}"))?,
            baseline: float(line, "baseline")?,
            observed: float(line, "observed")?,
        })
    }
}

/// The alert log `rules` raise over `windows` (index order), with
/// `streams` request streams (shard count; 1 for the replayer). Alerts
/// come out in window order, and by rule order within a window.
pub fn detect(rules: &[Rule], windows: &[WindowRecord], streams: u64) -> Vec<AlertEvent> {
    // Per rule: the EWMA baseline (drift ops) and the breach streak.
    let mut state: Vec<(Option<f64>, u32)> = vec![(None, 0); rules.len()];
    let mut alerts = Vec::new();
    let with_requests = |w: &&WindowRecord| w.requests() > 0;
    for w in windows.iter().filter(with_requests) {
        for (rule, (ewma, streak)) in rules.iter().zip(&mut state) {
            let x = rule.metric.value(w, streams);
            let (breach, baseline) = match (rule.op, *ewma) {
                (RuleOp::Gt, _) => (x > rule.value, rule.value),
                (_, None) => (false, x),
                (RuleOp::DropBelowEwma, Some(b)) => (x < b - rule.value, b),
                (RuleOp::RiseAboveEwma, Some(b)) => (x > b + rule.value, b),
            };
            if rule.op != RuleOp::Gt {
                *ewma = Some(ewma.map_or(x, |b| b * (1.0 - EWMA_WEIGHT) + x * EWMA_WEIGHT));
            }
            if !breach {
                *streak = 0;
                continue;
            }
            *streak = streak.saturating_add(1);
            if *streak == rule.consecutive {
                alerts.push(AlertEvent {
                    window: w.index,
                    rule: rule.name.into(),
                    severity: rule.severity,
                    baseline,
                    observed: x,
                });
            }
        }
    }
    alerts
}

/// Renders an alert log as fixed-format text lines — the form pinned by
/// the flash-crowd golden (`crates/bench/goldens/`).
pub fn render_alert_log(alerts: &[AlertEvent]) -> String {
    let mut out = String::new();
    for a in alerts {
        out.push_str(&format!(
            "window {:>4} [{}] {}: observed {:.6} baseline {:.6}\n",
            a.window,
            a.severity.name(),
            a.rule,
            a.observed,
            a.baseline
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::WindowStats;
    use vcdn_types::json::Json;
    use vcdn_types::CostModel;

    fn record(w: &WindowStats) -> WindowRecord {
        WindowRecord::from_stats(w, CostModel::balanced())
    }

    fn window(index: u64, hit: u64, redirect: u64) -> WindowRecord {
        let mut w = WindowStats::empty(index);
        w.traffic.record_hit(hit);
        w.traffic.record_redirect(redirect);
        if redirect > 0 {
            w.traffic.redirected_requests += 1;
        }
        if hit > 0 {
            w.traffic.served_requests += 1;
        }
        w.max_stream_requests = w.traffic.total_requests();
        record(&w)
    }

    fn one_rule(op: RuleOp, metric: MetricSel, value: f64, consecutive: u32) -> [Rule; 1] {
        [Rule {
            name: "t",
            severity: Severity::Critical,
            metric,
            op,
            value,
            consecutive,
        }]
    }

    #[test]
    fn default_rules_parse() {
        let drift = |name: &str, metric: MetricSel, op: RuleOp| {
            RULES.iter().any(|r| {
                (r.name, r.severity, r.metric, r.op) == (name, Severity::Critical, metric, op)
            })
        };
        assert!(drift(
            "efficiency-drop",
            MetricSel::Efficiency,
            RuleOp::DropBelowEwma
        ));
        assert!(drift(
            "redirect-spike",
            MetricSel::RedirectRate,
            RuleOp::RiseAboveEwma
        ));
        assert!(RULES
            .iter()
            .all(|r| r.consecutive >= 1 && r.value.is_finite()));
    }

    #[test]
    fn duplicate_rule_names_are_rejected_with_the_line() {
        // Names key alert streams: two rules of one name would read as one.
        for (i, a) in RULES.iter().enumerate() {
            for b in &RULES[i + 1..] {
                assert_ne!(a.name, b.name);
            }
        }
    }

    #[test]
    fn threshold_rule_fires_and_debounces() {
        let rules = one_rule(RuleOp::RiseAboveEwma, MetricSel::RedirectRate, 0.3, 2);
        // Baseline windows ~0 redirect rate, then a sustained spike.
        let ws = [
            window(0, 100, 0),
            window(1, 100, 0),
            window(2, 10, 90), // breach 1
            window(3, 10, 90), // breach 2 -> fires here
            window(4, 10, 90), // still breaching: no second alert
            window(5, 100, 0), // recovery re-arms
        ];
        let alerts = detect(&rules, &ws, 1);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 3);
        assert_eq!(alerts[0].rule, "t");
        assert!(alerts[0].observed > 0.8);
        assert!(alerts[0].baseline < 0.2);
    }

    #[test]
    fn efficiency_drop_judged_against_pre_change_baseline() {
        let rules = one_rule(RuleOp::DropBelowEwma, MetricSel::Efficiency, 0.15, 1);
        let ws = [
            window(0, 100, 0), // seeds EWMA at 1.0 (no breach possible)
            window(1, 100, 0),
            window(2, 20, 80), // efficiency craters -> fires
        ];
        let alerts = detect(&rules, &ws, 1);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 2);
        assert!((alerts[0].baseline - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_windows_do_not_poison_the_ewma() {
        let rules = one_rule(RuleOp::DropBelowEwma, MetricSel::Efficiency, 0.15, 1);
        let ws = [
            window(0, 100, 0),
            record(&WindowStats::empty(1)), // skipped: no false drop to 0.0
            window(2, 100, 0),
        ];
        let alerts = detect(&rules, &ws, 1);
        assert!(alerts.is_empty());
    }

    #[test]
    fn absolute_threshold_rules_use_rule_value_as_baseline() {
        let rules = one_rule(RuleOp::Gt, MetricSel::ChurnChunks, 50.0, 1);
        let mut w = window(0, 100, 0);
        w.filled_chunks = 40;
        w.evicted_chunks = 30;
        let alerts = detect(&rules, &[w], 1);
        assert_eq!(alerts.len(), 1);
        assert!((alerts[0].baseline - 50.0).abs() < 1e-9);
        assert!((alerts[0].observed - 70.0).abs() < 1e-9);
    }

    #[test]
    fn alert_json_and_log_shapes() {
        let a = AlertEvent {
            window: 7,
            rule: "efficiency-drop".into(),
            severity: Severity::Critical,
            baseline: 0.75,
            observed: 0.41,
        };
        let mut line = String::new();
        a.write_line(&mut line);
        let parsed = vcdn_types::json::parse(&line).unwrap();
        assert_eq!(parsed.get("type").and_then(Json::as_str), Some("alert"));
        assert_eq!(parsed.get("window"), Some(&Json::Int(7)));
        assert_eq!(
            parsed.get("severity").and_then(Json::as_str),
            Some("critical")
        );
        let log = render_alert_log(std::slice::from_ref(&a));
        assert_eq!(
            log,
            "window    7 [critical] efficiency-drop: observed 0.410000 baseline 0.750000\n"
        );
    }
}
