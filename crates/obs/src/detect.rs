//! Deterministic SLO/anomaly watchdog over the window plane.
//!
//! A [`Watchdog`] evaluates a parsed rule set against each
//! [`WindowStats`] the moment it closes (hook it into
//! [`crate::WindowRing::record`]'s `on_close`), so detection is
//! streaming, bounded-memory, and a pure function of the window sequence
//! — the alert log is byte-identical at any worker count. Three detector
//! shapes cover the operator questions from the paper's production
//! setting:
//!
//! * **EWMA-baseline drift** (`drop` / `rise`): the observed metric is
//!   compared against an exponentially weighted moving average of its own
//!   history; a breach is an *absolute* deviation beyond the rule value
//!   (e.g. "efficiency fell ≥ 0.15 below its recent baseline"). The EWMA
//!   is seeded by the first non-empty window and updated after the
//!   comparison, so a sudden step change is judged against the
//!   pre-change baseline.
//! * **Absolute threshold** (`gt` / `lt`): shard skew, queue-gap p99
//!   growth, occupancy churn.
//! * **Debouncing** (`for N`): a rule fires only after `N` consecutive
//!   breaching windows, and re-arms once the metric recovers — one alert
//!   per excursion, not one per window.
//!
//! Rules are parsed from a tiny text file (`results/default.rules`,
//! embedded as [`DEFAULT_RULES_TEXT`]), never hardcoded; see
//! [`parse_rules`] for the grammar. Empty windows are skipped entirely:
//! they carry no signal, and letting them zero an EWMA would fire false
//! efficiency-drop alerts on every traffic gap.

use vcdn_types::json::{Json, ObjectWriter};
use vcdn_types::CostModel;

use crate::read::{field, float};
use crate::window::WindowStats;

/// The default rule set shipped in-repo (`results/default.rules`).
pub const DEFAULT_RULES_TEXT: &str = include_str!("../../../results/default.rules");

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
    /// Canonical lowercase name used in the rules grammar and exports.
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
    /// Canonical name used in the rules grammar.
    pub fn name(self) -> &'static str {
        match self {
            MetricSel::Efficiency => "efficiency",
            MetricSel::RedirectRate => "redirect_rate",
            MetricSel::QueueGapP99 => "queue_gap_p99",
            MetricSel::ChurnChunks => "churn_chunks",
            MetricSel::SkewX1000 => "skew_x1000",
        }
    }

    fn parse(s: &str) -> Option<MetricSel> {
        match s {
            "efficiency" => Some(MetricSel::Efficiency),
            "redirect_rate" => Some(MetricSel::RedirectRate),
            "queue_gap_p99" => Some(MetricSel::QueueGapP99),
            "churn_chunks" => Some(MetricSel::ChurnChunks),
            "skew_x1000" => Some(MetricSel::SkewX1000),
            _ => None,
        }
    }

    /// The metric's value for one window, under `costs` and `streams`
    /// request streams (shard count; 1 for the unsharded replayer).
    pub fn value(self, w: &WindowStats, costs: CostModel, streams: u64) -> f64 {
        match self {
            MetricSel::Efficiency => w.efficiency(costs),
            MetricSel::RedirectRate => w.redirect_rate(),
            MetricSel::QueueGapP99 => w.queue_gap.quantile_upper_bound(0.99) as f64,
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
    /// Breach when observed < value (absolute threshold).
    Lt,
}

impl RuleOp {
    /// Canonical name used in the rules grammar.
    pub fn name(self) -> &'static str {
        match self {
            RuleOp::DropBelowEwma => "drop",
            RuleOp::RiseAboveEwma => "rise",
            RuleOp::Gt => "gt",
            RuleOp::Lt => "lt",
        }
    }

    fn parse(s: &str) -> Option<RuleOp> {
        match s {
            "drop" => Some(RuleOp::DropBelowEwma),
            "rise" => Some(RuleOp::RiseAboveEwma),
            "gt" => Some(RuleOp::Gt),
            "lt" => Some(RuleOp::Lt),
            _ => None,
        }
    }

    /// Whether the op tracks an EWMA baseline (drift detector) rather
    /// than a fixed threshold.
    pub fn is_drift(self) -> bool {
        matches!(self, RuleOp::DropBelowEwma | RuleOp::RiseAboveEwma)
    }
}

/// One parsed watchdog rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    /// Rule name, reported verbatim in alerts (e.g. `efficiency-drop`).
    pub name: String,
    /// Alert severity when the rule fires.
    pub severity: Severity,
    /// The per-window metric watched.
    pub metric: MetricSel,
    /// Comparison shape.
    pub op: RuleOp,
    /// Threshold (for `gt`/`lt`) or absolute deviation vs the EWMA
    /// baseline (for `drop`/`rise`).
    pub value: f64,
    /// Debounce: fire only after this many consecutive breaching
    /// windows (≥ 1).
    pub consecutive: u32,
}

/// Parses a rules file. Grammar, one rule per line (`#` comments,
/// blank lines ignored):
///
/// ```text
/// rule <name> <severity> <metric> <op> <value> [for <N>]
/// ```
///
/// with `severity ∈ {warning, critical}`, `metric ∈ {efficiency,
/// redirect_rate, queue_gap_p99, churn_chunks, skew_x1000}` and
/// `op ∈ {drop, rise, gt, lt}`.
///
/// # Errors
///
/// Returns a message naming the offending line on any syntax error,
/// unknown keyword, non-finite value, `for 0`, or duplicate rule name.
/// An empty (or comment-only) file parses to an empty rule set.
pub fn parse_rules(text: &str) -> Result<Vec<Rule>, String> {
    let mut rules = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let err = |msg: &str| format!("rules line {}: {msg}: `{line}`", lineno + 1);
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks[0] != "rule" {
            return Err(err("expected `rule`"));
        }
        if toks.len() != 6 && toks.len() != 8 {
            return Err(err(
                "expected `rule <name> <severity> <metric> <op> <value> [for <N>]`",
            ));
        }
        let severity = Severity::parse(toks[2]).ok_or_else(|| err("unknown severity"))?;
        let metric = MetricSel::parse(toks[3]).ok_or_else(|| err("unknown metric"))?;
        let op = RuleOp::parse(toks[4]).ok_or_else(|| err("unknown op"))?;
        let value: f64 = toks[5].parse().map_err(|_| err("bad value"))?;
        if !value.is_finite() {
            return Err(err("value must be finite"));
        }
        let consecutive = if toks.len() == 8 {
            if toks[6] != "for" {
                return Err(err("expected `for <N>`"));
            }
            let n: u32 = toks[7].parse().map_err(|_| err("bad window count"))?;
            if n == 0 {
                return Err(err("`for` count must be >= 1"));
            }
            n
        } else {
            1
        };
        // Rule names key alert streams and re-arm state downstream, so a
        // duplicate would silently merge two excursion trackers. Reject it
        // here with the offending line rather than last-wins later.
        if let Some(prev) = rules.iter().position(|r: &Rule| r.name == toks[1]) {
            return Err(err(&format!(
                "duplicate rule name `{}` (first defined by rule {})",
                toks[1],
                prev + 1
            )));
        }
        rules.push(Rule {
            name: toks[1].to_string(),
            severity,
            metric,
            op,
            value,
            consecutive,
        });
    }
    Ok(rules)
}

/// Renders rules back to canonical grammar text (always including the
/// `for N` clause), such that `parse_rules(render_rules(r)) == r` — the
/// round-trip `obs check --rules` validates.
pub fn render_rules(rules: &[Rule]) -> String {
    let mut out = String::new();
    for r in rules {
        out.push_str(&format!(
            "rule {} {} {} {} {} for {}\n",
            r.name,
            r.severity.name(),
            r.metric.name(),
            r.op.name(),
            r.value,
            r.consecutive
        ));
    }
    out
}

/// The default rule set, parsed from the embedded
/// `results/default.rules`.
///
/// # Panics
///
/// Panics if the in-repo rules file fails to parse (a build-time asset
/// defect; covered by a unit test).
pub fn default_rules() -> Vec<Rule> {
    parse_rules(DEFAULT_RULES_TEXT).expect("in-repo default.rules must parse")
}

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
    /// The comparison baseline: the rule threshold for `gt`/`lt`, the
    /// EWMA at comparison time for `drop`/`rise`.
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

#[derive(Debug, Clone, Default)]
struct RuleState {
    ewma: Option<f64>,
    streak: u32,
}

/// Streaming rule evaluator: feed it every closed window in order and
/// collect the deterministic alert log.
#[derive(Debug, Clone)]
pub struct Watchdog {
    rules: Vec<Rule>,
    costs: CostModel,
    streams: u64,
    state: Vec<RuleState>,
    alerts: Vec<AlertEvent>,
}

impl Watchdog {
    /// A watchdog over `rules`, evaluating metrics under `costs` with
    /// `streams` request streams (shard count; 1 for the replayer).
    pub fn new(rules: Vec<Rule>, costs: CostModel, streams: u64) -> Watchdog {
        let state = vec![RuleState::default(); rules.len()];
        Watchdog {
            rules,
            costs,
            streams,
            state,
            alerts: Vec::new(),
        }
    }

    /// Evaluates every rule against one closed window. Empty windows
    /// are skipped: they carry no signal and must not poison EWMAs.
    pub fn on_window(&mut self, w: &WindowStats) {
        if w.is_empty() {
            return;
        }
        for (rule, st) in self.rules.iter().zip(self.state.iter_mut()) {
            let x = rule.metric.value(w, self.costs, self.streams);
            let (breach, baseline) = match rule.op {
                RuleOp::Gt => (x > rule.value, rule.value),
                RuleOp::Lt => (x < rule.value, rule.value),
                RuleOp::DropBelowEwma => match st.ewma {
                    None => (false, x),
                    Some(b) => (x < b - rule.value, b),
                },
                RuleOp::RiseAboveEwma => match st.ewma {
                    None => (false, x),
                    Some(b) => (x > b + rule.value, b),
                },
            };
            if rule.op.is_drift() {
                st.ewma = Some(match st.ewma {
                    None => x,
                    Some(b) => b * (1.0 - EWMA_WEIGHT) + x * EWMA_WEIGHT,
                });
            }
            if breach {
                st.streak += 1;
                if st.streak == rule.consecutive {
                    self.alerts.push(AlertEvent {
                        window: w.index,
                        rule: rule.name.clone(),
                        severity: rule.severity,
                        baseline,
                        observed: x,
                    });
                }
            } else {
                st.streak = 0;
            }
        }
    }

    /// Alerts emitted so far, in window order.
    pub fn alerts(&self) -> &[AlertEvent] {
        &self.alerts
    }

    /// Consumes the watchdog, returning its alert log.
    pub fn into_alerts(self) -> Vec<AlertEvent> {
        self.alerts
    }

    /// Batch evaluation: runs a fresh watchdog over an already-merged
    /// window sequence (the engine path, where windows are folded across
    /// shards at export).
    pub fn run(
        rules: &[Rule],
        costs: CostModel,
        streams: u64,
        windows: &[WindowStats],
    ) -> Vec<AlertEvent> {
        let mut dog = Watchdog::new(rules.to_vec(), costs, streams);
        for w in windows {
            dog.on_window(w);
        }
        dog.into_alerts()
    }
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
    use vcdn_types::json::Json;

    fn window(index: u64, hit: u64, redirect: u64) -> WindowStats {
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
        w
    }

    fn one_rule(op: RuleOp, metric: MetricSel, value: f64, consecutive: u32) -> Vec<Rule> {
        vec![Rule {
            name: "t".into(),
            severity: Severity::Critical,
            metric,
            op,
            value,
            consecutive,
        }]
    }

    #[test]
    fn default_rules_parse() {
        let rules = default_rules();
        assert!(rules.len() >= 4);
        assert!(rules.iter().any(|r| r.name == "efficiency-drop"));
        assert!(rules.iter().any(|r| r.name == "redirect-spike"));
    }

    #[test]
    fn rules_round_trip_through_render() {
        let rules = default_rules();
        let rendered = render_rules(&rules);
        assert_eq!(parse_rules(&rendered).unwrap(), rules);
    }

    #[test]
    fn parse_errors_name_the_line() {
        for bad in [
            "rule",
            "nope x",
            "rule a sev efficiency gt 1",
            "rule a warning nope gt 1",
            "rule a warning efficiency nope 1",
            "rule a warning efficiency gt abc",
            "rule a warning efficiency gt 1 for 0",
            "rule a warning efficiency gt 1 until 3",
        ] {
            let text = format!("# leading comment\n{bad}\n");
            let err = parse_rules(&text).unwrap_err();
            assert!(err.contains("line 2"), "{bad} -> {err}");
        }
        // Comments and blanks parse to nothing.
        assert_eq!(parse_rules("# only\n\n  \n").unwrap(), vec![]);
    }

    #[test]
    fn empty_rules_file_parses_to_no_rules() {
        assert_eq!(parse_rules("").unwrap(), vec![]);
        assert_eq!(parse_rules("\n").unwrap(), vec![]);
    }

    #[test]
    fn duplicate_rule_names_are_rejected_with_the_line() {
        let text = "rule a warning efficiency gt 1\n\
                    rule b warning efficiency gt 2\n\
                    rule a critical redirect_rate lt 3\n";
        let err = parse_rules(text).unwrap_err();
        assert!(err.contains("line 3"), "{err}");
        assert!(err.contains("duplicate rule name `a`"), "{err}");
        assert!(err.contains("first defined by rule 1"), "{err}");
        // Distinct names with otherwise identical bodies stay legal.
        let ok = "rule a warning efficiency gt 1\nrule b warning efficiency gt 1\n";
        assert_eq!(parse_rules(ok).unwrap().len(), 2);
    }

    #[test]
    fn threshold_rule_fires_and_debounces() {
        let rules = one_rule(RuleOp::RiseAboveEwma, MetricSel::RedirectRate, 0.3, 2);
        // Baseline windows ~0 redirect rate, then a sustained spike.
        let ws: Vec<WindowStats> = vec![
            window(0, 100, 0),
            window(1, 100, 0),
            window(2, 10, 90), // breach 1
            window(3, 10, 90), // breach 2 -> fires here
            window(4, 10, 90), // still breaching: no second alert
            window(5, 100, 0), // recovery re-arms
        ];
        let alerts = Watchdog::run(&rules, CostModel::balanced(), 1, &ws);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 3);
        assert_eq!(alerts[0].rule, "t");
        assert!(alerts[0].observed > 0.8);
        assert!(alerts[0].baseline < 0.2);
    }

    #[test]
    fn efficiency_drop_judged_against_pre_change_baseline() {
        let rules = one_rule(RuleOp::DropBelowEwma, MetricSel::Efficiency, 0.15, 1);
        let ws: Vec<WindowStats> = vec![
            window(0, 100, 0), // seeds EWMA at 1.0 (no breach possible)
            window(1, 100, 0),
            window(2, 20, 80), // efficiency craters -> fires
        ];
        let alerts = Watchdog::run(&rules, CostModel::balanced(), 1, &ws);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].window, 2);
        assert!((alerts[0].baseline - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_windows_do_not_poison_the_ewma() {
        let rules = one_rule(RuleOp::DropBelowEwma, MetricSel::Efficiency, 0.15, 1);
        let ws: Vec<WindowStats> = vec![
            window(0, 100, 0),
            WindowStats::empty(1), // skipped: no false drop to 0.0
            window(2, 100, 0),
        ];
        let alerts = Watchdog::run(&rules, CostModel::balanced(), 1, &ws);
        assert!(alerts.is_empty());
    }

    #[test]
    fn absolute_threshold_rules_use_rule_value_as_baseline() {
        let rules = one_rule(RuleOp::Gt, MetricSel::ChurnChunks, 50.0, 1);
        let mut w = window(0, 100, 0);
        w.filled_chunks = 40;
        w.evicted_chunks = 30;
        let alerts = Watchdog::run(&rules, CostModel::balanced(), 1, &[w]);
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
