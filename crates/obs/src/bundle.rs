//! The telemetry bundle: one replay's observability output as JSONL.
//!
//! A bundle collects everything a replay observed — run metadata, the
//! metric snapshots, the heavy-hitter top-K records, the health windows
//! and watchdog alerts, the time series and the retained decision events
//! — and serialises it as one JSON object per line. Line order is fixed
//! (meta, metrics in registration order, topk by shard then rank,
//! windows by index, alerts in window order, samples in time order,
//! events in replay order), and every metric kind is deterministic, so two
//! identical replays produce byte-identical bundles regardless of worker
//! count or machine. See `OBSERVABILITY.md` for the
//! line-by-line schema.

use vcdn_types::json::{FromJson, Json, ObjectWriter};
use vcdn_types::CostModel;

use crate::detect::{detect, AlertEvent, RULES};
use crate::event::DecisionEvent;
use crate::histogram::HistogramSnapshot;
use crate::read::field;
use crate::registry::{MetricKind, MetricSnapshot};
use crate::sampler::SeriesSample;
use crate::topk::TopKRecord;
use crate::window::{WindowRecord, WindowStats};

/// Schema tag written into every bundle's meta line.
pub const SCHEMA: &str = "vcdn-telemetry/1";

impl MetricSnapshot {
    /// Appends this metric's bundle line (newline included) to `out`.
    pub fn write_line(&self, out: &mut String) {
        let obj = ObjectWriter::new(out)
            .str("type", "metric")
            .str("name", &self.name)
            .str("kind", self.kind.name())
            .u64("value", self.value);
        match &self.histogram {
            Some(hist) => obj.u64("sum", hist.sum).u64s("buckets", &hist.buckets),
            None => obj,
        }
        .finish_line();
    }

    /// Reads the metric [`MetricSnapshot::write_line`] wrote.
    pub(crate) fn from_json(line: &Json) -> Result<MetricSnapshot, String> {
        use MetricKind::{Counter, Gauge, Histogram};
        let name: String = field(line, "kind")?;
        let kinds = [Counter, Gauge, Histogram];
        let kind = (kinds.into_iter().find(|k| k.name() == name))
            .ok_or_else(|| format!("field `kind`: unknown metric kind {name:?}"))?;
        let value = field(line, "value")?;
        let histogram = match kind {
            Counter | Gauge => None,
            Histogram => Some(HistogramSnapshot {
                count: value,
                sum: field(line, "sum")?,
                buckets: field(line, "buckets")?,
            }),
        };
        Ok(MetricSnapshot {
            name: field(line, "name")?,
            kind,
            value,
            sum: histogram.as_ref().map_or(0, |hist| hist.sum),
            histogram,
        })
    }
}

/// One replay's complete telemetry, ready to serialise.
#[derive(Debug, Clone, Default)]
pub struct TelemetryBundle {
    /// Free-form run metadata merged into the bundle's first line
    /// (policy name, trace profile, scale, interval — whatever identifies
    /// the run).
    pub meta: Vec<(String, Json)>,
    /// Metric snapshots in registration order.
    pub metrics: Vec<MetricSnapshot>,
    /// Heavy-hitter records, ordered by shard then rank.
    pub topk: Vec<TopKRecord>,
    /// Health windows in index order (merged across shards).
    pub windows: Vec<WindowRecord>,
    /// The watchdog's alerts over [`TelemetryBundle::windows`], in window
    /// order.
    pub alerts: Vec<AlertEvent>,
    /// Closed windows the bounded ring evicted before export.
    pub windows_dropped: u64,
    /// Time series in time order.
    pub series: Vec<SeriesSample>,
    /// Retained decision events in replay order.
    pub events: Vec<DecisionEvent>,
    /// Events the ring displaced before export.
    pub events_dropped: u64,
}

impl TelemetryBundle {
    /// An empty bundle.
    pub fn new() -> TelemetryBundle {
        TelemetryBundle::default()
    }

    /// Adds a metadata entry to the meta line.
    pub fn meta_entry(&mut self, key: &str, value: Json) -> &mut Self {
        self.meta.push((key.to_string(), value));
        self
    }

    /// The meta entry `key`, decoded as `T`; `None` if it is absent or
    /// of another type.
    pub fn meta_get<T: FromJson>(&self, key: &str) -> Option<T> {
        let (_, value) = self.meta.iter().find(|(k, _)| k == key)?;
        T::from_json(value).ok()
    }

    /// A short name for the bundle in messages: its `cell`, `source` or
    /// `policy` meta entry, whichever exists first.
    pub fn label(&self) -> String {
        ["cell", "source", "policy"]
            .iter()
            .find_map(|key| self.meta_get(key))
            .unwrap_or_else(|| "?".into())
    }

    /// Fills the window section from `windows` (index order), flattened
    /// against `costs`, with `dropped` windows already evicted upstream,
    /// and the alert section with what [`RULES`] raise over exactly those
    /// windows from `streams` request streams (shard count; 1 for the
    /// replayer) — what [`crate::check`] recomputes.
    pub fn set_windows<'a>(
        &mut self,
        windows: impl IntoIterator<Item = &'a WindowStats>,
        costs: CostModel,
        dropped: u64,
        streams: u64,
    ) {
        self.windows = windows
            .into_iter()
            .map(|w| WindowRecord::from_stats(w, costs))
            .collect();
        self.windows_dropped = dropped;
        self.alerts = detect(&RULES, &self.windows, streams);
    }

    /// Appends the bundle's meta line: the schema tag, the caller's
    /// entries, then the section counts. The reader calls this too, to
    /// compare; it stays part of [`TelemetryBundle::to_jsonl`]'s body, as
    /// it was when that was its one caller.
    #[inline(always)]
    pub(crate) fn write_meta_line(&self, out: &mut String) {
        let head = ObjectWriter::new(out)
            .str("type", "meta")
            .str("schema", SCHEMA);
        (self.meta.iter())
            .fold(head, |obj, (key, value)| obj.raw(key, value))
            .u64("metrics", self.metrics.len() as u64)
            .u64("topk", self.topk.len() as u64)
            .u64("windows", self.windows.len() as u64)
            .u64("windows_dropped", self.windows_dropped)
            .u64("alerts", self.alerts.len() as u64)
            .u64("samples", self.series.len() as u64)
            .u64("events", self.events.len() as u64)
            .u64("events_dropped", self.events_dropped)
            .finish_line();
    }

    /// Serialises the bundle: one JSON object per line, trailing newline,
    /// fixed order (meta, metrics, topk, windows, alerts, samples,
    /// events). Every line is written straight into the output — no
    /// [`Json`] tree is built.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.write_meta_line(&mut out);
        self.metrics.iter().for_each(|m| m.write_line(&mut out));
        self.topk.iter().for_each(|r| r.write_line(&mut out));
        self.windows.iter().for_each(|w| w.write_line(&mut out));
        self.alerts.iter().for_each(|a| a.write_line(&mut out));
        self.series.iter().for_each(|s| s.write_line(&mut out));
        self.events.iter().for_each(|e| e.write_line(&mut out));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Verdict;
    use crate::registry::{MetricKind, MetricsRegistry, MetricsSink};
    use std::sync::Arc;
    use vcdn_types::json;

    fn tiny_bundle() -> TelemetryBundle {
        let reg = Arc::new(MetricsRegistry::new());
        let tally = reg.register(&[
            ("demo.fill_chunks_total".into(), MetricKind::Counter),
            ("demo.eviction_batch_chunks".into(), MetricKind::Histogram),
        ]);
        let [fills, batches] = tally.ids();
        tally.add(fills, 9);
        tally.observe(batches, 4);

        let mut bundle = TelemetryBundle::new();
        bundle.meta_entry("policy", Json::Str("demo".into()));
        bundle.metrics = reg.snapshot();
        bundle.topk.push(TopKRecord {
            shard: 0,
            rank: 1,
            video: 12,
            count: 6,
            err: 2,
        });
        let mut w = crate::window::WindowStats::empty(0);
        w.traffic.record_hit(80);
        w.traffic.served_requests += 1;
        w.max_stream_requests = 1;
        bundle.windows.push(WindowRecord::from_stats(
            &w,
            vcdn_types::CostModel::balanced(),
        ));
        bundle.alerts.push(AlertEvent {
            window: 0,
            rule: "demo-rule".into(),
            severity: crate::detect::Severity::Warning,
            baseline: 0.9,
            observed: 0.5,
        });
        bundle.events.push(DecisionEvent {
            seq: 0,
            t_ms: 10,
            video: 3,
            chunk: 0,
            chunks: 2,
            policy: "demo",
            verdict: Verdict::Serve {
                hit_chunks: 1,
                filled_chunks: 1,
            },
            cost_serve: None,
            cost_redirect: None,
            cache_age_ms: Some(5.0),
            evicted: 0,
        });
        bundle
    }

    #[test]
    fn every_line_parses_and_order_is_fixed() {
        let jsonl = tiny_bundle().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 7);
        let types: Vec<String> = lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("type")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(
            types,
            vec!["meta", "metric", "metric", "topk", "window", "alert", "event"]
        );
    }

    #[test]
    fn meta_line_counts_sections() {
        let jsonl = tiny_bundle().to_jsonl();
        let meta = json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(meta.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(meta.get("policy").and_then(Json::as_str), Some("demo"));
        assert_eq!(meta.get("metrics"), Some(&Json::Int(2)));
        assert_eq!(meta.get("topk"), Some(&Json::Int(1)));
        assert_eq!(meta.get("windows"), Some(&Json::Int(1)));
        assert_eq!(meta.get("windows_dropped"), Some(&Json::Int(0)));
        assert_eq!(meta.get("alerts"), Some(&Json::Int(1)));
        assert_eq!(meta.get("events"), Some(&Json::Int(1)));
        assert_eq!(meta.get("events_dropped"), Some(&Json::Int(0)));
    }

    #[test]
    fn counter_line_has_no_buckets_histogram_line_does() {
        let jsonl = tiny_bundle().to_jsonl();
        let lines: Vec<Json> = jsonl.lines().map(|l| json::parse(l).unwrap()).collect();
        let counter = &lines[1];
        assert_eq!(counter.get("kind").and_then(Json::as_str), Some("counter"));
        assert_eq!(counter.get("value"), Some(&Json::Int(9)));
        assert!(counter.get("buckets").is_none());
        let hist = &lines[2];
        assert_eq!(hist.get("kind").and_then(Json::as_str), Some("histogram"));
        assert_eq!(hist.get("sum"), Some(&Json::Int(4)));
        assert!(matches!(hist.get("buckets"), Some(Json::Arr(_))));
    }

    #[test]
    fn identical_bundles_serialise_identically() {
        assert_eq!(tiny_bundle().to_jsonl(), tiny_bundle().to_jsonl());
    }
}
