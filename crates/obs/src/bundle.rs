//! The telemetry bundle: one replay's observability output as JSONL.
//!
//! A bundle collects everything a replay observed — run metadata, the
//! metric snapshots, the heavy-hitter top-K records, the health windows
//! and watchdog alerts, the time series and the retained decision events
//! — and serialises it as one JSON object per line. Line order is fixed
//! (meta, metrics in registration order, topk by shard then rank,
//! windows by index, alerts in window order, samples in time order,
//! events in replay order), and by default only deterministic metrics
//! are included, so two identical replays produce byte-identical bundles
//! regardless of worker count or machine. See `OBSERVABILITY.md` for the
//! line-by-line schema.

use vcdn_types::json::{Json, ToJson};
use vcdn_types::CostModel;

use crate::detect::AlertEvent;
use crate::event::DecisionEvent;
use crate::registry::MetricSnapshot;
use crate::sampler::SeriesSample;
use crate::topk::TopKRecord;
use crate::window::{WindowRecord, WindowStats};

/// Schema tag written into every bundle's meta line.
pub const SCHEMA: &str = "vcdn-telemetry/1";

impl ToJson for MetricSnapshot {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("type".into(), Json::Str("metric".into())),
            ("name".into(), Json::Str(self.name.clone())),
            ("kind".into(), Json::Str(self.kind.name().into())),
            ("value".into(), Json::Int(self.value as i128)),
        ];
        if let Some(hist) = &self.histogram {
            fields.push(("sum".into(), Json::Int(hist.sum as i128)));
            fields.push((
                "buckets".into(),
                Json::Arr(hist.buckets.iter().map(|&b| Json::Int(b as i128)).collect()),
            ));
        }
        Json::Obj(fields)
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
    /// Watchdog alerts in window order.
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

    /// Fills the window section from `windows` (index order), flattened
    /// against `costs`, with `dropped` windows already evicted upstream.
    pub fn set_windows<'a>(
        &mut self,
        windows: impl IntoIterator<Item = &'a WindowStats>,
        costs: CostModel,
        dropped: u64,
    ) {
        self.windows = windows
            .into_iter()
            .map(|w| WindowRecord::from_stats(w, costs))
            .collect();
        self.windows_dropped = dropped;
    }

    /// The bundle's meta line as a JSON object.
    fn meta_json(&self) -> Json {
        let mut fields = vec![
            ("type".into(), Json::Str("meta".into())),
            ("schema".into(), Json::Str(SCHEMA.into())),
        ];
        fields.extend(self.meta.iter().cloned());
        fields.push(("metrics".into(), Json::Int(self.metrics.len() as i128)));
        fields.push(("topk".into(), Json::Int(self.topk.len() as i128)));
        fields.push(("windows".into(), Json::Int(self.windows.len() as i128)));
        fields.push((
            "windows_dropped".into(),
            Json::Int(self.windows_dropped as i128),
        ));
        fields.push(("alerts".into(), Json::Int(self.alerts.len() as i128)));
        fields.push(("samples".into(), Json::Int(self.series.len() as i128)));
        fields.push(("events".into(), Json::Int(self.events.len() as i128)));
        fields.push((
            "events_dropped".into(),
            Json::Int(self.events_dropped as i128),
        ));
        Json::Obj(fields)
    }

    /// Serialises the bundle: one JSON object per line, trailing newline,
    /// fixed order (meta, metrics, topk, windows, alerts, samples,
    /// events).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.meta_json().to_string());
        out.push('\n');
        for metric in &self.metrics {
            out.push_str(&metric.to_json().to_string());
            out.push('\n');
        }
        for record in &self.topk {
            out.push_str(&record.to_json().to_string());
            out.push('\n');
        }
        for window in &self.windows {
            out.push_str(&window.to_json().to_string());
            out.push('\n');
        }
        for alert in &self.alerts {
            out.push_str(&alert.to_json().to_string());
            out.push('\n');
        }
        for sample in &self.series {
            out.push_str(&sample.to_json().to_string());
            out.push('\n');
        }
        for event in &self.events {
            out.push_str(&event.to_json().to_string());
            out.push('\n');
        }
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
        let c = reg.register("demo.fill_chunks_total", MetricKind::Counter);
        reg.counter_add(c, 9);
        let h = reg.register("demo.eviction_batch_chunks", MetricKind::Histogram);
        reg.observe(h, 4);

        let mut bundle = TelemetryBundle::new();
        bundle.meta_entry("policy", Json::Str("demo".into()));
        bundle.metrics = reg.snapshot(true);
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
