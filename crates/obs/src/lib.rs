//! Observability for the vCDN replay stack: metrics, decision traces and
//! time-series telemetry, with zero external dependencies.
//!
//! The crate has three layers, matching how a replay is observed:
//!
//! * **Metrics** — a [`MetricsRegistry`] of named counters, gauges and
//!   log-bucketed histograms behind the [`MetricsSink`] trait, with
//!   [`NoopSink`] as the free disabled mode. Each writer records into a
//!   [`Tally`] of its own, registered once; the registry merges the
//!   tallies by name when read. The policy metric family is a
//!   [`PolicyObs`] handle bundling one tally and its ids, held by the
//!   observer that drives the policy, never by the policy.
//! * **Decision traces** — one [`DecisionEvent`] per replayed request
//!   (verdict, per-policy cost terms, cache age, evictions) retained in a
//!   bounded [`EventRing`], explaining individual serve-vs-redirect
//!   choices against the paper's Eq. 5 / Eqs. 6–7 / Eqs. 13–14.
//! * **Time series** — a [`ReplaySampler`] folding a [`WindowRing`]'s
//!   closed windows into Eq. 2 efficiency, fill/redirect byte rates,
//!   occupancy and cache age per fixed interval of trace time.
//! * **Spans** — deterministic stage accounting for the sharded engine's
//!   dispatch → shard-decide → evict stages, driven by a logical
//!   dispatch clock — a request's trace index ([`span`]).
//! * **Heavy hitters** — a per-shard Space-Saving top-K sketch
//!   ([`topk::SpaceSaving`]) surfacing the hottest videos with certified
//!   error bounds, deterministically tie-broken.
//! * **Health windows** — tumbling windows on the logical trace clock
//!   ([`window`]) holding per-window counter deltas and mergeable sketch
//!   snapshots in a bounded ring, with a deterministic rules-file-driven
//!   watchdog ([`detect`]) evaluating each window as it closes.
//!
//! A [`TelemetryBundle`] gathers all of it into a deterministic JSONL
//! document (see `OBSERVABILITY.md` for the schema), and is the format's
//! one reader: [`TelemetryBundle::parse_jsonl`] accepts exactly what
//! [`TelemetryBundle::to_jsonl`] writes ([`read`]), [`check`] holds a
//! bundle to its semantic invariants and [`diff`] compares two documents
//! line for line. Everything here
//! depends only on `vcdn-types`; the replay wiring lives in `vcdn-sim`.

#![deny(missing_docs)]

mod bundle;
mod check;
pub mod detect;
mod diff;
mod event;
pub mod histogram;
mod policy_obs;
pub mod read;
mod registry;
mod sampler;
pub mod span;
pub mod topk;
pub mod window;

pub use bundle::{TelemetryBundle, SCHEMA};
pub use check::check;
pub use detect::{
    default_rules, parse_rules, render_alert_log, render_rules, AlertEvent, Rule, Severity,
    Watchdog, DEFAULT_RULES_TEXT,
};
pub use diff::diff;
pub use event::{DecisionDetail, DecisionEvent, EventRing, Verdict};
pub use histogram::HistogramSnapshot;
pub use policy_obs::PolicyObs;
pub use read::ReadError;
pub use registry::{
    MetricId, MetricKind, MetricSnapshot, MetricsRegistry, MetricsSink, NoopSink, Tally,
};
pub use sampler::{ReplaySampler, SeriesSample};
pub use span::{DispatchSpans, ShardSpans};
pub use topk::{SpaceSaving, TopKEntry, TopKRecord};
pub use window::{merge_windows, WindowFold, WindowInput, WindowRecord, WindowRing, WindowStats};
