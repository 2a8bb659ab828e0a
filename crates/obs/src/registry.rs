//! The metrics registry: named counters, gauges and log-bucketed
//! histograms behind the [`MetricsSink`] trait.
//!
//! Design constraints, in order:
//!
//! 1. **Lock-free on the hot path.** Every update
//!    ([`MetricsSink::counter_add`], [`MetricsSink::gauge_set`],
//!    [`MetricsSink::observe`]) is at most two atomic operations on a
//!    pre-allocated slot — no locks, no allocation — and an update that
//!    would change nothing (adding 0) is no atomic at all: a served hit is
//!    three read-modify-writes, not six. Only [`MetricsSink::register`]
//!    (called at attach time, never per request) takes a mutex.
//! 2. **Zero cost when disabled.** [`NoopSink`] answers
//!    [`MetricsSink::enabled`] with `false`; instrumented code gates its
//!    bookkeeping on that flag, so a bench replay with the no-op sink
//!    stays allocation-free and at full throughput.
//! 3. **Deterministic export.** [`MetricsRegistry::snapshot`] returns
//!    metrics in registration order with plain integer values, so a
//!    per-replay registry serialises byte-identically across runs and
//!    worker counts. Wall-clock-derived metrics are registered as
//!    [`MetricKind::TimingHistogram`] and can be filtered out of
//!    deterministic exports.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::histogram::{bucket_index, HistogramSnapshot, BUCKETS};

/// What a registered metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing sum (`counter_add`).
    Counter,
    /// A last-write-wins instantaneous value (`gauge_set`).
    Gauge,
    /// A log-bucketed distribution of deterministic values (`observe`),
    /// e.g. fill chunks per request or eviction batch sizes.
    Histogram,
    /// A log-bucketed distribution of wall-clock-derived values
    /// (`observe`), e.g. decision latency in nanoseconds. Excluded from
    /// deterministic exports because timings differ across machines and
    /// runs.
    TimingHistogram,
}

impl MetricKind {
    /// Short lowercase name used in JSONL exports.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::TimingHistogram => "timing_histogram",
        }
    }

    /// Whether the metric's values are reproducible across identical
    /// replays (everything except wall-clock timings).
    pub fn deterministic(self) -> bool {
        !matches!(self, MetricKind::TimingHistogram)
    }
}

/// Opaque handle to a registered metric; indexes the registry's slot
/// table. Obtained from [`MetricsSink::register`] and passed back to the
/// update methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(pub(crate) u32);

impl MetricId {
    /// The id every [`NoopSink`] registration returns. Updates against it
    /// on a real registry are ignored (slot 0 is reserved as a sink-hole),
    /// so mixing a handle from a no-op attach into a live registry cannot
    /// corrupt named metrics.
    pub const NOOP: MetricId = MetricId(0);
}

/// The sink instrumented code writes through.
///
/// The hot-path methods take `&self` and must be cheap and thread-safe;
/// [`MetricsRegistry`] implements them as one or two atomic operations.
/// Instrumented code holds an `Arc<dyn MetricsSink>` plus the
/// [`MetricId`]s it registered up front.
pub trait MetricsSink: Send + Sync {
    /// Whether this sink records anything. Instrumentation gates optional
    /// bookkeeping (e.g. reading the clock for latency histograms) on
    /// this, so the no-op sink costs one predictable branch.
    fn enabled(&self) -> bool;

    /// Registers (or looks up) a metric by name. Not a hot-path method:
    /// call it once at attach time and keep the returned id. Registering
    /// the same name twice returns the same id; the kind must match.
    fn register(&self, name: &str, kind: MetricKind) -> MetricId;

    /// Adds `delta` to a counter.
    fn counter_add(&self, id: MetricId, delta: u64);

    /// Sets a gauge to `value`.
    fn gauge_set(&self, id: MetricId, value: u64);

    /// Records `value` into a histogram.
    fn observe(&self, id: MetricId, value: u64);
}

/// A sink that records nothing and reports itself disabled.
///
/// [`NoopSink::shared`] returns a process-wide instance so detached
/// policies don't allocate one each.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl NoopSink {
    /// A shared no-op sink.
    pub fn shared() -> Arc<NoopSink> {
        static SHARED: OnceLock<Arc<NoopSink>> = OnceLock::new();
        SHARED.get_or_init(|| Arc::new(NoopSink)).clone()
    }
}

impl MetricsSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn register(&self, _name: &str, _kind: MetricKind) -> MetricId {
        MetricId::NOOP
    }

    fn counter_add(&self, _id: MetricId, _delta: u64) {}

    fn gauge_set(&self, _id: MetricId, _value: u64) {}

    fn observe(&self, _id: MetricId, _value: u64) {}
}

/// One metric's pre-allocated atomic storage.
///
/// Counters and gauges use `value`; histograms use `sum` as the sample sum
/// and the per-bucket counts — their sample count is the sum of the
/// buckets, so a reader can never see the two disagree.
struct Slot {
    value: AtomicU64,
    sum: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            value: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Registration-time metadata, guarded by a mutex (cold path only).
struct Names {
    /// `(name, kind)` per live slot, indexed by `MetricId - 1`.
    entries: Vec<(String, MetricKind)>,
}

/// The concrete sink: a fixed-capacity table of atomic slots.
///
/// Capacity is fixed at construction so the hot path indexes a stable
/// allocation without any lock. A full registry degrades gracefully:
/// [`MetricsSink::register`] returns [`MetricId::NOOP`] (updates land in
/// the slot-0 sink-hole) and bumps an overflow count that
/// [`MetricsRegistry::snapshot`] surfaces as a synthetic
/// `obs.registry_overflow` counter — observability loses a metric, the
/// replay never dies, and the loss itself is observable.
///
/// # Examples
///
/// ```
/// use vcdn_obs::{MetricKind, MetricsRegistry, MetricsSink};
///
/// let reg = MetricsRegistry::new();
/// let fills = reg.register("fill_chunks_total", MetricKind::Counter);
/// reg.counter_add(fills, 3);
/// reg.counter_add(fills, 4);
/// let snap = reg.snapshot(true);
/// assert_eq!(snap[0].name, "fill_chunks_total");
/// assert_eq!(snap[0].value, 7);
/// ```
pub struct MetricsRegistry {
    /// Slot 0 is a reserved sink-hole for [`MetricId::NOOP`]; live metrics
    /// start at slot 1.
    slots: Box<[Slot]>,
    names: Mutex<Names>,
    /// Live slot count, including the reserved slot 0.
    len: AtomicUsize,
    /// Registrations refused because every slot was taken.
    overflow: AtomicU64,
}

/// Default capacity: far above what one replay (a few dozen metrics) or
/// one fully instrumented engine registers — a 16-shard engine with span
/// accounting, per-shard sketches and per-worker timings uses ~270 slots.
/// A slot is ~0.5 KiB, so the default table stays around half a MiB.
const DEFAULT_CAPACITY: usize = 1024;

/// A metric's exported state: deterministic integers only.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSnapshot {
    /// The registered name.
    pub name: String,
    /// The registered kind.
    pub kind: MetricKind,
    /// Counter/gauge value; for histograms, the sample count.
    pub value: u64,
    /// Histogram sample sum (`0` for counters and gauges).
    pub sum: u64,
    /// Histogram bucket counts (empty for counters and gauges).
    pub histogram: Option<HistogramSnapshot>,
}

impl MetricsRegistry {
    /// Creates a registry with the default slot capacity.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a registry holding at most `capacity` metrics.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> MetricsRegistry {
        assert!(capacity > 0, "registry capacity must be > 0");
        MetricsRegistry {
            // +1 for the reserved NOOP sink-hole slot.
            slots: (0..capacity + 1).map(|_| Slot::new()).collect(),
            names: Mutex::new(Names {
                entries: Vec::new(),
            }),
            len: AtomicUsize::new(1),
            overflow: AtomicU64::new(0),
        }
    }

    /// Registrations refused because the registry was full. Also exported
    /// by [`MetricsRegistry::snapshot`] as the synthetic
    /// `obs.registry_overflow` counter whenever nonzero.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Acquire)
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire) - 1
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn slot(&self, id: MetricId) -> Option<&Slot> {
        let i = id.0 as usize;
        // Slot 0 (NOOP) and out-of-range ids are ignored, never UB.
        if i == 0 || i >= self.len.load(Ordering::Acquire) {
            return None;
        }
        Some(&self.slots[i])
    }

    /// Exports every metric in registration order. With
    /// `deterministic_only`, wall-clock timing histograms are skipped so
    /// the result is byte-identical across identical replays. If any
    /// registration was refused by a full registry, a synthetic
    /// `obs.registry_overflow` counter is appended so the loss is visible
    /// in every export.
    pub fn snapshot(&self, deterministic_only: bool) -> Vec<MetricSnapshot> {
        let names = self.names.lock().expect("registry mutex poisoned");
        let mut out: Vec<MetricSnapshot> = names
            .entries
            .iter()
            .enumerate()
            .filter(|(_, (_, kind))| !deterministic_only || kind.deterministic())
            .map(|(i, (name, kind))| {
                let slot = &self.slots[i + 1];
                let sum = slot.sum.load(Ordering::Acquire);
                let is_histogram =
                    matches!(kind, MetricKind::Histogram | MetricKind::TimingHistogram);
                let histogram = is_histogram.then(|| {
                    let buckets: Vec<u64> = (slot.buckets.iter())
                        .map(|b| b.load(Ordering::Acquire))
                        .collect();
                    HistogramSnapshot {
                        count: buckets.iter().sum(),
                        sum,
                        buckets,
                    }
                });
                MetricSnapshot {
                    name: name.clone(),
                    kind: *kind,
                    value: match &histogram {
                        Some(hist) => hist.count,
                        None => slot.value.load(Ordering::Acquire),
                    },
                    sum,
                    histogram,
                }
            })
            .collect();
        let refused = self.overflow.load(Ordering::Acquire);
        if refused > 0 {
            out.push(MetricSnapshot {
                name: "obs.registry_overflow".to_string(),
                kind: MetricKind::Counter,
                value: refused,
                sum: 0,
                histogram: None,
            });
        }
        out
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("len", &self.len())
            .field("capacity", &(self.slots.len() - 1))
            .finish()
    }
}

impl MetricsSink for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn register(&self, name: &str, kind: MetricKind) -> MetricId {
        let mut names = self.names.lock().expect("registry mutex poisoned");
        if let Some(i) = names.entries.iter().position(|(n, _)| n == name) {
            assert_eq!(
                names.entries[i].1, kind,
                "metric `{name}` re-registered with a different kind"
            );
            return MetricId(i as u32 + 1);
        }
        let next = self.len.load(Ordering::Acquire);
        if next >= self.slots.len() {
            // Graceful exhaustion: refuse the slot, count the refusal
            // (surfaced as `obs.registry_overflow` in snapshots), and hand
            // back the sink-hole id so the caller's updates are ignored
            // rather than crashing the replay.
            self.overflow.fetch_add(1, Ordering::Relaxed);
            return MetricId::NOOP;
        }
        names.entries.push((name.to_string(), kind));
        // Publish the new slot only after the metadata exists; readers
        // acquire-load `len`, so they never see a slot without its name.
        self.len.store(next + 1, Ordering::Release);
        MetricId(next as u32)
    }

    // lint: hot
    fn counter_add(&self, id: MetricId, delta: u64) {
        if delta == 0 {
            return;
        }
        if let Some(slot) = self.slot(id) {
            slot.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    // lint: hot
    fn gauge_set(&self, id: MetricId, value: u64) {
        if let Some(slot) = self.slot(id) {
            slot.value.store(value, Ordering::Relaxed);
        }
    }

    // lint: hot
    fn observe(&self, id: MetricId, value: u64) {
        if let Some(slot) = self.slot(id) {
            if value != 0 {
                slot.sum.fetch_add(value, Ordering::Relaxed);
            }
            slot.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.register("c", MetricKind::Counter);
        reg.counter_add(c, 1);
        reg.counter_add(c, 41);
        assert_eq!(reg.snapshot(true)[0].value, 42);
    }

    #[test]
    fn gauges_take_last_value() {
        let reg = MetricsRegistry::new();
        let g = reg.register("g", MetricKind::Gauge);
        reg.gauge_set(g, 7);
        reg.gauge_set(g, 3);
        assert_eq!(reg.snapshot(true)[0].value, 3);
    }

    #[test]
    fn histograms_track_count_sum_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.register("h", MetricKind::Histogram);
        for v in [0, 1, 5, 5, 1024] {
            reg.observe(h, v);
        }
        let snap = &reg.snapshot(true)[0];
        assert_eq!(snap.value, 5);
        assert_eq!(snap.sum, 1035);
        let hist = snap.histogram.as_ref().unwrap();
        assert_eq!(hist.count, 5);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn reregistration_returns_same_id() {
        let reg = MetricsRegistry::new();
        let a = reg.register("x", MetricKind::Counter);
        let b = reg.register("x", MetricKind::Counter);
        assert_eq!(a, b);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        reg.register("x", MetricKind::Counter);
        reg.register("x", MetricKind::Gauge);
    }

    #[test]
    fn noop_id_is_a_sink_hole() {
        let reg = MetricsRegistry::new();
        let c = reg.register("c", MetricKind::Counter);
        reg.counter_add(MetricId::NOOP, 100);
        reg.counter_add(c, 1);
        assert_eq!(reg.snapshot(true)[0].value, 1);
        // Adding zero — to the sink-hole or to a live id — changes nothing.
        let before = reg.snapshot(false);
        reg.counter_add(MetricId::NOOP, 0);
        reg.counter_add(c, 0);
        assert_eq!(reg.snapshot(false), before);
    }

    #[test]
    fn snapshot_preserves_registration_order() {
        let reg = MetricsRegistry::new();
        reg.register("b", MetricKind::Counter);
        reg.register("a", MetricKind::Gauge);
        let snap = reg.snapshot(true);
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["b", "a"]);
    }

    #[test]
    fn deterministic_snapshot_skips_timing() {
        let reg = MetricsRegistry::new();
        reg.register("lat", MetricKind::TimingHistogram);
        reg.register("fills", MetricKind::Counter);
        assert_eq!(reg.snapshot(true).len(), 1);
        assert_eq!(reg.snapshot(false).len(), 2);
    }

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let s = NoopSink::shared();
        assert!(!s.enabled());
        let id = s.register("anything", MetricKind::Counter);
        assert_eq!(id, MetricId::NOOP);
        s.counter_add(id, 5);
        s.gauge_set(id, 5);
        s.observe(id, 5);
    }

    #[test]
    fn capacity_exhaustion_degrades_to_noop_and_counts_overflow() {
        let reg = MetricsRegistry::with_capacity(1);
        let a = reg.register("a", MetricKind::Counter);
        assert_ne!(a, MetricId::NOOP);
        // Registry is full: refused registrations return the sink-hole id.
        let b = reg.register("b", MetricKind::Counter);
        let c = reg.register("c", MetricKind::Histogram);
        assert_eq!(b, MetricId::NOOP);
        assert_eq!(c, MetricId::NOOP);
        assert_eq!(reg.overflow(), 2);
        // Updates through the refused ids are ignored, never UB or panic.
        reg.counter_add(b, 100);
        reg.observe(c, 7);
        reg.counter_add(a, 1);
        // Re-registering an existing name still works while full.
        assert_eq!(reg.register("a", MetricKind::Counter), a);
        assert_eq!(reg.overflow(), 2);
        // The loss is visible: snapshots append obs.registry_overflow.
        let snap = reg.snapshot(true);
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a");
        assert_eq!(snap[0].value, 1);
        assert_eq!(snap[1].name, "obs.registry_overflow");
        assert_eq!(snap[1].kind, MetricKind::Counter);
        assert_eq!(snap[1].value, 2);
    }

    #[test]
    fn snapshot_has_no_overflow_entry_when_nothing_was_refused() {
        let reg = MetricsRegistry::new();
        reg.register("a", MetricKind::Counter);
        let snap = reg.snapshot(true);
        assert!(snap.iter().all(|m| m.name != "obs.registry_overflow"));
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let c = reg.register("c", MetricKind::Counter);
        let h = reg.register("h", MetricKind::Histogram);
        // Observed values include zeros: they take the path that skips `sum`.
        let observed = |thread: u64| (0..10_000).map(move |i| (i + thread) % 7);
        std::thread::scope(|s| {
            for thread in 0..4 {
                let reg = reg.clone();
                s.spawn(move || {
                    for value in observed(thread) {
                        reg.counter_add(c, 1);
                        reg.observe(h, value);
                    }
                });
            }
        });
        let snap = reg.snapshot(true);
        assert_eq!(snap[0].value, 40_000);
        // A histogram's count is its buckets' sum, and the sample sum is exact.
        let hist = snap[1].histogram.as_ref().unwrap();
        assert_eq!((snap[1].value, hist.count), (40_000, 40_000));
        assert_eq!(hist.buckets.iter().sum::<u64>(), 40_000);
        let sum: u64 = (0..4).flat_map(observed).sum();
        assert_eq!((snap[1].sum, hist.sum), (sum, sum));
    }
}
