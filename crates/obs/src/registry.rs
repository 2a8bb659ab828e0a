//! The metrics registry: named counters, gauges and log-bucketed
//! histograms, each written through a per-writer [`Tally`] and merged by
//! name when the registry is read.
//!
//! Design constraints, in order:
//!
//! 1. **One writer per cell, by construction.** [`MetricsSink::register`]
//!    (called at attach time, never per request) hands each writer — a
//!    policy, a shard's span accountant, a shard's share of the engine
//!    totals — its own [`Tally`]: a block of cells nothing else writes.
//!    An update is a relaxed load and a store into that block, with no
//!    `dyn` call, no lock-prefixed instruction and no cache line shared
//!    with another writer. A `Tally` is not `Clone`; registering again is
//!    how a second writer gets cells of its own.
//! 2. **Merged at snapshot.** [`MetricsRegistry::snapshot`] reads every
//!    writer's cells at quiescence (end of run, report time) and merges
//!    them by name: counters and histograms by sum, bucket by bucket — the
//!    commutative monoid [`HistogramSnapshot`] already is — so any split of
//!    a stream across writers, registered in any order, exports the same
//!    integers. A gauge has exactly one live writer: registering a gauge
//!    name whose writer still exists panics at attach time.
//! 3. **Zero cost when disabled.** [`NoopSink`] answers
//!    [`MetricsSink::enabled`] with `false`; instrumented code gates its
//!    bookkeeping on that flag, so a bench replay with the no-op sink
//!    stays allocation-free and at full throughput.
//! 4. **Deterministic export.** Snapshots list metrics in the order their
//!    names were first registered, with plain integer values, so a
//!    per-replay registry serialises byte-identically across runs and
//!    worker counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::histogram::{bucket_index, HistogramSnapshot, BUCKETS};

/// What a registered metric measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing sum ([`Tally::add`]).
    Counter,
    /// A last-write-wins instantaneous value ([`Tally::set`]).
    Gauge,
    /// A log-bucketed distribution ([`Tally::observe`]), e.g. fill chunks
    /// per request or eviction batch sizes.
    Histogram,
}

impl MetricKind {
    /// Short lowercase name used in JSONL exports.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }

    /// Cells a metric of this kind occupies in a [`Tally`]: one value, or
    /// a histogram's sample sum followed by its [`BUCKETS`] counts.
    fn cells(self) -> usize {
        match self {
            MetricKind::Counter | MetricKind::Gauge => 1,
            MetricKind::Histogram => 1 + BUCKETS,
        }
    }
}

/// Where one metric lives in its writer's [`Tally`]; obtained from
/// [`Tally::ids`] at attach time and passed back to the update methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId(u32);

/// One writer's cells, in the order its metrics were registered.
///
/// The cells are shared with the registry that reads them, but only the
/// tally writes them: an update is a relaxed load and a store, which is
/// exact because there is no second writer. Keep the tally where its
/// writer's per-request state lives and update it from there.
#[derive(Debug)]
pub struct Tally {
    cells: Arc<[AtomicU64]>,
    ids: Box<[MetricId]>,
}

impl Tally {
    fn new(metrics: &[(String, MetricKind)]) -> Tally {
        let mut next = 0;
        let ids = (metrics.iter())
            .map(|(_, kind)| {
                let id = MetricId(next as u32);
                next += kind.cells();
                id
            })
            .collect();
        Tally {
            cells: (0..next).map(|_| AtomicU64::new(0)).collect(),
            ids,
        }
    }

    /// The ids of the first `N` metrics this tally was registered with,
    /// in order.
    ///
    /// # Panics
    ///
    /// Panics if `N` exceeds the number of registered metrics.
    pub fn ids<const N: usize>(&self) -> [MetricId; N] {
        std::array::from_fn(|i| self.ids[i])
    }

    #[inline]
    fn cell(&self, id: MetricId, offset: usize) -> &AtomicU64 {
        &self.cells[id.0 as usize + offset]
    }

    /// Adds `delta` to a counter (wrapping, as the sum it exports does).
    #[inline]
    pub fn add(&self, id: MetricId, delta: u64) {
        let cell = self.cell(id, 0);
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(delta),
            Ordering::Relaxed,
        );
    }

    /// Sets a gauge to `value`.
    #[inline]
    pub fn set(&self, id: MetricId, value: u64) {
        self.cell(id, 0).store(value, Ordering::Relaxed);
    }

    /// Records `value` into a histogram: its sum and one bucket count.
    #[inline]
    pub fn observe(&self, id: MetricId, value: u64) {
        self.add(id, value);
        let bucket = self.cell(id, 1 + bucket_index(value));
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }
}

/// Where instrumented code registers its metrics.
///
/// Instrumented code holds the [`Tally`] it registered up front and never
/// calls the sink per request.
pub trait MetricsSink: Send + Sync {
    /// Whether this sink records anything. Instrumentation gates optional
    /// bookkeeping on this, so the no-op sink costs one predictable
    /// branch.
    fn enabled(&self) -> bool;

    /// Registers one writer's metrics — `(name, kind)`, in order — and
    /// returns the tally the writer updates them through. Not a hot-path
    /// method: call it once at attach time and keep the tally.
    ///
    /// # Panics
    ///
    /// A registering sink panics if a name comes back with a different
    /// kind, or names a gauge whose writer still exists.
    fn register(&self, metrics: &[(String, MetricKind)]) -> Tally;
}

/// A sink that records nothing and reports itself disabled.
///
/// [`NoopSink::shared`] returns a process-wide instance so callers that
/// want metrics off don't allocate one each.
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

    /// A tally no snapshot reads.
    fn register(&self, metrics: &[(String, MetricKind)]) -> Tally {
        Tally::new(metrics)
    }
}

/// One exported metric and the writers' cells it merges.
struct Entry {
    name: String,
    kind: MetricKind,
    /// `(writer, first cell)` per registration of the name.
    sources: Vec<(usize, usize)>,
}

/// Registration-time state, guarded by a mutex (cold path only).
#[derive(Default)]
struct Table {
    entries: Vec<Entry>,
    /// Every registered writer's cells, by registration.
    writers: Vec<Arc<[AtomicU64]>>,
    /// Names refused because the table was full.
    overflow: u64,
}

/// The concrete sink: a table of names over per-writer tallies.
///
/// The table holds at most `capacity` names. A full registry degrades
/// gracefully: a new name is refused — its writer's cells still take the
/// writes, no snapshot reads them — and the refusal is counted, surfaced
/// by [`MetricsRegistry::snapshot`] as a synthetic `obs.registry_overflow`
/// counter. Observability loses a metric, the replay never dies, and the
/// loss itself is observable.
///
/// # Examples
///
/// ```
/// use vcdn_obs::{MetricKind, MetricsRegistry, MetricsSink};
///
/// let reg = MetricsRegistry::new();
/// let fills = vec![("fill_chunks_total".to_string(), MetricKind::Counter)];
/// // Two writers of one name: each owns its cells, the snapshot sums them.
/// let (a, b) = (reg.register(&fills), reg.register(&fills));
/// let [id] = a.ids();
/// assert_eq!(b.ids(), [id]);
/// a.add(id, 3);
/// b.add(id, 4);
/// let snap = reg.snapshot();
/// assert_eq!(snap[0].name, "fill_chunks_total");
/// assert_eq!(snap[0].value, 7);
/// ```
pub struct MetricsRegistry {
    capacity: usize,
    /// One of the workspace's two locks (the other is the bundle reader's
    /// interned policy names). A leaf: taken only inside
    /// [`MetricsRegistry::with_table`], which runs a closure that takes no
    /// other lock and lets no guard escape.
    #[expect(
        clippy::disallowed_types,
        reason = "registration from any thread at attach time; never on the request path"
    )]
    table: std::sync::Mutex<Table>,
}

/// Default capacity: far above what one replay (a few dozen metrics) or
/// one fully instrumented engine registers — a 16-shard engine with span
/// accounting and per-shard policy scopes uses ~200 names.
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
    /// Creates a registry with the default name capacity.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a registry holding at most `capacity` metric names.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn with_capacity(capacity: usize) -> MetricsRegistry {
        assert!(capacity > 0, "registry capacity must be > 0");
        MetricsRegistry {
            capacity,
            table: Default::default(),
        }
    }

    /// Runs `f` on the name table under its lock; the guard lives only for
    /// the call.
    fn with_table<R>(&self, f: impl FnOnce(&mut Table) -> R) -> R {
        f(&mut self.table.lock().expect("registry mutex poisoned"))
    }

    /// Exports every metric in first-registration order, each writer's
    /// cells merged: counters and histogram buckets summed, a gauge read
    /// from its writer. Read at quiescence — after the writers' run has
    /// joined — for values consistent with the run. If any registration
    /// was refused by a full registry, a synthetic `obs.registry_overflow`
    /// counter is appended so the loss is visible in every export.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        self.with_table(|table| {
            let mut out: Vec<MetricSnapshot> = (table.entries.iter())
                .map(|e| {
                    let merged = |cell: usize| {
                        (e.sources.iter())
                            .map(|&(w, at)| table.writers[w][at + cell].load(Ordering::Relaxed))
                            .fold(0, u64::wrapping_add)
                    };
                    let histogram = (e.kind == MetricKind::Histogram).then(|| {
                        let buckets: Vec<u64> = (1..=BUCKETS).map(merged).collect();
                        HistogramSnapshot {
                            count: buckets.iter().sum(),
                            sum: merged(0),
                            buckets,
                        }
                    });
                    MetricSnapshot {
                        name: e.name.clone(),
                        kind: e.kind,
                        value: histogram.as_ref().map_or_else(|| merged(0), |h| h.count),
                        sum: histogram.as_ref().map_or(0, |h| h.sum),
                        histogram,
                    }
                })
                .collect();
            if table.overflow > 0 {
                out.push(MetricSnapshot {
                    name: "obs.registry_overflow".to_string(),
                    kind: MetricKind::Counter,
                    value: table.overflow,
                    sum: 0,
                    histogram: None,
                });
            }
            out
        })
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
            .field("len", &self.with_table(|table| table.entries.len()))
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl MetricsSink for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn register(&self, metrics: &[(String, MetricKind)]) -> Tally {
        let tally = Tally::new(metrics);
        self.with_table(|table| {
            let Table {
                entries,
                writers,
                overflow,
            } = table;
            let writer = writers.len();
            writers.push(Arc::clone(&tally.cells));
            for ((name, kind), id) in metrics.iter().zip(tally.ids.iter()) {
                let source = (writer, id.0 as usize);
                let full = entries.len() >= self.capacity;
                match entries.iter_mut().find(|e| e.name == *name) {
                    Some(e) => {
                        assert_eq!(
                            e.kind, *kind,
                            "metric `{name}` re-registered with a different kind"
                        );
                        if e.kind == MetricKind::Gauge {
                            // A writer is live while its tally holds the
                            // second reference to its cells.
                            let live = (e.sources.iter())
                                .any(|&(w, _)| Arc::strong_count(&writers[w]) > 1);
                            assert!(!live, "gauge `{name}` already has a live writer");
                            e.sources.clear();
                        }
                        e.sources.push(source);
                    }
                    // Graceful exhaustion: refuse the name and count the
                    // refusal; the writer's cells take its writes unread.
                    None if full => *overflow += 1,
                    None => entries.push(Entry {
                        name: name.clone(),
                        kind: *kind,
                        sources: vec![source],
                    }),
                }
            }
        });
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(name: &str, kind: MetricKind) -> Vec<(String, MetricKind)> {
        vec![(name.to_string(), kind)]
    }

    #[test]
    fn counters_accumulate() {
        let reg = MetricsRegistry::new();
        let t = reg.register(&one("c", MetricKind::Counter));
        let [c] = t.ids();
        t.add(c, 1);
        t.add(c, 41);
        assert_eq!(reg.snapshot()[0].value, 42);
    }

    #[test]
    fn gauges_take_last_value() {
        let reg = MetricsRegistry::new();
        let t = reg.register(&one("g", MetricKind::Gauge));
        let [g] = t.ids();
        t.set(g, 7);
        t.set(g, 3);
        assert_eq!(reg.snapshot()[0].value, 3);
    }

    #[test]
    fn histograms_track_count_sum_buckets() {
        let reg = MetricsRegistry::new();
        let t = reg.register(&one("h", MetricKind::Histogram));
        let [h] = t.ids();
        for v in [0, 1, 5, 5, 1024] {
            t.observe(h, v);
        }
        let snap = &reg.snapshot()[0];
        assert_eq!(snap.value, 5);
        assert_eq!(snap.sum, 1035);
        let hist = snap.histogram.as_ref().unwrap();
        assert_eq!(hist.count, 5);
        assert_eq!(hist.buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn reregistration_returns_same_id() {
        // A name registered twice is one metric; each registration is a
        // writer of its own at the same place in its tally, and counters
        // and histograms merge by sum.
        let reg = MetricsRegistry::new();
        let metrics = vec![
            ("x".to_string(), MetricKind::Counter),
            ("h".to_string(), MetricKind::Histogram),
        ];
        let (a, b) = (reg.register(&metrics), reg.register(&metrics));
        let [x, h] = a.ids();
        assert_eq!(b.ids(), [x, h]);
        assert_eq!(reg.snapshot().len(), 2);
        a.add(x, 2);
        b.add(x, 5);
        a.observe(h, 3);
        b.observe(h, 3);
        b.observe(h, 100);
        let snap = reg.snapshot();
        assert_eq!(snap[0].value, 7);
        let hist = snap[1].histogram.as_ref().unwrap();
        assert_eq!((hist.count, hist.sum), (3, 106));
        assert_eq!(hist.buckets[bucket_index(3)], 2);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflict_panics() {
        let reg = MetricsRegistry::new();
        reg.register(&one("x", MetricKind::Counter));
        reg.register(&one("x", MetricKind::Gauge));
    }

    #[test]
    #[should_panic(expected = "gauge `occupancy` already has a live writer")]
    fn a_live_gauge_has_one_writer() {
        let reg = MetricsRegistry::new();
        let _first = reg.register(&one("occupancy", MetricKind::Gauge));
        reg.register(&one("occupancy", MetricKind::Gauge));
    }

    #[test]
    fn a_gauge_follows_its_next_writer() {
        let reg = MetricsRegistry::new();
        let first = reg.register(&one("g", MetricKind::Gauge));
        let [g] = first.ids();
        first.set(g, 9);
        drop(first);
        assert_eq!(reg.snapshot()[0].value, 9, "kept after its writer goes");
        let next = reg.register(&one("g", MetricKind::Gauge));
        next.set(g, 4);
        assert_eq!(reg.snapshot()[0].value, 4);
        assert_eq!(reg.snapshot().len(), 1);
    }

    #[test]
    fn noop_id_is_a_sink_hole() {
        // The no-op sink's tally takes writes that no registry reads, even
        // under a name a registry exports.
        let reg = MetricsRegistry::new();
        let live = reg.register(&one("c", MetricKind::Counter));
        let hole = NoopSink.register(&one("c", MetricKind::Counter));
        let [c] = live.ids();
        hole.add(c, 100);
        live.add(c, 1);
        assert_eq!(reg.snapshot()[0].value, 1);
        // Adding zero changes nothing.
        let before = reg.snapshot();
        live.add(c, 0);
        assert_eq!(reg.snapshot(), before);
    }

    #[test]
    fn snapshot_preserves_registration_order() {
        let reg = MetricsRegistry::new();
        reg.register(&one("b", MetricKind::Counter));
        reg.register(&one("a", MetricKind::Gauge));
        reg.register(&one("b", MetricKind::Counter));
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["b", "a"]);
    }

    #[test]
    fn noop_sink_is_disabled_and_inert() {
        let s = NoopSink::shared();
        assert!(!s.enabled());
        let t = s.register(&one("anything", MetricKind::Histogram));
        let [h] = t.ids();
        t.add(h, 5);
        t.set(h, 5);
        t.observe(h, 5);
    }

    #[test]
    fn capacity_exhaustion_degrades_to_noop_and_counts_overflow() {
        let reg = MetricsRegistry::with_capacity(1);
        let a = reg.register(&one("a", MetricKind::Counter));
        // Registry is full: the new names are refused, their writer keeps
        // cells of its own.
        let refused = reg.register(&[
            ("b".to_string(), MetricKind::Counter),
            ("c".to_string(), MetricKind::Histogram),
        ]);
        // Updates through the refused ids land unread, never UB or panic.
        let [b, c] = refused.ids();
        refused.add(b, 100);
        refused.observe(c, 7);
        let [id] = a.ids();
        a.add(id, 1);
        // Re-registering an existing name still works while full.
        let again = reg.register(&one("a", MetricKind::Counter));
        again.add(id, 1);
        // The loss is visible: snapshots append obs.registry_overflow.
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].name, "a");
        assert_eq!(snap[0].value, 2);
        assert_eq!(snap[1].name, "obs.registry_overflow");
        assert_eq!(snap[1].kind, MetricKind::Counter);
        assert_eq!(snap[1].value, 2);
    }

    #[test]
    fn snapshot_has_no_overflow_entry_when_nothing_was_refused() {
        let reg = MetricsRegistry::new();
        reg.register(&one("a", MetricKind::Counter));
        let snap = reg.snapshot();
        assert!(snap.iter().all(|m| m.name != "obs.registry_overflow"));
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        // Four threads, each its own writer of the same two names.
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let metrics = vec![
            ("c".to_string(), MetricKind::Counter),
            ("h".to_string(), MetricKind::Histogram),
        ];
        // Observed values include zeros, which leave the sum alone.
        let observed = |thread: u64| (0..10_000).map(move |i| (i + thread) % 7);
        std::thread::scope(|s| {
            for thread in 0..4 {
                let tally = reg.register(&metrics);
                s.spawn(move || {
                    let [c, h] = tally.ids();
                    for value in observed(thread) {
                        tally.add(c, 1);
                        tally.observe(h, value);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap[0].value, 40_000);
        // A histogram's count is its buckets' sum, and the sample sum is exact.
        let hist = snap[1].histogram.as_ref().unwrap();
        assert_eq!((snap[1].value, hist.count), (40_000, 40_000));
        assert_eq!(hist.buckets.iter().sum::<u64>(), 40_000);
        let sum: u64 = (0..4).flat_map(observed).sum();
        assert_eq!((snap[1].sum, hist.sum), (sum, sum));
    }
}
