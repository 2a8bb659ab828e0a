//! Benchmark-side policies and observers: everything the harness needs
//! to time calls into the public API without editing the crates.
//!
//! * [`DecideTimer`] — a [`ReplayObserver`] that asks the `Replayer` to
//!   clock `handle_request` and keeps every latency (a `u32` of ns per
//!   request) plus the outcome split read off the returned [`Decision`].
//! * [`SpanPolicy`] — a [`CachePolicy`] wrapper that clocks its inner
//!   policy itself, for drivers that offer no observer hook (the engine,
//!   `replay_with_telemetry`). It hands its totals to a shared collector
//!   when dropped, so the per-request path takes no lock.
//! * [`NullPolicy`] — serves everything as a hit from no state: what is
//!   left of a drive step when the policy costs nothing.
//! * [`FaultyPolicy`] — under-covers some serves; exists so the tests can
//!   show the correctness gate turning a broken policy into failed
//!   operations.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use vcdn_core::{CacheConfig, CachePolicy, DecisionDetail, PolicyObs};
use vcdn_sim::{DecisionCtx, ReplayObserver};
use vcdn_types::{ChunkId, ChunkSize, CostModel, Decision, Request, ServeOutcome};

/// The path a decision took through the policy, cheapest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served entirely from disk.
    Hit,
    /// Served with cache fills into free space.
    Fill,
    /// Served with fills that evicted chunks.
    Evict,
    /// Redirected.
    Redirect,
}

impl Outcome {
    /// Every outcome, in metric order.
    pub const ALL: [Outcome; 4] = [
        Outcome::Hit,
        Outcome::Fill,
        Outcome::Evict,
        Outcome::Redirect,
    ];

    /// Classifies a decision.
    pub fn of(decision: &Decision) -> Outcome {
        match decision {
            Decision::Redirect => Outcome::Redirect,
            Decision::Serve(o) if !o.evicted.is_empty() => Outcome::Evict,
            Decision::Serve(o) if o.filled_chunks > 0 => Outcome::Fill,
            Decision::Serve(_) => Outcome::Hit,
        }
    }

    /// Metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Fill => "fill",
            Outcome::Evict => "evict",
            Outcome::Redirect => "redirect",
        }
    }
}

/// Decide-path totals: calls and time per outcome, plus the chunk counts
/// the decisions reported.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecideStats {
    /// Calls per [`Outcome`], indexed like [`Outcome::ALL`].
    pub calls: [u64; 4],
    /// Nanoseconds per [`Outcome`], indexed like [`Outcome::ALL`].
    pub ns: [u64; 4],
    /// Chunks served from disk.
    pub hit_chunks: u64,
    /// Chunks cache-filled.
    pub fill_chunks: u64,
    /// Chunks evicted.
    pub evicted_chunks: u64,
}

impl DecideStats {
    fn record(&mut self, decision: &Decision, ns: u64) {
        let i = Outcome::of(decision) as usize;
        self.calls[i] += 1;
        self.ns[i] += ns;
        if let Decision::Serve(o) = decision {
            self.hit_chunks += o.hit_chunks;
            self.fill_chunks += o.filled_chunks;
            self.evicted_chunks += o.evicted.len() as u64;
        }
    }

    /// Total calls.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Total nanoseconds inside `handle_request`.
    pub fn busy_ns(&self) -> u64 {
        self.ns.iter().sum()
    }
}

/// Observer for the traced `Replayer` pass: every decide latency, exactly.
#[derive(Debug, Default)]
pub struct DecideTimer {
    /// One latency per request, in replay order, saturated at `u32::MAX`
    /// ns (4.3 s — no decide comes close).
    pub latencies_ns: Vec<u32>,
    /// Outcome split and chunk counts.
    pub stats: DecideStats,
}

impl DecideTimer {
    /// An empty timer with room for `requests` latencies.
    pub fn with_capacity(requests: usize) -> DecideTimer {
        DecideTimer {
            latencies_ns: Vec::with_capacity(requests),
            stats: DecideStats::default(),
        }
    }
}

impl ReplayObserver for DecideTimer {
    fn wants_timing(&self) -> bool {
        true
    }

    fn on_decision(&mut self, ctx: &DecisionCtx<'_>) {
        let ns = ctx
            .latency_ns
            .expect("the Replayer clocks decisions when wants_timing() is true");
        self.latencies_ns
            .push(u32::try_from(ns).unwrap_or(u32::MAX));
        self.stats.record(ctx.decision, ns);
    }
}

/// What one [`SpanPolicy`] saw, delivered when it is dropped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecideSpan {
    /// The engine shard the policy served (0 outside the engine).
    pub shard: usize,
    /// First entry into `handle_request`, ns since the run's origin.
    pub start_ns: u64,
    /// Last exit from `handle_request`, ns since the run's origin.
    pub end_ns: u64,
    /// Outcome split and chunk counts.
    pub stats: DecideStats,
}

/// Where dropped [`SpanPolicy`]s leave their [`DecideSpan`]s.
pub type SpanCollector = Arc<Mutex<Vec<DecideSpan>>>;

/// Clocks every `handle_request` of the wrapped policy.
pub struct SpanPolicy<P: CachePolicy> {
    inner: P,
    origin: Instant,
    span: DecideSpan,
    collector: SpanCollector,
}

impl<P: CachePolicy> SpanPolicy<P> {
    /// Wraps `inner`; times are taken against the run-wide `origin`.
    pub fn new(inner: P, shard: usize, origin: Instant, collector: SpanCollector) -> Self {
        SpanPolicy {
            inner,
            origin,
            span: DecideSpan {
                shard,
                start_ns: u64::MAX,
                end_ns: 0,
                stats: DecideStats::default(),
            },
            collector,
        }
    }
}

impl<P: CachePolicy> CachePolicy for SpanPolicy<P> {
    fn handle_request(&mut self, request: &Request) -> Decision {
        let entered = self.origin.elapsed().as_nanos() as u64;
        let decision = self.inner.handle_request(request);
        let left = self.origin.elapsed().as_nanos() as u64;
        self.span.start_ns = self.span.start_ns.min(entered);
        self.span.end_ns = left;
        self.span.stats.record(&decision, left - entered);
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn chunk_size(&self) -> ChunkSize {
        self.inner.chunk_size()
    }

    fn costs(&self) -> CostModel {
        self.inner.costs()
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

    fn attach_obs(&mut self, obs: PolicyObs) {
        self.inner.attach_obs(obs);
    }

    fn decision_detail(&self) -> DecisionDetail {
        self.inner.decision_detail()
    }
}

impl<P: CachePolicy> Drop for SpanPolicy<P> {
    fn drop(&mut self) {
        // A poisoned collector means another shard's policy panicked; the
        // pass is already lost, and Drop must not panic on top of it.
        if let Ok(mut spans) = self.collector.lock() {
            if self.span.stats.total_calls() > 0 {
                spans.push(self.span.clone());
            }
        }
    }
}

/// A policy with no state: every request is served, every chunk a hit.
#[derive(Debug, Clone, Copy)]
pub struct NullPolicy {
    config: CacheConfig,
}

impl NullPolicy {
    /// A null policy that reports `config` as its own.
    pub fn new(config: CacheConfig) -> NullPolicy {
        NullPolicy { config }
    }
}

impl CachePolicy for NullPolicy {
    fn handle_request(&mut self, request: &Request) -> Decision {
        Decision::Serve(ServeOutcome {
            hit_chunks: request.chunk_len(self.config.chunk_size),
            filled_chunks: 0,
            evicted: Vec::new(),
        })
    }

    fn name(&self) -> &'static str {
        "null"
    }

    fn chunk_size(&self) -> ChunkSize {
        self.config.chunk_size
    }

    fn costs(&self) -> CostModel {
        self.config.costs
    }

    fn disk_used_chunks(&self) -> u64 {
        0
    }

    fn disk_capacity_chunks(&self) -> u64 {
        self.config.disk_chunks
    }

    fn contains_chunk(&self, _chunk: ChunkId) -> bool {
        false
    }
}

/// Under-covers every [`FaultyPolicy::PERIOD`]-th serve by one chunk.
/// With the bench configuration's invariant asserts off, only byte
/// accounting can notice.
pub struct FaultyPolicy<P: CachePolicy> {
    inner: P,
    serves: u64,
}

impl<P: CachePolicy> FaultyPolicy<P> {
    /// Serves between two under-covered ones.
    pub const PERIOD: u64 = 100;

    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        FaultyPolicy { inner, serves: 0 }
    }
}

impl<P: CachePolicy> CachePolicy for FaultyPolicy<P> {
    fn handle_request(&mut self, request: &Request) -> Decision {
        let mut decision = self.inner.handle_request(request);
        if let Decision::Serve(o) = &mut decision {
            self.serves += 1;
            if self.serves.is_multiple_of(Self::PERIOD) {
                if o.hit_chunks > 0 {
                    o.hit_chunks -= 1;
                } else {
                    o.filled_chunks -= 1;
                }
            }
        }
        decision
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn chunk_size(&self) -> ChunkSize {
        self.inner.chunk_size()
    }

    fn costs(&self) -> CostModel {
        self.inner.costs()
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

    fn attach_obs(&mut self, obs: PolicyObs) {
        self.inner.attach_obs(obs);
    }

    fn decision_detail(&self) -> DecisionDetail {
        self.inner.decision_detail()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_core::XlruCache;
    use vcdn_types::{ByteRange, Timestamp, VideoId};

    fn config() -> CacheConfig {
        CacheConfig::new(
            4,
            ChunkSize::new(100).unwrap(),
            CostModel::from_alpha(2.0).unwrap(),
        )
    }

    fn request(video: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(0, 249).unwrap(),
            Timestamp(t),
        )
    }

    #[test]
    fn outcomes_are_classified_by_the_most_expensive_step() {
        let serve = |hit, fill, evicted: usize| {
            Decision::Serve(ServeOutcome {
                hit_chunks: hit,
                filled_chunks: fill,
                evicted: vec![ChunkId::new(VideoId(1), 0); evicted],
            })
        };
        assert_eq!(Outcome::of(&serve(3, 0, 0)), Outcome::Hit);
        assert_eq!(Outcome::of(&serve(1, 2, 0)), Outcome::Fill);
        assert_eq!(Outcome::of(&serve(1, 2, 2)), Outcome::Evict);
        assert_eq!(Outcome::of(&Decision::Redirect), Outcome::Redirect);
    }

    #[test]
    fn null_policy_serves_every_chunk_as_a_hit() {
        let mut p = NullPolicy::new(config());
        let d = p.handle_request(&request(1, 0));
        assert_eq!(d.serve_outcome().unwrap().hit_chunks, 3);
        assert_eq!(p.disk_used_chunks(), 0);
    }

    #[test]
    fn span_policy_reports_on_drop_and_changes_no_decision() {
        let collector = SpanCollector::default();
        let mut plain = XlruCache::new(config());
        let mut wrapped = SpanPolicy::new(
            XlruCache::new(config()),
            5,
            Instant::now(),
            Arc::clone(&collector),
        );
        for (i, video) in [1, 1, 2, 1, 3, 3].into_iter().enumerate() {
            let r = request(video, i as u64 * 10);
            assert_eq!(wrapped.handle_request(&r), plain.handle_request(&r));
        }
        assert!(collector.lock().unwrap().is_empty());
        drop(wrapped);
        let spans = collector.lock().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].shard, 5);
        assert_eq!(spans[0].stats.total_calls(), 6);
        assert!(spans[0].start_ns <= spans[0].end_ns);
        assert!(spans[0].stats.busy_ns() <= spans[0].end_ns - spans[0].start_ns);
    }

    #[test]
    fn faulty_policy_under_covers_one_serve_per_period() {
        let mut faulty = FaultyPolicy::new(NullPolicy::new(config()));
        let short = (0..FaultyPolicy::<NullPolicy>::PERIOD * 3)
            .filter(|&i| {
                let d = faulty.handle_request(&request(1, i));
                d.serve_outcome().unwrap().served_chunks() != 3
            })
            .count();
        assert_eq!(short, 3);
    }
}
