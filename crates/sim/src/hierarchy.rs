//! Two-level cache hierarchy replay — a first step toward the paper's
//! §10 "CDN-wide optimality" direction.
//!
//! Section 2 describes redirect targets such as "a higher level, larger
//! serving site in a cache hierarchy, which captures redirects of its
//! downstream servers". This module wires exactly that: an edge cache
//! handles the user-facing trace; every redirected request is forwarded
//! (at the same timestamp) to a parent cache; what the parent redirects
//! leaves the CDN toward the origin.
//!
//! The combined CDN cost (Eq. 1 generalised) is
//! `edge_fill·C_F^edge + parent_fill·C_F^parent + origin_bytes·C_R^parent`,
//! which the report exposes alongside per-tier counters so experiments can
//! explore `α` splits between tiers (e.g. a constrained edge, `α=2`, in
//! front of a deep parent, `α=1`).
//!
//! The parent must be an *online* policy (xLRU/Cafe/LRU): Psychic needs
//! the exact request sequence up front, but the parent's sequence is the
//! edge's redirect stream, which depends on the edge's decisions.

use vcdn_core::CachePolicy;
use vcdn_trace::Trace;
use vcdn_types::TrafficCounter;

use crate::replay::{Kernel, StreamTraffic, STEADY_AFTER};

/// Per-tier and combined results of a hierarchy replay.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyReport {
    /// Edge-tier traffic (over the full trace).
    pub edge: TrafficCounter,
    /// Parent-tier traffic (over the edge's redirect stream).
    pub parent: TrafficCounter,
    /// Bytes that left the CDN toward the origin (parent redirects).
    pub origin_bytes: u64,
    /// Requests the parent redirected to the origin.
    pub origin_requests: u64,
}

impl HierarchyReport {
    /// Fraction of requested bytes served somewhere inside the CDN
    /// without a cache-fill (edge hits + parent hits).
    pub fn cdn_hit_rate(&self) -> f64 {
        let total = self.edge.requested_bytes();
        if total == 0 {
            return 0.0;
        }
        (self.edge.hit_bytes + self.parent.hit_bytes) as f64 / total as f64
    }

    /// Total CDN cost: fills at each tier at that tier's `C_F`, plus
    /// origin traffic at the parent's `C_R`.
    pub fn total_cost(&self, edge_c_f: f64, parent_c_f: f64, parent_c_r: f64) -> f64 {
        self.edge.fill_bytes as f64 * edge_c_f
            + self.parent.fill_bytes as f64 * parent_c_f
            + self.origin_bytes as f64 * parent_c_r
    }
}

/// Replays `trace` through an edge/parent pair.
///
/// # Panics
///
/// Panics if the two policies disagree on chunk size, or if either
/// violates its serve contract (a `Serve` must cover the full request and
/// stay within capacity).
pub fn replay_hierarchy(
    trace: &Trace,
    edge: &mut dyn CachePolicy,
    parent: &mut dyn CachePolicy,
) -> HierarchyReport {
    assert_eq!(
        edge.chunk_size(),
        parent.chunk_size(),
        "edge/parent chunk size mismatch"
    );
    let k = edge.chunk_size();
    let kernel = Kernel::for_trace(trace, k, STEADY_AFTER, true);
    let mut at_edge = StreamTraffic::default();
    let mut at_parent = StreamTraffic::default();
    let (mut origin_bytes, mut origin_requests) = (0u64, 0u64);
    for (seq, request) in trace.requests.iter().enumerate() {
        let seq = seq as u64;
        let decision = kernel.serve_one(edge, request, seq, &mut at_edge, &mut ());
        // A redirected user retries at the parent location; what the
        // parent redirects too leaves the CDN.
        if decision.is_redirect()
            && kernel
                .serve_one(parent, request, seq, &mut at_parent, &mut ())
                .is_redirect()
        {
            let bytes = request.chunk_len(k).saturating_mul(k.bytes());
            origin_bytes = origin_bytes.saturating_add(bytes);
            origin_requests += 1;
        }
    }
    HierarchyReport {
        edge: at_edge.overall,
        parent: at_parent.overall,
        origin_bytes,
        origin_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_core::{CacheConfig, CafeCache, CafeConfig, LruCache, XlruCache};
    use vcdn_trace::{ServerProfile, TraceGenerator};
    use vcdn_types::{ChunkSize, CostModel, DurationMs};

    fn k() -> ChunkSize {
        ChunkSize::DEFAULT
    }

    fn trace() -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), 31).generate(DurationMs::from_days(2))
    }

    #[test]
    fn tier_accounting_is_conservative() {
        let t = trace();
        let costs = CostModel::from_alpha(2.0).expect("valid");
        let mut edge = CafeCache::new(CafeConfig::new(128, k(), costs));
        let mut parent = XlruCache::new(CacheConfig::new(1024, k(), CostModel::balanced()));
        let r = replay_hierarchy(&t, &mut edge, &mut parent);
        // Every edge-redirected byte reaches the parent.
        assert_eq!(r.edge.redirect_bytes, r.parent.requested_bytes());
        assert_eq!(r.edge.redirected_requests, r.parent.total_requests());
        // Origin traffic equals parent redirects.
        assert_eq!(r.origin_bytes, r.parent.redirect_bytes);
        assert_eq!(r.origin_requests, r.parent.redirected_requests);
        // CDN hit rate is a fraction.
        assert!((0.0..=1.0).contains(&r.cdn_hit_rate()));
    }

    #[test]
    fn lru_parent_absorbs_everything() {
        // An LRU parent never redirects: origin traffic must be zero.
        let t = trace();
        let costs = CostModel::from_alpha(4.0).expect("valid");
        let mut edge = CafeCache::new(CafeConfig::new(64, k(), costs));
        let mut parent = LruCache::new(CacheConfig::new(512, k(), CostModel::balanced()));
        let r = replay_hierarchy(&t, &mut edge, &mut parent);
        assert!(r.edge.redirected_requests > 0, "edge should redirect some");
        assert_eq!(r.origin_bytes, 0);
        assert_eq!(r.origin_requests, 0);
    }

    #[test]
    fn deeper_parent_reduces_origin_traffic() {
        let t = trace();
        let costs = CostModel::from_alpha(2.0).expect("valid");
        let run = |parent_disk: u64| -> u64 {
            let mut edge = CafeCache::new(CafeConfig::new(64, k(), costs));
            let mut parent =
                XlruCache::new(CacheConfig::new(parent_disk, k(), CostModel::balanced()));
            replay_hierarchy(&t, &mut edge, &mut parent).origin_bytes
        };
        let small = run(64);
        let large = run(2048);
        assert!(
            large <= small,
            "deeper parent should not increase origin traffic: {large} > {small}"
        );
    }

    #[test]
    fn total_cost_combines_tiers() {
        let r = HierarchyReport {
            edge: {
                let mut t = TrafficCounter::default();
                t.record_fill(100);
                t
            },
            parent: {
                let mut t = TrafficCounter::default();
                t.record_fill(50);
                t
            },
            origin_bytes: 10,
            origin_requests: 1,
        };
        let cost = r.total_cost(2.0, 1.0, 1.0);
        assert!((cost - (200.0 + 50.0 + 10.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "chunk size mismatch")]
    fn chunk_size_mismatch_detected() {
        let t = trace();
        let mut edge = LruCache::new(CacheConfig::new(4, k(), CostModel::balanced()));
        let mut parent = LruCache::new(CacheConfig::new(
            4,
            ChunkSize::new(1024).expect("non-zero"),
            CostModel::balanced(),
        ));
        replay_hierarchy(&t, &mut edge, &mut parent);
    }
}
