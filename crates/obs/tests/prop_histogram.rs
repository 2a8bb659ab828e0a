//! Randomized property tests for the log-bucketed histogram: bucket
//! geometry, sample conservation and exact count/sum recovery through the
//! registry's per-writer tallies — and the merge those tallies rest on:
//! any split of a decision stream across writers exports what one writer
//! fed the whole stream does.
//!
//! The workspace builds offline, so instead of an external property-test
//! framework these run a fixed number of cases drawn from a small
//! deterministic SplitMix64 generator; failures print the case seed.

use std::sync::Arc;

use vcdn_obs::histogram::{bucket_index, bucket_lower, bucket_upper, BUCKETS};
use vcdn_obs::{MetricKind, MetricsRegistry, MetricsSink, Tally};
use vcdn_trace::rng::DetRng;
use vcdn_types::{ChunkId, Decision, ServeOutcome, VideoId};

const CASES: u64 = 512;

/// Minimal deterministic generator (SplitMix64) for test-case inputs.
struct TestRng(u64);

impl TestRng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }

    /// A value spanning the full bucket spectrum: uniform bit width, then
    /// uniform within that width (plain uniform u64s almost never land in
    /// low buckets).
    fn spread(&mut self) -> u64 {
        let bits = self.range(0, 65);
        if bits == 0 {
            return 0;
        }
        let lo = 1u64 << (bits - 1);
        let hi = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        lo + self.next() % (hi - lo + 1)
    }
}

fn for_each_case(test: impl Fn(&mut TestRng, u64)) {
    for case in 0..CASES {
        let mut rng = TestRng(0x0B5E ^ case.wrapping_mul(0x2545F4914F6CDD1D));
        test(&mut rng, case);
    }
}

#[test]
fn bucket_edges_are_monotone_and_contiguous() {
    // Bucket i's range starts exactly one past bucket i-1's end, and the
    // edges strictly increase — no gaps, no overlaps, full u64 coverage.
    assert_eq!(bucket_lower(0), 0);
    assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
    for i in 1..BUCKETS {
        assert!(
            bucket_lower(i) > bucket_upper(i - 1) || bucket_upper(i - 1) == bucket_lower(i) - 1,
            "gap/overlap at bucket {i}"
        );
        assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "bucket {i} edge");
        assert!(bucket_lower(i) <= bucket_upper(i), "inverted bucket {i}");
        assert!(bucket_upper(i - 1) < bucket_upper(i), "non-monotone at {i}");
    }
}

#[test]
fn every_value_lands_inside_its_bucket() {
    for_each_case(|rng, case| {
        let v = rng.spread();
        let i = bucket_index(v);
        assert!(i < BUCKETS, "case {case}: index {i} out of range for {v}");
        assert!(
            (bucket_lower(i)..=bucket_upper(i)).contains(&v),
            "case {case}: {v} outside bucket {i} [{}, {}]",
            bucket_lower(i),
            bucket_upper(i)
        );
    });
}

#[test]
fn no_sample_is_lost_and_count_sum_recover_exactly() {
    for_each_case(|rng, case| {
        let registry = Arc::new(MetricsRegistry::new());
        let tally = registry.register(&[("t.h".to_string(), MetricKind::Histogram)]);
        let [h] = tally.ids();
        let n = rng.range(1, 200);
        let mut expected_count = 0u64;
        let mut expected_sum = 0u128;
        for _ in 0..n {
            let v = rng.spread();
            tally.observe(h, v);
            expected_count += 1;
            expected_sum += v as u128;
        }
        let snap = registry.snapshot();
        let h = snap[0].histogram.as_ref().expect("histogram snapshot");
        // Conservation: bucket counts sum to the observation count.
        assert_eq!(
            h.buckets.iter().sum::<u64>(),
            expected_count,
            "case {case}: samples lost"
        );
        assert_eq!(h.count, expected_count, "case {case}: count mismatch");
        // Sum recovers exactly (modulo u64 wrap, which the tally shares).
        assert_eq!(h.sum, expected_sum as u64, "case {case}: sum mismatch");
    });
}

#[test]
fn bucketed_samples_bound_the_true_values() {
    // Replaying the snapshot's buckets as (count, lower, upper) triples
    // brackets the true sum — the guarantee quantile estimates rest on.
    for_each_case(|rng, case| {
        let registry = Arc::new(MetricsRegistry::new());
        let tally = registry.register(&[("t.h".to_string(), MetricKind::Histogram)]);
        let [h] = tally.ids();
        let n = rng.range(1, 100);
        let mut true_sum = 0u128;
        for _ in 0..n {
            // Cap at 2^32 so the upper-bound sum cannot overflow u128.
            let v = rng.spread() & 0xFFFF_FFFF;
            tally.observe(h, v);
            true_sum += v as u128;
        }
        let snap = registry.snapshot();
        let h = snap[0].histogram.as_ref().expect("histogram snapshot");
        let lower: u128 = h
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| c as u128 * bucket_lower(i) as u128)
            .sum();
        let upper: u128 = h
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| c as u128 * bucket_upper(i) as u128)
            .sum();
        assert!(
            lower <= true_sum && true_sum <= upper,
            "case {case}: true sum {true_sum} outside bucket bounds [{lower}, {upper}]"
        );
    });
}

/// A policy's counter and histogram family — the gauge aside, which has
/// one writer by definition.
const FAMILY: [(&str, MetricKind); 7] = [
    ("p.serve_requests_total", MetricKind::Counter),
    ("p.redirect_requests_total", MetricKind::Counter),
    ("p.hit_chunks_total", MetricKind::Counter),
    ("p.fill_chunks_total", MetricKind::Counter),
    ("p.evicted_chunks_total", MetricKind::Counter),
    ("p.fill_chunks_per_request", MetricKind::Histogram),
    ("p.eviction_batch_chunks", MetricKind::Histogram),
];

fn writer(registry: &MetricsRegistry) -> Tally {
    registry.register(&FAMILY.map(|(name, kind)| (name.to_string(), kind)))
}

/// Records `decision` the way `PolicyObs::record_decision` does.
fn record(t: &Tally, decision: &Decision) {
    let [serve, redirect, hit, fill, evicted, fill_per_request, eviction_batch] = t.ids();
    match decision {
        Decision::Serve(o) => {
            t.add(serve, 1);
            t.add(hit, o.hit_chunks);
            t.add(fill, o.filled_chunks);
            t.observe(fill_per_request, o.filled_chunks);
            if !o.evicted.is_empty() {
                t.add(evicted, o.evicted.len() as u64);
                t.observe(eviction_batch, o.evicted.len() as u64);
            }
        }
        Decision::Redirect => t.add(redirect, 1),
    }
}

#[test]
fn partitioned_tallies_merge_to_one_tally() {
    for seed in [5u64, 6, 20140413] {
        let mut rng = DetRng::new(seed);
        let stream: Vec<Decision> = (0..2_000)
            .map(|_| match rng.below(4) {
                0 => Decision::Redirect,
                _ => Decision::Serve(ServeOutcome {
                    hit_chunks: rng.below(40),
                    filled_chunks: {
                        let magnitude = rng.below(12);
                        rng.below(1 << magnitude)
                    },
                    evicted: vec![ChunkId::new(VideoId(1), 0); rng.below(3) as usize * 7],
                }),
            })
            .collect();
        let whole = MetricsRegistry::new();
        let one = writer(&whole);
        stream.iter().for_each(|d| record(&one, d));
        let want = whole.snapshot();
        for parts in [1usize, 2, 3, 8] {
            // Each decision goes to a random writer; the writers register
            // in a rotated order, some before any decision and some after.
            let split = MetricsRegistry::new();
            let late = rng.below(parts as u64 + 1) as usize;
            let mut tallies: Vec<Option<Tally>> = (0..parts)
                .map(|i| (i >= late).then(|| writer(&split)))
                .collect();
            let owner: Vec<usize> = (0..stream.len())
                .map(|_| rng.below(parts as u64) as usize)
                .collect();
            for (d, &w) in stream.iter().zip(&owner).filter(|(_, &w)| w >= late) {
                record(tallies[w].as_ref().unwrap(), d);
            }
            for w in (0..late).rev() {
                let t = tallies[w].insert(writer(&split));
                for (d, _) in stream.iter().zip(&owner).filter(|(_, &o)| o == w) {
                    record(t, d);
                }
            }
            assert_eq!(split.snapshot(), want, "seed {seed}, {parts} writers");
        }
    }
}
