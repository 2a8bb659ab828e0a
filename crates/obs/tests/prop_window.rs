//! Property tests for the window plane: seeded random request streams
//! exercising the algebra the engine's determinism contract rests on.
//!
//! The load-bearing properties:
//!
//! * **Merge is a commutative monoid** — associative, commutative, with
//!   the empty window as identity — so per-shard windows fold into
//!   engine-level windows identically at any worker count and in any
//!   order.
//! * **Conservation** — Σ(window traffic deltas) over closed + open
//!   windows equals the ring's cumulative counter, regardless of window
//!   width, gaps, or ring eviction (detectors see every window at close
//!   time, so eviction loses no signal).
//! * **Sampler ≡ ring** — the time-series sampler is a fold over the
//!   same ring's closed windows: with equal widths its samples are the
//!   ring's windows, their prefix sums, and the policy state held at each
//!   close; folding hourly windows into 1-, 6- and 24-hour samples gives
//!   what a ring of the sample width gave the sampler before it owned none.
//! * **Partition invariance** — splitting one stream across P rings and
//!   merging equals one ring fed everything (the shard model).

use vcdn_obs::window::{merge_windows, WindowFold, WindowInput, WindowRing, WindowStats};
use vcdn_obs::{HistogramSnapshot, ReplaySampler, SeriesSample};
use vcdn_trace::rng::DetRng;
use vcdn_types::{CostModel, TrafficCounter};

/// A deterministic random request stream with non-decreasing timestamps
/// and occasional redirects, fills and evictions.
fn random_inputs(rng: &mut DetRng, len: usize, max_step_ms: u64) -> Vec<WindowInput> {
    let mut t = 0u64;
    (0..len)
        .map(|_| {
            t += rng.below(max_step_ms);
            let redirect = rng.f64() < 0.2;
            let chunks = 1 + rng.below(16);
            WindowInput {
                t_ms: t,
                hit_bytes: if redirect { 0 } else { chunks * 100 },
                fill_bytes: if redirect {
                    0
                } else {
                    rng.below(chunks + 1) * 100
                },
                redirect_bytes: if redirect { chunks * 100 } else { 0 },
                filled_chunks: if redirect { 0 } else { rng.below(chunks + 1) },
                evicted_chunks: rng.below(3),
                request_chunks: chunks,
                queue_gap: {
                    let magnitude = rng.below(20);
                    Some(rng.below(1 << magnitude))
                },
            }
        })
        .collect()
}

/// Random non-empty window stats at `index` (for pure algebra tests).
fn random_window(rng: &mut DetRng, index: u64) -> WindowStats {
    let mut w = WindowStats::empty(index);
    let n = 1 + rng.below(20);
    for _ in 0..n {
        if rng.f64() < 0.25 {
            w.traffic.record_redirect(100 + rng.below(1000));
            w.traffic.redirected_requests += 1;
        } else {
            w.traffic.record_hit(100 + rng.below(1000));
            w.traffic.record_fill(rng.below(500));
            w.traffic.served_requests += 1;
        }
        w.queue_gap.observe(rng.below(100_000));
        w.request_chunks.observe(1 + rng.below(32));
    }
    w.filled_chunks = rng.below(50);
    w.evicted_chunks = rng.below(50);
    w.max_stream_requests = 1 + rng.below(n);
    w
}

#[test]
fn merge_is_associative_and_commutative() {
    for seed in [1u64, 42, 20140413] {
        let mut rng = DetRng::new(seed);
        for _ in 0..50 {
            let index = rng.below(100);
            let a = random_window(&mut rng, index);
            let b = random_window(&mut rng, index);
            let c = random_window(&mut rng, index);

            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            assert_eq!(ab_c, a_bc, "seed {seed}: merge not associative");

            // a ⊕ b == b ⊕ a
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "seed {seed}: merge not commutative");

            // empty is the identity.
            let mut a_e = a.clone();
            a_e.merge(&WindowStats::empty(index));
            assert_eq!(a_e, a, "seed {seed}: empty window not an identity");
        }
    }
}

#[test]
fn merge_windows_is_invariant_to_set_order_and_grouping() {
    let mut rng = DetRng::new(7);
    // Three producers with overlapping, gappy index sets.
    let sets: Vec<Vec<WindowStats>> = (0..3)
        .map(|_| {
            let mut indices: Vec<u64> = (0..8).map(|_| rng.below(12)).collect();
            indices.sort_unstable();
            indices.dedup();
            indices
                .into_iter()
                .map(|i| random_window(&mut rng, i))
                .collect()
        })
        .collect();
    let abc = merge_windows(&sets);
    let cba = merge_windows(&[sets[2].clone(), sets[1].clone(), sets[0].clone()]);
    assert_eq!(abc, cba, "set order changed the merge");
    // Grouping invariance: merge(merge(a,b), c) == merge(a,b,c).
    let ab = merge_windows(&sets[0..2]);
    let ab_c = merge_windows(&[ab, sets[2].clone()]);
    assert_eq!(abc, ab_c, "grouping changed the merge");
    // The output grid is contiguous in index.
    for pair in abc.windows(2) {
        assert_eq!(
            pair[1].index,
            pair[0].index + 1,
            "index gap in merge output"
        );
    }
}

#[test]
fn conservation_sum_of_deltas_equals_cumulative_counter() {
    for seed in [3u64, 99, 20140413] {
        let mut rng = DetRng::new(seed);
        for (width, retain, len, max_step) in [
            (1000u64, 4usize, 500usize, 700u64),
            (50, 2, 300, 40),
            (10_000, 64, 200, 5000),
            // Steps wider than a window: runs of empty windows.
            (10, 3, 200, 45),
        ] {
            let inputs = random_inputs(&mut rng, len, max_step);
            let mut ring = WindowRing::new(width, retain);
            let mut sum = vcdn_types::TrafficCounter::default();
            let mut gap_samples = 0u64;
            let mut windows: Vec<WindowStats> = Vec::new();
            // The sampler folds the same ring's windows one to one;
            // request `n` reports occupancy `n` and — unless 3 divides `n`
            // — cache age `n`.
            let costs = CostModel::from_alpha(2.0).expect("valid alpha");
            let mut sampler = ReplaySampler::new(width, width, costs);
            let age_of = |n: usize| (!n.is_multiple_of(3)).then_some(n as f64);
            let mut closed = |w: &WindowStats| {
                sum += w.traffic;
                gap_samples += w.queue_gap.count;
                windows.push(w.clone());
            };
            for (n, input) in inputs.iter().enumerate() {
                ring.record(input, &mut |w| {
                    closed(w);
                    sampler.on_window(w);
                });
                sampler.stamp(n as u64, 1 << 20, age_of(n));
            }
            ring.finish(&mut |w| {
                closed(w);
                sampler.on_window(w);
            });
            let samples = sampler.finish();
            assert_eq!(samples.len(), windows.len(), "seed {seed} width {width}");
            let mut prefix = vcdn_types::TrafficCounter::default();
            for (i, (sample, window)) in samples.iter().zip(&windows).enumerate() {
                let what = format!("seed {seed} width {width} window {i}");
                assert_eq!(window.index, i as u64, "{what}: grid gap");
                assert_eq!(sample.t_ms, i as u64 * width, "{what}: start");
                assert_eq!(sample.interval, window.traffic, "{what}: interval");
                prefix += window.traffic;
                assert_eq!(sample.cum, prefix, "{what}: cum is not the prefix sum");
                assert_eq!(sample.efficiency, window.efficiency(costs), "{what}");
                assert_eq!(sample.cum_efficiency, prefix.efficiency(costs), "{what}");
                // Carried state: that of the last record at or before the
                // window's end (none yet → the initial zero / None).
                let seen = inputs.partition_point(|x| x.t_ms < (i as u64 + 1) * width);
                assert_eq!(
                    sample.occupancy_chunks,
                    (seen as u64).saturating_sub(1),
                    "{what}: occupancy"
                );
                assert_eq!(
                    sample.cache_age_ms,
                    (0..seen).rev().find_map(age_of),
                    "{what}: cache age"
                );
            }
            assert_eq!(
                sum,
                ring.cum(),
                "seed {seed} width {width}: traffic not conserved"
            );
            assert_eq!(sum.total_requests(), len as u64);
            assert_eq!(gap_samples, len as u64, "gap sketch lost samples");
            // The ring stayed bounded and accounted for every eviction.
            // (After `finish` the snapshot is the closed windows alone.)
            assert!(ring.snapshot_windows().len() <= retain);
            let total_closed = ring.snapshot_windows().len() as u64 + ring.dropped();
            assert!(total_closed >= 1);
        }
    }
}

#[test]
fn partitioned_rings_merge_to_the_single_ring_result() {
    for seed in [11u64, 12, 13] {
        let mut rng = DetRng::new(seed);
        let inputs = random_inputs(&mut rng, 600, 300);
        let width = 2_000u64;
        let retain = 1_000usize; // no eviction: compare complete sets

        let mut single = WindowRing::new(width, retain);
        for input in &inputs {
            single.record(input, &mut |_| {});
        }
        let single_set = single.snapshot_windows();

        for parts in [2usize, 3, 5] {
            // Round-robin partition; each ring sees a subsequence with
            // non-decreasing timestamps, like a shard's request stream.
            let mut rings: Vec<WindowRing> =
                (0..parts).map(|_| WindowRing::new(width, retain)).collect();
            for (i, input) in inputs.iter().enumerate() {
                rings[i % parts].record(input, &mut |_| {});
            }
            let sets: Vec<Vec<WindowStats>> =
                rings.iter().map(WindowRing::snapshot_windows).collect();
            let merged = merge_windows(&sets);

            // Merged traffic, churn and sketches must match the single
            // ring exactly per index; max_stream_requests legitimately
            // differs (per-partition peak vs whole-stream count), so
            // compare everything else.
            let offset = merged[0].index - single_set[0].index;
            assert_eq!(offset, 0, "seed {seed} parts {parts}: first index differs");
            assert_eq!(merged.len(), single_set.len(), "seed {seed} parts {parts}");
            for (m, s) in merged.iter().zip(single_set.iter()) {
                assert_eq!(m.index, s.index);
                assert_eq!(m.traffic, s.traffic, "seed {seed} parts {parts}");
                assert_eq!(m.filled_chunks, s.filled_chunks);
                assert_eq!(m.evicted_chunks, s.evicted_chunks);
                assert_eq!(m.queue_gap, s.queue_gap, "seed {seed} parts {parts}");
                assert_eq!(m.request_chunks, s.request_chunks);
                assert!(m.max_stream_requests <= s.max_stream_requests);
            }
        }
    }
}

#[test]
fn sketch_merge_matches_direct_observation() {
    for seed in [21u64, 22] {
        let mut rng = DetRng::new(seed);
        let values: Vec<u64> = (0..500)
            .map(|_| {
                let magnitude = rng.below(30);
                rng.below(1 << magnitude)
            })
            .collect();
        let mut direct = HistogramSnapshot::default();
        for &v in &values {
            direct.observe(v);
        }
        for parts in [2usize, 4, 7] {
            let mut shards = vec![HistogramSnapshot::default(); parts];
            for (i, &v) in values.iter().enumerate() {
                shards[i % parts].observe(v);
            }
            let mut merged = HistogramSnapshot::default();
            // Fold in a rotated order to also exercise commutativity.
            for i in 0..parts {
                merged.merge_from(&shards[(i + parts / 2) % parts]);
            }
            assert_eq!(merged, direct, "seed {seed} parts {parts}");
        }
    }
}

/// The series a sampler owning a ring of the interval's width produced:
/// one sample per window that ring closed, carrying the prefix sum and the
/// state of the last request recorded before the closing one.
fn own_ring_series(
    inputs: &[WindowInput],
    state: impl Fn(usize) -> (u64, Option<f64>),
    interval: u64,
    costs: CostModel,
) -> Vec<SeriesSample> {
    let mut ring = WindowRing::new(interval, 1);
    let (mut cum, mut samples) = (TrafficCounter::default(), Vec::new());
    let (mut occupancy, mut age) = (0, None);
    let mut sample = |w: &WindowStats, occupancy: u64, age: Option<f64>| {
        cum += w.traffic;
        samples.push(SeriesSample {
            t_ms: w.index * interval,
            interval: w.traffic,
            cum,
            efficiency: w.traffic.efficiency(costs),
            cum_efficiency: cum.efficiency(costs),
            occupancy_chunks: occupancy,
            capacity_chunks: 1 << 20,
            cache_age_ms: age,
        });
    };
    for (n, input) in inputs.iter().enumerate() {
        ring.record(input, &mut |w| sample(w, occupancy, age));
        let (o, a) = state(n);
        occupancy = o;
        age = a.or(age);
    }
    ring.finish(&mut |w| sample(w, occupancy, age));
    samples
}

#[test]
fn folded_hourly_windows_equal_the_own_ring_sampler() {
    const HOUR: u64 = 3_600_000;
    let costs = CostModel::from_alpha(2.0).expect("valid alpha");
    let state = |n: usize| (n as u64, (!n.is_multiple_of(4)).then_some(n as f64 * 1.5));
    for seed in [31u64, 32, 20140413] {
        let mut rng = DetRng::new(seed);
        // About a week of trace time: steps of up to 40 minutes, and now
        // and then a silence of a day or two, so whole samples are empty.
        let mut inputs = random_inputs(&mut rng, 400, 40 * 60_000);
        let mut shift = 0;
        for input in &mut inputs {
            if rng.below(100) == 0 {
                shift += HOUR * (24 + rng.below(24));
            }
            input.t_ms += shift;
        }
        for hours in [1u64, 6, 24] {
            let interval = hours * HOUR;
            let mut ring = WindowRing::new(HOUR, 1);
            let mut sampler = ReplaySampler::new(interval, HOUR, costs);
            for (n, input) in inputs.iter().enumerate() {
                ring.record(input, &mut |w| sampler.on_window(w));
                let (occupancy, age) = state(n);
                sampler.stamp(occupancy, 1 << 20, age);
            }
            ring.finish(&mut |w| sampler.on_window(w));
            let folded = sampler.finish();
            let own = own_ring_series(&inputs, state, interval, costs);
            assert!(own.len() > 3, "seed {seed}: {hours} h: too short a series");
            assert_eq!(folded, own, "seed {seed}: {hours} h samples");
        }
    }
}

#[test]
fn a_fold_of_narrow_windows_is_the_wide_ring() {
    // The health-window direction: hourly windows folded to 6 hours equal
    // a 6-hour ring's windows, stream peak included.
    let mut rng = DetRng::new(41);
    let inputs = random_inputs(&mut rng, 500, 50_000);
    let (mut narrow, mut wide) = (WindowRing::new(10_000, 1), WindowRing::new(60_000, 1));
    let (mut folded, mut direct) = (Vec::new(), Vec::new());
    let mut fold = WindowFold::new(6);
    for input in &inputs {
        narrow.record(input, &mut |w| folded.extend(fold.push(w)));
        wide.record(input, &mut |w| direct.push(w.clone()));
    }
    narrow.finish(&mut |w| folded.extend(fold.push(w)));
    folded.extend(fold.finish());
    wide.finish(&mut |w| direct.push(w.clone()));
    assert!(direct.len() > 10);
    assert_eq!(folded, direct);
}
