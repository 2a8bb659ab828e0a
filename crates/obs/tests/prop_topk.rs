//! Property tests for the Space-Saving sketch: seeded random streams
//! against an exact-count oracle, plus the determinism guarantees the
//! telemetry contract depends on.
//!
//! The central property is the classic Space-Saving bound — for every
//! tracked key `x` after `n` records into a `k`-slot sketch:
//!
//! ```text
//! count(x) − err(x) ≤ true_count(x) ≤ count(x),   err(x) ≤ n / k
//! ```
//!
//! and any key with `true_count > n / k` is guaranteed tracked.

use std::collections::BTreeMap;

use vcdn_obs::topk::SpaceSaving;
use vcdn_trace::rng::DetRng;

/// A skewed random stream: key drawn as `floor(u^3 · universe)`, which
/// concentrates mass on small keys (a cheap Zipf-ish surrogate).
fn skewed_stream(rng: &mut DetRng, len: usize, universe: u64) -> Vec<u64> {
    (0..len)
        .map(|_| {
            let u = rng.f64();
            (u * u * u * universe as f64) as u64
        })
        .collect()
}

fn exact_counts(stream: &[u64]) -> BTreeMap<u64, u64> {
    let mut truth = BTreeMap::new();
    for &key in stream {
        *truth.entry(key).or_insert(0u64) += 1;
    }
    truth
}

#[test]
fn error_bound_holds_on_seeded_random_streams() {
    for seed in [1u64, 42, 20140413] {
        let mut rng = DetRng::new(seed);
        for (k, len, universe) in [(4usize, 2000usize, 50u64), (16, 10_000, 500), (8, 5000, 40)] {
            let stream = skewed_stream(&mut rng, len, universe);
            let truth = exact_counts(&stream);
            let mut sketch = SpaceSaving::new(k);
            for &key in &stream {
                sketch.record(key);
            }
            assert_eq!(sketch.total(), len as u64, "seed {seed} k {k}");
            let n_over_k = sketch.total() / k as u64;
            for e in sketch.entries() {
                let t = truth.get(&e.key).copied().unwrap_or(0);
                assert!(
                    e.count >= t,
                    "seed {seed} k {k}: count {} under-estimates true {t} for key {}",
                    e.count,
                    e.key
                );
                assert!(
                    e.count - e.err <= t,
                    "seed {seed} k {k}: lower bound {} exceeds true {t} for key {}",
                    e.count - e.err,
                    e.key
                );
                assert!(
                    e.err <= n_over_k,
                    "seed {seed} k {k}: err {} exceeds n/k {n_over_k}",
                    e.err
                );
            }
            // Completeness: every key with true count > n/k must be tracked.
            for (&key, &t) in &truth {
                if t > n_over_k {
                    assert!(
                        sketch.count(key).is_some(),
                        "seed {seed} k {k}: heavy key {key} (true {t} > {n_over_k}) untracked"
                    );
                }
            }
        }
    }
}

#[test]
fn identical_streams_yield_identical_exports() {
    let mut rng = DetRng::new(77);
    let stream = skewed_stream(&mut rng, 4000, 200);
    let run = || {
        let mut sketch = SpaceSaving::new(8);
        for &key in &stream {
            sketch.record(key);
        }
        sketch.entries()
    };
    assert_eq!(run(), run());
}

/// With no evictions (distinct keys ≤ k), the exported entries are a pure
/// function of the key *multiset* — any permutation of an equal-frequency
/// stream produces the identical export, because the sort order
/// `(count desc, key asc)` ignores arrival order.
#[test]
fn permuted_equal_frequency_ties_export_identically() {
    let keys: Vec<u64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    let mut rng = DetRng::new(7);
    let mut sketches = Vec::new();
    for _ in 0..16 {
        // Fisher–Yates with the deterministic RNG.
        let mut perm = keys.clone();
        for i in (1..perm.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            perm.swap(i, j);
        }
        let mut sketch = SpaceSaving::new(keys.len());
        for &key in &perm {
            sketch.record(key);
        }
        sketches.push(sketch.entries());
    }
    for s in &sketches[1..] {
        assert_eq!(&sketches[0], s, "permutation changed the export");
    }
    // And equal-count runs are ordered by ascending key.
    let first = &sketches[0];
    for pair in first.windows(2) {
        assert!(
            pair[0].count > pair[1].count
                || (pair[0].count == pair[1].count && pair[0].key < pair[1].key),
            "export not sorted (count desc, key asc): {first:?}"
        );
    }
}

/// Under eviction pressure the surviving *set* may legitimately depend on
/// arrival order (classic Space-Saving), but for one fixed stream the
/// outcome must be exactly reproducible — and the eviction tie-break
/// (largest key loses) must never let an equal-count smaller key be
/// displaced before a larger one.
#[test]
fn eviction_tie_break_prefers_smaller_keys() {
    for seed in [5u64, 6, 7] {
        let mut rng = DetRng::new(seed);
        let mut sketch = SpaceSaving::new(4);
        // Saturate with four equal-count keys, then insert new ones:
        // evictions must consume the largest keys first.
        for key in [100u64, 200, 300, 400] {
            sketch.record(key);
        }
        let newcomer = 1 + rng.below(50);
        sketch.record(newcomer);
        assert!(sketch.count(400).is_none(), "largest key must evict first");
        assert!(sketch.count(100).is_some());
        assert!(sketch.count(newcomer).is_some());
    }
}

#[test]
fn uniform_stream_respects_bounds_even_when_sketch_is_useless() {
    // Uniform traffic has no heavy hitters; the sketch may track noise,
    // but the bounds must still hold.
    let mut rng = DetRng::new(99);
    let stream: Vec<u64> = (0..5000).map(|_| rng.below(2000)).collect();
    let truth = exact_counts(&stream);
    let mut sketch = SpaceSaving::new(8);
    for &key in &stream {
        sketch.record(key);
    }
    for e in sketch.entries() {
        let t = truth.get(&e.key).copied().unwrap_or(0);
        assert!(e.count >= t && e.count - e.err <= t, "entry {e:?} true {t}");
    }
}

/// Space-Saving as the module docs state it, the slow obvious way: a
/// `BTreeMap` of `key → (count, err)`, a full scan for the victim, ties to
/// the largest key.
#[derive(Default)]
struct Textbook {
    slots: BTreeMap<u64, (u64, u64)>,
    tracked_hits: u64,
    tied_evictions: u64,
}

impl Textbook {
    fn record(&mut self, key: u64, k: usize) {
        if let Some((count, _)) = self.slots.get_mut(&key) {
            *count += 1;
            self.tracked_hits += 1;
        } else if self.slots.len() < k {
            self.slots.insert(key, (1, 0));
        } else {
            let min = self.slots.values().map(|&(c, _)| c).min().unwrap();
            let tied = self.slots.iter().filter(|(_, &(c, _))| c == min);
            let victims: Vec<u64> = tied.map(|(&key, _)| key).collect();
            self.tied_evictions += u64::from(victims.len() > 1);
            self.slots.remove(victims.iter().max().unwrap());
            self.slots.insert(key, (min + 1, min));
        }
    }

    /// `(key, count, err)` in the sketch's export order.
    fn entries(&self) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<_> = self.slots.iter().map(|(&k, &(c, e))| (k, c, e)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// The sketch must be the textbook algorithm slot for slot after every
/// record — including which of several minimum-count keys an eviction
/// takes — at the production `k = 8`, at `k = 1` (every miss evicts) and
/// on universes small enough that ties are the rule.
#[test]
fn sketch_agrees_with_a_textbook_space_saving_after_every_record() {
    let (mut tracked_hits, mut tied_evictions) = (0, 0);
    for (k, universe) in [(1usize, 3u64), (2, 5), (8, 12), (8, 400), (16, 40)] {
        let mut rng = DetRng::new(20140413 + k as u64 + universe);
        let mut stream = skewed_stream(&mut rng, 1500, universe);
        // A uniform stretch: equal counts, so evictions meet ties.
        stream.extend((0..1500).map(|_| rng.below(universe)));
        let mut sketch = SpaceSaving::new(k);
        let mut oracle = Textbook::default();
        for (i, &key) in stream.iter().enumerate() {
            sketch.record(key);
            oracle.record(key, k);
            let got: Vec<_> = sketch
                .entries()
                .iter()
                .map(|e| (e.key, e.count, e.err))
                .collect();
            assert_eq!(
                got,
                oracle.entries(),
                "k {k} universe {universe} record {i}"
            );
            assert_eq!(sketch.total(), i as u64 + 1);
            for probe in [key, key + 1, universe] {
                let want = oracle.slots.get(&probe).map(|&(c, _)| c);
                assert_eq!(sketch.count(probe), want, "k {k} count({probe})");
            }
        }
        tracked_hits += oracle.tracked_hits;
        tied_evictions += oracle.tied_evictions;
    }
    assert!(tracked_hits > 0, "the tracked-key path never ran");
    assert!(tied_evictions > 0, "no eviction ever had to break a tie");
}
