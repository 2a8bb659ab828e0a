//! Randomized property tests for workload generation: distribution bounds,
//! session structure, trace invariants and down-sampling soundness.
//!
//! The workspace builds offline, so instead of an external property-test
//! framework these loop over cases whose inputs come from a meta [`DetRng`];
//! failures print the case seed so a run can be reproduced.

use vcdn_trace::{
    dist::{sample_exp, sample_watch_fraction, LogNormal, Pareto, Zipf},
    downsample,
    rng::DetRng,
    session::{expand_session, SessionConfig},
    DownsampleConfig, ServerProfile, TraceGenerator,
};
use vcdn_types::{ChunkSize, DurationMs, Timestamp, VideoId};

/// Runs `cases` iterations, handing each a fresh seed from a meta-RNG.
fn for_each_seed(cases: usize, test: impl Fn(&mut DetRng, u64)) {
    let mut meta = DetRng::new(0x7ACE_0901);
    for _ in 0..cases {
        let seed = meta.next_u64();
        let mut rng = DetRng::new(seed);
        test(&mut rng, seed);
    }
}

#[test]
fn rng_streams_are_seed_deterministic() {
    for_each_seed(256, |_, seed| {
        let mut a = DetRng::new(seed);
        let mut b = DetRng::new(seed);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
    });
}

#[test]
fn rng_below_stays_in_range() {
    for_each_seed(256, |rng, seed| {
        let n = 1 + rng.below(1_000_000);
        let mut r = DetRng::new(seed ^ 1);
        for _ in 0..64 {
            assert!(r.below(n) < n, "seed {seed}, n {n}");
        }
    });
}

#[test]
fn zipf_samples_stay_in_rank_range() {
    for_each_seed(128, |rng, seed| {
        let n = 1 + rng.below(10_000);
        let s = 0.1 + rng.f64() * 2.4;
        let z = Zipf::new(n, s).expect("valid zipf");
        for _ in 0..64 {
            let k = z.sample(rng);
            assert!((1..=n).contains(&k), "seed {seed}");
        }
    });
}

#[test]
fn pareto_respects_scale() {
    for_each_seed(128, |rng, seed| {
        let xm = 0.1 + rng.f64() * 9.9;
        let a = 0.2 + rng.f64() * 3.8;
        let p = Pareto::new(xm, a).expect("valid pareto");
        for _ in 0..64 {
            assert!(p.sample(rng) >= xm, "seed {seed}");
        }
    });
}

#[test]
fn lognormal_is_positive() {
    for_each_seed(128, |rng, seed| {
        let mu = -3.0 + rng.f64() * 13.0;
        let sigma = rng.f64() * 2.0;
        let d = LogNormal::new(mu, sigma).expect("valid lognormal");
        for _ in 0..64 {
            assert!(d.sample(rng) > 0.0, "seed {seed}");
        }
    });
}

#[test]
fn exponential_is_positive() {
    for_each_seed(128, |rng, seed| {
        let rate = 0.001 + rng.f64() * 99.999;
        for _ in 0..64 {
            assert!(sample_exp(rng, rate) >= 0.0, "seed {seed}");
        }
    });
}

#[test]
fn watch_fraction_in_unit_interval() {
    for_each_seed(128, |rng, seed| {
        let p_full = rng.f64();
        let mean = 0.01 + rng.f64() * 0.99;
        for _ in 0..32 {
            let f = sample_watch_fraction(rng, p_full, mean);
            assert!(f > 0.0 && f <= 1.0, "seed {seed}");
        }
    });
}

#[test]
fn sessions_cover_contiguous_in_file_ranges() {
    for_each_seed(128, |rng, seed| {
        let size = 1 + rng.below(500_000_000);
        let req_bytes = 1 + rng.below(64_000_000);
        let cfg = SessionConfig {
            request_bytes: req_bytes,
            ..SessionConfig::default()
        };
        let reqs = expand_session(VideoId(1), size, Timestamp(7), &cfg, rng);
        assert!(!reqs.is_empty(), "seed {seed}");
        assert!(reqs[0].t == Timestamp(7), "seed {seed}");
        for w in reqs.windows(2) {
            assert_eq!(w[1].bytes.start, w[0].bytes.end + 1, "seed {seed}");
            assert!(w[0].t <= w[1].t, "seed {seed}");
        }
        for q in &reqs {
            assert!(q.bytes.end < size, "seed {seed}");
            assert!(q.byte_len() <= req_bytes, "seed {seed}");
        }
    });
}

#[test]
fn generated_traces_are_ordered_and_deterministic() {
    for_each_seed(8, |_, seed| {
        let profile = ServerProfile::tiny_test();
        let a = TraceGenerator::new(profile.clone(), seed).generate(DurationMs::from_hours(3));
        let b = TraceGenerator::new(profile, seed).generate(DurationMs::from_hours(3));
        assert_eq!(a, b, "seed {seed}");
        assert!(
            a.requests.windows(2).all(|w| w[0].t <= w[1].t),
            "seed {seed}"
        );
    });
}

#[test]
fn downsample_never_invents_requests() {
    for_each_seed(8, |rng, seed| {
        let files = 1 + rng.below(39) as usize;
        let cap_mb = 1 + rng.below(29);
        let trace = TraceGenerator::new(ServerProfile::tiny_test(), seed)
            .generate(DurationMs::from_hours(12));
        let cfg = DownsampleConfig {
            files,
            size_cap_bytes: cap_mb * 1024 * 1024,
            from: Timestamp::EPOCH,
            to: Timestamp(DurationMs::from_hours(12).as_millis()),
        };
        let d = downsample(&trace, &cfg);
        assert!(d.len() <= trace.len(), "seed {seed}");
        let videos: std::collections::BTreeSet<VideoId> =
            d.requests.iter().map(|r| r.video).collect();
        assert!(videos.len() <= files, "seed {seed}");
        for r in &d.requests {
            assert!(r.bytes.end < cap_mb * 1024 * 1024, "seed {seed}");
        }
        // Every kept request is a (possibly clipped) original request.
        for r in &d.requests {
            assert!(
                trace.requests.iter().any(|o| o.video == r.video
                    && o.t == r.t
                    && o.bytes.start == r.bytes.start
                    && o.bytes.end >= r.bytes.end),
                "seed {seed}: downsampled request {r} has no original"
            );
        }
    });
}

#[test]
fn stats_identities_hold() {
    for_each_seed(8, |_, seed| {
        let trace = TraceGenerator::new(ServerProfile::tiny_test(), seed)
            .generate(DurationMs::from_hours(8));
        let k = ChunkSize::DEFAULT;
        let s = vcdn_trace::stats::trace_stats(&trace, k);
        assert_eq!(s.requests, trace.len(), "seed {seed}");
        assert!(s.requested_chunk_bytes >= s.requested_bytes, "seed {seed}");
        assert!(s.unique_chunks >= s.unique_videos, "seed {seed}");
        assert!((0.0..=1.0).contains(&s.tail_fraction), "seed {seed}");
        assert_eq!(
            s.hourly_histogram.iter().sum::<u64>() as usize,
            s.requests,
            "seed {seed}"
        );
    });
}

#[test]
fn binary_format_roundtrips_generated_traces() {
    for_each_seed(8, |_, seed| {
        let trace = TraceGenerator::new(ServerProfile::tiny_test(), seed)
            .generate(DurationMs::from_hours(2));
        let dir = std::env::temp_dir().join("vcdn-prop-binfmt");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("t{seed}.vctb"));
        vcdn_trace::save_binary(&trace, &path).expect("save");
        let back = vcdn_trace::load_binary(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace, "seed {seed}");
    });
}

#[test]
fn jsonl_format_roundtrips_generated_traces() {
    for_each_seed(8, |_, seed| {
        let trace = TraceGenerator::new(ServerProfile::tiny_test(), seed)
            .generate(DurationMs::from_hours(2));
        let dir = std::env::temp_dir().join("vcdn-prop-jsonl");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(format!("t{seed}.jsonl"));
        trace.save_jsonl(&path).expect("save");
        let back = vcdn_trace::Trace::load_jsonl(&path).expect("load");
        std::fs::remove_file(&path).ok();
        assert_eq!(back, trace, "seed {seed}");
    });
}
