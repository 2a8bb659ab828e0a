//! Randomized property tests for the core vocabulary: range arithmetic,
//! the cost model's normalisation, and traffic-counter identities.
//!
//! The workspace builds offline, so instead of an external property-test
//! framework these run a fixed number of cases drawn from a small
//! deterministic SplitMix64 generator; failures print the case seed.

use vcdn_types::json::{self, Json, ObjectWriter};
use vcdn_types::{
    ByteRange, ChunkRange, ChunkSize, CostModel, DurationMs, Request, Timestamp, TrafficCounter,
    VideoId,
};

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

    /// Uniform float in `[lo, hi)`.
    fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }
}

fn for_each_case(test: impl Fn(&mut TestRng, u64)) {
    for case in 0..CASES {
        let mut rng = TestRng(0xC0FFEE ^ case.wrapping_mul(0x2545F4914F6CDD1D));
        test(&mut rng, case);
    }
}

#[test]
fn byte_to_chunk_range_covers_every_requested_byte() {
    for_each_case(|rng, case| {
        let start = rng.range(0, 1_000_000);
        let len = rng.range(1, 1_000_000);
        let k = ChunkSize::new(rng.range(1, 100_000)).expect("non-zero");
        let bytes = ByteRange::new(start, start + len - 1).expect("start <= end");
        let chunks = bytes.chunk_range(k);
        // First chunk contains the first byte; last chunk the last byte.
        assert_eq!(
            u64::from(chunks.start),
            k.chunk_of_byte(bytes.start),
            "case {case}"
        );
        assert_eq!(
            u64::from(chunks.end),
            k.chunk_of_byte(bytes.end),
            "case {case}"
        );
        // Chunk-covered byte span is a superset of the byte range.
        let covered_start = u64::from(chunks.start) * k.bytes();
        let covered_end = (u64::from(chunks.end) + 1) * k.bytes() - 1;
        assert!(covered_start <= bytes.start, "case {case}");
        assert!(covered_end >= bytes.end, "case {case}");
        // And wastes less than one chunk on each side.
        assert!(bytes.start - covered_start < k.bytes(), "case {case}");
        assert!(covered_end - bytes.end < k.bytes(), "case {case}");
    });
}

#[test]
fn chunk_count_identities() {
    for_each_case(|rng, case| {
        let start = rng.range(0, 10_000);
        let len = rng.range(1, 100_000);
        let k = ChunkSize::new(rng.range(1, 1_000)).expect("non-zero");
        let r = Request::new(
            VideoId(1),
            ByteRange::new(start, start + len - 1).expect("valid"),
            Timestamp(0),
        );
        let n = r.chunk_len(k);
        // A request of `len` bytes touches between ceil(len/K) and
        // ceil(len/K)+1 chunks (misalignment adds at most one).
        let lower = len.div_ceil(k.bytes());
        assert!(n >= lower, "case {case}");
        assert!(n <= lower + 1, "case {case}");
        assert_eq!(r.byte_len(), len, "case {case}");
    });
}

#[test]
fn chunk_range_len_matches_iteration() {
    for_each_case(|rng, case| {
        let s = rng.range(0, 1000) as u32;
        let extra = rng.range(0, 100) as u32;
        let r = ChunkRange::new(s, s + extra).expect("valid");
        assert_eq!(r.len() as usize, r.iter().count(), "case {case}");
        assert!(r.iter().all(|c| r.contains(c)), "case {case}");
    });
}

#[test]
fn cost_model_normalisation() {
    for_each_case(|rng, case| {
        let alpha = rng.f64_range(0.01, 100.0);
        let m = CostModel::from_alpha(alpha).expect("valid alpha");
        assert!((m.c_f() + m.c_r() - 2.0).abs() < 1e-9, "case {case}");
        assert!(
            (m.c_f() / m.c_r() - alpha).abs() < alpha * 1e-9 + 1e-9,
            "case {case}"
        );
        assert!(m.min_cost() <= m.c_f() + 1e-12, "case {case}");
        assert!(m.min_cost() <= m.c_r() + 1e-12, "case {case}");
        assert!(m.c_f() > 0.0 && m.c_r() > 0.0, "case {case}");
    });
}

#[test]
fn efficiency_bounds_and_identity() {
    for_each_case(|rng, case| {
        let hit = rng.range(0, 1_000_000);
        let fill = rng.range(0, 1_000_000);
        let redirect = rng.range(0, 1_000_000);
        let alpha = rng.f64_range(0.05, 20.0);
        let mut t = TrafficCounter::default();
        t.record_hit(hit);
        t.record_fill(fill);
        t.record_redirect(redirect);
        let m = CostModel::from_alpha(alpha).expect("valid alpha");
        let e = t.efficiency(m);
        assert!(
            (-1.0 - 1e-9..=1.0 + 1e-9).contains(&e),
            "case {case}: eff {e}"
        );
        assert_eq!(t.requested_bytes(), hit + fill + redirect, "case {case}");
        assert_eq!(t.served_bytes(), hit + fill, "case {case}");
        // All-hit traffic has efficiency exactly 1.
        if fill == 0 && redirect == 0 && hit > 0 {
            assert!((e - 1.0).abs() < 1e-12, "case {case}");
        }
        // Efficiency decomposes: 1 - fill_frac*C_F - red_frac*C_R.
        if t.requested_bytes() > 0 {
            let total = t.requested_bytes() as f64;
            let expect = 1.0 - fill as f64 / total * m.c_f() - redirect as f64 / total * m.c_r();
            assert!((e - expect).abs() < 1e-12, "case {case}");
        }
    });
}

#[test]
fn traffic_counter_addition_is_fieldwise() {
    for_each_case(|rng, case| {
        let mk = |rng: &mut TestRng| {
            let mut t = TrafficCounter::default();
            t.record_hit(rng.range(0, 1000));
            t.record_fill(rng.range(0, 1000));
            t.record_redirect(rng.range(0, 1000));
            t
        };
        let (ta, tb) = (mk(rng), mk(rng));
        let sum = ta + tb;
        assert_eq!(sum.hit_bytes, ta.hit_bytes + tb.hit_bytes, "case {case}");
        assert_eq!(
            sum.requested_bytes(),
            ta.requested_bytes() + tb.requested_bytes(),
            "case {case}"
        );
    });
}

#[test]
fn timestamp_arithmetic_is_consistent() {
    for_each_case(|rng, case| {
        let a = rng.range(0, u64::MAX / 2);
        let d = rng.range(0, 1_000_000);
        let t = Timestamp(a);
        let later = t + DurationMs(d);
        assert_eq!(later - t, DurationMs(d), "case {case}");
        assert_eq!(t - later, DurationMs::ZERO, "case {case}");
        assert!(later >= t, "case {case}");
    });
}

#[test]
fn json_roundtrips_arbitrary_values() {
    use vcdn_types::json;
    for_each_case(|rng, case| {
        let r = Request::new(
            VideoId(rng.next()),
            ByteRange::new(0, rng.range(1, 1 << 40)).expect("valid"),
            Timestamp(rng.range(0, 1 << 45)),
        );
        let back: Request = json::from_str(&json::to_string(&r)).expect("parses");
        assert_eq!(back, r, "case {case}");

        let mut t = TrafficCounter::default();
        t.record_hit(rng.next() >> 8);
        t.record_fill(rng.next() >> 8);
        t.record_redirect(rng.next() >> 8);
        let back: TrafficCounter = json::from_str(&json::to_string(&t)).expect("parses");
        assert_eq!(back, t, "case {case}");

        let m = CostModel::from_alpha(rng.f64_range(0.01, 50.0)).expect("valid");
        let back: CostModel = json::from_str(&json::to_string(&m)).expect("parses");
        assert_eq!(back, m, "case {case}");
    });
}

/// One generated object field: how [`ObjectWriter`] is asked to write it,
/// and the [`Json`] value that must render to the same bytes.
enum Field {
    Str(String),
    U64(u64),
    U64s(Vec<u64>),
    F64(f64),
    OptF64(Option<f64>),
    Raw(Json),
}

impl Field {
    fn tree(&self) -> Json {
        match self {
            Field::Str(s) => Json::Str(s.clone()),
            Field::U64(v) => Json::Int(i128::from(*v)),
            Field::U64s(vs) => Json::Arr(vs.iter().map(|&v| Json::Int(i128::from(v))).collect()),
            Field::F64(x) | Field::OptF64(Some(x)) => Json::Float(*x),
            Field::OptF64(None) => Json::Null,
            Field::Raw(j) => j.clone(),
        }
    }
}

/// A string over an alphabet that is mostly the bytes the writer must
/// escape or may not split: quotes, backslashes, control bytes, non-ASCII.
fn tricky_string(rng: &mut TestRng) -> String {
    const ALPHABET: [char; 12] = [
        'a', 'Z', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '😀',
    ];
    let plain = rng.range(0, 3) == 0;
    (0..rng.range(0, 9))
        .map(|_| ALPHABET[rng.range(0, if plain { 3 } else { 12 }) as usize])
        .collect()
}

fn tricky_f64(rng: &mut TestRng) -> f64 {
    match rng.range(0, 8) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => rng.range(0, 1 << 53) as f64, // integral: the forced `.0`
        5 => f64::from_bits(rng.next()),
        _ => rng.f64_range(-1e6, 1e6),
    }
}

#[test]
fn object_writer_matches_the_json_tree_byte_for_byte() {
    use std::cell::Cell;
    let (escaped, wide, nulls, forced) = (Cell::new(0), Cell::new(0), Cell::new(0), Cell::new(0));
    for_each_case(|rng, case| {
        let fields: Vec<(String, Field)> = (0..rng.range(0, 8))
            .map(|_| {
                let field = match rng.range(0, 7) {
                    0 => Field::Str(tricky_string(rng)),
                    1 => Field::U64([0, rng.next(), u64::MAX][rng.range(0, 3) as usize]),
                    2 => Field::U64s((0..rng.range(0, 4)).map(|_| rng.next() >> 40).collect()),
                    3 => Field::F64(tricky_f64(rng)),
                    4 => Field::OptF64((rng.range(0, 2) == 0).then(|| tricky_f64(rng))),
                    5 => Field::Raw(Json::Int(
                        [
                            i128::from(i64::MIN),
                            i128::from(u64::MAX) + 1 + i128::from(rng.next()),
                            i128::MIN,
                            -i128::from(rng.next() >> 1),
                        ][rng.range(0, 4) as usize],
                    )),
                    _ => Field::Raw(Json::Obj(vec![
                        (tricky_string(rng), Json::Bool(rng.range(0, 2) == 0)),
                        ("x".into(), Json::Arr(vec![Json::Null, Json::Float(0.5)])),
                    ])),
                };
                (tricky_string(rng), field)
            })
            .collect();

        let mut line = String::new();
        let open = ObjectWriter::new(&mut line);
        let written = fields.iter().fold(open, |obj, (key, field)| match field {
            Field::Str(s) => obj.str(key, s),
            Field::U64(v) => obj.u64(key, *v),
            Field::U64s(vs) => obj.u64s(key, vs),
            Field::F64(x) => obj.f64(key, *x),
            Field::OptF64(x) => obj.opt_f64(key, *x),
            Field::Raw(j) => obj.raw(key, j),
        });
        written.finish();

        let tree = Json::Obj(fields.iter().map(|(k, f)| (k.clone(), f.tree())).collect());
        assert_eq!(line, tree.to_string(), "case {case}");
        let mut appended = String::from("x");
        tree.write_to(&mut appended);
        assert_eq!(&appended[1..], line, "case {case}");
        // The line is JSON, and a fixed point of parse → write.
        let parsed = json::parse(&line).unwrap_or_else(|e| panic!("case {case}: {line}: {e}"));
        assert_eq!(parsed.to_string(), line, "case {case}");

        escaped.set(escaped.get() + line.matches("\\u00").count());
        wide.set(wide.get() + line.matches("18446744073709551615").count());
        nulls.set(nulls.get() + line.matches("null").count());
        forced.set(forced.get() + line.matches(".0").count());
    });
    for (what, seen) in [
        ("a \\u escape", escaped),
        ("u64::MAX", wide),
        ("null", nulls),
        (".0", forced),
    ] {
        assert!(seen.get() > 0, "no generated object exercised {what}");
    }
}

/// The edge cases spelled out: these bytes are what every committed bundle
/// and golden was written with.
#[test]
fn object_writer_edge_cases_are_pinned() {
    let mut line = String::new();
    ObjectWriter::new(&mut line)
        .str("s", "a\"b\\c\nd\re\tf\u{1}\u{1f}é😀")
        .u64("max", u64::MAX)
        .u64s("none", &[])
        .u64s("some", &[0, 7, u64::MAX])
        .f64("neg_zero", -0.0)
        .f64("integral", 2.0)
        .f64("big", 1e21)
        .f64("third", 1.0 / 3.0)
        .f64("nan", f64::NAN)
        .opt_f64("inf", Some(f64::NEG_INFINITY))
        .opt_f64("absent", None)
        .raw("i64_min", &Json::Int(i128::from(i64::MIN)))
        .raw("wide", &Json::Int(-(1i128 << 100)))
        .finish();
    assert_eq!(
        line,
        concat!(
            r#"{"s":"a\"b\\c\nd\re\tf\u0001\u001fé😀","max":18446744073709551615,"#,
            r#""none":[],"some":[0,7,18446744073709551615],"neg_zero":-0.0,"#,
            r#""integral":2.0,"big":1000000000000000000000.0,"third":0.3333333333333333,"#,
            r#""nan":null,"inf":null,"absent":null,"i64_min":-9223372036854775808,"#,
            r#""wide":-1267650600228229401496703205376}"#
        )
    );
    let mut empty = String::new();
    ObjectWriter::new(&mut empty).finish();
    ObjectWriter::new(&mut empty).u64("n", 1).finish_line();
    assert_eq!(empty, "{}{\"n\":1}\n");
}
