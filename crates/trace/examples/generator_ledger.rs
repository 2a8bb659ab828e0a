//! Where `TraceGenerator::generate` spends its time: every stage re-run on
//! one thread through the public API, then the real call for its wall time.
//! (One RNG stream instead of four forks: same work, not the same trace.)
//! `cargo run --release -p vcdn-trace --example generator_ledger -- 0.5 30`
use std::time::{Duration, Instant};
use vcdn_trace::catalog::{AliasSampler, AliasScratch, Catalog};
use vcdn_trace::{dist::sample_exp, rng::DetRng, session::expand_session_into};
use vcdn_trace::{ServerProfile, TraceGenerator};
use vcdn_types::{worker_count, DurationMs, Request, Timestamp, VideoId};

fn main() {
    let arg = |i| std::env::args().nth(i).and_then(|a| a.parse::<f64>().ok());
    let p = ServerProfile::europe().scaled(arg(1).unwrap_or(0.5));
    let duration = DurationMs::from_days(arg(2).unwrap_or(30.0) as u64);
    let (hour, mut rng) = (DurationMs::HOUR.as_millis(), DetRng::new(20140413));
    let row = |stage: &str, d: Duration| println!("{stage:<10}{:>7.3} s", d.as_secs_f64());
    #[expect(clippy::disallowed_methods, reason = "the ledger's stopwatch")]
    let mut last = Instant::now();
    #[expect(clippy::disallowed_methods, reason = "the ledger's stopwatch")]
    let mut lap = || std::mem::replace(&mut last, Instant::now()).elapsed();

    let catalog = Catalog::generate(&p.catalog, duration, &mut rng);
    row("catalog", lap());
    let peak = 1.0 + p.diurnal_amplitude;
    let rate = p.sessions_per_day / DurationMs::DAY.as_millis() as f64 * peak;
    let (mut starts, mut t) = (Vec::new(), sample_exp(&mut rng, rate));
    while t < duration.as_millis() as f64 {
        if rng.chance(p.diurnal_multiplier(t / hour as f64 % 24.0) / peak) {
            starts.push(Timestamp(t as u64));
        }
        t += sample_exp(&mut rng, rate);
    }
    row("arrivals", lap());
    let mut table = AliasSampler::with_capacity(catalog.len());
    let mut scratch = AliasScratch::with_capacity(catalog.len());
    let (mut pend, mut out) = (Vec::<Request>::new(), Vec::<Request>::new());
    let (mut spent, mut entries) = ([Duration::ZERO; 3], 0);
    for starts in starts.chunk_by(|a, b| a.as_millis() / hour == b.as_millis() / hour) {
        let end = (starts[0].as_millis() / hour + 1) * hour;
        lap();
        catalog.fill_sampler(Timestamp(end - hour / 2), &mut table, &mut scratch);
        spent[0] += lap();
        entries += table.len();
        for &start in starts {
            let v = table.sample(&mut rng);
            let size = catalog.get(v).size_bytes;
            expand_session_into(
                &mut pend,
                VideoId(v as u64),
                size,
                start,
                &p.session,
                &mut rng,
            );
        }
        spent[1] += lap();
        pend.sort_by_key(|r| r.t);
        let ready = pend.partition_point(|r| r.t.as_millis() < end);
        out.extend(pend.drain(..ready));
        spent[2] += lap();
    }
    out.append(&mut pend);
    (["sampler", "expansion", "flush"].into_iter().zip(spent)).for_each(|(s, d)| row(s, d));
    let per_entry = spent[0].as_secs_f64() * 1e9 / entries.max(1) as f64;
    println!("sampler: {entries} live-video entries, {per_entry:.1} ns each");
    lap();
    let trace = TraceGenerator::new(p, 20140413).generate(duration);
    row("generate", lap());
    let (w, n, m) = (worker_count(), trace.len(), out.len());
    println!("{w} workers, {n} requests (this pass, on one RNG stream: {m})");
}
