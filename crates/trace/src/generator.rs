//! The trace generator: profile → time-ordered request log.
//!
//! Session start times follow an inhomogeneous Poisson process whose rate
//! tracks the profile's diurnal curve (sampled by thinning); each session
//! picks a video from the evolving catalog proportionally to its effective
//! (age-decayed) weight and expands into paced byte-range requests. Video
//! weights change continuously, so the weighted sampler is rebuilt once per
//! *epoch* (one hour), which is far finer than the popularity-decay time
//! constant.
//!
//! Rebuilding the sampler is most of the work and draws no random number,
//! so the epochs' tables are built ahead on worker threads (`ahead.rs`)
//! while this thread consumes them in epoch order, the only place the pick
//! and session streams advance. Requests leave in time-sorted runs, one per
//! epoch (`flush_before`). DESIGN.md "Generator pipeline" has the argument
//! for why the trace is the same at any worker count.

use vcdn_types::{worker_count, DurationMs, Request, Timestamp, VideoId};

use crate::{
    ahead::build_ahead,
    catalog::{AliasSampler, AliasScratch, Catalog},
    dist::sample_exp,
    profile::ServerProfile,
    rng::DetRng,
    session::expand_session_into,
    trace::{Trace, TraceMeta},
};

/// Sampler-rebuild granularity.
const EPOCH: DurationMs = DurationMs::HOUR;

/// Session starts grouped by hour; hours without a start need no sampler
/// and get no entry. A start is stored as its millisecond offset into its
/// hour.
#[derive(Debug, Default)]
struct EpochTable {
    /// Per hour with a start, ascending: the hour's index and the end of
    /// its run of `offsets`.
    hours: Vec<(u64, usize)>,
    /// Every start's offset into its hour, ascending within each hour.
    offsets: Vec<u32>,
}

/// One hour of the trace that has at least one session start.
struct Epoch<'a> {
    /// First instant of the hour.
    begin: Timestamp,
    /// The session starts' offsets into the hour, ascending.
    offsets: &'a [u32],
}

impl EpochTable {
    /// Adds a session start; starts must arrive in ascending order.
    fn push(&mut self, start: Timestamp) {
        let (hour, offset) = (
            start.as_millis() / EPOCH.as_millis(),
            start.as_millis() % EPOCH.as_millis(),
        );
        match self.hours.last_mut() {
            Some((last, end)) if *last == hour => *end += 1,
            _ => self.hours.push((hour, self.offsets.len() + 1)),
        }
        self.offsets
            .push(u32::try_from(offset).expect("an hour is under 2^32 ms"));
    }

    /// Number of hours with a start.
    fn len(&self) -> usize {
        self.hours.len()
    }

    /// Number of session starts.
    fn sessions(&self) -> usize {
        self.offsets.len()
    }

    /// The `e`-th hour with a start.
    fn epoch(&self, e: usize) -> Epoch<'_> {
        let from = e.checked_sub(1).map_or(0, |prev| self.hours[prev].1);
        let (hour, to) = self.hours[e];
        Epoch {
            begin: Timestamp(hour * EPOCH.as_millis()),
            offsets: &self.offsets[from..to],
        }
    }
}

impl Epoch<'_> {
    /// Where the hour's sampler is evaluated.
    fn mid(&self) -> Timestamp {
        self.begin + DurationMs(EPOCH.as_millis() / 2)
    }

    /// First instant of the next hour.
    fn end(&self) -> Timestamp {
        self.begin + EPOCH
    }

    /// The session starts inside the hour, ascending.
    fn starts(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.offsets
            .iter()
            .map(|&offset| self.begin + DurationMs(u64::from(offset)))
    }
}

/// Passes every pending request with `t < end` to `sink`, in the order a
/// stable sort by time gives them, and keeps the rest, sorted the same way.
///
/// Called with each epoch's `end` once the epoch's sessions are in
/// `pending`, this emits the trace in the order one stable sort of all
/// requests would: no later session starts before `end`, so nothing below
/// it is still to come, and what is carried over was pushed before — and
/// stays ahead of — anything a later epoch pushes at the same instant.
fn flush_before(pending: &mut Vec<Request>, end: Timestamp, sink: &mut impl FnMut(&[Request])) {
    pending.sort_by_key(|r| r.t);
    let ready = pending.partition_point(|r| r.t < end);
    sink(&pending[..ready]);
    pending.drain(..ready);
}

/// Deterministic workload generator for one server profile.
///
/// # Examples
///
/// ```
/// use vcdn_trace::{generator::TraceGenerator, profile::ServerProfile};
/// use vcdn_types::DurationMs;
///
/// let gen = TraceGenerator::new(ServerProfile::tiny_test(), 42);
/// let trace = gen.generate(DurationMs::from_hours(6));
/// assert!(!trace.is_empty());
/// // Same profile + seed => identical trace.
/// let again = TraceGenerator::new(ServerProfile::tiny_test(), 42)
///     .generate(DurationMs::from_hours(6));
/// assert_eq!(trace, again);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: ServerProfile,
    seed: u64,
}

/// FNV-1a hash, used to salt the seed with the profile name so two
/// profiles generated with the same numeric seed do not share a stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl TraceGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn new(profile: ServerProfile, seed: u64) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid ServerProfile: {e}"));
        TraceGenerator { profile, seed }
    }

    /// The profile this generator draws from.
    pub fn profile(&self) -> &ServerProfile {
        &self.profile
    }

    /// The catalog that `generate(duration)` draws its videos from.
    pub fn catalog(&self, duration: DurationMs) -> Catalog {
        Catalog::generate(&self.profile.catalog, duration, &mut self.root().fork())
    }

    /// The stream the generator's four streams fork from, in the order
    /// catalog, arrivals, picks, sessions.
    fn root(&self) -> DetRng {
        DetRng::new(self.seed ^ fnv1a(&self.profile.name))
    }

    /// Generates `duration` worth of requests starting at the replay epoch.
    ///
    /// Sampler tables are built on [`worker_count`] threads; the trace is
    /// the same for any count.
    pub fn generate(&self, duration: DurationMs) -> Trace {
        self.generate_with_workers(duration, worker_count())
    }

    /// [`TraceGenerator::generate`] at a given worker count (the tests'
    /// handle on worker-count invariance).
    fn generate_with_workers(&self, duration: DurationMs, workers: usize) -> Trace {
        let mut requests: Vec<Request> = Vec::new();
        let mut reserved = false;
        let sessions = self.runs(duration, workers, |run, done, sessions| {
            // Sized once, when about a sixteenth of the sessions are in, so
            // that the output never doubles past the trace.
            if !reserved && done > 0 && 16 * done >= sessions {
                reserved = true;
                let expected = expected_len(requests.len() + run.len(), done, sessions);
                requests.reserve_exact(expected.saturating_sub(requests.len()));
            }
            requests.extend_from_slice(run);
        });
        Trace::new(
            TraceMeta {
                name: self.profile.name.clone(),
                seed: self.seed,
                duration,
                description: format!(
                    "synthetic profile '{}', seed {}, {} sessions",
                    self.profile.name, self.seed, sessions
                ),
            },
            requests,
        )
    }

    /// Generates the trace as consecutive time-sorted runs — one per epoch
    /// with sessions, then the tail that outlives the last epoch — whose
    /// concatenation is the trace. With each run, `sink` learns how many
    /// of the trace's sessions have been expanded so far, and how many
    /// there are. Returns the number of sessions started.
    fn runs(
        &self,
        duration: DurationMs,
        workers: usize,
        mut sink: impl FnMut(&[Request], usize, usize),
    ) -> usize {
        let p = &self.profile;
        let catalog = self.catalog(duration);
        let mut root = self.root();
        root.fork(); // the catalog's stream
        let mut arrival_rng = root.fork();
        let mut pick_rng = root.fork();
        let mut session_rng = root.fork();

        // Session start times: thinned Poisson at rate base·(1 + A·cos).
        let base_rate_per_ms = p.sessions_per_day / DurationMs::DAY.as_millis() as f64;
        let lambda_max = base_rate_per_ms * (1.0 + p.diurnal_amplitude);
        let mut epochs = EpochTable::default();
        let mut t = 0.0f64;
        let horizon = duration.as_millis() as f64;
        loop {
            t += sample_exp(&mut arrival_rng, lambda_max);
            if t >= horizon {
                break;
            }
            let hour_of_day = t / DurationMs::HOUR.as_millis() as f64 % 24.0;
            let accept = p.diurnal_multiplier(hour_of_day) / (1.0 + p.diurnal_amplitude);
            if arrival_rng.chance(accept) {
                epochs.push(Timestamp(t as u64));
            }
        }
        // Grown by doubling: hand the slack back before the tables are made.
        epochs.offsets.shrink_to_fit();
        let sessions = epochs.sessions();

        // Expand sessions epoch by epoch, each with its own weighted
        // sampler. Sessions outlive their epoch, so requests wait in
        // `pending` until no later session can precede them.
        let mut pending: Vec<Request> = Vec::new();
        let mut done = 0;
        build_ahead(
            epochs.len(),
            workers,
            || AliasSampler::with_capacity(catalog.len()),
            || {
                let mut scratch = AliasScratch::with_capacity(catalog.len());
                let (catalog, epochs) = (&catalog, &epochs);
                move |e: usize, sampler: &mut AliasSampler| {
                    catalog.fill_sampler(epochs.epoch(e).mid(), sampler, &mut scratch);
                }
            },
            |e, sampler| {
                let epoch = epochs.epoch(e);
                // An empty table: no video is live yet, the sessions are lost.
                if !sampler.is_empty() {
                    for start in epoch.starts() {
                        let video = sampler.sample(&mut pick_rng);
                        expand_session_into(
                            &mut pending,
                            VideoId(video as u64),
                            catalog.get(video).size_bytes,
                            start,
                            &p.session,
                            &mut session_rng,
                        );
                    }
                }
                done += epoch.offsets.len();
                flush_before(&mut pending, epoch.end(), &mut |run| {
                    sink(run, done, sessions)
                });
            },
        );
        sink(&pending, sessions, sessions);
        sessions
    }
}

/// The trace's length extrapolated from its first runs — `so_far`
/// requests from `done` of `sessions` sessions — plus an eighth, so that
/// the spread between a sample and the whole rarely leaves it short.
fn expected_len(so_far: usize, done: usize, sessions: usize) -> usize {
    (so_far as f64 * sessions as f64 / done as f64 * 1.125) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn small_trace(seed: u64, hours: u64) -> Trace {
        TraceGenerator::new(ServerProfile::tiny_test(), seed)
            .generate(DurationMs::from_hours(hours))
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(small_trace(1, 12), small_trace(1, 12));
        assert_ne!(small_trace(1, 12).requests, small_trace(2, 12).requests);
    }

    #[test]
    fn any_worker_count_generates_the_same_trace() {
        let cases = [
            (ServerProfile::tiny_test(), 7, DurationMs::from_hours(48)),
            (
                ServerProfile::europe().scaled(0.004),
                20140413,
                DurationMs::from_days(4),
            ),
        ];
        for (profile, seed, duration) in cases {
            let gen = TraceGenerator::new(profile, seed);
            let one = gen.generate_with_workers(duration, 1);
            assert!(!one.is_empty());
            for workers in [2, 3, 8] {
                let many = gen.generate_with_workers(duration, workers);
                assert!(one == many, "{}: {workers} workers", one.meta.name);
            }
            assert!(
                one == gen.generate(duration),
                "{}: default count",
                one.meta.name
            );
        }
    }

    #[test]
    fn runs_are_sorted_and_concatenate_to_the_trace() {
        let gen = TraceGenerator::new(ServerProfile::tiny_test(), 11);
        let duration = DurationMs::from_hours(30);
        let mut runs: Vec<Vec<Request>> = Vec::new();
        let mut progress = Vec::new();
        let sessions = gen.runs(duration, 2, |run, done, of| {
            runs.push(run.to_vec());
            progress.push((done, of));
        });
        // Sessions expanded so far: rising, and all of them by the tail.
        assert!(progress.iter().all(|&(_, of)| of == sessions));
        assert!(progress.windows(2).all(|p| p[0].0 <= p[1].0));
        assert_eq!(progress.last(), Some(&(sessions, sessions)));
        // One run per epoch with sessions plus the tail; each stays on its
        // side of every later run.
        assert!(runs.len() > 20 && runs.len() <= 31, "{} runs", runs.len());
        for pair in runs.windows(2) {
            if let (Some(a), Some(b)) = (pair[0].last(), pair[1].first()) {
                assert!(a.t <= b.t);
            }
        }
        assert_eq!(runs.concat(), gen.generate(duration).requests);
    }

    /// A session of `n` requests of video `v`, `pace` ms apart from `start`.
    fn session(v: u64, start: u64, n: u64, pace: u64) -> Vec<Request> {
        (0..n)
            .map(|i| {
                let bytes = vcdn_types::ByteRange::new(i * 10, i * 10 + 9).unwrap();
                Request::new(VideoId(v), bytes, Timestamp(start + i * pace))
            })
            .collect()
    }

    #[test]
    fn epoch_flush_is_one_stable_sort_of_everything() {
        let h = EPOCH.as_millis();
        // Per epoch with sessions: (sessions in start order, epoch end).
        let epochs: Vec<(Vec<Vec<Request>>, u64)> = vec![
            (
                vec![
                    // Lands a request exactly on the boundary `h` ...
                    session(1, h - 2_000, 3, 1_000),
                    // ... spans three epochs, tying with it at `h` ...
                    session(2, h / 2, 5, h / 2),
                    // ... and a later start that ties with both at `h`.
                    session(3, h - 500, 2, 500),
                ],
                h,
            ),
            (
                vec![
                    // Starts on the boundary: ties with three carried requests.
                    session(4, h, 4, 30),
                    session(5, h + 30, 2, 30),
                ],
                2 * h,
            ),
            // Hours 2..=6 have no session start: no entry, no flush. The
            // tail of session 2 (at 2.5 h) is still pending when hour 7's
            // sessions arrive, one of them at the very end of the hour.
            (
                vec![session(6, 7 * h + 5, 2, h), session(7, 8 * h - 1, 3, 1)],
                8 * h,
            ),
        ];

        let mut pushed: Vec<Request> = Vec::new();
        let mut pending: Vec<Request> = Vec::new();
        let mut runs: Vec<Vec<Request>> = Vec::new();
        let mut sink = |run: &[Request]| runs.push(run.to_vec());
        for (sessions, end) in &epochs {
            for s in sessions {
                pushed.extend_from_slice(s);
                pending.extend_from_slice(s);
            }
            flush_before(&mut pending, Timestamp(*end), &mut sink);
        }
        sink(&pending);

        let ties = pushed.iter().filter(|r| r.t == Timestamp(h)).count();
        assert_eq!(ties, 4, "the fixture must tie across the boundary");
        assert!(runs
            .iter()
            .zip(&epochs)
            .all(|(run, (_, end))| run.iter().all(|r| r.t.0 < *end)));
        pushed.sort_by_key(|r| r.t);
        assert_eq!(runs.concat(), pushed);
    }

    #[test]
    fn epoch_table_groups_starts_by_hour_and_skips_empty_hours() {
        let h = EPOCH.as_millis();
        let mut epochs = EpochTable::default();
        for start in [0, 1, h - 1, h, 5 * h + 7, 6 * h - 1, 9 * h] {
            epochs.push(Timestamp(start));
        }
        assert_eq!(epochs.sessions(), 7);
        let table: Vec<(u64, Vec<u64>, u64)> = (0..epochs.len())
            .map(|e| epochs.epoch(e))
            .map(|e| (e.mid().0, e.starts().map(|s| s.0).collect(), e.end().0))
            .collect();
        assert_eq!(
            table,
            vec![
                (h / 2, vec![0, 1, h - 1], h),
                (h + h / 2, vec![h], 2 * h),
                (5 * h + h / 2, vec![5 * h + 7, 6 * h - 1], 6 * h),
                (9 * h + h / 2, vec![9 * h], 10 * h),
            ]
        );
        assert_eq!(EpochTable::default().len(), 0);
    }

    #[test]
    fn profile_name_salts_the_stream() {
        let mut p1 = ServerProfile::tiny_test();
        p1.name = "alpha".into();
        let mut p2 = ServerProfile::tiny_test();
        p2.name = "beta".into();
        let t1 = TraceGenerator::new(p1, 9).generate(DurationMs::from_hours(6));
        let t2 = TraceGenerator::new(p2, 9).generate(DurationMs::from_hours(6));
        assert_ne!(t1.requests, t2.requests);
    }

    #[test]
    fn volume_matches_profile_rate() {
        let trace = small_trace(3, 48);
        // 600 sessions/day for 2 days -> ~1200 sessions; each session emits
        // >= 1 request. Allow generous Poisson + session-length slack.
        let sessions: f64 = 1_200.0;
        let n = trace.len() as f64;
        assert!(
            n > sessions * 0.8,
            "too few requests: {n} for ~{sessions} sessions"
        );
        assert!(n < sessions * 20.0, "implausibly many requests: {n}");
    }

    #[test]
    fn requests_are_time_ordered_within_horizon() {
        let trace = small_trace(4, 24);
        assert!(trace.requests.windows(2).all(|w| w[0].t <= w[1].t));
        // Session tails may run slightly past the horizon (a session that
        // starts before the end keeps streaming); starts must be within.
        assert!(trace.requests[0].t.as_millis() < DurationMs::from_hours(24).as_millis());
    }

    #[test]
    fn popularity_is_skewed() {
        let trace = small_trace(5, 48);
        let mut hits: BTreeMap<VideoId, u64> = BTreeMap::new();
        for r in &trace.requests {
            *hits.entry(r.video).or_default() += 1;
        }
        let mut counts: Vec<u64> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top10: u64 = counts.iter().take(counts.len() / 10 + 1).sum();
        // Top 10% of videos should draw well over a third of requests.
        assert!(
            top10 as f64 / total as f64 > 0.35,
            "popularity not skewed: top10%={}/{}",
            top10,
            total
        );
        // And a long tail of barely-requested videos must exist.
        let singletons = counts.iter().filter(|&&c| c <= 2).count();
        assert!(
            singletons as f64 / counts.len() as f64 > 0.2,
            "one-timer tail missing: {singletons}/{}",
            counts.len()
        );
    }

    #[test]
    fn diurnal_pattern_visible_in_hourly_volume() {
        let mut p = ServerProfile::tiny_test();
        p.sessions_per_day = 4_000.0; // enough samples per hour
        p.diurnal_amplitude = 0.7;
        let trace = TraceGenerator::new(p.clone(), 6).generate(DurationMs::from_days(4));
        let mut hourly = [0u64; 24];
        for r in &trace.requests {
            let h = (r.t.as_millis() / DurationMs::HOUR.as_millis()) % 24;
            hourly[h as usize] += 1;
        }
        let peak = hourly[p.peak_hour as usize % 24] as f64;
        let trough = hourly[(p.peak_hour as usize + 12) % 24] as f64;
        assert!(
            peak > trough * 1.5,
            "diurnal modulation missing: peak={peak} trough={trough}"
        );
    }

    #[test]
    fn empty_duration_yields_empty_trace() {
        let trace = TraceGenerator::new(ServerProfile::tiny_test(), 1).generate(DurationMs::ZERO);
        assert!(trace.is_empty());
    }
}
