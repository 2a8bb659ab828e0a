//! The evolving video catalog: sizes, intrinsic popularity, churn.
//!
//! Each video gets an intrinsic Pareto-distributed weight (inducing a
//! Zipf-like rank-frequency curve with a heavy one-timer tail) and a birth
//! time; its *effective* weight at time `t` decays with age by a power law,
//! `w·(1 + age/τ)^(−β)`, modelling popularity churn — newly uploaded videos
//! dominate, old ones fade. Both phenomena are essential to the paper:
//! the borderline files that caches admit/evict "usually have very few
//! accesses in their lifetime" (§3), and request profiles are transient.

use vcdn_types::float::exactly_zero;
use vcdn_types::{DurationMs, Timestamp, VideoId};

use crate::{
    dist::{LogNormal, Pareto},
    rng::DetRng,
};

/// What generation reads of one catalog video. Its id is its position in
/// the catalog, dense and in birth order; its birth is
/// [`Catalog::birth`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Video {
    /// File size in bytes.
    pub size_bytes: u64,
    /// Intrinsic (age-independent) popularity weight.
    pub weight: f64,
    /// How old the video was at replay start minus its birth, in ms
    /// modulo 2^64 (an arrival's is negative): from its birth on, the
    /// video's age at `t` is `t + age_offset`.
    age_offset: u64,
}

/// Parameters of the catalog model.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogConfig {
    /// Videos already in the corpus at replay start.
    pub initial_videos: usize,
    /// New uploads per day during the trace.
    pub arrivals_per_day: f64,
    /// Shape of the intrinsic-weight Pareto distribution; smaller = heavier
    /// tail = more diverse demand.
    pub popularity_shape: f64,
    /// Median file size in bytes (log-normal).
    pub size_median_bytes: u64,
    /// Log-normal sigma of file size.
    pub size_sigma: f64,
    /// Minimum file size in bytes (clamp).
    pub size_min_bytes: u64,
    /// Maximum file size in bytes (clamp).
    pub size_max_bytes: u64,
    /// Power-law age-decay time constant τ.
    pub decay_tau: DurationMs,
    /// Power-law age-decay exponent β (0 disables churn).
    pub decay_beta: f64,
    /// How far in the past initial-corpus births are spread.
    pub initial_age_span: DurationMs,
}

impl CatalogConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.initial_videos == 0 {
            return Err("initial_videos must be > 0".into());
        }
        if self.arrivals_per_day < 0.0 || !self.arrivals_per_day.is_finite() {
            return Err("arrivals_per_day must be finite and >= 0".into());
        }
        if self.popularity_shape <= 0.0 {
            return Err("popularity_shape must be > 0".into());
        }
        if self.size_min_bytes == 0 || self.size_min_bytes > self.size_max_bytes {
            return Err("size bounds invalid".into());
        }
        if self.decay_beta < 0.0 {
            return Err("decay_beta must be >= 0".into());
        }
        if self.decay_tau == DurationMs::ZERO && self.decay_beta > 0.0 {
            return Err("decay_tau must be > 0 when decay_beta > 0".into());
        }
        Ok(())
    }
}

/// The video corpus over the course of one trace.
///
/// Holds only what generation reads: one [`Video`] per id, plus the births
/// of the videos uploaded during the trace (the initial corpus is born at
/// the epoch), which is all [`Catalog::fill_sampler`] needs to find the
/// live prefix.
#[derive(Debug, Clone)]
pub struct Catalog {
    videos: Vec<Video>,
    /// Births of `videos[config.initial_videos..]`, non-decreasing.
    arrivals: Vec<Timestamp>,
    config: CatalogConfig,
}

impl Catalog {
    /// Builds a catalog: `initial_videos` born in the past (uniformly over
    /// `initial_age_span`), plus Poisson arrivals at `arrivals_per_day`
    /// over `duration`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CatalogConfig::validate`].
    pub fn generate(config: &CatalogConfig, duration: DurationMs, rng: &mut DetRng) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid CatalogConfig: {e}"));
        let pareto =
            Pareto::new(1.0, config.popularity_shape).expect("validated popularity_shape is > 0");
        let sizes = LogNormal::new((config.size_median_bytes as f64).ln(), config.size_sigma)
            .expect("validated size params");
        let mut videos = Vec::with_capacity(config.initial_videos);
        let mut push = |birth: Timestamp, age0: DurationMs, rng: &mut DetRng| {
            let size = sizes
                .sample(rng)
                .clamp(config.size_min_bytes as f64, config.size_max_bytes as f64)
                as u64;
            videos.push(Video {
                size_bytes: size.max(1),
                weight: pareto.sample(rng),
                age_offset: age0.as_millis().wrapping_sub(birth.as_millis()),
            });
        };
        for _ in 0..config.initial_videos {
            let age0 = DurationMs(rng.below(config.initial_age_span.as_millis().max(1)));
            push(Timestamp::EPOCH, age0, rng);
        }
        // Poisson arrivals during the trace window, in time order.
        let mut arrivals = Vec::new();
        if config.arrivals_per_day > 0.0 {
            let rate_per_ms = config.arrivals_per_day / DurationMs::DAY.as_millis() as f64;
            let mut t = 0.0f64;
            loop {
                t += crate::dist::sample_exp(rng, rate_per_ms);
                if t >= duration.as_millis() as f64 {
                    break;
                }
                let birth = Timestamp(t as u64);
                push(birth, DurationMs::ZERO, rng);
                arrivals.push(birth);
            }
        }
        // Grown by doubling: hand the slack back before generation starts.
        videos.shrink_to_fit();
        arrivals.shrink_to_fit();
        Catalog {
            videos,
            arrivals,
            config: config.clone(),
        }
    }

    /// All videos, in birth order (initial corpus first).
    pub fn videos(&self) -> &[Video] {
        &self.videos
    }

    /// Number of videos (initial + arrivals).
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    /// Whether the catalog is empty (never true for a generated catalog).
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    /// Looks up a video's size in bytes.
    pub fn size_of(&self, id: VideoId) -> Option<u64> {
        self.videos.get(id.0 as usize).map(|v| v.size_bytes)
    }

    /// Upload time of video `idx`: the epoch for the initial corpus, whose
    /// age at replay start is folded into its [`Video`] record.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not below [`Catalog::len`].
    pub fn birth(&self, idx: usize) -> Timestamp {
        idx.checked_sub(self.config.initial_videos)
            .map_or(Timestamp::EPOCH, |arrival| self.arrivals[arrival])
    }

    /// Video `idx`'s effective popularity weight at time `t`: intrinsic
    /// weight times power-law age decay; zero for a not-yet-uploaded video.
    pub fn effective_weight(&self, idx: usize, t: Timestamp) -> f64 {
        if self.birth(idx) > t {
            return 0.0;
        }
        let v = &self.videos[idx];
        if exactly_zero(self.config.decay_beta) {
            return v.weight;
        }
        let age = t.as_millis().wrapping_add(v.age_offset) as f64;
        let tau = self.config.decay_tau.as_millis() as f64;
        v.weight * (1.0 + age / tau).powf(-self.config.decay_beta)
    }

    /// Builds a weighted sampler over videos uploaded by time `t`, using
    /// effective weights at `t`. Returns `None` if no video is live yet.
    pub fn sampler_at(&self, t: Timestamp) -> Option<AliasSampler> {
        let mut sampler = AliasSampler::with_capacity(self.live_at(t));
        self.fill_sampler(t, &mut sampler, &mut AliasScratch::default())
            .then_some(sampler)
    }

    /// [`Catalog::sampler_at`] into a recycled table: refills `sampler`
    /// for time `t` and returns whether any video is live (the table is
    /// left empty otherwise). Every live video is an entry whose index is
    /// its slot, so the table stores no index column; it allocates nothing
    /// once `sampler` and `scratch` have held [`Catalog::len`] entries.
    pub fn fill_sampler(
        &self,
        t: Timestamp,
        sampler: &mut AliasSampler,
        scratch: &mut AliasScratch,
    ) -> bool {
        sampler.fill(
            (0..self.live_at(t)).map(|i| (i, self.effective_weight(i, t))),
            scratch,
        )
    }

    /// Videos uploaded by time `t`: a prefix, because the catalog is in
    /// birth order.
    fn live_at(&self, t: Timestamp) -> usize {
        self.config.initial_videos + self.arrivals.partition_point(|&b| b <= t)
    }

    /// Looks up a video's record.
    pub fn get(&self, idx: usize) -> &Video {
        &self.videos[idx]
    }
}

/// Walker's alias method for O(1) weighted sampling over a fixed index set.
///
/// # Examples
///
/// ```
/// use vcdn_trace::{catalog::AliasSampler, rng::DetRng};
///
/// let s = AliasSampler::new(vec![(0, 3.0), (5, 1.0)]).unwrap();
/// let mut r = DetRng::new(1);
/// let idx = s.sample(&mut r);
/// assert!(idx == 0 || idx == 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AliasSampler {
    /// Each slot's original index; empty while every slot is its own
    /// index (the catalog's tables, which drop no entry).
    indices: Vec<u32>,
    prob: Vec<f64>,
    alias: Vec<u32>,
}

/// The work stacks of alias-table construction, kept between
/// [`AliasSampler::fill`] calls so a refill allocates nothing: `small` and
/// `large` share one buffer of the table's length.
#[derive(Debug, Clone, Default)]
pub struct AliasScratch {
    stacks: Vec<u32>,
}

impl AliasScratch {
    /// Scratch for tables of up to `entries` entries.
    pub fn with_capacity(entries: usize) -> Self {
        AliasScratch {
            stacks: Vec::with_capacity(entries),
        }
    }
}

/// Two stacks of slots in one buffer: `small` grows from the front and
/// `large` from the back. Every slot is on at most one of them, so they
/// never meet.
struct Stacks<'a> {
    buf: &'a mut [u32],
    small: usize,
    large: usize,
}

impl Stacks<'_> {
    fn push(&mut self, slot: u32, small: bool) {
        if small {
            self.buf[self.small] = slot;
            self.small += 1;
        } else {
            self.large += 1;
            self.buf[self.buf.len() - self.large] = slot;
        }
    }

    fn pop_small(&mut self) -> Option<u32> {
        self.small = self.small.checked_sub(1)?;
        Some(self.buf[self.small])
    }

    fn pop_large(&mut self) -> Option<u32> {
        if self.large == 0 {
            return None;
        }
        let slot = self.buf[self.buf.len() - self.large];
        self.large -= 1;
        Some(slot)
    }

    /// What is still on either stack.
    fn remaining(&self) -> impl Iterator<Item = &u32> {
        let n = self.buf.len();
        self.buf[..self.small]
            .iter()
            .chain(&self.buf[n - self.large..])
    }
}

impl AliasSampler {
    /// Builds the alias table from `(index, weight)` pairs. Entries with
    /// non-finite or non-positive weight are dropped; returns `None` if no
    /// positive-weight entry remains.
    ///
    /// # Panics
    ///
    /// Panics if an index does not fit in `u32`.
    pub fn new(entries: Vec<(usize, f64)>) -> Option<Self> {
        let mut sampler = AliasSampler::with_capacity(entries.len());
        sampler
            .fill(entries, &mut AliasScratch::default())
            .then_some(sampler)
    }

    /// An empty table that [`AliasSampler::fill`] can fill with up to
    /// `entries` entries, each at the slot equal to its index, without
    /// allocating (a table that must store indices allocates them on
    /// first fill).
    pub fn with_capacity(entries: usize) -> Self {
        AliasSampler {
            indices: Vec::new(),
            prob: Vec::with_capacity(entries),
            alias: Vec::with_capacity(entries),
        }
    }

    /// Rebuilds the table in place from `(index, weight)` pairs, with the
    /// drop rule of [`AliasSampler::new`]; returns whether any entry
    /// survived (the table is empty, and must not be sampled, if not).
    ///
    /// Every trace in the repo is a function of these tables, so the
    /// arithmetic and the stack order below are a byte contract.
    ///
    /// # Panics
    ///
    /// Panics if an index does not fit in `u32`.
    pub fn fill(
        &mut self,
        entries: impl IntoIterator<Item = (usize, f64)>,
        scratch: &mut AliasScratch,
    ) -> bool {
        let AliasSampler {
            indices,
            prob,
            alias,
        } = self;
        indices.clear();
        prob.clear();
        // Raw weights first, summed left to right. Indices are stored only
        // from the first one that differs from its slot on (the slots
        // before it are filled in then).
        let mut total = 0.0f64;
        for (i, w) in entries {
            if w.is_finite() && w > 0.0 {
                let index = u32::try_from(i).expect("alias index fits u32");
                if !(indices.is_empty() && i == prob.len()) {
                    if indices.is_empty() {
                        indices.extend((0..).take(prob.len()));
                    }
                    indices.push(index);
                }
                prob.push(w);
                total += w;
            }
        }
        let n = prob.len();
        alias.clear();
        alias.resize(n, 0);
        scratch.stacks.resize(n, 0);
        let mut stacks = Stacks {
            buf: &mut scratch.stacks,
            small: 0,
            large: 0,
        };
        for (i, p) in prob.iter_mut().enumerate() {
            *p = *p / total * n as f64;
            stacks.push(i as u32, *p < 1.0);
        }
        // Both stacks are popped before either is tested, so when one runs
        // dry the entry just popped from the other is dropped: it keeps its
        // scaled probability and alias 0 instead of probability 1. Part of
        // the byte contract — do not "fix".
        while let (Some(s), Some(l)) = (stacks.pop_small(), stacks.pop_large()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            stacks.push(l, prob[l as usize] < 1.0);
        }
        // Numerical leftovers: everything remaining keeps probability 1.
        for &s in stacks.remaining() {
            prob[s as usize] = 1.0;
        }
        n > 0
    }

    /// Number of sampleable entries.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the sampler has no entries (only a table whose last
    /// [`AliasSampler::fill`] returned `false`; `new` returns `None`).
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// The original index of `slot`.
    fn index(&self, slot: usize) -> usize {
        self.indices.get(slot).map_or(slot, |&i| i as usize)
    }

    /// Draws one original index, proportional to its weight.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let n = self.prob.len();
        let slot = rng.below(n as u64) as usize;
        if rng.f64() < self.prob[slot] {
            self.index(slot)
        } else {
            self.index(self.alias[slot] as usize)
        }
    }
}

/// A reasonable default catalog for tests and examples (small but shaped
/// like the real configurations).
impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            initial_videos: 2_000,
            arrivals_per_day: 100.0,
            popularity_shape: 0.9,
            size_median_bytes: 40 * 1024 * 1024,
            size_sigma: 1.0,
            size_min_bytes: 2 * 1024 * 1024,
            size_max_bytes: 1024 * 1024 * 1024,
            decay_tau: DurationMs::from_days(10),
            decay_beta: 0.8,
            initial_age_span: DurationMs::from_days(365),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CatalogConfig {
        CatalogConfig {
            initial_videos: 500,
            arrivals_per_day: 50.0,
            ..CatalogConfig::default()
        }
    }

    #[test]
    fn generate_produces_initial_plus_arrivals() {
        let mut rng = DetRng::new(1);
        let cat = Catalog::generate(&cfg(), DurationMs::from_days(10), &mut rng);
        assert!(cat.len() >= 500);
        // ~500 arrivals expected over 10 days at 50/day.
        let arrivals = cat.len() - 500;
        assert!(
            (350..=650).contains(&arrivals),
            "arrivals={arrivals} far from expectation"
        );
    }

    #[test]
    fn ids_are_dense_birth_ordered() {
        let mut rng = DetRng::new(2);
        let cat = Catalog::generate(&cfg(), DurationMs::from_days(2), &mut rng);
        // The id is the position.
        for (i, v) in cat.videos().iter().enumerate() {
            assert_eq!(cat.size_of(VideoId(i as u64)), Some(v.size_bytes));
        }
        assert_eq!(cat.size_of(VideoId(cat.len() as u64)), None);
        // The initial block at the epoch, then arrivals sorted by birth.
        let births: Vec<_> = (0..cat.len()).map(|i| cat.birth(i)).collect();
        assert!(births[..500].iter().all(|&b| b == Timestamp::EPOCH));
        assert!(births[500] > Timestamp::EPOCH);
        assert!(births.is_sorted());
    }

    #[test]
    fn sizes_respect_bounds() {
        let mut rng = DetRng::new(3);
        let cat = Catalog::generate(&cfg(), DurationMs::from_days(1), &mut rng);
        for v in cat.videos() {
            assert!(v.size_bytes >= cfg().size_min_bytes);
            assert!(v.size_bytes <= cfg().size_max_bytes);
        }
    }

    #[test]
    fn effective_weight_decays_with_age() {
        let mut rng = DetRng::new(4);
        let cat = Catalog::generate(&cfg(), DurationMs::from_days(1), &mut rng);
        let w_early = cat.effective_weight(0, Timestamp::EPOCH);
        let w_late = cat.effective_weight(0, Timestamp::EPOCH + DurationMs::from_days(30));
        assert!(w_late < w_early, "decay should reduce weight");
        // An arrival is zero until its birth, and weighs its full intrinsic
        // weight at age zero.
        let arrival = cfg().initial_videos;
        let birth = cat.birth(arrival);
        assert_eq!(cat.effective_weight(arrival, Timestamp(birth.0 - 1)), 0.0);
        assert_eq!(
            cat.effective_weight(arrival, birth),
            cat.get(arrival).weight
        );
    }

    #[test]
    fn unborn_videos_have_zero_weight_and_vanish_from_sampler() {
        let config = CatalogConfig {
            initial_videos: 1,
            arrivals_per_day: 1000.0,
            ..CatalogConfig::default()
        };
        let mut rng = DetRng::new(5);
        let cat = Catalog::generate(&config, DurationMs::from_days(5), &mut rng);
        let late_arrival = (0..cat.len())
            .find(|&i| cat.birth(i) > Timestamp(DurationMs::from_days(1).as_millis()))
            .expect("some arrival after day 1");
        assert_eq!(cat.effective_weight(late_arrival, Timestamp::EPOCH), 0.0);
        let sampler = cat.sampler_at(Timestamp::EPOCH).unwrap();
        // Only the initial video is live at t=0.
        assert_eq!(sampler.len(), 1);
    }

    #[test]
    fn alias_sampler_matches_weights() {
        let s = AliasSampler::new(vec![(7, 1.0), (8, 2.0), (9, 7.0)]).unwrap();
        let mut rng = DetRng::new(6);
        let mut counts = std::collections::BTreeMap::new();
        let n = 200_000;
        for _ in 0..n {
            *counts.entry(s.sample(&mut rng)).or_insert(0u64) += 1;
        }
        let f7 = counts[&7] as f64 / n as f64;
        let f8 = counts[&8] as f64 / n as f64;
        let f9 = counts[&9] as f64 / n as f64;
        assert!((f7 - 0.1).abs() < 0.01, "f7={f7}");
        assert!((f8 - 0.2).abs() < 0.01, "f8={f8}");
        assert!((f9 - 0.7).abs() < 0.01, "f9={f9}");
    }

    #[test]
    fn alias_sampler_rejects_empty_and_bad_weights() {
        assert!(AliasSampler::new(vec![]).is_none());
        assert!(AliasSampler::new(vec![(0, 0.0), (1, -2.0), (2, f64::NAN)]).is_none());
        let s = AliasSampler::new(vec![(3, f64::NAN), (4, 5.0)]).unwrap();
        assert_eq!(s.len(), 1);
        let mut rng = DetRng::new(7);
        assert_eq!(s.sample(&mut rng), 4);
    }

    /// `AliasSampler::new` as it stood before [`AliasSampler::fill`]
    /// (fresh `Vec`s, `usize` indices): the table-for-table oracle.
    fn naive_alias(entries: Vec<(usize, f64)>) -> Option<(Vec<usize>, Vec<f64>, Vec<u32>)> {
        let filtered: Vec<(usize, f64)> = entries
            .into_iter()
            .filter(|(_, w)| w.is_finite() && *w > 0.0)
            .collect();
        if filtered.is_empty() {
            return None;
        }
        let n = filtered.len();
        let total: f64 = filtered.iter().map(|(_, w)| w).sum();
        let mut prob: Vec<f64> = filtered.iter().map(|(_, w)| w / total * n as f64).collect();
        let indices: Vec<usize> = filtered.iter().map(|(i, _)| *i).collect();
        let mut alias = vec![0u32; n];
        let mut small: Vec<u32> = Vec::new();
        let mut large: Vec<u32> = Vec::new();
        for (i, &p) in prob.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            alias[s as usize] = l;
            prob[l as usize] = (prob[l as usize] + prob[s as usize]) - 1.0;
            if prob[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Numerical leftovers: everything remaining keeps probability 1.
        for s in small.into_iter().chain(large) {
            prob[s as usize] = 1.0;
        }
        Some((indices, prob, alias))
    }

    /// Asserts `table` (just filled from `entries`, `live` = what `fill`
    /// returned) equals the oracle's table bit for bit.
    fn assert_matches_naive(table: &AliasSampler, live: bool, entries: &[(usize, f64)]) {
        let Some((indices, prob, alias)) = naive_alias(entries.to_vec()) else {
            assert!(!live && table.is_empty(), "oracle has no survivor");
            return;
        };
        assert!(live);
        let got: Vec<usize> = (0..table.len()).map(|slot| table.index(slot)).collect();
        assert_eq!(got, indices);
        // The index column is stored exactly when some slot is not its own.
        let identity = indices.iter().enumerate().all(|(slot, &i)| i == slot);
        assert_eq!(table.indices.is_empty(), identity);
        assert_eq!(table.alias, alias);
        let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&table.prob), bits(&prob));
    }

    #[test]
    fn fill_matches_the_naive_table_bit_for_bit() {
        let mut rng = DetRng::new(17);
        // One table and one scratch for the whole test: every fill after
        // the first is a refill, mostly with a different live count.
        let mut table = AliasSampler::default();
        let mut scratch = AliasScratch::default();
        let mut check = |entries: &[(usize, f64)]| {
            let live = table.fill(entries.iter().copied(), &mut scratch);
            assert_matches_naive(&table, live, entries);
            live.then(|| table.clone())
        };

        let (mut dropped_large, mut dropped_small) = (0, 0);
        for round in 0..400 {
            let n = 1 + rng.below(40) as usize;
            let entries: Vec<(usize, f64)> = (0..n)
                .map(|i| {
                    let w = match rng.below(12) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => f64::NEG_INFINITY,
                        3 => 0.0,
                        4 => -rng.f64(),
                        // Heavy-tailed like the catalog's Pareto weights.
                        _ => 1.0 / (rng.f64() + 1e-3).powf(1.5),
                    };
                    (i * 3 + round, w)
                })
                .collect();
            let Some(t) = check(&entries) else { continue };
            // The pairing loop pops both stacks before testing either. An
            // entry above 1 can only be a popped-and-dropped `large` (kept
            // leftovers are reset to exactly 1) ...
            dropped_large += usize::from(t.prob.iter().any(|&p| p > 1.0));
            // ... and when slot 0 started `small` it is never anyone's
            // alias, so a slot below 1 with alias 0 was dropped unpaired.
            let first = entries.iter().find(|(_, w)| w.is_finite() && *w > 0.0);
            let total: f64 = entries
                .iter()
                .map(|e| e.1)
                .filter(|w| w.is_finite() && *w > 0.0)
                .sum();
            let slot0_small = first.is_some_and(|(_, w)| w / total * (t.len() as f64) < 1.0);
            let unpaired = t
                .prob
                .iter()
                .zip(&t.alias)
                .any(|(&p, &a)| p < 1.0 && a == 0);
            dropped_small += usize::from(slot0_small && unpaired);
        }
        assert!(
            dropped_large > 0,
            "no set left the loop with `small` empty first"
        );
        assert!(
            dropped_small > 0,
            "no set left the loop with `large` empty first"
        );

        // No survivor, a single survivor, all-equal weights (every slot
        // starts `large`), then a big set followed by a smaller one: the
        // stale tail of the recycled buffers must not leak.
        assert!(check(&[(0, 0.0), (1, -2.0), (2, f64::NAN), (3, f64::INFINITY)]).is_none());
        let single = check(&[(3, f64::NAN), (9, 5.0), (4, 0.0)]).unwrap();
        assert_eq!((single.len(), single.prob[0]), (1, 1.0));
        let equal = check(&[(0, 1.0); 8]).unwrap();
        assert!(equal.prob.iter().all(|&p| p == 1.0));
        // Slot = index needs no index column until an index skips its
        // slot: all identity, then a drop in the middle.
        assert!(check(&[(0, 1.0), (1, 3.0), (2, 0.5)])
            .unwrap()
            .indices
            .is_empty());
        let gap = check(&[(0, 1.0), (1, f64::NAN), (2, 3.0)]).unwrap();
        assert_eq!(gap.indices, [0, 2]);
        let big: Vec<(usize, f64)> = (0..500).map(|i| (i, 1.0 + rng.f64())).collect();
        assert_eq!(check(&big).unwrap().len(), 500);
        let refill = check(&big[100..107]).unwrap();
        assert_eq!(
            (refill.len(), refill.alias.len(), refill.prob.len()),
            (7, 7, 7)
        );
    }

    #[test]
    fn fill_sampler_matches_the_naive_table_at_any_time() {
        let mut rng = DetRng::new(18);
        let cat = Catalog::generate(&cfg(), DurationMs::from_days(6), &mut rng);
        let mut table = AliasSampler::with_capacity(cat.len());
        let mut scratch = AliasScratch::with_capacity(cat.len());
        // Latest first, so every later fill is a refill with fewer videos;
        // the last two are an arrival's own birth instant and the epoch.
        let arrival = cat.birth(cfg().initial_videos + 3);
        let times = [DurationMs::from_days(6), DurationMs::from_hours(30)]
            .map(|d| Timestamp::EPOCH + d)
            .into_iter()
            .chain([arrival, Timestamp::EPOCH]);
        for t in times {
            let live: Vec<(usize, f64)> = (0..cat.len())
                .filter(|&i| cat.birth(i) <= t)
                .map(|i| (i, cat.effective_weight(i, t)))
                .collect();
            let filled = cat.fill_sampler(t, &mut table, &mut scratch);
            assert_matches_naive(&table, filled, &live);
            assert_eq!(table.len(), live.len());
            let fresh = cat.sampler_at(t).unwrap();
            assert_eq!(
                (&fresh.indices, &fresh.alias),
                (&table.indices, &table.alias)
            );
        }
    }

    #[test]
    fn config_validation_catches_errors() {
        let mut c = cfg();
        c.initial_videos = 0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.size_min_bytes = 10;
        c.size_max_bytes = 5;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.popularity_shape = 0.0;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.decay_beta = -0.1;
        assert!(c.validate().is_err());
        let mut c = cfg();
        c.decay_tau = DurationMs::ZERO;
        assert!(c.validate().is_err());
        c.decay_beta = 0.0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn size_of_looks_up_by_id() {
        let mut rng = DetRng::new(8);
        let cat = Catalog::generate(&cfg(), DurationMs::from_days(1), &mut rng);
        assert_eq!(cat.size_of(VideoId(0)), Some(cat.get(0).size_bytes));
        assert_eq!(cat.size_of(VideoId(u64::MAX)), None);
    }
}
