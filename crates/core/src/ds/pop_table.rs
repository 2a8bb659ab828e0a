//! Cafe's popularity records (paper §6, Eq. 8): one [`VideoDir`] entry per
//! video, and in its run one 16-byte record per chunk.
//!
//! [`PopTable::touch_run`] makes the request's one directory probe, updates
//! the run's `c0..=c1` records in place, sequentially, and hands the
//! video's slot back, so the request's fills ([`PopTable::set_cached`]) and
//! the §6 estimate ([`PopTable::max_cached_iat`]) probe nothing.
//! A chunk record is `{ t_last, word }`: the last touch, and one word that
//! means one of two things. While the chunk is not cached the word is the
//! Eq. 8 inter-arrival average `dt` (an `f64`, negative while no interval
//! has been observed); while it is cached the word is a NaN no average can
//! take (`CACHED_TAG` in the upper bits) carrying, in the lower half, the
//! caller's back-reference — Cafe's disk rank-index slot: the index keeps
//! no map of its own, so this word *is* its address — and one bit saying
//! whether the chunk's average has an interval yet, so that the §6
//! estimate asks the caller only for averages it can use. A cached
//! chunk's `dt` rides with the caller from fill ([`PopTable::set_cached`]
//! hands it over) to eviction ([`PopTable::clear_cached`] takes it back), and
//! [`PopTable::touch_run`] hands the caller each cached chunk's gap to fold
//! in with [`ewma`], the same Eq. 8 function the table applies to its own
//! records — so an average is bit for bit what it would be had it never
//! moved. Only 262,144 of `cafe_large`'s 1,418,534 records are cached at
//! once: the word costs nothing for the rest.
//!
//! `t_last` is `u64::MAX` ms (`FREE_STAMP`) when the chunk is untracked,
//! and an untracked chunk's average is `NO_INTERVAL` wherever it lives:
//! a chunk can be tracked and uncached, cached with no record (restored
//! from a snapshot whose record had been swept), both, or neither (a gap
//! in the run). The entry's value is the video-level last-seen time and
//! its live count is how many chunks of its run are cached — all the
//! never-seen-video rule and the sweep need. An entry is released once it
//! holds none of the three.
//!
//! A record's address is its video's slot and its chunk number. The slot
//! is stable while the video holds anything (slots are free-listed, never
//! compacted), so the disk rank index keeps it in each cached chunk's
//! payload. Slot *values* are an allocation artifact (free-list reuse
//! order) and must never influence ordering or output — every ordered
//! export sorts by `(key, ChunkId)` or by `ChunkId`.
//!
//! Runs are reserved tightly
//! ([`Video::reserve_tight`](super::video_dir::Video::reserve_tight)): a
//! fresh run to exactly the chunks its request covers, a growing one to
//! its new length plus `max(len / 8, 4)` records; `Vec`'s doubling would
//! leave the table's largest slack. A sweep trims what it leaves absent
//! at either end of a run and gives back capacity past that slack
//! ([`Video::trim`](super::video_dir::Video::trim)).

use vcdn_types::{ChunkId, ChunkRange, Timestamp, VideoId};

use super::{Absent, VideoDir};

/// Minimum inter-arrival time (ms) used in divisions (shared with the
/// Eq. 6/7 cost terms in `cafe.rs`).
pub const MIN_IAT_MS: f64 = 1.0;

/// The back-reference of a chunk that is not cached.
pub const NOT_CACHED: u32 = u32::MAX;

/// `dt` sentinel for "no interval observed yet": real EWMA values are gaps
/// in milliseconds, ≥ 0.
const NO_INTERVAL: f64 = -1.0;

/// The upper 31 bits of a cached record's word: sign and exponent bits all
/// set and a non-zero mantissa, a NaN whatever the lower bits hold.
/// Averages are finite or infinite, never NaN (a snapshot carrying one is
/// refused), so no `dt` reads as cached.
const CACHED_TAG: u64 = 0xFFFF_FFFE_0000_0000;

/// The bit of a cached record's word below the tag: the chunk's average
/// has an interval (is ≥ 0). It is set when the chunk is cached with one,
/// and by any touch with a gap — after which [`ewma`] never yields a
/// negative average.
const TIMED: u64 = 1 << 32;

/// `t_last` sentinel marking an untracked chunk; it is above every sweep
/// cutoff, so [`PopTable::sweep`] passes over untracked chunks with the
/// same comparison that passes over fresh records. Real stamps are trace
/// times, far below `u64::MAX` ms.
pub(crate) const FREE_STAMP: Timestamp = Timestamp(u64::MAX);

/// One chunk of a video's run (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rec {
    t_last: Timestamp,
    /// `dt`'s bits, or [`CACHED_TAG`], [`TIMED`] and the back-reference.
    word: u64,
}

impl Rec {
    fn cached(self) -> bool {
        self.word & CACHED_TAG == CACHED_TAG
    }

    /// The back-reference, or [`NOT_CACHED`].
    fn backref(self) -> u32 {
        if self.cached() {
            self.word as u32
        } else {
            NOT_CACHED
        }
    }

    /// Whether a cached record's average has an interval.
    fn timed(self) -> bool {
        self.word & TIMED != 0
    }

    /// The average of an uncached record.
    fn dt(self) -> f64 {
        debug_assert!(!self.cached());
        f64::from_bits(self.word)
    }
}

impl Absent for Rec {
    const NONE: Rec = Rec {
        t_last: FREE_STAMP,
        word: NO_INTERVAL.to_bits(),
    };
}

/// The untracked stamp doubles as "not seen": no video-level record
/// (swept, or never restored).
impl Absent for Timestamp {
    const NONE: Timestamp = FREE_STAMP;
}

/// A directory entry: the run, cached chunks as its live count, and the
/// last request for any chunk of the video as its value.
type Video = super::video_dir::Video<Rec, Timestamp>;

/// Nothing left to remember: not seen, nothing cached, nothing tracked.
fn is_dead(v: &Video) -> bool {
    v.meta == Timestamp::NONE && v.live == 0 && v.run().iter().all(|r| *r == Rec::NONE)
}

/// The record of chunk `index` of `v`, its run reserved tightly.
fn rec_mut(v: &mut Video, index: u32) -> &mut Rec {
    v.reserve_tight(index, index);
    v.rec_mut(index)
}

/// Eq. 8's update of the inter-arrival average `dt` by an access `gap` ms
/// after the last one, or by a first sighting (`None`), which observes no
/// interval and leaves `dt` as it is: the first gap seeds the average,
/// later ones fold in as `γ·gap + (1 − γ)·dt`. The one implementation,
/// whether the table or its caller keeps the average.
pub fn ewma(dt: f64, gap: Option<f64>, gamma: f64) -> f64 {
    match gap {
        None => dt,
        Some(gap) if dt < 0.0 => gap,
        Some(gap) => gamma * gap + (1.0 - gamma) * dt,
    }
}

/// Eq. 8 for average `dt`, last touched at `t_last`, at `now`:
/// `IAT_x(t) = γ(t − t_x) + (1 − γ)·dt` (ms, clamped to [`MIN_IAT_MS`]),
/// or `None` while it has no interval.
pub fn iat(dt: f64, t_last: Timestamp, now: Timestamp, gamma: f64) -> Option<f64> {
    if dt < 0.0 {
        return None;
    }
    Some((gamma * (now - t_last).as_millis() as f64 + (1.0 - gamma) * dt).max(MIN_IAT_MS))
}

/// What [`PopTable::touch_run`] reports for one chunk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Touch {
    /// Not cached: the record's average after the update (negative while
    /// no interval has been observed).
    Uncached(f64),
    /// Cached, at back-reference `slot`: the caller keeps the average and
    /// folds `gap` into it with [`ewma`] (`None` on the chunk's first
    /// sighting).
    Cached {
        /// The back-reference.
        slot: u32,
        /// Milliseconds since the last touch.
        gap: Option<f64>,
    },
}

/// Per-video chunk directory of EWMA inter-arrival records.
#[derive(Debug, Clone)]
pub struct PopTable {
    dir: VideoDir<Rec, Timestamp>,
    /// Records with a stamp: the tracked chunks.
    tracked: usize,
    /// Lower bound on the stamp of everything [`Self::sweep`] could drop:
    /// `t_last` of every uncached tracked record and `last_seen` of every
    /// video without a cached chunk.
    stale_floor: Timestamp,
    sweeps: u64,
}

impl Default for PopTable {
    fn default() -> Self {
        PopTable {
            dir: VideoDir::default(),
            tracked: 0,
            // Nothing to drop yet: the bound is vacuous.
            stale_floor: Timestamp(u64::MAX),
            sweeps: 0,
        }
    }
}

impl PopTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PopTable::default()
    }

    /// Number of tracked chunks.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The directory slot of `video`, taken for an empty entry if it has
    /// none — for callers with no request in hand (a snapshot restore).
    pub fn slot(&mut self, video: VideoId) -> u32 {
        self.dir.insert(video)
    }

    /// The directory slot of `video`, if it has an entry.
    pub fn slot_of(&self, video: VideoId) -> Option<u32> {
        self.dir.slot(video)
    }

    /// Records a request for chunks `range` of `video` at `now`: one
    /// directory probe, then per chunk, in ascending order, the Eq. 8
    /// update and a call `visit(index, touch)`. An uncached chunk's
    /// [`Touch::Uncached`] carries its post-update average — feed it to
    /// [`Self::iat_fresh`] / [`Self::key_fresh`] to avoid re-reading the
    /// record; a cached chunk's [`Touch::Cached`] carries its
    /// back-reference and the gap for the caller's average. Eq. 8: a first
    /// sighting stores the timestamp with no interval; later accesses
    /// update `dt ← γ·gap + (1 − γ)·dt` (the first observed interval
    /// seeds the average) — [`ewma`].
    ///
    /// Returns the video's directory slot — valid for the rest of the
    /// request, since a video seen at `now` is not released before the
    /// next sweep — and whether the video was known *before* this request
    /// (seen, or holding a cached chunk); stamps it seen at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches [`MAX_CHUNK_INDEX`](super::MAX_CHUNK_INDEX).
    pub fn touch_run(
        &mut self,
        video: VideoId,
        range: ChunkRange,
        now: Timestamp,
        gamma: f64,
        mut visit: impl FnMut(u32, Touch),
    ) -> (u32, bool) {
        // Every stamp written below is `now`: keep the floor under it
        // even if time runs backwards.
        self.stale_floor = self.stale_floor.min(now);
        let slot = self.dir.insert(video);
        let v = &mut self.dir[slot];
        let known = v.meta != Timestamp::NONE || v.live > 0;
        v.meta = now;
        v.reserve_tight(range.start, range.end);
        let run = v.span_mut(range.start, range.end);
        for (c, rec) in range.iter().zip(run) {
            let gap = if rec.t_last == FREE_STAMP {
                self.tracked += 1;
                None
            } else {
                Some((now - rec.t_last).as_millis() as f64)
            };
            rec.t_last = now;
            let touch = if rec.cached() {
                if gap.is_some() {
                    rec.word |= TIMED;
                }
                Touch::Cached {
                    slot: rec.backref(),
                    gap,
                }
            } else {
                let dt = ewma(rec.dt(), gap, gamma);
                rec.word = dt.to_bits();
                Touch::Uncached(dt)
            };
            visit(c, touch);
        }
        (slot, known)
    }

    /// Eq. 8 query for a record touched at `now` (so `t_last == now`),
    /// fed by the `dt` that [`Self::touch_run`] just handed out: the
    /// elapsed-gap term is zero and the IAT reduces to `(1 − γ)·dt`
    /// (clamped), with no record read. Bit-identical to [`iat`] at `now`
    /// because `γ·0 + x == x` exactly for the non-negative finite `dt`
    /// values.
    pub fn iat_fresh(dt: f64, gamma: f64) -> Option<f64> {
        if dt < 0.0 {
            return None;
        }
        Some(((1.0 - gamma) * dt).max(MIN_IAT_MS))
    }

    /// Eq. 9, the virtual-timestamp key `key_x(t) = t − IAT_x(t)`, for a
    /// record touched at `now` (see [`Self::iat_fresh`]), falling back to
    /// `t − fallback_iat` while no interval has been observed.
    pub fn key_fresh(dt: f64, now: Timestamp, gamma: f64, fallback_iat: f64) -> f64 {
        let iat = PopTable::iat_fresh(dt, gamma).unwrap_or(fallback_iat);
        now.as_millis() as f64 - iat
    }

    /// Marks chunk `index` of the video at `slot`, which is not cached,
    /// cached: hands its average to `place`, which keeps it wherever the
    /// caller keeps cached chunks' averages and returns the chunk's
    /// back-reference (any value but [`NOT_CACHED`]).
    pub fn set_cached(&mut self, slot: u32, index: u32, place: impl FnOnce(f64) -> u32) {
        let v = &mut self.dir[slot];
        let rec = rec_mut(v, index);
        let dt = rec.dt();
        let backref = place(dt);
        debug_assert_ne!(backref, NOT_CACHED);
        let timed = if dt >= 0.0 { TIMED } else { 0 };
        rec.word = CACHED_TAG | timed | u64::from(backref);
        v.live += 1;
    }

    /// The back-reference of `id` ([`NOT_CACHED`] when it is not cached).
    pub fn backref_of(&self, id: &ChunkId) -> u32 {
        let slot = self.dir.slot(id.video);
        slot.map_or(NOT_CACHED, |slot| self.dir[slot].rec(id.index).backref())
    }

    /// Marks chunk `index` of the video at `slot`, which is cached,
    /// uncached, with `dt` — the average the caller kept — back in its
    /// record. What this exposes to the next sweep — the chunk's record,
    /// and the video once its last cached chunk goes — lowers the sweep
    /// floor.
    pub fn clear_cached(&mut self, slot: u32, index: u32, dt: f64) {
        let v = &mut self.dir[slot];
        let rec = v.rec_mut(index);
        debug_assert!(rec.cached(), "v{}#{index} is not cached", v.id().0);
        rec.word = dt.to_bits();
        let t_last = rec.t_last;
        v.live -= 1;
        // An untracked chunk's stamp is above every floor.
        self.stale_floor = self.stale_floor.min(t_last);
        if v.live == 0 && v.meta != Timestamp::NONE {
            self.stale_floor = self.stale_floor.min(v.meta);
        } else if is_dead(v) {
            self.dir.release(slot);
        }
    }

    /// The largest Eq. 8 IAT at `now` among the cached chunks of the video
    /// at `slot` (the §6 unseen-chunk estimate), or `None` if none is
    /// cached with a known interval: a walk over the video's run that
    /// stops at its last cached chunk, reading the average of each one
    /// that has an interval as `dt_of(back-reference)`.
    pub fn max_cached_iat(
        &self,
        slot: u32,
        now: Timestamp,
        gamma: f64,
        dt_of: impl Fn(u32) -> f64,
    ) -> Option<f64> {
        let v = &self.dir[slot];
        let cached = v.run().iter().filter(|r| r.cached());
        let timed = cached.take(v.live as usize).filter(|r| r.timed());
        timed
            .filter_map(|r| iat(dt_of(r.backref()), r.t_last, now, gamma))
            .reduce(f64::max)
    }

    /// The last touch of chunk `index` of the video at `slot` (`u64::MAX`
    /// ms when it is untracked, which [`iat`] never reads: an untracked
    /// chunk has no interval).
    pub fn last_touch(&self, slot: u32, index: u32) -> Timestamp {
        self.dir[slot].rec(index).t_last
    }

    /// Inserts a record with explicit raw state (snapshot restore) for
    /// `id`, which is not cached, replacing any record it has, and returns
    /// its video's slot. Restored stamps are arbitrary, so the sweep floor
    /// drops to the epoch.
    ///
    /// # Panics
    ///
    /// Panics if `t_last` is `u64::MAX` ms (the untracked sentinel).
    pub fn insert_raw(&mut self, id: ChunkId, dt: Option<f64>, t_last: Timestamp) -> u32 {
        assert!(
            t_last != FREE_STAMP,
            "t_last collides with the untracked sentinel"
        );
        self.stale_floor = Timestamp::EPOCH;
        let slot = self.dir.insert(id.video);
        let rec = rec_mut(&mut self.dir[slot], id.index);
        debug_assert!(!rec.cached(), "{id} is cached");
        self.tracked += usize::from(rec.t_last == FREE_STAMP);
        rec.word = dt.unwrap_or(NO_INTERVAL).to_bits();
        rec.t_last = t_last;
        slot
    }

    /// Sets `video`'s last-seen time (snapshot restore); like
    /// [`Self::insert_raw`] it resets the sweep floor. `t` at `u64::MAX`
    /// ms (the untracked sentinel) reads as "not seen".
    pub fn set_last_seen(&mut self, video: VideoId, t: Timestamp) {
        self.stale_floor = Timestamp::EPOCH;
        let slot = self.dir.insert(video);
        self.dir[slot].meta = t;
    }

    /// Drops every uncached record last touched before `cutoff` and the
    /// video-level record of every video without a cached chunk last seen
    /// before it, trims each run it walks
    /// ([`Video::trim`](super::video_dir::Video::trim)), then releases the
    /// entries left holding nothing — one [`VideoDir::retain`] pass over
    /// the directory. [`Self::sweeps`] counts the calls that walk it.
    ///
    /// The walk is skipped when `cutoff <= stale_floor`, and skipping is
    /// exact: the floor is a lower bound on the stamp of every record and
    /// video the predicates above could drop. A stamp enters that set in
    /// three ways, each keeping the bound — written as `now` by
    /// [`Self::touch_run`] (which first lowers the floor to `now`), exposed
    /// by [`Self::clear_cached`] (which lowers it to the exposed stamps),
    /// or restored (which resets it to the epoch) — and a walk leaves
    /// nothing below `cutoff`, so it raises the floor to `cutoff`.
    pub fn sweep(&mut self, cutoff: Timestamp) {
        if cutoff <= self.stale_floor {
            return;
        }
        let PopTable { dir, tracked, .. } = self;
        dir.retain(|v| {
            // Untracked chunks carry a stamp above any cutoff; cached
            // chunks keep their record.
            let stale = |r: &Rec| r.t_last < cutoff && !r.cached();
            for r in v.run_mut().iter_mut().filter(|r| stale(r)) {
                *r = Rec::NONE;
                *tracked -= 1;
            }
            if v.live == 0 && v.meta < cutoff {
                v.meta = Timestamp::NONE;
            }
            v.trim();
            !is_dead(v)
        });
        self.stale_floor = cutoff;
        self.sweeps += 1;
    }

    /// How many [`Self::sweep`] calls walked the directory (for tests).
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// `(id, dt, t_last)` for every tracked chunk, in slot order and
    /// ascending chunk order within a video (snapshot export); a cached
    /// chunk's average is `dt_of(back-reference)`.
    pub fn records<'a>(
        &'a self,
        dt_of: impl Fn(u32) -> f64 + Copy + 'a,
    ) -> impl Iterator<Item = (ChunkId, Option<f64>, Timestamp)> + 'a {
        self.dir.iter().flat_map(move |(_, v)| {
            let tracked = (v.base()..)
                .zip(v.run())
                .filter(|(_, r)| r.t_last != FREE_STAMP);
            tracked.map(move |(c, r)| {
                let dt = if r.cached() {
                    dt_of(r.backref())
                } else {
                    r.dt()
                };
                (ChunkId::new(v.id(), c), (dt >= 0.0).then_some(dt), r.t_last)
            })
        })
    }

    /// How many records `video`'s run holds (0 without an entry): its
    /// directory cost, gaps included.
    pub fn run_len(&self, video: VideoId) -> usize {
        self.dir
            .slot(video)
            .map_or(0, |slot| self.dir[slot].run().len())
    }

    /// `(video, last_seen)` for every video with a video-level record, in
    /// slot order.
    pub fn videos_seen(&self) -> impl Iterator<Item = (VideoId, Timestamp)> + '_ {
        let seen = self.dir.iter().filter(|(_, v)| v.meta != Timestamp::NONE);
        seen.map(|(_, v)| (v.id(), v.meta))
    }

    /// Heap bytes the table holds, from capacities: every run, the
    /// directory's entries and free list, and its video → slot map.
    pub fn state_bytes(&self) -> usize {
        self.dir.state_bytes()
    }

    /// Checks the directory (tests): [`VideoDir::audit`], with `live`
    /// counting the records that carry a back-reference, the tracked
    /// count, that an untracked chunk's average — `dt_of(back-reference)`
    /// for a cached one — is "no interval" (its uncached record the absent
    /// one), and that a cached record's interval bit says whether its
    /// average has one.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self, dt_of: impl Fn(u32) -> f64) {
        self.dir.audit(|r| r.cached());
        let mut tracked = 0;
        for (_, v) in self.dir.iter() {
            for (c, r) in (v.base()..).zip(v.run()) {
                let at = ChunkId::new(v.id(), c);
                tracked += usize::from(r.t_last != FREE_STAMP);
                if r.cached() {
                    let dt = dt_of(r.backref());
                    assert_eq!(r.timed(), dt >= 0.0, "{at}: interval bit, dt {dt}");
                    assert!(
                        r.t_last != FREE_STAMP || dt.to_bits() == NO_INTERVAL.to_bits(),
                        "{at}: untracked, {dt}"
                    );
                } else {
                    assert!(
                        r.t_last != FREE_STAMP || *r == Rec::NONE,
                        "{at}: untracked, {r:?}"
                    );
                }
            }
        }
        assert_eq!(tracked, self.tracked, "tracked count");
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use vcdn_trace::rng::DetRng;

    use super::*;

    fn id(v: u64, c: u32) -> ChunkId {
        ChunkId::new(VideoId(v), c)
    }

    /// Eq. 8 at `now` for chunk `index`, not cached, of the video at
    /// `slot`: `None` while the chunk has been seen only once — or is
    /// untracked.
    fn iat_at(p: &PopTable, slot: u32, index: u32, now: Timestamp, gamma: f64) -> Option<f64> {
        let r = p.dir[slot].rec(index);
        iat(r.dt(), r.t_last, now, gamma)
    }

    /// The average of a table with no cached chunk.
    fn none_cached(slot: u32) -> f64 {
        panic!("no chunk is cached, yet back-reference {slot} was read")
    }

    /// [`PopTable::sweep`] at `cutoff`; whether it walked the directory.
    fn walked(p: &mut PopTable, cutoff: Timestamp) -> bool {
        let before = p.sweeps();
        p.sweep(cutoff);
        p.sweeps() > before
    }

    /// One-chunk [`PopTable::touch_run`]: `(slot, touch)`.
    fn touch(p: &mut PopTable, id: ChunkId, now: u64, gamma: f64) -> (u32, Touch) {
        let mut out = None;
        let range = ChunkRange::new(id.index, id.index).unwrap();
        let (slot, _) = p.touch_run(id.video, range, Timestamp(now), gamma, |_, t| {
            out = Some(t);
        });
        (slot, out.unwrap())
    }

    /// The average an uncached chunk's touch hands out.
    fn dt(t: (u32, Touch)) -> f64 {
        match t.1 {
            Touch::Uncached(dt) => dt,
            cached => panic!("expected an uncached chunk, got {cached:?}"),
        }
    }

    /// [`PopTable::set_cached`] by chunk id; the average handed over.
    fn cache(p: &mut PopTable, id: ChunkId, backref: u32) -> f64 {
        let slot = p.slot(id.video);
        let mut handed = None;
        p.set_cached(slot, id.index, |dt| {
            handed = Some(dt);
            backref
        });
        handed.unwrap()
    }

    /// [`PopTable::clear_cached`] by chunk id, with `dt` back.
    fn uncache(p: &mut PopTable, id: ChunkId, dt: f64) {
        let slot = p.slot_of(id.video).unwrap();
        p.clear_cached(slot, id.index, dt);
    }

    /// The raw `(dt, t_last)` of `id`, if tracked and not cached.
    fn raw(p: &PopTable, id: ChunkId) -> Option<(Option<f64>, Timestamp)> {
        let mut hit = p.records(none_cached).filter(|r| r.0 == id);
        hit.next().map(|(_, dt, t)| (dt, t))
    }

    /// Every tracked chunk, sorted, in a table with nothing cached.
    fn tracked(p: &PopTable) -> Vec<ChunkId> {
        let mut ids: Vec<ChunkId> = p.records(none_cached).map(|r| r.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn a_record_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Rec>(), 16);
        // The word's two readings never meet: no average is a tagged NaN.
        for dt in [NO_INTERVAL, 0.0, 1.0, 1e300, f64::MAX, f64::INFINITY] {
            let r = Rec {
                t_last: Timestamp(1),
                word: dt.to_bits(),
            };
            assert_eq!((r.cached(), r.backref()), (false, NOT_CACHED), "{dt}");
        }
        let r = Rec {
            t_last: Timestamp(1),
            word: CACHED_TAG | TIMED | u64::from(NOT_CACHED - 1),
        };
        assert_eq!(
            (r.cached(), r.timed(), r.backref()),
            (true, true, NOT_CACHED - 1)
        );
        assert!(f64::from_bits(r.word).is_nan());
        let r = Rec {
            word: CACHED_TAG,
            ..r
        };
        assert_eq!((r.cached(), r.timed(), r.backref()), (true, false, 0));
        assert!(f64::from_bits(r.word).is_nan());
    }

    #[test]
    fn ewma_update_matches_eq8() {
        let mut p = PopTable::new();
        let (v, _) = touch(&mut p, id(1, 0), 0, 0.25);
        assert_eq!(iat_at(&p, v, 0, Timestamp(10), 0.25), None);
        assert_eq!(touch(&mut p, id(1, 0), 100, 0.25).0, v);
        assert_eq!(raw(&p, id(1, 0)), Some((Some(100.0), Timestamp(100))));
        touch(&mut p, id(1, 0), 140, 0.25); // 0.25*40 + 0.75*100 = 85
        assert!((raw(&p, id(1, 0)).unwrap().0.unwrap() - 85.0).abs() < 1e-9);
        // IAT at t=200: 0.25*60 + 0.75*85 = 78.75.
        assert!((iat_at(&p, v, 0, Timestamp(200), 0.25).unwrap() - 78.75).abs() < 1e-9);
        // The shared update: a first sighting observes nothing, the first
        // gap seeds, later ones fold in.
        assert_eq!(ewma(NO_INTERVAL, None, 0.25), NO_INTERVAL);
        assert_eq!(ewma(NO_INTERVAL, Some(100.0), 0.25), 100.0);
        assert_eq!(ewma(100.0, Some(40.0), 0.25), 85.0);
    }

    #[test]
    fn fallback_key_and_no_handle() {
        let mut p = PopTable::new();
        let (v, t) = touch(&mut p, id(2, 1), 500, 0.25);
        let dt = self::dt((v, t));
        assert_eq!(iat_at(&p, v, 1, Timestamp(500), 0.25), None);
        // Untracked chunks, inside the run and outside it, have no IAT.
        assert_eq!(iat_at(&p, v, 0, Timestamp(500), 0.25), None);
        assert_eq!(iat_at(&p, v, 9, Timestamp(500), 0.25), None);
        // No interval yet: the key falls back to t - fallback.
        assert!((PopTable::key_fresh(dt, Timestamp(500), 0.25, 30.0) - 470.0).abs() < 1e-9);
        // With one: t - (1 - γ)·dt, whatever the fallback.
        let dt = self::dt(touch(&mut p, id(2, 1), 600, 0.25));
        assert!((PopTable::key_fresh(dt, Timestamp(600), 0.25, 30.0) - 525.0).abs() < 1e-9);
    }

    #[test]
    fn iat_clamps_at_floor() {
        let mut p = PopTable::new();
        let (v, _) = touch(&mut p, id(1, 0), 0, 0.25);
        touch(&mut p, id(1, 0), 1, 0.25); // dt = 1ms
        let iat = iat_at(&p, v, 0, Timestamp(1), 0.25).unwrap();
        assert!((iat - MIN_IAT_MS).abs() < 1e-12, "clamped to floor");
    }

    #[test]
    fn touch_run_visits_the_interval_in_order() {
        let mut p = PopTable::new();
        let mut seen = Vec::new();
        let range = ChunkRange::new(2, 5).unwrap();
        let (slot, known) = p.touch_run(VideoId(9), range, Timestamp(10), 0.25, |c, t| {
            seen.push((c, t));
        });
        assert!(!known, "first request of the video");
        let want: Vec<_> = (2..=5).map(|c| (c, Touch::Uncached(-1.0))).collect();
        assert_eq!(seen, want);
        assert_eq!(p.len(), 4);
        // The run starts at chunk 2; chunks 0, 1 and 6 are untracked.
        assert_eq!(p.run_len(VideoId(9)), 4);
        assert_eq!(tracked(&p), (2..=5).map(|c| id(9, c)).collect::<Vec<_>>());
        // An overlapping request updates the records in place and
        // reports the video; the cached chunk hands out its gap instead.
        assert_eq!(cache(&mut p, id(9, 3), 77), -1.0);
        seen.clear();
        let range = ChunkRange::new(3, 6).unwrap();
        let (again, known) = p.touch_run(VideoId(9), range, Timestamp(30), 0.25, |c, t| {
            seen.push((c, t));
        });
        assert!(known);
        assert_eq!(again, slot);
        assert_eq!(
            seen,
            vec![
                (
                    3,
                    Touch::Cached {
                        slot: 77,
                        gap: Some(20.0)
                    }
                ),
                (4, Touch::Uncached(20.0)),
                (5, Touch::Uncached(20.0)),
                (6, Touch::Uncached(-1.0))
            ]
        );
        assert_eq!((p.len(), p.run_len(VideoId(9))), (5, 5));
    }

    #[test]
    fn cached_counts_drive_known_and_the_estimate() {
        let mut p = PopTable::new();
        // Cached with no record and no video-level entry (a restore can
        // produce this): the video is known through its cached chunk, and
        // the average it hands over is "no interval".
        let mut kept = cache(&mut p, id(4, 2), 0);
        assert_eq!(kept, NO_INTERVAL);
        let v4 = p.slot(VideoId(4));
        assert_eq!(p.max_cached_iat(v4, Timestamp(50), 0.25, |_| kept), None);
        assert_eq!(p.len(), 0, "cached, untracked");
        let (_, t) = touch(&mut p, id(4, 2), 100, 0.25);
        assert_eq!(t, Touch::Cached { slot: 0, gap: None }, "first sighting");
        let (_, t) = touch(&mut p, id(4, 2), 200, 0.25);
        assert_eq!(
            t,
            Touch::Cached {
                slot: 0,
                gap: Some(100.0)
            }
        );
        kept = ewma(kept, Some(100.0), 0.25);
        touch(&mut p, id(4, 7), 200, 0.25);
        touch(&mut p, id(4, 7), 210, 0.25); // hotter, but not cached
        let want = iat(kept, Timestamp(200), Timestamp(300), 0.25);
        assert_eq!(want, Some(100.0));
        assert_eq!(p.max_cached_iat(v4, Timestamp(300), 0.25, |_| kept), want);
        assert_eq!(p.backref_of(&id(4, 2)), 0);
        uncache(&mut p, id(4, 2), kept);
        assert_eq!(
            p.max_cached_iat(v4, Timestamp(300), 0.25, none_cached),
            None
        );
        assert_eq!(p.backref_of(&id(4, 2)), NOT_CACHED);
        // The average is back in the record.
        assert_eq!(raw(&p, id(4, 2)), Some((Some(100.0), Timestamp(200))));
        // A video that is neither seen, cached nor tracked leaves no entry.
        let dt = cache(&mut p, id(5, 0), 1);
        uncache(&mut p, id(5, 0), dt);
        assert_eq!(p.backref_of(&id(5, 0)), NOT_CACHED, "no such video");
        assert_eq!(p.slot_of(VideoId(5)), None);
        assert_eq!(p.run_len(VideoId(5)), 0);
        assert_eq!(p.videos_seen().count(), 1);
        p.audit(none_cached);
    }

    #[test]
    fn retain_freelists_and_reuses_slots() {
        let mut p = PopTable::new();
        let (va, _) = touch(&mut p, id(1, 0), 10, 0.25);
        let (vb, _) = touch(&mut p, id(2, 0), 20, 0.25);
        touch(&mut p, id(3, 0), 30, 0.25);
        assert!(walked(&mut p, Timestamp(25)));
        assert_eq!(p.len(), 1);
        assert_eq!(tracked(&p), [id(3, 0)]);
        assert_eq!(
            p.videos_seen().collect::<Vec<_>>(),
            [(VideoId(3), Timestamp(30))]
        );
        // The sweep released both dead videos' entries: new videos reuse
        // their slots, and the survivor keeps its own.
        let (vd, _) = touch(&mut p, id(4, 0), 40, 0.25);
        let (ve, _) = touch(&mut p, id(5, 0), 50, 0.25);
        let mut reused = vec![vd, ve];
        reused.sort_unstable();
        let mut freed = vec![va, vb];
        freed.sort_unstable();
        assert_eq!(reused, freed);
        assert_eq!(p.len(), 3);
        p.audit(none_cached);
    }

    #[test]
    fn repeated_retain_skips_freed_slots() {
        let mut p = PopTable::new();
        let (va, _) = touch(&mut p, id(1, 0), 10, 0.25);
        let (vb, _) = touch(&mut p, id(2, 0), 20, 0.25);
        assert!(walked(&mut p, Timestamp(15))); // releases slot `va`
        assert!(walked(&mut p, Timestamp(16))); // must not revisit the freed slot
        assert_eq!(p.len(), 1);
        p.audit(none_cached);
        assert!(walked(&mut p, Timestamp(1_000))); // releases slot `vb`
        assert_eq!(p.len(), 0);
        assert_eq!(p.records(none_cached).count(), 0);
        p.audit(none_cached);
        // Both slots come back exactly once each.
        let (vc, _) = touch(&mut p, id(3, 0), 30, 0.25);
        let (vd, _) = touch(&mut p, id(4, 0), 40, 0.25);
        let mut reused = vec![vc, vd];
        reused.sort_unstable();
        assert_eq!(reused, vec![va.min(vb), va.max(vb)]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn sweep_runs_only_above_the_floor() {
        let mut p = PopTable::new();
        assert!(
            !walked(&mut p, Timestamp(5)),
            "empty table: nothing can expire"
        );
        touch(&mut p, id(1, 0), 10, 0.25);
        touch(&mut p, id(2, 0), 20, 0.25);
        let dt = cache(&mut p, id(2, 0), 0);
        touch(&mut p, id(3, 0), 30, 0.25);
        // Nothing is older than the first request.
        assert!(!walked(&mut p, Timestamp(10)));
        assert!(walked(&mut p, Timestamp(25)));
        assert_eq!(p.len(), 2, "v1 dropped, cached v2 kept");
        // The walk left nothing below 25 — except the cached record.
        assert!(!walked(&mut p, Timestamp(25)));
        assert!(!walked(&mut p, Timestamp(22)));
        assert_eq!(p.sweeps(), 1);
        // Evicting the cold cached chunk exposes its stamp (20).
        uncache(&mut p, id(2, 0), dt);
        assert!(!walked(&mut p, Timestamp(20)));
        assert!(walked(&mut p, Timestamp(21)));
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.videos_seen().collect::<Vec<_>>(),
            [(VideoId(3), Timestamp(30))]
        );
        // A restored stamp can be anything: the floor returns to the epoch.
        p.insert_raw(id(8, 0), None, Timestamp(3));
        assert!(walked(&mut p, Timestamp(4)));
        assert_eq!(raw(&p, id(8, 0)), None);
        // Time running backwards lowers the floor with it.
        touch(&mut p, id(9, 0), 2, 0.25);
        assert!(walked(&mut p, Timestamp(3)));
        assert_eq!(raw(&p, id(9, 0)), None);
        assert_eq!(p.sweeps(), 4);
        p.audit(none_cached);
    }

    #[test]
    fn sweep_keeps_video_record_of_cached_videos() {
        let mut p = PopTable::new();
        touch(&mut p, id(1, 0), 10, 0.25);
        touch(&mut p, id(1, 1), 10, 0.25);
        let dt = cache(&mut p, id(1, 0), 0);
        assert!(walked(&mut p, Timestamp(50)));
        // The uncached sibling goes; the video stays known, seen at 10.
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.videos_seen().collect::<Vec<_>>(),
            [(VideoId(1), Timestamp(10))]
        );
        // Its last cached chunk goes: the video itself can now expire.
        uncache(&mut p, id(1, 0), dt);
        assert!(walked(&mut p, Timestamp(50)));
        assert_eq!((p.len(), p.videos_seen().count()), (0, 0));
        assert_eq!(p.run_len(VideoId(1)), 0, "entry released");
        p.audit(none_cached);
    }

    #[test]
    fn sweep_trims_both_ends_of_a_run_and_returns_its_room() {
        let mut p = PopTable::new();
        let all = ChunkRange::new(0, 99).unwrap();
        p.touch_run(VideoId(1), all, Timestamp(10), 0.25, |_, _| {});
        let middle = ChunkRange::new(40, 49).unwrap();
        p.touch_run(VideoId(1), middle, Timestamp(1_000), 0.25, |_, _| {});
        // A cached chunk keeps its stale record, and the run reaching it.
        let mut dt = cache(&mut p, id(1, 60), 5);
        let before = p.state_bytes();
        assert!(walked(&mut p, Timestamp(500)));
        // Chunks 0..40 left the low end, 61..100 the high one; the gap
        // between the middle and the cached chunk stays.
        assert_eq!(p.run_len(VideoId(1)), 21);
        let kept: Vec<ChunkId> = p.records(|_| dt).map(|r| r.0).collect();
        let want: Vec<ChunkId> = (40..50).chain([60]).map(|c| id(1, c)).collect();
        assert_eq!(kept, want);
        // 100 records of room, 21 used: 100 − (21 + 4) given back.
        assert_eq!(before - p.state_bytes(), 75 * std::mem::size_of::<Rec>());
        p.audit(|_| dt);
        // The run grows back down as before; the cached chunk's gap goes
        // to the caller's average.
        p.touch_run(VideoId(1), all, Timestamp(1_100), 0.25, |_, t| {
            if let Touch::Cached { gap, .. } = t {
                dt = ewma(dt, gap, 0.25);
            }
        });
        assert_eq!((p.run_len(VideoId(1)), dt), (100, 1_090.0));
        p.audit(|_| dt);
    }

    #[test]
    fn insert_raw_round_trips() {
        let mut p = PopTable::new();
        let slot = p.insert_raw(id(7, 3), Some(123.5), Timestamp(999));
        assert_eq!(raw(&p, id(7, 3)), Some((Some(123.5), Timestamp(999))));
        assert_eq!(p.insert_raw(id(7, 3), None, Timestamp(1_000)), slot);
        assert_eq!(raw(&p, id(7, 3)), Some((None, Timestamp(1_000))));
        assert_eq!(p.len(), 1, "re-insert replaces in place");
        // A chunk record alone does not make the video seen.
        assert_eq!(p.videos_seen().count(), 0);
        p.set_last_seen(VideoId(7), Timestamp(5));
        assert_eq!(
            p.videos_seen().collect::<Vec<_>>(),
            [(VideoId(7), Timestamp(5))]
        );
        p.audit(none_cached);
    }

    #[test]
    #[should_panic(expected = "untracked sentinel")]
    fn insert_raw_refuses_the_free_stamp() {
        PopTable::new().insert_raw(id(1, 0), None, Timestamp(u64::MAX));
    }

    #[test]
    fn iter_visits_every_entry() {
        let mut p = PopTable::new();
        for v in 0..10 {
            touch(&mut p, id(v, v as u32), v, 0.25);
        }
        let want: Vec<ChunkId> = (0..10).map(|v| id(v, v as u32)).collect();
        assert_eq!(tracked(&p), want);
        // One record a video, however high its chunk.
        assert!((0..10).all(|v| p.run_len(VideoId(v)) == 1));
    }

    /// What the table should hold, by chunk: `(dt, t_last, backref)`
    /// ([`NO_INTERVAL`], [`FREE_STAMP`], [`NOT_CACHED`] when absent) —
    /// `dt` wherever the table and its caller keep it — and by video: the
    /// last-seen stamp.
    #[derive(Default)]
    struct Model {
        chunks: BTreeMap<ChunkId, (f64, Timestamp, u32)>,
        seen: BTreeMap<VideoId, Timestamp>,
    }

    impl Model {
        fn entry(&mut self, id: ChunkId) -> &mut (f64, Timestamp, u32) {
            self.chunks
                .entry(id)
                .or_insert((NO_INTERVAL, FREE_STAMP, NOT_CACHED))
        }

        /// Drops entries that are neither tracked nor cached.
        fn tidy(&mut self) {
            self.chunks
                .retain(|_, e| e.1 != FREE_STAMP || e.2 != NOT_CACHED);
        }

        fn cached(&self, video: VideoId) -> bool {
            let mut of = self.chunks.iter().filter(|(c, _)| c.video == video);
            of.any(|(_, e)| e.2 != NOT_CACHED)
        }

        /// The unconditional sweep.
        fn sweep(&mut self, cutoff: Timestamp) {
            for e in self.chunks.values_mut() {
                if e.2 == NOT_CACHED && e.1 < cutoff {
                    *e = (NO_INTERVAL, FREE_STAMP, NOT_CACHED);
                }
            }
            let stale: Vec<VideoId> = (self.seen.iter())
                .filter(|(v, t)| **t < cutoff && !self.cached(**v))
                .map(|(v, _)| *v)
                .collect();
            for v in stale {
                self.seen.remove(&v);
            }
            self.tidy();
        }

        /// Every tracked chunk's `(id, dt, t_last)`, sorted.
        fn records(&self) -> Vec<(ChunkId, Option<f64>, Timestamp)> {
            let tracked = self.chunks.iter().filter(|(_, e)| e.1 != FREE_STAMP);
            let dt = |d: f64| if d < 0.0 { None } else { Some(d) };
            tracked.map(|(c, e)| (*c, dt(e.0), e.1)).collect()
        }
    }

    /// The table with its caller beside it: `kept` holds each cached
    /// chunk's average by back-reference, the way Cafe's rank-index
    /// entries do, and every fill and eviction hands the average across.
    #[test]
    fn matches_a_btreemap_model() {
        let gamma = 0.25;
        for case in 0..48u64 {
            let mut rng = DetRng::new(0x9097_AB1E ^ case);
            let mut p = PopTable::new();
            let mut m = Model::default();
            let mut kept: BTreeMap<u32, f64> = BTreeMap::new();
            let mut now = 1_000u64;
            let mut next_backref = 0u32;
            let videos = 1 + rng.below(6);
            for step in 0..1 + rng.below(400) {
                let at = format!("case {case} step {step}");
                let video = VideoId(rng.below(videos));
                let chunk = ChunkId::new(video, rng.below(24) as u32);
                match rng.below(20) {
                    0..=8 => {
                        // A request; now and then the clock steps back.
                        now = if rng.below(16) == 0 {
                            now - rng.below(200)
                        } else {
                            now + rng.below(60)
                        };
                        let t = Timestamp(now);
                        let end = chunk.index + rng.below(5) as u32;
                        let range = ChunkRange::new(chunk.index, end).unwrap();
                        let want_known = m.seen.contains_key(&video) || m.cached(video);
                        let mut visits = Vec::new();
                        let (slot, known) = p.touch_run(video, range, t, gamma, |c, touch| {
                            visits.push((c, touch));
                        });
                        assert_eq!(known, want_known, "{at}");
                        m.seen.insert(video, t);
                        for (c, (index, touch)) in range.iter().zip(visits) {
                            let e = m.entry(ChunkId::new(video, c));
                            let gap = (e.1 != FREE_STAMP).then(|| (t - e.1).as_millis() as f64);
                            e.0 = if e.1 == FREE_STAMP {
                                NO_INTERVAL
                            } else if e.0 < 0.0 {
                                gap.unwrap()
                            } else {
                                gamma * gap.unwrap() + (1.0 - gamma) * e.0
                            };
                            e.1 = t;
                            assert_eq!(index, c, "{at}");
                            match touch {
                                Touch::Uncached(dt) => {
                                    assert_eq!((dt.to_bits(), NOT_CACHED), (e.0.to_bits(), e.2));
                                }
                                Touch::Cached { slot: b, gap: g } => {
                                    assert_eq!((b, g), (e.2, gap), "{at}");
                                    let dt = kept.get_mut(&b).unwrap();
                                    *dt = ewma(*dt, g, gamma);
                                    assert_eq!(dt.to_bits(), e.0.to_bits(), "{at}");
                                }
                            }
                        }
                        let estimate = (m.chunks.iter())
                            .filter(|(c, e)| c.video == video && e.2 != NOT_CACHED)
                            .filter_map(|(_, e)| iat(e.0, e.1, t, gamma))
                            .reduce(f64::max);
                        let got = p.max_cached_iat(slot, t, gamma, |b| kept[&b]);
                        assert_eq!(got, estimate, "{at}");
                    }
                    9..=11 => {
                        // A fill: the record hands its average over.
                        if m.entry(chunk).2 == NOT_CACHED {
                            let slot = p.slot(video);
                            p.set_cached(slot, chunk.index, |dt| {
                                kept.insert(next_backref, dt);
                                next_backref
                            });
                            let e = m.entry(chunk);
                            e.2 = next_backref;
                            assert_eq!(kept[&next_backref].to_bits(), e.0.to_bits(), "{at}");
                            next_backref += 1;
                        }
                        m.tidy();
                    }
                    12..=14 => {
                        // An eviction: the average goes back to the record.
                        let b = m.entry(chunk).2;
                        assert_eq!(p.backref_of(&chunk), b, "{at}");
                        if b != NOT_CACHED {
                            let slot = p.slot_of(video).unwrap();
                            p.clear_cached(slot, chunk.index, kept.remove(&b).unwrap());
                            m.entry(chunk).2 = NOT_CACHED;
                        }
                        m.tidy();
                    }
                    15..=17 => {
                        let cutoff = Timestamp(now - rng.below(150));
                        p.sweep(cutoff);
                        m.sweep(cutoff);
                    }
                    _ => {
                        // A restore: a record of a chunk that is not
                        // cached, and the video's last-seen.
                        let dt = (rng.below(3) > 0).then(|| rng.below(500) as f64);
                        let t = Timestamp(now - rng.below(300));
                        if m.entry(chunk).2 == NOT_CACHED {
                            p.insert_raw(chunk, dt, t);
                            *m.entry(chunk) = (dt.unwrap_or(NO_INTERVAL), t, NOT_CACHED);
                        }
                        m.tidy();
                        p.set_last_seen(video, t);
                        m.seen.insert(video, t);
                    }
                }
                let mut records: Vec<_> = p.records(|b| kept[&b]).collect();
                records.sort_unstable_by_key(|r| r.0);
                assert_eq!(records, m.records(), "{at}");
                let mut seen: Vec<_> = p.videos_seen().collect();
                seen.sort_unstable();
                let want: Vec<_> = m.seen.iter().map(|(v, t)| (*v, *t)).collect();
                assert_eq!(seen, want, "{at}");
                assert_eq!(p.len(), m.records().len(), "{at}");
                for (c, e) in &m.chunks {
                    assert_eq!(p.backref_of(c), e.2, "{at}: {c}");
                }
                p.audit(|b| kept[&b]);
            }
        }
    }
}
