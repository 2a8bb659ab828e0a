//! Cafe's popularity records (paper §6, Eq. 8): one [`VideoDir`] entry per
//! video, and in its run one record per chunk, EWMA state and disk
//! back-reference side by side.
//!
//! [`PopTable::touch_run`] makes the request's one directory probe, updates
//! the run's `c0..=c1` records in place, sequentially, and hands the
//! video's slot back, so the request's fills ([`PopTable::set_cached`]) and
//! the §6 estimate ([`PopTable::max_cached_iat`]) probe nothing.
//! A chunk record is the 24-byte `{ dt, t_last, backref }`: the Eq. 8
//! inter-arrival average (negative while no interval has been observed),
//! the last touch, and the caller-owned "cached, and where" word (Cafe
//! stores the chunk's disk rank-index slot there — the index keeps no map
//! of its own, so this word *is* its address). `t_last` is `u64::MAX` ms
//! (`FREE_STAMP`) when the chunk is untracked, and `backref` is
//! [`NOT_CACHED`] when it is not cached: a chunk can be tracked and
//! uncached, cached with no record (restored from a snapshot whose record
//! had been swept), both, or neither (a gap in the run). The entry's value is the video-level
//! last-seen time and its live count is how many chunks of its run are
//! cached — all the never-seen-video rule and the sweep need. An entry is
//! released once it holds none of the three.
//!
//! A record's address is its video's slot and its chunk number. The slot
//! is stable while the video holds anything (slots are free-listed, never
//! compacted), so the disk rank index keeps it as each cached chunk's
//! `aux` payload. Slot *values* are an allocation artifact (free-list
//! reuse order) and must never influence ordering or output — every
//! ordered export sorts by `(key, ChunkId)` or by `ChunkId`.
//!
//! Runs are reserved tightly
//! ([`Video::reserve_tight`](super::video_dir::Video::reserve_tight)): a
//! fresh run to exactly the chunks its request covers, a growing one to
//! its new length plus `max(len / 8, 4)` records. At 24 bytes a record,
//! `Vec`'s doubling would leave the table's largest slack.

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

/// `t_last` sentinel marking an untracked chunk; it is above every sweep
/// cutoff, so [`PopTable::sweep`] passes over untracked chunks with the
/// same comparison that passes over fresh records. Real stamps are trace
/// times, far below `u64::MAX` ms.
pub(crate) const FREE_STAMP: Timestamp = Timestamp(u64::MAX);

/// One chunk of a video's run (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rec {
    dt: f64,
    t_last: Timestamp,
    backref: u32,
}

impl Absent for Rec {
    const NONE: Rec = Rec {
        dt: NO_INTERVAL,
        t_last: FREE_STAMP,
        backref: NOT_CACHED,
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

/// Eq. 8 for record `r` at `now`: `IAT_x(t) = γ(t − t_x) + (1 − γ)·dt`
/// (ms, clamped to [`MIN_IAT_MS`]), or `None` while it has no interval.
fn iat(r: Rec, now: Timestamp, gamma: f64) -> Option<f64> {
    if r.dt < 0.0 {
        return None;
    }
    Some((gamma * (now - r.t_last).as_millis() as f64 + (1.0 - gamma) * r.dt).max(MIN_IAT_MS))
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

    /// Records a request for chunks `range` of `video` at `now`: one
    /// directory probe, then per chunk, in ascending order, the Eq. 8
    /// update and a call `visit(slot, index, backref, dt)` with the
    /// video's slot, the chunk's caller-owned back-reference
    /// ([`NOT_CACHED`] when not cached) and the post-update EWMA
    /// (negative while no interval has been observed — feed it to
    /// [`Self::iat_fresh`] / [`Self::key_fresh`] to avoid re-reading the
    /// record). Eq. 8: a first sighting stores the timestamp with no
    /// interval; later accesses update `dt ← γ·gap + (1 − γ)·dt` (the first
    /// observed interval seeds the average) — bit-for-bit the arithmetic
    /// of the old per-entry `IatState::update`.
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
        mut visit: impl FnMut(u32, u32, u32, f64),
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
            // An untracked record's `dt` is already `NO_INTERVAL`.
            if rec.t_last == FREE_STAMP {
                self.tracked += 1;
            } else {
                let gap = (now - rec.t_last).as_millis() as f64;
                rec.dt = if rec.dt < 0.0 {
                    gap
                } else {
                    gamma * gap + (1.0 - gamma) * rec.dt
                };
            }
            rec.t_last = now;
            visit(slot, c, rec.backref, rec.dt);
        }
        (slot, known)
    }

    /// Eq. 8 query for a record touched at `now` (so `t_last == now`),
    /// fed by the `dt` that [`Self::touch_run`] just handed out: the
    /// elapsed-gap term is zero and the IAT reduces to `(1 − γ)·dt`
    /// (clamped), with no record read. Bit-identical to
    /// [`Self::iat_at`] at `now` because `γ·0 + x == x` exactly for the
    /// non-negative finite `dt` values.
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

    /// Marks chunk `index` of the video at `slot` cached, with `backref`
    /// as its caller-owned back-reference (any value but [`NOT_CACHED`]).
    pub fn set_cached(&mut self, slot: u32, index: u32, backref: u32) {
        let v = &mut self.dir[slot];
        let was = std::mem::replace(&mut rec_mut(v, index).backref, backref);
        v.live += u32::from(was == NOT_CACHED);
    }

    /// The back-reference of `id` ([`NOT_CACHED`] when it is not cached).
    pub fn backref_of(&self, id: &ChunkId) -> u32 {
        let slot = self.dir.slot(id.video);
        slot.map_or(NOT_CACHED, |slot| self.dir[slot].rec(id.index).backref)
    }

    /// Marks `id` uncached and returns the back-reference it held
    /// ([`NOT_CACHED`] when it was not cached). What this exposes to the
    /// next sweep — the chunk's record, and the video once its last cached
    /// chunk goes — lowers the sweep floor.
    pub fn clear_cached(&mut self, id: ChunkId) -> u32 {
        let Some(slot) = self.dir.slot(id.video) else {
            return NOT_CACHED;
        };
        let v = &mut self.dir[slot];
        let rec = v.rec(id.index);
        if rec.backref == NOT_CACHED {
            return NOT_CACHED;
        }
        v.rec_mut(id.index).backref = NOT_CACHED;
        v.live -= 1;
        // An untracked chunk's stamp is above every floor.
        self.stale_floor = self.stale_floor.min(rec.t_last);
        if v.live == 0 && v.meta != Timestamp::NONE {
            self.stale_floor = self.stale_floor.min(v.meta);
        } else if is_dead(v) {
            self.dir.release(slot);
        }
        rec.backref
    }

    /// The largest Eq. 8 IAT at `now` among the cached chunks of the video
    /// at `slot` (the §6 unseen-chunk estimate), or `None` if none is
    /// cached with a known interval: a walk over the video's run that
    /// stops at its last cached chunk.
    pub fn max_cached_iat(&self, slot: u32, now: Timestamp, gamma: f64) -> Option<f64> {
        let v = &self.dir[slot];
        let cached = v.run().iter().filter(|r| r.backref != NOT_CACHED);
        cached
            .take(v.live as usize)
            .filter_map(|&r| iat(r, now, gamma))
            .reduce(f64::max)
    }

    /// Eq. 8 query for chunk `index` of the video at `slot`:
    /// `IAT_x(t) = γ(t − t_x) + (1 − γ)·dt` (ms, clamped to
    /// [`MIN_IAT_MS`]), or `None` while the chunk has been seen only once
    /// — or is untracked.
    pub fn iat_at(&self, slot: u32, index: u32, now: Timestamp, gamma: f64) -> Option<f64> {
        iat(self.dir[slot].rec(index), now, gamma)
    }

    /// Inserts a record with explicit raw state (snapshot restore),
    /// replacing any existing record for `id`, and returns its video's
    /// slot. Restored stamps are arbitrary, so the sweep floor drops to
    /// the epoch.
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
        self.tracked += usize::from(rec.t_last == FREE_STAMP);
        rec.dt = dt.unwrap_or(NO_INTERVAL);
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
    /// before it, then releases the entries left holding nothing — one
    /// [`VideoDir::retain`] pass over the directory. [`Self::sweeps`]
    /// counts the calls that walk it.
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
            let stale = |r: &Rec| r.t_last < cutoff && r.backref == NOT_CACHED;
            for r in v.run_mut().iter_mut().filter(|r| stale(r)) {
                *r = Rec::NONE;
                *tracked -= 1;
            }
            if v.live == 0 && v.meta < cutoff {
                v.meta = Timestamp::NONE;
            }
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
    /// ascending chunk order within a video (snapshot export).
    pub fn records(&self) -> impl Iterator<Item = (ChunkId, Option<f64>, Timestamp)> + '_ {
        self.dir.iter().flat_map(|(_, v)| {
            let tracked = (v.base()..)
                .zip(v.run())
                .filter(|(_, r)| r.t_last != FREE_STAMP);
            tracked.map(|(c, r)| {
                let dt = if r.dt < 0.0 { None } else { Some(r.dt) };
                (ChunkId::new(v.id(), c), dt, r.t_last)
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

    /// Checks the directory (tests): [`VideoDir::audit`], with `live`
    /// counting the records that carry a back-reference, and the tracked
    /// count.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        self.dir.audit(|r| r.backref != NOT_CACHED);
        assert_eq!(self.records().count(), self.tracked, "tracked count");
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

    /// [`PopTable::sweep`] at `cutoff`; whether it walked the directory.
    fn walked(p: &mut PopTable, cutoff: Timestamp) -> bool {
        let before = p.sweeps();
        p.sweep(cutoff);
        p.sweeps() > before
    }

    /// One-chunk [`PopTable::touch_run`]: `(slot, backref, dt)`.
    fn touch(p: &mut PopTable, id: ChunkId, now: u64, gamma: f64) -> (u32, u32, f64) {
        let mut out = None;
        let range = ChunkRange::new(id.index, id.index).unwrap();
        p.touch_run(id.video, range, Timestamp(now), gamma, |slot, _, b, dt| {
            out = Some((slot, b, dt));
        });
        out.unwrap()
    }

    /// [`PopTable::set_cached`] by chunk id.
    fn cache(p: &mut PopTable, id: ChunkId, backref: u32) {
        let slot = p.slot(id.video);
        p.set_cached(slot, id.index, backref);
    }

    /// The raw `(dt, t_last)` of `id`, if tracked.
    fn raw(p: &PopTable, id: ChunkId) -> Option<(Option<f64>, Timestamp)> {
        let mut hit = p.records().filter(|r| r.0 == id);
        hit.next().map(|(_, dt, t)| (dt, t))
    }

    /// Every tracked chunk, sorted.
    fn tracked(p: &PopTable) -> Vec<ChunkId> {
        let mut ids: Vec<ChunkId> = p.records().map(|r| r.0).collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn ewma_update_matches_eq8() {
        let mut p = PopTable::new();
        let (v, _, _) = touch(&mut p, id(1, 0), 0, 0.25);
        assert_eq!(p.iat_at(v, 0, Timestamp(10), 0.25), None);
        assert_eq!(touch(&mut p, id(1, 0), 100, 0.25).0, v);
        assert_eq!(raw(&p, id(1, 0)), Some((Some(100.0), Timestamp(100))));
        touch(&mut p, id(1, 0), 140, 0.25); // 0.25*40 + 0.75*100 = 85
        assert!((raw(&p, id(1, 0)).unwrap().0.unwrap() - 85.0).abs() < 1e-9);
        // IAT at t=200: 0.25*60 + 0.75*85 = 78.75.
        assert!((p.iat_at(v, 0, Timestamp(200), 0.25).unwrap() - 78.75).abs() < 1e-9);
    }

    #[test]
    fn fallback_key_and_no_handle() {
        let mut p = PopTable::new();
        let (v, _, dt) = touch(&mut p, id(2, 1), 500, 0.25);
        assert_eq!(p.iat_at(v, 1, Timestamp(500), 0.25), None);
        // Untracked chunks, inside the run and outside it, have no IAT.
        assert_eq!(p.iat_at(v, 0, Timestamp(500), 0.25), None);
        assert_eq!(p.iat_at(v, 9, Timestamp(500), 0.25), None);
        // No interval yet: the key falls back to t - fallback.
        assert!((PopTable::key_fresh(dt, Timestamp(500), 0.25, 30.0) - 470.0).abs() < 1e-9);
        // With one: t - (1 - γ)·dt, whatever the fallback.
        let (_, _, dt) = touch(&mut p, id(2, 1), 600, 0.25);
        assert!((PopTable::key_fresh(dt, Timestamp(600), 0.25, 30.0) - 525.0).abs() < 1e-9);
    }

    #[test]
    fn iat_clamps_at_floor() {
        let mut p = PopTable::new();
        let (v, _, _) = touch(&mut p, id(1, 0), 0, 0.25);
        touch(&mut p, id(1, 0), 1, 0.25); // dt = 1ms
        let iat = p.iat_at(v, 0, Timestamp(1), 0.25).unwrap();
        assert!((iat - MIN_IAT_MS).abs() < 1e-12, "clamped to floor");
    }

    #[test]
    fn touch_run_visits_the_interval_in_order() {
        let mut p = PopTable::new();
        let mut seen = Vec::new();
        let range = ChunkRange::new(2, 5).unwrap();
        let (slot, known) = p.touch_run(VideoId(9), range, Timestamp(10), 0.25, |s, c, b, dt| {
            seen.push((s, c, b, dt));
        });
        assert!(!known, "first request of the video");
        let want: Vec<_> = (2..=5).map(|c| (slot, c, NOT_CACHED, -1.0)).collect();
        assert_eq!(seen, want);
        assert_eq!(p.len(), 4);
        // The run starts at chunk 2; chunks 0, 1 and 6 are untracked.
        assert_eq!(p.run_len(VideoId(9)), 4);
        assert_eq!(tracked(&p), (2..=5).map(|c| id(9, c)).collect::<Vec<_>>());
        // An overlapping request updates the records in place and
        // reports the video.
        cache(&mut p, id(9, 3), 77);
        seen.clear();
        let range = ChunkRange::new(3, 6).unwrap();
        let (_, known) = p.touch_run(VideoId(9), range, Timestamp(30), 0.25, |s, c, b, dt| {
            seen.push((s, c, b, dt));
        });
        assert!(known);
        assert_eq!(
            seen,
            vec![
                (slot, 3, 77, 20.0),
                (slot, 4, NOT_CACHED, 20.0),
                (slot, 5, NOT_CACHED, 20.0),
                (slot, 6, NOT_CACHED, -1.0)
            ]
        );
        assert_eq!((p.len(), p.run_len(VideoId(9))), (5, 5));
    }

    #[test]
    fn cached_counts_drive_known_and_the_estimate() {
        let mut p = PopTable::new();
        // Cached with no record and no video-level entry (a restore can
        // produce this): the video is known through its cached chunk.
        cache(&mut p, id(4, 2), 0);
        let v4 = p.slot(VideoId(4));
        assert_eq!(p.max_cached_iat(v4, Timestamp(50), 0.25), None);
        assert_eq!(p.len(), 0, "cached, untracked");
        let (_, b, _) = touch(&mut p, id(4, 2), 100, 0.25);
        assert_eq!(b, 0, "back-reference survives the first touch");
        touch(&mut p, id(4, 2), 200, 0.25); // dt = 100
        touch(&mut p, id(4, 7), 200, 0.25);
        touch(&mut p, id(4, 7), 210, 0.25); // hotter, but not cached
        let want = p.iat_at(v4, 2, Timestamp(300), 0.25);
        assert_eq!(p.max_cached_iat(v4, Timestamp(300), 0.25), want);
        assert_eq!(p.backref_of(&id(4, 2)), 0);
        assert_eq!(p.clear_cached(id(4, 2)), 0);
        assert_eq!(p.max_cached_iat(v4, Timestamp(300), 0.25), None);
        assert_eq!(p.clear_cached(id(4, 2)), NOT_CACHED, "idempotent");
        assert_eq!(p.backref_of(&id(4, 2)), NOT_CACHED);
        // A video that is neither seen, cached nor tracked leaves no entry.
        cache(&mut p, id(5, 0), 1);
        assert_eq!(p.clear_cached(id(5, 0)), 1);
        assert_eq!(p.clear_cached(id(5, 0)), NOT_CACHED);
        assert_eq!(p.backref_of(&id(5, 0)), NOT_CACHED, "no such video");
        assert_eq!(p.run_len(VideoId(5)), 0);
        assert_eq!(p.videos_seen().count(), 1);
        p.audit();
    }

    #[test]
    fn retain_freelists_and_reuses_slots() {
        let mut p = PopTable::new();
        let (va, _, _) = touch(&mut p, id(1, 0), 10, 0.25);
        let (vb, _, _) = touch(&mut p, id(2, 0), 20, 0.25);
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
        let (vd, _, _) = touch(&mut p, id(4, 0), 40, 0.25);
        let (ve, _, _) = touch(&mut p, id(5, 0), 50, 0.25);
        let mut reused = vec![vd, ve];
        reused.sort_unstable();
        let mut freed = vec![va, vb];
        freed.sort_unstable();
        assert_eq!(reused, freed);
        assert_eq!(p.len(), 3);
        p.audit();
    }

    #[test]
    fn repeated_retain_skips_freed_slots() {
        let mut p = PopTable::new();
        let (va, _, _) = touch(&mut p, id(1, 0), 10, 0.25);
        let (vb, _, _) = touch(&mut p, id(2, 0), 20, 0.25);
        assert!(walked(&mut p, Timestamp(15))); // releases slot `va`
        assert!(walked(&mut p, Timestamp(16))); // must not revisit the freed slot
        assert_eq!(p.len(), 1);
        p.audit();
        assert!(walked(&mut p, Timestamp(1_000))); // releases slot `vb`
        assert_eq!(p.len(), 0);
        assert_eq!(p.records().count(), 0);
        p.audit();
        // Both slots come back exactly once each.
        let (vc, _, _) = touch(&mut p, id(3, 0), 30, 0.25);
        let (vd, _, _) = touch(&mut p, id(4, 0), 40, 0.25);
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
        cache(&mut p, id(2, 0), 0);
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
        p.clear_cached(id(2, 0));
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
        p.audit();
    }

    #[test]
    fn sweep_keeps_video_record_of_cached_videos() {
        let mut p = PopTable::new();
        touch(&mut p, id(1, 0), 10, 0.25);
        touch(&mut p, id(1, 1), 10, 0.25);
        cache(&mut p, id(1, 0), 0);
        assert!(walked(&mut p, Timestamp(50)));
        // The uncached sibling goes; the video stays known, seen at 10.
        assert_eq!(p.len(), 1);
        assert_eq!(
            p.videos_seen().collect::<Vec<_>>(),
            [(VideoId(1), Timestamp(10))]
        );
        // Its last cached chunk goes: the video itself can now expire.
        p.clear_cached(id(1, 0));
        assert!(walked(&mut p, Timestamp(50)));
        assert_eq!((p.len(), p.videos_seen().count()), (0, 0));
        assert_eq!(p.run_len(VideoId(1)), 0, "entry released");
        p.audit();
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
        p.audit();
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
    /// ([`NO_INTERVAL`], [`FREE_STAMP`], [`NOT_CACHED`] when absent), and
    /// by video: the last-seen stamp.
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

    #[test]
    fn matches_a_btreemap_model() {
        let gamma = 0.25;
        for case in 0..48u64 {
            let mut rng = DetRng::new(0x9097_AB1E ^ case);
            let mut p = PopTable::new();
            let mut m = Model::default();
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
                        let (slot, known) = p.touch_run(video, range, t, gamma, |s, c, b, dt| {
                            visits.push((s, c, b, dt));
                        });
                        assert_eq!(known, want_known, "{at}");
                        m.seen.insert(video, t);
                        for (c, (s, index, b, dt)) in range.iter().zip(visits) {
                            let e = m.entry(ChunkId::new(video, c));
                            if e.1 == FREE_STAMP {
                                e.0 = NO_INTERVAL;
                            } else {
                                let gap = (t - e.1).as_millis() as f64;
                                e.0 = if e.0 < 0.0 {
                                    gap
                                } else {
                                    gamma * gap + (1.0 - gamma) * e.0
                                };
                            }
                            e.1 = t;
                            assert_eq!((s, index, b, dt), (slot, c, e.2, e.0), "{at}");
                        }
                        let estimate = (m.chunks.iter())
                            .filter(|(c, e)| c.video == video && e.2 != NOT_CACHED)
                            .filter_map(|(_, e)| {
                                let r = Rec {
                                    dt: e.0,
                                    t_last: e.1,
                                    backref: e.2,
                                };
                                iat(r, t, gamma)
                            })
                            .reduce(f64::max);
                        assert_eq!(p.max_cached_iat(slot, t, gamma), estimate, "{at}");
                    }
                    9..=11 => {
                        if m.entry(chunk).2 == NOT_CACHED {
                            let slot = p.slot(video);
                            p.set_cached(slot, chunk.index, next_backref);
                            m.entry(chunk).2 = next_backref;
                            next_backref += 1;
                        }
                        m.tidy();
                    }
                    12..=14 => {
                        let want = m.entry(chunk).2;
                        assert_eq!(p.clear_cached(chunk), want, "{at}");
                        m.entry(chunk).2 = NOT_CACHED;
                        m.tidy();
                    }
                    15..=17 => {
                        let cutoff = Timestamp(now - rng.below(150));
                        p.sweep(cutoff);
                        m.sweep(cutoff);
                    }
                    _ => {
                        // A restore: a record, and the video's last-seen.
                        let dt = (rng.below(3) > 0).then(|| rng.below(500) as f64);
                        let t = Timestamp(now - rng.below(300));
                        p.insert_raw(chunk, dt, t);
                        *m.entry(chunk) = (dt.unwrap_or(NO_INTERVAL), t, m.entry(chunk).2);
                        p.set_last_seen(video, t);
                        m.seen.insert(video, t);
                    }
                }
                let mut records: Vec<_> = p.records().collect();
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
                p.audit();
            }
        }
    }
}
