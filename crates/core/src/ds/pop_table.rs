//! Cafe's popularity directory (paper §6, Eq. 8): one [`VideoDir`] entry
//! per video, one dense run of chunk records inside it, EWMA state in
//! shared slabs.
//!
//! [`PopTable::touch_run`] makes the request's one directory probe, reads
//! the run's `c0..=c1` records sequentially and hands the video's slot
//! back, so the request's fills ([`PopTable::set_cached`]) and the §6
//! estimate ([`PopTable::max_cached_iat`]) probe nothing.
//! A chunk record is the pair `{ h, backref }`. `h` is the **handle**: the
//! index of the chunk's EWMA state in the parallel slabs (`Vec<f64>`
//! inter-arrival averages, `Vec<Timestamp>` last-seen stamps, and the
//! owners: each record's video slot and chunk number). `backref` is the
//! caller-owned "cached, and
//! where" word (Cafe stores the chunk's disk rank-index slot there — the
//! index keeps no map of its own, so this word *is* its address). Either is
//! [`NO_HANDLE`] when absent: a chunk can be tracked and uncached, cached
//! with no record (restored from a snapshot whose record had been swept),
//! both, or neither (a gap in the run). The entry's value is the
//! video-level last-seen time and its live count is how many chunks of its
//! run are cached — all the never-seen-video rule and the sweep need. An
//! entry is released once it holds none of the three.
//!
//! Handles are **stable** (slots are free-listed, never compacted): the
//! disk rank index caches the handle as its `aux` payload for the lifetime
//! of an entry. Handle *values* are an allocation artifact
//! (free-list reuse order) and must never influence ordering or output —
//! every ordered export sorts by `(key, ChunkId)` or by `ChunkId`.

use vcdn_types::{ChunkId, ChunkRange, Timestamp, VideoId};

use super::{Absent, VideoDir};

/// Minimum inter-arrival time (ms) used in divisions (shared with the
/// Eq. 6/7 cost terms in `cafe.rs`).
pub const MIN_IAT_MS: f64 = 1.0;

/// Sentinel handle meaning "no popularity record" (e.g. a disk entry
/// restored from a snapshot whose popularity state was swept); as a
/// back-reference, "not cached".
pub const NO_HANDLE: u32 = u32::MAX;

/// Slab sentinel for "no interval observed yet" (`IatState.dt = None` in
/// the old layout): real EWMA values are gaps in milliseconds, ≥ 0.
const NO_INTERVAL: f64 = -1.0;

/// `t_last` sentinel marking a free-listed slot; it is above every sweep
/// cutoff, so [`PopTable::sweep`] passes over free slots with the same
/// comparison that passes over fresh records. Real stamps are trace
/// times, far below `u64::MAX` ms.
pub(crate) const FREE_STAMP: Timestamp = Timestamp(u64::MAX);

/// One chunk of a video's run (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rec {
    h: u32,
    backref: u32,
}

impl Absent for Rec {
    const NONE: Rec = Rec {
        h: NO_HANDLE,
        backref: NO_HANDLE,
    };
}

/// The free-slot sentinel doubles as "not seen": no video-level record
/// (swept, or never restored).
impl Absent for Timestamp {
    const NONE: Timestamp = FREE_STAMP;
}

/// A directory entry: the run, cached chunks as its live count, and the
/// last request for any chunk of the video as its value.
type Video = super::video_dir::Video<Rec, Timestamp>;

/// Nothing left to remember: not seen, nothing cached, nothing tracked.
fn is_dead(v: &Video) -> bool {
    v.meta == Timestamp::NONE && v.run().iter().all(|r| *r == Rec::NONE)
}

/// The EWMA state slabs, addressed by handle.
#[derive(Debug, Clone, Default)]
struct Slabs {
    /// `(video slot, chunk number)`: a record keeps its video's entry
    /// alive, so the slot stays its owner's.
    owners: Vec<(u32, u32)>,
    dt: Vec<f64>,
    t_last: Vec<Timestamp>,
    free: Vec<u32>,
}

impl Slabs {
    /// Takes a free slot (or grows the slabs) for a new record.
    fn alloc(&mut self, owner: (u32, u32), dt: f64, t_last: Timestamp) -> u32 {
        match self.free.pop() {
            Some(h) => {
                let i = h as usize;
                self.owners[i] = owner;
                self.dt[i] = dt;
                self.t_last[i] = t_last;
                h
            }
            None => {
                self.owners.push(owner);
                self.dt.push(dt);
                self.t_last.push(t_last);
                (self.owners.len() - 1) as u32
            }
        }
    }
}

/// Per-video chunk directory over struct-of-arrays EWMA inter-arrival
/// state.
#[derive(Debug, Clone)]
pub struct PopTable {
    dir: VideoDir<Rec, Timestamp>,
    slabs: Slabs,
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
            slabs: Slabs::default(),
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

    /// Number of tracked chunks (records with a handle).
    pub fn len(&self) -> usize {
        self.slabs.owners.len() - self.slabs.free.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The handle of `id`, if tracked.
    pub fn handle_of(&self, id: &ChunkId) -> Option<u32> {
        let h = self.dir[self.dir.slot(id.video)?].rec(id.index).h;
        (h != NO_HANDLE).then_some(h)
    }

    /// The directory slot of `video`, taken for an empty entry if it has
    /// none — for callers with no request in hand (a snapshot restore).
    pub fn slot(&mut self, video: VideoId) -> u32 {
        self.dir.insert(video)
    }

    /// Records a request for chunks `range` of `video` at `now`: one
    /// directory probe, then per chunk, in ascending order, the Eq. 8
    /// update and a call `visit(index, handle, backref, dt)` with the
    /// chunk's handle, its caller-owned back-reference ([`NO_HANDLE`]
    /// when not cached) and the post-update EWMA (negative while no
    /// interval has been observed — feed it to [`Self::iat_fresh`] /
    /// [`Self::key_fresh`] to avoid re-reading the slabs). Eq. 8: a first
    /// sighting stores the timestamp with no interval; later accesses
    /// update `dt ← γ·gap + (1 − γ)·dt` (the first observed interval
    /// seeds the average) — bit-for-bit the arithmetic of the old
    /// per-entry `IatState::update`.
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
        let slabs = &mut self.slabs;
        let run = &mut v.run_mut(range.end)[range.start as usize..];
        for (c, rec) in range.iter().zip(run) {
            let d = if rec.h == NO_HANDLE {
                rec.h = slabs.alloc((slot, c), NO_INTERVAL, now);
                NO_INTERVAL
            } else {
                let i = rec.h as usize;
                let gap = (now - slabs.t_last[i]).as_millis() as f64;
                let d = if slabs.dt[i] < 0.0 {
                    gap
                } else {
                    gamma * gap + (1.0 - gamma) * slabs.dt[i]
                };
                slabs.dt[i] = d;
                slabs.t_last[i] = now;
                d
            };
            visit(c, rec.h, rec.backref, d);
        }
        (slot, known)
    }

    /// Eq. 8 query for a record touched at `now` (so `t_last == now`),
    /// fed by the `dt` that [`Self::touch_run`] just handed out: the
    /// elapsed-gap term is zero and the IAT reduces to `(1 − γ)·dt`
    /// (clamped), with no slab reads. Bit-identical to
    /// `iat_at(h, now, γ)` because `γ·0 + x == x` exactly for the
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
    /// as its caller-owned back-reference (any value but [`NO_HANDLE`]).
    pub fn set_cached(&mut self, slot: u32, index: u32, backref: u32) {
        let v = &mut self.dir[slot];
        let was = std::mem::replace(&mut v.rec_mut(index).backref, backref);
        v.live += u32::from(was == NO_HANDLE);
    }

    /// The back-reference of `id` ([`NO_HANDLE`] when it is not cached).
    pub fn backref_of(&self, id: &ChunkId) -> u32 {
        let slot = self.dir.slot(id.video);
        slot.map_or(NO_HANDLE, |slot| self.dir[slot].rec(id.index).backref)
    }

    /// Marks `id` uncached and returns the back-reference it held
    /// ([`NO_HANDLE`] when it was not cached). What this exposes to the
    /// next sweep — the chunk's record, and the video once its last cached
    /// chunk goes — lowers the sweep floor.
    pub fn clear_cached(&mut self, id: ChunkId) -> u32 {
        let Some(slot) = self.dir.slot(id.video) else {
            return NO_HANDLE;
        };
        let v = &mut self.dir[slot];
        let rec = v.rec(id.index);
        if rec.backref == NO_HANDLE {
            return NO_HANDLE;
        }
        v.rec_mut(id.index).backref = NO_HANDLE;
        v.live -= 1;
        if rec.h != NO_HANDLE {
            self.stale_floor = self.stale_floor.min(self.slabs.t_last[rec.h as usize]);
        }
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
        let cached = v.run().iter().filter(|r| r.backref != NO_HANDLE);
        cached
            .take(v.live as usize)
            .filter_map(|r| self.iat_at(r.h, now, gamma))
            .reduce(f64::max)
    }

    /// Eq. 8 query for handle `h`:
    /// `IAT_x(t) = γ(t − t_x) + (1 − γ)·dt` (ms, clamped to
    /// [`MIN_IAT_MS`]), or `None` while the chunk has been seen only once
    /// — or when `h` is [`NO_HANDLE`].
    pub fn iat_at(&self, h: u32, now: Timestamp, gamma: f64) -> Option<f64> {
        if h == NO_HANDLE {
            return None;
        }
        let i = h as usize;
        let d = self.slabs.dt[i];
        if d < 0.0 {
            return None;
        }
        Some(
            (gamma * (now - self.slabs.t_last[i]).as_millis() as f64 + (1.0 - gamma) * d)
                .max(MIN_IAT_MS),
        )
    }

    /// The raw `(dt, t_last)` pair of handle `h` (snapshot export).
    pub fn raw(&self, h: u32) -> (Option<f64>, Timestamp) {
        let i = h as usize;
        let d = self.slabs.dt[i];
        (if d < 0.0 { None } else { Some(d) }, self.slabs.t_last[i])
    }

    /// Inserts a record with explicit raw state (snapshot restore),
    /// replacing any existing record for `id`. Returns the handle.
    /// Restored stamps are arbitrary, so the sweep floor drops to the
    /// epoch.
    ///
    /// # Panics
    ///
    /// Panics if `t_last` is `u64::MAX` ms (the free-slot sentinel).
    pub fn insert_raw(&mut self, id: ChunkId, dt: Option<f64>, t_last: Timestamp) -> u32 {
        assert!(
            t_last != FREE_STAMP,
            "t_last collides with the free-slot sentinel"
        );
        self.stale_floor = Timestamp::EPOCH;
        let d = dt.unwrap_or(NO_INTERVAL);
        let slot = self.dir.insert(id.video);
        let rec = self.dir[slot].rec_mut(id.index);
        let h = rec.h;
        if h != NO_HANDLE {
            self.slabs.dt[h as usize] = d;
            self.slabs.t_last[h as usize] = t_last;
            return h;
        }
        rec.h = self.slabs.alloc((slot, id.index), d, t_last);
        rec.h
    }

    /// Sets `video`'s last-seen time (snapshot restore); like
    /// [`Self::insert_raw`] it resets the sweep floor. `t` at `u64::MAX`
    /// ms (the free-slot sentinel) reads as "not seen".
    pub fn set_last_seen(&mut self, video: VideoId, t: Timestamp) {
        self.stale_floor = Timestamp::EPOCH;
        let slot = self.dir.insert(video);
        self.dir[slot].meta = t;
    }

    /// Drops every uncached record last touched before `cutoff` and the
    /// video-level record of every video without a cached chunk last seen
    /// before it, free-listing the dropped slots (survivors keep their
    /// handles). [`Self::sweeps`] counts the calls that walk the slabs.
    ///
    /// The walk is skipped when `cutoff <= stale_floor`, and skipping is
    /// exact: the floor is a lower bound on the stamp of every record and
    /// video the predicates above could drop. A stamp enters that set in
    /// three ways, each keeping the bound — written as `now` by
    /// [`Self::touch_run`] (which first lowers the floor to `now`), exposed
    /// by [`Self::clear_cached`] (which lowers it to the exposed stamps),
    /// or restored (which resets it to the epoch) — and a walk leaves
    /// nothing below `cutoff`, so it raises the floor to `cutoff`.
    ///
    /// The walk is sequential over the `t_last` slab (free slots carry a
    /// stamp above any cutoff); a stale record is reached through its
    /// owner's slot, with no probe.
    pub fn sweep(&mut self, cutoff: Timestamp) {
        if cutoff <= self.stale_floor {
            return;
        }
        let PopTable { dir, slabs, .. } = self;
        for (i, t) in slabs.t_last.iter_mut().enumerate() {
            if *t >= cutoff {
                continue;
            }
            let (slot, index) = slabs.owners[i];
            let rec = dir[slot].rec_mut(index);
            if rec.backref != NO_HANDLE {
                continue; // cached chunks keep their record
            }
            rec.h = NO_HANDLE;
            *t = FREE_STAMP;
            slabs.free.push(i as u32);
        }
        dir.retain(|v| {
            if v.live == 0 && v.meta < cutoff {
                v.meta = Timestamp::NONE;
            }
            !is_dead(v)
        });
        self.stale_floor = cutoff;
        self.sweeps += 1;
    }

    /// How many [`Self::sweep`] calls walked the slabs (for tests).
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Iterates `(id, handle)` over all tracked chunks in slab order.
    pub fn iter(&self) -> impl Iterator<Item = (ChunkId, u32)> + '_ {
        let slots = self.slabs.owners.iter().zip(&self.slabs.t_last).enumerate();
        let live = slots.filter(|(_, (_, t))| **t != FREE_STAMP);
        live.map(|(h, (&(slot, index), _))| (ChunkId::new(self.dir[slot].id(), index), h as u32))
    }

    /// `(video, last_seen)` for every video with a video-level record, in
    /// slot order.
    pub fn videos_seen(&self) -> impl Iterator<Item = (VideoId, Timestamp)> + '_ {
        let seen = self.dir.iter().filter(|(_, v)| v.meta != Timestamp::NONE);
        seen.map(|(_, v)| (v.id(), v.meta))
    }

    /// Checks the directory (tests): [`VideoDir::audit`], with `live`
    /// counting the records that carry a back-reference.
    ///
    /// # Panics
    ///
    /// Panics on the first violation.
    pub fn audit(&self) {
        self.dir.audit(|r| r.backref != NO_HANDLE);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(v: u64, c: u32) -> ChunkId {
        ChunkId::new(VideoId(v), c)
    }

    /// [`PopTable::sweep`] at `cutoff`; whether it walked the slabs.
    fn walked(p: &mut PopTable, cutoff: Timestamp) -> bool {
        let before = p.sweeps();
        p.sweep(cutoff);
        p.sweeps() > before
    }

    /// One-chunk [`PopTable::touch_run`]: `(handle, backref, dt)`.
    fn touch(p: &mut PopTable, id: ChunkId, now: u64, gamma: f64) -> (u32, u32, f64) {
        let mut out = None;
        let range = ChunkRange::new(id.index, id.index).unwrap();
        p.touch_run(id.video, range, Timestamp(now), gamma, |_, h, b, dt| {
            out = Some((h, b, dt));
        });
        out.unwrap()
    }

    /// [`PopTable::set_cached`] by chunk id.
    fn cache(p: &mut PopTable, id: ChunkId, backref: u32) {
        let slot = p.slot(id.video);
        p.set_cached(slot, id.index, backref);
    }

    #[test]
    fn ewma_update_matches_eq8() {
        let mut p = PopTable::new();
        let (h, _, _) = touch(&mut p, id(1, 0), 0, 0.25);
        assert_eq!(p.iat_at(h, Timestamp(10), 0.25), None);
        assert_eq!(touch(&mut p, id(1, 0), 100, 0.25).0, h);
        assert!((p.raw(h).0.unwrap() - 100.0).abs() < 1e-9);
        touch(&mut p, id(1, 0), 140, 0.25); // 0.25*40 + 0.75*100 = 85
        assert!((p.raw(h).0.unwrap() - 85.0).abs() < 1e-9);
        // IAT at t=200: 0.25*60 + 0.75*85 = 78.75.
        assert!((p.iat_at(h, Timestamp(200), 0.25).unwrap() - 78.75).abs() < 1e-9);
    }

    #[test]
    fn fallback_key_and_no_handle() {
        let mut p = PopTable::new();
        let (h, _, dt) = touch(&mut p, id(2, 1), 500, 0.25);
        assert_eq!(p.iat_at(h, Timestamp(500), 0.25), None);
        assert_eq!(p.iat_at(NO_HANDLE, Timestamp(500), 0.25), None);
        // No interval yet: the key falls back to t - fallback.
        assert!((PopTable::key_fresh(dt, Timestamp(500), 0.25, 30.0) - 470.0).abs() < 1e-9);
        // With one: t - (1 - γ)·dt, whatever the fallback.
        let (_, _, dt) = touch(&mut p, id(2, 1), 600, 0.25);
        assert!((PopTable::key_fresh(dt, Timestamp(600), 0.25, 30.0) - 525.0).abs() < 1e-9);
    }

    #[test]
    fn iat_clamps_at_floor() {
        let mut p = PopTable::new();
        let (h, _, _) = touch(&mut p, id(1, 0), 0, 0.25);
        touch(&mut p, id(1, 0), 1, 0.25); // dt = 1ms
        let iat = p.iat_at(h, Timestamp(1), 0.25).unwrap();
        assert!((iat - MIN_IAT_MS).abs() < 1e-12, "clamped to floor");
    }

    #[test]
    fn touch_run_visits_the_interval_in_order() {
        let mut p = PopTable::new();
        let mut seen = Vec::new();
        let range = ChunkRange::new(2, 5).unwrap();
        let (_, known) = p.touch_run(VideoId(9), range, Timestamp(10), 0.25, |c, h, b, dt| {
            seen.push((c, h, b, dt));
        });
        assert!(!known, "first request of the video");
        let want: Vec<_> = (2..=5).map(|c| (c, c - 2, NO_HANDLE, -1.0)).collect();
        assert_eq!(seen, want);
        assert_eq!(p.len(), 4);
        // Chunks 0 and 1 are gaps in the run: reachable, untracked.
        assert_eq!(p.handle_of(&id(9, 1)), None);
        assert_eq!(p.handle_of(&id(9, 3)), Some(1));
        assert_eq!(p.handle_of(&id(9, 6)), None);
        // An overlapping request reuses the handles and reports the video.
        cache(&mut p, id(9, 3), 77);
        seen.clear();
        let range = ChunkRange::new(3, 6).unwrap();
        let (_, known) = p.touch_run(VideoId(9), range, Timestamp(30), 0.25, |c, h, b, dt| {
            seen.push((c, h, b, dt));
        });
        assert!(known);
        assert_eq!(
            seen,
            vec![
                (3, 1, 77, 20.0),
                (4, 2, NO_HANDLE, 20.0),
                (5, 3, NO_HANDLE, 20.0),
                (6, 4, NO_HANDLE, -1.0)
            ]
        );
    }

    #[test]
    fn cached_counts_drive_known_and_the_estimate() {
        let mut p = PopTable::new();
        // Cached with no record and no video-level entry (a restore can
        // produce this): the video is known through its cached chunk.
        cache(&mut p, id(4, 2), 0);
        let v4 = p.slot(VideoId(4));
        assert_eq!(p.max_cached_iat(v4, Timestamp(50), 0.25), None);
        let (h, b, _) = touch(&mut p, id(4, 2), 100, 0.25);
        assert_eq!(b, 0, "back-reference survives the first touch");
        touch(&mut p, id(4, 2), 200, 0.25); // dt = 100
        touch(&mut p, id(4, 7), 200, 0.25);
        touch(&mut p, id(4, 7), 210, 0.25); // hotter, but not cached
        let want = p.iat_at(h, Timestamp(300), 0.25);
        assert_eq!(p.max_cached_iat(v4, Timestamp(300), 0.25), want);
        assert_eq!(p.backref_of(&id(4, 2)), 0);
        assert_eq!(p.clear_cached(id(4, 2)), 0);
        assert_eq!(p.max_cached_iat(v4, Timestamp(300), 0.25), None);
        assert_eq!(p.clear_cached(id(4, 2)), NO_HANDLE, "idempotent");
        assert_eq!(p.backref_of(&id(4, 2)), NO_HANDLE);
        // A video that is neither seen, cached nor tracked leaves no entry.
        cache(&mut p, id(5, 0), 1);
        assert_eq!(p.clear_cached(id(5, 0)), 1);
        assert_eq!(p.clear_cached(id(5, 0)), NO_HANDLE);
        assert_eq!(p.backref_of(&id(5, 0)), NO_HANDLE, "no such video");
        assert_eq!(p.videos_seen().count(), 1);
    }

    #[test]
    fn retain_freelists_and_reuses_slots() {
        let mut p = PopTable::new();
        let (ha, _, _) = touch(&mut p, id(1, 0), 10, 0.25);
        let (hb, _, _) = touch(&mut p, id(2, 0), 20, 0.25);
        touch(&mut p, id(3, 0), 30, 0.25);
        assert!(walked(&mut p, Timestamp(25)));
        assert_eq!(p.len(), 1);
        assert_eq!(p.handle_of(&id(1, 0)), None);
        assert_eq!(p.handle_of(&id(2, 0)), None);
        assert_eq!(
            p.videos_seen().collect::<Vec<_>>(),
            [(VideoId(3), Timestamp(30))]
        );
        // New entries reuse the freed slots; survivors keep their handle.
        let (hd, _, _) = touch(&mut p, id(4, 0), 40, 0.25);
        let (he, _, _) = touch(&mut p, id(5, 0), 50, 0.25);
        let mut reused = vec![hd, he];
        reused.sort_unstable();
        let mut freed = vec![ha, hb];
        freed.sort_unstable();
        assert_eq!(reused, freed);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn repeated_retain_skips_freed_slots() {
        let mut p = PopTable::new();
        let (ha, _, _) = touch(&mut p, id(1, 0), 10, 0.25);
        let (hb, _, _) = touch(&mut p, id(2, 0), 20, 0.25);
        assert!(walked(&mut p, Timestamp(15))); // drops slot `ha`
        assert!(walked(&mut p, Timestamp(16))); // must not revisit the freed slot
        assert_eq!(p.len(), 1);
        assert!(walked(&mut p, Timestamp(1_000))); // drops slot `hb`, skips the free one
        assert_eq!(p.len(), 0);
        assert_eq!(p.iter().count(), 0);
        // Both slots come back exactly once each.
        let (hc, _, _) = touch(&mut p, id(3, 0), 30, 0.25);
        let (hd, _, _) = touch(&mut p, id(4, 0), 40, 0.25);
        let mut reused = vec![hc, hd];
        reused.sort_unstable();
        assert_eq!(reused, vec![ha.min(hb), ha.max(hb)]);
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
        assert_eq!(p.handle_of(&id(8, 0)), None);
        // Time running backwards lowers the floor with it.
        touch(&mut p, id(9, 0), 2, 0.25);
        assert!(walked(&mut p, Timestamp(3)));
        assert_eq!(p.handle_of(&id(9, 0)), None);
        assert_eq!(p.sweeps(), 4);
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
    }

    #[test]
    fn insert_raw_round_trips() {
        let mut p = PopTable::new();
        let h = p.insert_raw(id(7, 3), Some(123.5), Timestamp(999));
        assert_eq!(p.raw(h), (Some(123.5), Timestamp(999)));
        let h2 = p.insert_raw(id(7, 3), None, Timestamp(1_000));
        assert_eq!(h, h2, "re-insert replaces in place");
        assert_eq!(p.raw(h), (None, Timestamp(1_000)));
        assert_eq!(p.len(), 1);
        // A chunk record alone does not make the video seen.
        assert_eq!(p.videos_seen().count(), 0);
        p.set_last_seen(VideoId(7), Timestamp(5));
        assert_eq!(
            p.videos_seen().collect::<Vec<_>>(),
            [(VideoId(7), Timestamp(5))]
        );
    }

    #[test]
    #[should_panic(expected = "free-slot sentinel")]
    fn insert_raw_refuses_the_free_stamp() {
        PopTable::new().insert_raw(id(1, 0), None, Timestamp(u64::MAX));
    }

    #[test]
    fn iter_visits_every_entry() {
        let mut p = PopTable::new();
        for v in 0..10 {
            touch(&mut p, id(v, 0), v, 0.25);
        }
        let mut seen: Vec<ChunkId> = p.iter().map(|(c, _)| c).collect();
        seen.sort_unstable();
        let want: Vec<ChunkId> = (0..10).map(|v| id(v, 0)).collect();
        assert_eq!(seen, want);
    }
}
