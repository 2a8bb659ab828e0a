//! Cafe's struct-of-arrays popularity table (paper §6, Eq. 8).
//!
//! Replaces the `FastMap<ChunkId, IatState>` layout: the hash map now
//! maps `ChunkId → handle` only, and the EWMA state lives in parallel
//! slabs (`Vec<f64>` inter-arrival averages, `Vec<Timestamp>` last-seen
//! stamps) indexed by that compact handle. The Eq. 6/7 batch cost
//! evaluation walks the requested / missing / eviction-candidate sets by
//! handle — contiguous slab loads instead of a hash probe per chunk.
//!
//! Handles are **stable** (slots are free-listed, never compacted): the
//! disk/hot rank indexes cache the handle as their `aux` payload for the
//! lifetime of an entry. Handle *values* are an allocation artifact
//! (free-list reuse order) and must never influence ordering or output —
//! every ordered export sorts by `(key, ChunkId)` or by `ChunkId`,
//! exactly as the hash-map layout did.

use vcdn_types::{ChunkId, FastMap, Timestamp};

/// Minimum inter-arrival time (ms) used in divisions (shared with the
/// Eq. 6/7 cost terms in `cafe.rs`).
pub const MIN_IAT_MS: f64 = 1.0;

/// Sentinel handle meaning "no popularity record" (e.g. a disk entry
/// restored from a snapshot whose popularity state was swept).
pub const NO_HANDLE: u32 = u32::MAX;

/// Slab sentinel for "no interval observed yet" (`IatState.dt = None` in
/// the old layout): real EWMA values are gaps in milliseconds, ≥ 0.
const NO_INTERVAL: f64 = -1.0;

/// `t_last` sentinel marking a free-listed slot, letting [`PopTable::retain`]
/// sweep the slabs sequentially without consulting the hash map. Real
/// stamps are trace times, far below `u64::MAX` ms.
const FREE_STAMP: Timestamp = Timestamp(u64::MAX);

/// Map record: the slab handle plus the caller-owned back-reference
/// ([`NO_HANDLE`] = unset). Cafe stores the chunk's disk rank-index slab
/// slot in `backref`, so the one [`PopTable::touch`] probe answers "is
/// this chunk cached, and where" with no further lookups — the pair rides
/// in the map value precisely so no extra cache line is touched.
#[derive(Debug, Clone, Copy)]
struct Rec {
    h: u32,
    backref: u32,
}

/// Per-chunk EWMA inter-arrival popularity state in SoA layout.
#[derive(Debug, Clone, Default)]
pub struct PopTable {
    map: FastMap<ChunkId, Rec>,
    ids: Vec<ChunkId>,
    dt: Vec<f64>,
    t_last: Vec<Timestamp>,
    free: Vec<u32>,
}

impl PopTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        PopTable::default()
    }

    /// Number of tracked chunks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    // lint: hot
    /// The handle of `id`, if tracked.
    pub fn handle_of(&self, id: &ChunkId) -> Option<u32> {
        self.map.get(id).map(|r| r.h)
    }

    // lint: hot
    /// Records an access to `id` at `now` and returns
    /// `(handle, backref, dt)`: the handle, the caller-owned
    /// back-reference ([`NO_HANDLE`] when unset), and the post-update
    /// EWMA (negative while no interval has been observed — feed it to
    /// [`Self::iat_fresh`]/[`Self::key_fresh`] to avoid re-reading the
    /// slabs). Eq. 8: a first sighting stores the timestamp with no
    /// interval; later accesses update `dt ← γ·gap + (1 − γ)·dt` (the
    /// first observed interval seeds the average) — bit-for-bit the
    /// arithmetic of the old per-entry `IatState::update`.
    pub fn touch(&mut self, id: ChunkId, now: Timestamp, gamma: f64) -> (u32, u32, f64) {
        let PopTable {
            map,
            ids,
            dt,
            t_last,
            free,
        } = self;
        match map.entry(id) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let rec = *e.get();
                let i = rec.h as usize;
                let gap = (now - t_last[i]).as_millis() as f64;
                let d = if dt[i] < 0.0 {
                    gap
                } else {
                    gamma * gap + (1.0 - gamma) * dt[i]
                };
                dt[i] = d;
                t_last[i] = now;
                (rec.h, rec.backref, d)
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                let h = match free.pop() {
                    Some(h) => {
                        let i = h as usize;
                        ids[i] = id;
                        dt[i] = NO_INTERVAL;
                        t_last[i] = now;
                        h
                    }
                    None => {
                        ids.push(id);
                        dt.push(NO_INTERVAL);
                        t_last.push(now);
                        (ids.len() - 1) as u32
                    }
                };
                e.insert(Rec {
                    h,
                    backref: NO_HANDLE,
                });
                (h, NO_HANDLE, NO_INTERVAL)
            }
        }
    }

    // lint: hot
    /// Eq. 8 query for a record touched at `now` (so `t_last == now`),
    /// fed by the `dt` that [`Self::touch`] just returned: the elapsed-gap
    /// term is zero and the IAT reduces to `(1 − γ)·dt` (clamped), with
    /// no slab reads. Bit-identical to `iat_at(h, now, γ)` because
    /// `γ·0 + x == x` exactly for the non-negative finite `dt` values.
    pub fn iat_fresh(dt: f64, gamma: f64) -> Option<f64> {
        if dt < 0.0 {
            return None;
        }
        Some(((1.0 - gamma) * dt).max(MIN_IAT_MS))
    }

    // lint: hot
    /// [`Self::key_at`] for a record touched at `now` — see
    /// [`Self::iat_fresh`].
    pub fn key_fresh(dt: f64, now: Timestamp, gamma: f64, fallback_iat: f64) -> f64 {
        let iat = PopTable::iat_fresh(dt, gamma).unwrap_or(fallback_iat);
        now.as_millis() as f64 - iat
    }

    // lint: hot
    /// Sets the caller-owned back-reference of tracked chunk `id` (use
    /// [`NO_HANDLE`] to clear); a no-op for untracked chunks.
    pub fn set_backref(&mut self, id: &ChunkId, backref: u32) {
        if let Some(rec) = self.map.get_mut(id) {
            rec.backref = backref;
        }
    }

    // lint: hot
    /// Clears the back-reference of `id` and returns its handle, or
    /// `None` if untracked — `remove_chunk`'s one-probe combination of
    /// [`Self::handle_of`] + [`Self::set_backref`].
    pub fn clear_backref(&mut self, id: &ChunkId) -> Option<u32> {
        let rec = self.map.get_mut(id)?;
        rec.backref = NO_HANDLE;
        Some(rec.h)
    }

    // lint: hot
    /// Eq. 8 query for handle `h`:
    /// `IAT_x(t) = γ(t − t_x) + (1 − γ)·dt` (ms, clamped to
    /// [`MIN_IAT_MS`]), or `None` while the chunk has been seen only once
    /// — or when `h` is [`NO_HANDLE`].
    pub fn iat_at(&self, h: u32, now: Timestamp, gamma: f64) -> Option<f64> {
        if h == NO_HANDLE {
            return None;
        }
        let i = h as usize;
        let d = self.dt[i];
        if d < 0.0 {
            return None;
        }
        Some(
            (gamma * (now - self.t_last[i]).as_millis() as f64 + (1.0 - gamma) * d).max(MIN_IAT_MS),
        )
    }

    // lint: hot
    /// Eq. 9: the virtual-timestamp insertion key
    /// `key_x(t) = t − IAT_x(t)`, falling back to `t − fallback_iat` when
    /// no interval has been observed yet.
    pub fn key_at(&self, h: u32, now: Timestamp, gamma: f64, fallback_iat: f64) -> f64 {
        let iat = self.iat_at(h, now, gamma).unwrap_or(fallback_iat);
        now.as_millis() as f64 - iat
    }

    // lint: hot
    /// Rank key for the uncached-chunk mirror: by the Theorem 1 algebra
    /// `((1 − γ)/γ)·dt_x − t_x` is a per-chunk constant whose ascending
    /// order equals ascending-IAT order at any common evaluation time.
    /// `None` until an interval is known.
    pub fn hot_rank(&self, h: u32, gamma: f64) -> Option<f64> {
        let i = h as usize;
        let d = self.dt[i];
        if d < 0.0 {
            return None;
        }
        Some((1.0 - gamma) / gamma * d - self.t_last[i].as_millis() as f64)
    }

    /// The raw `(dt, t_last)` pair of handle `h` (snapshot export).
    pub fn raw(&self, h: u32) -> (Option<f64>, Timestamp) {
        let i = h as usize;
        let d = self.dt[i];
        (if d < 0.0 { None } else { Some(d) }, self.t_last[i])
    }

    /// Inserts a record with explicit raw state (snapshot restore),
    /// replacing any existing record for `id`. Returns the handle.
    pub fn insert_raw(&mut self, id: ChunkId, dt: Option<f64>, t_last: Timestamp) -> u32 {
        debug_assert!(
            t_last != FREE_STAMP,
            "t_last collides with the free-slot sentinel"
        );
        let d = dt.unwrap_or(NO_INTERVAL);
        if let Some(rec) = self.map.get(&id) {
            let i = rec.h as usize;
            self.dt[i] = d;
            self.t_last[i] = t_last;
            return rec.h;
        }
        let h = match self.free.pop() {
            Some(h) => {
                let i = h as usize;
                self.ids[i] = id;
                self.dt[i] = d;
                self.t_last[i] = t_last;
                h
            }
            None => {
                self.ids.push(id);
                self.dt.push(d);
                self.t_last.push(t_last);
                (self.ids.len() - 1) as u32
            }
        };
        self.map.insert(
            id,
            Rec {
                h,
                backref: NO_HANDLE,
            },
        );
        h
    }

    /// Keeps only records for which `keep(id, t_last)` holds, free-listing
    /// the dropped slots (handles of survivors are untouched).
    ///
    /// Sweeps the `t_last` slab sequentially instead of iterating the hash
    /// map: the periodic cleanup visits every tracked chunk, and a linear
    /// pass over contiguous stamps is the cache-friendly way to do that —
    /// the map is only probed for the (few) entries actually dropped.
    /// Free-listed slots carry a `FREE_STAMP` stamp and are skipped.
    pub fn retain(&mut self, mut keep: impl FnMut(&ChunkId, Timestamp) -> bool) {
        let PopTable {
            map,
            ids,
            t_last,
            free,
            ..
        } = self;
        for (i, t) in t_last.iter_mut().enumerate() {
            if *t == FREE_STAMP || keep(&ids[i], *t) {
                continue;
            }
            map.remove(&ids[i]);
            *t = FREE_STAMP;
            free.push(i as u32);
        }
    }

    /// Iterates `(id, handle)` over all tracked chunks in hasher-dependent
    /// order — callers must sort before any ordered use.
    pub fn iter(&self) -> impl Iterator<Item = (ChunkId, u32)> + '_ {
        self.map.iter().map(|(id, rec)| (*id, rec.h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcdn_types::VideoId;

    fn id(v: u64, c: u32) -> ChunkId {
        ChunkId::new(VideoId(v), c)
    }

    #[test]
    fn ewma_update_matches_eq8() {
        let mut p = PopTable::new();
        let (h, _, _) = p.touch(id(1, 0), Timestamp(0), 0.25);
        assert_eq!(p.iat_at(h, Timestamp(10), 0.25), None);
        assert_eq!(p.touch(id(1, 0), Timestamp(100), 0.25).0, h);
        assert!((p.raw(h).0.unwrap() - 100.0).abs() < 1e-9);
        p.touch(id(1, 0), Timestamp(140), 0.25); // 0.25*40 + 0.75*100 = 85
        assert!((p.raw(h).0.unwrap() - 85.0).abs() < 1e-9);
        // IAT at t=200: 0.25*60 + 0.75*85 = 78.75.
        assert!((p.iat_at(h, Timestamp(200), 0.25).unwrap() - 78.75).abs() < 1e-9);
        // key_at = t - IAT; fallback applies only with no interval.
        assert!((p.key_at(h, Timestamp(200), 0.25, 7.0) - (200.0 - 78.75)).abs() < 1e-9);
    }

    #[test]
    fn fallback_key_and_no_handle() {
        let mut p = PopTable::new();
        let (h, _, _) = p.touch(id(2, 1), Timestamp(500), 0.25);
        assert!((p.key_at(h, Timestamp(500), 0.25, 30.0) - 470.0).abs() < 1e-9);
        assert_eq!(p.iat_at(NO_HANDLE, Timestamp(500), 0.25), None);
        assert!((p.key_at(NO_HANDLE, Timestamp(500), 0.25, 30.0) - 470.0).abs() < 1e-9);
    }

    #[test]
    fn iat_clamps_at_floor() {
        let mut p = PopTable::new();
        let (h, _, _) = p.touch(id(1, 0), Timestamp(0), 0.25);
        p.touch(id(1, 0), Timestamp(1), 0.25); // dt = 1ms
        let iat = p.iat_at(h, Timestamp(1), 0.25).unwrap();
        assert!((iat - MIN_IAT_MS).abs() < 1e-12, "clamped to floor");
    }

    #[test]
    fn hot_rank_matches_formula() {
        let mut p = PopTable::new();
        let (h, _, _) = p.touch(id(3, 0), Timestamp(100), 0.25);
        assert_eq!(p.hot_rank(h, 0.25), None);
        p.touch(id(3, 0), Timestamp(300), 0.25); // dt = 200
        let want = (1.0 - 0.25) / 0.25 * 200.0 - 300.0;
        assert!((p.hot_rank(h, 0.25).unwrap() - want).abs() < 1e-9);
    }

    #[test]
    fn retain_freelists_and_reuses_slots() {
        let mut p = PopTable::new();
        let (ha, _, _) = p.touch(id(1, 0), Timestamp(10), 0.25);
        let (hb, _, _) = p.touch(id(2, 0), Timestamp(20), 0.25);
        p.touch(id(3, 0), Timestamp(30), 0.25);
        p.retain(|_, t| t.as_millis() >= 25);
        assert_eq!(p.len(), 1);
        assert_eq!(p.handle_of(&id(1, 0)), None);
        assert_eq!(p.handle_of(&id(2, 0)), None);
        // New entries reuse the freed slots; survivors keep their handle.
        let (hd, _, _) = p.touch(id(4, 0), Timestamp(40), 0.25);
        let (he, _, _) = p.touch(id(5, 0), Timestamp(50), 0.25);
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
        let (ha, _, _) = p.touch(id(1, 0), Timestamp(10), 0.25);
        let (hb, _, _) = p.touch(id(2, 0), Timestamp(20), 0.25);
        p.retain(|_, t| t != Timestamp(10)); // drops slot `ha`
        p.retain(|_, _| true); // must not revisit the freed slot
        assert_eq!(p.len(), 1);
        p.retain(|_, _| false); // drops slot `hb`, skips the free one
        assert_eq!(p.len(), 0);
        // Both slots come back exactly once each.
        let (hc, _, _) = p.touch(id(3, 0), Timestamp(30), 0.25);
        let (hd, _, _) = p.touch(id(4, 0), Timestamp(40), 0.25);
        let mut reused = vec![hc, hd];
        reused.sort_unstable();
        assert_eq!(reused, vec![ha.min(hb), ha.max(hb)]);
        assert_eq!(p.len(), 2);
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
    }

    #[test]
    fn iter_visits_every_entry() {
        let mut p = PopTable::new();
        for v in 0..10 {
            p.touch(id(v, 0), Timestamp(v), 0.25);
        }
        let mut seen: Vec<ChunkId> = p.iter().map(|(c, _)| c).collect();
        seen.sort_unstable();
        let want: Vec<ChunkId> = (0..10).map(|v| id(v, 0)).collect();
        assert_eq!(seen, want);
    }
}
