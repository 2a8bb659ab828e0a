//! Warm-restart snapshots for the online caches.
//!
//! A production cache server restarts for upgrades without losing a
//! terabyte of hot disk state; what it must persist is the *index* — which
//! chunks are on disk and the popularity bookkeeping that admission
//! decisions need. These snapshot types capture exactly that state for
//! [`XlruCache`] and [`CafeCache`] in a JSON-friendly shape, with the
//! invariant that a restored cache makes byte-for-byte identical decisions
//! from that point on.
//!
//! ```
//! use vcdn_core::{CachePolicy, CafeCache, CafeConfig};
//! use vcdn_types::{ByteRange, ChunkSize, CostModel, Request, Timestamp, VideoId};
//!
//! let k = ChunkSize::new(100).unwrap();
//! let mut cache = CafeCache::new(CafeConfig::new(8, k, CostModel::balanced()));
//! cache.handle_request(&Request::new(
//!     VideoId(1), ByteRange::new(0, 99).unwrap(), Timestamp(1),
//! ));
//! let snap = cache.snapshot();
//! let restored = CafeCache::restore(&snap).unwrap();
//! assert_eq!(restored.disk_used_chunks(), cache.disk_used_chunks());
//! ```

use vcdn_types::{impl_json_struct, ChunkId, ChunkSize, CostModel, Timestamp, VideoId};

use crate::{
    cafe::{CafeCache, CafeConfig, WindowPolicy},
    ds::{pop_table::FREE_STAMP, MAX_CHUNK_INDEX},
    policy::CacheConfig,
    xlru::XlruCache,
};

/// Serialisable form of a [`CacheConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfigSnapshot {
    /// Disk capacity in chunks.
    pub disk_chunks: u64,
    /// Chunk size in bytes.
    pub chunk_bytes: u64,
    /// `α_F2R`.
    pub alpha: f64,
}

impl_json_struct!(CacheConfigSnapshot {
    disk_chunks,
    chunk_bytes,
    alpha,
});

impl CacheConfigSnapshot {
    pub(crate) fn capture(c: &CacheConfig) -> Self {
        CacheConfigSnapshot {
            disk_chunks: c.disk_chunks,
            chunk_bytes: c.chunk_size.bytes(),
            alpha: c.costs.alpha(),
        }
    }

    pub(crate) fn rebuild(&self) -> Result<CacheConfig, SnapshotError> {
        let chunk_size =
            ChunkSize::new(self.chunk_bytes).map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        let costs =
            CostModel::from_alpha(self.alpha).map_err(|e| SnapshotError::Invalid(e.to_string()))?;
        if self.disk_chunks == 0 {
            return Err(SnapshotError::Invalid("zero disk".into()));
        }
        Ok(CacheConfig::new(self.disk_chunks, chunk_size, costs))
    }
}

/// Errors restoring a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// A configuration field is invalid.
    Invalid(String),
    /// Snapshot internal state is inconsistent (e.g. more chunks than
    /// capacity, unordered recency lists).
    Inconsistent(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Invalid(s) => write!(f, "invalid snapshot config: {s}"),
            SnapshotError::Inconsistent(s) => write!(f, "inconsistent snapshot: {s}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Full persisted state of an [`XlruCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct XlruSnapshot {
    /// Configuration.
    pub config: CacheConfigSnapshot,
    /// Disk chunks oldest-first with last access times.
    pub disk: Vec<(ChunkId, Timestamp)>,
    /// Popularity tracker entries oldest-first.
    pub tracker: Vec<(VideoId, Timestamp)>,
    /// Requests handled so far (drives cleanup cadence).
    pub handled: u64,
}

impl_json_struct!(XlruSnapshot {
    config,
    disk,
    tracker,
    handled,
});

/// Full persisted state of a [`CafeCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct CafeSnapshot {
    /// Configuration.
    pub config: CacheConfigSnapshot,
    /// EWMA γ.
    pub gamma: f64,
    /// Fixed look-ahead window in ms, or `None` for cache-age.
    pub fixed_window_ms: Option<u64>,
    /// Unseen-chunk estimate toggle.
    pub unseen_chunk_estimate: bool,
    /// Popularity state: `(chunk, dt_ms, t_last)`; `dt_ms = None` until a
    /// second access.
    pub iat: Vec<(ChunkId, Option<f64>, Timestamp)>,
    /// Video-level last-seen times.
    pub video_seen: Vec<(VideoId, Timestamp)>,
    /// Cached chunks with their virtual-timestamp keys.
    pub disk: Vec<(ChunkId, f64)>,
    /// Requests handled so far.
    pub handled: u64,
    /// Replay start time, if any requests were seen.
    pub replay_start: Option<Timestamp>,
}

impl_json_struct!(CafeSnapshot {
    config,
    gamma,
    fixed_window_ms,
    unseen_chunk_estimate,
    iat,
    video_seen,
    disk,
    handled,
    replay_start,
});

impl CafeSnapshot {
    /// Rebuilds the [`CafeConfig`] embedded in the snapshot.
    pub fn rebuild_config(&self) -> Result<CafeConfig, SnapshotError> {
        if !(self.gamma > 0.0 && self.gamma <= 1.0) {
            return Err(SnapshotError::Invalid(format!("gamma {}", self.gamma)));
        }
        let window = match self.fixed_window_ms {
            Some(ms) => WindowPolicy::Fixed(vcdn_types::DurationMs(ms)),
            None => WindowPolicy::CacheAge,
        };
        Ok(CafeConfig {
            cache: self.config.rebuild()?,
            gamma: self.gamma,
            window,
            unseen_chunk_estimate: self.unseen_chunk_estimate,
        })
    }
}

fn inconsistent<T>(what: String) -> Result<T, SnapshotError> {
    Err(SnapshotError::Inconsistent(what))
}

/// A key that occurs more than once in `keys`, if any.
fn duplicate<K: Ord + Copy>(keys: impl Iterator<Item = K>) -> Option<K> {
    let mut sorted: Vec<K> = keys.collect();
    sorted.sort_unstable();
    sorted.windows(2).find_map(|w| match w {
        [a, b] if a == b => Some(*a),
        _ => None,
    })
}

impl XlruCache {
    /// Captures the cache's full state.
    pub fn snapshot(&self) -> XlruSnapshot {
        XlruSnapshot {
            config: CacheConfigSnapshot::capture(self.config_ref()),
            disk: self.disk_oldest_first(),
            tracker: self.tracker_oldest_first(),
            handled: self.handled_count(),
        }
    }

    /// Rebuilds a cache from a snapshot; subsequent decisions are
    /// identical to the original's.
    pub fn restore(snap: &XlruSnapshot) -> Result<XlruCache, SnapshotError> {
        let config = snap.config.rebuild()?;
        if snap.disk.len() as u64 > config.disk_chunks {
            return Err(SnapshotError::Inconsistent(format!(
                "{} chunks exceed capacity {}",
                snap.disk.len(),
                config.disk_chunks
            )));
        }
        if !snap.disk.is_sorted_by_key(|e| e.1) {
            return Err(SnapshotError::Inconsistent(
                "disk entries not oldest-first".into(),
            ));
        }
        if !snap.tracker.is_sorted_by_key(|e| e.1) {
            return Err(SnapshotError::Inconsistent(
                "tracker entries not oldest-first".into(),
            ));
        }
        // What the per-video chunk directory cannot represent (and a hash
        // map would silently fold into a move-to-head): two entries for
        // one key, a chunk index past the dense run's bound.
        if let Some((id, _)) = snap.disk.iter().find(|e| e.0.index >= MAX_CHUNK_INDEX) {
            return inconsistent(format!("{id}: chunk index beyond {MAX_CHUNK_INDEX}"));
        }
        if let Some(id) = duplicate(snap.disk.iter().map(|e| e.0)) {
            return inconsistent(format!("{id}: two disk entries"));
        }
        if let Some(v) = duplicate(snap.tracker.iter().map(|e| e.0)) {
            return inconsistent(format!("{v}: two tracker entries"));
        }
        Ok(XlruCache::from_parts(
            config,
            &snap.disk,
            &snap.tracker,
            snap.handled,
        ))
    }
}

impl CafeCache {
    /// Captures the cache's full state.
    pub fn snapshot(&self) -> CafeSnapshot {
        let cfg = self.config();
        CafeSnapshot {
            config: CacheConfigSnapshot::capture(&cfg.cache),
            gamma: cfg.gamma,
            fixed_window_ms: match cfg.window {
                WindowPolicy::CacheAge => None,
                WindowPolicy::Fixed(d) => Some(d.as_millis()),
            },
            unseen_chunk_estimate: cfg.unseen_chunk_estimate,
            iat: self.iat_entries(),
            video_seen: self.video_seen_entries(),
            disk: self.disk_entries(),
            handled: self.handled_count(),
            replay_start: self.replay_start_time(),
        }
    }

    /// Rebuilds a cache from a snapshot; subsequent decisions are
    /// identical to the original's.
    pub fn restore(snap: &CafeSnapshot) -> Result<CafeCache, SnapshotError> {
        let config = snap.rebuild_config()?;
        if snap.disk.len() as u64 > config.cache.disk_chunks {
            return Err(SnapshotError::Inconsistent(format!(
                "{} chunks exceed capacity {}",
                snap.disk.len(),
                config.cache.disk_chunks
            )));
        }
        if snap.disk.iter().any(|(_, key)| key.is_nan()) {
            return Err(SnapshotError::Inconsistent("NaN disk key".into()));
        }
        // What the per-video chunk directory cannot represent: a stamp
        // that reads as a free slot, an EWMA that reads as "no interval
        // yet" (or poisons every later average), a chunk index past the
        // dense run's bound, two entries for one key.
        if let Some((v, t)) = snap.video_seen.iter().find(|e| e.1 == FREE_STAMP) {
            return inconsistent(format!("{v}: last-seen time {t} is reserved"));
        }
        for &(id, dt, t_last) in &snap.iat {
            if t_last == FREE_STAMP {
                return inconsistent(format!("{id}: last-seen time {t_last} is reserved"));
            }
            if dt.is_some_and(|dt| dt.is_nan() || dt < 0.0) {
                return inconsistent(format!("{id}: inter-arrival average {dt:?}"));
            }
        }
        let chunks = || {
            snap.iat
                .iter()
                .map(|e| e.0)
                .chain(snap.disk.iter().map(|e| e.0))
        };
        if let Some(id) = chunks().find(|id| id.index >= MAX_CHUNK_INDEX) {
            return inconsistent(format!("{id}: chunk index beyond {MAX_CHUNK_INDEX}"));
        }
        if let Some(id) = duplicate(snap.iat.iter().map(|e| e.0)) {
            return inconsistent(format!("{id}: two popularity entries"));
        }
        if let Some(id) = duplicate(snap.disk.iter().map(|e| e.0)) {
            return inconsistent(format!("{id}: two disk entries"));
        }
        if let Some(v) = duplicate(snap.video_seen.iter().map(|e| e.0)) {
            return inconsistent(format!("{v}: two video entries"));
        }
        Ok(CafeCache::from_parts(
            config,
            &snap.iat,
            &snap.video_seen,
            &snap.disk,
            snap.handled,
            snap.replay_start,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::CachePolicy;
    use vcdn_types::{ByteRange, Request};

    fn req(video: u64, start: u64, end: u64, t: u64) -> Request {
        Request::new(
            VideoId(video),
            ByteRange::new(start, end).unwrap(),
            Timestamp(t),
        )
    }

    fn k100() -> ChunkSize {
        ChunkSize::new(100).unwrap()
    }

    /// A workload prefix + continuation used by the equivalence tests.
    fn workload() -> (Vec<Request>, Vec<Request>) {
        let mut prefix = Vec::new();
        let mut t = 1;
        for round in 0..30u64 {
            for v in 0..6 {
                if (round + v) % 4 != 0 {
                    prefix.push(req(v, 0, 299, t));
                    t += 13 + (v * round) % 9;
                }
            }
        }
        let mut cont = Vec::new();
        for round in 0..20u64 {
            for v in 0..8 {
                cont.push(req(v, 100, 499, t));
                t += 7 + (v + round) % 5;
            }
        }
        (prefix, cont)
    }

    #[test]
    fn xlru_restore_is_decision_equivalent() {
        let (prefix, cont) = workload();
        let cfg = CacheConfig::new(8, k100(), CostModel::from_alpha(2.0).unwrap());
        let mut original = XlruCache::new(cfg);
        for r in &prefix {
            original.handle_request(r);
        }
        let snap = original.snapshot();
        let mut restored = XlruCache::restore(&snap).expect("restores");
        assert_eq!(restored.disk_used_chunks(), original.disk_used_chunks());
        for r in &cont {
            assert_eq!(
                original.handle_request(r),
                restored.handle_request(r),
                "decision diverged at {r}"
            );
        }
    }

    #[test]
    fn cafe_restore_is_decision_equivalent() {
        let (prefix, cont) = workload();
        let config = CafeConfig::new(8, k100(), CostModel::from_alpha(2.0).unwrap());
        let mut original = CafeCache::new(config);
        for r in &prefix {
            original.handle_request(r);
        }
        let snap = original.snapshot();
        let mut restored = CafeCache::restore(&snap).expect("restores");
        assert_eq!(restored.disk_used_chunks(), original.disk_used_chunks());
        for r in &cont {
            assert_eq!(
                original.handle_request(r),
                restored.handle_request(r),
                "decision diverged at {r}"
            );
        }
    }

    #[test]
    fn cafe_round_trip_keeps_every_kind_of_chunk() {
        let c = |v: u64, i: u32| ChunkId::new(VideoId(v), i);
        let mut snap = CafeCache::new(CafeConfig::new(8, k100(), CostModel::balanced())).snapshot();
        // v1#0 cached with an average, v1#1 cached and seen once, v1#2
        // cached with no record (swept before the snapshot), v2#0 tracked
        // and not cached, v2#1 seen once and not cached, v3 seen with no
        // chunk record left.
        snap.iat = vec![
            (c(1, 0), Some(40.0), Timestamp(900)),
            (c(1, 1), None, Timestamp(950)),
            (c(2, 0), Some(15.5), Timestamp(990)),
            (c(2, 1), None, Timestamp(700)),
        ];
        snap.video_seen = vec![
            (VideoId(1), Timestamp(950)),
            (VideoId(2), Timestamp(990)),
            (VideoId(3), Timestamp(400)),
        ];
        snap.disk = vec![(c(1, 2), 100.0), (c(1, 1), 850.0), (c(1, 0), 870.0)];
        snap.handled = 77;
        snap.replay_start = Some(Timestamp(1));
        let mut original = CafeCache::restore(&snap).expect("restores");
        original.audit();
        assert_eq!(original.snapshot(), snap);
        // The restored cache moves averages between records and entries
        // as it serves; every snapshot along the way round-trips, and the
        // copy decides as the original does.
        let requests = [
            req(1, 0, 299, 1_000),
            req(2, 0, 199, 1_010),
            req(1, 100, 299, 1_020),
            req(4, 0, 599, 1_030),
            req(2, 0, 199, 1_040),
            req(1, 0, 99, 1_050),
        ];
        for r in &requests {
            let snap = original.snapshot();
            let mut copy = CafeCache::restore(&snap).expect("restores");
            copy.audit();
            assert_eq!(copy.snapshot(), snap, "before {r}");
            assert_eq!(copy.handle_request(r), original.handle_request(r), "{r}");
            assert_eq!(copy.snapshot(), original.snapshot(), "after {r}");
            original.audit();
        }
    }

    #[test]
    fn snapshots_roundtrip_through_json() {
        let (prefix, _) = workload();
        let config = CafeConfig::new(8, k100(), CostModel::from_alpha(2.0).unwrap());
        let mut cache = CafeCache::new(config);
        for r in &prefix {
            cache.handle_request(r);
        }
        let snap = cache.snapshot();
        let json = vcdn_types::json::to_string(&snap);
        let back: CafeSnapshot = vcdn_types::json::from_str(&json).expect("parses");
        assert_eq!(back, snap);
        let restored = CafeCache::restore(&back).expect("restores");
        assert_eq!(restored.disk_used_chunks(), cache.disk_used_chunks());
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        let config = CafeConfig::new(2, k100(), CostModel::balanced());
        let mut cache = CafeCache::new(config);
        cache.handle_request(&req(1, 0, 99, 1));
        let mut snap = cache.snapshot();
        snap.gamma = 0.0;
        assert!(CafeCache::restore(&snap).is_err());
        let mut snap = cache.snapshot();
        snap.config.disk_chunks = 0;
        assert!(CafeCache::restore(&snap).is_err());
        let mut snap = cache.snapshot();
        snap.disk.push((ChunkId::new(VideoId(9), 0), f64::NAN));
        assert!(CafeCache::restore(&snap).is_err());
        let mut snap = cache.snapshot();
        snap.disk = vec![
            (ChunkId::new(VideoId(1), 0), 1.0),
            (ChunkId::new(VideoId(2), 0), 2.0),
            (ChunkId::new(VideoId(3), 0), 3.0),
        ];
        assert!(CafeCache::restore(&snap).is_err(), "over capacity");

        // xLRU: unordered disk entries (distinct times so the reversal is
        // genuinely out of order).
        let cfg = CacheConfig::new(4, k100(), CostModel::balanced());
        let mut x = XlruCache::new(cfg);
        x.handle_request(&req(1, 0, 99, 5));
        x.handle_request(&req(2, 0, 99, 9));
        let mut snap = x.snapshot();
        assert!(snap.disk.len() >= 2);
        snap.disk.reverse();
        assert!(XlruCache::restore(&snap).is_err());
    }

    /// Restores a healthy two-chunk xLRU snapshot after `edit` and returns
    /// the inconsistency it is refused for.
    fn xlru_refused(edit: impl FnOnce(&mut XlruSnapshot)) -> String {
        let mut cache = XlruCache::new(CacheConfig::new(4, k100(), CostModel::balanced()));
        cache.handle_request(&req(1, 0, 199, 1));
        let mut snap = cache.snapshot();
        assert_eq!((snap.disk.len(), snap.tracker.len()), (2, 1));
        assert!(XlruCache::restore(&snap).is_ok());
        edit(&mut snap);
        match XlruCache::restore(&snap) {
            Err(SnapshotError::Inconsistent(what)) => what,
            other => panic!("expected an inconsistency, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn xlru_duplicate_disk_chunk_rejected() {
        let what = xlru_refused(|s| s.disk.push((s.disk[0].0, Timestamp(5))));
        assert!(what.contains("v1#0: two disk entries"), "{what}");
    }

    #[test]
    fn xlru_duplicate_tracker_video_rejected() {
        let what = xlru_refused(|s| s.tracker.push((VideoId(1), Timestamp(5))));
        assert!(what.contains("v1: two tracker entries"), "{what}");
    }

    #[test]
    fn xlru_chunk_index_past_the_bound_rejected() {
        let far = ChunkId::new(VideoId(1), MAX_CHUNK_INDEX);
        let what = xlru_refused(|s| s.disk.push((far, Timestamp(5))));
        assert!(what.contains("v1#1048576: chunk index beyond"), "{what}");
    }

    /// Restores a healthy two-chunk Cafe snapshot after `edit` and returns
    /// the inconsistency it is refused for.
    fn refused(edit: impl FnOnce(&mut CafeSnapshot)) -> String {
        let mut cache = CafeCache::new(CafeConfig::new(4, k100(), CostModel::balanced()));
        cache.handle_request(&req(1, 0, 199, 1));
        cache.handle_request(&req(1, 0, 199, 9));
        let mut snap = cache.snapshot();
        assert_eq!(
            (snap.iat.len(), snap.disk.len(), snap.video_seen.len()),
            (2, 2, 1)
        );
        assert!(CafeCache::restore(&snap).is_ok());
        edit(&mut snap);
        match CafeCache::restore(&snap) {
            Err(SnapshotError::Inconsistent(what)) => what,
            other => panic!("expected an inconsistency, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn reserved_last_seen_time_rejected() {
        let what = refused(|s| s.iat[0].2 = Timestamp(u64::MAX));
        assert!(what.contains("v1#0: last-seen time"), "{what}");
        let what = refused(|s| s.video_seen[0].1 = Timestamp(u64::MAX));
        assert!(what.contains("v1: last-seen time"), "{what}");
    }

    #[test]
    fn nan_interarrival_average_rejected() {
        let what = refused(|s| s.iat[1].1 = Some(f64::NAN));
        assert!(what.contains("v1#1: inter-arrival average"), "{what}");
    }

    #[test]
    fn negative_interarrival_average_rejected() {
        // -1.0 is the table's own "no interval yet" mark.
        let what = refused(|s| s.iat[0].1 = Some(-1.0));
        assert!(what.contains("v1#0: inter-arrival average"), "{what}");
    }

    #[test]
    fn duplicate_popularity_entry_rejected() {
        let what = refused(|s| s.iat.push(s.iat[0]));
        assert!(what.contains("v1#0: two popularity entries"), "{what}");
    }

    #[test]
    fn duplicate_disk_entry_rejected() {
        let what = refused(|s| s.disk.push((s.disk[1].0, 5.0)));
        assert!(what.contains("two disk entries"), "{what}");
    }

    #[test]
    fn duplicate_video_entry_rejected() {
        let what = refused(|s| s.video_seen.push((VideoId(1), Timestamp(3))));
        assert!(what.contains("v1: two video entries"), "{what}");
    }

    #[test]
    fn chunk_index_past_the_bound_rejected() {
        let far = ChunkId::new(VideoId(1), MAX_CHUNK_INDEX);
        let what = refused(|s| s.iat.push((far, None, Timestamp(9))));
        assert!(what.contains("v1#1048576: chunk index beyond"), "{what}");
        let what = refused(|s| s.disk.push((far, 9.0)));
        assert!(what.contains("v1#1048576: chunk index beyond"), "{what}");
    }
}
