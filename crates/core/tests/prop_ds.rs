//! Randomized model tests: the cache data structures against naive models.
//!
//! The workspace builds offline, so instead of an external property-test
//! framework these replay random operation sequences drawn from
//! [`DetRng`]; failures print the case seed.

use std::collections::{BTreeMap, BTreeSet};

use vcdn_core::ds::{BitTree, ChunkLru, IndexedLruList, KeyedSet, VideoDir, MAX_CHUNK_INDEX};
use vcdn_trace::rng::DetRng;
use vcdn_types::{ChunkId, Timestamp, VideoId};

/// Operations applicable to both the LRU list and its reference model.
#[derive(Debug, Clone)]
enum LruOp {
    Touch(u8),
    PopOldest,
}

fn lru_op(rng: &mut DetRng) -> LruOp {
    match rng.below(3) {
        0 | 1 => LruOp::Touch(rng.below(24) as u8),
        _ => LruOp::PopOldest,
    }
}

#[test]
fn lru_list_matches_model() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x00D5_18A7 ^ case);
        let n_ops = 1 + rng.below(400) as usize;
        let mut lru: IndexedLruList<u8> = IndexedLruList::new();
        // Model: Vec ordered newest-first.
        let mut model: Vec<(u8, Timestamp)> = Vec::new();
        let mut clock = 0u64;
        for _ in 0..n_ops {
            clock += 1;
            let t = Timestamp(clock);
            match lru_op(&mut rng) {
                LruOp::Touch(k) => {
                    lru.touch(k, t);
                    model.retain(|(mk, _)| *mk != k);
                    model.insert(0, (k, t));
                }
                LruOp::PopOldest => {
                    assert_eq!(lru.pop_oldest(), model.pop(), "case {case}");
                }
            }
            assert_eq!(lru.len(), model.len(), "case {case}");
            assert_eq!(
                lru.oldest().map(|(k, t)| (*k, t)),
                model.last().copied(),
                "case {case}"
            );
            assert_eq!(
                lru.newest_time(),
                model.first().map(|(_, t)| *t),
                "case {case}"
            );
            let got: Vec<(u8, Timestamp)> = lru.iter().map(|(k, t)| (*k, t)).collect();
            assert_eq!(got, model, "case {case}");
        }
    }
}

/// `IndexedLruList::touch` spelled in `ChunkLru`'s vocabulary: one
/// directory probe, a slot read, then a refresh or an insert.
fn chunk_lru_touch(lru: &mut ChunkLru, id: ChunkId, t: Timestamp) {
    match lru
        .video(id.video)
        .and_then(|slot| lru.handle(slot, id.index))
    {
        Some(h) => lru.touch_handle(h, t),
        None => lru.insert(id.video, id.index, t),
    }
}

#[test]
fn chunk_lru_matches_lru_list() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0xC4_18A7 ^ case);
        let n_ops = 1 + rng.below(600) as usize;
        // Few videos and few chunks: entries empty out and are re-created,
        // runs have gaps, and pops often land on the touched video.
        let videos = 1 + rng.below(6);
        let chunks = 1 + rng.below(8);
        let mut lru = ChunkLru::new();
        let mut list: IndexedLruList<ChunkId> = IndexedLruList::new();
        let mut clock = 0u64;
        for step in 0..n_ops {
            // Time advances on some steps only: equal stamps are legal.
            clock += rng.below(2);
            let t = Timestamp(clock);
            let id = ChunkId::new(VideoId(rng.below(videos)), rng.below(chunks) as u32);
            if rng.below(3) < 2 {
                chunk_lru_touch(&mut lru, id, t);
                list.touch(id, t);
            } else {
                assert_eq!(lru.pop_oldest(), list.pop_oldest(), "case {case}");
            }
            let at = || format!("case {case} step {step}");
            assert_eq!(lru.len(), list.len(), "{}", at());
            assert_eq!(lru.is_empty(), list.is_empty(), "{}", at());
            assert_eq!(lru.contains(id), list.contains(&id), "{}", at());
            assert_eq!(
                lru.oldest(),
                list.oldest().map(|(k, t)| (*k, t)),
                "{}",
                at()
            );
            assert!(lru.iter().eq(list.iter().map(|(k, t)| (*k, t))), "{}", at());
            lru.audit();
        }
    }
}

/// A new `VideoDir` entry takes the last freed slot while there is one,
/// and grows the slab by one otherwise.
fn take_slot(slot: u32, free: &mut Vec<u32>, slab: &mut u32, at: &str) {
    let want = free.pop().unwrap_or(*slab);
    assert_eq!(slot, want, "{at}: slot");
    *slab += u32::from(want == *slab);
}

#[test]
fn video_dir_matches_model() {
    const NONE: u32 = u32::MAX;
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x0D12_18A7 ^ case);
        let mut dir: VideoDir<u32, u32> = VideoDir::default();
        // The owner's view: each video's slot, run from chunk 0 and value,
        // and the free slots in the order they were freed (a retain frees
        // in slot order, so reuse is checked exactly). A directory run
        // starts at the lowest chunk written: the first one not `None`
        // here.
        let mut model: BTreeMap<u64, (u32, Vec<Option<u32>>, u32)> = BTreeMap::new();
        let mut free: Vec<u32> = Vec::new();
        let mut slab = 0u32;
        let videos = 1 + rng.below(12);
        for step in 0..1 + rng.below(500) {
            let at = || format!("case {case} step {step}");
            let video = rng.below(videos);
            match rng.below(16) {
                0..=8 => {
                    let slot = dir.insert(VideoId(video));
                    let (want, run, meta) = model.entry(video).or_insert_with(|| {
                        take_slot(slot, &mut free, &mut slab, &at());
                        (slot, Vec::new(), NONE)
                    });
                    assert_eq!(slot, *want, "{}", at());
                    // Short runs with gaps.
                    let index = rng.below(12) as usize;
                    let value = if rng.below(4) == 0 {
                        NONE
                    } else {
                        rng.below(1000) as u32
                    };
                    if run.len() <= index {
                        run.resize(index + 1, None);
                    }
                    run[index] = Some(value);
                    *meta = rng.below(1000) as u32;
                    let v = &mut dir[slot];
                    *v.rec_mut(index as u32) = value;
                    v.live = run
                        .iter()
                        .filter(|&&r| r.is_some_and(|r| r != NONE))
                        .count() as u32;
                    v.meta = *meta;
                }
                9..=11 => {
                    if let Some((slot, _, _)) = model.remove(&video) {
                        dir.release(slot);
                        free.push(slot);
                    }
                }
                12 => {
                    // Keep the videos holding something, or an odd value.
                    dir.retain(|v| v.live > 0 || v.meta % 2 == 1);
                    let mut freed = Vec::new();
                    model.retain(|_, (slot, run, meta)| {
                        let keep =
                            run.iter().any(|&r| r.is_some_and(|r| r != NONE)) || *meta % 2 == 1;
                        if !keep {
                            freed.push(*slot);
                        }
                        keep
                    });
                    freed.sort_unstable();
                    free.extend(freed);
                }
                13 if !model.contains_key(&video) => {
                    // The last index the bound admits, then straight out.
                    let slot = dir.insert(VideoId(video));
                    take_slot(slot, &mut free, &mut slab, &at());
                    *dir[slot].rec_mut(MAX_CHUNK_INDEX - 1) = 7;
                    // One record, not 2^20.
                    let v = &dir[slot];
                    assert_eq!(
                        (v.base(), v.run()),
                        (MAX_CHUNK_INDEX - 1, &[7][..]),
                        "{}",
                        at()
                    );
                    assert_eq!((v.rec(MAX_CHUNK_INDEX - 1), v.rec(0)), (7, NONE));
                    dir.release(slot);
                    free.push(slot);
                }
                _ => {}
            }
            // Every video reads back its slot, run and value, gaps and
            // past the end included; no other video has a slot.
            for (&video, (slot, run, meta)) in &model {
                assert_eq!(dir.slot(VideoId(video)), Some(*slot), "{}", at());
                let v = &dir[*slot];
                assert_eq!(v.id(), VideoId(video), "{}", at());
                let base = run.iter().position(Option::is_some).unwrap_or(0);
                let want: Vec<u32> = run[base..].iter().map(|r| r.unwrap_or(NONE)).collect();
                assert_eq!(v.meta, *meta, "{}", at());
                assert_eq!((v.base() as usize, v.run()), (base, &want[..]), "{}", at());
                for index in 0..14 {
                    let want = run.get(index as usize).and_then(|&r| r).unwrap_or(NONE);
                    assert_eq!(v.rec(index), want, "{}", at());
                }
            }
            for video in (0..videos).filter(|v| !model.contains_key(v)) {
                assert_eq!(dir.slot(VideoId(video)), None, "{}", at());
            }
            // The walk is in slot order.
            let listed: Vec<(u32, u64)> = dir.iter().map(|(s, v)| (s, v.id().0)).collect();
            let mut want: Vec<(u32, u64)> = model.iter().map(|(&v, e)| (e.0, v)).collect();
            want.sort_unstable();
            assert_eq!(listed, want, "{}", at());
            dir.audit(|&r| r != NONE);
        }
        // The slab never grew past the peak number of videos held.
        assert_eq!(slab as usize, model.len() + free.len(), "case {case}");
    }
}

#[derive(Debug, Clone)]
enum SetOp {
    Insert(u8, i32),
    Remove(u8),
    PopSmallest,
}

fn set_op(rng: &mut DetRng) -> SetOp {
    match rng.below(3) {
        0 => SetOp::Insert(rng.below(24) as u8, rng.below(2000) as i32 - 1000),
        1 => SetOp::Remove(rng.below(24) as u8),
        _ => SetOp::PopSmallest,
    }
}

#[test]
fn keyed_set_matches_model() {
    for case in 0..64u64 {
        let mut rng = DetRng::new(0x05E7_18A7 ^ case);
        let n_ops = 1 + rng.below(400) as usize;
        let mut set: KeyedSet<u8> = KeyedSet::new();
        let mut model: std::collections::BTreeMap<u8, f64> = std::collections::BTreeMap::new();
        let min_of = |m: &std::collections::BTreeMap<u8, f64>| {
            m.iter()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN").then(a.0.cmp(b.0)))
                .map(|(k, v)| (*k, *v))
        };
        for _ in 0..n_ops {
            match set_op(&mut rng) {
                SetOp::Insert(k, v) => {
                    let key = v as f64 / 8.0;
                    set.insert(k, key);
                    model.insert(k, key);
                }
                SetOp::Remove(k) => {
                    assert_eq!(set.remove(&k), model.remove(&k), "case {case}");
                }
                SetOp::PopSmallest => {
                    let want = min_of(&model);
                    assert_eq!(set.pop_smallest(), want, "case {case}");
                    if let Some((k, _)) = want {
                        model.remove(&k);
                    }
                }
            }
            assert_eq!(set.len(), model.len(), "case {case}");
            assert_eq!(set.smallest(), min_of(&model), "case {case}");
            // Ascending iteration is sorted and complete.
            let keys: Vec<f64> = set.iter_ascending().map(|(_, k)| k).collect();
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "case {case}");
            assert_eq!(keys.len(), model.len(), "case {case}");
        }
    }
}

#[test]
fn smallest_excluding_is_sound() {
    for case in 0..128u64 {
        let mut rng = DetRng::new(0x5AA11E57 ^ case);
        let mut entries: std::collections::BTreeMap<u8, i32> = std::collections::BTreeMap::new();
        for _ in 0..rng.below(30) {
            entries.insert(rng.below(40) as u8, rng.below(200) as i32 - 100);
        }
        let n = rng.below(10) as usize;
        let threshold = rng.below(40) as u8;
        let mut set: KeyedSet<u8> = KeyedSet::new();
        for (&k, &v) in &entries {
            set.insert(k, v as f64);
        }
        let picked = set.smallest_excluding(n, |k| *k < threshold);
        // No excluded items, at most n, ascending, and minimal.
        assert!(picked.len() <= n, "case {case}");
        assert!(picked.iter().all(|(k, _)| *k >= threshold), "case {case}");
        assert!(picked.windows(2).all(|w| w[0].1 <= w[1].1), "case {case}");
        let eligible = entries.iter().filter(|(k, _)| **k >= threshold).count();
        assert_eq!(picked.len(), n.min(eligible), "case {case}");
    }
}

#[test]
fn bit_tree_matches_model() {
    // One, two and three levels, each at, just under and just over a power
    // of 64.
    let universes = [
        1, 2, 63, 64, 65, 127, 128, 4095, 4096, 4097, 262_144, 262_145,
    ];
    for (case, universe) in (0u64..).zip(universes) {
        let mut rng = DetRng::new(0xB177_18A7 ^ case);
        let mut set = BitTree::new(universe);
        let mut model: BTreeSet<usize> = BTreeSet::new();
        let last_below = |model: &BTreeSet<usize>, bound| model.range(..bound).next_back().copied();
        // Members cluster around a few centres, so whole words and whole
        // second-level words stay empty between them, and fall on the
        // universe's first and last members often.
        let centres: Vec<u64> = (0..4).map(|_| rng.below(universe as u64)).collect();
        for step in 0..1500 {
            let i = match rng.below(8) {
                0 => 0,
                1 => universe - 1,
                2 => rng.below(universe as u64) as usize,
                _ => {
                    let near = centres[rng.below(4) as usize] + rng.below(200);
                    (near as usize).min(universe - 1)
                }
            };
            // Mostly inserts at first, mostly removes later: the set fills
            // and empties again.
            if rng.below(1500) >= step {
                set.insert(i);
                model.insert(i);
            } else {
                set.remove(i);
                model.remove(&i);
            }
            let at = || format!("universe {universe} step {step}");
            assert_eq!(set.last_below(universe), model.last().copied(), "{}", at());
            assert_eq!(set.last_below(i), last_below(&model, i), "{}", at());
            assert_eq!(set.last_below(i + 1), last_below(&model, i + 1), "{}", at());
            let bound = rng.below(universe as u64 + 71) as usize;
            assert_eq!(set.last_below(bound), last_below(&model, bound), "{}", at());
        }
        for i in [0, universe / 2, universe - 1] {
            set.insert(i);
            model.insert(i);
        }
        assert!(
            set.descending().eq(model.iter().rev().copied()),
            "universe {universe}"
        );
        let mut drained = Vec::new();
        while let Some(i) = set.last_below(usize::MAX) {
            set.remove(i);
            drained.push(i);
        }
        assert!(drained.iter().eq(model.iter().rev()), "universe {universe}");
    }
}
