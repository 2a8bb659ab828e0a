//! Randomized property tests for [`ShardMap`] (paper §2, footnote 2).
//!
//! The workspace builds offline, so instead of an external property-test
//! framework these loop over [`DetRng`]-generated cases; failures print
//! the case number.

use vcdn_sim::shard::ShardMap;
use vcdn_trace::rng::DetRng;
use vcdn_types::VideoId;

const CASES: u64 = 128;

#[test]
fn server_for_is_stable_and_in_range() {
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5AAD_0001 ^ case);
        let servers = 1 + rng.below(32) as usize;
        let buckets = 1 + rng.below(8192);
        let m = ShardMap::new(servers, buckets);
        for _ in 0..64 {
            let v = VideoId(rng.next_u64());
            let s = m.server_for(v);
            assert!(s < servers, "case {case}: server {s} out of range");
            assert_eq!(s, m.server_for(v), "case {case}: unstable mapping");
        }
    }
}

#[test]
fn server_is_a_pure_function_of_the_bucket() {
    // The whole point of the bucket indirection: any two videos landing in
    // the same bucket must always land on the same server.
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5AAD_0002 ^ case);
        let servers = 1 + rng.below(16) as usize;
        let buckets = 1 + rng.below(64); // few buckets => many collisions
        let m = ShardMap::new(servers, buckets);
        let videos: Vec<VideoId> = (0..128).map(|_| VideoId(rng.next_u64())).collect();
        for v in &videos {
            assert_eq!(
                m.server_for(*v),
                (m.bucket_of(*v) % servers as u64) as usize,
                "case {case}"
            );
        }
        for w in videos.windows(2) {
            if m.bucket_of(w[0]) == m.bucket_of(w[1]) {
                assert_eq!(
                    m.server_for(w[0]),
                    m.server_for(w[1]),
                    "case {case}: same bucket, different server"
                );
            }
        }
    }
}

#[test]
fn changing_server_count_remaps_whole_buckets_only() {
    // Growing (or shrinking) the server set must move *aggregated file ID
    // groups*: either every video of a bucket moves, or none does. A
    // bucket is never split across servers by the resize.
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5AAD_0003 ^ case);
        let buckets = 1 + rng.below(256);
        let before = 1 + rng.below(16) as usize;
        let after = 1 + rng.below(16) as usize;
        let old = ShardMap::new(before, buckets);
        let new = ShardMap::new(after, buckets);
        // bucket -> (old server, new server), checked consistent across
        // every video observed in that bucket.
        let mut seen: std::collections::BTreeMap<u64, (usize, usize)> =
            std::collections::BTreeMap::new();
        for _ in 0..512 {
            let v = VideoId(rng.next_u64());
            let b = old.bucket_of(v);
            assert_eq!(
                b,
                new.bucket_of(v),
                "case {case}: bucket depends on servers"
            );
            let pair = (old.server_for(v), new.server_for(v));
            match seen.get(&b) {
                None => {
                    seen.insert(b, pair);
                }
                Some(&expect) => assert_eq!(
                    pair, expect,
                    "case {case}: bucket {b} split across servers by resize"
                ),
            }
        }
    }
}

#[test]
fn identical_maps_agree_and_bucket_count_matters_only_via_modulo() {
    // Same (servers, buckets) => same mapping, i.e. the map is pure state.
    for case in 0..CASES {
        let mut rng = DetRng::new(0x5AAD_0004 ^ case);
        let servers = 1 + rng.below(8) as usize;
        let buckets = 1 + rng.below(1024);
        let a = ShardMap::new(servers, buckets);
        let b = ShardMap::new(servers, buckets);
        for _ in 0..32 {
            let v = VideoId(rng.next_u64());
            assert_eq!(a.server_for(v), b.server_for(v), "case {case}");
        }
    }
}
