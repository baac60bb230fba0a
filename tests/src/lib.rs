//! Integration-test crate: the tests in `tests/` exercise cross-crate
//! behavior (simulator → construction → models → metrics). This lib target
//! holds the one helper two of them share; see `tests/*.rs`.

use baclassifier::{ShardAssignment, ShardMap};
use bstream::Follower;

/// Assert that the followers a finished fleet handed back, in shard order,
/// partition `reference` byte for byte. Each one must be at the
/// reference's height; every address it tracks or labels must be owned by
/// its shard under [`ShardMap::shard_of`]; every address it tracks must
/// carry the reference's label, history length and embedding bytes; and
/// the tracked and labelled counts must sum to the reference's.
///
/// With `full_embeddings`, every tracked address must carry its complete
/// embedding sequence (fresh runs embed everything). Without it (restored
/// or respawned shards), embeddings are rebuilt on demand, so an address
/// untouched since its restore legitimately has an empty cache — but any
/// sequence that *was* rebuilt must still be byte-identical.
pub fn assert_shards_match(
    followers: &[Follower],
    reference: &Follower,
    full_embeddings: bool,
    tag: &str,
) {
    let count = followers.len() as u32;
    let map = ShardMap::new(count);
    for (index, follower) in (0..count).zip(followers) {
        let shard = format!("{tag}: shard {index} of {count}");
        assert_eq!(
            follower.config().shard,
            Some(ShardAssignment { index, count }),
            "{shard}: handed back out of order"
        );
        assert_eq!(
            follower.next_height(),
            reference.next_height(),
            "{shard}: blocks were lost"
        );
        for addr in follower.labels().keys() {
            assert_eq!(map.shard_of(*addr), index, "{shard} labels {addr:?}");
        }
        for (addr, len) in follower.history_lens() {
            assert_eq!(map.shard_of(addr), index, "{shard} tracks {addr:?}");
            assert_eq!(
                len,
                reference.history_len(addr),
                "{shard}: history of {addr:?} diverged"
            );
            assert_eq!(
                follower.labels().get(&addr),
                reference.labels().get(&addr),
                "{shard}: label of {addr:?} diverged"
            );
            let embeds = follower.embeddings(addr).expect("tracked");
            if !full_embeddings && embeds.is_empty() {
                continue;
            }
            let want = reference
                .embeddings(addr)
                .expect("tracked by the reference");
            assert_eq!(
                embeds.len(),
                want.len(),
                "{shard}: slice count for {addr:?}"
            );
            for (got, want) in embeds.iter().zip(want) {
                assert_eq!(
                    got.as_slice(),
                    want.as_slice(),
                    "{shard}: embedding bytes diverged for {addr:?}"
                );
            }
        }
    }
    let tracked: usize = followers.iter().map(Follower::num_tracked).sum();
    assert_eq!(
        tracked,
        reference.num_tracked(),
        "{tag}: tracked set diverged"
    );
    let labelled: usize = followers.iter().map(|f| f.labels().len()).sum();
    assert_eq!(
        labelled,
        reference.labels().len(),
        "{tag}: label table diverged"
    );
}
