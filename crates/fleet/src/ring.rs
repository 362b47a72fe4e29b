//! Consistent-hash ring with virtual nodes.
//!
//! Placement is keyed on the scheduler's content address (the SHA-256
//! `cache_address` of a campaign cell, placed at the point of its hex text,
//! `cache_key`), so the cell → shard mapping is stable across submissions:
//! a resubmitted cell the fleet has not yet harvested routes back to the
//! shard whose result cache already holds it. Virtual nodes smooth the
//! distribution; removing a shard re-homes only the arcs it owned.

use std::collections::{BTreeMap, BTreeSet};

use confbench_crypto::{Digest, Sha256};

/// A consistent-hash ring mapping string keys to shard ids.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    points: BTreeMap<u64, usize>,
    shards: BTreeSet<usize>,
}

impl HashRing {
    /// Creates an empty ring with `vnodes` virtual nodes per shard
    /// (clamped to at least 1).
    pub fn new(vnodes: usize) -> Self {
        HashRing { vnodes: vnodes.max(1), points: BTreeMap::new(), shards: BTreeSet::new() }
    }

    /// Adds a shard's virtual nodes to the ring. Idempotent.
    pub fn insert(&mut self, shard: usize) {
        if !self.shards.insert(shard) {
            return;
        }
        for v in 0..self.vnodes {
            self.points.insert(vnode_point(shard, v), shard);
        }
    }

    /// Removes a shard (its keys re-home to the next points on the ring).
    pub fn remove(&mut self, shard: usize) {
        if !self.shards.remove(&shard) {
            return;
        }
        self.points.retain(|_, s| *s != shard);
    }

    /// The shard owning `key`: the first virtual node at or after the
    /// key's hash, wrapping around. `None` on an empty ring.
    pub fn owner(&self, key: &str) -> Option<usize> {
        self.owner_of_text(key.as_bytes())
    }

    /// The shard owning a content address: the owner of its hex text, as
    /// [`HashRing::owner`] places it, hashed from the stack.
    pub fn owner_of(&self, key: &Digest) -> Option<usize> {
        self.owner_of_text(&key.hex())
    }

    fn owner_of_text(&self, key: &[u8]) -> Option<usize> {
        let h = Sha256::digest(key).to_u64();
        self.points.range(h..).next().or_else(|| self.points.iter().next()).map(|(_, shard)| *shard)
    }

    /// Number of shards currently on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the ring has no shards.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

fn vnode_point(shard: usize, vnode: usize) -> u64 {
    Sha256::digest(format!("shard-{shard}/vnode-{vnode}").as_bytes()).to_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("cell-key-{i}")).collect()
    }

    /// Owners of a fixed key list, as placed before the SHA-NI kernel and
    /// the direct padding existed: placement is a pure function of the key.
    #[test]
    fn placement_is_pinned() {
        let mut ring = HashRing::new(32);
        for s in 0..3 {
            ring.insert(s);
        }
        let owners: Vec<usize> = keys(24).iter().map(|k| ring.owner(k).unwrap()).collect();
        assert_eq!(
            owners,
            [1, 2, 1, 2, 1, 1, 0, 0, 2, 0, 0, 0, 2, 0, 0, 1, 2, 2, 2, 0, 1, 0, 1, 1]
        );
    }

    /// A content address is placed where its hex text is: for random
    /// addresses, on rings of one to five shards and after a removal, the
    /// owner of the digest is the owner of its text.
    #[test]
    fn a_digest_is_placed_at_its_hex_text() {
        let mut rng = confbench_crypto::SplitMix64::new(0x7146);
        for shards in 1..=5 {
            let mut ring = HashRing::new(32);
            (0..shards).for_each(|s| ring.insert(s));
            for round in 0..2 {
                for _ in 0..500 {
                    let mut bytes = [0u8; 32];
                    rng.fill_bytes(&mut bytes);
                    let key = Digest(bytes);
                    assert_eq!(ring.owner_of(&key), ring.owner(&key.to_string()), "{key}");
                }
                if round == 0 && shards > 1 {
                    ring.remove(rng.next_below(shards as u64) as usize);
                }
            }
        }
        assert_eq!(HashRing::new(8).owner_of(&Digest([0; 32])), None);
    }

    #[test]
    fn placement_is_stable_and_total() {
        let mut ring = HashRing::new(32);
        for s in 0..3 {
            ring.insert(s);
        }
        for key in keys(100) {
            let a = ring.owner(&key).unwrap();
            let b = ring.owner(&key).unwrap();
            assert_eq!(a, b);
            assert!(a < 3);
        }
    }

    #[test]
    fn all_shards_get_some_keys() {
        let mut ring = HashRing::new(32);
        for s in 0..3 {
            ring.insert(s);
        }
        let mut counts = [0usize; 3];
        for key in keys(300) {
            counts[ring.owner(&key).unwrap()] += 1;
        }
        assert!(counts.iter().all(|&c| c > 30), "skewed placement: {counts:?}");
    }

    #[test]
    fn removal_only_moves_the_dead_shards_keys() {
        let mut ring = HashRing::new(32);
        for s in 0..3 {
            ring.insert(s);
        }
        let before: Vec<(String, usize)> =
            keys(200).into_iter().map(|k| (k.clone(), ring.owner(&k).unwrap())).collect();
        ring.remove(1);
        for (key, owner) in before {
            let now = ring.owner(&key).unwrap();
            if owner != 1 {
                assert_eq!(now, owner, "surviving shard's key moved");
            } else {
                assert_ne!(now, 1);
            }
        }
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = HashRing::new(8);
        assert!(ring.is_empty());
        assert_eq!(ring.owner("anything"), None);
        let mut ring = ring;
        ring.insert(7);
        ring.insert(7); // idempotent
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.owner("anything"), Some(7));
        ring.remove(7);
        ring.remove(7);
        assert!(ring.is_empty());
    }
}
