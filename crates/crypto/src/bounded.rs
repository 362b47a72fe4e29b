//! A map bounded by what its entries are charged, oldest out: the one
//! eviction scheme under every cache the daemon keeps.
//!
//! The memos charge bytes, since their values differ a hundredfold in size;
//! the result and session caches charge 1, which bounds them by entries.
//! Every entry carries the tick it was inserted or last touched at, and the
//! lowest tick goes first: a caller that only [`get`](OldestOut::get)s
//! evicts in insertion order, one that [`touch`](OldestOut::touch)es on a
//! hit evicts least recently used first. The ticks are also a cursor
//! ([`since`](OldestOut::since)). It knows nothing of locks: wrap it in
//! whatever guards the cache (a `Mutex`, a [`crate::flight::Flight`]).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::ops::Bound;

/// Entries keyed by `K`, each charged a count, retained while the charges
/// sum to at most the bound.
#[derive(Debug)]
pub struct OldestOut<K, V> {
    /// Each retained value, with its tick, and its charge.
    entries: HashMap<K, (Aged<V>, usize)>,
    /// Retained keys by tick, oldest first.
    order: BTreeMap<u64, K>,
    /// The tick last handed out.
    tick: u64,
    /// The charges retained, summed.
    retained_bytes: usize,
    bound: usize,
}

#[derive(Debug)]
struct Aged<V> {
    value: V,
    tick: u64,
}

impl<K: Eq + Hash + Clone, V> OldestOut<K, V> {
    /// An empty map that retains at most `bound` charged.
    pub fn new(bound: usize) -> Self {
        let order = BTreeMap::new();
        OldestOut { entries: HashMap::new(), order, tick: 0, retained_bytes: 0, bound }
    }

    /// The value retained under `key`, leaving its age alone.
    pub fn get<Q: Eq + Hash + ?Sized>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.entries.get(key).map(|(aged, _)| &aged.value)
    }

    /// As [`get`](OldestOut::get), to change the value in place.
    pub fn get_mut<Q: Eq + Hash + ?Sized>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
    {
        self.entries.get_mut(key).map(|(aged, _)| &mut aged.value)
    }

    /// The value retained under `key`, made the youngest entry; `None`,
    /// touching nothing, when `key` is not retained.
    pub fn touch(&mut self, key: &K) -> Option<&mut V> {
        let (aged, _) = self.entries.get_mut(key)?;
        let key = self.order.remove(&aged.tick)?;
        self.tick += 1;
        aged.tick = self.tick;
        self.order.insert(self.tick, key);
        Some(&mut aged.value)
    }

    /// [`insert_evicting`](OldestOut::insert_evicting), dropping what goes.
    pub fn insert(&mut self, key: K, value: V, charge: usize) -> u64 {
        self.insert_evicting(key, value, charge, |_, _| ())
    }

    /// Retains `value` under `key`, charged `charge`, evicting the oldest
    /// entries until it fits and handing each to `evicted`; returns how many
    /// went. A key already retained takes the new value and charge and keeps
    /// its age, so growing it may evict it. An entry charged more than the
    /// whole bound is not retained, and evicts nothing.
    pub fn insert_evicting(
        &mut self,
        key: K,
        value: V,
        charge: usize,
        mut evicted: impl FnMut(K, V),
    ) -> u64 {
        if charge > self.bound {
            return 0;
        }
        if let Some((aged, charged)) = self.entries.get_mut(&key) {
            self.retained_bytes = self.retained_bytes - *charged + charge;
            (aged.value, *charged) = (value, charge);
        } else {
            self.tick += 1;
            self.retained_bytes += charge;
            self.order.insert(self.tick, key.clone());
            self.entries.insert(key, (Aged { value, tick: self.tick }, charge));
        }
        let mut went = 0;
        while self.retained_bytes > self.bound {
            let Some((_, oldest)) = self.order.pop_first() else { break };
            if let Some((aged, freed)) = self.entries.remove(&oldest) {
                self.retained_bytes -= freed;
                evicted(oldest, aged.value);
                went += 1;
            }
        }
        went
    }

    /// Visits every entry inserted or touched after tick `cursor`, oldest
    /// first, and returns the tick to pass next time: from cursor 0, every
    /// retained entry; entries evicted in between, never.
    pub fn since(&self, cursor: u64, mut visit: impl FnMut(&K, &V)) -> u64 {
        for key in self.order.range((Bound::Excluded(cursor), Bound::Unbounded)).map(|(_, k)| k) {
            if let Some((aged, _)) = self.entries.get(key) {
                visit(key, &aged.value);
            }
        }
        self.tick
    }

    /// How many entries are retained.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_oldest_entries_go_first_and_the_charges_always_sum() {
        // Room for four ten-byte entries, not five.
        let mut map = OldestOut::new(45);
        let mut evicted = 0;
        for i in 0..20u32 {
            evicted += map.insert(i, i * 2, 10);
            assert!(map.retained_bytes <= 45, "after {i}: {}", map.retained_bytes);
            assert_eq!(map.entries.len(), (i as usize + 1).min(4));
            let charged: usize = map.entries.values().map(|(_, bytes)| bytes).sum();
            assert_eq!(charged, map.retained_bytes);
            assert_eq!(map.order.len(), map.entries.len());
        }
        assert_eq!(evicted, 16);
        assert_eq!(
            (16..20).map(|i| map.get(&i).copied()).collect::<Vec<_>>(),
            [32, 34, 36, 38].map(Some)
        );
        assert_eq!(map.get(&15), None);
    }

    #[test]
    fn an_entry_larger_than_the_bound_is_not_retained_and_evicts_nothing() {
        let mut map = OldestOut::new(45);
        map.insert("kept", 1, 40);
        assert_eq!(map.insert("huge", 2, 46), 0);
        assert_eq!((map.get(&"kept"), map.get(&"huge"), map.entries.len()), (Some(&1), None, 1));
    }

    #[test]
    fn a_retained_key_takes_the_new_value_and_charge_and_keeps_its_age() {
        let mut map = OldestOut::new(30);
        map.insert("a", 1, 10);
        map.insert("b", 2, 10);
        assert_eq!(map.insert("a", 3, 20), 0, "30 bytes: fits exactly");
        assert_eq!((map.get(&"a"), map.retained_bytes, map.entries.len()), (Some(&3), 30, 2));
        // `a` is still the oldest: one byte over, and it is the one to go.
        assert_eq!(map.insert("c", 4, 1), 1);
        assert_eq!((map.get(&"a"), map.get(&"b"), map.retained_bytes), (None, Some(&2), 11));
        // Growing a retained entry past the bound may evict that entry itself.
        assert_eq!(map.insert("b", 5, 30), 1);
        assert_eq!((map.get(&"b"), map.get(&"c"), map.retained_bytes), (None, Some(&4), 1));
    }

    /// The model: entries in a list kept in age order, oldest first, and a
    /// log of every insert of a new key and every touch, in order. A cursor
    /// stands for a length of that log; the entries it visits are those
    /// retained whose last logged event comes after it, in the order of that
    /// event.
    #[derive(Default)]
    struct Model {
        list: Vec<(u8, u32, usize)>,
        log: Vec<u8>,
    }

    impl Model {
        fn get(&self, key: u8) -> Option<u32> {
            self.list.iter().find(|(k, ..)| *k == key).map(|&(_, v, _)| v)
        }

        fn touch(&mut self, key: u8) -> Option<u32> {
            let at = self.list.iter().position(|&(k, ..)| k == key)?;
            let entry = self.list.remove(at);
            self.list.push(entry);
            self.log.push(key);
            Some(entry.1)
        }

        fn insert(&mut self, key: u8, value: u32, charge: usize, bound: usize) -> Vec<(u8, u32)> {
            if charge > bound {
                return Vec::new();
            }
            match self.list.iter_mut().find(|(k, ..)| *k == key) {
                Some(entry) => *entry = (key, value, charge),
                None => {
                    self.list.push((key, value, charge));
                    self.log.push(key);
                }
            }
            let mut evicted = Vec::new();
            while self.list.iter().map(|&(.., charge)| charge).sum::<usize>() > bound {
                let (k, v, _) = self.list.remove(0);
                evicted.push((k, v));
            }
            evicted
        }

        fn since(&self, cursor: usize) -> Vec<(u8, u32)> {
            let mut last: Vec<u8> = Vec::new();
            for &key in &self.log[cursor..] {
                last.retain(|&k| k != key);
                last.push(key);
            }
            last.iter().filter_map(|&key| self.get(key).map(|v| (key, v))).collect()
        }
    }

    /// `OldestOut` against [`Model`]: random inserts (of new keys and of
    /// retained ones), gets, touches and cursor reads over 10 keys, at bounds
    /// of 1 to 8 entries (every charge 1) or of 1 to 40 bytes (charges up to
    /// one past the bound). Each operation must answer what the model
    /// answers: the value read, the entries evicted and in what order, the
    /// entries a cursor visits; and after each, both retain the same entries
    /// in the same age order, charged what the map's books say.
    #[test]
    fn fuzz_sweep_oldest_out_equals_a_list() {
        let (mut evictions, mut visits, mut refusals) = (0, 0, 0);
        for case in 0..crate::fuzz::sweep_iters() as u64 {
            let mut rng = crate::SplitMix64::new(0xB0_0DED ^ case);
            let by_bytes = case % 2 == 1;
            let bound = 1 + rng.next_below(if by_bytes { 40 } else { 8 }) as usize;
            let mut map = OldestOut::new(bound);
            let mut model = Model::default();
            // Each cursor the map handed out, with the log length it stands for.
            let mut cursors = vec![(0, 0)];
            for op in 0..rng.next_below(64) {
                let key = rng.next_below(10) as u8;
                match rng.next_below(5) {
                    0 | 1 => {
                        let charge = if by_bytes {
                            1 + rng.next_below(bound as u64 + 1) as usize
                        } else {
                            1
                        };
                        let value = (case as u32) << 8 | op as u32;
                        let mut went = Vec::new();
                        let count =
                            map.insert_evicting(key, value, charge, |k, v| went.push((k, v)));
                        assert_eq!(count, went.len() as u64);
                        assert_eq!(went, model.insert(key, value, charge, bound), "case {case}");
                        refusals += usize::from(charge > bound);
                        evictions += went.len();
                    }
                    2 => assert_eq!(map.get(&key).copied(), model.get(key), "case {case}"),
                    3 => assert_eq!(map.touch(&key).copied(), model.touch(key), "case {case}"),
                    _ => {
                        let (cursor, at) = cursors[rng.next_below(cursors.len() as u64) as usize];
                        let mut seen = Vec::new();
                        let next = map.since(cursor, |k, v| seen.push((*k, *v)));
                        assert_eq!(seen, model.since(at), "case {case}, cursor {cursor}");
                        visits += seen.len();
                        cursors.push((next, model.log.len()));
                    }
                }
                let mut retained = Vec::new();
                map.since(0, |k, v| retained.push((*k, *v)));
                assert_eq!(retained, model.since(0), "case {case}: retained in age order");
                assert_eq!(retained.len(), model.list.len());
                let charged: usize = map.entries.values().map(|(_, charge)| charge).sum();
                let modelled: usize = model.list.iter().map(|&(.., charge)| charge).sum();
                assert_eq!((charged, map.retained_bytes), (modelled, modelled), "case {case}");
                assert_eq!(map.order.len(), map.entries.len());
            }
        }
        assert!(evictions > 0 && visits > 0 && refusals > 0, "{evictions} {visits} {refusals}");
    }
}
