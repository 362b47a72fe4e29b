//! A map bounded by the bytes its entries are charged, oldest out.
//!
//! The memos above it hold values that differ a hundredfold in size, so the
//! bound is on bytes, not entries; what an entry is charged is the caller's
//! to say. It knows nothing of locks: wrap it in whatever guards the cache
//! (a `Mutex`, a [`crate::flight::Flight`]).

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// Entries keyed by `K`, each charged a byte count, retained while the
/// charges sum to at most the bound.
#[derive(Debug)]
pub struct OldestOut<K, V> {
    /// Each retained value with the bytes it is charged.
    entries: HashMap<K, (V, usize)>,
    /// Retained keys, oldest first.
    order: VecDeque<K>,
    retained_bytes: usize,
    bound: usize,
}

impl<K: Eq + Hash + Clone, V> OldestOut<K, V> {
    /// An empty map that retains at most `bound` charged bytes.
    pub fn new(bound: usize) -> Self {
        OldestOut { entries: HashMap::new(), order: VecDeque::new(), retained_bytes: 0, bound }
    }

    /// The value retained under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key).map(|(value, _)| value)
    }

    /// Retains `value` under `key`, charged `bytes`, evicting the oldest
    /// entries until it fits; returns how many went. A key already retained
    /// takes the new value and charge and keeps its age. An entry charged
    /// more than the whole bound is not retained, and evicts nothing.
    pub fn insert(&mut self, key: K, value: V, bytes: usize) -> u64 {
        if bytes > self.bound {
            return 0;
        }
        if let Some((old, charged)) = self.entries.get_mut(&key) {
            self.retained_bytes = self.retained_bytes - *charged + bytes;
            (*old, *charged) = (value, bytes);
        } else {
            self.retained_bytes += bytes;
            self.order.push_back(key.clone());
            self.entries.insert(key, (value, bytes));
        }
        let mut evicted = 0;
        while self.retained_bytes > self.bound {
            let oldest = self.order.pop_front().expect("retained bytes have an entry");
            let (_, freed) = self.entries.remove(&oldest).expect("ordered keys are retained");
            self.retained_bytes -= freed;
            evicted += 1;
        }
        evicted
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
}
