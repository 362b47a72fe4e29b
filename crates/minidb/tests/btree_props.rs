//! Model-based property tests: the B+tree must behave exactly like
//! `std::collections::BTreeMap` under arbitrary command sequences, and the
//! table layer must keep indexes consistent with full scans.
//!
//! Deterministic seeded sweeps: each property draws its inputs from a
//! `SplitMix64` stream, so every CI run exercises the identical case set.

use std::collections::BTreeMap;

use confbench_crypto::SplitMix64;
use confbench_minidb::{BTree, Column, ColumnType, DbValue, Table};

const CASES: u64 = 64;

#[test]
fn btree_matches_btreemap() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB7EE_0001 ^ case);
        let mut tree = BTree::new();
        let mut model = BTreeMap::new();
        for _ in 0..1 + rng.next_below(399) {
            let k = rng.next_below(512) as i64;
            // Weighted 3:1:1 insert/remove/get, like the original generator.
            match rng.next_below(5) {
                0..=2 => {
                    let v = rng.next_u64() as i64;
                    assert_eq!(tree.insert(k, v), model.insert(k, v), "case {case}");
                }
                3 => assert_eq!(tree.remove(&k), model.remove(&k), "case {case}"),
                _ => assert_eq!(tree.get(&k), model.get(&k), "case {case}"),
            }
            assert_eq!(tree.len(), model.len(), "case {case}");
        }
        tree.check_invariants();
        // Full iteration agrees.
        let got: Vec<(i64, i64)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(i64, i64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn btree_range_matches_btreemap() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB7EE_0002 ^ case);
        let keys: std::collections::BTreeSet<i64> =
            (0..rng.next_below(300)).map(|_| rng.next_below(2000) as i64).collect();
        let lo = rng.next_below(2000) as i64;
        let span = rng.next_below(500) as i64;
        let mut tree = BTree::new();
        let mut model = BTreeMap::new();
        for &k in &keys {
            tree.insert(k, k);
            model.insert(k, k);
        }
        let hi = lo + span;
        let got: Vec<i64> = tree.range(&lo, &hi).map(|(k, _)| *k).collect();
        let want: Vec<i64> = model.range(lo..hi).map(|(k, _)| *k).collect();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn table_index_consistent_with_scan() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xB7EE_0003 ^ case);
        let values: Vec<i64> =
            (0..1 + rng.next_below(119)).map(|_| rng.next_below(64) as i64).collect();
        let lo = rng.next_below(64) as i64;
        let span = 1 + rng.next_below(31) as i64;

        let mut t = Table::new("p", vec![Column::new("v", ColumnType::Integer)]);
        t.create_index("idx", "v").unwrap();
        let mut ids = Vec::new();
        for &v in &values {
            ids.push(t.insert(vec![v.into()]).unwrap());
        }
        // Delete a third to exercise index maintenance.
        for id in ids.iter().step_by(3) {
            t.delete(*id).unwrap();
        }
        let hi = lo + span;
        let mut via_index = t.index_range("idx", &lo.into(), &hi.into()).unwrap();
        let mut via_scan =
            t.scan_filter(|row| matches!(row[0], DbValue::Integer(v) if v >= lo && v < hi));
        via_index.sort_unstable();
        via_scan.sort_unstable();
        assert_eq!(via_index, via_scan, "case {case}");
    }
}
