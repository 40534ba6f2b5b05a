//! Property tests: the storage-level positional schemes that Table II and
//! Figure 18 measure (`posmark`'s position-as-is, monotonic-key and
//! hierarchical stores) must each agree with a `Vec` model under random
//! insert/delete/fetch tapes. The schemes differ only in complexity, so a
//! baseline that drifts from the model would make those figures compare a
//! wrong answer's cost.
//!
//! Every store writes a row's payload from the position it was inserted at
//! (`c0..` hold `key * 1000 + c`), so the model keeps that key per
//! position and a fetch compares the payload columns.

use proptest::prelude::*;

use dataspread_bench::posmark::{AsIsStore, HierarchicalStore, MonotonicStore};
use dataspread_relstore::Datum;

const WIDTH: u32 = 2;

/// The calls the three stores share.
trait Store {
    fn len(&self) -> u64;
    fn fetch(&self, pos: u64, count: u64) -> Vec<Vec<Datum>>;
    fn insert_at(&mut self, pos: u64);
    fn delete_at(&mut self, pos: u64);
}

macro_rules! store {
    ($t:ty) => {
        impl Store for $t {
            fn len(&self) -> u64 {
                <$t>::len(self)
            }
            fn fetch(&self, pos: u64, count: u64) -> Vec<Vec<Datum>> {
                <$t>::fetch(self, pos, count)
            }
            fn insert_at(&mut self, pos: u64) {
                <$t>::insert_at(self, pos)
            }
            fn delete_at(&mut self, pos: u64) {
                <$t>::delete_at(self, pos)
            }
        }
    };
}
store!(AsIsStore);
store!(MonotonicStore);
store!(HierarchicalStore);

#[derive(Debug, Clone)]
enum Op {
    /// Insert at `pos`, clamped to the length (past it is not a position).
    Insert(u64),
    /// Delete at `pos`, which may be past the end: that deletes nothing.
    Delete(u64),
    Fetch(u64, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..48).prop_map(Op::Insert),
        2 => (0u64..48).prop_map(Op::Delete),
        2 => (0u64..48, 0u64..16).prop_map(|(p, c)| Op::Fetch(p, c)),
    ]
}

/// The payload columns a row inserted at `key` carries.
fn payload(key: u64) -> Vec<Datum> {
    (0..WIDTH)
        .map(|c| Datum::Int(key as i64 * 1000 + i64::from(c)))
        .collect()
}

/// Fetch `count` rows at `pos` and check them against the model. `heads`
/// checks the fetched rows' first column — the scheme's own key or
/// position — given the first row's position.
fn check_fetch(
    store: &impl Store,
    model: &[u64],
    pos: u64,
    count: u64,
    heads: &impl Fn(u64, &[&Datum]),
) {
    let got = store.fetch(pos, count);
    let want: Vec<u64> = model
        .iter()
        .skip(pos as usize)
        .take(count as usize)
        .copied()
        .collect();
    assert_eq!(got.len(), want.len(), "fetch({pos}, {count}): row count");
    for (i, (row, key)) in got.iter().zip(want).enumerate() {
        assert_eq!(row[1..], payload(key), "fetch({pos}, {count}): row {i}");
    }
    heads(pos, &got.iter().map(|row| &row[0]).collect::<Vec<_>>());
}

fn run_against_model(mut store: impl Store, rows: u64, ops: &[Op], heads: impl Fn(u64, &[&Datum])) {
    let mut model: Vec<u64> = (0..rows).collect();
    for op in ops {
        match *op {
            Op::Insert(p) => {
                let p = p.min(model.len() as u64);
                store.insert_at(p);
                model.insert(p as usize, p);
            }
            Op::Delete(p) => {
                store.delete_at(p);
                if p < model.len() as u64 {
                    model.remove(p as usize);
                }
            }
            Op::Fetch(p, c) => check_fetch(&store, &model, p, c, &heads),
        }
        assert_eq!(store.len(), model.len() as u64, "after {op:?}");
    }
    check_fetch(&store, &model, 0, model.len() as u64, &heads);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn as_is_store_matches_vec(rows in 0u64..24, ops in prop::collection::vec(op_strategy(), 1..200)) {
        // The position column is the row's position, dense from 0.
        let heads = |pos: u64, heads: &[&Datum]| {
            for (i, d) in heads.iter().enumerate() {
                assert_eq!(**d, Datum::Int((pos + i as u64) as i64), "position column");
            }
        };
        run_against_model(AsIsStore::build(rows, WIDTH), rows, &ops, heads);
    }

    #[test]
    fn monotonic_store_matches_vec(rows in 0u64..24, ops in prop::collection::vec(op_strategy(), 1..200)) {
        // Keys stay positive and strictly increase with position.
        let heads = |pos: u64, heads: &[&Datum]| {
            let mut prev = 0;
            for d in heads {
                let Datum::Int(key) = **d else { panic!("key column holds {d:?}") };
                assert!(key > prev, "key {key} after {prev}, fetched from {pos}");
                prev = key;
            }
        };
        run_against_model(MonotonicStore::build(rows, WIDTH), rows, &ops, heads);
    }

    #[test]
    fn hierarchical_store_matches_vec(rows in 0u64..24, ops in prop::collection::vec(op_strategy(), 1..200)) {
        // No position in the tuple at all.
        let heads = |_: u64, heads: &[&Datum]| {
            assert!(heads.iter().all(|d| **d == Datum::Null), "no position column");
        };
        run_against_model(HierarchicalStore::build(rows, WIDTH), rows, &ops, heads);
    }
}
