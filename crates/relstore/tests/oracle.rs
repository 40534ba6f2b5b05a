//! Property tests: B+-tree vs `BTreeMap`, table vs `HashMap` oracle.

use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

use proptest::prelude::*;

use dataspread_relstore::{BPlusTree, ColumnDef, DataType, Datum, Schema, Table};

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
    Range(u16, u16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| TreeOp::Insert(k, v)),
        any::<u16>().prop_map(TreeOp::Remove),
        any::<u16>().prop_map(TreeOp::Get),
        (any::<u16>(), any::<u16>()).prop_map(|(a, b)| TreeOp::Range(a.min(b), a.max(b))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bplustree_matches_btreemap(ops in prop::collection::vec(tree_op(), 1..500)) {
        let mut tree = BPlusTree::new();
        let mut oracle: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), oracle.insert(k, v));
                }
                TreeOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), oracle.remove(&k));
                }
                TreeOp::Get(k) => {
                    prop_assert_eq!(tree.get(&k), oracle.get(&k));
                }
                TreeOp::Range(lo, hi) => {
                    let got: Vec<(u16, u32)> = tree
                        .range(Bound::Included(&lo), Bound::Included(&hi))
                        .into_iter()
                        .map(|(k, v)| (*k, *v))
                        .collect();
                    let want: Vec<(u16, u32)> =
                        oracle.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(tree.len(), oracle.len());
        }
    }

    #[test]
    fn table_matches_hashmap(
        inserts in prop::collection::vec("[a-z]{0,600}", 1..80),
        deletes in prop::collection::vec(any::<prop::sample::Index>(), 0..40),
        updates in prop::collection::vec((any::<prop::sample::Index>(), "[a-z]{0,9000}"), 0..40),
    ) {
        let mut table = Table::new("t", Schema::new(vec![ColumnDef::new("s", DataType::Text)]));
        let mut oracle: HashMap<_, Vec<Datum>> = HashMap::new();
        let mut tids = Vec::new();
        for text in inserts {
            let row = vec![Datum::Text(text)];
            let tid = table.insert(&row).unwrap();
            oracle.insert(tid, row);
            tids.push(tid);
        }
        for idx in deletes {
            let tid = *idx.get(&tids);
            let was_live = oracle.remove(&tid).is_some();
            prop_assert_eq!(table.delete(tid), was_live);
        }
        for (idx, text) in updates {
            let tid = *idx.get(&tids);
            let row = vec![Datum::Text(text)];
            match oracle.get_mut(&tid) {
                Some(live) => {
                    table.update(tid, &row).unwrap();
                    *live = row;
                }
                None => prop_assert!(table.update(tid, &row).is_err()),
            }
        }
        prop_assert_eq!(table.row_count() as usize, oracle.len());
        for (tid, row) in &oracle {
            prop_assert_eq!(&table.fetch(*tid).unwrap(), row);
        }
        let scanned: Vec<_> = table.scan().collect();
        let mut live: Vec<_> = oracle.into_iter().collect();
        live.sort_by_key(|(tid, _)| *tid);
        prop_assert_eq!(scanned, live, "scan is insertion order");
    }
}
