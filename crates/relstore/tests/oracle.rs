//! Property test: table vs `HashMap` oracle.

use std::collections::HashMap;

use proptest::prelude::*;

use dataspread_relstore::{ColumnDef, DataType, Datum, Schema, Table};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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
