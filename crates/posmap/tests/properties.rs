//! Property tests for the [`PositionalMap`] *invariants* (paper §V): the
//! hierarchical positional map must behave like a dense, order-preserving
//! sequence under positional insert and delete. Where `tests/oracle.rs`
//! checks agreement with a `Vec` oracle over long op tapes, these
//! properties pin down the individual laws:
//!
//! * **lookup-after-insert** — `insert_at(p, v)` makes `get(p) == v`,
//!   leaves positions `< p` alone, and shifts positions `>= p` right;
//! * **shift-after-delete** — `remove_at(p)` shifts positions `> p` left;
//! * **order preservation** — surviving elements keep their relative
//!   order across arbitrary insert/remove interleavings;
//! * **bulk-load equivalence** — `bulk_load` (the O(N) import path)
//!   yields the same sequence as incremental pushes, and `range` agrees
//!   with repeated `get`.

use proptest::prelude::*;

use dataspread_posmap::{HierarchicalPosMap, PositionalMap};

fn build(items: &[u32]) -> HierarchicalPosMap<u32> {
    let mut map = HierarchicalPosMap::new();
    for &v in items {
        map.push(v);
    }
    map
}

fn contents(map: &HierarchicalPosMap<u32>) -> Vec<u32> {
    (0..map.len())
        .map(|i| *map.get(i).expect("dense"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lookup_after_insert(
        base in prop::collection::vec(any::<u32>(), 0..48),
        pos in 0usize..49,
        value in any::<u32>(),
    ) {
        let pos = pos.min(base.len());
        let mut map = build(&base);
        map.insert_at(pos, value);
        prop_assert_eq!(map.len(), base.len() + 1);
        prop_assert_eq!(map.get(pos), Some(&value), "inserted value");
        for (i, expected) in base.iter().enumerate() {
            // Prefix stays put; the suffix shifts right by one.
            let at = if i < pos { i } else { i + 1 };
            prop_assert_eq!(map.get(at), Some(expected), "shift at {}", i);
        }
        prop_assert_eq!(map.get(base.len() + 1), None, "dense end");
    }

    #[test]
    fn shift_after_delete(
        base in prop::collection::vec(any::<u32>(), 1..48),
        pos in 0usize..48,
    ) {
        let pos = pos.min(base.len() - 1);
        let mut map = build(&base);
        prop_assert_eq!(map.remove_at(pos), Some(base[pos]));
        prop_assert_eq!(map.len(), base.len() - 1);
        for (i, expected) in base.iter().enumerate().filter(|(i, _)| *i != pos) {
            // Prefix stays put; the suffix shifts left by one.
            let at = if i < pos { i } else { i - 1 };
            prop_assert_eq!(map.get(at), Some(expected), "shift at {}", i);
        }
        prop_assert_eq!(map.get(base.len() - 1), None, "dense end");
    }

    #[test]
    fn order_preservation_under_interleaved_edits(
        base_len in 1usize..32,
        edits in prop::collection::vec((any::<bool>(), 0usize..64, any::<u32>()), 0..48),
    ) {
        // Tag originals with even ids; insertions get odd ids so the two
        // populations are distinguishable afterwards.
        let originals: Vec<u32> = (0..base_len as u32).map(|i| i * 2).collect();
        let mut map = build(&originals);
        for (is_insert, pos, v) in &edits {
            if *is_insert {
                let pos = (*pos).min(map.len());
                map.insert_at(pos, v | 1); // odd id = insertion
            } else if !map.is_empty() {
                map.remove_at(pos % map.len());
            }
        }
        let survivors: Vec<u32> = contents(&map)
            .into_iter()
            .filter(|v| v % 2 == 0)
            .collect();
        let mut sorted = survivors.clone();
        sorted.sort_unstable();
        prop_assert_eq!(survivors, sorted, "surviving originals out of relative order");
    }

    #[test]
    fn bulk_load_matches_incremental_and_range_matches_get(
        items in prop::collection::vec(any::<u32>(), 0..96),
        start in 0usize..100,
        count in 0usize..40,
    ) {
        let bulk = HierarchicalPosMap::bulk_load(items.iter().copied());
        bulk.check_invariants();
        prop_assert_eq!(bulk.len(), items.len());
        prop_assert_eq!(
            contents(&bulk),
            contents(&build(&items)),
            "bulk load must equal incremental build"
        );
        let scanned: Vec<u32> = bulk.range(start, count).into_iter().copied().collect();
        let expected: Vec<u32> = items.iter().skip(start).take(count).copied().collect();
        prop_assert_eq!(scanned, expected, "range is a positional scan");
    }
}
