//! Property tests: the hierarchical positional map must agree with a `Vec`
//! oracle under arbitrary operation sequences (paper §V: a positional map
//! is a dense, order-preserving sequence under positional edits). The
//! paper's position-as-is and monotonic baselines are checked against the
//! same kind of oracle where they live, in `dataspread-bench`'s
//! `tests/posmark_oracle.rs`.

use proptest::prelude::*;

use dataspread_posmap::{HierarchicalPosMap, PositionalMap};

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, u32),
    Remove(usize),
    Get(usize),
    Range(usize, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..512, any::<u32>()).prop_map(|(p, v)| Op::Insert(p, v)),
        (0usize..512).prop_map(Op::Remove),
        (0usize..512).prop_map(Op::Get),
        (0usize..512, 0usize..64).prop_map(|(s, c)| Op::Range(s, c)),
    ]
}

fn run_against_oracle(ops: &[Op]) {
    let mut map = HierarchicalPosMap::new();
    let mut oracle: Vec<u32> = Vec::new();
    for op in ops {
        match *op {
            Op::Insert(p, v) => {
                let p = p.min(oracle.len());
                oracle.insert(p, v);
                map.insert_at(p, v);
            }
            Op::Remove(p) => {
                let expected = if p < oracle.len() {
                    Some(oracle.remove(p))
                } else {
                    None
                };
                assert_eq!(map.remove_at(p), expected);
            }
            Op::Get(p) => {
                assert_eq!(map.get(p), oracle.get(p));
            }
            Op::Range(s, c) => {
                let got: Vec<u32> = map.range(s, c).into_iter().copied().collect();
                let expected: Vec<u32> = oracle.iter().skip(s).take(c).copied().collect();
                assert_eq!(got, expected);
            }
        }
        assert_eq!(map.len(), oracle.len());
        map.check_invariants();
    }
    // Final full scan.
    let got: Vec<u32> = map.range(0, oracle.len()).into_iter().copied().collect();
    assert_eq!(got, oracle);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hierarchical_matches_vec(ops in prop::collection::vec(op_strategy(), 1..300)) {
        run_against_oracle(&ops);
    }

    #[test]
    fn hierarchical_bulk_load_equals_incremental(items in prop::collection::vec(any::<u32>(), 0..2000)) {
        let bulk: HierarchicalPosMap<u32> = items.iter().copied().collect();
        bulk.check_invariants();
        let mut incr = HierarchicalPosMap::new();
        for &v in &items {
            incr.push(v);
        }
        let a: Vec<u32> = bulk.iter().copied().collect();
        let b: Vec<u32> = incr.iter().copied().collect();
        prop_assert_eq!(&a, &items);
        prop_assert_eq!(a, b);
    }
}
