//! Property test: the storage engine agrees with the in-memory
//! `SparseSheet` oracle under random edit scripts — for the RCV catch-all
//! and for ROM and COM regions routed by the hybrid layer.

use proptest::prelude::*;

use dataspread::engine::hybrid::HybridSheet;
use dataspread::grid::{Cell, CellAddr, Rect, ScanValue, Shift, SparseSheet};

#[derive(Debug, Clone)]
enum Op {
    Set(u8, u8, i64),
    Clear(u8, u8),
    InsertRows(u8, u8),
    DeleteRows(u8, u8),
    InsertCols(u8, u8),
    DeleteCols(u8, u8),
    CheckCell(u8, u8),
    CheckRange(u8, u8, u8, u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), 0u8..24, any::<i64>()).prop_map(|(r, c, v)| Op::Set(r % 48, c, v)),
        1 => (any::<u8>(), 0u8..24).prop_map(|(r, c)| Op::Clear(r % 48, c)),
        1 => (0u8..40, 1u8..4).prop_map(|(at, n)| Op::InsertRows(at, n)),
        1 => (0u8..40, 1u8..4).prop_map(|(at, n)| Op::DeleteRows(at, n)),
        1 => (0u8..20, 1u8..3).prop_map(|(at, n)| Op::InsertCols(at, n)),
        1 => (0u8..20, 1u8..3).prop_map(|(at, n)| Op::DeleteCols(at, n)),
        2 => (any::<u8>(), 0u8..24).prop_map(|(r, c)| Op::CheckCell(r % 48, c)),
        1 => (any::<u8>(), 0u8..24, any::<u8>(), 0u8..24)
            .prop_map(|(r1, c1, r2, c2)| Op::CheckRange(r1 % 48, c1, r2 % 48, c2)),
    ]
}

fn run_script(mut hs: HybridSheet, ops: &[Op]) {
    let mut oracle = SparseSheet::new();
    for op in ops {
        match *op {
            Op::Set(r, c, v) => {
                let addr = CellAddr::new(r as u32, c as u32);
                oracle.set_value(addr, v);
                hs.set_cell(addr, ScanValue::Number(v as f64), None)
                    .unwrap();
            }
            Op::Clear(r, c) => {
                let addr = CellAddr::new(r as u32, c as u32);
                oracle.clear(addr);
                hs.clear_cell(addr).unwrap();
            }
            Op::InsertRows(at, n) => {
                oracle.insert_rows(at as u32, n as u32).unwrap();
                hs.shift(Shift::InsertRows {
                    at: at as u32,
                    n: n as u32,
                })
                .unwrap();
            }
            Op::DeleteRows(at, n) => {
                oracle.delete_rows(at as u32, n as u32).unwrap();
                hs.shift(Shift::DeleteRows {
                    at: at as u32,
                    n: n as u32,
                })
                .unwrap();
            }
            Op::InsertCols(at, n) => {
                oracle.insert_cols(at as u32, n as u32).unwrap();
                hs.shift(Shift::InsertCols {
                    at: at as u32,
                    n: n as u32,
                })
                .unwrap();
            }
            Op::DeleteCols(at, n) => {
                oracle.delete_cols(at as u32, n as u32).unwrap();
                hs.shift(Shift::DeleteCols {
                    at: at as u32,
                    n: n as u32,
                })
                .unwrap();
            }
            Op::CheckCell(r, c) => {
                let addr = CellAddr::new(r as u32, c as u32);
                let want = oracle.get(addr).map(|c| c.value.clone());
                let got = Some(hs.value(addr)).filter(|v| !v.is_empty());
                assert_eq!(got, want, "cell {addr}");
            }
            Op::CheckRange(r1, c1, r2, c2) => {
                let rect = Rect::new(r1 as u32, c1 as u32, r2 as u32, c2 as u32);
                let want: Vec<(CellAddr, Cell)> = oracle
                    .iter_rect(rect)
                    .map(|(a, c)| (a, c.clone()))
                    .collect();
                let got = hs.get_cells(rect);
                assert_eq!(got, want, "range {rect}");
            }
        }
    }
    // Final full comparison.
    let want: Vec<(CellAddr, Cell)> = oracle.iter().map(|(a, c)| (a, c.clone())).collect();
    let got = hs.get_cells(Rect::new(0, 0, 4096, 4096));
    assert_eq!(got, want, "final state");
    assert_eq!(hs.filled_count(), oracle.filled_count() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn catchall_rcv_matches_oracle(ops in prop::collection::vec(op_strategy(), 1..120)) {
        run_script(HybridSheet::new(), &ops);
    }

    #[test]
    fn rom_region_matches_oracle(ops in prop::collection::vec(op_strategy(), 1..120)) {
        // Pre-install a ROM region covering the hot area; ops also hit the
        // catch-all outside it.
        let mut hs = HybridSheet::new();
        let rom = Box::new(dataspread::engine::rom::RomTranslator::new());
        hs.add_region(Rect::new(0, 0, 19, 11), rom).unwrap();
        run_script(hs, &ops);
    }

    #[test]
    fn com_region_matches_oracle(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut hs = HybridSheet::new();
        let com = Box::new(dataspread::engine::com::ComTranslator::new());
        hs.add_region(Rect::new(4, 2, 25, 15), com).unwrap();
        run_script(hs, &ops);
    }
}
