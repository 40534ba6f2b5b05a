//! Routing-index invariant suite: after arbitrary sequences of region
//! adds, cell edits, and structural row/column insert/delete, the
//! row-band routing index must agree with a scan of the region list
//! ([`region_at_scan`]) on every address, and window fetches must agree
//! with the index-free `snapshot` path.

#[path = "common/cells.rs"]
mod cells;

use cells::SheetCells;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::rcv::RcvTranslator;
use dataspread_engine::rom::RomTranslator;
use dataspread_engine::{HybridSheet, Translator};
use dataspread_grid::{Cell, CellAddr, Rect, Shift};

const ROWS: u32 = 400;

/// The pre-index routing: the slot of the first region whose rect holds
/// `addr`. Region rects are pairwise disjoint, so this agrees with
/// [`HybridSheet::region_at`] on every address.
fn region_at_scan(hs: &HybridSheet, addr: CellAddr) -> Option<usize> {
    hs.layout().iter().position(|(rect, _)| rect.contains(addr))
}

const COLS: u32 = 60;

fn random_rect(rng: &mut StdRng) -> Rect {
    let r1 = rng.gen_range(0..ROWS);
    let c1 = rng.gen_range(0..COLS);
    let h = rng.gen_range(1..40u32);
    let w = rng.gen_range(1..12u32);
    Rect::new(
        r1,
        c1,
        (r1 + h - 1).min(ROWS - 1),
        (c1 + w - 1).min(COLS - 1),
    )
}

/// Probe addresses that matter: every region corner (±1 in each axis, the
/// off-by-one hot spots) plus a random sample.
fn probes(hs: &HybridSheet, rng: &mut StdRng) -> Vec<CellAddr> {
    let mut out = Vec::new();
    for (rect, _) in hs.layout() {
        for r in [
            rect.r1.saturating_sub(1),
            rect.r1,
            rect.r2,
            rect.r2.saturating_add(1),
        ] {
            for c in [
                rect.c1.saturating_sub(1),
                rect.c1,
                rect.c2,
                rect.c2.saturating_add(1),
            ] {
                out.push(CellAddr::new(r, c));
            }
        }
    }
    for _ in 0..60 {
        out.push(CellAddr::new(
            rng.gen_range(0..ROWS + 40),
            rng.gen_range(0..COLS + 10),
        ));
    }
    out
}

fn assert_index_consistent(hs: &HybridSheet, rng: &mut StdRng, context: &str) {
    for addr in probes(hs, rng) {
        assert_eq!(
            hs.region_at(addr),
            region_at_scan(hs, addr),
            "routing diverged at {addr} after {context} (layout: {:?})",
            hs.layout()
        );
    }
    // Window fetches against the index-free snapshot path.
    let snapshot = hs.snapshot(true);
    for _ in 0..4 {
        let window = random_rect(rng);
        let mut want: Vec<(CellAddr, Cell)> = snapshot
            .iter_rect(window)
            .map(|(a, c)| (a, c.clone()))
            .collect();
        want.sort_unstable_by_key(|(a, _)| (a.row, a.col));
        assert_eq!(
            hs.get_cells(window),
            want,
            "get_cells diverged after {context}"
        );
    }
}

fn random_region(hs: &mut HybridSheet, rng: &mut StdRng) {
    let rect = random_rect(rng);
    let translator: Box<dyn Translator> = if rng.gen_bool(0.5) {
        Box::new(RomTranslator::new())
    } else {
        Box::new(RcvTranslator::new())
    };
    // Overlapping rects are expected to be rejected and must leave the
    // index untouched.
    let _ = hs.add_region(rect, translator);
}

#[test]
fn routing_index_survives_random_op_sequences() {
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(0x80071E + seed);
        let mut hs = HybridSheet::new();
        for step in 0..120usize {
            let context = match rng.gen_range(0..12u32) {
                0..=3 => {
                    random_region(&mut hs, &mut rng);
                    "add_region"
                }
                // A region disappears the way it does in production: a
                // delete over its whole span, which renumbers the slots
                // after it.
                4 if hs.region_count() > 0 => {
                    let rect = hs.layout()[rng.gen_range(0..hs.region_count())].0;
                    if rng.gen_bool(0.5) {
                        hs.shift(Shift::DeleteRows {
                            at: rect.r1,
                            n: rect.r2 - rect.r1 + 1,
                        })
                        .unwrap();
                        "delete_rows over a region"
                    } else {
                        hs.shift(Shift::DeleteCols {
                            at: rect.c1,
                            n: rect.c2 - rect.c1 + 1,
                        })
                        .unwrap();
                        "delete_cols over a region"
                    }
                }
                5 => {
                    hs.shift(Shift::InsertRows {
                        at: rng.gen_range(0..ROWS),
                        n: rng.gen_range(1..5u32),
                    })
                    .unwrap();
                    "insert_rows"
                }
                6 => {
                    hs.shift(Shift::InsertCols {
                        at: rng.gen_range(0..COLS),
                        n: rng.gen_range(1..4u32),
                    })
                    .unwrap();
                    "insert_cols"
                }
                7 => {
                    hs.shift(Shift::DeleteRows {
                        at: rng.gen_range(0..ROWS),
                        n: rng.gen_range(1..5u32),
                    })
                    .unwrap();
                    "delete_rows"
                }
                8 => {
                    hs.shift(Shift::DeleteCols {
                        at: rng.gen_range(0..COLS),
                        n: rng.gen_range(1..4u32),
                    })
                    .unwrap();
                    "delete_cols"
                }
                9 => {
                    let row = rng.gen_range(0..ROWS);
                    let cells: Vec<(u32, Cell)> = (0..rng.gen_range(1..20u32))
                        .map(|i| (rng.gen_range(0..COLS), Cell::value((row + i) as i64)))
                        .collect();
                    hs.put_row(row, cells).unwrap();
                    "set_cells_in_row"
                }
                _ => {
                    let addr = CellAddr::new(rng.gen_range(0..ROWS), rng.gen_range(0..COLS));
                    if rng.gen_bool(0.8) {
                        hs.put_cell(addr, Cell::value(step as i64)).unwrap();
                    } else {
                        hs.clear_cell(addr).unwrap();
                    }
                    "set/clear_cell"
                }
            };
            assert_index_consistent(&hs, &mut rng, context);
        }
    }
}

#[test]
fn boundary_row_insert_splits_bands_correctly() {
    // Two regions stacked so the insert lands exactly on the lower one's
    // first row, *inside* the taller one. The tall region grows over the
    // inserted rows; the lower region translates past them — the index
    // must route the inserted rows to the tall region only.
    let mut hs = HybridSheet::new();
    let tall = Box::new(RcvTranslator::new());
    let low = Box::new(RcvTranslator::new());
    hs.add_region(Rect::new(0, 0, 19, 9), tall).unwrap();
    hs.add_region(Rect::new(10, 20, 19, 29), low).unwrap();
    hs.shift(Shift::InsertRows { at: 10, n: 5 }).unwrap();
    assert_eq!(hs.layout()[0].0, Rect::new(0, 0, 24, 9), "tall region grew");
    assert_eq!(
        hs.layout()[1].0,
        Rect::new(15, 20, 24, 29),
        "low region shifted"
    );
    for row in 0..30u32 {
        for col in [0u32, 5, 9, 10, 20, 25, 29, 30] {
            let addr = CellAddr::new(row, col);
            assert_eq!(hs.region_at(addr), region_at_scan(&hs, addr), "at {addr}");
        }
    }
}

#[test]
fn boundary_row_insert_with_gap_shifts_only() {
    // The lower region starts where the upper one ends +1 is false — there
    // is a one-row gap. Inserting into the gap grows nothing.
    let mut hs = HybridSheet::new();
    let a = Box::new(RcvTranslator::new());
    let b = Box::new(RcvTranslator::new());
    hs.add_region(Rect::new(0, 0, 9, 9), a).unwrap();
    hs.add_region(Rect::new(11, 0, 19, 9), b).unwrap();
    hs.shift(Shift::InsertRows { at: 10, n: 3 }).unwrap();
    assert_eq!(hs.layout()[0].0, Rect::new(0, 0, 9, 9));
    assert_eq!(hs.layout()[1].0, Rect::new(14, 0, 22, 9));
    for row in 0..25u32 {
        let addr = CellAddr::new(row, 4);
        assert_eq!(hs.region_at(addr), region_at_scan(&hs, addr), "at {addr}");
    }
}

#[test]
fn side_by_side_regions_route_by_column() {
    // Many regions sharing the same rows, differing only in columns: the
    // per-band column binary search must discriminate them.
    let mut hs = HybridSheet::new();
    for i in 0..32u32 {
        let t = Box::new(RcvTranslator::new());
        hs.add_region(Rect::new(0, i * 3, 9, i * 3 + 1), t).unwrap();
    }
    for col in 0..100u32 {
        for row in [0u32, 5, 9, 10] {
            let addr = CellAddr::new(row, col);
            assert_eq!(hs.region_at(addr), region_at_scan(&hs, addr), "at {addr}");
        }
    }
}
