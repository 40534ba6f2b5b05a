//! The one bulk read path, against the per-cell read it generalizes.
//!
//! [`Translator::scan`] is what snapshots, the optimizer's occupancy,
//! checkpoint payloads, migrations and relations fold over, and
//! [`HybridSheet::scan`] — the same read across stores, in order — what
//! window fetches, `get_cells` and the evaluator's range reads and
//! aggregates fold over. The reference for all of them is the slowest correct
//! reader there is: one `get_cell` per position — the store's point read
//! for the value, with the formula source a one-cell scan finds
//! (`common/cells.rs`).
//!
//! * `Translator::scan(rect)` — for every layout, random sparse contents,
//!   a random tape of edits and structural ops, and rects inside,
//!   straddling and outside the extent — yields exactly the non-blank
//!   cells a `get_cell` loop finds, in strictly increasing row-major order;
//! * `HybridSheet::scan(rect)` does the same over sheets of several
//!   regions of every layout with strays between them, `get_cells` is it
//!   collected, and the window patch placed off it is the patch of the
//!   swept cells;
//! * `range_agg` pushes down only over columnar regions, and equals the
//!   evaluator's sparse walk bit for bit;
//! * `snapshot()` equals a `get_cell` sweep of the bounding box;
//! * two cells a million rows apart are read, checkpointed and reopened in
//!   time proportional to the cells, not to the positions between them.

#[path = "common/cells.rs"]
mod cells;

use cells::{SheetCells, StoreCells};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use dataspread_engine::hybrid::{build_translator, HybridSheet, StorageReader};
use dataspread_engine::rom::RomTranslator;
use dataspread_engine::tom::TomTranslator;
use dataspread_engine::translator::value_to_datum;
use dataspread_engine::{ColumnarTranslator, ModelKind, ScanValue, SheetEngine, Translator};
use dataspread_formula::eval::CellReader;
use dataspread_formula::{parse, Evaluator};
use dataspread_grid::codec::Reader;
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue, Rect, Shift, SparseSheet};
use dataspread_proto::WindowPatch;
use dataspread_relstore::{ColumnDef, DataType, Database, Schema};
use dataspread_workspace::window_patch;

const TAPE_LEN: usize = if cfg!(debug_assertions) { 60 } else { 400 };
const SEEDS: std::ops::Range<u64> = if cfg!(debug_assertions) { 0..6 } else { 0..40 };
const RECTS_PER_STEP: usize = 4;

const KINDS: [ModelKind; 4] = [
    ModelKind::Rom,
    ModelKind::Com,
    ModelKind::Rcv,
    ModelKind::Columnar,
];

fn random_cell(rng: &mut StdRng) -> Cell {
    const ERRORS: [CellError; 7] = [
        CellError::Div0,
        CellError::Value,
        CellError::Ref,
        CellError::Name,
        CellError::Na,
        CellError::Num,
        CellError::Circular,
    ];
    let value = match rng.gen_range(0u32..14) {
        0..=2 => CellValue::Number(rng.gen_range(-1000..1000) as f64),
        3..=4 => CellValue::Number(rng.gen_range(-10.0..10.0)),
        5 => CellValue::Bool(rng.gen_bool(0.5)),
        6..=8 => CellValue::Text(["red", "green", "blue"][rng.gen_range(0..3)].into()),
        9 => CellValue::Text("x".repeat(rng.gen_range(60..120))),
        10 => CellValue::Text(String::new()),
        11 => CellValue::Error(ERRORS[rng.gen_range(0..ERRORS.len())]),
        _ => CellValue::Empty,
    };
    let formula = rng
        .gen_bool(0.15)
        .then(|| format!("A{}+1", rng.gen_range(1..50)));
    Cell { value, formula }
}

/// A random sparse region as a row-major run: blank leading, interior and
/// trailing rows, ragged widths.
fn random_run(rng: &mut StdRng) -> (u32, u32, Vec<(CellAddr, Cell)>) {
    let rows = rng.gen_range(1u32..30);
    let cols = rng.gen_range(1u32..9);
    let mut cells = Vec::new();
    if rng.gen_bool(0.1) {
        return (rows, cols, cells);
    }
    let first = rng.gen_range(0..rows);
    let last = rng.gen_range(first..rows);
    for r in first..=last {
        if rng.gen_bool(0.25) {
            continue;
        }
        let width = rng.gen_range(1..=cols);
        for c in 0..width {
            if rng.gen_bool(0.7) {
                cells.push((CellAddr::new(r, c), random_cell(rng)));
            }
        }
    }
    (rows, cols, cells)
}

/// One random edit or structural op (a refusal — a COM column outgrowing
/// its tuple — is as good as any other state to scan).
fn step(rng: &mut StdRng, t: &mut dyn Translator) {
    let rows = t.rows().max(1);
    let cols = t.cols().max(1);
    let _ = match rng.gen_range(0u32..12) {
        0..=4 => t.put_cell(
            rng.gen_range(0..rows + 2),
            rng.gen_range(0..cols + 1),
            random_cell(rng),
        ),
        5 => t.clear_cell(rng.gen_range(0..rows + 2), rng.gen_range(0..cols + 1)),
        6 => {
            let r = rng.gen_range(0..rows + 1);
            let mut batch = Vec::new();
            for c in 0..cols {
                if rng.gen_bool(0.5) {
                    batch.push((c, random_cell(rng)));
                }
            }
            t.put_row(r, batch)
        }
        7 => t.shift(Shift::InsertRows {
            at: rng.gen_range(0..rows + 1),
            n: rng.gen_range(1..3),
        }),
        8 => t.shift(Shift::DeleteRows {
            at: rng.gen_range(0..rows),
            n: rng.gen_range(1..3),
        }),
        9 => t.shift(Shift::InsertCols {
            at: rng.gen_range(0..cols + 1),
            n: rng.gen_range(1..3),
        }),
        _ => t.shift(Shift::DeleteCols {
            at: rng.gen_range(0..cols),
            n: rng.gen_range(1..3),
        }),
    };
}

/// A rect inside, straddling or wholly outside the translator's extent.
fn random_rect(rng: &mut StdRng, t: &dyn Translator) -> Rect {
    let (rows, cols) = (t.rows() + 3, t.cols() + 3);
    let (r1, c1) = match rng.gen_range(0u32..10) {
        0 => (t.rows() + rng.gen_range(0..3), rng.gen_range(0..cols)),
        1 => (rng.gen_range(0..rows), t.cols() + rng.gen_range(0..3)),
        _ => (rng.gen_range(0..rows), rng.gen_range(0..cols)),
    };
    Rect::new(
        r1,
        c1,
        r1 + rng.gen_range(0..rows),
        c1 + rng.gen_range(0..cols),
    )
}

fn scanned(t: &dyn Translator, rect: Rect) -> Vec<(CellAddr, Cell)> {
    let mut out = Vec::new();
    t.scan(rect, &mut |row, col, value, formula| {
        out.push((CellAddr::new(row, col), value.to_cell(formula)));
    });
    out
}

/// The reference reader: one `get_cell` per position of `rect` ∩ extent.
fn probed(t: &dyn Translator, rect: Rect) -> Vec<(CellAddr, Cell)> {
    let mut out = Vec::new();
    for r in rect.r1..=rect.r2.min(t.rows().saturating_sub(1)) {
        for c in rect.c1..=rect.c2.min(t.cols().saturating_sub(1)) {
            if r < t.rows() && c < t.cols() {
                if let Some(cell) = t.get_cell(r, c) {
                    out.push((CellAddr::new(r, c), cell));
                }
            }
        }
    }
    out
}

fn assert_scan_matches_probe(t: &dyn Translator, rect: Rect, ctx: &str) {
    let got = scanned(t, rect);
    assert!(
        got.windows(2)
            .all(|w| (w[0].0.row, w[0].0.col) < (w[1].0.row, w[1].0.col)),
        "{ctx}: scan({rect}) is not strictly row-major"
    );
    assert!(
        got.iter().all(|(_, cell)| !cell.is_blank()),
        "{ctx}: scan({rect}) yielded a blank cell"
    );
    assert_eq!(got, probed(t, rect), "{ctx}: scan({rect})");
    assert_eq!(got, t.get_range(rect), "{ctx}: get_range({rect})");
}

#[test]
fn scan_yields_exactly_what_a_get_cell_loop_finds() {
    for seed in SEEDS {
        for (k, &kind) in KINDS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x5CA7_0000 + seed * 16 + k as u64);
            let (rows, cols, cells) = random_run(&mut rng);
            let ctx = format!("{kind:?} seed {seed}");
            let mut t = build_translator(kind, rows, cols, cells)
                .unwrap_or_else(|e| panic!("{ctx}: build failed: {e}"));
            for op in 0..=TAPE_LEN {
                let ctx = format!("{ctx}, op {op}");
                assert_eq!(
                    scanned(t.as_ref(), dataspread_engine::translator::WHOLE),
                    t.all_cells(),
                    "{ctx}: whole-store scan"
                );
                for _ in 0..RECTS_PER_STEP {
                    let rect = random_rect(&mut rng, t.as_ref());
                    assert_scan_matches_probe(t.as_ref(), rect, &ctx);
                }
                step(&mut rng, t.as_mut());
            }
        }
    }
}

/// Every state the columnar write overlay can be in, each scanned over the
/// whole region, single rows, single columns and rects past the extent —
/// and the window walk (`scan_rect`, empties included) against `get_cell`
/// at every position.
#[test]
fn columnar_scan_in_every_overlay_state() {
    let formula = |v: f64, src: &str| Cell {
        value: CellValue::Number(v),
        formula: Some(src.into()),
    };
    let base = || {
        let rows = (0..40u32).map(|r| {
            vec![
                Cell::value(r as f64),
                Cell::value(["PASS", "FAIL", "PASS"][(r % 3) as usize]),
                if r % 7 == 0 {
                    Cell::default()
                } else {
                    Cell::value(r % 2 == 0)
                },
                if r % 5 == 0 {
                    formula(r as f64 * 2.0, "A1*2")
                } else {
                    Cell::value(r as f64 * 0.5)
                },
            ]
        });
        let mut t = ColumnarTranslator::new(40, 4);
        for (r, row) in (0u32..).zip(rows) {
            for (c, cell) in (0u32..).zip(row) {
                t.put_cell(r, c, cell).unwrap();
            }
        }
        t.compact();
        t
    };
    let check = |t: &ColumnarTranslator, state: &str| {
        let mut rects = vec![
            dataspread_engine::translator::WHOLE,
            Rect::new(0, 0, 39, 3),
            Rect::new(35, 2, 60, 9),
            Rect::new(40, 0, 50, 3),
            Rect::new(0, 4, 39, 6),
        ];
        rects.extend((0..40).step_by(3).map(|r| Rect::new(r, 0, r, 3)));
        rects.extend((0..4).map(|c| Rect::new(0, c, 39, c)));
        for rect in rects {
            assert_scan_matches_probe(t, rect, state);
        }
        let window = Rect::new(3, 0, 44, 5);
        let mut at = (window.r1, window.c1);
        t.scan_rect(window, |row, col, value, src| {
            assert_eq!((row, col), at, "{state}: window walk order");
            at = if col == window.c2 {
                (row + 1, window.c1)
            } else {
                (row, col + 1)
            };
            let want = t.get_cell(row, col).unwrap_or_default();
            assert_eq!(value.to_value(), want.value, "{state}: ({row},{col})");
            assert_eq!(src, want.formula.as_deref(), "{state}: ({row},{col})");
        });
        assert_eq!(at, (window.r2 + 1, window.c1), "{state}: window covered");
    };

    let mut t = base();
    check(&t, "overlay empty");
    // Edits pending: values over values, a formula over a value, a text
    // outside the dictionary, writes that grow the extent.
    t.put_cell(3, 0, Cell::value("edited")).unwrap();
    t.put_cell(4, 1, formula(1.0, "B1+1")).unwrap();
    t.put_cell(17, 2, Cell::value(CellValue::Error(CellError::Na)))
        .unwrap();
    t.put_cell(41, 5, Cell::value(7.5)).unwrap();
    check(&t, "edits pending");
    // A base cell blanked, and a base formula masked by a plain value.
    t.clear_cell(8, 0).unwrap();
    t.clear_cell(9, 1).unwrap();
    t.put_cell(10, 3, Cell::value(99.0)).unwrap();
    t.put_cell(15, 3, Cell::default()).unwrap();
    check(&t, "base cells blanked and a base formula masked");
    let before = t.all_cells();
    t.compact();
    assert_eq!(t.all_cells(), before);
    let image = ColumnarTranslator::from_bytes(&t.to_bytes()).unwrap();
    assert_eq!(
        t.resident_bytes(),
        image.resident_bytes(),
        "nothing pending"
    );
    check(&t, "just compacted");
    // And again with compaction every few writes.
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for i in 0..TAPE_LEN {
        step(&mut rng, &mut t);
        if i % 5 == 4 {
            t.compact();
        }
        if i % 8 == 0 {
            check(&t, &format!("random tape, op {i}"));
        }
    }
}

// ------------------------------------------------- the ordered read --

/// The sheet area the ordered-read tapes play in (cells pushed past it by
/// inserts are stored, just not compared).
const AREA: Rect = Rect {
    r1: 0,
    c1: 0,
    r2: 99,
    c2: 59,
};

/// A store of `kind` holding a random sparse `rows` x `cols` block. A
/// columnar store compacts a random prefix of the block and holds the rest
/// in its write overlay, so tapes start from every overlay state; a linked
/// table lives in `db`.
fn random_store(
    rng: &mut StdRng,
    kind: ModelKind,
    db: &Arc<parking_lot::RwLock<Database>>,
) -> (u32, u32, Box<dyn Translator>) {
    let (rows, cols, cells) = random_run(rng);
    let store: Box<dyn Translator> = match kind {
        ModelKind::Columnar => {
            let mut t = ColumnarTranslator::new(rows, cols);
            let based = rng.gen_range(0..=cells.len());
            let mut cells = cells.into_iter();
            for (addr, cell) in cells.by_ref().take(based) {
                t.put_cell(addr.row, addr.col, cell).unwrap();
            }
            t.compact();
            for (addr, cell) in cells {
                t.put_cell(addr.row, addr.col, cell).unwrap();
            }
            Box::new(t)
        }
        ModelKind::Tom => {
            let columns = (0..cols).map(|c| ColumnDef::new(format!("c{c}"), DataType::Any));
            let mut guard = db.write();
            let table = guard
                .create_table("linked", Schema::new(columns.collect()))
                .unwrap();
            for _ in 0..rows {
                let row: Vec<_> = (0..cols)
                    .map(|_| value_to_datum(&random_cell(rng).value))
                    .collect();
                table.insert(&row).unwrap();
            }
            Box::new(TomTranslator::new(Arc::clone(db), "linked"))
        }
        kind => build_translator(kind, rows, cols, cells).unwrap(),
    };
    (rows, cols, store)
}

/// Where a sheet's tape may write outside its regions: anywhere between
/// and beside them, nowhere (the catch-all stays empty), or only in the
/// top-left corner (the catch-all's extent ends before most rects).
fn stray_area(seed: u64) -> Option<Rect> {
    match seed % 3 {
        0 => Some(Rect::new(0, 0, 79, 49)),
        1 => None,
        _ => Some(Rect::new(0, 0, 2, 2)),
    }
}

/// 1–6 disjoint regions, one per slot of a 2 x 3 grid with room between
/// them, plus strays in the sheet's [`stray_area`].
fn random_sheet(rng: &mut StdRng, seed: u64) -> HybridSheet {
    const ALL: [ModelKind; 5] = [
        ModelKind::Rom,
        ModelKind::Com,
        ModelKind::Rcv,
        ModelKind::Columnar,
        ModelKind::Tom,
    ];
    let mut hs = HybridSheet::new();
    let db = Arc::new(parking_lot::RwLock::new(Database::new()));
    let regions = 1 + (seed as usize) % 6;
    // The last slot first, so a sheet of any size can hold the linked
    // table there: below and right of every other region (see
    // `structural_step`).
    for (i, slot) in (0..6usize).rev().take(regions).enumerate() {
        let kind = match ALL[(seed as usize + i) % ALL.len()] {
            ModelKind::Tom if slot != 5 => ModelKind::Columnar,
            kind => kind,
        };
        let (rows, cols, store) = random_store(rng, kind, &db);
        let r1 = (slot as u32 / 3) * 36 + rng.gen_range(0..4);
        let c1 = (slot as u32 % 3) * 14 + rng.gen_range(0..4);
        hs.add_region(Rect::new(r1, c1, r1 + rows - 1, c1 + cols - 1), store)
            .unwrap();
    }
    for _ in 0..rng.gen_range(0..40) {
        if let Some(addr) = edit_target(rng, &hs, seed).map(|area| area.top_left()) {
            let _ = hs.put_cell(addr, random_cell(rng));
        }
    }
    hs
}

/// Where the next edit lands: a cell of the sheet's [`stray_area`] or of
/// one of its regions, with the run of that area's columns right of it.
fn edit_target(rng: &mut StdRng, hs: &HybridSheet, seed: u64) -> Option<Rect> {
    let layout = hs.layout();
    let area = match stray_area(seed) {
        Some(area) if layout.is_empty() || rng.gen_bool(0.5) => area,
        _ if layout.is_empty() => return None,
        _ => layout[rng.gen_range(0..layout.len())].0,
    };
    let row = rng.gen_range(area.r1..=area.r2);
    Some(Rect::new(
        row,
        rng.gen_range(area.c1..=area.c2),
        row,
        area.c2,
    ))
}

/// One random row/column insert or delete. A linked table refuses schema
/// edits and middle inserts, and the sheet applies a structural edit store
/// by store, so with one on the sheet the edit stays above and left of it.
fn structural_step(rng: &mut StdRng, hs: &mut HybridSheet) {
    let tom = hs
        .layout()
        .into_iter()
        .find(|(_, kind)| *kind == ModelKind::Tom)
        .map(|(rect, _)| rect);
    let rows = tom.map_or(AREA.r2, |t| t.r1);
    let cols = tom.map_or(AREA.c2, |t| t.c1);
    let n = rng.gen_range(1..3);
    match rng.gen_range(0u32..4) {
        0 => hs
            .shift(Shift::InsertRows {
                at: rng.gen_range(0..=rows),
                n,
            })
            .unwrap(),
        1 if rows >= n => hs
            .shift(Shift::DeleteRows {
                at: rng.gen_range(0..=rows - n),
                n,
            })
            .unwrap(),
        2 => hs
            .shift(Shift::InsertCols {
                at: rng.gen_range(0..=cols),
                n,
            })
            .unwrap(),
        3 if cols >= n => hs
            .shift(Shift::DeleteCols {
                at: rng.gen_range(0..=cols - n),
                n,
            })
            .unwrap(),
        _ => {}
    }
}

/// A rect of each shape the ordered read distinguishes: inside one region,
/// around two to four regions and the strays between them, small ones
/// that mostly meet only the catch-all, wholly outside everything, and
/// anything at all.
fn sheet_rect(rng: &mut StdRng, hs: &HybridSheet) -> Rect {
    // Regions as far as the compared area reaches.
    let layout: Vec<Rect> = hs
        .layout()
        .iter()
        .filter_map(|(region, _)| region.intersection(&AREA))
        .collect();
    let within = |rng: &mut StdRng, outer: Rect| {
        let r1 = rng.gen_range(outer.r1..=outer.r2);
        let c1 = rng.gen_range(outer.c1..=outer.c2);
        Rect::new(
            r1,
            c1,
            rng.gen_range(r1..=outer.r2),
            rng.gen_range(c1..=outer.c2),
        )
    };
    match rng.gen_range(0u32..6) {
        0 | 1 if !layout.is_empty() => {
            let region = layout[rng.gen_range(0..layout.len())];
            within(rng, region)
        }
        2 if layout.len() >= 2 => {
            let mut bbox = layout[rng.gen_range(0..layout.len())];
            for _ in 0..rng.gen_range(1..4) {
                bbox = bbox.bbox_union(&layout[rng.gen_range(0..layout.len())]);
            }
            bbox
        }
        3 => {
            let r1 = rng.gen_range(0..AREA.r2 - 3);
            let c1 = rng.gen_range(0..AREA.c2 - 3);
            Rect::new(r1, c1, r1 + rng.gen_range(0..4), c1 + rng.gen_range(0..4))
        }
        4 => Rect::new(
            500,
            500,
            500 + rng.gen_range(0..30),
            500 + rng.gen_range(0..9),
        ),
        _ => within(rng, AREA),
    }
}

#[test]
fn the_ordered_scan_reads_a_sheet_as_a_get_cell_sweep_would() {
    // How many checked rects met no region, sat inside one, crossed one's
    // edge, crossed several, and crossed several on a sheet with no stray.
    let mut shapes = [0usize; 5];
    let mut kinds_seen = std::collections::HashSet::new();
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(0x0DE2_ED00 + seed);
        let mut hs = random_sheet(&mut rng, seed);
        kinds_seen.extend(hs.layout().into_iter().map(|(_, kind)| kind));
        for op in 0..=TAPE_LEN {
            // The reference: every position of the area, probed.
            let mut swept: Vec<(CellAddr, Cell)> = Vec::new();
            for addr in AREA.iter() {
                swept.extend(hs.get_cell(addr).map(|cell| (addr, cell)));
            }
            for _ in 0..RECTS_PER_STEP + 2 {
                let rect = sheet_rect(&mut rng, &hs);
                let ctx = format!("seed {seed}, op {op}, {rect}");
                let want: Vec<(CellAddr, Cell)> = swept
                    .iter()
                    .filter(|(addr, _)| rect.contains(*addr))
                    .cloned()
                    .collect();
                let mut got: Vec<(CellAddr, Cell)> = Vec::new();
                hs.scan(rect, |row, col, value, formula| {
                    got.push((CellAddr::new(row, col), value.to_cell(formula)));
                });
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "{ctx}: not strictly row-major"
                );
                assert_eq!(got, want, "{ctx}: scan");
                assert_eq!(hs.get_cells(rect), got, "{ctx}: get_cells");
                let patch = window_patch(&hs, rect);
                assert_eq!(patch, WindowPatch::from_cells(rect, got), "{ctx}: patch");
                let mut bytes = Vec::new();
                patch.encode(&mut bytes);
                let decoded = WindowPatch::decode(&mut Reader::new(&bytes)).unwrap();
                assert_eq!(decoded, patch, "{ctx}: patch round trip");

                let crossing: Vec<Rect> = hs
                    .layout()
                    .into_iter()
                    .filter_map(|(region, _)| region.intersection(&rect))
                    .collect();
                shapes[match crossing[..] {
                    [] => 0,
                    [hit] if hit == rect => 1,
                    [_] => 2,
                    _ if stray_area(seed).is_some() => 3,
                    _ => 4,
                }] += 1;
            }
            // A refused write (a COM tuple past its page, a cell beyond a
            // linked table) changes nothing that matters.
            match (rng.gen_range(0u32..10), edit_target(&mut rng, &hs, seed)) {
                (0..=1, _) | (_, None) => structural_step(&mut rng, &mut hs),
                (2, Some(run)) => {
                    let mut batch = Vec::new();
                    for c in run.c1..=run.c2 {
                        if rng.gen_bool(0.3) {
                            batch.push((c, random_cell(&mut rng)));
                        }
                    }
                    let _ = hs.put_row(run.r1, batch);
                }
                (3, Some(run)) => drop(hs.clear_cell(run.top_left())),
                (_, Some(run)) => drop(hs.put_cell(run.top_left(), random_cell(&mut rng))),
            }
        }
    }
    assert!(
        shapes.iter().all(|&n| n > 20),
        "every rect shape is under test: {shapes:?}"
    );
    assert_eq!(kinds_seen.len(), 5, "every layout is under test");
}

// ------------------------------------------------------- range_agg --

/// [`StorageReader`] with the aggregate push-down switched off: the
/// evaluator folds its sparse walk over `for_each_value`.
struct SparseWalk<'a>(StorageReader<'a>);

impl CellReader for SparseWalk<'_> {
    fn value(&self, addr: CellAddr) -> CellValue {
        self.0.value(addr)
    }
    fn for_each_value(&self, rect: Rect, f: &mut dyn FnMut(CellAddr, ScanValue<'_>)) {
        self.0.for_each_value(rect, f)
    }
}

fn bits(v: &CellValue) -> (u64, CellValue) {
    match v {
        CellValue::Number(n) => (n.to_bits(), CellValue::Empty),
        other => (0, other.clone()),
    }
}

/// A column mixing everything an aggregate must skip, count or abort on.
fn agg_cell(rng: &mut StdRng, errors: bool) -> Cell {
    match rng.gen_range(0u32..12) {
        0..=3 => Cell::value(rng.gen_range(-1e6..1e6)),
        4..=5 => Cell::value(rng.gen_range(-50..50) as f64 / 3.0),
        6 => Cell::value(["a", "", "text"][rng.gen_range(0..3)]),
        7 => Cell::value(rng.gen_bool(0.5)),
        8 => Cell {
            value: CellValue::Empty,
            formula: Some("A1".into()),
        },
        9 if errors => Cell::value(CellValue::Error(
            [CellError::Div0, CellError::Na, CellError::Ref][rng.gen_range(0..3)],
        )),
        _ => Cell::default(),
    }
}

#[test]
fn range_agg_equals_the_evaluators_sparse_walk_bit_for_bit() {
    let evaluator = Evaluator::new();
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(0xA66 + seed);
        let mut hs = HybridSheet::new();
        // Four stacked 40x3 regions, one per layout, 10 blank rows apart;
        // odd seeds carry no error values so sums are compared too.
        let regions: Vec<(Rect, ModelKind)> = KINDS
            .iter()
            .enumerate()
            .map(|(i, &kind)| (Rect::new(i as u32 * 50, 2, i as u32 * 50 + 39, 4), kind))
            .collect();
        for &(rect, kind) in &regions {
            let translator = build_translator(kind, 40, 3, Vec::new());
            hs.add_region(rect, translator.unwrap()).unwrap();
            for r in rect.r1..=rect.r2 {
                for c in rect.c1..=rect.c2 {
                    let cell = agg_cell(&mut rng, seed % 2 == 0);
                    hs.put_cell(CellAddr::new(r, c), cell).unwrap();
                }
            }
        }
        hs.put_cell(CellAddr::new(45, 3), Cell::value(1.0)).unwrap();
        let layout: Vec<_> = hs.layout().iter().map(|(_, kind)| *kind).collect();
        assert_eq!(layout, KINDS, "every layout is under test");

        for _ in 0..if cfg!(debug_assertions) { 60 } else { 400 } {
            let (rect, kind) = regions[rng.gen_range(0..regions.len())];
            let col = rng.gen_range(rect.c1..=rect.c2);
            let r1 = rng.gen_range(rect.r1..=rect.r2);
            let inside = Rect::new(r1, col, rng.gen_range(r1..=rect.r2), col);
            // Only a columnar region pushes the aggregate down; every other
            // layout leaves the evaluator to fold its own walk.
            if kind != ModelKind::Columnar {
                assert_eq!(hs.range_agg(inside), None, "{kind:?} seed {seed} {inside}");
            } else {
                let agg = hs.range_agg(inside).unwrap_or_else(|| {
                    panic!("seed {seed}: no push-down for {inside} inside a columnar region")
                });
                // The fold the evaluator's walk performs, cell by cell.
                let (mut sum, mut numbers, mut nonempty, mut error) = (0.0f64, 0u64, 0u64, None);
                for (_, cell) in hs.get_cells(inside) {
                    match cell.value {
                        CellValue::Number(n) => {
                            sum += n;
                            numbers += 1;
                            nonempty += 1;
                        }
                        CellValue::Error(e) => {
                            error = Some(e);
                            break;
                        }
                        CellValue::Empty => {}
                        _ => nonempty += 1,
                    }
                }
                assert_eq!(agg.error, error, "seed {seed} {inside}");
                assert_eq!(
                    (agg.sum.to_bits(), agg.numbers, agg.nonempty),
                    (sum.to_bits(), numbers, nonempty),
                    "seed {seed} {inside}"
                );
            }
            // And the evaluator itself, with the push-down against without.
            for name in ["SUM", "COUNT", "COUNTA", "AVERAGE"] {
                let a1 = |r: u32, c: u32| CellAddr::new(r, c).to_a1();
                let expr = parse(&format!(
                    "{name}({}:{})",
                    a1(inside.r1, inside.c1),
                    a1(inside.r2, inside.c2)
                ))
                .unwrap();
                let fast = evaluator.eval(&expr, &StorageReader(&hs));
                let slow = evaluator.eval(&expr, &SparseWalk(StorageReader(&hs)));
                assert_eq!(
                    bits(&fast),
                    bits(&slow),
                    "{kind:?} seed {seed} {name}({inside})"
                );
            }
        }
        // No single store serves these: two regions, a region and the
        // catch-all, two columns, the catch-all alone.
        for rect in [
            Rect::new(30, 3, 60, 3),
            Rect::new(30, 3, 45, 3),
            Rect::new(0, 2, 10, 3),
            Rect::new(41, 3, 48, 3),
        ] {
            assert_eq!(hs.range_agg(rect), None, "seed {seed} {rect}");
        }
    }
}

/// The evaluator reads ranges through the ordered scan: over a range
/// holding two errors, every aggregate returns the *first* in row-major
/// order — whichever store it sits in, and whether the store walks its
/// rows or (COM) its columns — exactly as over an in-memory sheet.
/// (`COUNTIF` counts matches and never propagated errors; it only has to
/// agree.)
#[test]
fn the_first_error_in_row_major_order_wins_through_every_reader() {
    let evaluator = Evaluator::new();
    let error = |e| Cell::value(CellValue::Error(e));
    // Region C1:E10; column F is the catch-all's.
    let region = Rect::new(0, 2, 9, 4);
    for kind in KINDS {
        // (first error, second error), the second earlier in column-major
        // order; then a catch-all error before, and after, the region's.
        for (first, second) in [
            (CellAddr::new(4, 3), CellAddr::new(5, 2)),
            (CellAddr::new(3, 5), CellAddr::new(4, 2)),
            (CellAddr::new(4, 2), CellAddr::new(6, 5)),
        ] {
            let mut hs = HybridSheet::new();
            let store = build_translator(kind, 10, 3, Vec::new());
            hs.add_region(region, store.unwrap()).unwrap();
            for addr in Rect::new(0, 2, 9, 5).iter() {
                let cell = match (addr.row + addr.col) % 4 {
                    0 => Cell::value("t"),
                    1 => Cell::default(),
                    _ => Cell::value(f64::from(addr.row * 10 + addr.col)),
                };
                hs.put_cell(addr, cell).unwrap();
            }
            hs.put_cell(first, error(CellError::Na)).unwrap();
            hs.put_cell(second, error(CellError::Div0)).unwrap();
            let sheet = hs.snapshot(true);
            let range = if first.col == 5 || second.col == 5 {
                "C1:F10"
            } else {
                "C1:E10"
            };
            for name in [
                "SUM", "COUNT", "COUNTA", "AVERAGE", "MIN", "MAX", "MEDIAN", "CONCAT",
            ] {
                let expr = parse(&format!("{name}({range})")).unwrap();
                let ctx = format!("{kind:?} {name}({range}), errors at {first} then {second}");
                let stored = evaluator.eval(&expr, &SparseWalk(StorageReader(&hs)));
                assert_eq!(stored, CellValue::Error(CellError::Na), "{ctx}: storage");
                let in_memory = evaluator.eval(&expr, &dataspread_formula::SheetReader(&sheet));
                assert_eq!(in_memory, stored, "{ctx}: in-memory sheet");
            }
            let expr = parse(&format!("COUNTIF({range},\">40\")")).unwrap();
            let stored = evaluator.eval(&expr, &StorageReader(&hs));
            assert!(
                matches!(stored, CellValue::Number(n) if n > 0.0),
                "{stored:?}"
            );
            assert_eq!(
                evaluator.eval(&expr, &dataspread_formula::SheetReader(&sheet)),
                stored,
                "{kind:?} COUNTIF({range})"
            );
        }
    }
}

// -------------------------------------------------------- snapshot --

#[test]
fn snapshot_equals_a_get_cell_sweep_of_the_bounding_box() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(0x5AA9 + seed);
        let mut hs = HybridSheet::new();
        for (i, &kind) in KINDS.iter().enumerate() {
            let (rows, cols, cells) = random_run(&mut rng);
            let rect = Rect::new(
                i as u32 * 40 + 3,
                (i as u32 % 2) * 12 + 1,
                i as u32 * 40 + 2 + rows,
                (i as u32 % 2) * 12 + cols,
            );
            let t = build_translator(kind, rows, cols, cells).unwrap();
            hs.add_region(rect, t).unwrap();
        }
        for _ in 0..TAPE_LEN {
            let addr = CellAddr::new(rng.gen_range(0..170), rng.gen_range(0..24));
            // A refused write (a COM tuple past its page) changes nothing.
            let _ = hs.put_cell(addr, random_cell(&mut rng));
        }
        let snapshot = hs.snapshot(true);
        let mut swept = SparseSheet::new();
        for r in 0..200 {
            for c in 0..40 {
                if let Some(cell) = hs.get_cell(CellAddr::new(r, c)) {
                    swept.set(CellAddr::new(r, c), cell);
                }
            }
        }
        assert_eq!(snapshot, swept, "seed {seed}");
        assert_eq!(
            snapshot.filled_count() as u64,
            hs.filled_count(),
            "seed {seed}"
        );
        let occupancy = hs.occupancy(true);
        assert_eq!(
            occupancy,
            dataspread_hybrid::Occupancy::of(&snapshot),
            "seed {seed}: occupancy off the scan"
        );
    }
}

// ------------------------------------------- far cells in an RCV store --

/// Regression: an RCV range read used to probe every *position* of
/// `rect` ∩ extent, and the catch-all is an RCV read over the whole sheet —
/// so one cell at a far address cost rows × cols probes (1.6 × 10¹⁰ here)
/// per snapshot, per `get_cells` over the extent and per checkpoint, under
/// the sheet's write lock. The scan visits the cells that exist.
#[test]
fn two_cells_a_million_rows_apart_cost_two_cells() {
    let dir = std::env::temp_dir().join(format!("dataspread-scan-far-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let far = CellAddr::new(1_000_000, 16_000);
    let want = vec![
        (CellAddr::new(0, 0), Cell::value(1.0)),
        (far, Cell::value("far")),
    ];
    let check = |engine: &SheetEngine, when: &str| {
        let snapshot = engine.snapshot();
        let cells: Vec<(CellAddr, Cell)> = snapshot.iter().map(|(a, c)| (a, c.clone())).collect();
        assert_eq!(cells, want, "{when}: snapshot");
        let bbox = Rect::new(0, 0, far.row, far.col);
        assert_eq!(engine.get_cells(bbox), want, "{when}: get_cells({bbox})");
        assert_eq!(
            engine.get_cells(Rect::new(1, 0, far.row - 1, far.col)),
            vec![],
            "{when}: the gap"
        );
    };
    {
        let mut engine = SheetEngine::open(&dir).unwrap();
        engine.update_cell(CellAddr::new(0, 0), "1").unwrap();
        engine.update_cell(far, "far").unwrap();
        check(&engine, "live");
        let report = engine.checkpoint().unwrap().expect("durable");
        assert_eq!(report.regions_dirty, 1, "the catch-all");
        check(&engine, "checkpointed");
    }
    let mut engine = SheetEngine::open(&dir).unwrap();
    check(&engine, "reopened");
    // The reopened catch-all is a working store, far rows included.
    engine.update_cell(CellAddr::new(far.row, 0), "2").unwrap();
    assert_eq!(
        engine.value(CellAddr::new(far.row, 0)),
        CellValue::Number(2.0)
    );
    assert_eq!(engine.storage().filled_count(), 3);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// A visitor is handed borrowed values, and formula sources beside them.
#[test]
fn scan_values_borrow_and_formulas_ride_along() {
    let mut rom = RomTranslator::new();
    rom.put_cell(1, 1, Cell::value("text")).unwrap();
    rom.put_cell(
        2,
        0,
        Cell {
            value: CellValue::Error(CellError::Div0),
            formula: Some("1/0".into()),
        },
    )
    .unwrap();
    let mut seen = Vec::new();
    rom.scan(
        dataspread_engine::translator::WHOLE,
        &mut |row, col, value, formula| {
            seen.push((row, col, format!("{value:?}"), formula.map(str::to_string)));
        },
    );
    assert_eq!(
        seen,
        vec![
            (1, 1, format!("{:?}", ScanValue::Text("text")), None),
            (
                2,
                0,
                format!("{:?}", ScanValue::Error(CellError::Div0)),
                Some("1/0".to_string())
            ),
        ]
    );
}
