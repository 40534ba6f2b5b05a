//! Differential suite for band-intersection recompute seeding on
//! structural edits.
//!
//! The reference is [`RefSheet`], a dense sheet whose references name
//! cells by row and column identity, so it moves them through an edit
//! with no reference rewrite, and which evaluates every formula afresh on
//! read. The engine rewrites references in place and seeds only formulas
//! whose read windows intersect the shift band (plus freshly `#REF!`'d
//! cells). Random tapes of edits and reference-full formulas are replayed
//! into both; the whole sheet (values *and* formula text) must agree
//! after every op, while the engine's structural edits must evaluate
//! strictly fewer cells than a full recompute after each would.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::{EngineError, SheetEngine};
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue, Rect};
use dataspread_sim::RefSheet;

const ROWS: u32 = 28;
const COLS: u32 = 10;

fn a1(row: u32, col: u32) -> String {
    format!("{}{}", (b'A' + col as u8) as char, row + 1)
}

#[derive(Debug, Clone)]
enum Op {
    Set(CellAddr, String),
    InsertRows(u32, u32),
    DeleteRows(u32, u32),
    InsertCols(u32, u32),
    DeleteCols(u32, u32),
}

/// Random tape: number pokes, point refs, range aggregates over random
/// rects, and a steady drip of structural edits that land above, inside,
/// and below the live formulas.
fn tape(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = match rng.gen_range(0..100u32) {
            0..=39 => {
                let addr = CellAddr::new(rng.gen_range(0..ROWS), rng.gen_range(0..COLS));
                Op::Set(addr, format!("{}", rng.gen_range(-40..40i64)))
            }
            40..=54 => {
                let addr = CellAddr::new(rng.gen_range(0..ROWS), rng.gen_range(0..COLS));
                let tgt = a1(rng.gen_range(0..ROWS), rng.gen_range(0..COLS));
                Op::Set(addr, format!("={tgt}*2+1"))
            }
            55..=69 => {
                let addr = CellAddr::new(rng.gen_range(0..ROWS), rng.gen_range(0..COLS));
                let r0 = rng.gen_range(0..ROWS - 4);
                let c0 = rng.gen_range(0..COLS - 2);
                let corner = a1(
                    r0 + rng.gen_range(1..5u32).min(ROWS - 1 - r0),
                    c0 + rng.gen_range(0..2u32),
                );
                let f = ["SUM", "COUNT", "AVERAGE", "COUNTA"][rng.gen_range(0..4)];
                Op::Set(addr, format!("={f}({}:{corner})", a1(r0, c0)))
            }
            _ => {
                let at = rng.gen_range(0..ROWS);
                let n = rng.gen_range(1..=3u32);
                match rng.gen_range(0..4u32) {
                    0 => Op::InsertRows(at, n),
                    1 => Op::DeleteRows(at, n),
                    2 => Op::InsertCols(at % COLS, n),
                    _ => Op::DeleteCols(at % COLS, n),
                }
            }
        };
        ops.push(op);
    }
    ops
}

fn apply(e: &mut SheetEngine, op: &Op) {
    match op {
        Op::Set(addr, input) => e.update_cell(*addr, input).expect("set"),
        Op::InsertRows(at, n) => e.insert_rows(*at, *n).expect("insert rows"),
        Op::DeleteRows(at, n) => e.delete_rows(*at, *n).expect("delete rows"),
        Op::InsertCols(at, n) => e.insert_cols(*at, *n).expect("insert cols"),
        Op::DeleteCols(at, n) => e.delete_cols(*at, *n).expect("delete cols"),
    }
}

fn apply_to_reference(model: &mut RefSheet, op: &Op) {
    match op {
        Op::Set(addr, input) => model.set(*addr, input),
        Op::InsertRows(at, n) => model.insert_rows(*at, *n),
        Op::DeleteRows(at, n) => model.delete_rows(*at, *n),
        Op::InsertCols(at, n) => model.insert_cols(*at, *n),
        Op::DeleteCols(at, n) => model.delete_cols(*at, *n),
    }
}

/// Every cell of the sheet, wherever the edits moved it.
fn snapshot(e: &SheetEngine) -> Vec<(CellAddr, Cell)> {
    e.snapshot().iter().map(|(a, c)| (a, c.clone())).collect()
}

#[test]
fn band_seeding_matches_reference_sheet() {
    for seed in 0..6u64 {
        let mut model = RefSheet::new();
        let mut optimized = SheetEngine::new();
        // Cells a full recompute after each structural edit would
        // evaluate (every formula left), and cells the optimized engine's
        // structural edits evaluated.
        let (mut full, mut seeded) = (0u64, 0u64);
        for (step, op) in tape(0x5F1F_0001 + seed, 160).iter().enumerate() {
            let structural = !matches!(op, Op::Set(..));
            apply_to_reference(&mut model, op);
            if structural {
                full += model.formula_count() as u64;
            }
            let before = optimized.cells_recomputed();
            apply(&mut optimized, op);
            if structural {
                seeded += optimized.cells_recomputed() - before;
            }
            model.assert_matches(
                snapshot(&optimized),
                &format!("seed {seed} step {step} {op:?}"),
            );
        }
        // The point of band seeding: strictly less evaluation work on
        // tapes where most structural edits miss most formula windows.
        assert!(
            seeded < full,
            "seed {seed}: optimized path did not save work ({seeded} vs {full})"
        );
    }
}

#[test]
fn formulas_above_band_keep_cached_values() {
    // An edit at row 20 must not evict or recompute the stack of
    // formulas living entirely in rows 0..5.
    let mut e = SheetEngine::new();
    for r in 0..5u32 {
        e.update_cell(CellAddr::new(r, 0), &format!("{}", r + 1))
            .unwrap();
        e.update_cell(CellAddr::new(r, 1), &format!("=A{}*10", r + 1))
            .unwrap();
    }
    let before = e.cells_recomputed();
    e.insert_rows(20, 3).unwrap();
    e.delete_rows(21, 2).unwrap();
    assert_eq!(
        e.cells_recomputed(),
        before,
        "edits below recomputed nothing"
    );
    for r in 0..5u32 {
        assert_eq!(
            e.value(CellAddr::new(r, 1)),
            dataspread_grid::CellValue::Number(((r + 1) * 10) as f64)
        );
    }
}

/// Regression: `DeleteRows`/`DeleteCols` arrive from the socket unchecked,
/// and one whose `at + n` passes `u32::MAX` used to add in `u32` — a panic
/// under the sheet's write lock in a debug build; in a release build the
/// wrapped sum moved an imported region *down* a row, kept cells that
/// should have died, and logged the op for replay to repeat. The count is
/// clamped instead: everything from `at` on goes, nothing else moves.
#[test]
fn a_delete_reaching_past_the_last_row_or_column_deletes_to_the_end() {
    for by_rows in [true, false] {
        // `at(i, j)`: `i` along the deleted axis, `j` across it.
        let at = |i: u32, j: u32| {
            if by_rows {
                CellAddr::new(i, j)
            } else {
                CellAddr::new(j, i)
            }
        };
        let dir = std::env::temp_dir().join(format!(
            "dataspread-shift-overflow-{}-{by_rows}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut e = SheetEngine::open(&dir).unwrap();
        e.update_cell(at(0, 0), "1").unwrap();
        // Kept formulas: one reading only the deleted band, one reading
        // only kept cells, one whose range straddles the cut.
        e.update_cell(at(2, 1), &format!("={}+1", at(7, 0).to_a1()))
            .unwrap();
        e.update_cell(at(3, 0), &format!("={}*3", at(0, 0).to_a1()))
            .unwrap();
        let straddling = format!("=SUM({}:{})", at(0, 0).to_a1(), at(19, 0).to_a1());
        e.update_cell(at(4, 1), &straddling).unwrap();
        // Deleted: a value, a formula, a far stray and an imported region.
        e.update_cell(at(7, 0), "40").unwrap();
        e.update_cell(at(9, 1), &format!("={}+2", at(0, 0).to_a1()))
            .unwrap();
        e.update_cell(at(1000, 3), "far").unwrap();
        let block = |len: usize, n: usize| vec![vec![CellValue::Number(7.0); len]; n];
        if by_rows {
            e.import_rows(at(20, 0), 2, block(2, 5)).unwrap();
        } else {
            e.import_rows(at(20, 0), 5, block(5, 2)).unwrap();
        }
        assert_eq!(e.value(at(4, 1)), CellValue::Number(44.0));

        if by_rows {
            e.delete_rows(5, u32::MAX).unwrap();
        } else {
            e.delete_cols(5, u32::MAX).unwrap();
        }

        let live = e.snapshot();
        let kept: Vec<(CellAddr, CellValue)> =
            live.iter().map(|(a, c)| (a, c.value.clone())).collect();
        let mut want = vec![
            (at(0, 0), CellValue::Number(1.0)),
            (at(2, 1), CellValue::Error(CellError::Ref)),
            (at(3, 0), CellValue::Number(3.0)),
            (at(4, 1), CellValue::Number(4.0)),
        ];
        want.sort_by_key(|(a, _)| *a);
        assert_eq!(kept, want, "by_rows {by_rows}: what survives the delete");
        assert_eq!(e.storage().region_count(), 0, "the imported region is gone");

        // The op was logged unclamped; replay must rebuild the same sheet.
        e.save().unwrap();
        drop(e);
        let reopened = SheetEngine::open(&dir).unwrap();
        assert_eq!(reopened.snapshot(), live, "by_rows {by_rows}: WAL replay");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Regression, the insert twin of the delete above: an insert whose `n`
/// pushes content past `u32::MAX` used to add in `u32` — a panic under
/// the sheet's write lock in a debug build; in a release build an imported
/// region at rows 20–24 wrapped to rows 16–20, a formula reading rows past
/// the cut was rewritten onto the wrong cells, and the op was logged for
/// replay to repeat. Now an insert that would push a region off the sheet
/// is refused before anything moves and logs nothing, and one that only
/// pushes *references* off goes through with those formulas at `#REF!`.
#[test]
fn an_insert_pushing_content_past_the_last_row_or_column_is_refused() {
    for by_rows in [true, false] {
        // `at(i, j)`: `i` along the inserted axis, `j` across it.
        let at = |i: u32, j: u32| {
            if by_rows {
                CellAddr::new(i, j)
            } else {
                CellAddr::new(j, i)
            }
        };
        let insert = |e: &mut SheetEngine, n: u32| {
            if by_rows {
                e.insert_rows(5, n)
            } else {
                e.insert_cols(5, n)
            }
        };
        let dir = std::env::temp_dir().join(format!(
            "dataspread-insert-overflow-{}-{by_rows}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let mut e = SheetEngine::open(&dir).unwrap();
        // Before the cut: a value, a formula reading only cells past the
        // cut, and one reading only cells before it.
        e.update_cell(at(0, 0), "1").unwrap();
        let past_the_cut = format!("=SUM({}:{})", at(99, 0).to_a1(), at(199, 0).to_a1());
        e.update_cell(at(1, 0), &past_the_cut).unwrap();
        e.update_cell(at(2, 1), &format!("={}+1", at(0, 0).to_a1()))
            .unwrap();
        let block = |len: usize, n: usize| vec![vec![CellValue::Number(7.0); len]; n];
        if by_rows {
            e.import_rows(at(20, 0), 2, block(2, 5)).unwrap();
        } else {
            e.import_rows(at(20, 0), 5, block(5, 2)).unwrap();
        }

        let before = e.snapshot();
        let logged = |e: &SheetEngine| e.persistence_stats().unwrap().ops_since_checkpoint;
        let logged_before = logged(&e);
        for n in [u32::MAX - 3, u32::MAX - 23, u32::MAX] {
            match insert(&mut e, n) {
                Err(EngineError::Unsupported(_)) => {}
                other => panic!("by_rows {by_rows}, n {n}: expected a refusal, got {other:?}"),
            }
            assert_eq!(
                e.snapshot(),
                before,
                "by_rows {by_rows}, n {n}: nothing moved"
            );
            assert_eq!(
                logged(&e),
                logged_before,
                "by_rows {by_rows}, n {n}: nothing logged"
            );
        }

        // The largest insert that keeps the region on the sheet goes
        // through; the formula whose whole range is pushed off is `#REF!`.
        insert(&mut e, u32::MAX - 24).unwrap();
        assert_eq!(e.value(at(u32::MAX - 4, 0)), CellValue::Number(7.0));
        assert_eq!(e.value(at(u32::MAX, 1)), CellValue::Number(7.0));
        assert_eq!(e.value(at(1, 0)), CellValue::Error(CellError::Ref));
        assert_eq!(e.value(at(2, 1)), CellValue::Number(2.0));
        assert_eq!(e.snapshot().filled_count(), before.filled_count());
        assert_eq!(logged(&e), logged_before + 1);

        let live = e.snapshot();
        e.save().unwrap();
        drop(e);
        let reopened = SheetEngine::open(&dir).unwrap();
        assert_eq!(reopened.snapshot(), live, "by_rows {by_rows}: WAL replay");
        drop(reopened);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Regression: an insert landing inside a region that would stretch it
/// past [`MAX_POSITIONS`] on that axis is refused before anything moves.
/// RCV refused such an insert only after the regions before it had moved
/// — a columnar region beside an RCV one was left stretched, one of its
/// cells gone, and nothing logged, so memory and WAL disagreed — and ROM
/// and COM had no cap at all: every inserted position was materialized,
/// so a count of ~4×10⁹ held the sheet for many minutes.
#[test]
fn an_insert_stretching_a_region_past_the_position_cap_is_refused() {
    use dataspread_engine::hybrid::build_translator;
    use dataspread_engine::ModelKind;
    use dataspread_posmap::MAX_POSITIONS;
    let layouts: [&[ModelKind]; 4] = [
        &[ModelKind::Rom],
        &[ModelKind::Com],
        &[ModelKind::Rcv],
        &[ModelKind::Columnar, ModelKind::Rcv],
    ];
    for by_rows in [true, false] {
        // `at(i, j)`: `i` along the inserted axis, `j` across it.
        let at = |i: u32, j: u32| {
            if by_rows {
                CellAddr::new(i, j)
            } else {
                CellAddr::new(j, i)
            }
        };
        let insert = |e: &mut SheetEngine, n: u32| {
            if by_rows {
                e.insert_rows(5, n)
            } else {
                e.insert_cols(5, n)
            }
        };
        for (l, kinds) in layouts.iter().enumerate() {
            let ctx = format!("by_rows {by_rows}, {kinds:?}");
            let dir = std::env::temp_dir().join(format!(
                "dataspread-insert-cap-{}-{by_rows}-{l}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            let mut e = SheetEngine::open(&dir).unwrap();
            // Side by side across the axis: 10 long along it, 4 wide.
            for (k, &kind) in kinds.iter().enumerate() {
                let (first, last) = (at(0, 5 * k as u32), at(9, 5 * k as u32 + 3));
                let rect = Rect::new(first.row, first.col, last.row, last.col);
                let local = Rect::new(0, 0, rect.rows() as u32 - 1, rect.cols() as u32 - 1);
                let cells: Vec<_> = local
                    .iter()
                    .map(|a| (a, Cell::value(i64::from(a.row * 100 + a.col) + 1)))
                    .collect();
                let t = build_translator(kind, local.r2 + 1, local.c2 + 1, cells).unwrap();
                e.storage_mut().add_region(rect, t).unwrap();
            }
            e.checkpoint().unwrap();

            let before = e.snapshot();
            let layout = e.storage().layout();
            let logged = |e: &SheetEngine| e.persistence_stats().unwrap().ops_since_checkpoint;
            let logged_before = logged(&e);
            for n in [MAX_POSITIONS - 9, 70_000_000, u32::MAX - 9] {
                match insert(&mut e, n) {
                    Err(EngineError::Unsupported(_)) => {}
                    other => panic!("{ctx}, n {n}: expected a refusal, got {other:?}"),
                }
                assert_eq!(e.snapshot(), before, "{ctx}, n {n}: nothing moved");
                assert_eq!(e.storage().layout(), layout, "{ctx}, n {n}: no rect moved");
                assert_eq!(logged(&e), logged_before, "{ctx}, n {n}: nothing logged");
            }

            // A modest insert inside still goes through, everywhere.
            insert(&mut e, 1_000).unwrap();
            let grown: Vec<_> = layout
                .iter()
                .map(|&(mut rect, kind)| {
                    if by_rows {
                        rect.r2 += 1_000;
                    } else {
                        rect.c2 += 1_000;
                    }
                    (rect, kind)
                })
                .collect();
            assert_eq!(e.storage().layout(), grown, "{ctx}: every region grew");
            for j in (0..kinds.len() as u32).map(|k| 5 * k) {
                let value = |i: u32| before.get(at(i, j)).unwrap().value.clone();
                assert_eq!(e.value(at(4, j)), value(4), "{ctx}: above the cut");
                assert_eq!(e.value(at(5, j)), CellValue::Empty, "{ctx}: inserted");
                assert_eq!(e.value(at(1_009, j)), value(9), "{ctx}: shifted");
            }
            assert_eq!(logged(&e), logged_before + 1, "{ctx}");

            let live = e.snapshot();
            e.save().unwrap();
            drop(e);
            let reopened = SheetEngine::open(&dir).unwrap();
            assert_eq!(reopened.snapshot(), live, "{ctx}: WAL replay");
            drop(reopened);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Link `A1:B3` (a header and two rows, so the table sits at `A1:B2`), with
/// a text in `D1`, a formula in `D2` and a value in `A9` around it, then
/// assert that `edit` — one a linked table refuses — moves nothing. The
/// table refused it only when the loop over regions reached it, after the
/// catch-all and the regions before it had moved: the edit returned `Err`
/// with the stray text shifted beside the table, or `A9` pushed down.
fn assert_linked_table_refuses(name: &str, edit: fn(&mut SheetEngine) -> Result<(), EngineError>) {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-linked-refusal-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut e = SheetEngine::open(&dir).unwrap();
    let table = [
        ("A1", "id"),
        ("B1", "qty"),
        ("A2", "1"),
        ("B2", "10"),
        ("A3", "2"),
        ("B3", "20"),
    ];
    for (a1, input) in table {
        e.update_cell_a1(a1, input).unwrap();
    }
    e.link_table(Rect::new(0, 0, 2, 1), "t").unwrap();
    for (a1, input) in [("D1", "stray"), ("D2", "=A9*2"), ("A9", "9")] {
        e.update_cell_a1(a1, input).unwrap();
    }

    let before = e.snapshot();
    let layout = e.storage().layout();
    let logged = |e: &SheetEngine| e.persistence_stats().unwrap().ops_since_checkpoint;
    let logged_before = logged(&e);
    match edit(&mut e) {
        Err(EngineError::Unsupported(_)) => {}
        other => panic!("{name}: expected a refusal, got {other:?}"),
    }
    assert_eq!(e.snapshot(), before, "{name}: nothing moved");
    assert_eq!(e.storage().layout(), layout, "{name}: no rect moved");
    assert_eq!(logged(&e), logged_before, "{name}: nothing logged");
    assert_eq!(e.value(CellAddr::new(1, 3)), CellValue::Number(18.0));
    drop(e);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_row_insert_inside_a_linked_table_moves_nothing() {
    assert_linked_table_refuses("insert_rows", |e| e.insert_rows(1, 1));
}

#[test]
fn a_column_insert_inside_a_linked_table_moves_nothing() {
    assert_linked_table_refuses("insert_cols", |e| e.insert_cols(1, 1));
}

#[test]
fn a_column_delete_crossing_a_linked_table_moves_nothing() {
    assert_linked_table_refuses("delete_cols", |e| e.delete_cols(1, 1));
}
