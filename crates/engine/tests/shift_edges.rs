//! Structural edits at the edges of the rectangle rule: a zero count moves
//! nothing, dirties nothing and survives replay, a range written bottom-up
//! moves as the same rectangle as its top-down spelling, a delete reaching
//! past the last row or column deletes to the end, and a formula's text
//! stays as typed until one of its references names another cell.

#[path = "common/cells.rs"]
mod cells;

use cells::SheetCells;
use std::path::PathBuf;

use dataspread_engine::SheetEngine;
use dataspread_grid::value::CellError;
use dataspread_grid::{CellAddr, CellValue, Shift};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dataspread-edges-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn zero_count_shifts_inside_a_region_change_nothing() {
    let dir = temp_dir("zero");
    let mut e = SheetEngine::open(&dir).unwrap();
    let rows = (0..10).map(|r| {
        (0..3)
            .map(|c| CellValue::Number(f64::from(r * 3 + c)))
            .collect()
    });
    e.import_rows(CellAddr::new(0, 0), 3, rows).unwrap();
    // A catch-all formula over the region, in a column the edits cross.
    e.update_cell_a1("E1", "=SUM(A1:C10)").unwrap();
    e.checkpoint().unwrap();
    let (layout, snapshot) = (e.storage().layout(), e.snapshot());

    e.delete_rows(5, 0).unwrap();
    e.delete_cols(1, 0).unwrap();
    e.insert_rows(5, 0).unwrap();
    e.insert_cols(1, 0).unwrap();
    assert_eq!(e.storage().layout(), layout);
    assert_eq!(e.snapshot(), snapshot);
    e.save().unwrap();
    let report = e.checkpoint().unwrap().expect("durable");
    assert_eq!(report.regions_dirty, 0, "{report:?}");

    // The logged edits replay as the same no-ops.
    e.delete_rows(5, 0).unwrap();
    e.insert_cols(1, 0).unwrap();
    e.save().unwrap();
    drop(e);
    let e = SheetEngine::open(&dir).unwrap();
    assert_eq!(e.storage().layout(), layout);
    assert_eq!(e.snapshot(), snapshot);
    drop(e);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_reversed_range_reads_what_its_forward_spelling_reads() {
    // Rows 1-5 and rows 8-17 deleted under `A10:A1` and `A1:A10`.
    for (at, n, sum) in [(0, 5, 40.0), (7, 10, 28.0)] {
        let mut e = SheetEngine::new();
        for r in 0..20 {
            e.update_cell(CellAddr::new(r, 0), &(r + 1).to_string())
                .unwrap();
        }
        e.update_cell_a1("C26", "=SUM(A10:A1)").unwrap();
        e.update_cell_a1("D26", "=SUM(A1:A10)").unwrap();
        e.delete_rows(at, n).unwrap();
        let moved = |a1: &str| {
            Shift::DeleteRows { at, n }
                .apply(CellAddr::parse_a1(a1).unwrap())
                .unwrap()
        };
        let (reversed, forward) = (e.value(moved("C26")), e.value(moved("D26")));
        assert_eq!(reversed, forward, "delete of {n} rows at {at}");
        assert_eq!(forward, CellValue::Number(sum));
    }
}

#[test]
fn a_delete_past_the_end_takes_the_last_row_and_column() {
    let mut e = SheetEngine::new();
    e.update_cell_a1("B1", "=A4294967296").unwrap();
    e.update_cell_a1("B2", "=SUM(A1:A4294967296)").unwrap();
    let last_col = CellAddr::new(0, u32::MAX).to_a1();
    e.update_cell_a1("A3", &format!("={last_col}+1")).unwrap();
    e.delete_rows(5, u32::MAX).unwrap();
    e.delete_cols(5, u32::MAX).unwrap();
    let formula = |a1: &str| {
        e.storage()
            .get_cell(CellAddr::parse_a1(a1).unwrap())
            .and_then(|c| c.formula)
    };
    assert_eq!(
        e.value(CellAddr::parse_a1("B1").unwrap()),
        CellValue::Error(CellError::Ref)
    );
    assert_eq!(formula("B2").as_deref(), Some("SUM(A1:A5)"));
    assert_eq!(
        e.value(CellAddr::parse_a1("A3").unwrap()),
        CellValue::Error(CellError::Ref)
    );
}

#[test]
fn a_formula_keeps_its_typed_text_until_a_reference_names_another_cell() {
    // Typed in F11:F14 over numbers in A1:B6, in spellings the printer
    // would not give back.
    const TYPED: [&str; 4] = ["$a$1", "a1+1", " SUM( A1:A3 )", "SUM($B$2:B5)"];
    let kept = TYPED.map(Some);
    let cases: [(Shift, [Option<&str>; 4]); 7] = [
        // Below everything: nothing moves.
        (Shift::InsertRows { at: 20, n: 1 }, kept),
        // Between the references and the formulas: the formulas move, what
        // they name does not.
        (Shift::InsertRows { at: 8, n: 2 }, kept),
        (Shift::DeleteCols { at: 4, n: 1 }, kept),
        (Shift::DeleteCols { at: 7, n: 3 }, kept),
        // Across the references: only those past the insert name others.
        (
            Shift::InsertRows { at: 2, n: 1 },
            [
                Some("$a$1"),
                Some("a1+1"),
                Some("SUM(A1:A4)"),
                Some("SUM($B$2:B6)"),
            ],
        ),
        // Above everything: every reference names another cell.
        (
            Shift::InsertRows { at: 0, n: 1 },
            [
                Some("$A$2"),
                Some("(A2+1)"),
                Some("SUM(A2:A4)"),
                Some("SUM($B$3:B6)"),
            ],
        ),
        // Column A goes: its references with it, and column B's move left.
        (
            Shift::DeleteCols { at: 0, n: 1 },
            [None, None, None, Some("SUM($A$2:A5)")],
        ),
    ];
    for (shift, want) in cases {
        let mut e = SheetEngine::new();
        for r in 0..6 {
            for c in 0..2 {
                e.update_cell(CellAddr::new(r, c), &(r * 2 + c + 1).to_string())
                    .unwrap();
            }
        }
        let homes: Vec<CellAddr> = (10..14).map(|r| CellAddr::new(r, 5)).collect();
        for (home, src) in homes.iter().zip(TYPED) {
            e.update_cell(*home, &format!("={src}")).unwrap();
        }
        match shift {
            Shift::InsertRows { at, n } => e.insert_rows(at, n),
            Shift::DeleteRows { at, n } => e.delete_rows(at, n),
            Shift::InsertCols { at, n } => e.insert_cols(at, n),
            Shift::DeleteCols { at, n } => e.delete_cols(at, n),
        }
        .unwrap();
        for ((home, src), want) in homes.iter().zip(TYPED).zip(want) {
            let to = shift.apply(*home).unwrap();
            let got = e.storage().get_cell(to).and_then(|c| c.formula);
            assert_eq!(got.as_deref(), want, "{src:?} in {home} under {shift:?}");
        }
    }
}
