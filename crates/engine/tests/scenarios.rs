//! Engine scenario tests: formulas over reorganized storage, cache
//! behaviour, SQL over linked tables, and the paper's operation set
//! (§III) end to end.

use dataspread_engine::hybrid::{build_translator, HybridSheet};
use dataspread_engine::{ModelKind, OptimizeAlgorithm, SheetEngine};
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue, Rect};
use dataspread_hybrid::{CostModel, Decomposition, OptimizerOptions, Region};
use dataspread_relstore::Datum;

fn a(s: &str) -> CellAddr {
    CellAddr::parse_a1(s).unwrap()
}

/// Build a 50-row, 4-column table with a totals row of formulas.
fn seeded_engine() -> SheetEngine {
    let mut e = SheetEngine::new();
    for r in 0..50u32 {
        for c in 0..4u32 {
            e.update_cell(CellAddr::new(r, c), &format!("{}", (r + 1) * (c + 1)))
                .unwrap();
        }
    }
    e.update_cell_a1("A52", "=SUM(A1:A50)").unwrap();
    e.update_cell_a1("B52", "=AVERAGE(B1:B50)").unwrap();
    e.update_cell_a1("C52", "=COUNTIF(C1:C50,\">100\")")
        .unwrap();
    e.update_cell_a1("D52", "=VLOOKUP(10,A1:D50,4)").unwrap();
    e
}

#[test]
fn formulas_survive_every_optimizer() {
    let expected = [
        ("A52", CellValue::Number((1..=50).sum::<i32>() as f64)),
        ("B52", CellValue::Number(51.0)),
        (
            "C52",
            CellValue::Number((1..=50).filter(|r| r * 3 > 100).count() as f64),
        ),
        ("D52", CellValue::Number(40.0)),
    ];
    for algo in [
        OptimizeAlgorithm::Greedy,
        OptimizeAlgorithm::Agg,
        OptimizeAlgorithm::IncrementalAgg { eta: 1.0 },
    ] {
        let mut e = seeded_engine();
        for (addr, want) in &expected {
            assert_eq!(e.value(a(addr)), *want, "{addr} before optimize");
        }
        e.optimize(&CostModel::postgres(), algo, &OptimizerOptions::default())
            .unwrap();
        for (addr, want) in &expected {
            assert_eq!(e.value(a(addr)), *want, "{addr} after {algo:?}");
        }
        // Recomputation still flows after migration.
        e.update_cell_a1("A1", "1000").unwrap();
        assert_eq!(
            e.value(a("A52")),
            CellValue::Number((2..=50).sum::<i32>() as f64 + 1000.0),
            "dependents after {algo:?}"
        );
    }
}

#[test]
fn formulas_move_with_an_inserted_row() {
    let mut e = SheetEngine::new();
    e.update_cell_a1("A1", "2").unwrap();
    e.update_cell_a1("A2", "3").unwrap();
    e.update_cell_a1("A3", "=A1*A2").unwrap();
    e.insert_rows(1, 1).unwrap();
    assert_eq!(e.value(a("A4")), CellValue::Number(6.0));
}

#[test]
fn error_propagation_through_storage() {
    let mut e = SheetEngine::new();
    e.update_cell_a1("A1", "=1/0").unwrap();
    e.update_cell_a1("A2", "=A1+1").unwrap();
    assert_eq!(e.value(a("A1")), CellValue::Error(CellError::Div0));
    assert_eq!(e.value(a("A2")), CellValue::Error(CellError::Div0));
    // Errors round-trip through tuple encoding (stored, re-read).
    let snap = e.snapshot();
    assert_eq!(
        snap.get(a("A1")).unwrap().value,
        CellValue::Error(CellError::Div0)
    );
    // Fixing the source heals the chain.
    e.update_cell_a1("A1", "=4/2").unwrap();
    assert_eq!(e.value(a("A2")), CellValue::Number(3.0));
}

/// Regression: a stored error is a text behind the `"\u{1}ERR:"` marker,
/// and a text that began with the marker read back as that error (an
/// unknown code as `#CIRC!`). Typed, bulk-built, imported and typed into
/// the catch-all, such texts now read back as texts in every layout,
/// before and after a checkpoint and reopen.
#[test]
fn a_text_beginning_with_the_error_marker_stays_text() {
    let texts = ["\u{1}ERR:#N/A", "\u{1}ERR:bogus", "\u{1}", "\u{1}\u{1}x"];
    let width = texts.len() as u32;
    // Column `c` holds `texts[c % 10]`.
    let text = |col: u32| CellValue::Text(texts[(col % 10) as usize].to_string());
    let dir = std::env::temp_dir().join(format!("dataspread-err-marker-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut e = SheetEngine::open(&dir).unwrap();
    // A ROM, a COM and an RCV region at columns 0, 10 and 20, bulk-built
    // with the texts in row 0 and typed into row 1; the catch-all holds
    // row 5 and an imported region row 10.
    let mut cells = Vec::new();
    for (k, kind) in [ModelKind::Rom, ModelKind::Com, ModelKind::Rcv]
        .into_iter()
        .enumerate()
    {
        let first = 10 * k as u32;
        let row0 = (0..width).map(|c| (CellAddr::new(0, c), Cell::value(text(c))));
        let t = build_translator(kind, 2, width, row0).unwrap();
        let rect = Rect::new(0, first, 1, first + width - 1);
        e.storage_mut().add_region(rect, t).unwrap();
        cells.extend(rect.iter());
    }
    cells.extend((0..width).flat_map(|c| [CellAddr::new(5, c), CellAddr::new(10, c)]));
    for &addr in cells.iter().filter(|addr| matches!(addr.row, 1 | 5)) {
        e.update_cell(addr, &text(addr.col).as_text()).unwrap();
    }
    e.import_rows(a("A11"), width, vec![(0..width).map(text).collect()])
        .unwrap();
    assert_eq!(e.storage().region_count(), 4);

    let check = |e: &SheetEngine, when: &str| {
        let snapshot = e.snapshot();
        for &addr in &cells {
            assert_eq!(e.value(addr), text(addr.col), "{when}: {addr}");
            assert_eq!(snapshot.value(addr), text(addr.col), "{when}: {addr}");
        }
    };
    check(&e, "live");
    e.checkpoint().unwrap();
    drop(e);
    let reopened = SheetEngine::open(&dir).unwrap();
    check(&reopened, "reopened");
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn linked_table_answers_sql_over_the_live_database() {
    let mut e = SheetEngine::new();
    e.update_cell_a1("A1", "id").unwrap();
    e.update_cell_a1("B1", "qty").unwrap();
    for i in 0..5 {
        e.update_cell(CellAddr::new(1 + i, 0), &format!("{}", i + 1))
            .unwrap();
        e.update_cell(CellAddr::new(1 + i, 1), &format!("{}", (i + 1) * 10))
            .unwrap();
    }
    e.link_table(Rect::parse_a1("A1:B6").unwrap(), "orders")
        .unwrap();

    let db = e.database();
    let db = db.read();
    assert_eq!(db.table("orders").unwrap().row_count(), 5);
    // SQL over the engine's database sees the linked rows.
    let r = dataspread_rel::execute_sql(&*db, "SELECT SUM(qty) FROM orders", &[]).unwrap();
    assert_eq!(r.rows[0][0], Datum::Float(10.0 + 20.0 + 30.0 + 40.0 + 50.0));
}

#[test]
fn scrolling_windows_are_consistent_after_edits() {
    let mut e = seeded_engine();
    // Scroll window before and after a structural edit.
    let w1 = e.get_cells(Rect::new(10, 0, 19, 3));
    assert_eq!(w1.len(), 40);
    e.insert_rows(15, 2).unwrap();
    let w2 = e.get_cells(Rect::new(10, 0, 21, 3));
    assert_eq!(w2.len(), 40, "two blank rows inside the window");
    // Row 15 shifted to 17: value (16)*(c+1).
    assert_eq!(e.value(CellAddr::new(17, 2)), CellValue::Number(16.0 * 3.0));
    e.delete_rows(15, 2).unwrap();
    let w3 = e.get_cells(Rect::new(10, 0, 19, 3));
    assert_eq!(w3, w1, "delete undoes insert");
}

#[test]
fn sumif_and_lookup_functions_on_stored_data() {
    let mut e = SheetEngine::new();
    let names = ["apple", "banana", "apple", "cherry", "apple"];
    for (i, n) in names.iter().enumerate() {
        e.update_cell(CellAddr::new(i as u32, 0), n).unwrap();
        e.update_cell(CellAddr::new(i as u32, 1), &format!("{}", (i + 1) * 10))
            .unwrap();
    }
    e.update_cell_a1("D1", "=SUMIF(A1:A5,\"apple\",B1:B5)")
        .unwrap();
    e.update_cell_a1("D2", "=MATCH(\"cherry\",A1:A5)").unwrap();
    e.update_cell_a1("D3", "=INDEX(B1:B5,MATCH(\"banana\",A1:A5))")
        .unwrap();
    assert_eq!(e.value(a("D1")), CellValue::Number(10.0 + 30.0 + 50.0));
    assert_eq!(e.value(a("D2")), CellValue::Number(4.0));
    assert_eq!(e.value(a("D3")), CellValue::Number(20.0));
}

#[test]
fn update_cell_parse_errors_are_reported_not_stored() {
    let mut e = SheetEngine::new();
    let err = e.update_cell_a1("A1", "=SUM(");
    assert!(err.is_err());
    assert_eq!(e.value(a("A1")), CellValue::Empty, "nothing stored");
    // A valid formula afterwards works.
    e.update_cell_a1("A1", "=1+1").unwrap();
    assert_eq!(e.value(a("A1")), CellValue::Number(2.0));
}

#[test]
fn wide_import_respects_projection_reads() {
    // A wide region (200 columns): single-cell reads must not materialize
    // whole tuples (this is a smoke test for the projected-decode path).
    let mut e = SheetEngine::new();
    let rows: Vec<Vec<CellValue>> = (0..100)
        .map(|r| {
            (0..200)
                .map(|c| CellValue::Number((r * 200 + c) as f64))
                .collect()
        })
        .collect();
    e.import_rows(a("A1"), 200, rows).unwrap();
    assert_eq!(e.value(CellAddr::new(50, 199)), CellValue::Number(10199.0));
    e.update_cell_a1("GU1", "=SUM(A1:A100)").unwrap(); // col 202
    let expected: f64 = (0..100).map(|r| (r * 200) as f64).sum();
    assert_eq!(e.value(a("GU1")), CellValue::Number(expected));
}

/// `e`'s cells, counts and (with `bytes`) accounted bytes equal those of a
/// fresh build of its snapshot in its layout.
fn assert_matches_a_fresh_build(e: &SheetEngine, bytes: bool) {
    let snapshot = e.snapshot();
    let mut fresh = HybridSheet::new();
    for (rect, kind) in e.storage().layout() {
        let cells = snapshot.iter_rect(rect).map(|(addr, cell)| {
            let local = addr.offset(-i64::from(rect.r1), -i64::from(rect.c1));
            (local, cell.clone())
        });
        let built = build_translator(kind, rect.rows() as u32, rect.cols() as u32, cells).unwrap();
        fresh.add_region(rect, built).unwrap();
    }
    assert_eq!(fresh.snapshot(true), snapshot);
    assert_eq!(e.storage().filled_count(), fresh.filled_count());
    if bytes {
        assert_eq!(e.storage_bytes(), fresh.storage_bytes());
    }
}

/// A column delete in a ROM region and a row delete in a COM region (its
/// inner ROM's column delete) edit column maps only: cells and counts
/// match a fresh build at once, and the accounted bytes match once a
/// reopen has rebuilt the regions from the checkpoint.
#[test]
fn rom_column_and_com_row_deletes_match_a_fresh_build() {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-scenarios-deletes-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let mut e = SheetEngine::open(&dir).unwrap();
    let rows = (0..30u32).map(|r| {
        (0..6u32)
            .map(|c| match (r + c) % 5 {
                0 => CellValue::Empty,
                1 => CellValue::Text(format!("t{r}.{c}")),
                _ => CellValue::Number(f64::from(10 * r + c)),
            })
            .collect()
    });
    let rom = e.import_rows(a("A1"), 6, rows).unwrap();
    for r in 40..60u32 {
        for c in 8..12u32 {
            if (r * c) % 3 != 0 {
                e.update_cell(CellAddr::new(r, c), &(100 * r + c).to_string())
                    .unwrap();
            }
        }
    }
    let layout = vec![
        (rom, ModelKind::Rom),
        (Rect::new(40, 8, 59, 11), ModelKind::Com),
    ];
    let regions = layout.iter().map(|&(rect, kind)| Region { rect, kind });
    e.storage_mut()
        .reorganize(&Decomposition::new(regions.collect()))
        .unwrap();
    assert_eq!(e.storage().layout(), layout);
    e.checkpoint().unwrap();

    e.delete_cols(2, 1).unwrap();
    assert_matches_a_fresh_build(&e, false);
    e.delete_rows(45, 2).unwrap();
    assert_matches_a_fresh_build(&e, false);
    assert_eq!(
        e.storage().layout(),
        vec![
            (Rect::new(0, 0, 29, 4), ModelKind::Rom),
            (Rect::new(40, 7, 57, 10), ModelKind::Com),
        ]
    );
    e.checkpoint().unwrap();
    drop(e);

    let reopened = SheetEngine::open(&dir).unwrap();
    assert_matches_a_fresh_build(&reopened, true);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}
