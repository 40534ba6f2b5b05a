//! End-to-end integration: import → formulas → structural edits →
//! linkTable → SQL → optimize, spanning every crate in the workspace.

use dataspread::engine::{OptimizeAlgorithm, SheetEngine};
use dataspread::grid::{CellAddr, CellValue, Rect, Shift};
use dataspread::hybrid::{CostModel, OptimizerOptions};
use dataspread::relstore::Datum;

fn a(s: &str) -> CellAddr {
    CellAddr::parse_a1(s).unwrap()
}

#[test]
fn import_formulas_edit_link_sql_optimize() {
    let mut e = SheetEngine::new();

    // 1. Import a small dataset as a bulk ROM region.
    let rows: Vec<Vec<CellValue>> = (0..100)
        .map(|i| {
            vec![
                CellValue::Number(i as f64),
                CellValue::Number((i * 2) as f64),
                CellValue::Text(format!("item-{i}")),
            ]
        })
        .collect();
    let rect = e.import_rows(a("A2"), 3, rows).unwrap();
    assert_eq!(rect, Rect::parse_a1("A2:C101").unwrap());

    // 2. Formulas over the imported data.
    e.update_cell_a1("E1", "=SUM(B2:B101)").unwrap();
    assert_eq!(
        e.value(a("E1")),
        CellValue::Number((0..100).map(|i| i * 2).sum::<i32>() as f64)
    );
    e.update_cell_a1("E2", "=VLOOKUP(42,A2:C101,3)").unwrap();
    assert_eq!(e.value(a("E2")), CellValue::Text("item-42".into()));

    // 3. Structural edit across the region: formulas follow.
    e.insert_rows(0, 3).unwrap();
    assert_eq!(e.value(a("E4")), CellValue::Number(9900.0));
    assert_eq!(
        e.snapshot().get(a("E4")).unwrap().formula.as_deref(),
        Some("SUM(B5:B104)")
    );

    // 4. Build a summary block and link it as a database table.
    e.update_cell_a1("H1", "bucket").unwrap();
    e.update_cell_a1("I1", "count").unwrap();
    for (i, (b, c)) in [("low", 40), ("mid", 35), ("high", 25)].iter().enumerate() {
        e.update_cell(CellAddr::new(1 + i as u32, 7), b).unwrap();
        e.update_cell(CellAddr::new(1 + i as u32, 8), &c.to_string())
            .unwrap();
    }
    e.link_table(Rect::parse_a1("H1:I4").unwrap(), "buckets")
        .unwrap();
    let r = e
        .sql(
            "SELECT bucket FROM buckets WHERE count >= ? ORDER BY count DESC",
            &[Datum::Int(30)],
        )
        .unwrap();
    assert_eq!(r.len(), 2);
    assert_eq!(r.rows[0][0], Datum::Text("low".into()));

    // 5. Optimize storage; nothing may be lost, formulas still live.
    let before = e.snapshot();
    let report = e
        .optimize(
            &CostModel::postgres(),
            OptimizeAlgorithm::Agg,
            &OptimizerOptions::default(),
        )
        .unwrap();
    assert!(report.decomposition.table_count() >= 1);
    assert_eq!(e.snapshot(), before);
    e.update_cell_a1("B5", "1000").unwrap();
    assert_eq!(e.value(a("E4")), CellValue::Number(9900.0 - 0.0 + 1000.0));
}

#[test]
fn incremental_optimize_after_edits() {
    let mut e = SheetEngine::new();
    for r in 0..30 {
        for c in 0..4 {
            e.update_cell(CellAddr::new(r, c), &format!("{}", r + c))
                .unwrap();
        }
    }
    e.optimize(
        &CostModel::postgres(),
        OptimizeAlgorithm::Agg,
        &OptimizerOptions::default(),
    )
    .unwrap();
    // Diverge: a new far-away block.
    for r in 100..110 {
        for c in 10..13 {
            e.update_cell(CellAddr::new(r, c), "5").unwrap();
        }
    }
    let before = e.snapshot();
    let report = e
        .optimize(
            &CostModel::postgres(),
            OptimizeAlgorithm::IncrementalAgg { eta: 1.0 },
            &OptimizerOptions::default(),
        )
        .unwrap();
    assert!(report.decomposition.table_count() >= 1);
    assert_eq!(e.snapshot(), before);
}

#[test]
fn dp_optimize_small_sheet() {
    let mut e = SheetEngine::new();
    for r in 0..10 {
        for c in 0..3 {
            e.update_cell(CellAddr::new(r, c), "1").unwrap();
        }
    }
    for r in 0..4 {
        for c in 30..36 {
            e.update_cell(CellAddr::new(r, c), "2").unwrap();
        }
    }
    let before = e.snapshot();
    let report = e
        .optimize(
            &CostModel::ideal(),
            OptimizeAlgorithm::Dp,
            &OptimizerOptions::default(),
        )
        .unwrap();
    assert!(
        report.decomposition.table_count() >= 2,
        "two separated blocks"
    );
    assert_eq!(e.snapshot(), before);
}

#[test]
fn scrolling_large_import() {
    use dataspread::corpus::vcf::vcf_rows;
    let mut e = SheetEngine::new();
    e.import_rows(a("A1"), 11, vcf_rows(50_000, 2, 3)).unwrap();
    // Scroll to several windows; all fetches return content.
    for start in [0u32, 20_000, 49_950] {
        let cells = e.get_cells(Rect::new(start, 0, start + 49, 10));
        assert!(cells.len() >= 50 * 9, "window at {start} is populated");
    }
    // Middle insert + fetch still consistent.
    e.storage_mut()
        .shift(Shift::InsertRows { at: 25_000, n: 1 })
        .unwrap();
    assert_eq!(e.value(CellAddr::new(25_000, 0)), CellValue::Empty);
    let below = e.get_cells(Rect::new(25_001, 0, 25_001, 10));
    assert!(!below.is_empty(), "shifted rows remain readable");
}
