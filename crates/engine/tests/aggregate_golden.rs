//! SUM/COUNT/COUNTA/AVERAGE pinned to golden values, through every reader.
//!
//! One fixed sheet — float sums whose value depends on the visit order,
//! `-0.0`, numeric-looking text, bools, empty strings, a formula cell with
//! no value, an error after numbers and an error before them, an empty
//! column — is read through [`SheetReader`] over a [`SparseSheet`] and
//! through [`StorageReader`] over the same cells held by the catch-all, by
//! a region of each layout, and by a columnar region in three overlay
//! states (all base, all overlay, base masked by overlay writes and
//! blanks). Every call must return the golden value bit for bit, whether
//! the evaluator folds its own walk, a columnar region pushes the
//! aggregate down, or (single-range calls) a fill-down batch sweeps it.

#[path = "common/cells.rs"]
mod cells;

use cells::SheetCells;
use dataspread_engine::hybrid::{build_translator, HybridSheet, StorageReader};
use dataspread_engine::ModelKind;
use dataspread_formula::eval::CellReader;
use dataspread_formula::{
    batch_eval_sliding, detect_sliding, parse, parse_at, Evaluator, SheetReader,
};
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue, Rect, SparseSheet};

/// The region every layout holds: A1:D12.
const RECT: Rect = Rect {
    r1: 0,
    c1: 0,
    r2: 11,
    c2: 3,
};

/// The sheet's cells, row-major.
fn cells() -> Vec<(CellAddr, Cell)> {
    use CellValue::{Bool, Error, Number, Text};
    let v = |value: CellValue| Cell::value(value);
    let text = |s: &str| v(Text(s.into()));
    let cells = [
        // A: a sum that changes with the visit order, -0.0, numeric text.
        ("A1", v(Number(0.1))),
        ("A2", v(Number(0.2))),
        ("A3", v(Number(0.3))),
        ("A4", v(Number(1e16))),
        ("A5", v(Number(-0.0))),
        ("A6", v(Number(1.0))),
        ("A7", v(Number(-1e16))),
        ("A9", v(Number(2.5))),
        ("A10", text("7")),
        ("A11", v(Bool(true))),
        ("A12", v(Number(-3.75))),
        // B: an error after numbers, a second error after it.
        ("B1", v(Number(4.0))),
        ("B2", text("x")),
        ("B3", v(Bool(false))),
        ("B4", v(Number(1.5))),
        ("B5", v(Error(CellError::Na))),
        ("B6", v(Number(10.0))),
        ("B7", text("")),
        ("B9", v(Error(CellError::Ref))),
        // C: an error before numbers; a formula cell with no value.
        ("C2", v(Error(CellError::Div0))),
        ("C3", v(Number(3.0))),
        ("C4", v(Number(4.0))),
        ("C6", text("y")),
        (
            "C12",
            Cell {
                value: CellValue::Empty,
                formula: Some("A1".into()),
            },
        ),
        // D: empty down to D11, then -0.0 alone.
        ("D12", v(Number(-0.0))),
    ];
    let mut cells: Vec<(CellAddr, Cell)> = cells
        .into_iter()
        .map(|(a1, cell)| (CellAddr::parse_a1(a1).unwrap(), cell))
        .collect();
    cells.sort_by_key(|(a, _)| (a.row, a.col));
    cells
}

#[derive(Debug, Clone, Copy)]
enum Want {
    Num(f64),
    Err(CellError),
}
use Want::{Err, Num};

/// Generated by the evaluator before the four aggregates shared one fold.
const GOLDEN: &[(&str, Want)] = &[
    ("SUM(A1:A12)", Num(-1.25)),
    ("COUNT(A1:A12)", Num(9.0)),
    ("COUNTA(A1:A12)", Num(11.0)),
    ("AVERAGE(A1:A12)", Num(-0.1388888888888889)),
    ("SUM(B1:B12)", Err(CellError::Na)),
    ("COUNT(B1:B12)", Err(CellError::Na)),
    ("COUNTA(B1:B12)", Err(CellError::Na)),
    ("AVERAGE(B1:B12)", Err(CellError::Na)),
    ("SUM(C1:C12)", Err(CellError::Div0)),
    ("COUNT(C1:C12)", Err(CellError::Div0)),
    ("COUNTA(C1:C12)", Err(CellError::Div0)),
    ("AVERAGE(C1:C12)", Err(CellError::Div0)),
    ("SUM(D1:D11)", Num(0.0)),
    ("COUNT(D1:D11)", Num(0.0)),
    ("COUNTA(D1:D11)", Num(0.0)),
    ("AVERAGE(D1:D11)", Err(CellError::Div0)),
    ("SUM(D12)", Num(0.0)),
    ("AVERAGE(D12)", Num(0.0)),
    ("SUM(A5)", Num(0.0)),
    ("AVERAGE(A5)", Num(0.0)),
    ("SUM(A5,D12)", Num(0.0)),
    ("SUM(-0)", Num(0.0)),
    ("SUM(B1:B4)", Num(5.5)),
    ("COUNTA(B1:B4)", Num(4.0)),
    ("AVERAGE(B1:B4)", Num(2.75)),
    ("SUM(C3:C12)", Num(7.0)),
    ("COUNTA(C3:C12)", Num(3.0)),
    ("SUM(A1:B12)", Err(CellError::Na)),
    ("COUNTA(A1:B4)", Num(8.0)),
    ("AVERAGE(A1:B4)", Num(1666666666666667.8)),
    ("COUNT(A1:D12)", Err(CellError::Div0)),
    ("SUM(A1:D1)", Num(4.1)),
    ("SUM(A1:A3,5,B1)", Num(9.6)),
    ("SUM(A1:A12,C1:C12)", Err(CellError::Div0)),
    ("SUM(C1:C12,A1:A12)", Err(CellError::Div0)),
    ("AVERAGE(D1:D11,0)", Num(0.0)),
    ("COUNT(A1:A3,B1:B4,D12)", Num(6.0)),
    ("SUM(A7,A4,A1)", Num(0.1)),
    ("SUM(A4,A7,A1)", Num(0.1)),
    ("COUNT(\"abc\",TRUE,1)", Num(1.0)),
    ("COUNTA(\"abc\",TRUE,\"\")", Num(3.0)),
    ("SUM(\"abc\",TRUE,2)", Num(2.0)),
    ("AVERAGE(\"abc\",3)", Num(3.0)),
    ("COUNTA(INDEX(D1:D11,1))", Num(0.0)),
    ("COUNTA(INDEX(D1:D11,1),A1)", Num(1.0)),
    ("SUM(INDEX(D1:D11,1))", Num(0.0)),
    ("AVERAGE(INDEX(D1:D11,1))", Err(CellError::Div0)),
    ("SUM(1,1/0)", Err(CellError::Div0)),
    ("COUNT(A1:A3,1/0)", Err(CellError::Div0)),
    ("COUNTA(1/0,A1:A3)", Err(CellError::Div0)),
    ("SUM(E1:E20)", Num(0.0)),
    ("COUNT(E1:E20)", Num(0.0)),
    ("COUNTA(E1:E20)", Num(0.0)),
    ("AVERAGE(E1:E20)", Err(CellError::Div0)),
    ("SUM(A1:A20)", Num(-1.25)),
    ("AVERAGE(A1:A20)", Num(-0.1388888888888889)),
];

fn matches(got: &CellValue, want: Want) -> bool {
    match (got, want) {
        (CellValue::Number(n), Num(w)) => n.to_bits() == w.to_bits(),
        (CellValue::Error(e), Err(w)) => *e == w,
        _ => false,
    }
}

/// Every reader of the sheet, named.
fn sheets() -> Vec<(String, HybridSheet)> {
    let cells = cells();
    let region = |kind: ModelKind, cells: Vec<(CellAddr, Cell)>| {
        let mut hs = HybridSheet::new();
        let t = build_translator(kind, RECT.rows() as u32, RECT.cols() as u32, cells).unwrap();
        hs.add_region(RECT, t).unwrap();
        hs
    };
    let mut out = Vec::new();
    let mut catchall = HybridSheet::new();
    for (addr, cell) in &cells {
        catchall.put_cell(*addr, cell.clone()).unwrap();
    }
    out.push(("catch-all".to_string(), catchall));
    for kind in [
        ModelKind::Rom,
        ModelKind::Com,
        ModelKind::Rcv,
        ModelKind::Columnar,
    ] {
        out.push((format!("{kind:?}"), region(kind, cells.clone())));
    }
    // Columnar, every cell a pending overlay write.
    let mut overlay = region(ModelKind::Columnar, Vec::new());
    for (addr, cell) in &cells {
        overlay.put_cell(*addr, cell.clone()).unwrap();
    }
    out.push(("Columnar overlay".to_string(), overlay));
    // Columnar, a third of the base holding decoys that overlay writes
    // and blanks then mask.
    let decoy = |addr: CellAddr| (addr.row + addr.col).is_multiple_of(3);
    let mut base: Vec<(CellAddr, Cell)> = Vec::new();
    for addr in RECT.iter() {
        if decoy(addr) {
            base.push((addr, Cell::value(1000.0 + addr.row as f64)));
        } else if let Some((_, cell)) = cells.iter().find(|(a, _)| *a == addr) {
            base.push((addr, cell.clone()));
        }
    }
    let mut masked = region(ModelKind::Columnar, base);
    for addr in RECT.iter().filter(|&a| decoy(a)) {
        let cell = cells
            .iter()
            .find(|(a, _)| *a == addr)
            .map(|(_, c)| c.clone())
            .unwrap_or_default();
        masked.put_cell(addr, cell).unwrap();
    }
    out.push(("Columnar masked".to_string(), masked));
    out
}

#[test]
fn aggregates_return_the_golden_values_through_every_reader() {
    assert!(GOLDEN.len() >= 30, "the table pins {} calls", GOLDEN.len());
    let evaluator = Evaluator::new();
    let mut sparse = SparseSheet::new();
    for (addr, cell) in cells() {
        sparse.set(addr, cell);
    }
    let sheets = sheets();
    for (name, hs) in &sheets {
        assert_eq!(
            hs.snapshot(true),
            sparse,
            "{name}: the layout holds the sheet"
        );
        // Columnar regions push single-column ranges down, so the table
        // checks that path as well as the evaluator's walk.
        let pushed = hs.range_agg(Rect::new(0, 0, 11, 0)).is_some();
        assert_eq!(pushed, name.starts_with("Columnar"), "{name}");
    }
    let mut readers: Vec<(&str, Box<dyn CellReader + '_>)> =
        vec![("SheetReader", Box::new(SheetReader(&sparse)))];
    for (name, hs) in &sheets {
        readers.push((name, Box::new(StorageReader(hs))));
    }
    // A single-range call is also what a fill-down run sweeps in batch.
    let at = CellAddr::new(40, 8);
    let mut swept = 0;
    for &(src, want) in GOLDEN {
        let expr = parse(src).unwrap();
        let sliding = detect_sliding(&parse_at(src, at).unwrap());
        swept += usize::from(sliding.is_some());
        for (name, reader) in &readers {
            let got = evaluator.eval(&expr, reader.as_ref());
            assert!(
                matches(&got, want),
                "{name}: {src} = {got:?}, want {want:?}"
            );
            if let Some(spec) = sliding {
                let got = batch_eval_sliding(spec, &[at], reader.as_ref()).unwrap();
                assert!(
                    matches(&got[0], want),
                    "{name}: {src} in batch = {:?}, want {want:?}",
                    got[0]
                );
            }
        }
    }
    assert!(swept >= 20, "{swept} calls swept in batch");
}
