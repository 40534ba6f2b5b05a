//! The reference sheet's own rules, one hand-built case each: what an
//! insert and a delete do to a reference, what `#REF!` and `#CIRC!` mean.
//! The engine suites trust the model on exactly these.

use dataspread_grid::value::CellError;
use dataspread_grid::{CellAddr, CellValue};
use dataspread_sim::RefSheet;

fn a(s: &str) -> CellAddr {
    CellAddr::parse_a1(s).unwrap()
}

/// A sheet with `inputs` set in order.
fn sheet(inputs: &[(&str, &str)]) -> RefSheet {
    let mut m = RefSheet::new();
    for &(cell, input) in inputs {
        m.set(a(cell), input);
    }
    m
}

fn number(n: f64) -> CellValue {
    CellValue::Number(n)
}

#[test]
fn a_deleted_range_corner_moves_to_the_nearest_survivor_on_a_row_delete() {
    let column = [
        ("A1", "1"),
        ("A2", "2"),
        ("A3", "3"),
        ("A4", "4"),
        ("A5", "5"),
    ];
    // The top corner and the row below it go: the corner moves down to
    // the first row left, which is now row 2.
    let mut m = sheet(&column);
    m.set(a("C1"), "=SUM(A2:A5)");
    m.delete_rows(1, 2);
    assert_eq!(m.formula(a("C1")).as_deref(), Some("SUM(A2:A3)"));
    assert_eq!(m.value(a("C1")), number(9.0));
    // A corner typed last and lowest moves up.
    let mut m = sheet(&column);
    m.set(a("C1"), "=SUM(A5:A2)");
    m.delete_rows(3, 5);
    assert_eq!(m.formula(a("C1")).as_deref(), Some("SUM(A3:A2)"));
    assert_eq!(m.value(a("C1")), number(5.0));
}

#[test]
fn a_deleted_range_corner_moves_to_the_nearest_survivor_on_a_column_delete() {
    let mut m = sheet(&[("B1", "1"), ("C1", "2"), ("D1", "4"), ("E1", "8")]);
    m.set(a("A3"), "=SUM(B1:D1)");
    // C and D go: the right corner walks left past C to B.
    m.delete_cols(2, 2);
    assert_eq!(m.formula(a("A3")).as_deref(), Some("SUM(B1:B1)"));
    assert_eq!(m.value(a("A3")), number(1.0));
    assert_eq!(m.value(a("C1")), number(8.0), "E1 moved to C1");
}

#[test]
fn an_insert_at_a_range_first_row_moves_the_range() {
    let mut m = sheet(&[("A2", "2"), ("A3", "3"), ("C1", "=SUM(A2:A3)")]);
    m.insert_rows(1, 1);
    assert_eq!(m.formula(a("C1")).as_deref(), Some("SUM(A3:A4)"));
    m.set(a("A2"), "100");
    assert_eq!(m.value(a("C1")), number(5.0), "the new row is outside");
}

#[test]
fn an_insert_strictly_inside_a_range_grows_it() {
    let mut m = sheet(&[("A2", "2"), ("A3", "3"), ("C1", "=SUM(A2:A3)")]);
    m.insert_rows(2, 2);
    assert_eq!(m.formula(a("C1")).as_deref(), Some("SUM(A2:A5)"));
    m.set(a("A4"), "100");
    assert_eq!(m.value(a("C1")), number(105.0), "the new rows are inside");
    // The same across columns.
    let mut m = sheet(&[("B1", "2"), ("C1", "3"), ("A2", "=SUM(B1:C1)")]);
    m.insert_cols(2, 1);
    assert_eq!(m.formula(a("A2")).as_deref(), Some("SUM(B1:D1)"));
}

#[test]
fn a_deleted_point_reference_leaves_ref_with_no_formula() {
    let mut m = sheet(&[("A2", "7"), ("C1", "=A2*2"), ("D1", "=C1+1")]);
    assert_eq!(m.value(a("D1")), number(15.0));
    m.delete_rows(1, 1);
    assert_eq!(m.formula(a("C1")), None);
    assert_eq!(m.value(a("C1")), CellValue::Error(CellError::Ref));
    assert_eq!(
        m.value(a("D1")),
        CellValue::Error(CellError::Ref),
        "its reader"
    );
    assert_eq!(m.formula_count(), 1);
    // Every row of a range going destroys it too.
    let mut m = sheet(&[("A2", "7"), ("C1", "=SUM(A2:A3)")]);
    m.delete_rows(1, 2);
    assert_eq!(m.formula(a("C1")), None);
    assert_eq!(m.value(a("C1")), CellValue::Error(CellError::Ref));
}

#[test]
fn a_self_reader_and_a_formula_downstream_of_a_cycle_read_circ() {
    let circ = CellValue::Error(CellError::Circular);
    let m = sheet(&[
        ("A1", "=SUM(A1:A3)"),
        ("B1", "=C1+1"),
        ("C1", "=B1+1"),
        ("D1", "=C1*2"),
        ("E1", "=1+2"),
        ("F1", "=E1*2"),
    ]);
    for cell in ["A1", "B1", "C1", "D1"] {
        assert_eq!(m.value(a(cell)), circ, "{cell}");
    }
    assert_eq!(m.value(a("F1")), number(6.0), "a formula off the cycle");
}

#[test]
fn a_deleted_formula_cell_is_gone() {
    let mut m = sheet(&[("A1", "1"), ("A2", "=A1+1"), ("A3", "5")]);
    m.delete_rows(1, 1);
    assert_eq!(m.formula_count(), 0);
    let cells: Vec<_> = m.cells().into_iter().map(|(at, c)| (at, c.value)).collect();
    assert_eq!(cells, vec![(a("A1"), number(1.0)), (a("A2"), number(5.0))]);
}

#[test]
fn a_reference_keeps_its_cell_through_edits_elsewhere() {
    // Rows move under the formula and its reference alike: the text
    // follows, the value does not change.
    let mut m = sheet(&[("B3", "4"), ("D5", "=B3*10")]);
    m.insert_rows(0, 2);
    m.insert_cols(0, 1);
    assert_eq!(m.formula(a("E7")).as_deref(), Some("C5*10"));
    assert_eq!(m.value(a("E7")), number(40.0));
    m.delete_rows(0, 1);
    m.delete_cols(0, 1);
    assert_eq!(m.formula(a("D6")).as_deref(), Some("B4*10"));
}

#[test]
fn literals_follow_update_cell() {
    let m = sheet(&[
        ("A1", "3.5"),
        ("A2", " tRuE "),
        ("A3", "x1"),
        ("A4", "  "),
        ("A5", "1e3"),
    ]);
    assert_eq!(m.value(a("A1")), number(3.5));
    assert_eq!(m.value(a("A2")), CellValue::Bool(true));
    assert_eq!(m.value(a("A3")), CellValue::Text("x1".into()));
    assert_eq!(m.value(a("A4")), CellValue::Empty);
    assert_eq!(m.value(a("A5")), number(1000.0));
    assert_eq!(m.cells().len(), 4);
}

#[test]
#[should_panic(expected = "outside the reference sheet's language")]
fn an_absolute_reference_is_outside_the_language() {
    sheet(&[("A1", "=$B$1+1")]);
}

#[test]
#[should_panic(expected = "outside the reference sheet's language")]
fn a_lowercase_reference_is_outside_the_language() {
    sheet(&[("A1", "=b1+1")]);
}
