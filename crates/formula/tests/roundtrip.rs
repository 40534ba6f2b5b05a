//! Property tests for the formula engine: display/parse round-trips and
//! structural-edit rewrite inverses.

use proptest::prelude::*;

use dataspread_formula::ast::{At, BinOp, CellRef, Expr, UnOp};
use dataspread_formula::parse;
use dataspread_formula::refs::{
    cells_accessed, collect_ranges, collect_ranges_at, rewrite, Rewrite, Shift,
};
use dataspread_grid::{CellAddr, Rect};

/// The cell the generated formulas are written in.
const A1: CellAddr = CellAddr::new(0, 0);

/// `expr`, the formula of `cell`, rewritten for `shift`, with the cell the
/// edit moved it to; `None` when the edit destroys a reference.
fn rewritten(expr: &Expr, cell: CellAddr, shift: Shift) -> Option<(Expr, CellAddr)> {
    let mut e = expr.clone();
    match rewrite(&mut e, cell, shift) {
        Rewrite::Destroyed => None,
        _ => Some((e, shift.apply(cell)?)),
    }
}

/// Random expressions over a bounded grid.
fn expr_strategy() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0.0f64..1e6).prop_map(Expr::Number),
        "[a-z ]{0,8}".prop_map(Expr::Text),
        any::<bool>().prop_map(Expr::Bool),
        (0u32..50, 0u32..20, any::<bool>(), any::<bool>()).prop_map(|(r, c, ar, ac)| {
            Expr::Ref(CellRef {
                row: r.into(),
                col: c.into(),
                abs_row: ar,
                abs_col: ac,
            })
        }),
        (0u32..50, 0u32..20, 0u32..5, 0u32..3).prop_map(|(r, c, dr, dc)| {
            Expr::Range(CellRef::relative(r, c), CellRef::relative(r + dr, c + dc))
        }),
    ];
    leaf.prop_recursive(4, 32, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::Add,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::Mul,
                Box::new(a),
                Box::new(b)
            )),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Binary(
                BinOp::Le,
                Box::new(a),
                Box::new(b)
            )),
            inner
                .clone()
                .prop_map(|e| Expr::Unary(UnOp::Neg, Box::new(e))),
            inner.clone().prop_map(|e| Expr::Percent(Box::new(e))),
            prop::collection::vec(inner.clone(), 0..3)
                .prop_map(|args| Expr::Func("SUM".into(), args)),
            (inner.clone(), inner.clone(), inner)
                .prop_map(|(a, b, c)| Expr::Func("IF".into(), vec![a, b, c])),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn display_parse_roundtrip(expr in expr_strategy()) {
        let rendered = expr.to_string();
        let reparsed = parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered formula must reparse: {rendered} ({e})"));
        // The display form is fully parenthesized, so one round trip is a
        // fixed point: render(parse(render(e))) == render(e).
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    #[test]
    fn insert_then_delete_rows_is_identity(expr in expr_strategy(), at in 0u32..60, n in 1u32..5) {
        let (inserted, cell) = rewritten(&expr, A1, Shift::InsertRows { at, n })
            .expect("insert never destroys references");
        let (back, cell) = rewritten(&inserted, cell, Shift::DeleteRows { at, n })
            .expect("deleting exactly the inserted rows never destroys references");
        prop_assert_eq!(At(&back, cell).to_string(), expr.to_string());
    }

    #[test]
    fn insert_then_delete_cols_is_identity(expr in expr_strategy(), at in 0u32..30, n in 1u32..4) {
        let (inserted, cell) = rewritten(&expr, A1, Shift::InsertCols { at, n })
            .expect("insert never destroys references");
        let (back, cell) = rewritten(&inserted, cell, Shift::DeleteCols { at, n })
            .expect("deleting exactly the inserted cols never destroys references");
        prop_assert_eq!(At(&back, cell).to_string(), expr.to_string());
    }

    #[test]
    fn rewrite_preserves_cells_accessed_on_insert(expr in expr_strategy(), at in 0u32..60) {
        // Row inserts can only grow ranges (when they pierce one) — never
        // shrink the accessed-cell count.
        let before = cells_accessed(&expr);
        let (after, cell) = rewritten(&expr, A1, Shift::InsertRows { at, n: 2 }).unwrap();
        let after: u64 = collect_ranges_at(&after, cell).iter().map(Rect::area).sum();
        prop_assert!(after >= before, "{before} -> {after}");
    }

    #[test]
    fn collected_ranges_shift_with_rewrite(expr in expr_strategy(), n in 1u32..5) {
        // Inserting above everything shifts every range down by exactly n.
        let before = collect_ranges(&expr);
        let (after, cell) = rewritten(&expr, A1, Shift::InsertRows { at: 0, n }).unwrap();
        let after = collect_ranges_at(&after, cell);
        prop_assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            prop_assert_eq!(b.r1 + n, a.r1);
            prop_assert_eq!(b.r2 + n, a.r2);
            prop_assert_eq!(b.c1, a.c1);
            prop_assert_eq!(b.c2, a.c2);
        }
    }
}
