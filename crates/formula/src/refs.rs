//! Reference extraction and structural-edit rewriting.
//!
//! The analysis toolkit (paper §II-C) needs the set of ranges a formula
//! accesses; the engine needs formulas to stay valid when rows/columns are
//! inserted or deleted (relative references shift, `$`-absolute ones too —
//! structural edits move the *cells*, so every reference pointing at or
//! below the edit moves with them, which is Excel's behaviour).

use dataspread_grid::Rect;

use crate::ast::{CellRef, Expr};

/// Collect every rectangle referenced by the expression.
pub fn collect_ranges(expr: &Expr) -> Vec<Rect> {
    let mut out = Vec::new();
    walk(expr, &mut |e| {
        if let Some(r) = e.as_rect() {
            out.push(r);
        }
    });
    out
}

/// Total number of cells accessed (sum of range areas; single refs are 1x1).
/// This is the "cells accessed per formula" statistic of Table I.
pub fn cells_accessed(expr: &Expr) -> u64 {
    collect_ranges(expr).iter().map(Rect::area).sum()
}

fn walk(expr: &Expr, f: &mut impl FnMut(&Expr)) {
    f(expr);
    match expr {
        Expr::Unary(_, e) | Expr::Percent(e) => walk(e, f),
        Expr::Binary(_, a, b) => {
            walk(a, f);
            walk(b, f);
        }
        Expr::Func(_, args) => {
            for a in args {
                walk(a, f);
            }
        }
        _ => {}
    }
}

pub use dataspread_grid::Shift;

/// Rewrite a reference for a structural edit, keeping its `$` flags;
/// returns `None` when the referenced cell was deleted, or pushed past the
/// last row or column by an insert (the caller should surface `#REF!`).
fn shift_ref(r: CellRef, shift: Shift) -> Option<CellRef> {
    let to = shift.apply(r.addr())?;
    Some(CellRef {
        row: to.row,
        col: to.col,
        ..r
    })
}

/// Rewrite all references in `expr` for a structural edit. Ranges clamp
/// under deletes: a range survives while any part of it survives. Returns
/// `None` when a reference is destroyed (formula becomes `#REF!`) — by a
/// delete, or by an insert that pushes any end of it off the sheet.
pub fn rewrite(expr: &Expr, shift: Shift) -> Option<Expr> {
    Some(match expr {
        Expr::Ref(r) => Expr::Ref(shift_ref(*r, shift)?),
        Expr::Range(a, b) => {
            // For ranges, deletion inside the range shrinks it instead of
            // destroying it.
            let (sa, sb) = match (shift_ref(*a, shift), shift_ref(*b, shift)) {
                (Some(sa), Some(sb)) => (sa, sb),
                (None, Some(sb)) => {
                    let mut sa = *a;
                    match shift {
                        Shift::DeleteRows { at, .. } => sa.row = at,
                        Shift::DeleteCols { at, .. } => sa.col = at,
                        Shift::InsertRows { .. } | Shift::InsertCols { .. } => return None,
                    }
                    (sa, sb)
                }
                (Some(sa), None) => {
                    let mut sb = *b;
                    match shift {
                        Shift::DeleteRows { at, .. } => {
                            if at == 0 {
                                return None;
                            }
                            sb.row = at - 1;
                        }
                        Shift::DeleteCols { at, .. } => {
                            if at == 0 {
                                return None;
                            }
                            sb.col = at - 1;
                        }
                        Shift::InsertRows { .. } | Shift::InsertCols { .. } => return None,
                    }
                    (sa, sb)
                }
                (None, None) => return None,
            };
            Expr::Range(sa, sb)
        }
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(rewrite(e, shift)?)),
        Expr::Percent(e) => Expr::Percent(Box::new(rewrite(e, shift)?)),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(rewrite(a, shift)?),
            Box::new(rewrite(b, shift)?),
        ),
        Expr::Func(name, args) => Expr::Func(
            name.clone(),
            args.iter()
                .map(|a| rewrite(a, shift))
                .collect::<Option<Vec<_>>>()?,
        ),
        leaf => leaf.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn collect_and_count() {
        let e = parse("SUM(A1:B10)+C3*VLOOKUP(D1,E1:G100,2)").unwrap();
        let ranges = collect_ranges(&e);
        assert_eq!(ranges.len(), 4);
        assert_eq!(cells_accessed(&e), 20 + 1 + 1 + 300);
    }

    #[test]
    fn an_insert_pushing_a_reference_off_the_sheet_destroys_it() {
        for shift in [
            Shift::InsertRows {
                at: 5,
                n: u32::MAX - 3,
            },
            Shift::InsertCols {
                at: 5,
                n: u32::MAX - 3,
            },
        ] {
            let kept = rewrite(&parse("A1+B2").unwrap(), shift).unwrap();
            assert_eq!(kept.to_string(), "(A1+B2)");
            assert!(rewrite(&parse("Z100").unwrap(), shift).is_none());
            assert!(rewrite(&parse("SUM(A1:Z100)").unwrap(), shift).is_none());
        }
    }

    #[test]
    fn insert_rows_shifts_references_below() {
        let e = parse("A1+A10").unwrap();
        let got = rewrite(&e, Shift::InsertRows { at: 5, n: 2 }).unwrap();
        assert_eq!(got.to_string(), "(A1+A12)");
    }

    #[test]
    fn delete_rows_destroys_point_refs() {
        let e = parse("A5").unwrap();
        assert_eq!(rewrite(&e, Shift::DeleteRows { at: 4, n: 1 }), None);
        let e = parse("A5").unwrap();
        let got = rewrite(&e, Shift::DeleteRows { at: 0, n: 2 }).unwrap();
        assert_eq!(got.to_string(), "A3");
    }

    #[test]
    fn ranges_shrink_instead_of_dying() {
        let e = parse("SUM(A1:A10)").unwrap();
        // Delete rows 0..5 (A1:A5): range becomes A1:A5 (the survivors).
        let got = rewrite(&e, Shift::DeleteRows { at: 0, n: 5 }).unwrap();
        assert_eq!(got.to_string(), "SUM(A1:A5)");
        // Delete rows fully inside.
        let e = parse("SUM(A1:A10)").unwrap();
        let got = rewrite(&e, Shift::DeleteRows { at: 2, n: 3 }).unwrap();
        assert_eq!(got.to_string(), "SUM(A1:A7)");
        // Delete the tail: A6:A10 gone, head survives.
        let e = parse("SUM(A5:A10)").unwrap();
        let got = rewrite(&e, Shift::DeleteRows { at: 5, n: 20 }).unwrap();
        assert_eq!(got.to_string(), "SUM(A5:A5)");
        // Whole range deleted → formula is destroyed.
        let e = parse("SUM(A5:A10)").unwrap();
        assert_eq!(rewrite(&e, Shift::DeleteRows { at: 4, n: 20 }), None);
    }

    #[test]
    fn column_edits() {
        let e = parse("SUM(B1:D1)+E1").unwrap();
        let got = rewrite(&e, Shift::InsertCols { at: 2, n: 1 }).unwrap();
        assert_eq!(got.to_string(), "(SUM(B1:E1)+F1)");
        let e = parse("SUM(B1:D1)+E1").unwrap();
        let got = rewrite(&e, Shift::DeleteCols { at: 2, n: 1 }).unwrap();
        assert_eq!(got.to_string(), "(SUM(B1:C1)+D1)");
    }

    #[test]
    fn constants_untouched() {
        let e = parse("1+2*3").unwrap();
        let got = rewrite(&e, Shift::InsertRows { at: 0, n: 5 }).unwrap();
        assert_eq!(got, e);
    }
}
