//! Reference extraction and structural-edit rewriting.
//!
//! The analysis toolkit (paper §II-C) needs the set of ranges a formula
//! accesses; the engine needs formulas to stay valid when rows/columns are
//! inserted or deleted (relative references shift, `$`-absolute ones too —
//! structural edits move the *cells*, so every reference pointing at or
//! below the edit moves with them, which is Excel's behaviour).
//!
//! [`template`] and [`render`] move a formula *source* between its cell
//! and a relative form, so the sources of a fill-down run share one
//! [`Template`] (SNIPPETS.md §3, "normalized representation with relative
//! addressing"); the checkpoint image stores each template once.

use std::fmt::Write;

use dataspread_grid::{CellAddr, Rect};

use crate::ast::{CellRef, Expr};
use crate::lexer::{lex, Token};
use crate::parser::parse_cellref;

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

/// Rewrite all references in `expr` for a structural edit. A range moves
/// as the rectangle it spans ([`Shift::apply_rect`]): a delete inside it
/// shrinks it, and it survives while any part of it survives; its corners
/// keep the order they were written in, and each its `$` flags. Returns
/// `None` when a reference is destroyed (formula becomes `#REF!`) — by a
/// delete, or by an insert that pushes any end of it off the sheet.
pub fn rewrite(expr: &Expr, shift: Shift) -> Option<Expr> {
    Some(match expr {
        Expr::Ref(r) => Expr::Ref(shift_ref(*r, shift)?),
        Expr::Range(a, b) => {
            let to = shift.apply_rect(&Rect::new(a.row, a.col, b.row, b.col))?;
            // A corner at the larger index of an axis takes the new rect's
            // larger index there.
            let corner = |r: CellRef, o: CellRef| CellRef {
                row: if r.row > o.row { to.r2 } else { to.r1 },
                col: if r.col > o.col { to.c2 } else { to.c1 },
                ..r
            };
            Expr::Range(corner(*a, *b), corner(*b, *a))
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

/// A formula source with each canonically spelled cell reference cut out
/// and kept relative to the cell holding the source: `B2` entered in `C3`
/// and `B3` entered in `C4` are the same template. Every other byte stays
/// verbatim, so [`render`] at the source's own cell gives it back exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Template {
    /// The source with every templated reference cut out.
    text: String,
    /// Each templated reference, in source order: the byte of `text` it
    /// was cut out at, and the reference itself.
    refs: Vec<(usize, RelRef)>,
}

/// A reference as an offset from its source's cell, per axis; a `$` axis
/// is an offset from row or column 0, i.e. the absolute index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct RelRef {
    row: i64,
    col: i64,
    abs_row: bool,
    abs_col: bool,
}

/// The cell a reference's offsets count from, at source cell `at`.
fn base(at: CellAddr, abs_row: bool, abs_col: bool) -> CellAddr {
    CellAddr::new(
        if abs_row { 0 } else { at.row },
        if abs_col { 0 } else { at.col },
    )
}

/// The template of source `src` held in cell `at`. A reference is
/// templated when it is an identifier the lexer reads, that
/// [`parse_cellref`] accepts, that is spelled exactly as a [`CellRef`]
/// prints (so `a1` and `A01` stay verbatim), that no `(` follows (`LOG10`
/// is a function) and that no digit or `.` precedes (a number's exponent
/// could swallow a reference rendered elsewhere, as `2` and `E5` would).
/// A source that does not lex stays verbatim whole. Hence
/// `render(&template(src, at), at)` is `Some(src)`, and wherever a template
/// renders, the result's template is the template again.
pub fn template(src: &str, at: CellAddr) -> Template {
    let mut out = Template {
        text: String::with_capacity(src.len()),
        refs: Vec::new(),
    };
    let tokens = lex(src).unwrap_or_default();
    let mut done = 0;
    for (k, (token, start)) in tokens.iter().enumerate() {
        let Token::Ident(name) = token else { continue };
        let Some(r) = parse_cellref(name) else {
            continue;
        };
        // `parse_cellref` took `$?letters$?digits`, and such a name prints
        // back as itself unless a letter is lowercase or the row has a
        // leading zero.
        let canonical = !name.bytes().any(|b| b.is_ascii_lowercase())
            && name
                .trim_start_matches(|c: char| !c.is_ascii_digit())
                .as_bytes()[0]
                != b'0';
        if !canonical
            || tokens.get(k + 1).map(|(t, _)| t) == Some(&Token::LParen)
            || src[..*start].ends_with(|c: char| c.is_ascii_digit() || c == '.')
        {
            continue;
        }
        let from = base(at, r.abs_row, r.abs_col);
        out.text.push_str(&src[done..*start]);
        out.refs.push((
            out.text.len(),
            RelRef {
                row: i64::from(r.row) - i64::from(from.row),
                col: i64::from(r.col) - i64::from(from.col),
                abs_row: r.abs_row,
                abs_col: r.abs_col,
            },
        ));
        done = start + name.len();
    }
    out.text.push_str(&src[done..]);
    out
}

/// The source `t` spells in cell `at`, or `None` when one of its
/// references would fall off the sheet there.
pub fn render(t: &Template, at: CellAddr) -> Option<String> {
    let mut out = String::with_capacity(t.text.len() + 8 * t.refs.len());
    let mut done = 0;
    for &(pos, r) in &t.refs {
        let to = base(at, r.abs_row, r.abs_col).checked_offset(r.row, r.col)?;
        out.push_str(&t.text[done..pos]);
        let cell = CellRef {
            row: to.row,
            col: to.col,
            abs_row: r.abs_row,
            abs_col: r.abs_col,
        };
        write!(out, "{cell}").expect("writing to a String");
        done = pos;
    }
    out.push_str(&t.text[done..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn at(row: u32, col: u32) -> CellAddr {
        CellAddr::new(row, col)
    }

    #[test]
    fn a_fill_down_run_shares_one_template() {
        let t = template("SUM(A1:A3)*$B$1+C$2-$D1", at(0, 5));
        for r in 1..50u32 {
            let src = format!("SUM(A{}:A{})*$B$1+C$2-$D{}", r + 1, r + 3, r + 1);
            assert_eq!(template(&src, at(r, 5)), t, "{src}");
            assert_eq!(render(&t, at(r, 5)).as_deref(), Some(src.as_str()));
        }
        // One column right: relative columns move, `$` columns stay.
        assert_eq!(render(&t, at(0, 6)).unwrap(), "SUM(B1:B3)*$B$1+D$2-$D1");
    }

    #[test]
    fn other_spellings_stay_verbatim() {
        for src in [
            "a1+1",
            "A01+1",
            "$a$1",
            "  A1 +  B2 ",
            "\"A1\"&B1",
            "LOG10(A1)",
            "#REF!",
            "\"open",
            "2A1",
            "1.E5+A1",
            "",
            "TRUE",
            "A4294967297",
        ] {
            for cell in [at(0, 0), at(7, 3), at(u32::MAX, u32::MAX)] {
                let t = template(src, cell);
                assert_eq!(render(&t, cell).as_deref(), Some(src), "{src} at {cell}");
            }
        }
        // The verbatim parts do not move with the cell; the references do.
        let t = template("a1+A01+\"A1\"&LOG10(B1)+2C3", at(0, 0));
        assert_eq!(render(&t, at(1, 1)).unwrap(), "a1+A01+\"A1\"&LOG10(C2)+2C3");
        assert_eq!(template("#REF!", at(0, 0)), template("#REF!", at(9, 9)));
    }

    #[test]
    fn references_at_the_last_row_and_column_render_or_refuse() {
        let last = "MWLQKWV4294967296";
        let t = template(last, at(u32::MAX, u32::MAX));
        assert_eq!(render(&t, at(u32::MAX, u32::MAX)).as_deref(), Some(last));
        assert_eq!(render(&t, at(0, 0)).as_deref(), Some("A1"));
        let t = template("A1", at(u32::MAX, u32::MAX));
        assert_eq!(render(&t, at(0, 0)), None, "before the first row");
        let t = template("B2", at(0, 0));
        assert_eq!(render(&t, at(u32::MAX, 0)), None, "past the last row");
        assert_eq!(render(&t, at(0, u32::MAX)), None, "past the last column");
        // `$` axes do not move, wherever the template renders.
        let t = template("$MWLQKWV$4294967296+G$1+$A7", at(5, 5));
        assert_eq!(render(&t, at(4, 4)).unwrap(), "$MWLQKWV$4294967296+F$1+$A6");
        assert_eq!(render(&t, at(6, 6)).unwrap(), "$MWLQKWV$4294967296+H$1+$A8");
    }

    #[test]
    fn a_rendered_source_has_the_same_template() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const PARTS: [&str; 16] = [
            "A1", "$B$2", "C$3", "$D4", "ZZ100", "+", "*", "SUM(", ")", ":", "2", "E5", " ",
            "\"A1\"", "a1", "LOG10(",
        ];
        let mut rng = StdRng::seed_from_u64(0x7E3B);
        for _ in 0..4000 {
            let src: String = (0..rng.gen_range(0..10))
                .map(|_| PARTS[rng.gen_range(0..PARTS.len())])
                .collect();
            let cell = at(rng.gen_range(0..200), rng.gen_range(0..50));
            let t = template(&src, cell);
            assert_eq!(render(&t, cell).as_deref(), Some(src.as_str()));
            // A near cell moves a reference a few letters, e.g. `2` then
            // `A1` into `2` then `E1`, which must not lex as a number.
            let elsewhere = cell.offset(rng.gen_range(-6..6), rng.gen_range(-6..6));
            if let Some(moved) = render(&t, elsewhere) {
                assert_eq!(template(&moved, elsewhere), t, "{src:?} -> {moved:?}");
            }
        }
    }

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
    fn a_reversed_range_moves_as_its_rectangle() {
        use rand::{Rng, SeedableRng};
        // The two spellings of one rectangle, in both axes, with `$` flags
        // on one corner.
        let pairs = [
            ("A10:A1", "A1:A10"),
            ("$C$9:A2", "A2:$C$9"),
            ("C2:A$9", "A$9:C2"),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(49);
        for _ in 0..4000 {
            let (at, n) = (rng.gen_range(0..14), rng.gen_range(0..12));
            let shift = match rng.gen_range(0..4) {
                0 => Shift::InsertRows { at, n },
                1 => Shift::DeleteRows { at, n },
                2 => Shift::InsertCols { at, n },
                _ => Shift::DeleteCols { at, n },
            };
            for (reversed, forward) in pairs {
                let (r, f) = (parse(reversed).unwrap(), parse(forward).unwrap());
                let (r2, f2) = (rewrite(&r, shift), rewrite(&f, shift));
                assert_eq!(
                    r2.as_ref().and_then(Expr::as_rect),
                    f2.as_ref().and_then(Expr::as_rect),
                    "{reversed} vs {forward} under {shift:?}"
                );
                // Each corner keeps its flags, and the corners their order.
                if let (Expr::Range(a, b), Some(Expr::Range(a2, b2))) = (&r, &r2) {
                    assert_eq!((a.abs_row, a.abs_col), (a2.abs_row, a2.abs_col));
                    assert_eq!((b.abs_row, b.abs_col), (b2.abs_row, b2.abs_col));
                    assert!(a.row < b.row || a2.row >= b2.row, "{shift:?}");
                    assert!(a.row > b.row || a2.row <= b2.row, "{shift:?}");
                    assert!(a.col < b.col || a2.col >= b2.col, "{shift:?}");
                    assert!(a.col > b.col || a2.col <= b2.col, "{shift:?}");
                }
            }
        }
        let rewritten =
            |src: &str, shift| rewrite(&parse(src).unwrap(), shift).map(|e| e.to_string());
        // Delete rows 1-5: both spellings keep rows 6-10 as rows 1-5.
        let top = Shift::DeleteRows { at: 0, n: 5 };
        assert_eq!(rewritten("SUM(A10:A1)", top).as_deref(), Some("SUM(A5:A1)"));
        assert_eq!(rewritten("SUM(A1:A10)", top).as_deref(), Some("SUM(A1:A5)"));
        // Delete rows 8-17: rows 1-7 survive, not the old row 18.
        let tail = Shift::DeleteRows { at: 7, n: 10 };
        assert_eq!(
            rewritten("SUM(A10:A1)", tail).as_deref(),
            Some("SUM(A7:A1)")
        );
        assert_eq!(
            rewritten("SUM(A1:A10)", tail).as_deref(),
            Some("SUM(A1:A7)")
        );
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
