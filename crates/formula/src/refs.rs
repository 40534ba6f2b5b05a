//! Reference extraction and structural-edit rewriting.
//!
//! The analysis toolkit (paper §II-C) needs the set of ranges a formula
//! accesses, collected at its cell. A structural edit ([`rewrite`]) keeps
//! each reference naming the cell it named — `$`-absolute ones too, since
//! the edit moves the *cells* (Excel's behaviour) — and reports what it
//! did, so the engine touches only the formulas it moved or retargeted.
//!
//! [`template`] and [`render`] carry [`CellRef`]'s relative form over a
//! formula *source*, so the sources of a fill-down run share one
//! [`Template`] (SNIPPETS.md §3, "normalized representation with relative
//! addressing"); the checkpoint image stores each template once.

use std::fmt::Write;

use dataspread_grid::{CellAddr, Rect};

use crate::ast::{At, CellRef, Expr};
use crate::lexer::{lex, Token};
use crate::parser::parse_cellref;

pub use dataspread_grid::Shift;

/// Every rectangle referenced by the formula of cell `at`.
pub fn collect_ranges_at(expr: &Expr, at: CellAddr) -> Vec<Rect> {
    let mut out = Vec::new();
    walk(expr, &mut |e| {
        if let Some(r) = e.rect_at(at) {
            out.push(r);
        }
    });
    out
}

/// [`collect_ranges_at`] the origin, where a parsed expression spells them.
pub fn collect_ranges(expr: &Expr) -> Vec<Rect> {
    collect_ranges_at(expr, CellAddr::default())
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

/// What a structural edit did to a formula's references, least first; a
/// formula reports the most any of them took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rewrite {
    /// Every reference names the cell it named.
    Untouched,
    /// One names a cell or rectangle the edit moved rigidly: new text, same value.
    Retargeted,
    /// The edit landed inside a range ([`Shift::within`]): the value may change.
    Hit,
    /// One was deleted or pushed off the sheet: `#REF!`.
    Destroyed,
}

/// Rewrite in place, allocating nothing, the references of the formula in
/// cell `at` for an edit that moves that cell to `shift.apply(at)`: each
/// names the cell it named, wherever the edit put it. A range moves as the
/// rectangle it spans ([`Shift::apply_rect`]), its corners keeping the
/// order they were written in and each its `$` flags. An edit deleting
/// `at` destroys the formula; a destroyed one is left partly rewritten.
pub fn rewrite(expr: &mut Expr, at: CellAddr, shift: Shift) -> Rewrite {
    match shift.apply(at) {
        Some(to) => rewrite_refs(expr, at, to, shift),
        None => Rewrite::Destroyed,
    }
}

/// [`rewrite`] with the formula's cell moving from `at` to `to`.
fn rewrite_refs(expr: &mut Expr, at: CellAddr, to: CellAddr, shift: Shift) -> Rewrite {
    match expr {
        Expr::Ref(r) => match r.resolve(at).map(|old| (old, shift.apply(old))) {
            Some((old, Some(new))) => {
                *r = CellRef::to(new, r.abs_row, r.abs_col, to);
                if new == old {
                    Rewrite::Untouched
                } else {
                    Rewrite::Retargeted
                }
            }
            _ => Rewrite::Destroyed,
        },
        Expr::Range(a, b) => {
            let (Some(ta), Some(tb)) = (a.resolve(at), b.resolve(at)) else {
                return Rewrite::Destroyed;
            };
            let rect = Rect::new(ta.row, ta.col, tb.row, tb.col);
            let Some(moved) = shift.apply_rect(&rect) else {
                return Rewrite::Destroyed;
            };
            // A corner at the larger index of an axis takes the moved
            // rect's larger index there.
            let corner = |t: CellAddr, o: CellAddr| {
                let row = if t.row > o.row { moved.r2 } else { moved.r1 };
                CellAddr::new(row, if t.col > o.col { moved.c2 } else { moved.c1 })
            };
            *a = CellRef::to(corner(ta, tb), a.abs_row, a.abs_col, to);
            *b = CellRef::to(corner(tb, ta), b.abs_row, b.abs_col, to);
            match shift.within(&rect) {
                Some(_) => Rewrite::Hit,
                None if moved != rect => Rewrite::Retargeted,
                None => Rewrite::Untouched,
            }
        }
        Expr::Unary(_, e) | Expr::Percent(e) => rewrite_refs(e, at, to, shift),
        Expr::Binary(_, a, b) => rewrite_refs(a, at, to, shift).max(rewrite_refs(b, at, to, shift)),
        Expr::Func(_, args) => args
            .iter_mut()
            .map(|a| rewrite_refs(a, at, to, shift))
            .max()
            .unwrap_or(Rewrite::Untouched),
        Expr::Number(_) | Expr::Text(_) | Expr::Bool(_) => Rewrite::Untouched,
    }
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
    refs: Vec<(usize, CellRef)>,
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
        let Some(r) = parse_cellref(name, at) else {
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
        out.text.push_str(&src[done..*start]);
        out.refs.push((out.text.len(), r));
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
    for (pos, r) in &t.refs {
        r.resolve(at)?;
        out.push_str(&t.text[done..*pos]);
        write!(out, "{}", At(r, at)).expect("writing to a String");
        done = *pos;
    }
    out.push_str(&t.text[done..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_at};

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

    /// A cell every edit below moves, but none deletes or pushes off.
    const FAR: CellAddr = CellAddr::new(1000, 300);

    /// `src` entered in `cell`, rewritten for `shift` and spelled in the
    /// cell the edit moved it to; `None` when a reference is destroyed.
    fn rewritten(src: &str, cell: CellAddr, shift: Shift) -> Option<String> {
        let mut e = parse_at(src, cell).unwrap();
        match rewrite(&mut e, cell, shift) {
            Rewrite::Destroyed => None,
            _ => Some(At(&e, shift.apply(cell)?).to_string()),
        }
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
            let home = at(0, 0);
            assert_eq!(rewritten("A1+B2", home, shift).as_deref(), Some("(A1+B2)"));
            assert_eq!(rewritten("Z100", home, shift), None);
            assert_eq!(rewritten("SUM(A1:Z100)", home, shift), None);
            // The formula's own cell pushed off the sheet goes with it.
            assert_eq!(
                rewrite(&mut parse("1").unwrap(), FAR, shift),
                Rewrite::Destroyed
            );
        }
    }

    #[test]
    fn insert_rows_shifts_references_below() {
        let got = rewritten("A1+A10", FAR, Shift::InsertRows { at: 5, n: 2 });
        assert_eq!(got.as_deref(), Some("(A1+A12)"));
    }

    #[test]
    fn delete_rows_destroys_point_refs() {
        assert_eq!(
            rewritten("A5", FAR, Shift::DeleteRows { at: 4, n: 1 }),
            None
        );
        let got = rewritten("A5", FAR, Shift::DeleteRows { at: 0, n: 2 });
        assert_eq!(got.as_deref(), Some("A3"));
    }

    #[test]
    fn ranges_shrink_instead_of_dying() {
        let sum = |shift| rewritten("SUM(A1:A10)", FAR, shift);
        // Delete rows 0..5 (A1:A5): range becomes A1:A5 (the survivors).
        let got = sum(Shift::DeleteRows { at: 0, n: 5 });
        assert_eq!(got.as_deref(), Some("SUM(A1:A5)"));
        // Delete rows fully inside.
        let got = sum(Shift::DeleteRows { at: 2, n: 3 });
        assert_eq!(got.as_deref(), Some("SUM(A1:A7)"));
        // Delete the tail: A6:A10 gone, head survives.
        let got = rewritten("SUM(A5:A10)", FAR, Shift::DeleteRows { at: 5, n: 20 });
        assert_eq!(got.as_deref(), Some("SUM(A5:A5)"));
        // Whole range deleted → formula is destroyed.
        let got = rewritten("SUM(A5:A10)", FAR, Shift::DeleteRows { at: 4, n: 20 });
        assert_eq!(got, None);
    }

    #[test]
    fn a_reversed_range_moves_as_its_rectangle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // The two spellings of one rectangle, in both axes, with `$` flags
        // on one corner.
        let pairs = [
            ("A10:A1", "A1:A10"),
            ("$C$9:A2", "A2:$C$9"),
            ("C2:A$9", "A$9:C2"),
        ];
        // Positions near both ends of an axis, and counts from zero to
        // past the end.
        let pos = |rng: &mut StdRng| match rng.gen_range(0..5) {
            0 => u32::MAX - rng.gen_range(0..4),
            _ => rng.gen_range(0..14),
        };
        let count = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => 0,
            1 => u32::MAX,
            2 => u32::MAX - rng.gen_range(1..4),
            _ => rng.gen_range(1..12),
        };
        let cell = |rng: &mut StdRng| at(pos(rng), pos(rng));
        let mut rng = StdRng::seed_from_u64(49);
        for _ in 0..4000 {
            let (at, n) = (pos(&mut rng), count(&mut rng));
            let shift = match rng.gen_range(0..4) {
                0 => Shift::InsertRows { at, n },
                1 => Shift::DeleteRows { at, n },
                2 => Shift::InsertCols { at, n },
                _ => Shift::DeleteCols { at, n },
            };
            let home = cell(&mut rng);
            let Some(moved) = shift.apply(home) else {
                assert_eq!(
                    rewrite(&mut parse("1").unwrap(), home, shift),
                    Rewrite::Destroyed
                );
                continue;
            };
            // A reference and a range written in `home`, with seeded `$`
            // flags and corners in either order.
            let (t, ta, tb) = (cell(&mut rng), cell(&mut rng), cell(&mut rng));
            let mut r = |to| CellRef::to(to, rng.gen(), rng.gen(), home);
            let (r, a, b) = (r(t), r(ta), r(tb));
            let mut e = Expr::Func("SUM".into(), vec![Expr::Ref(r), Expr::Range(a, b)]);
            let report = rewrite(&mut e, home, shift);
            // Resolved at the moved cell, the rewrite is the one rule
            // applied to what the references named.
            let rect = Rect::new(ta.row, ta.col, tb.row, tb.col);
            let (Some(t2), Some(rect2)) = (shift.apply(t), shift.apply_rect(&rect)) else {
                assert_eq!(report, Rewrite::Destroyed, "{shift:?} at {home}");
                continue;
            };
            assert_eq!(
                collect_ranges_at(&e, moved),
                [Rect::cell(t2), rect2],
                "{shift:?} at {home}"
            );
            // Each reference keeps its flags, and the corners their order.
            let Expr::Func(_, args) = &e else {
                unreachable!()
            };
            let [Expr::Ref(r2), Expr::Range(a2, b2)] = args.as_slice() else {
                unreachable!()
            };
            assert_eq!((r.abs_row, r.abs_col), (r2.abs_row, r2.abs_col));
            assert_eq!((a.abs_row, a.abs_col), (a2.abs_row, a2.abs_col));
            assert_eq!((b.abs_row, b.abs_col), (b2.abs_row, b2.abs_col));
            let (ta2, tb2) = (a2.resolve(moved).unwrap(), b2.resolve(moved).unwrap());
            assert!(ta.row < tb.row || ta2.row >= tb2.row, "{shift:?}");
            assert!(ta.row > tb.row || ta2.row <= tb2.row, "{shift:?}");
            assert!(ta.col < tb.col || ta2.col >= tb2.col, "{shift:?}");
            assert!(ta.col > tb.col || ta2.col <= tb2.col, "{shift:?}");
            // Untouched exactly when nothing named moved; hit exactly when
            // the edit lands inside the range.
            let changed = t2 != t || rect2 != rect;
            assert_eq!(
                report == Rewrite::Untouched,
                !changed,
                "{shift:?} at {home}"
            );
            assert_eq!(report == Rewrite::Hit, shift.within(&rect).is_some());
            for (reversed, forward) in pairs {
                let (mut r, mut f) = (
                    parse_at(reversed, home).unwrap(),
                    parse_at(forward, home).unwrap(),
                );
                let (r2, f2) = (rewrite(&mut r, home, shift), rewrite(&mut f, home, shift));
                assert_eq!(r2, f2, "{reversed} vs {forward} under {shift:?}");
                if r2 != Rewrite::Destroyed {
                    assert_eq!(
                        r.rect_at(moved),
                        f.rect_at(moved),
                        "{reversed} vs {forward} under {shift:?}"
                    );
                }
            }
        }
        // Delete rows 1-5: both spellings keep rows 6-10 as rows 1-5.
        let top = Shift::DeleteRows { at: 0, n: 5 };
        assert_eq!(
            rewritten("SUM(A10:A1)", FAR, top).as_deref(),
            Some("SUM(A5:A1)")
        );
        assert_eq!(
            rewritten("SUM(A1:A10)", FAR, top).as_deref(),
            Some("SUM(A1:A5)")
        );
        // Delete rows 8-17: rows 1-7 survive, not the old row 18.
        let tail = Shift::DeleteRows { at: 7, n: 10 };
        assert_eq!(
            rewritten("SUM(A10:A1)", FAR, tail).as_deref(),
            Some("SUM(A7:A1)")
        );
        assert_eq!(
            rewritten("SUM(A1:A10)", FAR, tail).as_deref(),
            Some("SUM(A1:A7)")
        );
    }

    #[test]
    fn column_edits() {
        let got = rewritten("SUM(B1:D1)+E1", FAR, Shift::InsertCols { at: 2, n: 1 });
        assert_eq!(got.as_deref(), Some("(SUM(B1:E1)+F1)"));
        let got = rewritten("SUM(B1:D1)+E1", FAR, Shift::DeleteCols { at: 2, n: 1 });
        assert_eq!(got.as_deref(), Some("(SUM(B1:C1)+D1)"));
    }

    #[test]
    fn constants_untouched() {
        let mut e = parse("1+2*3").unwrap();
        let report = rewrite(&mut e, FAR, Shift::InsertRows { at: 0, n: 5 });
        assert_eq!(report, Rewrite::Untouched);
        assert_eq!(e, parse("1+2*3").unwrap());
    }

    #[test]
    fn the_report_is_the_most_any_reference_took() {
        let home = at(2, 2);
        let report = |src: &str, shift| rewrite(&mut parse_at(src, home).unwrap(), home, shift);
        let src = "A1+SUM(B2:B5)";
        // Below everything: the formula and what it reads stay put.
        assert_eq!(
            report(src, Shift::InsertRows { at: 9, n: 1 }),
            Rewrite::Untouched
        );
        // Between `A1` and the range: the range moves with its cells.
        assert_eq!(
            report(src, Shift::InsertRows { at: 1, n: 1 }),
            Rewrite::Retargeted
        );
        // Above everything: all move together, yet every cell named moved.
        assert_eq!(
            report(src, Shift::InsertRows { at: 0, n: 1 }),
            Rewrite::Retargeted
        );
        assert_eq!(report(src, Shift::InsertRows { at: 3, n: 1 }), Rewrite::Hit);
        assert_eq!(report(src, Shift::DeleteRows { at: 3, n: 1 }), Rewrite::Hit);
        assert_eq!(
            report(src, Shift::DeleteRows { at: 0, n: 1 }),
            Rewrite::Destroyed
        );
        // Above everything, the relative form is left as it was.
        let mut e = parse_at(src, home).unwrap();
        let before = e.clone();
        rewrite(&mut e, home, Shift::InsertRows { at: 0, n: 3 });
        assert_eq!(e, before);
    }
}
