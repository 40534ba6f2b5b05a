//! The rectangle rule is the point rule: `Shift::apply_rect` and
//! `Shift::within` are checked against `Shift::apply` over random rects and
//! edits, zero counts and edges at 0 and `u32::MAX` included.

use proptest::prelude::*;

use dataspread_grid::{CellAddr, Rect, Shift};

/// Positions biased toward the edges and toward small values, where rects
/// and edits overlap.
fn pos() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(1u32),
        Just(u32::MAX),
        Just(u32::MAX - 1),
        0u32..48,
        any::<u32>(),
    ]
}

fn count() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 1u32..8, any::<u32>()]
}

fn shift() -> impl Strategy<Value = Shift> {
    (0u8..4, pos(), count()).prop_map(|(kind, at, n)| match kind {
        0 => Shift::InsertRows { at, n },
        1 => Shift::DeleteRows { at, n },
        2 => Shift::InsertCols { at, n },
        _ => Shift::DeleteCols { at, n },
    })
}

fn on_rows(s: Shift) -> bool {
    matches!(s, Shift::InsertRows { .. } | Shift::DeleteRows { .. })
}

fn parts(s: Shift) -> (u32, u32, bool) {
    match s {
        Shift::InsertRows { at, n } | Shift::InsertCols { at, n } => (at, n, true),
        Shift::DeleteRows { at, n } | Shift::DeleteCols { at, n } => (at, n, false),
    }
}

/// Where position `p` on the edit's axis goes, by the point rule.
fn place(s: Shift, p: u32) -> Option<u32> {
    if on_rows(s) {
        s.apply(CellAddr::new(p, 7)).map(|a| a.row)
    } else {
        s.apply(CellAddr::new(7, p)).map(|a| a.col)
    }
}

fn span(s: Shift, r: &Rect) -> (u32, u32) {
    if on_rows(s) {
        (r.r1, r.r2)
    } else {
        (r.c1, r.c2)
    }
}

/// The positions of `lo..=hi` where the point rule can change behaviour:
/// every position of a short span, else its ends and the edit's edges.
/// Survivors of a delete are a prefix and a suffix of the span, and the
/// positions an insert pushes off are a suffix, so these include the
/// first and last survivor.
fn probes(s: Shift, lo: u32, hi: u32) -> Vec<u32> {
    if hi - lo < 64 {
        return (lo..=hi).collect();
    }
    let (at, n, _) = parts(s);
    let end = u64::from(at) + u64::from(n);
    let mut out: Vec<u32> = [
        Some(lo),
        lo.checked_add(1),
        Some(hi),
        hi.checked_sub(1),
        at.checked_sub(1),
        Some(at),
        u32::try_from(end).ok(),
        u32::try_from(end.saturating_sub(1)).ok(),
    ]
    .into_iter()
    .flatten()
    .filter(|p| (lo..=hi).contains(p))
    .collect();
    out.sort_unstable();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn apply_rect_and_within_follow_apply(
        s in shift(),
        (a, b, c, d) in (pos(), pos(), pos(), pos()),
    ) {
        let r = Rect::new(a, c, b, d);
        let (at, n, insert) = parts(s);
        let (lo, hi) = span(s, &r);
        let probes = probes(s, lo, hi);
        let survivors: Vec<u32> = probes.iter().copied().filter(|&p| place(s, p).is_some()).collect();
        let pushed_off = insert && place(s, hi).is_none();

        // None exactly when nothing survives or an insert pushes an end off.
        let moved = s.apply_rect(&r);
        prop_assert_eq!(moved.is_none(), survivors.is_empty() || pushed_off, "{:?} {:?}", s, r);
        if let Some(m) = moved {
            let (first, last) = (survivors[0], *survivors.last().unwrap());
            prop_assert_eq!(span(s, &m), (place(s, first).unwrap(), place(s, last).unwrap()));
            // The other axis does not move.
            let other = |x: &Rect| if on_rows(s) { (x.c1, x.c2) } else { (x.r1, x.r2) };
            prop_assert_eq!(other(&m), other(&r));
        }
        if n == 0 {
            prop_assert_eq!(moved, Some(r));
        }

        // Some exactly when the edit changes what the rect holds: a delete
        // removes one of its positions, or two neighbours land apart. (An
        // insert pushing the rect off the sheet is refused before it runs.)
        let removed = !insert && probes.iter().any(|&p| place(s, p).is_none());
        let split = probes.iter().chain(at.checked_sub(1).iter()).any(|&p| {
            p >= lo && p < hi && matches!(
                (place(s, p), place(s, p + 1)),
                (Some(x), Some(y)) if y != x + 1
            )
        });
        let inner = s.within(&r);
        if moved.is_some() || !insert {
            prop_assert_eq!(inner.is_some(), n > 0 && (removed || split), "{:?} {:?}", s, r);
        }

        // The local edit, then the move to the new rect, puts every
        // surviving position where the point rule does.
        if let Some(m) = moved {
            let new_lo = span(s, &m).0;
            for &p in &survivors {
                let local = p - lo;
                let local = match inner {
                    Some(w) => place(w, local),
                    None => Some(local),
                };
                prop_assert_eq!(local.map(|l| new_lo + l), place(s, p), "{:?} {:?} at {}", s, r, p);
            }
        }
        if let Some(w) = inner {
            let (wat, wn, winsert) = parts(w);
            prop_assert_eq!(winsert, insert);
            prop_assert_eq!(on_rows(w), on_rows(s));
            prop_assert!(wn > 0 && wn <= n);
            prop_assert!(u64::from(wat) <= u64::from(hi - lo));
        }
    }

    #[test]
    fn transpose_swaps_the_axis(s in shift(), row in pos(), col in pos()) {
        let t = s.transpose();
        prop_assert_eq!(t.transpose(), s);
        let flip = |a: CellAddr| CellAddr::new(a.col, a.row);
        prop_assert_eq!(t.apply(flip(CellAddr::new(row, col))).map(flip), s.apply(CellAddr::new(row, col)));
    }
}

#[test]
fn pinned_rects() {
    let r = Rect::new(2, 0, 9, 3);
    // A delete straddling the top edge shrinks and lifts the rect.
    let s = Shift::DeleteRows { at: 0, n: 5 };
    assert_eq!(s.apply_rect(&r), Some(Rect::new(0, 0, 4, 3)));
    assert_eq!(s.within(&r), Some(Shift::DeleteRows { at: 0, n: 3 }));
    // A delete covering it drops it; one past it leaves it alone.
    assert_eq!(Shift::DeleteRows { at: 2, n: 8 }.apply_rect(&r), None);
    assert_eq!(Shift::DeleteRows { at: 10, n: 8 }.within(&r), None);
    // An insert at its first row moves it; one inside grows it.
    let s = Shift::InsertRows { at: 2, n: 3 };
    assert_eq!(s.apply_rect(&r), Some(Rect::new(5, 0, 12, 3)));
    assert_eq!(s.within(&r), None);
    let s = Shift::InsertRows { at: 9, n: 3 };
    assert_eq!(s.apply_rect(&r), Some(Rect::new(2, 0, 12, 3)));
    assert_eq!(s.within(&r), Some(Shift::InsertRows { at: 7, n: 3 }));
    // Zero counts change nothing.
    for s in [
        Shift::DeleteRows { at: 5, n: 0 },
        Shift::InsertCols { at: 1, n: 0 },
    ] {
        assert_eq!(s.apply_rect(&r), Some(r));
        assert_eq!(s.within(&r), None);
    }
    // An insert pushing the last row off the sheet.
    let edge = Rect::new(u32::MAX - 1, 0, u32::MAX, 0);
    assert_eq!(Shift::InsertRows { at: 0, n: 1 }.apply_rect(&edge), None);
}
