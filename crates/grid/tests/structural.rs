//! Property tests for the sparse sheet's structural-edit semantics — the
//! oracle every storage translator is checked against must itself be sound.

use proptest::prelude::*;

use dataspread_grid::{CellAddr, GridError, SparseSheet};

fn sheet_strategy() -> impl Strategy<Value = SparseSheet> {
    prop::collection::vec(((0u32..40, 0u32..20), any::<i64>()), 0..80).prop_map(|cells| {
        let mut s = SparseSheet::new();
        for ((r, c), v) in cells {
            s.set_value(CellAddr::new(r, c), v);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn insert_rows_preserves_count_and_shifts(s in sheet_strategy(), at in 0u32..45, n in 1u32..5) {
        let mut t = s.clone();
        t.insert_rows(at, n).unwrap();
        prop_assert_eq!(t.filled_count(), s.filled_count());
        for (addr, cell) in s.iter() {
            let want = if addr.row >= at {
                CellAddr::new(addr.row + n, addr.col)
            } else {
                addr
            };
            prop_assert_eq!(t.get(want), Some(cell));
        }
        // The inserted band is blank.
        for r in at..at + n {
            for c in 0..20 {
                prop_assert!(t.get(CellAddr::new(r, c)).is_none());
            }
        }
    }

    #[test]
    fn insert_then_delete_rows_roundtrips(s in sheet_strategy(), at in 0u32..45, n in 1u32..5) {
        let mut t = s.clone();
        t.insert_rows(at, n).unwrap();
        t.delete_rows(at, n).unwrap();
        prop_assert_eq!(t, s);
    }

    #[test]
    fn insert_then_delete_cols_roundtrips(s in sheet_strategy(), at in 0u32..25, n in 1u32..4) {
        let mut t = s.clone();
        t.insert_cols(at, n).unwrap();
        t.delete_cols(at, n).unwrap();
        prop_assert_eq!(t, s);
    }

    #[test]
    fn delete_rows_drops_exactly_the_band(s in sheet_strategy(), at in 0u32..40, n in 1u32..5) {
        let mut t = s.clone();
        let dropped = s
            .iter()
            .filter(|(a, _)| a.row >= at && a.row < at + n)
            .count();
        t.delete_rows(at, n).unwrap();
        prop_assert_eq!(t.filled_count(), s.filled_count() - dropped);
        for (addr, cell) in s.iter() {
            if addr.row < at {
                prop_assert_eq!(t.get(addr), Some(cell));
            } else if addr.row >= at + n {
                prop_assert_eq!(t.get(CellAddr::new(addr.row - n, addr.col)), Some(cell));
            }
        }
    }

    #[test]
    fn density_is_bounded(s in sheet_strategy()) {
        let d = s.density();
        prop_assert!((0.0..=1.0).contains(&d));
        if let Some(b) = s.bounding_box() {
            prop_assert!(s.filled_count() as u64 <= b.area());
            // The bounding box is tight: its border rows/cols are occupied.
            let top = s.iter().any(|(a, _)| a.row == b.r1);
            let bottom = s.iter().any(|(a, _)| a.row == b.r2);
            let left = s.iter().any(|(a, _)| a.col == b.c1);
            let right = s.iter().any(|(a, _)| a.col == b.c2);
            prop_assert!(top && bottom && left && right);
        }
    }
}

/// Regression: the model added `r + n` / `at + n` unchecked, so an insert
/// pushing a cell past the last row or column, or a delete whose count
/// reaches past it, overflowed (a panic in a debug build). Now an insert
/// that would push a cell off the sheet is refused with the sheet
/// untouched, as the storage engine refuses it, and a delete past the last
/// row or column deletes to the end.
#[test]
fn an_insert_pushing_a_cell_off_the_sheet_is_refused_and_a_delete_runs_to_the_end() {
    let mut s = SparseSheet::new();
    for (r, c) in [(0, 0), (3, 7), (10, 2), (u32::MAX - 2, 4)] {
        s.set_value(CellAddr::new(r, c), i64::from(r % 100));
    }
    let before = s.clone();
    for result in [
        s.insert_rows(5, 3),
        s.insert_rows(0, u32::MAX),
        s.insert_cols(5, u32::MAX - 5),
        s.insert_cols(3, u32::MAX - 6),
    ] {
        assert!(
            matches!(result, Err(GridError::BadStructuralEdit(_))),
            "{result:?}"
        );
        assert_eq!(s, before, "a refused insert moves nothing");
    }
    // Pushing the last cell to the very last row is allowed.
    s.insert_rows(5, 2).unwrap();
    assert_eq!(
        s.get(CellAddr::new(u32::MAX, 4)),
        before.get(CellAddr::new(u32::MAX - 2, 4))
    );
    s.delete_rows(5, 2).unwrap();
    assert_eq!(s, before);

    let mut rows = before.clone();
    rows.delete_rows(5, u32::MAX).unwrap();
    let kept: Vec<CellAddr> = rows.iter().map(|(a, _)| a).collect();
    assert_eq!(kept, vec![CellAddr::new(0, 0), CellAddr::new(3, 7)]);
    let mut cols = before.clone();
    cols.delete_cols(3, u32::MAX).unwrap();
    let kept: Vec<CellAddr> = cols.iter().map(|(a, _)| a).collect();
    assert_eq!(kept, vec![CellAddr::new(0, 0), CellAddr::new(10, 2)]);
}
