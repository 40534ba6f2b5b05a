//! `SparseSheet`: the in-memory reference implementation of the conceptual
//! data model.
//!
//! This is the "collection of cells" abstraction of paper §IV-A, used as
//! (a) the input representation for the hybrid optimizer and the analysis
//! toolkit, and (b) the semantic oracle for the storage-engine translators:
//! structural edits here use straightforward (cascading) renumbering, which
//! is exactly the behaviour the positional-mapping structures must replicate
//! in O(log N).

use std::collections::BTreeMap;

use crate::addr::CellAddr;
use crate::error::GridError;
use crate::region::Rect;
use crate::shift::Shift;
use crate::value::{Cell, CellValue};

/// A sparse spreadsheet: only filled cells are stored.
///
/// Keys are `(row, col)` so iteration is row-major, matching the access
/// pattern of scrolling and range formulas.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseSheet {
    cells: BTreeMap<(u32, u32), Cell>,
}

impl SparseSheet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bulk-build from non-blank cells keyed `(row, col)` — what a storage
    /// scan yields. Of two cells at one address the later wins, as with
    /// [`SparseSheet::set`]; `BTreeMap`'s collect sorts the pairs (one pass
    /// over runs that are already row-major) and lays the tree out
    /// bottom-up instead of descending it once per cell.
    pub fn from_filled(cells: Vec<((u32, u32), Cell)>) -> Self {
        debug_assert!(cells.iter().all(|(_, c)| !c.is_blank()));
        SparseSheet {
            cells: cells.into_iter().collect(),
        }
    }

    /// Number of filled (non-blank) cells.
    pub fn filled_count(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn get(&self, addr: CellAddr) -> Option<&Cell> {
        self.cells.get(&(addr.row, addr.col))
    }

    /// The cell's computed value; `Empty` for blank cells.
    pub fn value(&self, addr: CellAddr) -> CellValue {
        self.get(addr).map(|c| c.value.clone()).unwrap_or_default()
    }

    /// Set a cell's contents. Blank cells are removed from storage so the
    /// sheet stays sparse.
    pub fn set(&mut self, addr: CellAddr, cell: Cell) {
        if cell.is_blank() {
            self.cells.remove(&(addr.row, addr.col));
        } else {
            self.cells.insert((addr.row, addr.col), cell);
        }
    }

    pub fn set_value(&mut self, addr: CellAddr, v: impl Into<CellValue>) {
        self.set(addr, Cell::value(v));
    }

    pub fn clear(&mut self, addr: CellAddr) -> Option<Cell> {
        self.cells.remove(&(addr.row, addr.col))
    }

    /// Iterate all filled cells in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (CellAddr, &Cell)> {
        self.cells
            .iter()
            .map(|(&(r, c), cell)| (CellAddr::new(r, c), cell))
    }

    /// Iterate the filled cells inside `rect`, row-major.
    pub fn iter_rect(&self, rect: Rect) -> impl Iterator<Item = (CellAddr, &Cell)> {
        self.cells
            .range((rect.r1, 0)..=(rect.r2, u32::MAX))
            .filter(move |(&(_, c), _)| c >= rect.c1 && c <= rect.c2)
            .map(|(&(r, c), cell)| (CellAddr::new(r, c), cell))
    }

    /// Minimum bounding rectangle of the filled cells, or `None` when empty.
    pub fn bounding_box(&self) -> Option<Rect> {
        if self.cells.is_empty() {
            return None;
        }
        let mut r1 = u32::MAX;
        let mut r2 = 0;
        let mut c1 = u32::MAX;
        let mut c2 = 0;
        for &(r, c) in self.cells.keys() {
            r1 = r1.min(r);
            r2 = r2.max(r);
            c1 = c1.min(c);
            c2 = c2.max(c);
        }
        Some(Rect::new(r1, c1, r2, c2))
    }

    /// Density: filled cells / bounding-box area (paper §II-B). 0 for empty.
    pub fn density(&self) -> f64 {
        match self.bounding_box() {
            Some(b) => self.filled_count() as f64 / b.area() as f64,
            None => 0.0,
        }
    }

    /// Insert `n` blank rows so the first inserted row has index `at`;
    /// existing rows at `at` and below shift down (cascading renumber —
    /// O(#cells); the storage engine's positional maps exist to avoid this).
    pub fn insert_rows(&mut self, at: u32, n: u32) -> Result<(), GridError> {
        self.apply_shift(Shift::InsertRows { at, n })
    }

    /// Delete rows `at..at+n` (to the last row, if that comes first); rows
    /// below shift up. Cells in deleted rows are dropped.
    pub fn delete_rows(&mut self, at: u32, n: u32) -> Result<(), GridError> {
        self.apply_shift(Shift::DeleteRows { at, n })
    }

    /// Insert `n` blank columns so the first inserted column has index `at`.
    pub fn insert_cols(&mut self, at: u32, n: u32) -> Result<(), GridError> {
        self.apply_shift(Shift::InsertCols { at, n })
    }

    /// Delete columns `at..at+n`; columns to the right shift left.
    pub fn delete_cols(&mut self, at: u32, n: u32) -> Result<(), GridError> {
        self.apply_shift(Shift::DeleteCols { at, n })
    }

    /// Move every cell by `shift`. An insert that would push a cell off the
    /// sheet is refused before anything moves.
    fn apply_shift(&mut self, shift: Shift) -> Result<(), GridError> {
        if shift.is_insert() {
            if let Some(&(r, c)) = self
                .cells
                .keys()
                .find(|&&(r, c)| shift.apply(CellAddr::new(r, c)).is_none())
            {
                return Err(GridError::BadStructuralEdit(format!(
                    "{shift:?} would push the cell at {} off the sheet",
                    CellAddr::new(r, c)
                )));
            }
        }
        self.cells = std::mem::take(&mut self.cells)
            .into_iter()
            .filter_map(|((r, c), cell)| {
                let to = shift.apply(CellAddr::new(r, c))?;
                Some(((to.row, to.col), cell))
            })
            .collect();
        Ok(())
    }

    /// Count formula cells.
    pub fn formula_count(&self) -> usize {
        self.cells.values().filter(|c| c.is_formula()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(r: u32, c: u32) -> CellAddr {
        CellAddr::new(r, c)
    }

    #[test]
    fn set_get_clear() {
        let mut s = SparseSheet::new();
        s.set_value(a(1, 1), 10i64);
        assert_eq!(s.value(a(1, 1)), CellValue::Number(10.0));
        assert_eq!(s.value(a(0, 0)), CellValue::Empty);
        assert_eq!(s.filled_count(), 1);
        s.clear(a(1, 1));
        assert!(s.is_empty());
    }

    #[test]
    fn blank_cells_are_not_stored() {
        let mut s = SparseSheet::new();
        s.set(a(0, 0), Cell::default());
        assert_eq!(s.filled_count(), 0);
        s.set_value(a(0, 0), 1i64);
        s.set(a(0, 0), Cell::default());
        assert_eq!(s.filled_count(), 0);
    }

    #[test]
    fn bounding_box_and_density() {
        let mut s = SparseSheet::new();
        assert_eq!(s.bounding_box(), None);
        s.set_value(a(2, 3), 1i64);
        s.set_value(a(5, 7), 2i64);
        assert_eq!(s.bounding_box(), Some(Rect::new(2, 3, 5, 7)));
        let density = 2.0 / 20.0;
        assert!((s.density() - density).abs() < 1e-12);
    }

    #[test]
    fn iter_rect_filters() {
        let mut s = SparseSheet::new();
        for r in 0..5 {
            for c in 0..5 {
                s.set_value(a(r, c), (r * 5 + c) as i64);
            }
        }
        let got: Vec<_> = s.iter_rect(Rect::new(1, 1, 2, 3)).collect();
        assert_eq!(got.len(), 6);
        assert_eq!(got[0].0, a(1, 1));
        assert_eq!(got[5].0, a(2, 3));
    }

    #[test]
    fn insert_rows_shifts_down() {
        let mut s = SparseSheet::new();
        s.set_value(a(0, 0), 0i64);
        s.set_value(a(1, 0), 1i64);
        s.set_value(a(2, 0), 2i64);
        s.insert_rows(1, 2).unwrap();
        assert_eq!(s.value(a(0, 0)), CellValue::Number(0.0));
        assert_eq!(s.value(a(1, 0)), CellValue::Empty);
        assert_eq!(s.value(a(3, 0)), CellValue::Number(1.0));
        assert_eq!(s.value(a(4, 0)), CellValue::Number(2.0));
    }

    #[test]
    fn delete_rows_drops_and_shifts() {
        let mut s = SparseSheet::new();
        for r in 0..5 {
            s.set_value(a(r, 0), r as i64);
        }
        s.delete_rows(1, 2).unwrap();
        assert_eq!(s.filled_count(), 3);
        assert_eq!(s.value(a(0, 0)), CellValue::Number(0.0));
        assert_eq!(s.value(a(1, 0)), CellValue::Number(3.0));
        assert_eq!(s.value(a(2, 0)), CellValue::Number(4.0));
    }

    #[test]
    fn insert_delete_cols() {
        let mut s = SparseSheet::new();
        for c in 0..4 {
            s.set_value(a(0, c), c as i64);
        }
        s.insert_cols(2, 1).unwrap();
        assert_eq!(s.value(a(0, 2)), CellValue::Empty);
        assert_eq!(s.value(a(0, 3)), CellValue::Number(2.0));
        s.delete_cols(0, 2).unwrap();
        assert_eq!(s.value(a(0, 0)), CellValue::Empty);
        assert_eq!(s.value(a(0, 1)), CellValue::Number(2.0));
        assert_eq!(s.value(a(0, 2)), CellValue::Number(3.0));
    }

    #[test]
    fn insert_then_delete_rows_roundtrip() {
        let mut s = SparseSheet::new();
        for r in 0..10 {
            for c in 0..3 {
                s.set_value(a(r, c), (r * 3 + c) as i64);
            }
        }
        let before = s.clone();
        s.insert_rows(4, 3).unwrap();
        s.delete_rows(4, 3).unwrap();
        assert_eq!(s, before);
    }

    #[test]
    fn from_filled_matches_set_in_order() {
        let pairs = vec![
            ((3, 1), Cell::value(1i64)),
            ((0, 2), Cell::value(2i64)),
            ((3, 1), Cell::value(3i64)),
            ((5, 5), Cell::formula("A1")),
        ];
        let mut by_set = SparseSheet::new();
        for ((r, c), cell) in pairs.clone() {
            by_set.set(a(r, c), cell);
        }
        let built = SparseSheet::from_filled(pairs);
        assert_eq!(built, by_set);
        assert_eq!(built.filled_count(), 3);
        assert_eq!(built.value(a(3, 1)), CellValue::Number(3.0));
    }

    #[test]
    fn formula_count_counts_only_formulas() {
        let mut s = SparseSheet::new();
        s.set_value(a(0, 0), 1i64);
        s.set(a(0, 1), Cell::formula("A1+1"));
        assert_eq!(s.formula_count(), 1);
    }
}
