//! The column-oriented translator (paper §IV-B, Figure 8b) — the exact
//! transpose of ROM: one tuple per sheet *column*, so column operations are
//! tuple operations and row operations are schema operations.

use dataspread_grid::{Cell, CellValue, Rect, ScanValue, Shift};
use dataspread_hybrid::ModelKind;

use crate::error::EngineError;
use crate::rom::{RomBuilder, RomTranslator};
use crate::translator::{CellVisitor, Translator};

/// Column-oriented storage: a transposed [`RomTranslator`].
#[derive(Debug, Default)]
pub struct ComTranslator {
    inner: RomTranslator,
}

impl ComTranslator {
    pub fn new() -> Self {
        ComTranslator {
            inner: RomTranslator::new(),
        }
    }
}

/// Push-style bulk builder: the row-major run is held back until `finish`,
/// then sorted into column-major order and replayed through
/// [`RomBuilder::push`] as the inner ROM's rows — one tuple per sheet
/// column.
#[derive(Default)]
pub(crate) struct ComBuilder {
    cells: Vec<(u32, u32, Cell)>,
}

impl ComBuilder {
    pub(crate) fn push(&mut self, row: u32, col: u32, value: ScanValue<'_>, formula: Option<&str>) {
        self.cells.push((col, row, value.to_cell(formula)));
    }

    pub(crate) fn finish(mut self) -> Result<ComTranslator, EngineError> {
        // Stable, so each column keeps the run's ascending row order.
        self.cells.sort_by_key(|&(col, ..)| col);
        let mut inner = RomBuilder::new();
        for (col, row, cell) in self.cells {
            let (value, formula) = (ScanValue::of(&cell.value), cell.formula.as_deref());
            inner.push(col, row, value, formula)?;
        }
        Ok(ComTranslator {
            inner: inner.finish()?,
        })
    }
}

fn transpose(rect: Rect) -> Rect {
    Rect::new(rect.c1, rect.r1, rect.c2, rect.r2)
}

impl Translator for ComTranslator {
    fn kind(&self) -> ModelKind {
        ModelKind::Com
    }

    fn rows(&self) -> u32 {
        self.inner.cols()
    }

    fn cols(&self) -> u32 {
        self.inner.rows()
    }

    fn value(&self, row: u32, col: u32) -> CellValue {
        self.inner.value(col, row)
    }

    fn set_cell(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError> {
        self.inner.set_cell(col, row, value, formula)
    }

    /// The inner ROM walks column-major, so its scan of the transposed rect
    /// is buffered and sorted back into row-major order.
    fn scan(&self, rect: Rect, f: &mut CellVisitor<'_>) {
        let mut cells: Vec<(u32, u32, Cell)> = Vec::new();
        self.inner
            .scan(transpose(rect), &mut |col, row, value, formula| {
                cells.push((row, col, value.to_cell(formula)));
            });
        cells.sort_unstable_by_key(|&(row, col, _)| (row, col));
        for (row, col, cell) in &cells {
            f(
                *row,
                *col,
                ScanValue::of(&cell.value),
                cell.formula.as_deref(),
            );
        }
    }

    /// A row edit here is a column edit of the inner ROM, and back.
    fn shift(&mut self, s: Shift) -> Result<(), EngineError> {
        self.inner.shift(s.transpose())
    }

    fn storage_bytes(&self) -> u64 {
        self.inner.storage_bytes()
    }

    fn filled_count(&self) -> u64 {
        self.inner.filled_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cells::StoreCells;
    use dataspread_grid::{Cell, CellValue};

    #[test]
    fn transposed_semantics_match_rom() {
        let mut com = ComTranslator::new();
        let mut rom = RomTranslator::new();
        for r in 0..5 {
            for c in 0..3 {
                let v = Cell::value((r * 10 + c) as i64);
                com.put_cell(r, c, v.clone()).unwrap();
                rom.put_cell(r, c, v).unwrap();
            }
        }
        assert_eq!(com.rows(), 5);
        assert_eq!(com.cols(), 3);
        for r in 0..5 {
            for c in 0..3 {
                assert_eq!(com.get_cell(r, c), rom.get_cell(r, c));
            }
        }
        let a = com.get_range(Rect::new(1, 0, 3, 2));
        let b = rom.get_range(Rect::new(1, 0, 3, 2));
        assert_eq!(a, b, "row-major ordering must match");
    }

    #[test]
    fn row_insert_in_com_is_schema_level() {
        let mut com = ComTranslator::new();
        for r in 0..4 {
            com.put_cell(r, 0, Cell::value(r as i64)).unwrap();
        }
        com.shift(Shift::InsertRows { at: 2, n: 1 }).unwrap();
        assert_eq!(com.rows(), 5);
        assert_eq!(com.get_cell(1, 0).unwrap().value, CellValue::Number(1.0));
        assert_eq!(com.get_cell(2, 0), None);
        assert_eq!(com.get_cell(3, 0).unwrap().value, CellValue::Number(2.0));
    }

    #[test]
    fn col_ops_are_tuple_level() {
        let mut com = ComTranslator::new();
        for c in 0..4 {
            com.put_cell(0, c, Cell::value(c as i64)).unwrap();
        }
        com.shift(Shift::InsertCols { at: 1, n: 2 }).unwrap();
        assert_eq!(com.cols(), 6);
        assert_eq!(com.get_cell(0, 0).unwrap().value, CellValue::Number(0.0));
        assert_eq!(com.get_cell(0, 1), None);
        assert_eq!(com.get_cell(0, 3).unwrap().value, CellValue::Number(1.0));
        com.shift(Shift::DeleteCols { at: 0, n: 1 }).unwrap();
        assert_eq!(com.get_cell(0, 0), None);
        assert_eq!(com.filled_count(), 3, "column 0 held the value 0");
    }
}
