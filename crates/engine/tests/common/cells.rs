//! Owned cells at the store boundary, for tests. A store takes a cell as
//! a borrowed `(value, formula)` pair, and its point read returns the
//! value alone. A test that holds owned [`Cell`]s writes them through
//! `put_cell` and `put_row`, and reads one back through `get_cell`: the
//! point read's value with the formula source a one-cell scan finds.
//!
//! Shared by the engine's unit tests (`lib.rs` includes this file) and its
//! integration tests (`#[path = "common/cells.rs"] mod cells;`), each of
//! which uses some of it.

#![allow(dead_code)]

use dataspread_engine::{EngineError, HybridSheet, Translator};
use dataspread_grid::{Cell, CellAddr, CellValue, Rect, ScanValue};

/// Owned-cell writes and whole-cell point reads on a translator, in its
/// local coordinates.
pub trait StoreCells {
    fn put_cell(&mut self, row: u32, col: u32, cell: Cell) -> Result<(), EngineError>;
    fn put_row(&mut self, row: u32, cells: Vec<(u32, Cell)>) -> Result<(), EngineError>;
    /// `None` when the cell is blank.
    fn get_cell(&self, row: u32, col: u32) -> Option<Cell>;
}

/// [`StoreCells`] on a hybrid sheet, in sheet coordinates.
pub trait SheetCells {
    fn put_cell(&mut self, addr: CellAddr, cell: Cell) -> Result<(), EngineError>;
    fn put_row(&mut self, row: u32, cells: Vec<(u32, Cell)>) -> Result<(), EngineError>;
    /// `None` when the cell is blank.
    fn get_cell(&self, addr: CellAddr) -> Option<Cell>;
}

/// A row batch as the borrows a store takes.
fn borrowed(cells: &[(u32, Cell)]) -> Vec<(u32, ScanValue<'_>, Option<&str>)> {
    cells
        .iter()
        .map(|(col, cell)| (*col, ScanValue::of(&cell.value), cell.formula.as_deref()))
        .collect()
}

/// The cell of a point read's `value` and a scan's `formula`.
fn cell(value: CellValue, formula: Option<String>) -> Option<Cell> {
    let cell = Cell { value, formula };
    (!cell.is_blank()).then_some(cell)
}

impl<T: Translator + ?Sized> StoreCells for T {
    fn put_cell(&mut self, row: u32, col: u32, cell: Cell) -> Result<(), EngineError> {
        self.set_cell(
            row,
            col,
            ScanValue::of(&cell.value),
            cell.formula.as_deref(),
        )
    }

    fn put_row(&mut self, row: u32, cells: Vec<(u32, Cell)>) -> Result<(), EngineError> {
        self.set_cells_in_row(row, &borrowed(&cells))
    }

    fn get_cell(&self, row: u32, col: u32) -> Option<Cell> {
        let mut formula = None;
        self.scan(Rect::new(row, col, row, col), &mut |_, _, _, f| {
            formula = f.map(str::to_string);
        });
        cell(self.value(row, col), formula)
    }
}

impl SheetCells for HybridSheet {
    fn put_cell(&mut self, addr: CellAddr, cell: Cell) -> Result<(), EngineError> {
        self.set_cell(addr, ScanValue::of(&cell.value), cell.formula.as_deref())
    }

    fn put_row(&mut self, row: u32, cells: Vec<(u32, Cell)>) -> Result<(), EngineError> {
        self.set_cells_in_row(row, &borrowed(&cells))
    }

    fn get_cell(&self, addr: CellAddr) -> Option<Cell> {
        let mut formula = None;
        self.scan(
            Rect::new(addr.row, addr.col, addr.row, addr.col),
            |_, _, _, f| {
                formula = f.map(str::to_string);
            },
        );
        cell(self.value(addr), formula)
    }
}
