//! The row-oriented translator (paper §IV-B, Figure 8a).
//!
//! One tuple per sheet row; each sheet column occupies a `[value, formula]`
//! datum pair. Positions are *not* stored: a hierarchical positional map on
//! the row axis maps row positions to tuple ids, and one on the column axis
//! maps column positions to physical column groups — so row *and* column
//! inserts avoid cascading updates (paper §V: "row and column numbers can
//! be dealt with independently").
//!
//! A write re-writes its row's tuple the way the builder writes one, from
//! the old datums as borrows through a kept [`RowWriter`] and
//! [`write_stored`] into [`Table::update_row`] (Figure 22's one UPDATE per
//! row). The point read decodes only the cell's value datum.
//!
//! Deletes are map edits too. A row delete drops its tuple; a column delete
//! takes its group out of the column map and its cells out of the counts,
//! and touches no tuple. The group's datums stay in the tuples, where no
//! read reaches them (every read goes through the column map), until the
//! region is rebuilt: a checkpoint encodes the region from its scan, and
//! reopen, `migrate_region` and `reorganize` build compact stores. Until
//! then [`Translator::storage_bytes`] still counts them, the way a dropped
//! PostgreSQL column takes space until its table is rewritten.

use dataspread_grid::{codec, CellValue, Rect, ScanValue, Shift};
use dataspread_hybrid::ModelKind;
use dataspread_posmap::{HierarchicalPosMap, PositionalMap, MAX_POSITIONS};
use dataspread_relstore::{ColumnDef, DataType, DatumRef, RowWriter, Schema, Table, TupleId};

use crate::error::EngineError;
use crate::translator::{datum_to_scan, is_blank, write_stored, CellVisitor, Translator};

/// Row-oriented storage for one region.
pub struct RomTranslator {
    table: Table,
    /// Row position → tuple id.
    rows_map: HierarchicalPosMap<TupleId>,
    /// Column position → physical column group (datums `2g` and `2g+1`).
    cols_map: HierarchicalPosMap<u32>,
    filled: u64,
    /// Non-blank cells per physical group, one entry per group ever made;
    /// a deleted column's group reads 0.
    group_filled: Vec<u64>,
    /// The tuple a write is re-written in, reused from write to write.
    writer: RowWriter,
}

impl std::fmt::Debug for RomTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RomTranslator")
            .field("rows", &self.rows_map.len())
            .field("cols", &self.cols_map.len())
            .field("filled", &self.filled)
            .finish()
    }
}

impl Default for RomTranslator {
    fn default() -> Self {
        Self::new()
    }
}

impl RomTranslator {
    pub fn new() -> Self {
        RomTranslator {
            table: Table::new("rom", Schema::new(Vec::new())),
            rows_map: HierarchicalPosMap::new(),
            cols_map: HierarchicalPosMap::new(),
            filled: 0,
            group_filled: Vec::new(),
            writer: RowWriter::default(),
        }
    }

    /// An import block `rows` x `width` ([`codec::encode_block`]) visited
    /// straight into the builder — the one way an import is built, with
    /// O(N) positional maps (the paper's VCF ingest). A side past
    /// [`MAX_POSITIONS`] is refused first: a claimed row count or width
    /// must not make the builder materialize billions of them.
    pub(crate) fn from_block(width: u32, rows: u32, block: &[u8]) -> Result<Self, EngineError> {
        if rows.max(width) > MAX_POSITIONS {
            return Err(EngineError::Unsupported(format!(
                "importing {rows}x{width} would pass the {MAX_POSITIONS}-position cap"
            )));
        }
        let mut b = RomBuilder::new();
        b.widen(width)?;
        codec::visit_block(block, rows, width, |row, col, value| {
            b.push(row, col, value, None)
        })?;
        b.rows = rows;
        b.finish()
    }

    fn ensure_rows(&mut self, upto: u32) -> Result<(), EngineError> {
        while self.rows_map.len() <= upto as usize {
            let tid = self.table.insert_prefix(&[])?;
            self.rows_map.push(tid);
        }
        Ok(())
    }

    fn ensure_cols(&mut self, upto: u32) -> Result<(), EngineError> {
        while self.cols_map.len() <= upto as usize {
            let g = self.fresh_group()?;
            self.cols_map.push(g);
        }
        Ok(())
    }

    /// Allocate a fresh physical group without appending it to the column
    /// map (used by middle-of-sheet column inserts).
    fn fresh_group(&mut self) -> Result<u32, EngineError> {
        let g = self.group_filled.len() as u32;
        add_group(&mut self.table, g)?;
        self.group_filled.push(0);
        Ok(g)
    }

    /// The physical group of sheet column `col`, which must exist.
    fn group(&self, col: u32) -> usize {
        *self.cols_map.get(col as usize).expect("ensured") as usize
    }

    /// Write `cells` — (physical group, value, formula) — into sheet row
    /// `row` with one tuple rewrite, keeping `filled` and the group counts
    /// in step; a group's last write is the one stored.
    fn write_row(
        &mut self,
        row: u32,
        cells: &[(usize, ScanValue<'_>, Option<&str>)],
    ) -> Result<(), EngineError> {
        self.ensure_rows(row)?;
        let tid = *self.rows_map.get(row as usize).expect("ensured");
        let mut old = Vec::new();
        self.table.fetch_ref(tid, &mut old)?;
        for (g, pair) in old.chunks_exact(2).enumerate() {
            let Some(&(_, value, formula)) = cells.iter().rev().find(|w| w.0 == g) else {
                self.writer.push(pair[0]);
                self.writer.push(pair[1]);
                continue;
            };
            match (pair_blank(pair), is_blank(value, formula)) {
                (true, false) => {
                    self.filled += 1;
                    self.group_filled[g] += 1;
                }
                (false, true) => {
                    self.filled -= 1;
                    self.group_filled[g] -= 1;
                }
                _ => {}
            }
            write_stored(&mut self.writer, value, formula);
        }
        self.table.update_row(tid, &mut self.writer)?;
        Ok(())
    }

    /// The projected decode of sheet columns `c1..=c2`: the physical datum
    /// indices to fetch (sorted, as `fetch_cols_ref` wants them) and, per sheet
    /// column in position order, where its `(value, formula)` pair sits in
    /// the projected output.
    fn projection(&self, c1: u32, c2: u32) -> (Vec<(u32, usize)>, Vec<usize>) {
        let mut groups: Vec<(u32, usize)> = (c1..=c2)
            .filter_map(|c| self.cols_map.get(c as usize).map(|&g| (c, g as usize)))
            .collect();
        let mut by_group: Vec<usize> = (0..groups.len()).collect();
        by_group.sort_unstable_by_key(|&i| groups[i].1);
        let mut wanted = Vec::with_capacity(groups.len() * 2);
        for i in by_group {
            let g = std::mem::replace(&mut groups[i].1, wanted.len());
            wanted.extend([2 * g, 2 * g + 1]);
        }
        (groups, wanted)
    }
}

/// Whether a stored `[value, formula]` pair is a blank cell (two NULLs).
fn pair_blank(pair: &[DatumRef<'_>]) -> bool {
    pair.iter().all(|d| *d == DatumRef::Null)
}

/// Add physical group `g`'s `[value, formula]` columns to a ROM table.
fn add_group(table: &mut Table, g: u32) -> Result<(), EngineError> {
    table.add_column(ColumnDef::new(format!("v{g}"), DataType::Any))?;
    table.add_column(ColumnDef::new(format!("f{g}"), DataType::Any))?;
    Ok(())
}

/// Push-style bulk builder: cells arrive in strictly increasing row-major
/// order (the caller's contract — [`crate::hybrid::RegionBuilder`] checks
/// it) and each sheet row becomes one tuple the moment the next row starts.
/// The open row is kept as tuple bytes: NULL gap datums and each cell's
/// stored pair are written straight from the borrowed value and source
/// ([`write_stored`]), so no `Datum` or `String` is made per cell. A row is
/// only as wide as its last cell and blank rows are empty tuples, so
/// `rows()` is the last cell's row + 1 and `cols()` the widest column + 1 —
/// exactly what per-cell `set_cell` of the same cells produces, and the
/// same accounted bytes: a short tuple's missing positions are priced as
/// NULLs.
pub(crate) struct RomBuilder {
    table: Table,
    cols_map: HierarchicalPosMap<u32>,
    tids: Vec<TupleId>,
    filled: u64,
    group_filled: Vec<u64>,
    /// Rows the region spans so far (the open row included).
    rows: u32,
    /// The open row, reused from row to row.
    tuple: RowWriter,
    /// Sheet columns the open row holds so far.
    written: u32,
}

impl RomBuilder {
    pub(crate) fn new() -> Self {
        RomBuilder {
            table: Table::new("rom", Schema::new(Vec::new())),
            cols_map: HierarchicalPosMap::new(),
            tids: Vec::new(),
            filled: 0,
            group_filled: Vec::new(),
            rows: 0,
            tuple: RowWriter::default(),
            written: 0,
        }
    }

    /// Make the table at least `width` sheet columns wide.
    fn widen(&mut self, width: u32) -> Result<(), EngineError> {
        for g in self.cols_map.len() as u32..width {
            add_group(&mut self.table, g)?;
            self.cols_map.push(g);
            self.group_filled.push(0);
        }
        Ok(())
    }

    /// Store the open row as one tuple.
    fn end_row(&mut self) -> Result<(), EngineError> {
        self.tids.push(self.table.insert_row(&mut self.tuple)?);
        self.written = 0;
        Ok(())
    }

    pub(crate) fn push(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError> {
        while (self.tids.len() as u32) < row {
            self.end_row()?;
        }
        self.rows = row + 1;
        self.widen(col + 1)?;
        for _ in self.written..col {
            self.tuple.push(DatumRef::Null);
            self.tuple.push(DatumRef::Null);
        }
        self.written = col + 1;
        let filled = u64::from(!is_blank(value, formula));
        self.filled += filled;
        self.group_filled[col as usize] += filled;
        write_stored(&mut self.tuple, value, formula);
        Ok(())
    }

    pub(crate) fn finish(mut self) -> Result<RomTranslator, EngineError> {
        while (self.tids.len() as u32) < self.rows {
            self.end_row()?;
        }
        Ok(RomTranslator {
            table: self.table,
            rows_map: HierarchicalPosMap::bulk_load(self.tids),
            cols_map: self.cols_map,
            filled: self.filled,
            group_filled: self.group_filled,
            writer: self.tuple,
        })
    }
}

impl Translator for RomTranslator {
    fn kind(&self) -> ModelKind {
        ModelKind::Rom
    }

    fn rows(&self) -> u32 {
        self.rows_map.len() as u32
    }

    fn cols(&self) -> u32 {
        self.cols_map.len() as u32
    }

    fn value(&self, row: u32, col: u32) -> CellValue {
        let (Some(&tid), Some(&g)) = (
            self.rows_map.get(row as usize),
            self.cols_map.get(col as usize),
        ) else {
            return CellValue::Empty;
        };
        self.table
            .fetch_col_ref(tid, 2 * g as usize)
            .map_or(CellValue::Empty, |d| datum_to_scan(d).to_value())
    }

    fn set_cell(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError> {
        self.ensure_cols(col)?;
        self.write_row(row, &[(self.group(col), value, formula)])
    }

    fn set_cells_in_row(
        &mut self,
        row: u32,
        cells: &[(u32, ScanValue<'_>, Option<&str>)],
    ) -> Result<(), EngineError> {
        let Some(max_col) = cells.iter().map(|&(c, ..)| c).max() else {
            return Ok(());
        };
        self.ensure_cols(max_col)?;
        let by_group: Vec<_> = cells
            .iter()
            .map(|&(c, v, f)| (self.group(c), v, f))
            .collect();
        self.write_row(row, &by_group)
    }

    /// One ordered walk of the rows in `rect`: each tuple is decoded once,
    /// in place and only at the projected columns, into a buffer reused
    /// from row to row; its cells are handed out as borrows.
    fn scan(&self, rect: Rect, f: &mut CellVisitor<'_>) {
        if rect.r1 >= self.rows() || rect.c1 >= self.cols() {
            return;
        }
        let row_count = (rect.r2.min(self.rows() - 1) - rect.r1) as usize + 1;
        let (groups, wanted) = self.projection(rect.c1, rect.c2.min(self.cols() - 1));
        let mut proj: Vec<DatumRef<'_>> = Vec::with_capacity(wanted.len());
        for (r, tid) in (rect.r1..).zip(self.rows_map.range(rect.r1 as usize, row_count)) {
            if self.table.fetch_cols_ref(*tid, &wanted, &mut proj).is_err() {
                continue;
            }
            for &(c, at) in &groups {
                let formula = proj[at + 1].as_str();
                let value = datum_to_scan(proj[at]);
                if !is_blank(value, formula) {
                    f(r, c, value, formula);
                }
            }
        }
    }

    fn shift(&mut self, s: Shift) -> Result<(), EngineError> {
        match s {
            Shift::InsertRows { at, n } => {
                if at > 0 {
                    self.ensure_rows(at - 1)?;
                }
                for _ in 0..n {
                    let tid = self.table.insert_prefix(&[])?;
                    self.rows_map.insert_at(at as usize, tid);
                }
            }
            Shift::DeleteRows { at, n } => {
                for _ in 0..n {
                    let Some(tid) = self.rows_map.remove_at(at as usize) else {
                        break;
                    };
                    // Only a group with cells can lose one: a deleted
                    // column's group reads 0, so its datums count for nothing.
                    let mut tuple = Vec::new();
                    if self.table.fetch_ref(tid, &mut tuple).is_ok() {
                        for (pair, count) in tuple.chunks_exact(2).zip(&mut self.group_filled) {
                            if *count > 0 && !pair_blank(pair) {
                                *count -= 1;
                                self.filled -= 1;
                            }
                        }
                    }
                    self.table.delete(tid);
                }
            }
            Shift::InsertCols { at, n } => {
                if at > 0 {
                    self.ensure_cols(at - 1)?;
                }
                for _ in 0..n {
                    let g = self.fresh_group()?;
                    self.cols_map.insert_at(at as usize, g);
                }
            }
            Shift::DeleteCols { at, n } => {
                // A column-map edit: the group's cells leave the counts and
                // its datums stay in the tuples, unread, until a rebuild
                // (reopen, migrate or reorganize) leaves them behind.
                for _ in 0..n {
                    let Some(g) = self.cols_map.remove_at(at as usize) else {
                        break;
                    };
                    self.filled -= std::mem::take(&mut self.group_filled[g as usize]);
                }
            }
        }
        Ok(())
    }

    fn storage_bytes(&self) -> u64 {
        self.table.accounted_bytes()
    }

    fn filled_count(&self) -> u64 {
        self.filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cells::StoreCells;
    use crate::translator::WHOLE;
    use dataspread_grid::{Cell, CellAddr, CellValue};

    fn cell(n: i64) -> Cell {
        Cell::value(n)
    }

    #[test]
    fn set_get_roundtrip() {
        let mut t = RomTranslator::new();
        t.put_cell(2, 3, cell(42)).unwrap();
        assert_eq!(t.get_cell(2, 3).unwrap().value, CellValue::Number(42.0));
        assert_eq!(t.get_cell(0, 0), None);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.filled_count(), 1);
    }

    #[test]
    fn formulas_survive_storage() {
        let mut t = RomTranslator::new();
        t.put_cell(
            0,
            0,
            Cell {
                value: CellValue::Number(85.0),
                formula: Some("AVERAGE(B2:C2)+D2+E2".into()),
            },
        )
        .unwrap();
        let got = t.get_cell(0, 0).unwrap();
        assert_eq!(got.formula.as_deref(), Some("AVERAGE(B2:C2)+D2+E2"));
    }

    #[test]
    fn insert_rows_shifts_without_renumbering() {
        let mut t = RomTranslator::new();
        for r in 0..10 {
            t.put_cell(r, 0, cell(r as i64)).unwrap();
        }
        t.shift(Shift::InsertRows { at: 5, n: 2 }).unwrap();
        assert_eq!(t.rows(), 12);
        assert_eq!(t.get_cell(4, 0).unwrap().value, CellValue::Number(4.0));
        assert_eq!(t.get_cell(5, 0), None);
        assert_eq!(t.get_cell(6, 0), None);
        assert_eq!(t.get_cell(7, 0).unwrap().value, CellValue::Number(5.0));
        assert_eq!(t.get_cell(11, 0).unwrap().value, CellValue::Number(9.0));
    }

    #[test]
    fn delete_rows_updates_filled() {
        let mut t = RomTranslator::new();
        for r in 0..6 {
            t.put_cell(r, 0, cell(r as i64)).unwrap();
            t.put_cell(r, 1, cell(-(r as i64))).unwrap();
        }
        assert_eq!(t.filled_count(), 12);
        t.shift(Shift::DeleteRows { at: 1, n: 2 }).unwrap();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.filled_count(), 8);
        assert_eq!(t.get_cell(1, 0).unwrap().value, CellValue::Number(3.0));
    }

    #[test]
    fn insert_and_delete_cols_via_column_posmap() {
        let mut t = RomTranslator::new();
        for c in 0..4 {
            t.put_cell(0, c, cell(c as i64)).unwrap();
        }
        t.shift(Shift::InsertCols { at: 2, n: 1 }).unwrap();
        assert_eq!(t.cols(), 5);
        assert_eq!(t.get_cell(0, 1).unwrap().value, CellValue::Number(1.0));
        assert_eq!(t.get_cell(0, 2), None, "new column is blank");
        assert_eq!(t.get_cell(0, 3).unwrap().value, CellValue::Number(2.0));
        // Deleting columns 0..2 removes the values 0 and 1; the blank
        // inserted column becomes position 0.
        t.shift(Shift::DeleteCols { at: 0, n: 2 }).unwrap();
        assert_eq!(t.get_cell(0, 0), None, "the blank inserted column");
        assert_eq!(t.get_cell(0, 1).unwrap().value, CellValue::Number(2.0));
        assert_eq!(t.filled_count(), 2);
    }

    #[test]
    fn delete_cols_edits_the_column_map_and_a_rebuild_drops_the_data() {
        let mut t = RomTranslator::new();
        for r in 0..5u32 {
            for c in 0..6u32 {
                if (r + c) % 4 != 0 {
                    t.put_cell(r, c, cell(i64::from(10 * r + c))).unwrap();
                }
            }
        }
        let bytes = t.storage_bytes();
        t.shift(Shift::DeleteCols { at: 1, n: 3 }).unwrap();
        assert_eq!(t.cols(), 3);
        let left = t.all_cells();
        assert_eq!(left.len(), 10);
        assert_eq!(t.filled_count(), 10, "every deleted group's cells went");
        for (a, c) in &left {
            let from = if a.col == 0 { 0 } else { a.col + 3 };
            assert_eq!(c.value, CellValue::Number(f64::from(10 * a.row + from)));
        }
        assert_eq!(t.storage_bytes(), bytes, "no tuple was rewritten");
        // A rebuild from the scan (what reopen, migrate and reorganize do)
        // holds only the live cells.
        let mut b = RomBuilder::new();
        t.scan(WHOLE, &mut |r, c, v, f| b.push(r, c, v, f).unwrap());
        let rebuilt = b.finish().unwrap();
        assert_eq!(rebuilt.all_cells(), left);
        assert_eq!(rebuilt.filled_count(), 10);
        assert!(rebuilt.storage_bytes() < bytes, "the deleted data is gone");
    }

    #[test]
    fn a_row_delete_counts_only_live_columns() {
        let mut t = RomTranslator::new();
        for r in 0..3u32 {
            for c in 0..4u32 {
                t.put_cell(r, c, cell(i64::from(10 * r + c))).unwrap();
            }
        }
        t.shift(Shift::DeleteCols { at: 1, n: 2 }).unwrap();
        assert_eq!(t.filled_count(), 6);
        t.shift(Shift::DeleteRows { at: 0, n: 2 }).unwrap();
        assert_eq!(t.filled_count(), 2, "deleted columns count for nothing");
        assert_eq!(t.get_cell(0, 1).unwrap().value, CellValue::Number(23.0));
        t.put_cell(0, 1, Cell::default()).unwrap();
        assert_eq!(t.filled_count(), 1);
    }

    #[test]
    fn get_range_row_major() {
        let mut t = RomTranslator::new();
        for r in 0..5 {
            for c in 0..3 {
                t.put_cell(r, c, cell((r * 3 + c) as i64)).unwrap();
            }
        }
        let cells = t.get_range(Rect::new(1, 1, 3, 2));
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].0, CellAddr::new(1, 1));
        assert_eq!(cells[5].0, CellAddr::new(3, 2));
        // Out-of-extent ranges clamp.
        assert!(t.get_range(Rect::new(10, 0, 20, 2)).is_empty());
    }

    #[test]
    fn clear_cell_blanks_and_counts() {
        let mut t = RomTranslator::new();
        t.put_cell(0, 0, cell(1)).unwrap();
        t.clear_cell(0, 0).unwrap();
        assert_eq!(t.get_cell(0, 0), None);
        assert_eq!(t.filled_count(), 0);
        // Clearing out-of-range is a no-op.
        t.clear_cell(99, 99).unwrap();
    }

    #[test]
    fn storage_grows_with_data() {
        let mut t = RomTranslator::new();
        let empty = t.storage_bytes();
        for r in 0..100 {
            for c in 0..5 {
                t.put_cell(r, c, cell(1)).unwrap();
            }
        }
        assert!(t.storage_bytes() > empty);
    }
}
