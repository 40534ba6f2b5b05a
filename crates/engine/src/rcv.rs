//! The row-column-value translator (paper §IV-B, Figure 8c).
//!
//! One tuple per *filled* cell, keyed by stable row/column identifiers.
//! Positional maps translate row/column positions to identifiers (paper §V:
//! "the positional mapper translates the row and column numbers into the
//! corresponding stored identifiers"), and an ordered index (std's
//! `BTreeMap`, standing in for the database's B-tree) maps
//! `(row id, col id)` to the tuple. Structural edits touch only the
//! positional maps — O(log N), no tuple rewrites.
//!
//! A write goes the builder's way, its tuple through a kept [`RowWriter`]
//! and [`write_stored`] into [`Table::insert_row`] or
//! [`Table::update_row`]; the point read decodes the value datum alone.
//!
//! The maps materialize every position up to the highest one touched, so
//! a write or insert reaching [`MAX_POSITIONS`] is refused up front, never
//! materialized: RCV is the catch-all, the one store a stray write at any
//! address lands in. Huge blocks belong in bulk-loaded ROM regions, which
//! cost O(rows actually present).

use std::collections::{BTreeMap, HashMap, HashSet};

use dataspread_grid::{CellValue, Rect, ScanValue, Shift};
use dataspread_hybrid::ModelKind;
use dataspread_posmap::{HierarchicalPosMap, PositionalMap, MAX_POSITIONS};
use dataspread_relstore::{ColumnDef, DataType, DatumRef, RowWriter, Schema, Table, TupleId};

use crate::error::EngineError;
use crate::translator::{datum_to_scan, is_blank, write_stored, CellVisitor, Translator};

/// Row-column-value storage for one region (also the hybrid layer's
/// catch-all for cells outside every region).
pub struct RcvTranslator {
    table: Table,
    /// Row position → stable row id.
    rows_map: HierarchicalPosMap<u64>,
    /// Column position → stable column id.
    cols_map: HierarchicalPosMap<u64>,
    /// (row id, col id) → tuple.
    index: BTreeMap<(u64, u64), TupleId>,
    next_row_id: u64,
    next_col_id: u64,
    /// The tuple a write is written in, reused from write to write.
    writer: RowWriter,
}

impl std::fmt::Debug for RcvTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RcvTranslator")
            .field("rows", &self.rows_map.len())
            .field("cols", &self.cols_map.len())
            .field("filled", &self.index.len())
            .finish()
    }
}

impl Default for RcvTranslator {
    fn default() -> Self {
        Self::new()
    }
}

impl RcvTranslator {
    pub fn new() -> Self {
        RcvTranslator {
            table: Table::new(
                "rcv",
                Schema::new(vec![
                    ColumnDef::new("rid", DataType::Int),
                    ColumnDef::new("cid", DataType::Int),
                    ColumnDef::new("value", DataType::Any),
                    ColumnDef::new("formula", DataType::Any),
                ]),
            ),
            rows_map: HierarchicalPosMap::new(),
            cols_map: HierarchicalPosMap::new(),
            index: BTreeMap::new(),
            next_row_id: 0,
            next_col_id: 0,
            writer: RowWriter::default(),
        }
    }

    fn ensure_rows(&mut self, upto: u32) {
        while self.rows_map.len() <= upto as usize {
            self.rows_map.push(self.next_row_id);
            self.next_row_id += 1;
        }
    }

    fn ensure_cols(&mut self, upto: u32) {
        while self.cols_map.len() <= upto as usize {
            self.cols_map.push(self.next_col_id);
            self.next_col_id += 1;
        }
    }

    /// Write the cell at `(row id, col id)` as its tuple: over `tid` when
    /// it has one, else as a new tuple. Returns the tuple's id.
    fn write_tuple(
        &mut self,
        (rid, cid): (u64, u64),
        tid: Option<TupleId>,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<TupleId, EngineError> {
        self.writer.push(DatumRef::Int(rid as i64));
        self.writer.push(DatumRef::Int(cid as i64));
        write_stored(&mut self.writer, value, formula);
        Ok(match tid {
            Some(tid) => {
                self.table.update_row(tid, &mut self.writer)?;
                tid
            }
            None => self.table.insert_row(&mut self.writer)?,
        })
    }
}

/// Push-style bulk builder: one tuple and one index entry per filled cell,
/// inserted in key order as the cells arrive (strictly increasing
/// row-major — [`crate::hybrid::RegionBuilder`] checks it), and one bulk
/// positional map per axis over the run's extent at `finish`.
pub(crate) struct RcvBuilder {
    t: RcvTranslator,
    rows: u32,
    cols: u32,
}

impl RcvBuilder {
    pub(crate) fn new() -> Self {
        RcvBuilder {
            t: RcvTranslator::new(),
            rows: 0,
            cols: 0,
        }
    }

    pub(crate) fn push(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError> {
        if row >= MAX_POSITIONS || col >= MAX_POSITIONS {
            return Err(EngineError::Unsupported(format!(
                "cell ({row},{col}) is outside the RCV positional space \
                 (cap {MAX_POSITIONS})"
            )));
        }
        // An explicit blank still spans the extent, as `set_cell` has it.
        self.rows = self.rows.max(row + 1);
        self.cols = self.cols.max(col + 1);
        if is_blank(value, formula) {
            return Ok(());
        }
        // Ids equal positions at build time: a per-cell build's
        // `ensure_rows`/`ensure_cols` hand them out in the same order.
        let key = (u64::from(row), u64::from(col));
        let tid = self.t.write_tuple(key, None, value, formula)?;
        self.t.index.insert(key, tid);
        Ok(())
    }

    pub(crate) fn finish(self) -> RcvTranslator {
        let (mut t, rows, cols) = (self.t, self.rows, self.cols);
        t.rows_map = HierarchicalPosMap::bulk_load(0..u64::from(rows));
        t.cols_map = HierarchicalPosMap::bulk_load(0..u64::from(cols));
        t.next_row_id = u64::from(rows);
        t.next_col_id = u64::from(cols);
        t
    }
}

impl Translator for RcvTranslator {
    fn kind(&self) -> ModelKind {
        ModelKind::Rcv
    }

    fn rows(&self) -> u32 {
        self.rows_map.len() as u32
    }

    fn cols(&self) -> u32 {
        self.cols_map.len() as u32
    }

    fn value(&self, row: u32, col: u32) -> CellValue {
        self.rows_map
            .get(row as usize)
            .zip(self.cols_map.get(col as usize))
            .and_then(|(&rid, &cid)| self.index.get(&(rid, cid)))
            .and_then(|&tid| self.table.fetch_col_ref(tid, 2).ok())
            .map_or(CellValue::Empty, |d| datum_to_scan(d).to_value())
    }

    fn set_cell(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError> {
        if row >= MAX_POSITIONS || col >= MAX_POSITIONS {
            return Err(EngineError::Unsupported(format!(
                "cell ({row},{col}) is outside the RCV positional space \
                 (cap {MAX_POSITIONS}); bulk-load huge blocks as ROM regions"
            )));
        }
        self.ensure_rows(row);
        self.ensure_cols(col);
        let rid = *self.rows_map.get(row as usize).expect("ensured");
        let cid = *self.cols_map.get(col as usize).expect("ensured");
        let tid = self.index.get(&(rid, cid)).copied();
        if is_blank(value, formula) {
            // Blank assignment = delete the tuple (RCV stores only filled
            // cells).
            if let Some(tid) = tid {
                self.table.delete(tid);
                self.index.remove(&(rid, cid));
            }
            return Ok(());
        }
        let written = self.write_tuple((rid, cid), tid, value, formula)?;
        if tid.is_none() {
            self.index.insert((rid, cid), written);
        }
        Ok(())
    }

    /// Visits the cells that exist, not the positions that could: per row
    /// of `rect`, one index range over `(row id, *)`, each entry's column
    /// id mapped back to its position through an inverse of the column map
    /// built once — O(rows + cols + cells · log), where a probe per
    /// position is O(rows × cols) and never finishes on two cells a
    /// million rows apart.
    fn scan(&self, rect: Rect, f: &mut CellVisitor<'_>) {
        if rect.r1 >= self.rows() || rect.c1 >= self.cols() || self.index.is_empty() {
            return;
        }
        let row_count = (rect.r2.min(self.rows() - 1) - rect.r1) as usize + 1;
        let col_count = (rect.c2.min(self.cols() - 1) - rect.c1) as usize + 1;
        let col_of: HashMap<u64, u32> = (rect.c1..)
            .zip(self.cols_map.range(rect.c1 as usize, col_count))
            .map(|(c, &cid)| (cid, c))
            .collect();
        let mut in_row: Vec<(u32, TupleId)> = Vec::new();
        let mut pair: Vec<DatumRef<'_>> = Vec::with_capacity(2);
        for (r, &rid) in (rect.r1..).zip(self.rows_map.range(rect.r1 as usize, row_count)) {
            in_row.clear();
            in_row.extend(
                self.index
                    .range((rid, u64::MIN)..=(rid, u64::MAX))
                    .filter_map(|(&(_, cid), &tid)| Some((*col_of.get(&cid)?, tid))),
            );
            // Column ids are handed out in touch order, not position order.
            in_row.sort_unstable_by_key(|&(c, _)| c);
            for &(c, tid) in &in_row {
                if self.table.fetch_cols_ref(tid, &[2, 3], &mut pair).is_err() {
                    continue;
                }
                let formula = pair[1].as_str();
                let value = datum_to_scan(pair[0]);
                if !is_blank(value, formula) {
                    f(r, c, value, formula);
                }
            }
        }
    }

    fn shift(&mut self, s: Shift) -> Result<(), EngineError> {
        match s {
            Shift::InsertRows { at, n } => {
                // Guard the *end* of the insert, not just its start: the loop
                // below is O(n), so a huge count is the same first-touch hang as
                // a huge index.
                if at.checked_add(n).is_none_or(|end| end > MAX_POSITIONS) {
                    return Err(EngineError::Unsupported(format!(
                        "row insert at {at}+{n} is outside the RCV positional space \
                         (cap {MAX_POSITIONS})"
                    )));
                }
                if at > 0 {
                    self.ensure_rows(at - 1);
                }
                for _ in 0..n {
                    let rid = self.next_row_id;
                    self.next_row_id += 1;
                    self.rows_map.insert_at(at as usize, rid);
                }
            }
            Shift::DeleteRows { at, n } => {
                for _ in 0..n {
                    let Some(rid) = self.rows_map.remove_at(at as usize) else {
                        break;
                    };
                    // Drop every tuple of this row via an index range scan.
                    let row = (rid, u64::MIN)..=(rid, u64::MAX);
                    for (_, tid) in self.index.extract_if(row, |_, _| true) {
                        self.table.delete(tid);
                    }
                }
            }
            Shift::InsertCols { at, n } => {
                if at.checked_add(n).is_none_or(|end| end > MAX_POSITIONS) {
                    return Err(EngineError::Unsupported(format!(
                        "column insert at {at}+{n} is outside the RCV positional space \
                         (cap {MAX_POSITIONS})"
                    )));
                }
                if at > 0 {
                    self.ensure_cols(at - 1);
                }
                for _ in 0..n {
                    let cid = self.next_col_id;
                    self.next_col_id += 1;
                    self.cols_map.insert_at(at as usize, cid);
                }
            }
            Shift::DeleteCols { at, n } => {
                let doomed: HashSet<u64> = (0..n)
                    .map_while(|_| self.cols_map.remove_at(at as usize))
                    .collect();
                if doomed.is_empty() {
                    return Ok(());
                }
                // Column ids are the second key component: one pass over the
                // whole index drops every deleted column's tuples.
                for (_, tid) in self
                    .index
                    .extract_if(.., |&(_, cid), _| doomed.contains(&cid))
                {
                    self.table.delete(tid);
                }
            }
        }
        Ok(())
    }

    fn storage_bytes(&self) -> u64 {
        self.table.accounted_bytes()
    }

    fn filled_count(&self) -> u64 {
        self.index.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cells::StoreCells;
    use dataspread_grid::{Cell, CellAddr, CellValue};

    #[test]
    fn sparse_cells_store_one_tuple_each() {
        let mut t = RcvTranslator::new();
        t.put_cell(100, 200, Cell::value(1i64)).unwrap();
        t.put_cell(5000, 3, Cell::value(2i64)).unwrap();
        assert_eq!(t.filled_count(), 2);
        assert_eq!(t.get_cell(100, 200).unwrap().value, CellValue::Number(1.0));
        assert_eq!(t.get_cell(0, 0), None);
    }

    #[test]
    fn blank_set_deletes_tuple() {
        let mut t = RcvTranslator::new();
        t.put_cell(1, 1, Cell::value(9i64)).unwrap();
        assert_eq!(t.filled_count(), 1);
        t.put_cell(1, 1, Cell::default()).unwrap();
        assert_eq!(t.filled_count(), 0);
        assert_eq!(t.get_cell(1, 1), None);
    }

    #[test]
    fn row_insert_delete_via_posmaps() {
        let mut t = RcvTranslator::new();
        for r in 0..10 {
            t.put_cell(r, 0, Cell::value(r as i64)).unwrap();
        }
        t.shift(Shift::InsertRows { at: 5, n: 2 }).unwrap();
        assert_eq!(t.get_cell(4, 0).unwrap().value, CellValue::Number(4.0));
        assert_eq!(t.get_cell(5, 0), None);
        assert_eq!(t.get_cell(7, 0).unwrap().value, CellValue::Number(5.0));
        t.shift(Shift::DeleteRows { at: 5, n: 2 }).unwrap();
        assert_eq!(t.get_cell(5, 0).unwrap().value, CellValue::Number(5.0));
        assert_eq!(t.filled_count(), 10);
        // Deleting a populated row drops its tuples.
        t.shift(Shift::DeleteRows { at: 0, n: 1 }).unwrap();
        assert_eq!(t.filled_count(), 9);
        assert_eq!(t.get_cell(0, 0).unwrap().value, CellValue::Number(1.0));
    }

    #[test]
    fn col_insert_delete() {
        let mut t = RcvTranslator::new();
        for c in 0..5 {
            t.put_cell(0, c, Cell::value(c as i64)).unwrap();
        }
        t.shift(Shift::InsertCols { at: 2, n: 1 }).unwrap();
        assert_eq!(t.get_cell(0, 2), None);
        assert_eq!(t.get_cell(0, 3).unwrap().value, CellValue::Number(2.0));
        t.shift(Shift::DeleteCols { at: 3, n: 1 }).unwrap();
        assert_eq!(t.get_cell(0, 3).unwrap().value, CellValue::Number(3.0));
        assert_eq!(t.filled_count(), 4);
    }

    #[test]
    fn range_scan_row_major() {
        let mut t = RcvTranslator::new();
        t.put_cell(1, 1, Cell::value(1i64)).unwrap();
        t.put_cell(1, 3, Cell::value(2i64)).unwrap();
        t.put_cell(2, 2, Cell::value(3i64)).unwrap();
        t.put_cell(9, 9, Cell::value(4i64)).unwrap();
        let got = t.get_range(Rect::new(1, 1, 3, 3));
        let addrs: Vec<CellAddr> = got.iter().map(|(a, _)| *a).collect();
        assert_eq!(
            addrs,
            vec![
                CellAddr::new(1, 1),
                CellAddr::new(1, 3),
                CellAddr::new(2, 2)
            ]
        );
    }

    #[test]
    fn astronomical_indices_are_refused_not_materialized() {
        // Regression: a set_cell at row ~4e9 used to materialize one
        // positional-map entry per row on first touch — O(row) work that
        // hangs the engine. The cap must refuse it immediately (this test
        // would run for hours if materialization happened).
        let mut t = RcvTranslator::new();
        for (r, c) in [
            (4_000_000_000, 0),
            (0, 4_000_000_000),
            (u32::MAX - 1, u32::MAX - 1),
            (MAX_POSITIONS, 0),
        ] {
            assert!(
                matches!(
                    t.put_cell(r, c, Cell::value(1i64)),
                    Err(EngineError::Unsupported(_))
                ),
                "({r},{c}) must be refused"
            );
        }
        assert!(t
            .shift(Shift::InsertRows {
                at: 4_000_000_000,
                n: 1
            })
            .is_err());
        assert!(t
            .shift(Shift::InsertCols {
                at: 4_000_000_000,
                n: 1
            })
            .is_err());
        // A huge *count* is the same O(n) materialization as a huge index
        // (the insert loop runs n times) — and so is a sum overflowing.
        assert!(t
            .shift(Shift::InsertRows {
                at: 0,
                n: 4_000_000_000
            })
            .is_err());
        assert!(t
            .shift(Shift::InsertCols {
                at: 0,
                n: 4_000_000_000
            })
            .is_err());
        assert!(t
            .shift(Shift::InsertRows {
                at: u32::MAX - 1,
                n: u32::MAX - 1
            })
            .is_err());
        assert_eq!(t.filled_count(), 0);
        // The last in-cap coordinate is *representable* (we do not want to
        // materialize it here — that is legitimately large — just prove the
        // boundary arithmetic refuses only at >= cap).
        t.put_cell(100, 100, Cell::value(7i64)).unwrap();
        assert_eq!(t.filled_count(), 1);
        // Reads and clears beyond the cap stay cheap no-ops.
        assert_eq!(t.get_cell(4_000_000_000, 0), None);
        t.clear_cell(4_000_000_000, 0).unwrap();
    }

    #[test]
    fn update_existing_cell_replaces_tuple() {
        let mut t = RcvTranslator::new();
        t.put_cell(0, 0, Cell::value(1i64)).unwrap();
        t.put_cell(0, 0, Cell::value("now a much longer text value"))
            .unwrap();
        assert_eq!(t.filled_count(), 1);
        assert_eq!(
            t.get_cell(0, 0).unwrap().value,
            CellValue::Text("now a much longer text value".into())
        );
    }
}
