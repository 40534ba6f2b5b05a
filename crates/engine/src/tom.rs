//! The table-oriented translator: a region linked to a database table
//! (paper §IV-B "Database-Linked Tables" and the `linkTable` operation).
//!
//! TOM regions are *not* copies: reads go through to the live table on
//! every access and cell updates write through, so edits made directly on
//! the database (e.g. via SQL) appear on the sheet and vice versa — the
//! two-way synchronization of paper §III. Rows render in insertion order;
//! middle-of-table row inserts are rejected (a relation has no inherent
//! order to insert *into*), appends become table inserts.

use std::sync::Arc;

use parking_lot::RwLock;

use dataspread_grid::{CellValue, Rect, ScanValue, Shift};
use dataspread_hybrid::ModelKind;
use dataspread_relstore::{DataType, Database, Datum, TupleId};

use crate::error::EngineError;
use crate::translator::{datum_to_scan, datum_to_value, value_to_datum, CellVisitor, Translator};

/// A linked database table region.
pub struct TomTranslator {
    db: Arc<RwLock<Database>>,
    table_name: String,
}

impl std::fmt::Debug for TomTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TomTranslator")
            .field("table", &self.table_name)
            .finish()
    }
}

/// Coerce a cell value into a datum acceptable for `ty`.
fn coerce(value: &CellValue, ty: DataType) -> Datum {
    let d = value_to_datum(value);
    match (&d, ty) {
        (Datum::Float(f), DataType::Int) if f.fract() == 0.0 => Datum::Int(*f as i64),
        (Datum::Float(_), DataType::Text) | (Datum::Bool(_), DataType::Text) => {
            Datum::Text(value.as_text())
        }
        _ => d,
    }
}

impl TomTranslator {
    pub fn new(db: Arc<RwLock<Database>>, table_name: impl Into<String>) -> Self {
        TomTranslator {
            db,
            table_name: table_name.into(),
        }
    }

    fn nth_tuple(&self, row: u32) -> Option<(TupleId, Vec<Datum>)> {
        let db = self.db.read();
        let table = db.table(&self.table_name).ok()?;
        let nth = table.scan().nth(row as usize);
        nth
    }
}

impl Translator for TomTranslator {
    fn kind(&self) -> ModelKind {
        ModelKind::Tom
    }

    fn rows(&self) -> u32 {
        self.db
            .read()
            .table(&self.table_name)
            .map(|t| t.row_count() as u32)
            .unwrap_or(0)
    }

    fn cols(&self) -> u32 {
        self.db
            .read()
            .table(&self.table_name)
            .map(|t| t.schema().len() as u32)
            .unwrap_or(0)
    }

    fn value(&self, row: u32, col: u32) -> CellValue {
        self.nth_tuple(row)
            .and_then(|(_, tuple)| tuple.get(col as usize).map(datum_to_value))
            .unwrap_or_default()
    }

    /// A linked table holds values only: a formula is not stored.
    fn set_cell(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        _formula: Option<&str>,
    ) -> Result<(), EngineError> {
        let Some((tid, mut tuple)) = self.nth_tuple(row) else {
            return Err(EngineError::Unsupported(format!(
                "row {row} beyond linked table {}",
                self.table_name
            )));
        };
        let mut db = self.db.write();
        let table = db.table_mut(&self.table_name)?;
        let ty = table
            .schema()
            .columns()
            .get(col as usize)
            .map(|c| c.ty)
            .ok_or_else(|| EngineError::Unsupported(format!("column {col} beyond linked table")))?;
        tuple[col as usize] = coerce(&value.to_value(), ty);
        table.update(tid, &tuple)?;
        Ok(())
    }

    /// Walks the live table in insertion order; a linked table holds no
    /// formulas.
    fn scan(&self, rect: Rect, f: &mut CellVisitor<'_>) {
        let db = self.db.read();
        let Ok(table) = db.table(&self.table_name) else {
            return;
        };
        let rows = table
            .scan()
            .skip(rect.r1 as usize)
            .take((rect.r2 - rect.r1) as usize + 1);
        for (r, (_, tuple)) in (rect.r1..).zip(rows) {
            for (c, datum) in (rect.c1..=rect.c2).zip(tuple.iter().skip(rect.c1 as usize)) {
                let value = datum_to_scan(datum.as_ref());
                if !matches!(value, ScanValue::Empty) {
                    f(r, c, value, None);
                }
            }
        }
    }

    fn shift(&mut self, s: Shift) -> Result<(), EngineError> {
        match s {
            // Appends become table inserts; a relation has no middle to
            // insert into.
            Shift::InsertRows { at, .. } if at != self.rows() => Err(EngineError::Unsupported(
                "linked tables only support appending rows".into(),
            )),
            Shift::InsertRows { n, .. } => {
                let mut db = self.db.write();
                let table = db.table_mut(&self.table_name)?;
                let nulls = vec![Datum::Null; table.schema().len()];
                for _ in 0..n {
                    table.insert(&nulls)?;
                }
                Ok(())
            }
            Shift::DeleteRows { at, n } => {
                let mut db = self.db.write();
                let table = db.table_mut(&self.table_name)?;
                let doomed: Vec<TupleId> = table
                    .scan()
                    .skip(at as usize)
                    .take(n as usize)
                    .map(|(tid, _)| tid)
                    .collect();
                for tid in doomed {
                    table.delete(tid);
                }
                Ok(())
            }
            Shift::InsertCols { .. } | Shift::DeleteCols { .. } => Err(EngineError::Unsupported(
                "linked tables have a fixed schema; ALTER the table instead".into(),
            )),
        }
    }

    fn storage_bytes(&self) -> u64 {
        self.db
            .read()
            .table(&self.table_name)
            .map(|t| t.accounted_bytes())
            .unwrap_or(0)
    }

    fn filled_count(&self) -> u64 {
        let db = self.db.read();
        let Ok(table) = db.table(&self.table_name) else {
            return 0;
        };
        table
            .scan()
            .map(|(_, row)| row.iter().filter(|d| !d.is_null()).count() as u64)
            .sum()
    }

    fn change_stamp(&self) -> Option<u64> {
        // The linked table lives in the database and can change without any
        // sheet mutator running (direct SQL). The *per-table* stamp is the
        // cheap signal for "re-serialize me": it moves on every mutable
        // access to this table but stays put while other tables churn, so
        // one busy table no longer dirties every TOM region's checkpoint
        // skip. (A missing table reports the global counter —
        // conservative, never falsely clean.)
        Some(self.db.read().change_stamp_for(&self.table_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cells::StoreCells;
    use dataspread_grid::Cell;
    use dataspread_relstore::{ColumnDef, Schema};

    fn linked() -> (Arc<RwLock<Database>>, TomTranslator) {
        let db = Arc::new(RwLock::new(Database::new()));
        {
            let mut guard = db.write();
            let t = guard
                .create_table(
                    "inv",
                    Schema::new(vec![
                        ColumnDef::new("id", DataType::Int),
                        ColumnDef::new("amount", DataType::Float),
                    ]),
                )
                .unwrap();
            t.insert(&[Datum::Int(1), Datum::Float(10.0)]).unwrap();
            t.insert(&[Datum::Int(2), Datum::Float(20.0)]).unwrap();
        }
        let tom = TomTranslator::new(Arc::clone(&db), "inv");
        (db, tom)
    }

    #[test]
    fn reads_go_through_to_live_table() {
        let (db, tom) = linked();
        assert_eq!(tom.rows(), 2);
        assert_eq!(tom.cols(), 2);
        assert_eq!(tom.get_cell(0, 1).unwrap().value, CellValue::Number(10.0));
        // An external insert is visible immediately (two-way sync).
        db.write()
            .table_mut("inv")
            .unwrap()
            .insert(&[Datum::Int(3), Datum::Float(30.0)])
            .unwrap();
        assert_eq!(tom.rows(), 3);
        assert_eq!(tom.get_cell(2, 0).unwrap().value, CellValue::Number(3.0));
    }

    #[test]
    fn cell_updates_write_through() {
        let (db, mut tom) = linked();
        tom.put_cell(0, 1, Cell::value(99i64)).unwrap();
        let amount = db.read().table("inv").unwrap().scan().next().unwrap().1[1].clone();
        assert_eq!(amount, Datum::Float(99.0));
        // Int columns receive coerced integers.
        tom.put_cell(0, 0, Cell::value(7i64)).unwrap();
        let id = db.read().table("inv").unwrap().scan().next().unwrap().1[0].clone();
        assert_eq!(id, Datum::Int(7));
    }

    #[test]
    fn append_and_delete_rows() {
        let (_, mut tom) = linked();
        tom.shift(Shift::InsertRows { at: 2, n: 1 }).unwrap();
        assert_eq!(tom.rows(), 3);
        assert!(
            tom.shift(Shift::InsertRows { at: 0, n: 1 }).is_err(),
            "middle insert rejected"
        );
        tom.shift(Shift::DeleteRows { at: 0, n: 1 }).unwrap();
        assert_eq!(tom.rows(), 2);
        assert_eq!(tom.get_cell(0, 0).unwrap().value, CellValue::Number(2.0));
    }

    /// Rows render in insertion order: a row that grows stays where it
    /// is, and an appended row lands last even after a delete freed a
    /// slot before it.
    #[test]
    fn rows_keep_their_order_across_growing_updates_and_appends() {
        let db = Arc::new(RwLock::new(Database::new()));
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("note", DataType::Text),
        ]);
        {
            let mut guard = db.write();
            let t = guard.create_table("notes", schema).unwrap();
            for i in 0..200 {
                t.insert(&[Datum::Int(i), Datum::Text("n".repeat(30))])
                    .unwrap();
            }
        }
        let mut tom = TomTranslator::new(Arc::clone(&db), "notes");
        let ids = |tom: &TomTranslator| -> Vec<CellValue> {
            (0..tom.rows())
                .map(|r| tom.get_cell(r, 0).map(|c| c.value).unwrap_or_default())
                .collect()
        };
        let number = |i: i64| CellValue::Number(i as f64);

        tom.put_cell(0, 1, Cell::value("g".repeat(1000))).unwrap();
        assert_eq!(ids(&tom), (0..200).map(number).collect::<Vec<_>>());
        assert_eq!(
            tom.get_cell(0, 1).unwrap().value,
            CellValue::Text("g".repeat(1000))
        );

        tom.shift(Shift::DeleteRows { at: 0, n: 1 }).unwrap();
        tom.shift(Shift::InsertRows {
            at: tom.rows(),
            n: 1,
        })
        .unwrap();
        let mut want: Vec<CellValue> = (1..200).map(number).collect();
        want.push(CellValue::Empty);
        assert_eq!(ids(&tom), want, "the appended row renders last");
    }

    #[test]
    fn schema_edits_rejected() {
        let (_, mut tom) = linked();
        assert!(matches!(
            tom.shift(Shift::InsertCols { at: 0, n: 1 }),
            Err(EngineError::Unsupported(_))
        ));
        assert!(matches!(
            tom.shift(Shift::DeleteCols { at: 0, n: 1 }),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn range_and_filled_count() {
        let (_, tom) = linked();
        let cells = tom.get_range(Rect::new(0, 0, 1, 1));
        assert_eq!(cells.len(), 4);
        assert_eq!(tom.filled_count(), 4);
    }
}
