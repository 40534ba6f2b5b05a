//! The database: a catalog of named tables.

use std::collections::BTreeMap;

use crate::error::StoreError;
use crate::schema::Schema;
use crate::table::Table;

/// Maximum columns per relation (paper Appendix A-C4; PostgreSQL's limit).
const MAX_COLUMNS: usize = 1600;

/// A catalog of tables. The storage engine's ROM/COM/RCV/TOM translators
/// each own one or more tables created here.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: BTreeMap<String, Table>,
    /// Bumped on every operation that can change catalog or table contents
    /// (including handing out `&mut Table`, which is conservatively counted
    /// as a change). Lets observers — e.g. linked-table (TOM) regions at
    /// checkpoint time — cheaply detect "nothing changed since stamp X"
    /// without diffing table bytes.
    ///
    /// The counter doubles as the tick source for *per-table* change
    /// stamps: every mutable hand-out stamps the affected table with the
    /// fresh tick ([`Table::last_change`]), so observers of one table are
    /// not dirtied by mutations to the others —
    /// see [`Database::change_stamp_for`].
    change_count: u64,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotonic change counter: unchanged value between two reads means no
    /// mutable access happened in between (the converse may not hold — a
    /// `table_mut` that writes nothing still bumps it).
    pub fn change_count(&self) -> u64 {
        self.change_count
    }

    /// The change stamp an observer of table `name` should remember: the
    /// table's own [`Table::last_change`] tick, or the database-wide
    /// counter when the table does not exist (any catalog motion may
    /// (re)create it). An unchanged stamp between two reads proves the
    /// observed table saw no mutable access in between, regardless of what
    /// happened to other tables.
    pub fn change_stamp_for(&self, name: &str) -> u64 {
        self.tables
            .get(name)
            .map(Table::last_change)
            .unwrap_or(self.change_count)
    }

    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<&mut Table, StoreError> {
        self.change_count += 1;
        if schema.len() > MAX_COLUMNS {
            return Err(StoreError::LimitExceeded(format!(
                "{} columns exceeds limit {MAX_COLUMNS}",
                schema.len()
            )));
        }
        if self.tables.contains_key(name) {
            return Err(StoreError::TableExists(name.to_string()));
        }
        let mut table = Table::new(name, schema).with_max_columns(MAX_COLUMNS);
        table.note_change(self.change_count);
        self.tables.insert(name.to_string(), table);
        Ok(self.tables.get_mut(name).expect("just inserted"))
    }

    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        if !self.tables.contains_key(name) {
            return Err(StoreError::NoSuchTable(name.to_string()));
        }
        self.change_count += 1;
        let tick = self.change_count;
        let t = self.tables.get_mut(name).expect("checked above");
        t.note_change(tick);
        Ok(t)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Accounted bytes across all tables (paper cost structure).
    pub fn accounted_bytes(&self) -> u64 {
        self.tables.values().map(Table::accounted_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{DataType, Datum};
    use crate::schema::ColumnDef;

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("x", DataType::Int)])
    }

    #[test]
    fn create_and_get() {
        let mut db = Database::new();
        db.create_table("t1", schema()).unwrap();
        assert!(db.contains("t1"));
        assert!(matches!(
            db.create_table("t1", schema()),
            Err(StoreError::TableExists(_))
        ));
        db.table_mut("t1")
            .unwrap()
            .insert(&[Datum::Int(1)])
            .unwrap();
        assert_eq!(db.table("t1").unwrap().row_count(), 1);
        assert!(matches!(db.table("t2"), Err(StoreError::NoSuchTable(_))));
    }

    #[test]
    fn column_limit_enforced_at_creation() {
        let mut db = Database::new();
        let wide = |n: usize| {
            Schema::new(
                (0..n)
                    .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int))
                    .collect(),
            )
        };
        assert!(matches!(
            db.create_table("w", wide(MAX_COLUMNS + 1)),
            Err(StoreError::LimitExceeded(_))
        ));
        let t = db.create_table("w", wide(MAX_COLUMNS)).unwrap();
        assert!(matches!(
            t.add_column(ColumnDef::new("one_more", DataType::Int)),
            Err(StoreError::LimitExceeded(_))
        ));
    }

    #[test]
    fn change_count_tracks_mutable_access() {
        let mut db = Database::new();
        let c0 = db.change_count();
        db.create_table("t", schema()).unwrap();
        let c1 = db.change_count();
        assert!(c1 > c0, "create_table must bump");
        // Read-only access never bumps.
        db.table("t").unwrap();
        assert!(db.contains("t"));
        let _ = db.accounted_bytes();
        assert_eq!(db.change_count(), c1);
        db.table_mut("t").unwrap().insert(&[Datum::Int(1)]).unwrap();
        let c2 = db.change_count();
        assert!(c2 > c1, "table_mut must bump");
        // Failed mutations leave the counter untouched.
        let cf = db.change_count();
        assert!(db.table_mut("nope").is_err());
        assert_eq!(db.change_count(), cf);
    }

    #[test]
    fn per_table_stamps_isolate_unrelated_mutations() {
        let mut db = Database::new();
        db.create_table("a", schema()).unwrap();
        db.create_table("b", schema()).unwrap();
        let a0 = db.change_stamp_for("a");
        let b0 = db.change_stamp_for("b");
        assert_ne!(a0, b0, "ticks are globally unique");
        // Mutating `b` must not move `a`'s stamp (the whole point: a TOM
        // region linked to `a` stays clean while `b` churns).
        db.table_mut("b").unwrap().insert(&[Datum::Int(1)]).unwrap();
        assert_eq!(db.change_stamp_for("a"), a0);
        assert!(db.change_stamp_for("b") > b0);
        // Mutating `a` moves only `a`.
        let b1 = db.change_stamp_for("b");
        db.table_mut("a").unwrap().insert(&[Datum::Int(2)]).unwrap();
        assert!(db.change_stamp_for("a") > a0);
        assert_eq!(db.change_stamp_for("b"), b1);
        // A missing table reports the (moving) global counter, so
        // dangling observers stay conservative.
        assert_eq!(db.change_stamp_for("c"), db.change_count());
    }

    #[test]
    fn storage_totals_sum_tables() {
        let mut db = Database::new();
        db.create_table("a", schema()).unwrap();
        db.create_table("b", schema()).unwrap();
        db.table_mut("b").unwrap().insert(&[Datum::Int(1)]).unwrap();
        assert_eq!(
            db.accounted_bytes(),
            db.table("a").unwrap().accounted_bytes() + db.table("b").unwrap().accounted_bytes()
        );
        assert!(db.accounted_bytes() > 0);
    }
}
