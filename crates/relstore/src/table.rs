//! Tables: a schema plus a slot vector of encoded rows, with storage
//! accounting.

use crate::datum::{self, decode_row, encode_row, DataType, Datum, DatumRef, RowWriter};
use crate::error::StoreError;
use crate::schema::{ColumnDef, Schema};

/// s1 of the paper's cost model: the fixed cost of a table, one 8 KB
/// PostgreSQL page. Only [`Table::accounted_bytes`] reads it; rows are not
/// kept in pages.
pub const TABLE_BYTES: u64 = 8192;
/// Per-tuple header overhead in bytes, modelled on PostgreSQL (23-byte heap
/// tuple header + item pointer + alignment ≈ the paper's measured
/// s4/s5 ≈ 50 bytes per row).
pub const TUPLE_HEADER_BYTES: u64 = 46;
/// Per-column catalog overhead (paper's measured s3 = 40 bytes).
pub const COLUMN_CATALOG_BYTES: u64 = 40;
/// The widest schema a tuple's `u16` arity header ([`encode_row`]) can
/// describe.
const MAX_ARITY: usize = u16::MAX as usize;

/// A stable row pointer: the row's slot in its table. Slots are never
/// reused, so slot order is insertion order.
///
/// This is what the positional-mapping structures of the engine crate store
/// in their leaves (paper Figure 11: "leaf nodes store tuple pointers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(u32);

/// A stored table.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Encoded tuples by slot; `None` marks a deleted row.
    rows: Vec<Option<Box<[u8]>>>,
    row_count: u64,
    /// Cap on the column count: the arity header's limit, or lower (paper
    /// Appendix A-C4: present-day databases limit relation width;
    /// PostgreSQL allows 1600).
    max_columns: usize,
    /// Value of the owning [`Database`](crate::Database)'s change counter
    /// the last time *this* table was handed out mutably (or created /
    /// renamed). Ticks are globally unique and monotone, so an unchanged
    /// stamp means this specific table cannot have changed — even while
    /// other tables in the same database were mutated. 0 for a
    /// free-standing table.
    last_change: u64,
    /// Running totals behind [`Table::accounted_bytes`]: datums physically
    /// stored in live tuples, and their encoded bytes. Positions a short
    /// tuple leaves to NULL padding are not stored and are priced from the
    /// schema width instead.
    stored_datums: u64,
    stored_bytes: u64,
}

/// `(datum count, encoded datum bytes)` of one encoded tuple, read off its
/// arity header and length ([`encode_row`]: `u16` arity, then the datums).
fn tuple_footprint(bytes: &[u8]) -> (u64, u64) {
    match bytes {
        [a, b, datums @ ..] => (u64::from(u16::from_le_bytes([*a, *b])), datums.len() as u64),
        _ => (0, 0),
    }
}

impl Table {
    /// A table of `schema`, which must fit the arity header (at most
    /// `u16::MAX` columns).
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        assert!(schema.len() <= MAX_ARITY, "schema wider than a tuple");
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            row_count: 0,
            max_columns: MAX_ARITY,
            last_change: 0,
            stored_datums: 0,
            stored_bytes: 0,
        }
    }

    pub fn with_max_columns(mut self, cap: usize) -> Self {
        self.max_columns = cap.min(MAX_ARITY);
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn row_count(&self) -> u64 {
        self.row_count
    }

    /// Per-table change stamp: the owning database's change-counter tick
    /// at the last mutable hand-out of this table. Observers (e.g. TOM
    /// regions at checkpoint time) compare stamps to skip work for tables
    /// that provably did not change — without being dirtied by mutations
    /// to *other* tables.
    pub fn last_change(&self) -> u64 {
        self.last_change
    }

    /// Record that this table was handed out mutably at `tick` (called by
    /// the owning [`Database`](crate::Database)).
    pub(crate) fn note_change(&mut self, tick: u64) {
        self.last_change = tick;
    }

    /// Append a column to the schema. Existing rows are *not* rewritten;
    /// readers pad short rows with NULLs (`fetch` handles this), mirroring
    /// how real stores add nullable columns without a table rewrite.
    pub fn add_column(&mut self, col: ColumnDef) -> Result<(), StoreError> {
        if self.schema.len() >= self.max_columns {
            return Err(StoreError::LimitExceeded(format!(
                "table {} would exceed {} columns",
                self.name, self.max_columns
            )));
        }
        self.schema.push_column(col);
        Ok(())
    }

    /// Insert a row, returning its stable tuple id.
    pub fn insert(&mut self, row: &[Datum]) -> Result<TupleId, StoreError> {
        self.schema.validate(row)?;
        self.insert_encoded(encode_row(row).into_boxed_slice())
    }

    fn insert_encoded(&mut self, bytes: Box<[u8]>) -> Result<TupleId, StoreError> {
        let tid = TupleId(u32::try_from(self.rows.len()).map_err(|_| {
            StoreError::LimitExceeded(format!("table {} is out of row slots", self.name))
        })?);
        self.credit(tuple_footprint(&bytes));
        self.rows.push(Some(bytes));
        self.row_count += 1;
        Ok(tid)
    }

    fn credit(&mut self, (datums, bytes): (u64, u64)) {
        self.stored_datums += datums;
        self.stored_bytes += bytes;
    }

    fn debit(&mut self, (datums, bytes): (u64, u64)) {
        self.stored_datums -= datums;
        self.stored_bytes -= bytes;
    }

    /// Insert a row that may be shorter than the schema (missing trailing
    /// columns read back as NULL).
    pub fn insert_prefix(&mut self, row: &[Datum]) -> Result<TupleId, StoreError> {
        let mut written = RowWriter::default();
        row.iter().for_each(|d| written.push(d.as_ref()));
        self.insert_row(&mut written)
    }

    /// [`Table::insert_prefix`] of a row written through `row`: the bytes
    /// are stored as written.
    pub fn insert_row(&mut self, row: &mut RowWriter) -> Result<TupleId, StoreError> {
        self.insert_encoded(self.checked(row)?)
    }

    /// The tuple written through `row`, when it fits the schema as a
    /// prefix; `row` is left empty for the next either way. An all-`Any`
    /// prefix, which every datum fits, is not decoded.
    fn checked(&self, row: &mut RowWriter) -> Result<Box<[u8]>, StoreError> {
        let fits = match self.schema.columns().get(..row.arity) {
            None => Err(StoreError::SchemaMismatch(format!(
                "{} datums for {} columns",
                row.arity,
                self.schema.len()
            ))),
            Some(columns) if columns.iter().any(|c| c.ty != DataType::Any) => row
                .datums()
                .zip(columns)
                .find(|(d, c)| !d.fits(c.ty))
                .map_or(Ok(()), |(d, c)| {
                    Err(StoreError::SchemaMismatch(format!(
                        "datum {d:?} does not fit column {}",
                        c.name
                    )))
                }),
            Some(_) => Ok(()),
        };
        let tuple = row.take_tuple();
        fits.map(|()| tuple)
    }

    /// The live tuple at `tid`.
    fn get(&self, tid: TupleId) -> Result<&[u8], StoreError> {
        match self.rows.get(tid.0 as usize) {
            Some(Some(bytes)) => Ok(bytes),
            _ => Err(StoreError::BadTupleId),
        }
    }

    /// Fetch a row, padding trailing NULLs up to the schema width.
    pub fn fetch(&self, tid: TupleId) -> Result<Vec<Datum>, StoreError> {
        let mut row = decode_row(self.get(tid)?)?;
        if row.len() > self.schema.len() {
            return Err(StoreError::Corrupt("row wider than schema".into()));
        }
        row.resize(self.schema.len(), Datum::Null);
        Ok(row)
    }

    /// [`Table::fetch`] as borrows into `out` (cleared first): texts point
    /// into the stored tuple.
    pub fn fetch_ref<'a>(
        &'a self,
        tid: TupleId,
        out: &mut Vec<DatumRef<'a>>,
    ) -> Result<(), StoreError> {
        datum::decode_row_ref(self.get(tid)?, out)?;
        if out.len() > self.schema.len() {
            return Err(StoreError::Corrupt("row wider than schema".into()));
        }
        out.resize(self.schema.len(), DatumRef::Null);
        Ok(())
    }

    /// The datum at `col` alone, as a borrow (NULL past a short tuple's
    /// end): a point read decodes one datum and fills no buffer.
    pub fn fetch_col_ref(&self, tid: TupleId, col: usize) -> Result<DatumRef<'_>, StoreError> {
        datum::decode_datum_ref(self.get(tid)?, col)
    }

    /// Only the datums at `cols` (sorted, 0-based) as borrows into `out`
    /// (cleared first), the rest skipped undecoded and missing trailing
    /// columns NULL: a scan reuses one buffer and copies nothing.
    pub fn fetch_cols_ref<'a>(
        &'a self,
        tid: TupleId,
        cols: &[usize],
        out: &mut Vec<DatumRef<'a>>,
    ) -> Result<(), StoreError> {
        datum::decode_row_project_ref(self.get(tid)?, cols, out)
    }

    /// Replace a row in place: its tuple id and scan position stay.
    pub fn update(&mut self, tid: TupleId, row: &[Datum]) -> Result<(), StoreError> {
        self.schema.validate(row)?;
        self.replace(tid, encode_row(row).into_boxed_slice())
    }

    /// [`Table::update`] with a row written through `row`, checked and
    /// stored as [`Table::insert_row`] stores one. The engine's ROM and RCV
    /// translators write every cell edit through it.
    pub fn update_row(&mut self, tid: TupleId, row: &mut RowWriter) -> Result<(), StoreError> {
        self.replace(tid, self.checked(row)?)
    }

    fn replace(&mut self, tid: TupleId, bytes: Box<[u8]>) -> Result<(), StoreError> {
        let old = tuple_footprint(self.get(tid)?);
        self.debit(old);
        self.credit(tuple_footprint(&bytes));
        self.rows[tid.0 as usize] = Some(bytes);
        Ok(())
    }

    /// Delete a row; returns true when it was live. Its slot is not reused.
    pub fn delete(&mut self, tid: TupleId) -> bool {
        let Some(old) = self.rows.get_mut(tid.0 as usize).and_then(Option::take) else {
            return false;
        };
        self.row_count -= 1;
        self.debit(tuple_footprint(&old));
        true
    }

    /// Scan all live rows (decoded, padded) in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = (TupleId, Vec<Datum>)> + '_ {
        let width = self.schema.len();
        (0u32..).zip(&self.rows).filter_map(move |(slot, bytes)| {
            let mut row = decode_row(bytes.as_deref()?).expect("stored rows decode");
            row.resize(width, Datum::Null);
            Some((TupleId(slot), row))
        })
    }

    /// The encoded live tuples in insertion order, for scans that decode
    /// only some columns ([`crate::datum::decode_row_project_ref`]).
    pub fn tuples(&self) -> impl Iterator<Item = &[u8]> + '_ {
        self.rows.iter().filter_map(Option::as_deref)
    }

    /// Accounted bytes following the paper's PostgreSQL cost structure,
    /// not the bytes this table holds: s1 ([`TABLE_BYTES`], one 8 KB page),
    /// plus per-column catalog entries, per-row headers and data, where
    /// data prices every row at the full schema width (a position a short
    /// tuple does not store reads back as NULL, one tag byte). O(1): the
    /// stored totals are maintained by every mutator.
    pub fn accounted_bytes(&self) -> u64 {
        let null_len = Datum::Null.encoded_len() as u64;
        let padded = self.row_count * self.schema.len() as u64 - self.stored_datums;
        TABLE_BYTES
            + COLUMN_CATALOG_BYTES * self.schema.len() as u64
            + TUPLE_HEADER_BYTES * self.row_count
            + self.stored_bytes
            + padded * null_len
    }

    /// The decode-and-pad walk [`Table::accounted_bytes`] replaced, kept as
    /// its oracle.
    #[cfg(test)]
    fn accounted_bytes_walk(&self) -> u64 {
        let data: u64 = self
            .scan()
            .map(|(_, row)| row.iter().map(|d| d.encoded_len() as u64).sum::<u64>())
            .sum();
        TABLE_BYTES
            + COLUMN_CATALOG_BYTES * self.schema.len() as u64
            + TUPLE_HEADER_BYTES * self.row_count
            + data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::DataType;

    fn table() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
            ]),
        )
    }

    #[test]
    fn insert_fetch_roundtrip() {
        let mut t = table();
        let tid = t.insert(&[Datum::Int(1), Datum::Text("a".into())]).unwrap();
        assert_eq!(
            t.fetch(tid).unwrap(),
            vec![Datum::Int(1), Datum::Text("a".into())]
        );
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn schema_violations_rejected() {
        let mut t = table();
        assert!(t.insert(&[Datum::Int(1)]).is_err());
        assert!(t
            .insert(&[Datum::Text("x".into()), Datum::Text("a".into())])
            .is_err());
    }

    #[test]
    fn update_and_delete() {
        let mut t = table();
        let tid = t.insert(&[Datum::Int(1), Datum::Text("a".into())]).unwrap();
        t.update(tid, &[Datum::Int(2), Datum::Text("b".into())])
            .unwrap();
        assert_eq!(t.fetch(tid).unwrap()[0], Datum::Int(2));
        assert!(t.delete(tid));
        assert_eq!(t.row_count(), 0);
        assert!(t.fetch(tid).is_err());
    }

    #[test]
    fn dead_rows_stay_dead() {
        let mut t = table();
        let tid = t.insert(&[Datum::Int(1), Datum::Text("a".into())]).unwrap();
        assert!(t.delete(tid));
        assert!(!t.delete(tid));
        assert_eq!(
            t.update(tid, &[Datum::Int(2), Datum::Text("b".into())]),
            Err(StoreError::BadTupleId)
        );
        assert_eq!(t.fetch(TupleId(7)), Err(StoreError::BadTupleId));
        // A freed slot is never handed out again.
        let next = t.insert(&[Datum::Int(3), Datum::Text("c".into())]).unwrap();
        assert_ne!(next, tid);
        assert!(t.fetch(tid).is_err());
    }

    #[test]
    fn scan_visits_live_rows_in_insertion_order() {
        let mut t = table();
        let ids: Vec<TupleId> = (0..100)
            .map(|i| t.insert(&[Datum::Int(i), Datum::Null]).unwrap())
            .collect();
        t.delete(ids[50]);
        t.insert(&[Datum::Int(100), Datum::Null]).unwrap();
        let seen: Vec<Datum> = t.scan().map(|(_, row)| row[0].clone()).collect();
        let want: Vec<Datum> = (0..=100).filter(|&i| i != 50).map(Datum::Int).collect();
        assert_eq!(seen, want, "the append lands last, not in the dead slot");
    }

    #[test]
    fn updates_stay_in_place_at_any_size() {
        let mut t = table();
        let first = t.insert(&[Datum::Int(0), Datum::Text("a".into())]).unwrap();
        let second = t.insert(&[Datum::Int(1), Datum::Text("b".into())]).unwrap();
        let big = Datum::Text("x".repeat(64 * 1024));
        t.update(first, &[Datum::Int(0), big.clone()]).unwrap();
        assert_eq!(t.fetch(first).unwrap()[1], big);
        let order: Vec<TupleId> = t.scan().map(|(tid, _)| tid).collect();
        assert_eq!(order, vec![first, second], "a grown row keeps its place");
        assert_eq!(t.accounted_bytes(), t.accounted_bytes_walk());
    }

    #[test]
    fn add_column_stops_at_the_arity_header() {
        let mut t = Table::new("wide", Schema::new(Vec::new()));
        for i in 0..MAX_ARITY {
            t.add_column(ColumnDef::new(format!("c{i}"), DataType::Any))
                .unwrap();
        }
        assert!(matches!(
            t.add_column(ColumnDef::new("one_more", DataType::Any)),
            Err(StoreError::LimitExceeded(_))
        ));
        let mut row = vec![Datum::Null; MAX_ARITY];
        row[MAX_ARITY - 1] = Datum::Int(9);
        let tid = t.insert(&row).unwrap();
        assert_eq!(t.fetch(tid).unwrap(), row);
    }

    #[test]
    fn add_column_pads_old_rows_with_null() {
        let mut t = table();
        let tid = t.insert(&[Datum::Int(1), Datum::Text("a".into())]).unwrap();
        t.add_column(ColumnDef::new("extra", DataType::Float))
            .unwrap();
        let row = t.fetch(tid).unwrap();
        assert_eq!(row.len(), 3);
        assert_eq!(row[2], Datum::Null);
        // New rows use the full width.
        t.insert(&[Datum::Int(2), Datum::Text("b".into()), Datum::Float(0.5)])
            .unwrap();
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn max_columns_enforced() {
        let mut t = table().with_max_columns(2);
        assert!(matches!(
            t.add_column(ColumnDef::new("c3", DataType::Int)),
            Err(StoreError::LimitExceeded(_))
        ));
    }

    #[test]
    fn insert_prefix_allows_short_rows() {
        let mut t = table();
        let tid = t.insert_prefix(&[Datum::Int(9)]).unwrap();
        let row = t.fetch(tid).unwrap();
        assert_eq!(row, vec![Datum::Int(9), Datum::Null]);
        assert!(t
            .insert_prefix(&[Datum::Int(1), Datum::Null, Datum::Null])
            .is_err());
    }

    #[test]
    fn a_written_row_is_checked_as_insert_prefix_checks_it() {
        let mut t = table();
        let mut w = RowWriter::default();
        w.push(DatumRef::Int(9));
        let tid = t.insert_row(&mut w).unwrap();
        assert_eq!(t.fetch(tid).unwrap(), vec![Datum::Int(9), Datum::Null]);
        for d in [DatumRef::Int(1), DatumRef::Text("a"), DatumRef::Null] {
            w.push(d);
        }
        assert!(matches!(
            t.insert_row(&mut w),
            Err(StoreError::SchemaMismatch(_))
        ));
        let mut w = RowWriter::default();
        w.push(DatumRef::Text("not an id"));
        assert!(matches!(
            t.insert_row(&mut w),
            Err(StoreError::SchemaMismatch(_))
        ));
        assert_eq!(t.row_count(), 1, "a refused row is not stored");
        // The writer and `insert_prefix` store the same bytes.
        let mut w = RowWriter::default();
        w.push(DatumRef::Int(-3));
        w.push(DatumRef::Text("héllo"));
        let written = t.insert_row(&mut w).unwrap();
        let owned = t
            .insert_prefix(&[Datum::Int(-3), Datum::Text("héllo".into())])
            .unwrap();
        assert_eq!(t.get(written).unwrap(), t.get(owned).unwrap());
        assert_eq!(t.accounted_bytes(), t.accounted_bytes_walk());
    }

    #[test]
    fn a_written_update_stores_what_update_stores() {
        let mut t = table();
        let a = t.insert(&[Datum::Int(1), Datum::Text("a".into())]).unwrap();
        let b = t.insert(&[Datum::Int(1), Datum::Text("a".into())]).unwrap();
        let mut w = RowWriter::default();
        w.push(DatumRef::Int(2));
        w.push(DatumRef::Text("héllo"));
        t.update_row(a, &mut w).unwrap();
        t.update(b, &[Datum::Int(2), Datum::Text("héllo".into())])
            .unwrap();
        assert_eq!(t.get(a).unwrap(), t.get(b).unwrap());
        let mut borrowed = Vec::new();
        t.fetch_ref(a, &mut borrowed).unwrap();
        assert_eq!(borrowed, [DatumRef::Int(2), DatumRef::Text("héllo")]);
        assert_eq!(t.accounted_bytes(), t.accounted_bytes_walk());
        // A refused row changes nothing and leaves the writer empty.
        w.push(DatumRef::Text("not an id"));
        assert!(matches!(
            t.update_row(a, &mut w),
            Err(StoreError::SchemaMismatch(_))
        ));
        w.push(DatumRef::Int(3));
        assert!(t.delete(b));
        assert_eq!(t.update_row(b, &mut w), Err(StoreError::BadTupleId));
        w.push(DatumRef::Int(4));
        t.update_row(a, &mut w).unwrap();
        assert_eq!(t.fetch(a).unwrap(), vec![Datum::Int(4), Datum::Null]);
        assert_eq!(t.accounted_bytes(), t.accounted_bytes_walk());
    }

    fn tape_datum(pick: u8, text: &str) -> Datum {
        match pick % 5 {
            0 => Datum::Null,
            1 => Datum::Int(i64::from(pick)),
            2 => Datum::Float(f64::from(pick) / 3.0),
            3 => Datum::Text(text.to_string()),
            _ => Datum::Bool(pick.is_multiple_of(2)),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A random insert / short-insert / update / delete / add-column
        /// tape: the maintained totals must equal the decode-and-pad walk
        /// after every step.
        #[test]
        fn accounted_bytes_matches_the_walk_on_a_random_tape(
            tape in proptest::collection::vec(
                (
                    0u8..5,
                    proptest::prelude::any::<u8>(),
                    "[a-z]{0,40}",
                    proptest::prelude::any::<proptest::sample::Index>(),
                ),
                1..120,
            )
        ) {
            let mut t = Table::new("t", Schema::new(vec![ColumnDef::new("c0", DataType::Any)]));
            let mut live: Vec<TupleId> = Vec::new();
            for (op, pick, text, at) in tape {
                let width = t.schema().len();
                let row = |n: usize| -> Vec<Datum> {
                    (0..n)
                        .map(|i| tape_datum(pick.wrapping_add(i as u8), &text))
                        .collect()
                };
                match op {
                    0 => live.push(t.insert(&row(width)).unwrap()),
                    1 => live.push(
                        t.insert_prefix(&row(usize::from(pick) % (width + 1)))
                            .unwrap(),
                    ),
                    2 if !live.is_empty() => {
                        let i = at.index(live.len());
                        t.update(live[i], &row(width)).unwrap();
                    }
                    3 if !live.is_empty() => {
                        let tid = live.swap_remove(at.index(live.len()));
                        proptest::prop_assert!(t.delete(tid));
                        proptest::prop_assert!(!t.delete(tid), "a dead tuple is debited once");
                    }
                    _ => t
                        .add_column(ColumnDef::new(format!("c{width}"), DataType::Any))
                        .unwrap(),
                }
                proptest::prop_assert_eq!(t.accounted_bytes(), t.accounted_bytes_walk());
            }
        }
    }

    #[test]
    fn accounting_includes_all_components() {
        let mut t = table();
        let empty = t.accounted_bytes();
        assert_eq!(empty, TABLE_BYTES + 2 * COLUMN_CATALOG_BYTES);
        t.insert(&[Datum::Int(1), Datum::Text("abcd".into())])
            .unwrap();
        let one = t.accounted_bytes();
        assert!(one > empty + TUPLE_HEADER_BYTES);
    }
}
