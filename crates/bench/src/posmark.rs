//! Storage-level positional schemes for Table II and Figure 18.
//!
//! The paper's *position-as-is* baseline stores the position **inside each
//! tuple** (with a B-tree index on it), so one row insert physically rewrites
//! every subsequent tuple — that is the cascading update being measured.
//! The engine's translators never do this (they keep positions out of
//! tuples), so the faithful baselines are implemented here, directly
//! against the row store:
//!
//! * [`AsIsStore`] — explicit position column + ordered index; O(log N)
//!   fetch, O(N log N) insert/delete.
//! * [`MonotonicStore`] — gapped monotonic keys + ordered index; O(N)
//!   positional fetch, O(log N) insert.
//! * [`HierarchicalStore`] — counted B+-tree of tuple pointers; O(log N)
//!   everything (the paper's scheme).
//!
//! The ordered index is std's `BTreeMap`, standing in for the database's
//! B-tree: the paper measures the cost of positions kept in tuples, not
//! the index that holds them.

use std::collections::BTreeMap;

use dataspread_posmap::{HierarchicalPosMap, PositionalMap};
use dataspread_relstore::{ColumnDef, DataType, Datum, Schema, Table, TupleId};

/// A row of `width` integer cells used by the benchmarks.
fn payload_row(head: Datum, pos_or_key: i64, width: u32) -> Vec<Datum> {
    let mut row = Vec::with_capacity(width as usize + 1);
    row.push(head);
    for c in 0..width {
        row.push(Datum::Int(pos_or_key * 1000 + c as i64));
    }
    row
}

fn schema(width: u32) -> Schema {
    let mut cols = vec![ColumnDef::new("pos", DataType::Int)];
    for c in 0..width {
        cols.push(ColumnDef::new(format!("c{c}"), DataType::Int));
    }
    Schema::new(cols)
}

/// Position stored in every tuple; an ordered index on position.
pub struct AsIsStore {
    table: Table,
    index: BTreeMap<i64, TupleId>,
    len: u64,
    width: u32,
}

impl AsIsStore {
    pub fn build(rows: u64, width: u32) -> Self {
        let mut table = Table::new("asis", schema(width));
        let mut index = BTreeMap::new();
        for pos in 0..rows {
            let tid = table
                .insert(&payload_row(Datum::Int(pos as i64), pos as i64, width))
                .expect("insert");
            index.insert(pos as i64, tid);
        }
        AsIsStore {
            table,
            index,
            len: rows,
            width,
        }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fetch `count` rows starting at `pos` through the index.
    pub fn fetch(&self, pos: u64, count: u64) -> Vec<Vec<Datum>> {
        self.index
            .range(pos as i64..(pos + count) as i64)
            .map(|(_, tid)| self.table.fetch(*tid).expect("live"))
            .collect()
    }

    /// Insert one row at `pos`: every subsequent tuple's position attribute
    /// is rewritten and re-indexed — the cascading update.
    pub fn insert_at(&mut self, pos: u64) {
        // Renumber from the tail down so index keys stay unique.
        for p in (pos..self.len).rev() {
            let tid = *self.index.get(&(p as i64)).expect("present");
            let mut row = self.table.fetch(tid).expect("live");
            row[0] = Datum::Int(p as i64 + 1);
            self.table.update(tid, &row).expect("update");
            self.index.remove(&(p as i64));
            self.index.insert(p as i64 + 1, tid);
        }
        let tid = self
            .table
            .insert(&payload_row(Datum::Int(pos as i64), pos as i64, self.width))
            .expect("insert");
        self.index.insert(pos as i64, tid);
        self.len += 1;
    }

    /// Delete the row at `pos`, renumbering the tail; a `pos` past the end
    /// deletes nothing.
    pub fn delete_at(&mut self, pos: u64) {
        if pos >= self.len {
            return;
        }
        let tid = self.index.remove(&(pos as i64)).expect("present");
        self.table.delete(tid);
        for p in pos + 1..self.len {
            let tid = *self.index.get(&(p as i64)).expect("present");
            let mut row = self.table.fetch(tid).expect("live");
            row[0] = Datum::Int(p as i64 - 1);
            self.table.update(tid, &row).expect("update");
            self.index.remove(&(p as i64));
            self.index.insert(p as i64 - 1, tid);
        }
        self.len -= 1;
    }
}

/// Gapped monotonic keys stored in tuples, with an ordered index on the
/// key; positional fetch must discard the first `n-1` index entries
/// (online dynamic reordering baseline).
pub struct MonotonicStore {
    table: Table,
    index: BTreeMap<i64, TupleId>,
    len: u64,
    width: u32,
}

const GAP: i64 = 1 << 20;

impl MonotonicStore {
    pub fn build(rows: u64, width: u32) -> Self {
        let mut table = Table::new("mono", schema(width));
        let mut index = BTreeMap::new();
        for pos in 0..rows {
            let key = (pos as i64 + 1) * GAP;
            let tid = table
                .insert(&payload_row(Datum::Int(key), pos as i64, width))
                .expect("insert");
            index.insert(key, tid);
        }
        MonotonicStore {
            table,
            index,
            len: rows,
            width,
        }
    }

    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn key_at(&self, pos: u64) -> Option<i64> {
        self.index.keys().nth(pos as usize).copied()
    }

    /// Positional fetch: O(pos) — skip the first `pos` entries.
    pub fn fetch(&self, pos: u64, count: u64) -> Vec<Vec<Datum>> {
        self.index
            .values()
            .skip(pos as usize)
            .take(count as usize)
            .map(|tid| self.table.fetch(*tid).expect("live"))
            .collect()
    }

    /// Insert at `pos` by key bisection (renumber on gap exhaustion).
    pub fn insert_at(&mut self, pos: u64) {
        let pred = if pos == 0 { None } else { self.key_at(pos - 1) };
        let succ = self.key_at(pos);
        let key = match (pred, succ) {
            (None, None) => GAP,
            (Some(p), None) => p.saturating_add(GAP),
            (None, Some(s)) => s / 2,
            (Some(p), Some(s)) if s - p >= 2 => p + (s - p) / 2,
            _ => {
                self.renumber();
                return self.insert_at(pos);
            }
        };
        if self.index.contains_key(&key) {
            self.renumber();
            return self.insert_at(pos);
        }
        let tid = self
            .table
            .insert(&payload_row(Datum::Int(key), pos as i64, self.width))
            .expect("insert");
        self.index.insert(key, tid);
        self.len += 1;
    }

    pub fn delete_at(&mut self, pos: u64) {
        if let Some(key) = self.key_at(pos) {
            if let Some(tid) = self.index.remove(&key) {
                self.table.delete(tid);
                self.len -= 1;
            }
        }
    }

    fn renumber(&mut self) {
        let tids = std::mem::take(&mut self.index).into_values();
        for (i, tid) in tids.enumerate() {
            let key = (i as i64 + 1) * GAP;
            let mut row = self.table.fetch(tid).expect("live");
            row[0] = Datum::Int(key);
            self.table.update(tid, &row).expect("update");
            self.index.insert(key, tid);
        }
    }
}

/// Hierarchical positional mapping over tuple pointers (no positions in
/// tuples at all).
pub struct HierarchicalStore {
    table: Table,
    map: HierarchicalPosMap<TupleId>,
    width: u32,
}

impl HierarchicalStore {
    pub fn build(rows: u64, width: u32) -> Self {
        let mut table = Table::new("hier", schema(width));
        let tids: Vec<TupleId> = (0..rows)
            .map(|pos| {
                table
                    .insert(&payload_row(Datum::Null, pos as i64, width))
                    .expect("insert")
            })
            .collect();
        HierarchicalStore {
            table,
            map: HierarchicalPosMap::bulk_load(tids),
            width,
        }
    }

    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    pub fn fetch(&self, pos: u64, count: u64) -> Vec<Vec<Datum>> {
        self.map
            .range(pos as usize, count as usize)
            .into_iter()
            .map(|tid| self.table.fetch(*tid).expect("live"))
            .collect()
    }

    pub fn insert_at(&mut self, pos: u64) {
        let tid = self
            .table
            .insert(&payload_row(Datum::Null, pos as i64, self.width))
            .expect("insert");
        self.map.insert_at(pos as usize, tid);
    }

    pub fn delete_at(&mut self, pos: u64) {
        if let Some(tid) = self.map.remove_at(pos as usize) {
            self.table.delete(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_stores_agree_on_fetch() {
        let asis = AsIsStore::build(100, 4);
        let mono = MonotonicStore::build(100, 4);
        let hier = HierarchicalStore::build(100, 4);
        let a = asis.fetch(40, 5);
        let m = mono.fetch(40, 5);
        let h = hier.fetch(40, 5);
        assert_eq!(a.len(), 5);
        // Payload columns (1..) must agree across schemes.
        for i in 0..5 {
            assert_eq!(a[i][1..], m[i][1..]);
            assert_eq!(a[i][1..], h[i][1..]);
        }
    }

    #[test]
    fn asis_insert_renumbers() {
        let mut s = AsIsStore::build(50, 2);
        s.insert_at(10);
        assert_eq!(s.len(), 51);
        let rows = s.fetch(0, 51);
        assert_eq!(rows.len(), 51);
        // Positions are dense 0..51.
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Datum::Int(i as i64));
        }
        s.delete_at(10);
        assert_eq!(s.fetch(0, 50).len(), 50);
    }

    #[test]
    fn monotonic_insert_and_renumber() {
        let mut s = MonotonicStore::build(10, 2);
        for _ in 0..40 {
            s.insert_at(5);
        }
        assert_eq!(s.len(), 50);
        assert_eq!(s.fetch(0, 50).len(), 50);
        s.delete_at(5);
        assert_eq!(s.len(), 49);
    }

    #[test]
    fn hierarchical_ops() {
        let mut s = HierarchicalStore::build(1000, 4);
        s.insert_at(500);
        assert_eq!(s.len(), 1001);
        s.delete_at(0);
        assert_eq!(s.len(), 1000);
        assert_eq!(s.fetch(999, 10).len(), 1);
    }
}
