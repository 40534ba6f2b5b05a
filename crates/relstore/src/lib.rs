//! An embedded relational row store.
//!
//! DataSpread's storage engine persists spreadsheet data as relational
//! tables inside PostgreSQL. This crate is the workspace's PostgreSQL
//! stand-in: a from-scratch single-process row store with
//!
//! * [`table::Table`]s that hold their rows as encoded tuples in a slot
//!   vector, addressed by a stable [`TupleId`] slot,
//! * typed tuples ([`datum::Datum`]), priced by
//!   [`Table::accounted_bytes`] with the paper's measured PostgreSQL
//!   constants (one 8 KB page per table, per-row headers, per-column
//!   catalog entries),
//! * a [`db::Database`] catalog.
//!
//! Secondary indexes are not part of it: a caller that needs one keeps a
//! `std::collections::BTreeMap` from its key to [`TupleId`], standing in
//! for PostgreSQL's B-tree, which the paper uses but does not measure.
//!
//! It intentionally models the *cost structure* the paper measures —
//! per-table, per-row, per-column, and per-cell overheads — so that storage
//! comparisons between data models (ROM / COM / RCV / hybrids) transfer.
//!
//! Durability has one tier: [`vfs`] + [`wal`] — positional file I/O
//! behind the [`StorageFs`] trait (the real filesystem in production; the
//! fault suites substitute the `dataspread-sim` dev crate's
//! fault-injecting one), and a write-ahead log of CRC-framed records in
//! one file, whose fsync-point is the commit point and whose checksummed
//! header carries the commit-ticket base across resets. The engine crate
//! composes the two into crash-recoverable sheet storage, reading and
//! writing its paged image straight through a [`VfsFile`]. A
//! [`db::Database`] itself lives in memory only: the engine's durable
//! image holds sheet cells, not the tables behind them.

pub mod datum;
pub mod db;
pub mod error;
pub mod schema;
pub mod table;
pub mod vfs;
pub mod wal;

/// Kept only for `bench_e2e`, which names `dataspread_relstore::Reader`;
/// everything else imports [`dataspread_grid::codec`] directly.
pub use dataspread_grid::codec::Reader;
pub use datum::{DataType, Datum, DatumRef, RowWriter};
pub use db::Database;
pub use error::StoreError;
pub use schema::{ColumnDef, Schema};
pub use table::{Table, TupleId};
pub use vfs::{real_fs, OpenMode, RealFs, StorageFs, VfsFile};
pub use wal::{crc32, SharedWal, Wal, WalObs};
