//! Store-level error type.

use std::fmt;

use dataspread_grid::DecodeError;

/// Errors raised by the row store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A table name was not found in the catalog.
    NoSuchTable(String),
    /// A table with the name already exists.
    TableExists(String),
    /// A row did not match the table schema.
    SchemaMismatch(String),
    /// A tuple id did not resolve to a live tuple.
    BadTupleId,
    /// Tuple bytes failed to decode.
    Corrupt(String),
    /// A column name was not found in a schema.
    NoSuchColumn(String),
    /// The operation would exceed a configured limit (e.g. max columns,
    /// paper Appendix A-C4).
    LimitExceeded(String),
    /// An operating-system I/O failure (persistence paths: the image file,
    /// the WAL). Stored as its display string so the error stays `Clone` +
    /// `PartialEq` like the rest of the enum.
    Io(String),
    /// A *permanent* storage failure: an fsync (or the truncate that
    /// follows a checkpoint) failed, so the affected log/store can no
    /// longer prove anything durable and refuses every later commit.
    /// Unlike [`StoreError::Io`] this is sticky — the only recovery is
    /// reopening the store and replaying what actually reached the disk.
    StorageFailed(String),
}

/// Undecodable stored bytes are corruption, with the decoder's message.
impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Corrupt(e.0)
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchTable(n) => write!(f, "no such table: {n}"),
            StoreError::TableExists(n) => write!(f, "table already exists: {n}"),
            StoreError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StoreError::BadTupleId => write!(f, "invalid tuple id"),
            StoreError::Corrupt(m) => write!(f, "corrupt tuple: {m}"),
            StoreError::NoSuchColumn(n) => write!(f, "no such column: {n}"),
            StoreError::LimitExceeded(m) => write!(f, "limit exceeded: {m}"),
            StoreError::Io(m) => write!(f, "io error: {m}"),
            StoreError::StorageFailed(m) => write!(f, "storage failed (permanent): {m}"),
        }
    }
}

impl std::error::Error for StoreError {}
