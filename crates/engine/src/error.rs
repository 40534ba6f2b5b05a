//! Engine error type.

use dataspread_formula::ParseError;
use dataspread_grid::{DecodeError, GridError};
use dataspread_rel::RelError;
use dataspread_relstore::StoreError;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    Store(StoreError),
    Grid(GridError),
    Formula(ParseError),
    Rel(RelError),
    /// The operation is not supported by this translator (e.g. structural
    /// column edits on a linked table).
    Unsupported(String),
    /// linkTable target problems (size mismatch, overlapping regions, …).
    BadLink(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Store(e) => write!(f, "storage: {e}"),
            EngineError::Grid(e) => write!(f, "grid: {e}"),
            EngineError::Formula(e) => write!(f, "formula: {e}"),
            EngineError::Rel(e) => write!(f, "relational: {e}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::BadLink(m) => write!(f, "link error: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> Self {
        EngineError::Store(e)
    }
}
impl From<DecodeError> for EngineError {
    fn from(e: DecodeError) -> Self {
        EngineError::Store(e.into())
    }
}
impl From<GridError> for EngineError {
    fn from(e: GridError) -> Self {
        EngineError::Grid(e)
    }
}
impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Formula(e)
    }
}
impl From<RelError> for EngineError {
    fn from(e: RelError) -> Self {
        EngineError::Rel(e)
    }
}
impl From<std::io::Error> for EngineError {
    fn from(e: std::io::Error) -> Self {
        EngineError::Store(StoreError::Io(e.to_string()))
    }
}
