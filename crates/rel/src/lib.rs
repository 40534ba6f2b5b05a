//! Relational operations for PDM (paper §III "Database-Oriented
//! Operations", §VI "Relational Operations", Appendix B).
//!
//! DataSpread exposes relational operators as spreadsheet functions —
//! `union`, `difference`, `intersection`, `crossproduct`, `join`, `select`
//! (filter), `project`, `rename` — each returning a single *composite table
//! value* ([`Relation`]), which `index(table, i, j)` then dereferences onto
//! the grid. A `sql(query, params…)` function evaluates a SQL `SELECT`
//! against the backing database; this crate implements that SELECT subset
//! from scratch (joins, WHERE, GROUP BY aggregates, ORDER BY, LIMIT,
//! `?` prepared-statement parameters). A statement is planned once —
//! parameters bound, columns resolved — and then streamed in one pass over
//! a [`TableProvider`], which scans a table as borrowed, projected rows
//! (see [`sql`]).

pub mod expr;
pub mod ops;
pub mod relation;
pub mod sql;

pub use expr::RowExpr;
pub use relation::Relation;
pub use sql::{execute_sql, TableProvider};

/// Errors raised by relational operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RelError {
    /// Operand schemas are incompatible (union/difference/intersection).
    SchemaMismatch(String),
    /// A referenced column does not exist or is ambiguous.
    BadColumn(String),
    /// SQL/expression syntax error.
    Syntax(String),
    /// A referenced table does not exist.
    NoSuchTable(String),
    /// Type error during expression evaluation.
    Type(String),
    /// Wrong number of `?` parameters.
    ParamCount { expected: usize, got: usize },
    /// Feature outside the supported SELECT subset.
    Unsupported(String),
}

impl std::fmt::Display for RelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            RelError::BadColumn(c) => write!(f, "unknown or ambiguous column: {c}"),
            RelError::Syntax(m) => write!(f, "syntax error: {m}"),
            RelError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            RelError::Type(m) => write!(f, "type error: {m}"),
            RelError::ParamCount { expected, got } => {
                write!(f, "expected {expected} parameters, got {got}")
            }
            RelError::Unsupported(m) => write!(f, "unsupported SQL: {m}"),
        }
    }
}

impl std::error::Error for RelError {}
