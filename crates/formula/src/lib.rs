//! The formula engine (paper §VI, "Formula Evaluation").
//!
//! When a formula is entered into a cell, the [`parser`] interprets it; the
//! referenced ranges are registered in the [`deps::DependencyGraph`]; the
//! [`eval::Evaluator`] fetches required cells through a [`eval::CellReader`]
//! (in the engine crate, the hybrid translator) and computes the result.
//! Updates trigger recomputation
//! of dependents in topological order, with cycle detection.

pub mod ast;
pub mod batch;
pub mod deps;
pub mod error;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod refs;

pub use ast::{BinOp, CellRef, Expr, UnOp};
pub use batch::{batch_eval_sliding, detect_sliding, SlidingSpec};
pub use deps::{DependencyGraph, RecomputePlan, WavePlan};
pub use error::ParseError;
pub use eval::{AggKind, CellReader, EmptyReader, Evaluator, RangeAgg, SheetReader};
pub use parser::{parse, parse_at};
