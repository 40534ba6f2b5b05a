//! The DataSpread storage engine (paper §VI).
//!
//! The engine persists spreadsheet data in the relational row store through
//! *translators* — one per primitive data model — each providing the
//! "collection of cells" abstraction over its table(s):
//!
//! * [`rom::RomTranslator`] — one tuple per sheet row,
//! * [`com::ComTranslator`] — one tuple per sheet column (the transpose),
//! * [`rcv::RcvTranslator`] — one tuple per filled cell,
//! * [`tom::TomTranslator`] — a linked database table (`linkTable`),
//! * [`hybrid::HybridSheet`] — routes regions of the sheet to per-region
//!   translators, with an RCV catch-all for stray cells.
//!
//! Every translator maintains hierarchical positional maps (counted
//! B+-trees) on *both* axes, so row **and** column inserts/deletes are
//! O(log N) — no stored row or column numbers, no cascading renumbering
//! (paper §V).
//!
//! [`sheet::SheetEngine`] adds the execution-engine layer: formula parsing,
//! the dependency graph, wave-ordered recomputation, the
//! spreadsheet-facing API (`getCells`, `updateCell`, `insertRowAfter`, …),
//! the database-facing API (`linkTable`, `sql`, relational operators), and
//! `optimize()` which runs the hybrid optimizer and migrates storage.
//!
//! The [`durable`] module adds crash-safe persistence: sheets opened with
//! [`sheet::SheetEngine::open`] log every op to a write-ahead log and fold
//! checkpoints into a paged image file; recovery on reopen replays the
//! committed op tail (see the module docs for the exact protocol).

pub mod columnar;
pub mod com;
pub mod durable;
pub mod error;
pub mod hybrid;
pub mod obs;
pub mod rcv;
pub mod rom;
pub mod sheet;
pub mod tom;
pub mod translator;

pub use columnar::ColumnarTranslator;
pub use dataspread_grid::ScanValue;
pub use durable::{CheckpointReport, LoggedOp, PersistenceStats};
pub use error::EngineError;
pub use hybrid::{HybridSheet, RegionImage, CATCHALL_REGION_ID};
pub use obs::EngineObs;
pub use sheet::{OptimizeAlgorithm, OptimizeReport, SheetEngine};
pub use translator::Translator;

pub use dataspread_hybrid::ModelKind;

// The unit tests share the integration tests' owned-cell helpers, which
// name this crate by its package name.
#[cfg(test)]
extern crate self as dataspread_engine;
#[cfg(test)]
#[path = "../tests/common/cells.rs"]
mod test_cells;
