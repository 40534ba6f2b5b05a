//! Simulation harness for the DataSpread test suites; no production crate
//! depends on it.
//!
//! [`FaultFs`] wraps any [`StorageFs`](dataspread_relstore::StorageFs) —
//! normally the real filesystem — and executes a *scripted fault
//! schedule* ([`FaultPlan`]): fail the Nth write, cut a write short, fail
//! an fsync, report ENOSPC, refuse an open or rename. Schedules are
//! deterministic — the same op sequence against the same schedule injects
//! the same faults — which is what lets the chaos suites replay a failing
//! case from its logged seed. The store sees it through the same
//! `Arc<dyn StorageFs>` it opens every file with (`SheetEngine::open_on`,
//! `WorkspaceConfig::storage_fs`, `Wal::open_on`).
//!
//! [`RefSheet`] is the reference the formula suites check the engine
//! against: a dense grid whose rows and columns carry identities, so a
//! reference names the cells it read through any structural edit. It
//! shares only the parser and the evaluator with the engine, and computes
//! every value from scratch on read.

mod model;
mod vfs;

pub use model::RefSheet;
pub use vfs::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};
