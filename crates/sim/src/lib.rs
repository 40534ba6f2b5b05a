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

mod vfs;

pub use vfs::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};
