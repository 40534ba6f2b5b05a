//! The concurrent workspace service: many sheets, many sessions, and
//! group commit on each sheet's WAL.
//!
//! The paper frames DataSpread as a spreadsheet *served* from a
//! database-grade engine: many users fetch positional windows and issue
//! edits against the same store ("The Future of Spreadsheets in the Big
//! Data Era" names multi-user concurrent access as the defining gap
//! between spreadsheets and databases). This crate closes that gap for
//! the Rust engine:
//!
//! * **Sharded sheets.** A [`Workspace`] owns N [`SheetEngine`]s, one per
//!   named sheet, each behind its own reader-writer lock. Readers fetch
//!   positional windows concurrently (`fetch_window` takes the shared
//!   lock); one writer per sheet mutates at a time; sessions working on
//!   *different* sheets never contend. Per-sheet state — the dependency
//!   graph included — is sharded with the sheet, so formula edits on one
//!   sheet cannot serialize against another's.
//! * **Session API.** [`Session`]s address sheets by name —
//!   [`Session::open_sheet`], [`Session::fetch_window`],
//!   [`Session::apply_edit`], [`Session::import_rows`],
//!   [`Session::checkpoint`] — a deliberately RPC-shaped surface (string
//!   sheet ids, plain-data [`Edit`] values, receipts) so a network
//!   front-end can be bolted on without reshaping the service.
//! * **Group commit.** In a durable workspace every edit appends to the
//!   sheet's WAL and receives a *commit ticket*, which the session then
//!   commits on its own thread. There is no commit thread: a committing
//!   writer that finds no fsync in flight fsyncs every record appended so
//!   far, and the writers arriving meanwhile wait for that fsync and
//!   mostly find their tickets covered by it — K writers × 1 fsync/op
//!   becomes ~1 fsync per batch, with the identical durability contract:
//!   `apply_edit` does not return before the edit is on stable storage.
//!
//! Crash recovery is unchanged from the single-threaded engine: each
//! sheet directory recovers independently (image + committed WAL
//! prefix), and because ops serialize under the sheet's write lock in
//! ticket order, the recovered state is always a prefix of the actual
//! edit serialization — the concurrent stress suite replays that order
//! into a single-threaded oracle and compares byte-for-byte.
//!
//! The session surface is now *wire-typed*: [`Edit`], [`EditReceipt`] and
//! the [`WindowPatch`] returned by [`Session::fetch_window`] are the
//! `dataspread-proto` wire types themselves, and every [`WorkspaceError`]
//! variant carries a stable numeric code ([`WorkspaceError::code`]). The
//! TCP server (`dataspread-server`) frames these values as-is rather than
//! maintaining a parallel DTO layer, sending an error as
//! [`WorkspaceError::to_wire`]; the client (`dataspread-client`) hands
//! that `WireError` to its caller unchanged and never links this crate.

mod service;

pub use dataspread_proto::{Edit, EditReceipt, SheetStats, WindowPatch};
pub use service::{window_patch, Session, Workspace, WorkspaceConfig, WorkspaceError};

pub use dataspread_engine::{CheckpointReport, PersistenceStats, SheetEngine};

// The observability vocabulary: the registry every workspace carries and
// the snapshot types `Session::metrics` / `Request::Metrics` serve.
pub use dataspread_obs::{
    Event, Health, HistogramSnapshot, MetricsRegistry, RegistrySnapshot, SheetHealth,
};
