//! The wire-stable session protocol shared by the workspace service, the
//! TCP server, and the client crate.
//!
//! The paper's architecture (and "The Future of Spreadsheets in the Big
//! Data Era") separates thin presentational clients from a scalable
//! storage backend; this crate is the boundary between the two halves of
//! that split. Everything here is *plain data* — no engine types, no
//! locks, no handles — encoded with the same bounds-checked
//! length-prefixed codec ([`dataspread_grid::codec`]) every on-disk
//! format in the workspace already uses, so a hostile or truncated byte
//! stream surfaces as a clean [`DecodeError`](dataspread_grid::DecodeError),
//! never a panic. The crate links only `grid` and `obs`: the wire format
//! does not depend on the storage engine behind it.
//!
//! Four layers:
//!
//! * [`types`] — the session vocabulary: [`Edit`], [`EditReceipt`],
//!   [`WireError`] (stable numeric error codes in [`codes`]),
//!   [`CheckpointSummary`], and [`SheetStats`], one sheet's numbers and
//!   health projected out of a metrics snapshot
//!   ([`SheetStats::from_snapshot`]) rather than a frame of its own.
//! * [`metrics`] — the canonical validated codec for whole-workspace
//!   [`RegistrySnapshot`] frames served by [`Request::Metrics`], the one
//!   stats channel: every per-sheet number travels in it.
//! * [`patch`] — [`WindowPatch`], the positional-window response: the
//!   window's rect plus its cells as one cell block
//!   ([`dataspread_grid::codec::CellsEncoder`], the encoding the image,
//!   the WAL and an import give a block of cells) instead of one boxed
//!   [`dataspread_grid::Cell`] clone per filled cell. Used both in-process
//!   (`Session::fetch_window` returns it directly) and on the wire (it
//!   encodes as-is — the server never re-shapes a window).
//! * [`wire`] — [`Request`] / [`Response`] envelopes, request-id tagging
//!   for multiplexing many logical sessions over one connection, and
//!   length-prefixed framing ([`write_frame`] / [`read_frame`]).

pub mod metrics;
pub mod patch;
pub mod types;
pub mod wire;

pub use metrics::{decode_metrics, encode_metrics, MAX_METRIC_ENTRIES};
pub use patch::{PatchBuilder, WindowPatch};
pub use types::{codes, CheckpointSummary, Edit, EditReceipt, SheetStats, WireError};
pub use wire::{read_frame, write_frame, Request, Response, MAX_FRAME, PROTOCOL_VERSION};

// Re-export the observability vocabulary the protocol speaks, so
// downstream crates (workspace, server, client) name one source of truth.
pub use dataspread_obs::{
    Event, Health, HistogramSnapshot, RegistrySnapshot, SheetHealth, HISTOGRAM_BUCKETS,
};
