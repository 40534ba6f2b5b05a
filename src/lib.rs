//! # DataSpread-rs
//!
//! A scalable storage engine for *presentational data management* (PDM) —
//! a from-scratch Rust reproduction of the DataSpread storage engine
//! (Bendre et al., ICDE 2018).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! * [`obs`] — the dependency-free observability core: lock-free
//!   counters/gauges, log₂ latency histograms with mergeable snapshots,
//!   a bounded slow-op [`obs::EventRing`], and the
//!   [`obs::MetricsRegistry`] every workspace carries (snapshots are
//!   served over the wire via `Request::Metrics` and rendered as a
//!   Prometheus-style text exposition by `--metrics-dump`),
//! * [`grid`] — the conceptual data model (cells, addresses, regions),
//! * [`posmap`] — positional mapping (hierarchical counted B+-tree, …),
//! * [`relstore`] — the embedded relational row store,
//! * [`hybrid`] — primitive/hybrid data models and the decomposition
//!   optimizer (DP, greedy, aggressive greedy, incremental),
//! * [`formula`] — formula parsing, dependency tracking, evaluation,
//! * [`rel`] — relational operators and the mini-SQL engine,
//! * [`analysis`] — spreadsheet structure/formula analysis (paper §II),
//! * [`corpus`] — synthetic corpora and workload generators,
//! * [`engine`] — the storage engine proper: ROM/COM/RCV/TOM translators
//!   and the [`engine::SheetEngine`] facade, including durable paged
//!   persistence (`SheetEngine::open` / `save` / `checkpoint`: a paged
//!   image file read and written through a [`relstore::VfsFile`] plus a
//!   [`relstore::Wal`] with crash recovery on reopen),
//! * [`workspace`] — the concurrent multi-sheet service: sheets sharded
//!   behind per-sheet locks, a name-keyed session API
//!   (`open_sheet` / `fetch_window` / `apply_edit` / `import_rows` /
//!   `checkpoint`), and group commit, where the committing writer's one
//!   WAL fsync covers every writer waiting behind it,
//! * [`proto`] — the wire-stable protocol layer: length-prefixed
//!   framing, request/response envelopes, the [`proto::WindowPatch`]
//!   window response (a window's cells as one cell block, the encoding
//!   the image and the WAL use), and stable numeric error codes,
//! * [`server`] — the `dataspread-server` TCP server hosting a
//!   workspace behind that protocol (session multiplexing, group-commit
//!   pipelining, per-connection admission control),
//! * [`client`] — the blocking TCP client whose
//!   [`client::RemoteSession`] mirrors the in-process session API
//!   one-to-one.
//!
//! ## Quickstart
//!
//! ```
//! use dataspread::engine::SheetEngine;
//! use dataspread::grid::{CellAddr, CellValue};
//!
//! let mut sheet = SheetEngine::new();
//! sheet.update_cell_a1("A1", "10").unwrap();
//! sheet.update_cell_a1("A2", "32").unwrap();
//! sheet.update_cell_a1("A3", "=SUM(A1:A2)").unwrap();
//! assert_eq!(sheet.value(CellAddr::parse_a1("A3").unwrap()), CellValue::Number(42.0));
//! ```

pub use dataspread_analysis as analysis;
pub use dataspread_client as client;
pub use dataspread_corpus as corpus;
pub use dataspread_engine as engine;
pub use dataspread_formula as formula;
pub use dataspread_grid as grid;
pub use dataspread_hybrid as hybrid;
pub use dataspread_obs as obs;
pub use dataspread_posmap as posmap;
pub use dataspread_proto as proto;
pub use dataspread_rel as rel;
pub use dataspread_relstore as relstore;
pub use dataspread_server as server;
pub use dataspread_workspace as workspace;
