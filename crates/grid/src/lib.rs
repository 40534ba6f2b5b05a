//! Conceptual data model for presentational data management (PDM).
//!
//! A spreadsheet is a collection of cells referenced by two dimensions (row,
//! column); each cell holds a value or a formula (DataSpread, ICDE 2018,
//! §III). This crate provides the shared vocabulary used by every other
//! crate in the workspace:
//!
//! * [`CellAddr`] — a (row, column) position with A1-notation support,
//! * [`CellValue`] / [`Cell`] — cell contents (constant or formula result),
//! * [`Rect`] — rectangular regions, the unit of presentational access,
//! * [`SparseSheet`] — an in-memory reference implementation of the
//!   conceptual model (also the test oracle for the storage engine),
//! * [`Shift`] — a row or column insert/delete, and the one rule for where
//!   a position moves under it (the sheet model, the storage engine and
//!   formula references all follow it),
//! * [`codec`] — the one byte codec every on-disk and wire format is built
//!   on: the bounds-checked [`codec::Reader`], the value, rect and rows
//!   encodings, and [`DecodeError`].

pub mod addr;
pub mod codec;
pub mod error;
pub mod region;
pub mod sheet;
pub mod shift;
pub mod value;

pub use addr::CellAddr;
pub use codec::DecodeError;
pub use error::GridError;
pub use region::Rect;
pub use sheet::SparseSheet;
pub use shift::Shift;
pub use value::{Cell, CellError, CellValue, ScanValue};
