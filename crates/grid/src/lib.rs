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
//! * [`Occupancy`] — a bounding-box bitmap with 2-D prefix sums giving O(1)
//!   filled-cell counts for any sub-rectangle (the workhorse of the hybrid
//!   optimizer),
//! * [`codec`] — the one byte codec every on-disk and wire format is built
//!   on: the bounds-checked [`codec::Reader`], the value, rect and rows
//!   encodings, and [`DecodeError`].

pub mod addr;
pub mod codec;
pub mod error;
pub mod mask;
pub mod region;
pub mod sheet;
pub mod value;

pub use addr::CellAddr;
pub use codec::DecodeError;
pub use error::GridError;
pub use mask::Occupancy;
pub use region::Rect;
pub use sheet::SparseSheet;
pub use value::{Cell, CellError, CellValue, ScanValue};
