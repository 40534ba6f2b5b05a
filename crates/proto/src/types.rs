//! The wire vocabulary of the session API: edits, receipts, stats, and
//! the numeric error space.

use dataspread_grid::codec::{corrupt, put_str, put_u32, put_u64, put_u8, Reader};
use dataspread_grid::DecodeError;
use dataspread_obs::{metric_key, Health, HistogramSnapshot, RegistrySnapshot};

/// One logical edit, RPC-shaped (plain data, no engine types beyond the
/// cell-value enum used by imports).
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// `updateCell(row, col, input)` — raw user input (`=…` formula,
    /// literal, `""` clear), interpreted exactly like the engine does.
    Set {
        row: u32,
        col: u32,
        input: String,
    },
    InsertRows {
        at: u32,
        n: u32,
    },
    DeleteRows {
        at: u32,
        n: u32,
    },
    InsertCols {
        at: u32,
        n: u32,
    },
    DeleteCols {
        at: u32,
        n: u32,
    },
}

impl Edit {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Edit::Set { row, col, input } => {
                put_u8(out, 0);
                put_u32(out, *row);
                put_u32(out, *col);
                put_str(out, input);
            }
            Edit::InsertRows { at, n } => {
                put_u8(out, 1);
                put_u32(out, *at);
                put_u32(out, *n);
            }
            Edit::DeleteRows { at, n } => {
                put_u8(out, 2);
                put_u32(out, *at);
                put_u32(out, *n);
            }
            Edit::InsertCols { at, n } => {
                put_u8(out, 3);
                put_u32(out, *at);
                put_u32(out, *n);
            }
            Edit::DeleteCols { at, n } => {
                put_u8(out, 4);
                put_u32(out, *at);
                put_u32(out, *n);
            }
        }
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Edit, DecodeError> {
        Ok(match r.u8()? {
            0 => Edit::Set {
                row: r.u32()?,
                col: r.u32()?,
                input: r.str()?,
            },
            1 => Edit::InsertRows {
                at: r.u32()?,
                n: r.u32()?,
            },
            2 => Edit::DeleteRows {
                at: r.u32()?,
                n: r.u32()?,
            },
            3 => Edit::InsertCols {
                at: r.u32()?,
                n: r.u32()?,
            },
            4 => Edit::DeleteCols {
                at: r.u32()?,
                n: r.u32()?,
            },
            t => return Err(corrupt(format!("unknown edit tag {t}"))),
        })
    }
}

/// Acknowledgement for one applied edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditReceipt {
    /// WAL commit ticket of the logged op (0 on in-memory workspaces).
    /// Tickets increase in the order edits serialized on the sheet, so
    /// they double as the edit's position in the sheet's history.
    pub ticket: u64,
    /// Whether the edit was crash-durable when `apply_edit` returned
    /// (true for every durable workspace, both commit modes).
    pub durable: bool,
}

/// The wire view of an engine `CheckpointReport` — the counters a remote
/// client can act on, shorn of engine internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointSummary {
    /// Pages whose bytes changed and were rewritten.
    pub pages_written: u64,
    /// Regions in the image after the checkpoint (catch-all included).
    pub regions_total: u64,
    /// Regions submitted dirty (re-serialized this checkpoint).
    pub regions_dirty: u64,
    /// Dirty regions whose bytes actually changed and were rewritten.
    pub regions_written: u64,
}

impl CheckpointSummary {
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.pages_written);
        put_u64(out, self.regions_total);
        put_u64(out, self.regions_dirty);
        put_u64(out, self.regions_written);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<CheckpointSummary, DecodeError> {
        Ok(CheckpointSummary {
            pages_written: r.u64()?,
            regions_total: r.u64()?,
            regions_dirty: r.u64()?,
            regions_written: r.u64()?,
        })
    }
}

/// Point-in-time counters and health for one sheet: a view of the
/// workspace's metrics snapshot, not a message of its own. Build it with
/// [`SheetStats::from_snapshot`]; in process `Session::stats` does, and
/// over the wire `RemoteSession::stats` projects a `Request::Metrics`
/// answer the same way.
///
/// The struct is `#[non_exhaustive]`: new PRs append fields without
/// breaking downstream matches.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct SheetStats {
    /// Non-empty cells in the sheet.
    pub filled_cells: u64,
    /// Hybrid storage regions (the catch-all excluded).
    pub regions: u64,
    /// Whether the sheet is backed by a durable store (WAL + image). The
    /// persistence counters below, `resident_bytes` aside, are only
    /// meaningful when this is set.
    pub persistent: bool,
    /// Bytes in the WAL file.
    pub wal_bytes: u64,
    /// Ops logged since the last checkpoint (replay cost on reopen).
    pub ops_since_checkpoint: u64,
    /// Checkpoints recorded in `checkpoint_ns{sheet}`: those taken since
    /// the workspace attached its metrics (not the recovery checkpoint at
    /// open).
    pub checkpoints: u64,
    /// Pages in the checkpoint image.
    pub image_pages: u64,
    /// Regions serialized in the checkpoint image.
    pub image_regions: u64,
    /// Bytes of region payload resident in memory.
    pub resident_bytes: u64,
    /// Retired image-cache counter; always 0.
    pub pager_hits: u64,
    /// Retired image-cache counter; always 0.
    pub pager_misses: u64,
    /// Retired image-cache counter; always 0.
    pub pager_evictions: u64,
    /// Pages read from the image file.
    pub pager_pages_read: u64,
    /// Pages written to the image file.
    pub pager_pages_written: u64,
    /// Whether the sheet is serving normally or read-only degraded.
    pub health: Health,
    /// Cause of the degrade (first storage failure message), if degraded.
    pub degraded_cause: Option<String>,
    /// Unix millis when the sheet degraded, if degraded and known.
    pub degraded_since_ms: Option<u64>,
}

impl SheetStats {
    /// Project `sheet`'s numbers out of a metrics snapshot: each number
    /// field is the `{sheet}`-labelled gauge of the same name,
    /// `checkpoints` is the count of `checkpoint_ns{sheet}`, `persistent`
    /// says a `wal_bytes{sheet}` gauge exists, and health comes from the
    /// snapshot's sheet list. `None` when that list does not name the
    /// sheet (never opened, or still recovering).
    pub fn from_snapshot(snap: &RegistrySnapshot, sheet: &str) -> Option<SheetStats> {
        let health = snap.sheet_health(sheet)?;
        let key = |name: &str| metric_key(name, &[("sheet", sheet)]);
        let gauge = |name: &str| {
            snap.gauge(&key(name))
                .map(|v| u64::try_from(v).unwrap_or(0))
        };
        let number = |name: &str| gauge(name).unwrap_or(0);
        Some(SheetStats {
            filled_cells: number("filled_cells"),
            regions: number("regions"),
            persistent: gauge("wal_bytes").is_some(),
            wal_bytes: number("wal_bytes"),
            ops_since_checkpoint: number("ops_since_checkpoint"),
            checkpoints: snap
                .histogram(&key("checkpoint_ns"))
                .map_or(0, HistogramSnapshot::count),
            image_pages: number("image_pages"),
            image_regions: number("image_regions"),
            resident_bytes: number("resident_bytes"),
            pager_hits: 0,
            pager_misses: 0,
            pager_evictions: 0,
            pager_pages_read: number("pager_pages_read"),
            pager_pages_written: number("pager_pages_written"),
            health: health.health,
            degraded_cause: health.cause.clone(),
            degraded_since_ms: health.since_ms,
        })
    }
}

pub(crate) fn health_to_u8(h: Health) -> u8 {
    match h {
        Health::Healthy => 0,
        Health::Degraded => 1,
    }
}

pub(crate) fn health_from_u8(b: u8) -> Result<Health, DecodeError> {
    Ok(match b {
        0 => Health::Healthy,
        1 => Health::Degraded,
        t => return Err(corrupt(format!("unknown health tag {t}"))),
    })
}

/// Stable numeric codes for every error the session API can surface.
///
/// The codes are wire contract: they never change meaning and new ones are
/// only appended. The server derives them from its `WorkspaceError`
/// (`to_wire`); the client never rebuilds that enum and hands the
/// [`WireError`] to its caller as received, so an unknown code is as
/// valid as a known one. `PROTOCOL` and `IO` are also what the client
/// reports for its own handshake and transport failures. Layout: `0x000x`
/// session-level errors, `0x01xx` engine-level, `0x02xx` store-level (one
/// code per row-store error variant).
pub mod codes {
    /// The named sheet was never opened in this workspace.
    pub const NO_SUCH_SHEET: u16 = 1;
    /// Sheet name failed validation (`[A-Za-z0-9_-]`, ≤128 chars).
    pub const BAD_SHEET_NAME: u16 = 2;
    /// Admission control rejected the request; retry after draining
    /// in-flight work.
    pub const BUSY: u16 = 3;
    /// The peer violated the wire protocol (bad frame, bad tag, version
    /// mismatch).
    pub const PROTOCOL: u16 = 4;
    /// Transport-level I/O failure.
    pub const IO: u16 = 5;
    /// The sheet is in read-only degraded mode after a storage failure:
    /// fetches still serve from memory, but edits are refused until the
    /// server reopens the store. Retrying the same edit will keep failing;
    /// clients should surface the error and reconnect later.
    pub const DEGRADED: u16 = 6;
    /// A permanent storage failure (failed fsync / torn checkpoint)
    /// surfaced directly by the failing operation. The request that got
    /// this error was NOT made durable.
    pub const STORAGE_FAILED: u16 = 7;

    pub const ENGINE_UNSUPPORTED: u16 = 0x101;
    pub const ENGINE_BAD_LINK: u16 = 0x102;
    pub const ENGINE_FORMULA: u16 = 0x103;
    pub const ENGINE_GRID: u16 = 0x104;
    pub const ENGINE_REL: u16 = 0x105;

    pub const STORE_NO_SUCH_TABLE: u16 = 0x200;
    pub const STORE_TABLE_EXISTS: u16 = 0x201;
    pub const STORE_SCHEMA_MISMATCH: u16 = 0x202;
    pub const STORE_BAD_TUPLE_ID: u16 = 0x203;
    // 0x204 is retired (the page-overflow error of the slotted-page
    // store); never reassigned.
    pub const STORE_CORRUPT: u16 = 0x205;
    pub const STORE_NO_SUCH_COLUMN: u16 = 0x206;
    pub const STORE_LIMIT_EXCEEDED: u16 = 0x207;
    pub const STORE_IO: u16 = 0x208;
    /// The store's permanent failure: its WAL or image can no longer
    /// prove durability; only a reopen recovers. The workspace never
    /// sends it: a permanent failure that reaches the session, bare or
    /// inside an engine error, answers [`STORAGE_FAILED`].
    pub const STORE_STORAGE_FAILED: u16 = 0x209;
}

/// An error as it travels the wire: a stable numeric code plus the
/// variant's payload string (sheet name, message, …) — not a rendered
/// display string, so the receiving side branches on the code instead of
/// parsing an opaque blob of text. It is also the client's whole error
/// type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    pub code: u16,
    pub detail: String,
}

impl WireError {
    pub fn new(code: u16, detail: impl Into<String>) -> WireError {
        WireError {
            code,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:#06x}] {}", self.code, self.detail)
    }
}

impl std::error::Error for WireError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_roundtrip() {
        let edits = [
            Edit::Set {
                row: 3,
                col: 9,
                input: "=SUM(A1:A3)".into(),
            },
            Edit::InsertRows { at: 0, n: 5 },
            Edit::DeleteRows { at: 7, n: 1 },
            Edit::InsertCols { at: 2, n: 3 },
            Edit::DeleteCols { at: 4, n: 2 },
        ];
        for edit in &edits {
            let mut buf = Vec::new();
            edit.encode(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(&Edit::decode(&mut r).unwrap(), edit);
            r.expect_done("edit").unwrap();
        }
    }

    #[test]
    fn garbage_tags_are_corruption_not_panics() {
        assert!(Edit::decode(&mut Reader::new(&[9])).is_err());
        assert!(Edit::decode(&mut Reader::new(&[1, 0, 0])).is_err());
        assert!(Edit::decode(&mut Reader::new(&[])).is_err());
        assert!(health_from_u8(2).is_err());
    }
}
