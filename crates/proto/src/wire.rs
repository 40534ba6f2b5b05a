//! Request/response envelopes and length-prefixed framing.
//!
//! A connection carries a stream of frames in each direction. Every frame
//! is `u32` little-endian payload length + payload; every payload starts
//! with a `u64` request id chosen by the client, so responses can return
//! out of order and many logical sessions can multiplex over one
//! connection — the id is the demultiplexing key, the server echoes it
//! verbatim.
//!
//! Decoding never trusts the peer: lengths are capped at [`MAX_FRAME`],
//! tags and payloads are bounds-checked by [`Reader`], and every malformed
//! input surfaces as an error the caller can turn into a clean
//! [`crate::codes::PROTOCOL`] rejection (server) or error return (client).

use std::io::{Read, Write};

use dataspread_grid::{CellAddr, CellValue, Rect};
use dataspread_obs::RegistrySnapshot;
use dataspread_relstore::codec::{corrupt, put_str, put_u16, put_u32, put_u64, put_u8, Reader};
use dataspread_relstore::StoreError;

use crate::metrics::{decode_metrics, encode_metrics};
use crate::patch::WindowPatch;
use crate::types::{
    put_rect, put_value, read_rect, read_value, CheckpointSummary, Edit, EditReceipt, SheetStats,
    WireError,
};

/// Bumped on any incompatible change; the hello handshake rejects
/// mismatches before any other request is processed. Version 2 replaced
/// the fixed-shape stats payload with the field-tagged [`SheetStats`]
/// encoding and added `Metrics`.
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard cap on one frame's payload, matching the WAL's record bound — an
/// import that fits in one WAL record fits in one frame.
pub const MAX_FRAME: usize = 64 << 20;

/// Write one `u32`-length-prefixed frame (caller flushes).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Read one frame. `Ok(None)` on clean EOF at a frame boundary;
/// `InvalidData` on an oversized or zero length; `UnexpectedEof` when the
/// stream dies mid-frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    // Read the length prefix byte-wise so EOF *between* frames (0 bytes
    // read) is distinguishable from truncation *inside* the prefix.
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < len_bytes.len() {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection dropped inside a frame length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} outside (0, {MAX_FRAME}]"),
        ));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// One session-API request. Variants mirror `Session`'s methods
/// one-to-one; `Hello` and `Ping` are connection plumbing.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Must be the first request on a connection.
    Hello {
        version: u16,
    },
    OpenSheet {
        sheet: String,
    },
    FetchWindow {
        sheet: String,
        rect: Rect,
    },
    Value {
        sheet: String,
        addr: CellAddr,
    },
    ApplyEdit {
        sheet: String,
        edit: Edit,
    },
    StageEdit {
        sheet: String,
        edit: Edit,
    },
    AwaitCommit {
        sheet: String,
        ticket: u64,
    },
    ImportRows {
        sheet: String,
        top_left: CellAddr,
        width: u32,
        rows: Vec<Vec<CellValue>>,
    },
    Checkpoint {
        sheet: String,
    },
    Stats {
        sheet: String,
    },
    Ping,
    /// The sheet's restart-reconciliation pair (answered with
    /// [`Response::Ticket`]). Reconnecting clients use it to decide
    /// which staged edits to re-send.
    DurableTicket {
        sheet: String,
    },
    /// Whole-workspace metrics snapshot: every counter/gauge/histogram,
    /// the slow-op event ring, and per-sheet health (answered with
    /// [`Response::Metrics`]).
    Metrics,
}

impl Request {
    /// Encode as a frame payload: request id, tag, body.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, req_id);
        match self {
            Request::Hello { version } => {
                put_u8(&mut out, 0);
                put_u16(&mut out, *version);
            }
            Request::OpenSheet { sheet } => {
                put_u8(&mut out, 1);
                put_str(&mut out, sheet);
            }
            Request::FetchWindow { sheet, rect } => {
                put_u8(&mut out, 2);
                put_str(&mut out, sheet);
                put_rect(&mut out, *rect);
            }
            Request::Value { sheet, addr } => {
                put_u8(&mut out, 3);
                put_str(&mut out, sheet);
                put_u32(&mut out, addr.row);
                put_u32(&mut out, addr.col);
            }
            Request::ApplyEdit { sheet, edit } => {
                put_u8(&mut out, 4);
                put_str(&mut out, sheet);
                edit.encode(&mut out);
            }
            Request::StageEdit { sheet, edit } => {
                put_u8(&mut out, 5);
                put_str(&mut out, sheet);
                edit.encode(&mut out);
            }
            Request::AwaitCommit { sheet, ticket } => {
                put_u8(&mut out, 6);
                put_str(&mut out, sheet);
                put_u64(&mut out, *ticket);
            }
            Request::ImportRows {
                sheet,
                top_left,
                width,
                rows,
            } => {
                put_u8(&mut out, 7);
                put_str(&mut out, sheet);
                put_u32(&mut out, top_left.row);
                put_u32(&mut out, top_left.col);
                put_u32(&mut out, *width);
                put_u32(&mut out, rows.len() as u32);
                for row in rows {
                    put_u32(&mut out, row.len() as u32);
                    for v in row {
                        put_value(&mut out, v);
                    }
                }
            }
            Request::Checkpoint { sheet } => {
                put_u8(&mut out, 8);
                put_str(&mut out, sheet);
            }
            Request::Stats { sheet } => {
                put_u8(&mut out, 9);
                put_str(&mut out, sheet);
            }
            Request::Ping => put_u8(&mut out, 10),
            Request::DurableTicket { sheet } => {
                put_u8(&mut out, 11);
                put_str(&mut out, sheet);
            }
            Request::Metrics => put_u8(&mut out, 12),
        }
        out
    }

    /// Decode a frame payload into `(req_id, request)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Request), StoreError> {
        let mut r = Reader::new(payload);
        let req_id = r.u64()?;
        let req = match r.u8()? {
            0 => Request::Hello { version: r.u16()? },
            1 => Request::OpenSheet { sheet: r.str()? },
            2 => Request::FetchWindow {
                sheet: r.str()?,
                rect: read_rect(&mut r)?,
            },
            3 => Request::Value {
                sheet: r.str()?,
                addr: CellAddr::new(r.u32()?, r.u32()?),
            },
            4 => Request::ApplyEdit {
                sheet: r.str()?,
                edit: Edit::decode(&mut r)?,
            },
            5 => Request::StageEdit {
                sheet: r.str()?,
                edit: Edit::decode(&mut r)?,
            },
            6 => Request::AwaitCommit {
                sheet: r.str()?,
                ticket: r.u64()?,
            },
            7 => {
                let sheet = r.str()?;
                let top_left = CellAddr::new(r.u32()?, r.u32()?);
                let width = r.u32()?;
                let row_count = r.u32()? as usize;
                let mut rows = Vec::with_capacity(row_count.min(1 << 16));
                for _ in 0..row_count {
                    let n = r.u32()? as usize;
                    let mut row = Vec::with_capacity(n.min(1 << 16));
                    for _ in 0..n {
                        row.push(read_value(&mut r)?);
                    }
                    rows.push(row);
                }
                Request::ImportRows {
                    sheet,
                    top_left,
                    width,
                    rows,
                }
            }
            8 => Request::Checkpoint { sheet: r.str()? },
            9 => Request::Stats { sheet: r.str()? },
            10 => Request::Ping,
            11 => Request::DurableTicket { sheet: r.str()? },
            12 => Request::Metrics,
            t => return Err(corrupt(format!("unknown request tag {t}"))),
        };
        r.expect_done("request")?;
        Ok((req_id, req))
    }
}

/// One session-API response, tagged with the request id it answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Hello {
        version: u16,
    },
    /// `open_sheet` / `await_commit` success.
    Ok,
    Window(WindowPatch),
    Value(CellValue),
    Receipt(EditReceipt),
    Imported(Rect),
    /// `None` on in-memory workspaces (nothing to checkpoint).
    Checkpoint(Option<CheckpointSummary>),
    Stats(SheetStats),
    Pong,
    Err(WireError),
    /// `DurableTicket` answer, both values frozen when the sheet's
    /// directory was last opened: `incarnation` strictly increases
    /// across server restarts (so a client can tell a restart from a
    /// dropped connection), and `horizon` is the highest pre-restart
    /// commit ticket the disk proved durable — staged edits with tickets
    /// above it were lost and must be re-staged. Both 0 on in-memory
    /// workspaces.
    Ticket {
        incarnation: u64,
        horizon: u64,
    },
    /// Whole-workspace metrics snapshot ([`Request::Metrics`] answer),
    /// carried in the canonical validated encoding of
    /// [`crate::metrics`].
    Metrics(RegistrySnapshot),
}

impl Response {
    /// Encode as a frame payload: request id, tag, body.
    pub fn encode(&self, req_id: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, req_id);
        match self {
            Response::Hello { version } => {
                put_u8(&mut out, 0);
                put_u16(&mut out, *version);
            }
            Response::Ok => put_u8(&mut out, 1),
            Response::Window(patch) => {
                put_u8(&mut out, 2);
                patch.encode(&mut out);
            }
            Response::Value(v) => {
                put_u8(&mut out, 3);
                put_value(&mut out, v);
            }
            Response::Receipt(receipt) => {
                put_u8(&mut out, 4);
                put_u64(&mut out, receipt.ticket);
                put_u8(&mut out, u8::from(receipt.durable));
            }
            Response::Imported(rect) => {
                put_u8(&mut out, 5);
                put_rect(&mut out, *rect);
            }
            Response::Checkpoint(summary) => {
                put_u8(&mut out, 6);
                match summary {
                    None => put_u8(&mut out, 0),
                    Some(s) => {
                        put_u8(&mut out, 1);
                        s.encode(&mut out);
                    }
                }
            }
            Response::Stats(stats) => {
                put_u8(&mut out, 7);
                stats.encode(&mut out);
            }
            Response::Pong => put_u8(&mut out, 8),
            Response::Err(e) => {
                put_u8(&mut out, 9);
                put_u16(&mut out, e.code);
                put_str(&mut out, &e.detail);
            }
            Response::Ticket {
                incarnation,
                horizon,
            } => {
                put_u8(&mut out, 10);
                put_u64(&mut out, *incarnation);
                put_u64(&mut out, *horizon);
            }
            Response::Metrics(snap) => {
                put_u8(&mut out, 11);
                encode_metrics(snap, &mut out);
            }
        }
        out
    }

    /// Decode a frame payload into `(req_id, response)`.
    pub fn decode(payload: &[u8]) -> Result<(u64, Response), StoreError> {
        let mut r = Reader::new(payload);
        let req_id = r.u64()?;
        let resp = match r.u8()? {
            0 => Response::Hello { version: r.u16()? },
            1 => Response::Ok,
            2 => Response::Window(WindowPatch::decode(&mut r)?),
            3 => Response::Value(read_value(&mut r)?),
            4 => Response::Receipt(EditReceipt {
                ticket: r.u64()?,
                durable: r.u8()? != 0,
            }),
            5 => Response::Imported(read_rect(&mut r)?),
            6 => match r.u8()? {
                0 => Response::Checkpoint(None),
                1 => Response::Checkpoint(Some(CheckpointSummary::decode(&mut r)?)),
                t => return Err(corrupt(format!("unknown checkpoint presence tag {t}"))),
            },
            7 => Response::Stats(SheetStats::decode(&mut r)?),
            8 => Response::Pong,
            9 => Response::Err(WireError {
                code: r.u16()?,
                detail: r.str()?,
            }),
            10 => Response::Ticket {
                incarnation: r.u64()?,
                horizon: r.u64()?,
            },
            11 => Response::Metrics(decode_metrics(&mut r)?),
            t => return Err(corrupt(format!("unknown response tag {t}"))),
        };
        r.expect_done("response")?;
        Ok((req_id, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_grid::Cell;

    fn roundtrip_req(req: &Request) {
        let payload = req.encode(42);
        let (id, decoded) = Request::decode(&payload).unwrap();
        assert_eq!(id, 42);
        assert_eq!(&decoded, req);
    }

    fn roundtrip_resp(resp: &Response) {
        let payload = resp.encode(7);
        let (id, decoded) = Response::decode(&payload).unwrap();
        assert_eq!(id, 7);
        assert_eq!(&decoded, resp);
    }

    #[test]
    fn request_roundtrips() {
        roundtrip_req(&Request::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_req(&Request::OpenSheet { sheet: "s".into() });
        roundtrip_req(&Request::FetchWindow {
            sheet: "s".into(),
            rect: Rect::new(0, 0, 9, 9),
        });
        roundtrip_req(&Request::Value {
            sheet: "s".into(),
            addr: CellAddr::new(3, 4),
        });
        roundtrip_req(&Request::ApplyEdit {
            sheet: "s".into(),
            edit: Edit::Set {
                row: 1,
                col: 2,
                input: "=A1".into(),
            },
        });
        roundtrip_req(&Request::StageEdit {
            sheet: "s".into(),
            edit: Edit::InsertRows { at: 0, n: 2 },
        });
        roundtrip_req(&Request::AwaitCommit {
            sheet: "s".into(),
            ticket: 99,
        });
        roundtrip_req(&Request::ImportRows {
            sheet: "s".into(),
            top_left: CellAddr::new(5, 5),
            width: 2,
            rows: vec![
                vec![CellValue::Number(1.0), CellValue::Text("a".into())],
                vec![CellValue::Bool(false), CellValue::Empty],
            ],
        });
        roundtrip_req(&Request::Checkpoint { sheet: "s".into() });
        roundtrip_req(&Request::Stats { sheet: "s".into() });
        roundtrip_req(&Request::Ping);
        roundtrip_req(&Request::DurableTicket { sheet: "s".into() });
        roundtrip_req(&Request::Metrics);
    }

    #[test]
    fn response_roundtrips() {
        roundtrip_resp(&Response::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip_resp(&Response::Ok);
        roundtrip_resp(&Response::Window(WindowPatch::from_cells(
            Rect::new(0, 0, 3, 3),
            vec![
                (CellAddr::new(0, 0), Cell::value(1.0)),
                (CellAddr::new(1, 1), Cell::formula("A1").with_value(1.0)),
            ],
        )));
        roundtrip_resp(&Response::Value(CellValue::Text("v".into())));
        roundtrip_resp(&Response::Receipt(EditReceipt {
            ticket: 12,
            durable: true,
        }));
        roundtrip_resp(&Response::Imported(Rect::new(1, 1, 4, 2)));
        roundtrip_resp(&Response::Checkpoint(None));
        roundtrip_resp(&Response::Checkpoint(Some(CheckpointSummary {
            pages_written: 3,
            regions_total: 5,
            regions_dirty: 1,
            regions_written: 1,
        })));
        let stats = SheetStats {
            filled_cells: 100,
            regions: 2,
            persistent: true,
            wal_bytes: 4096,
            health: dataspread_obs::Health::Degraded,
            degraded_cause: Some("fsync failed".into()),
            degraded_since_ms: Some(1_700_000_000_000),
            ..Default::default()
        };
        roundtrip_resp(&Response::Stats(stats));
        roundtrip_resp(&Response::Pong);
        roundtrip_resp(&Response::Err(WireError::new(3, "drain first")));
        roundtrip_resp(&Response::Ticket {
            incarnation: 3,
            horizon: 88,
        });
        let registry = dataspread_obs::MetricsRegistry::new();
        registry.counter("wal_fsyncs", &[("sheet", "s")]).add(5);
        registry
            .histogram("apply_edit_ns", &[("sheet", "s")])
            .record_ns(1_500_000);
        registry.note_op("s", "apply_edit", u64::MAX, 1, "ok");
        let mut snap = registry.snapshot();
        snap.sheets.push(dataspread_obs::SheetHealth {
            sheet: "s".into(),
            health: dataspread_obs::Health::Healthy,
            cause: None,
            since_ms: None,
        });
        roundtrip_resp(&Response::Metrics(snap));
    }

    #[test]
    fn stats_decoder_skips_unknown_fields() {
        // A future server appends a field this decoder has no id for, or an
        // older one still sends the retired cache counters (ids 19/20);
        // the known fields still land and the rest is dropped.
        let stats = SheetStats {
            filled_cells: 7,
            ..Default::default()
        };
        let mut body = Vec::new();
        stats.encode(&mut body);
        let count = u32::from_le_bytes(body[..4].try_into().unwrap());
        let future: &[(u16, &[u8])] = &[(999, &[1, 2, 3, 4])];
        let older: &[(u16, &[u8])] = &[(19, &10u64.to_le_bytes()), (20, &3u64.to_le_bytes())];
        for extra in [future, older] {
            // Splice the extra fields in front and bump the count.
            let mut spliced = Vec::new();
            put_u32(&mut spliced, count + extra.len() as u32);
            for (id, payload) in extra {
                put_u16(&mut spliced, *id);
                put_u32(&mut spliced, payload.len() as u32);
                spliced.extend_from_slice(payload);
            }
            spliced.extend_from_slice(&body[4..]);
            let mut r = Reader::new(&spliced);
            let decoded = SheetStats::decode(&mut r).unwrap();
            r.expect_done("stats").unwrap();
            assert_eq!(decoded, stats);
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping.encode(1)).unwrap();
        write_frame(
            &mut buf,
            &Request::OpenSheet { sheet: "x".into() }.encode(2),
        )
        .unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let p1 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(Request::decode(&p1).unwrap(), (1, Request::Ping));
        let p2 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(
            Request::decode(&p2).unwrap(),
            (2, Request::OpenSheet { sheet: "x".into() })
        );
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        // Oversized declared length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Zero length.
        let err = read_frame(&mut std::io::Cursor::new(0u32.to_le_bytes().to_vec())).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // Truncated mid-payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

        // Truncated mid-length-prefix is *not* a clean EOF.
        let err = read_frame(&mut std::io::Cursor::new(vec![9u8, 0])).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn trailing_bytes_in_payload_are_rejected() {
        let mut payload = Request::Ping.encode(1);
        payload.push(0);
        assert!(Request::decode(&payload).is_err());
        let mut payload = Response::Ok.encode(1);
        payload.push(0);
        assert!(Response::decode(&payload).is_err());
    }
}
