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

use dataspread_grid::codec::{
    corrupt, put_rect, put_str, put_u16, put_u32, put_u64, put_u8, put_value, read_rect,
    read_value, Reader,
};
use dataspread_grid::{CellAddr, CellValue, DecodeError, Rect, ScanValue};
use dataspread_obs::RegistrySnapshot;

use crate::metrics::{decode_metrics, encode_metrics};
use crate::patch::WindowPatch;
use crate::types::{CheckpointSummary, Edit, EditReceipt, WireError};

/// Bumped on any incompatible change; the hello handshake rejects
/// mismatches before any other request is processed. Version 2 added
/// `Metrics`; version 3 retired `Stats` (request tag 9, response tag 7),
/// whose numbers a client now projects out of the metrics snapshot with
/// [`SheetStats::from_snapshot`](crate::SheetStats::from_snapshot);
/// version 4 sends an import's cells as a cell block, and version 5 a
/// window's cells.
pub const PROTOCOL_VERSION: u16 = 5;

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
/// one-to-one, `stats` aside (a projection of the `Metrics` answer);
/// `Hello` and `Ping` are connection plumbing.
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
    /// An import `rows` x `width` at `top_left`, its cells one
    /// [`encode_block`](dataspread_grid::codec::encode_block) cell block
    /// behind a `u32` length, framed here and verified by the engine.
    ImportRows {
        sheet: String,
        top_left: CellAddr,
        width: u32,
        rows: u32,
        block: Vec<u8>,
    },
    Checkpoint {
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
                block,
            } => {
                put_u8(&mut out, 7);
                put_str(&mut out, sheet);
                put_u32(&mut out, top_left.row);
                put_u32(&mut out, top_left.col);
                put_u32(&mut out, *width);
                put_u32(&mut out, *rows);
                put_u32(&mut out, block.len() as u32);
                out.extend_from_slice(block);
            }
            Request::Checkpoint { sheet } => {
                put_u8(&mut out, 8);
                put_str(&mut out, sheet);
            }
            // Tag 9 is retired (the `Stats` request of version 2); never
            // reuse it.
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
    pub fn decode(payload: &[u8]) -> Result<(u64, Request), DecodeError> {
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
            7 => Request::ImportRows {
                sheet: r.str()?,
                top_left: CellAddr::new(r.u32()?, r.u32()?),
                width: r.u32()?,
                rows: r.u32()?,
                block: {
                    let len = r.u32()?;
                    r.take(len as usize)?.to_vec()
                },
            },
            8 => Request::Checkpoint { sheet: r.str()? },
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
                put_value(&mut out, ScanValue::of(v));
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
            // Tag 7 is retired (the `Stats` answer of version 2); never
            // reuse it.
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
    pub fn decode(payload: &[u8]) -> Result<(u64, Response), DecodeError> {
        let mut r = Reader::new(payload);
        let req_id = r.u64()?;
        let resp = match r.u8()? {
            0 => Response::Hello { version: r.u16()? },
            1 => Response::Ok,
            2 => Response::Window(WindowPatch::decode(&mut r)?),
            3 => Response::Value(read_value(&mut r)?.to_value()),
            4 => Response::Receipt(EditReceipt {
                ticket: r.u64()?,
                durable: r.bool()?,
            }),
            5 => Response::Imported(read_rect(&mut r)?),
            6 => match r.u8()? {
                0 => Response::Checkpoint(None),
                1 => Response::Checkpoint(Some(CheckpointSummary::decode(&mut r)?)),
                t => return Err(corrupt(format!("unknown checkpoint presence tag {t}"))),
            },
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
    use dataspread_grid::codec::encode_block;
    use dataspread_grid::{Cell, CellError};
    use dataspread_obs::{Event, Health, Histogram, SheetHealth};

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

    fn rows() -> Vec<Vec<CellValue>> {
        vec![
            vec![
                CellValue::Number(1.5),
                CellValue::Text("a".into()),
                CellValue::Bool(true),
            ],
            Vec::new(),
            vec![CellValue::Empty, CellValue::Error(CellError::Na)],
        ]
    }

    /// Repeated and distinct numbers, a repeated text and distinct texts,
    /// and bools, with an error and formulas over a number and over an
    /// empty value.
    fn patch() -> WindowPatch {
        let rect = Rect::new(10, 2, 13, 41);
        let at = |r: u32, c: u32| CellAddr::new(rect.r1 + r, rect.c1 + c);
        let mut cells = Vec::new();
        for c in 0..20 {
            cells.push((at(0, c), Cell::value(7.0)));
        }
        for c in 20..23 {
            cells.push((at(0, c), Cell::value(f64::from(c))));
        }
        for c in 0..18 {
            cells.push((at(1, c), Cell::value("apparel")));
        }
        cells.push((at(1, 18), Cell::value("x")));
        cells.push((at(1, 19), Cell::value("y")));
        cells.push((at(2, 0), Cell::value(true)));
        cells.push((at(2, 1), Cell::value(false)));
        cells.push((
            at(2, 2),
            Cell {
                value: CellValue::Error(CellError::Div0),
                formula: Some("1/0".into()),
            },
        ));
        cells.push((at(2, 3), Cell::formula("A1*2").with_value(14.0)));
        cells.push((at(3, 39), Cell::formula("ZZ9")));
        WindowPatch::from_cells(rect, cells)
    }

    fn metrics() -> RegistrySnapshot {
        let h = Histogram::new();
        h.record(1_500);
        h.record(90);
        RegistrySnapshot {
            counters: vec![("wal_fsyncs{sheet=\"s\"}".into(), 5)],
            gauges: vec![("inflight".into(), -3)],
            histograms: vec![("apply_edit_ns".into(), h.snapshot())],
            events: vec![Event {
                ts_ms: 1_700_000_000_000,
                kind: "slow_op".into(),
                sheet: "s".into(),
                op: "apply_edit".into(),
                duration_ns: 12_345,
                ticket: 9,
                outcome: "ok".into(),
            }],
            events_dropped: 2,
            sheets: vec![SheetHealth {
                sheet: "s".into(),
                health: Health::Degraded,
                cause: Some("fsync failed".into()),
                since_ms: Some(1_700_000_000_001),
            }],
        }
    }

    /// One sample of every request variant (every edit kind through
    /// `ApplyEdit`) with its frame under id `0x0102030405060708`, as hex
    /// generated before the codec moved into `dataspread-grid`; the import's
    /// was re-pinned when its rows became a cell block (protocol 4).
    fn requests() -> Vec<(&'static str, Request, &'static str)> {
        let s = || "s1".to_string();
        let edit = |edit| Request::ApplyEdit { sheet: s(), edit };
        vec![
            ("hello", Request::Hello { version: 2 }, "0807060504030201000200"),
            ("open_sheet", Request::OpenSheet { sheet: s() }, "080706050403020101020000007331"),
            (
                "fetch_window",
                Request::FetchWindow {
                    sheet: s(),
                    rect: Rect::new(3, 1, 0xFFFF_FFFE, u32::MAX),
                },
                "0807060504030201020200000073310300000001000000feffffffffffffff",
            ),
            (
                "value",
                Request::Value {
                    sheet: s(),
                    addr: CellAddr::new(7, 9),
                },
                "0807060504030201030200000073310700000009000000",
            ),
            (
                "edit_set",
                edit(Edit::Set {
                    row: 1,
                    col: 2,
                    input: "=SUM(A1:B2)".into(),
                }),
                "0807060504030201040200000073310001000000020000000b0000003d53554d2841313a423229",
            ),
            ("edit_insert_rows", edit(Edit::InsertRows { at: 4, n: 2 }), "080706050403020104020000007331010400000002000000"),
            ("edit_delete_rows", edit(Edit::DeleteRows { at: 5, n: 1 }), "080706050403020104020000007331020500000001000000"),
            ("edit_insert_cols", edit(Edit::InsertCols { at: 6, n: 3 }), "080706050403020104020000007331030600000003000000"),
            (
                "edit_delete_cols",
                edit(Edit::DeleteCols {
                    at: 7,
                    n: u32::MAX,
                }),
                "0807060504030201040200000073310407000000ffffffff",
            ),
            (
                "stage_edit",
                Request::StageEdit {
                    sheet: s(),
                    edit: Edit::Set {
                        row: 0,
                        col: 0,
                        input: "héllo".into(),
                    },
                },
                "0807060504030201050200000073310000000000000000000600000068c3a96c6c6f",
            ),
            (
                "await_commit",
                Request::AwaitCommit {
                    sheet: s(),
                    ticket: 99,
                },
                "0807060504030201060200000073316300000000000000",
            ),
            (
                "import_rows",
                Request::ImportRows {
                    sheet: s(),
                    top_left: CellAddr::new(10, 2),
                    width: 3,
                    rows: 3,
                    block: encode_block(3, &rows()),
                },
                "0807060504030201070200000073310a0000000200000003000000030000000f00000002000700121e030161050103010604",
            ),
            ("checkpoint", Request::Checkpoint { sheet: s() }, "080706050403020108020000007331"),
            ("ping", Request::Ping, "08070605040302010a"),
            ("durable_ticket", Request::DurableTicket { sheet: s() }, "08070605040302010b020000007331"),
            ("metrics", Request::Metrics, "08070605040302010c"),
        ]
    }

    /// One sample of every response variant with its frame under id 7,
    /// generated like [`requests`]; the window's was re-pinned when its
    /// cells became a cell block (protocol 5).
    fn responses() -> Vec<(&'static str, Response, &'static str)> {
        vec![
            ("hello", Response::Hello { version: 2 }, "0700000000000000000200"),
            ("ok", Response::Ok, "070000000000000001"),
            ("window", Response::Window(patch()), "0700000000000000020a000000020000000d000000290000008000000004002f00010e010e010e010e010e010e010e010e010e010e010e010e010e010e010e010e010e010e010e010e0128012a012c00290003076170706172656c1300130013001300130013001300130013001300130013001300130013001300130003017803017900090005040e0003312f30091c0441312a3200032708035a5a39"),
            ("value_empty", Response::Value(CellValue::Empty), "07000000000000000300"),
            ("value_number", Response::Value(CellValue::Number(-2.5)), "0700000000000000030100000000000004c0"),
            ("value_text", Response::Value(CellValue::Text("héllo".into())), "070000000000000003020600000068c3a96c6c6f"),
            ("value_bool", Response::Value(CellValue::Bool(false)), "0700000000000000030300"),
            (
                "value_error",
                Response::Value(CellValue::Error(CellError::Circular)),
                "0700000000000000030406",
            ),
            (
                "receipt",
                Response::Receipt(EditReceipt {
                    ticket: 12,
                    durable: true,
                }),
                "0700000000000000040c0000000000000001",
            ),
            ("imported", Response::Imported(Rect::new(1, 1, 4, 2)), "07000000000000000501000000010000000400000002000000"),
            ("checkpoint_none", Response::Checkpoint(None), "07000000000000000600"),
            (
                "checkpoint_some",
                Response::Checkpoint(Some(CheckpointSummary {
                    pages_written: 3,
                    regions_total: 5,
                    regions_dirty: 1,
                    regions_written: 1,
                })),
                "070000000000000006010300000000000000050000000000000001000000000000000100000000000000",
            ),
            ("pong", Response::Pong, "070000000000000008"),
            ("err", Response::Err(WireError::new(0x205, "bad page")), "0700000000000000090502080000006261642070616765"),
            (
                "ticket",
                Response::Ticket {
                    incarnation: 3,
                    horizon: 88,
                },
                "07000000000000000a03000000000000005800000000000000",
            ),
            ("metrics", Response::Metrics(metrics()), "07000000000000000b010000001500000077616c5f6673796e63737b73686565743d2273227d05000000000000000100000008000000696e666c69676874fdffffffffffffff010000000d0000006170706c795f656469745f6e73000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001000000000000000000000000000000000000000000000000000000000000000100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000003606000000000000dc05000000000000010000000068e5cf8b01000007000000736c6f775f6f7001000000730a0000006170706c795f6564697439300000000000000900000000000000020000006f6b020000000000000001000000010000007301010c0000006673796e63206661696c6564010168e5cf8b010000"),
        ]
    }

    #[test]
    fn request_roundtrips() {
        for (_, req, _) in requests() {
            roundtrip_req(&req);
        }
    }

    #[test]
    fn response_roundtrips() {
        for (_, resp, _) in responses() {
            roundtrip_resp(&resp);
        }
    }

    /// The codec move changed no byte on the wire: a change here is a
    /// protocol change, not a refactor. Every mismatch is reported at once.
    #[test]
    fn frames_encode_to_the_pinned_bytes() {
        let hex = |bytes: Vec<u8>| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let requests = requests()
            .into_iter()
            .map(|(name, req, want)| (name, hex(req.encode(0x0102_0304_0506_0708)), want));
        let responses = responses()
            .into_iter()
            .map(|(name, resp, want)| (name, hex(resp.encode(7)), want));
        let changed: Vec<String> = requests
            .chain(responses)
            .filter(|(_, got, want)| got != want)
            .map(|(name, got, _)| format!("{name}: \"{got}\""))
            .collect();
        assert!(changed.is_empty(), "bytes changed:\n{}", changed.join("\n"));
    }

    /// Version 3 retired `Stats`: its request tag (9) and response tag
    /// (7) decode as unknown tags, so a version 2 peer that slipped past
    /// the handshake gets a protocol error, not a misread frame.
    #[test]
    fn retired_stats_tags_are_refused() {
        // A version 2 stats request: tag 9, then the sheet name.
        let mut request = Request::Checkpoint { sheet: "s1".into() }.encode(1);
        request[8] = 9;
        assert!(Request::decode(&request).is_err());
        // A version 2 stats answer with no fields: tag 7, field count 0.
        let mut response = Response::Pong.encode(1);
        response[8] = 7;
        response.extend_from_slice(&0u32.to_le_bytes());
        assert!(Response::decode(&response).is_err());
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
