//! Property tests for the wire codecs — the metrics snapshot, and every
//! `Request`, `Response` and `WindowPatch`: arbitrary (canonical) values
//! must round-trip exactly, every strict prefix must be rejected, and a
//! single bit flip must either fail decode or yield a value that
//! re-encodes to exactly the mutated bytes (i.e. the encoding stays
//! canonical — corruption can never produce two byte strings for one
//! value). Rects are drawn from the whole `u32` range, the full sheet
//! included.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dataspread_grid::codec::{encode_block, Reader};
use dataspread_grid::{Cell, CellAddr, CellError, CellValue, DecodeError, Rect};
use dataspread_obs::{Event, Health, Histogram, HistogramSnapshot, RegistrySnapshot, SheetHealth};
use dataspread_proto::{
    decode_metrics, encode_metrics, CheckpointSummary, Edit, EditReceipt, Request, Response,
    WindowPatch, WireError,
};

fn histogram() -> impl Strategy<Value = HistogramSnapshot> {
    prop::collection::vec(any::<u64>(), 0..12).prop_map(|samples| {
        let h = Histogram::new();
        for s in samples {
            // Shift down so sums stay far from wrap (record() wraps its
            // running sum; canonical snapshots from real workloads do
            // not, and the codec only sees snapshots).
            h.record(s >> 8);
        }
        h.snapshot()
    })
}

fn metric_key() -> impl Strategy<Value = String> {
    (
        "[a-z_]{1,12}",
        prop_oneof![Just(None).boxed(), "[a-z0-9]{1,6}".prop_map(Some).boxed(),],
    )
        .prop_map(|(name, sheet)| match sheet {
            Some(s) => format!("{name}{{sheet=\"{s}\"}}"),
            None => name,
        })
}

fn event() -> impl Strategy<Value = Event> {
    (
        any::<u64>(),
        "[a-z_]{1,10}",
        "[a-z0-9]{0,8}",
        "[a-z_]{0,10}",
        any::<u64>(),
        any::<u64>(),
        "[ -~]{0,20}",
    )
        .prop_map(
            |(ts_ms, kind, sheet, op, duration_ns, ticket, outcome)| Event {
                ts_ms,
                kind,
                sheet,
                op,
                duration_ns,
                ticket,
                outcome,
            },
        )
}

fn sheet_health() -> impl Strategy<Value = SheetHealth> {
    (
        "[a-z0-9_]{1,10}",
        prop_oneof![
            Just((Health::Healthy, None, None)).boxed(),
            ("[ -~]{1,30}", any::<u64>())
                .prop_map(|(cause, ms)| (Health::Degraded, Some(cause), Some(ms)))
                .boxed(),
            "[ -~]{1,30}"
                .prop_map(|cause| (Health::Degraded, Some(cause), None))
                .boxed(),
        ],
    )
        .prop_map(|(sheet, (health, cause, since_ms))| SheetHealth {
            sheet,
            health,
            cause,
            since_ms,
        })
}

/// Sorted, deduplicated key/value sections — what `BTreeMap` iteration
/// (the only real producer) emits.
fn sorted<T: std::fmt::Debug + Clone>(pairs: Vec<(String, T)>) -> Vec<(String, T)> {
    let mut map = std::collections::BTreeMap::new();
    for (k, v) in pairs {
        map.insert(k, v);
    }
    map.into_iter().collect()
}

fn snapshot() -> impl Strategy<Value = RegistrySnapshot> {
    (
        prop::collection::vec((metric_key(), any::<u64>()), 0..8),
        prop::collection::vec((metric_key(), any::<i64>()), 0..8),
        prop::collection::vec((metric_key(), histogram()), 0..6),
        prop::collection::vec(event(), 0..6),
        any::<u64>(),
        prop::collection::vec(sheet_health(), 0..4),
    )
        .prop_map(
            |(counters, gauges, histograms, events, events_dropped, sheets)| {
                let mut by_name = std::collections::BTreeMap::new();
                for s in sheets {
                    by_name.insert(s.sheet.clone(), s);
                }
                RegistrySnapshot {
                    counters: sorted(counters),
                    gauges: sorted(gauges),
                    histograms: sorted(histograms),
                    events,
                    events_dropped,
                    sheets: by_name.into_values().collect(),
                }
            },
        )
}

fn value() -> impl Strategy<Value = CellValue> {
    prop_oneof![
        Just(CellValue::Empty),
        any::<i32>().prop_map(|n| CellValue::Number(f64::from(n) / 8.0)),
        // A small alphabet, so texts repeat as text codes.
        "[ab]{0,2}".prop_map(CellValue::Text),
        any::<bool>().prop_map(CellValue::Bool),
        (0u8..7).prop_map(|c| CellValue::Error(CellError::from_code(c).expect("assigned"))),
    ]
}

/// Any rect over the whole `u32` range: arbitrary corners, the full sheet,
/// or a small window wherever it lands.
fn rect() -> impl Strategy<Value = Rect> {
    prop_oneof![
        (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>())
            .prop_map(|(r1, c1, r2, c2)| Rect::new(r1, c1, r2, c2)),
        Just(Rect::new(0, 0, u32::MAX, u32::MAX)),
        (any::<u32>(), any::<u32>(), 0u32..40, 0u32..40)
            .prop_map(|(r, c, h, w)| { Rect::new(r, c, r.saturating_add(h), c.saturating_add(w)) }),
    ]
}

/// Stretches of one value along a row of a random window: repeated
/// values, gaps, errors and formulas (always on an empty value, so no cell
/// is blank).
fn window() -> impl Strategy<Value = WindowPatch> {
    let stretch = (any::<u64>(), any::<u64>(), 1u64..24, value(), 0u8..4);
    (rect(), prop::collection::vec(stretch, 0..10)).prop_map(|(rect, stretches)| {
        let rows = u64::from(rect.r2 - rect.r1) + 1;
        let cols = u64::from(rect.c2 - rect.c1) + 1;
        let mut cells = BTreeMap::new();
        for (r, c, len, value, formula) in stretches {
            let row = rect.r1 + (r % rows) as u32;
            let c0 = c % cols;
            for k in 0..len.min(cols - c0) {
                let formula = (formula == 0 || value.is_empty()).then(|| "A1".to_string());
                let cell = Cell {
                    value: value.clone(),
                    formula,
                };
                cells.insert(CellAddr::new(row, rect.c1 + (c0 + k) as u32), cell);
            }
        }
        WindowPatch::from_cells(rect, cells.into_iter().collect())
    })
}

fn sheet_name() -> impl Strategy<Value = String> {
    "[a-z0-9_]{1,8}"
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (any::<u32>(), any::<u32>(), "[ -~]{0,10}").prop_map(|(row, col, input)| Edit::Set {
            row,
            col,
            input
        }),
        (any::<u32>(), any::<u32>()).prop_map(|(at, n)| Edit::InsertRows { at, n }),
        (any::<u32>(), any::<u32>()).prop_map(|(at, n)| Edit::DeleteRows { at, n }),
        (any::<u32>(), any::<u32>()).prop_map(|(at, n)| Edit::InsertCols { at, n }),
        (any::<u32>(), any::<u32>()).prop_map(|(at, n)| Edit::DeleteCols { at, n }),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    let rows = prop::collection::vec(prop::collection::vec(value(), 0..5), 0..4);
    prop_oneof![
        any::<u16>().prop_map(|version| Request::Hello { version }),
        sheet_name().prop_map(|sheet| Request::OpenSheet { sheet }),
        (sheet_name(), rect()).prop_map(|(sheet, rect)| Request::FetchWindow { sheet, rect }),
        (sheet_name(), any::<u32>(), any::<u32>()).prop_map(|(sheet, row, col)| {
            Request::Value {
                sheet,
                addr: CellAddr::new(row, col),
            }
        }),
        (sheet_name(), edit()).prop_map(|(sheet, edit)| Request::ApplyEdit { sheet, edit }),
        (sheet_name(), edit()).prop_map(|(sheet, edit)| Request::StageEdit { sheet, edit }),
        (sheet_name(), any::<u64>())
            .prop_map(|(sheet, ticket)| Request::AwaitCommit { sheet, ticket }),
        (sheet_name(), any::<u32>(), any::<u32>(), any::<u32>(), rows).prop_map(
            |(sheet, row, col, width, rows)| Request::ImportRows {
                sheet,
                top_left: CellAddr::new(row, col),
                width,
                rows: rows.len() as u32,
                block: encode_block(width, &rows),
            }
        ),
        sheet_name().prop_map(|sheet| Request::Checkpoint { sheet }),
        Just(Request::Ping),
        sheet_name().prop_map(|sheet| Request::DurableTicket { sheet }),
        Just(Request::Metrics),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u16>().prop_map(|version| Response::Hello { version }),
        Just(Response::Ok),
        window().prop_map(Response::Window),
        value().prop_map(Response::Value),
        (any::<u64>(), any::<bool>())
            .prop_map(|(ticket, durable)| Response::Receipt(EditReceipt { ticket, durable })),
        rect().prop_map(Response::Imported),
        Just(Response::Checkpoint(None)),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, c, d)| {
            Response::Checkpoint(Some(CheckpointSummary {
                pages_written: a,
                regions_total: b,
                regions_dirty: c,
                regions_written: d,
            }))
        }),
        Just(Response::Pong),
        (any::<u16>(), "[ -~]{0,12}")
            .prop_map(|(code, detail)| Response::Err(WireError::new(code, detail))),
        (any::<u64>(), any::<u64>()).prop_map(|(incarnation, horizon)| Response::Ticket {
            incarnation,
            horizon
        }),
        snapshot().prop_map(Response::Metrics),
    ]
}

// --- the properties, shared by every codec -------------------------------

/// Every strict prefix of `frame` is refused (`cut` picks the length).
fn prefix_rejected<T>(
    frame: &[u8],
    cut: usize,
    decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
) -> Result<(), TestCaseError> {
    let cut = cut % frame.len().max(1);
    if cut < frame.len() {
        prop_assert!(
            decode(&frame[..cut]).is_err(),
            "strict prefix of {} bytes decoded",
            cut
        );
    }
    Ok(())
}

/// One flipped bit (`flip` picks byte and bit) either fails decode, or
/// decodes to a different-but-valid value whose canonical encoding is
/// exactly the mutated bytes — never a second byte representation of some
/// value.
fn flip_fails_or_stays_canonical<T>(
    frame: &[u8],
    flip: usize,
    decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Result<(), TestCaseError> {
    let mut mutated = frame.to_vec();
    mutated[flip % frame.len()] ^= 1 << (flip % 8);
    if let Ok(back) = decode(&mutated) {
        prop_assert_eq!(encode(&back), mutated);
    }
    Ok(())
}

fn metrics_frame(snap: &RegistrySnapshot) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_metrics(snap, &mut buf);
    buf
}

fn decode_metrics_frame(bytes: &[u8]) -> Result<RegistrySnapshot, DecodeError> {
    let mut r = Reader::new(bytes);
    let snap = decode_metrics(&mut r)?;
    r.expect_done("metrics")?;
    Ok(snap)
}

fn patch_frame(patch: &WindowPatch) -> Vec<u8> {
    let mut buf = Vec::new();
    patch.encode(&mut buf);
    buf
}

fn decode_patch_frame(bytes: &[u8]) -> Result<WindowPatch, DecodeError> {
    let mut r = Reader::new(bytes);
    let patch = WindowPatch::decode(&mut r)?;
    r.expect_done("patch")?;
    Ok(patch)
}

proptest! {
    #[test]
    fn roundtrip_exact(snap in snapshot()) {
        prop_assert_eq!(decode_metrics_frame(&metrics_frame(&snap)).unwrap(), snap);
    }

    #[test]
    fn truncation_always_rejected(snap in snapshot(), cut in 0usize..4096) {
        prefix_rejected(&metrics_frame(&snap), cut, decode_metrics_frame)?;
    }

    #[test]
    fn bit_flip_fails_or_stays_canonical(
        snap in snapshot(),
        flip in 0usize..4096,
    ) {
        flip_fails_or_stays_canonical(
            &metrics_frame(&snap),
            flip,
            decode_metrics_frame,
            metrics_frame,
        )?;
    }

    #[test]
    fn window_patches_roundtrip_reject_prefixes_and_stay_canonical(
        patch in window(),
        cut in any::<usize>(),
        flip in any::<usize>(),
    ) {
        let frame = patch_frame(&patch);
        prop_assert_eq!(decode_patch_frame(&frame).unwrap(), patch);
        prefix_rejected(&frame, cut, decode_patch_frame)?;
        flip_fails_or_stays_canonical(&frame, flip, decode_patch_frame, patch_frame)?;
    }

    #[test]
    fn requests_roundtrip_reject_prefixes_and_stay_canonical(
        req in request(),
        id in any::<u64>(),
        cut in any::<usize>(),
        flip in any::<usize>(),
    ) {
        let frame = req.encode(id);
        prop_assert_eq!(Request::decode(&frame).unwrap(), (id, req));
        prefix_rejected(&frame, cut, Request::decode)?;
        let encode = |(id, req): &(u64, Request)| req.encode(*id);
        flip_fails_or_stays_canonical(&frame, flip, Request::decode, encode)?;
    }

    #[test]
    fn responses_roundtrip_reject_prefixes_and_stay_canonical(
        resp in response(),
        id in any::<u64>(),
        cut in any::<usize>(),
        flip in any::<usize>(),
    ) {
        let frame = resp.encode(id);
        prop_assert_eq!(Response::decode(&frame).unwrap(), (id, resp));
        prefix_rejected(&frame, cut, Response::decode)?;
        let encode = |(id, resp): &(u64, Response)| resp.encode(*id);
        flip_fails_or_stays_canonical(&frame, flip, Response::decode, encode)?;
    }
}
