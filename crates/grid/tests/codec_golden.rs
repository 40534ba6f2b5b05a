//! Golden bytes for the grid encodings in `dataspread_grid::codec`: every
//! value kind, a rect and a rows block, pinned to the exact bytes the wire
//! and the WAL wrote before their two hand-written copies were folded into
//! this one (the hex was generated at that commit, through the wire's
//! `Response::Value`, `Response::Imported` and `Request::ImportRows`).

use dataspread_grid::codec::{
    put_rect, put_rows, put_value, read_rect, read_rows, read_value, Reader,
};
use dataspread_grid::{CellError, CellValue, Rect, ScanValue};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_value_kind_encodes_to_the_pinned_bytes() {
    let cases: [(ScanValue<'_>, &str); 12] = [
        (ScanValue::Empty, "00"),
        (ScanValue::Number(-2.5), "0100000000000004c0"),
        (ScanValue::Number(0.0), "010000000000000000"),
        (ScanValue::Text("héllo"), "020600000068c3a96c6c6f"),
        (ScanValue::Text(""), "0200000000"),
        (ScanValue::Bool(false), "0300"),
        (ScanValue::Bool(true), "0301"),
        (ScanValue::Error(CellError::Div0), "0400"),
        (ScanValue::Error(CellError::Value), "0401"),
        (ScanValue::Error(CellError::Ref), "0402"),
        (ScanValue::Error(CellError::Na), "0404"),
        (ScanValue::Error(CellError::Circular), "0406"),
    ];
    for (value, want) in cases {
        let mut bytes = Vec::new();
        put_value(&mut bytes, value);
        assert_eq!(hex(&bytes), want, "{value:?}");
        let mut r = Reader::new(&bytes);
        assert_eq!(read_value(&mut r).unwrap(), value);
        r.expect_done("value").unwrap();
    }
}

#[test]
fn a_rect_encodes_to_the_pinned_bytes() {
    let rect = Rect::new(1, 2, 0xDEAD_BEEF, u32::MAX);
    let mut bytes = Vec::new();
    put_rect(&mut bytes, rect);
    assert_eq!(hex(&bytes), "0100000002000000efbeaddeffffffff");
    assert_eq!(read_rect(&mut Reader::new(&bytes)).unwrap(), rect);
}

#[test]
fn a_rows_block_encodes_to_the_pinned_bytes() {
    let rows = vec![
        vec![
            CellValue::Number(1.5),
            CellValue::Text("a".into()),
            CellValue::Bool(true),
        ],
        Vec::new(),
        vec![
            CellValue::Empty,
            CellValue::Error(CellError::Na),
            CellValue::Number(-0.0),
        ],
    ];
    let mut bytes = Vec::new();
    put_rows(&mut bytes, &rows);
    assert_eq!(
        hex(&bytes),
        "030000000300000001000000000000f83f02010000006103010000000003000000000404010000000000000080"
    );
    let mut r = Reader::new(&bytes);
    assert_eq!(read_rows(&mut r).unwrap(), rows);
    r.expect_done("rows").unwrap();
}
