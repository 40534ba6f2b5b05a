//! Golden bytes for the grid encodings in `dataspread_grid::codec`: every
//! value kind and a rect, pinned to the exact bytes the wire and the WAL
//! wrote before their two hand-written copies were folded into this one
//! (the hex was generated at that commit, through the wire's
//! `Response::Value` and `Response::Imported`), and an import's cell block.

use dataspread_grid::codec::{
    encode_block, put_rect, put_value, read_rect, read_value, visit_block, Reader,
};
use dataspread_grid::{CellError, CellValue, DecodeError, Rect, ScanValue};

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

/// An import's rows as a cell block, pinned when the WAL's and the wire's
/// imports moved to it from tagged rows (WAL format 4, protocol 4). Byte
/// groups: 2 stored rows; row 0 dense with 3 cells from col 0 — Float at
/// scale 1 zigzag 15 (1.5), Text literal "a", True; row gap 1 (row 1 is
/// empty), dense with 2 cells from col 1 — the leading `Empty` is not
/// stored — Error #N/A, raw Float -0.0. The row count travels beside the
/// block: a rect one row shorter cannot hold row 2.
#[test]
fn an_import_block_encodes_to_the_pinned_bytes() {
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
    let bytes = encode_block(3, &rows);
    assert_eq!(
        hex(&bytes),
        concat!(
            "02",
            "000700",
            "121e",
            "030161",
            "05",
            "010501",
            "0604",
            "020000000000000080"
        )
    );
    let mut cells = Vec::new();
    visit_block(&bytes, 3, 3, |row, col, value| {
        cells.push((row, col, value.to_value()));
        Ok::<_, DecodeError>(())
    })
    .unwrap();
    let mut want = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        for (c, v) in row.iter().enumerate() {
            if !v.is_empty() {
                want.push((r as u32, c as u32, v.clone()));
            }
        }
    }
    assert_eq!(cells, want);
    assert!(visit_block(&bytes, 2, 3, |_, _, _| Ok::<_, DecodeError>(())).is_err());
}
