//! Property tests for the columnar region codec: arbitrary cell grids
//! must survive `build → to_bytes → from_bytes` with exact cell
//! equality, and the encoding must be *canonical* — re-encoding a decoded
//! translator reproduces the bytes (checkpoint determinism rests on it).
//!
//! The value strategy deliberately over-weights the encodings' edge
//! cases: bit-packable integers (including the min/width extremes),
//! `-0.0` (excluded from packing), repeated dictionary texts (RLE codes),
//! long same-value stretches, every error code, and formula-only cells.

use proptest::prelude::*;

use dataspread_engine::{ColumnarTranslator, Translator};
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellValue};

fn value() -> impl Strategy<Value = CellValue> {
    prop_oneof![
        3 => Just(CellValue::Empty).boxed(),
        // Packable integers of various widths, plus the 9e15 cliff.
        3 => (-9_000_000_000_000_000i64..9_000_000_000_000_000)
            .prop_map(|i| CellValue::Number(i as f64))
            .boxed(),
        2 => (-100i64..100).prop_map(|i| CellValue::Number(i as f64)).boxed(),
        // Raw floats (fractions, huge magnitudes) and the -0.0 edge.
        2 => any::<i32>()
            .prop_map(|i| CellValue::Number(f64::from(i) / 7.0))
            .boxed(),
        1 => Just(CellValue::Number(-0.0)).boxed(),
        1 => Just(CellValue::Number(f64::MAX)).boxed(),
        2 => any::<bool>().prop_map(CellValue::Bool).boxed(),
        // A tiny dictionary (RLE-codable) plus free-form strings.
        3 => prop_oneof![
            Just("alpha".to_string()),
            Just("beta".to_string()),
            Just(String::new()),
            "[a-z]{0,12}".prop_map(|s| s),
        ]
        .prop_map(CellValue::Text)
        .boxed(),
        1 => (0u32..7)
            .prop_map(|i| {
                CellValue::Error(
                    [
                        CellError::Div0,
                        CellError::Value,
                        CellError::Ref,
                        CellError::Name,
                        CellError::Na,
                        CellError::Num,
                        CellError::Circular,
                    ][i as usize],
                )
            })
            .boxed(),
    ]
}

fn cell() -> impl Strategy<Value = Cell> {
    (
        value(),
        prop_oneof![
            5 => Just(None).boxed(),
            1 => "[A-Z0-9+*()]{1,10}".prop_map(Some).boxed(),
        ],
    )
        .prop_map(|(value, formula)| Cell { value, formula })
}

/// A sparse grid: extent plus raw positions (reduced modulo the extent in
/// the test body — the vendored proptest has no `prop_flat_map`).
fn grid() -> impl Strategy<Value = (u32, u32, Vec<(u32, u32, Cell)>)> {
    (
        1u32..60,
        1u32..8,
        prop::collection::vec((any::<u32>(), any::<u32>(), cell()), 0..80),
    )
}

/// The translator holding a [`grid`] sample's effective content: later
/// duplicates win, and everything is compacted into the base columns.
fn build(rows: u32, cols: u32, raw: &[(u32, u32, Cell)]) -> ColumnarTranslator {
    let mut t = ColumnarTranslator::new(rows, cols);
    for (r, c, cell) in raw {
        t.set_cell(r % rows, c % cols, cell.clone()).unwrap();
    }
    t.compact();
    t
}

fn assert_roundtrip(t: &ColumnarTranslator, ctx: &str) {
    let bytes = t.to_bytes();
    let back = ColumnarTranslator::from_bytes(&bytes)
        .unwrap_or_else(|e| panic!("{ctx}: decode failed: {e}"));
    assert_eq!(back.all_cells(), t.all_cells(), "{ctx}: cells");
    assert_eq!(back.rows(), t.rows(), "{ctx}: rows");
    assert_eq!(back.cols(), t.cols(), "{ctx}: cols");
    assert_eq!(back.to_bytes(), bytes, "{ctx}: canonical re-encode");
}

/// Every single-bit flip of one payload holding each number, code and
/// value store plus a write overlay of every value kind decodes to an
/// error or to a translator that re-encodes to exactly the flipped bytes.
#[test]
fn every_bit_flip_of_a_mixed_payload_is_refused_or_canonical() {
    let mut t = ColumnarTranslator::new(40, 6);
    for r in 0..40u32 {
        let cells = [
            Cell::value(f64::from(r % 7) - 3.0),
            Cell::value(f64::from(r) / 3.0),
            Cell::value(r % 3 == 0),
            Cell::value(["alpha", "beta"][(r / 10) as usize % 2]),
            Cell::value(format!("t{}", r % 5)),
            Cell::formula("A1+1").with_value(CellValue::Error(CellError::Na)),
        ];
        for (c, cell) in (0u32..).zip(cells) {
            t.set_cell(r, c, cell).unwrap();
        }
    }
    t.compact();
    let overlay = [
        Cell::value(true),
        Cell::value(false),
        Cell::value(2.5),
        Cell::value("ovl"),
        Cell::value(CellValue::Error(CellError::Ref)),
        Cell::formula("B2"),
    ];
    for (c, cell) in (0u32..).zip(overlay) {
        t.set_cell(c * 3 + 1, c, cell).unwrap();
    }
    t.clear_cell(2, 1).unwrap();
    let bytes = t.to_bytes();
    let mut accepted = 0;
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[i] ^= 1 << bit;
            if let Ok(back) = ColumnarTranslator::from_bytes(&mutated) {
                accepted += 1;
                assert_eq!(back.to_bytes(), mutated, "flip of bit {bit} at byte {i}");
            }
        }
    }
    assert!(accepted > 100, "{accepted} flips accepted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_grids_roundtrip((rows, cols, raw) in grid()) {
        assert_roundtrip(&build(rows, cols, &raw), "grid");
    }

    #[test]
    fn constant_heavy_columns_roundtrip(
        stretches in prop::collection::vec((cell(), 1u32..50), 1..12),
    ) {
        // Long same-value stretches: the RLE/repeat paths sparse random
        // grids rarely produce.
        let col_cells: Vec<Cell> = stretches
            .iter()
            .flat_map(|(cell, n)| std::iter::repeat_n(cell.clone(), *n as usize))
            .collect();
        let mut t = ColumnarTranslator::new(col_cells.len() as u32, 1);
        for (r, cell) in (0u32..).zip(col_cells) {
            t.set_cell(r, 0, cell).unwrap();
        }
        t.compact();
        assert_roundtrip(&t, "runs");
    }

    #[test]
    fn overlay_edits_then_compaction_keep_roundtripping(
        (rows, cols, raw) in grid(),
        edits in prop::collection::vec((0u32..60, 0u32..8, cell()), 1..30),
    ) {
        let mut t = build(rows, cols, &raw);
        for (r, c, cell) in edits {
            t.set_cell(r, c, cell).unwrap();
        }
        let before = t.all_cells();
        t.compact();
        prop_assert_eq!(t.all_cells(), before, "compaction changes nothing");
        assert_roundtrip(&t, "after-compaction");
    }

    #[test]
    fn truncated_or_bitflipped_payloads_never_panic(
        (rows, cols, raw) in grid(),
        cut in 0usize..4096,
        flip in 0usize..4096,
    ) {
        let t = build(rows, cols, &raw);
        let bytes = t.to_bytes();
        // Truncation at any point must error or (vacuously) succeed with
        // equal content — never panic.
        let cut = cut.min(bytes.len());
        if let Ok(back) = ColumnarTranslator::from_bytes(&bytes[..cut]) {
            prop_assert_eq!(back.all_cells(), t.all_cells());
        }
        // A single bit flip must decode to an error or to a translator that
        // re-encodes to exactly the flipped bytes: an accepted payload has
        // one byte form.
        let mut mutated = bytes.clone();
        if !mutated.is_empty() {
            let i = flip % mutated.len();
            mutated[i] ^= 1 << (flip % 8);
            if let Ok(back) = ColumnarTranslator::from_bytes(&mutated) {
                prop_assert_eq!(back.to_bytes(), mutated, "flip of bit {} at byte {}", flip % 8, i);
                let _ = back.all_cells();
            }
        }
    }
}
