//! Property tests for the columnar region codec: arbitrary cell grids
//! must survive `build → to_bytes → from_bytes` with exact cell
//! equality, and the encoding must be *canonical* — re-encoding a decoded
//! translator reproduces the bytes (checkpoint determinism rests on it).
//!
//! The value strategy deliberately over-weights the encodings' edge
//! cases: bit-packable integers (including the min/width extremes),
//! `-0.0` (excluded from packing), repeated dictionary texts (RLE codes),
//! long same-value stretches, every error code, and formula-only cells.
//!
//! The rewrites stay in that one form too: with edits still in the write
//! overlay, after `compact()` and after `delete_rows` a region encodes to
//! exactly the bytes of a region built fresh from its cells. The decoder
//! does not check dictionary order, so only these byte comparisons pin it.

use proptest::prelude::*;

use dataspread_engine::hybrid::build_translator;
use dataspread_engine::{ColumnarTranslator, ModelKind, Translator};
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellValue};

fn value() -> impl Strategy<Value = CellValue> {
    prop_oneof![
        3 => Just(CellValue::Empty).boxed(),
        // Packable integers of various widths, up to near 2^53.
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

/// The bytes of a region built fresh from `t`'s cells at `t`'s extent.
fn fresh_bytes(t: &ColumnarTranslator) -> Vec<u8> {
    build_translator(ModelKind::Columnar, t.rows(), t.cols(), t.all_cells())
        .unwrap()
        .encoded_image()
        .unwrap()
}

fn assert_roundtrip(t: &mut ColumnarTranslator, ctx: &str) {
    let bytes = t.to_bytes();
    let mut back = ColumnarTranslator::from_bytes(&bytes)
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
            if let Ok(mut back) = ColumnarTranslator::from_bytes(&mutated) {
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
        assert_roundtrip(&mut build(rows, cols, &raw), "grid");
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
        assert_roundtrip(&mut t, "runs");
    }

    #[test]
    fn overlay_edits_then_compaction_keep_roundtripping(
        (rows, cols, raw) in grid(),
        edits in prop::collection::vec((0u32..60, 0u32..8, cell(), any::<bool>()), 1..30),
    ) {
        // Set and clear edits leave blank "tombstone" and formula entries
        // in the overlay; none of them reaches the bytes.
        let mut t = build(rows, cols, &raw);
        for (r, c, cell, clear) in edits {
            if clear {
                t.clear_cell(r, c).unwrap();
            } else {
                t.set_cell(r, c, cell).unwrap();
            }
        }
        prop_assert_eq!(t.to_bytes(), fresh_bytes(&t), "the overlay writes the fresh-build form");
        assert_roundtrip(&mut t, "before-compaction");
        let before = t.all_cells();
        t.compact();
        prop_assert_eq!(t.all_cells(), before, "compaction changes nothing");
        prop_assert_eq!(t.to_bytes(), fresh_bytes(&t), "compaction writes the fresh-build form");
        assert_roundtrip(&mut t, "after-compaction");
    }

    #[test]
    fn row_deletes_rewrite_into_the_fresh_build_form(
        (rows, cols, raw) in grid(),
        edits in prop::collection::vec((0u32..60, 0u32..8, cell(), any::<bool>()), 0..30),
        (at, n) in (any::<u32>(), 1u32..8),
    ) {
        // Set and clear edits leave overlay entries over base cells, over
        // blanks and past the extent; the delete folds them in.
        let mut t = build(rows, cols, &raw);
        for (r, c, cell, clear) in edits {
            if clear {
                t.clear_cell(r, c).unwrap();
            } else {
                t.set_cell(r, c, cell).unwrap();
            }
        }
        let at = at % t.rows();
        let end = at.saturating_add(n).min(t.rows());
        let want: Vec<_> = t
            .all_cells()
            .into_iter()
            .filter(|(a, _)| a.row < at || a.row >= end)
            .map(|(mut a, cell)| {
                if a.row >= end {
                    a.row -= end - at;
                }
                (a, cell)
            })
            .collect();
        let rows_before = t.rows();
        t.delete_rows(at, n).unwrap();
        prop_assert_eq!(t.rows(), rows_before - (end - at));
        let fresh = ColumnarTranslator::from_bytes(&fresh_bytes(&t)).unwrap();
        prop_assert_eq!(t.resident_bytes(), fresh.resident_bytes(), "the delete folds the overlay in");
        prop_assert_eq!(t.all_cells(), want, "rows below the band move up");
        prop_assert_eq!(t.to_bytes(), fresh_bytes(&t), "the delete writes the fresh-build form");
        assert_roundtrip(&mut t, "after-delete");
    }

    #[test]
    fn truncated_or_bitflipped_payloads_never_panic(
        (rows, cols, raw) in grid(),
        cut in 0usize..4096,
        flip in 0usize..4096,
    ) {
        let mut t = build(rows, cols, &raw);
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
            if let Ok(mut back) = ColumnarTranslator::from_bytes(&mutated) {
                prop_assert_eq!(back.to_bytes(), mutated, "flip of bit {} at byte {}", flip % 8, i);
                let _ = back.all_cells();
            }
        }
    }
}

/// A one-column payload of `rows` cells of run tag `tag`, its number store
/// spelled by `nums` (variant byte first), its dictionary by `dict` and
/// its code store by `codes` (variant byte first); no bools, errors or
/// formulas.
fn one_column(rows: u32, tag: u8, nums: &[u8], dict: &[&str], codes: &[u8]) -> Vec<u8> {
    let mut out = vec![3]; // encoding version
    out.extend(rows.to_le_bytes());
    out.extend(1u32.to_le_bytes()); // one column
    out.extend(1u32.to_le_bytes()); // one run
    out.push(tag);
    out.extend(rows.to_le_bytes());
    out.extend_from_slice(nums);
    out.extend(0u32.to_le_bytes()); // no bools
    out.extend((dict.len() as u32).to_le_bytes());
    for s in dict {
        out.extend((s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(codes);
    out.extend(0u32.to_le_bytes()); // no errors
    out.push(0); // a formula block of no rows
    out
}

/// `vals`, each in its low `bits`, packed back to back.
fn words(vals: &[u64], bits: u32) -> Vec<u64> {
    let mut words = vec![0u64; (vals.len() * bits as usize).div_ceil(64)];
    for (i, &v) in vals.iter().enumerate() {
        let bit = i * bits as usize;
        words[bit / 64] |= v << (bit % 64);
        if bit % 64 + bits as usize > 64 {
            words[bit / 64 + 1] |= v >> (64 - bit % 64);
        }
    }
    words
}

/// A column of `rows` numbers stored as `nums`.
fn numbers(rows: u32, nums: &[u8]) -> Vec<u8> {
    one_column(rows, 1, nums, &[], &raw_store(&[]))
}

/// A column of `rows` texts from the dictionary `["a", "b"]`, their codes
/// stored as `codes`, and no numbers stored as `nums`.
fn texts(rows: u32, nums: &[u8], codes: &[u8]) -> Vec<u8> {
    one_column(rows, 3, nums, &["a", "b"], codes)
}

fn packed_codes(bits: u8, len: u32, words: &[u64]) -> Vec<u8> {
    let mut out = vec![2, bits];
    out.extend(len.to_le_bytes());
    for w in words {
        out.extend(w.to_le_bytes());
    }
    out
}

fn rle_codes(runs: &[(u32, u32)]) -> Vec<u8> {
    let mut out = vec![1];
    out.extend((runs.len() as u32).to_le_bytes());
    for (code, len) in runs {
        out.extend(code.to_le_bytes());
        out.extend(len.to_le_bytes());
    }
    out
}

fn plain_codes(codes: &[u32]) -> Vec<u8> {
    let mut out = vec![0];
    out.extend((codes.len() as u32).to_le_bytes());
    for c in codes {
        out.extend(c.to_le_bytes());
    }
    out
}

fn raw_store(vals: &[f64]) -> Vec<u8> {
    let mut out = vec![0];
    out.extend((vals.len() as u32).to_le_bytes());
    for v in vals {
        out.extend(v.to_le_bytes());
    }
    out
}

fn packed_store(min: i64, scale: u8, bits: u8, len: u32, words: &[u64]) -> Vec<u8> {
    let mut out = vec![1];
    out.extend(min.to_le_bytes());
    out.push(scale);
    out.push(bits);
    out.extend(len.to_le_bytes());
    for w in words {
        out.extend(w.to_le_bytes());
    }
    out
}

fn one_number_column(vals: &[f64]) -> ColumnarTranslator {
    let mut t = ColumnarTranslator::new(vals.len() as u32, 1);
    for (r, &v) in (0u32..).zip(vals) {
        t.set_cell(r, 0, Cell::value(v)).unwrap();
    }
    t.compact();
    t
}

/// `from_bytes` accepts a number store only if building the same values
/// writes it: a `min` whose offsets overflow, raw doubles that would
/// pack, a width wider than the span needs, bits set past `len × bits`, a
/// scale that is not the smallest and a `min` below every value are all
/// refused, without a panic.
#[test]
fn a_number_store_build_would_not_write_is_refused() {
    let ints: Vec<f64> = (0..8).map(|r| f64::from(r % 7) - 3.0).collect();
    let mut t = one_number_column(&ints);
    let bytes = t.to_bytes();
    // The hand-built spelling of the same column is byte-identical.
    let offsets: Vec<u64> = (0..8).map(|r| r % 7).collect();
    assert_eq!(
        numbers(8, &packed_store(-3, 0, 3, 8, &words(&offsets, 3))),
        bytes
    );

    // `min` overwritten with i64::MAX - 2: its offsets up to 6 overflow.
    let at = bytes
        .windows(8)
        .position(|w| w == (-3i64).to_le_bytes())
        .unwrap();
    let mut overflowing = bytes.clone();
    overflowing[at..at + 8].copy_from_slice(&(i64::MAX - 2).to_le_bytes());
    // Raw doubles that are not integers, overwritten with integers.
    let thirds: Vec<f64> = (1..5).map(|i| f64::from(i) / 3.0).collect();
    let raw = one_number_column(&thirds).to_bytes();
    assert_eq!(numbers(4, &raw_store(&thirds)), raw);
    let mut integral = raw.clone();
    for (i, v) in thirds.iter().enumerate() {
        let at = raw.windows(8).position(|w| w == v.to_le_bytes()).unwrap();
        integral[at..at + 8].copy_from_slice(&(i as f64).to_le_bytes());
    }
    let tenths: Vec<u64> = offsets.iter().map(|o| o * 10).collect();
    let below: Vec<u64> = offsets.iter().map(|o| o + 1).collect();
    let mut padded = words(&offsets, 3);
    padded[0] |= 1 << 24;
    let cases = [
        ("min + offset overflows", overflowing),
        ("raw store of integers", integral),
        (
            "raw store of decimals",
            numbers(4, &raw_store(&[0.5, 1.5, 2.5, 3.5])),
        ),
        (
            "width wider than the span",
            numbers(8, &packed_store(-3, 0, 4, 8, &words(&offsets, 4))),
        ),
        (
            "bits past len x bits",
            numbers(8, &packed_store(-3, 0, 3, 8, &padded)),
        ),
        (
            "scale not the smallest",
            numbers(8, &packed_store(-30, 1, 6, 8, &words(&tenths, 6))),
        ),
        (
            "min below every value",
            numbers(8, &packed_store(-4, 0, 3, 8, &words(&below, 3))),
        ),
        (
            "scale past 15",
            numbers(8, &packed_store(-3, 16, 3, 8, &words(&offsets, 3))),
        ),
        (
            "packed store of no values",
            texts(
                4,
                &packed_store(0, 0, 0, 0, &[]),
                &packed_codes(1, 4, &[0b1010]),
            ),
        ),
    ];
    for (what, payload) in &cases {
        assert!(
            ColumnarTranslator::from_bytes(payload).is_err(),
            "{what}: accepted"
        );
    }

    // Decimals pack at their smallest common scale and read back exactly.
    for vals in [
        (0..8)
            .map(|r| f64::from(r % 7 - 3) / 10.0)
            .collect::<Vec<_>>(),
        vec![0.5, 1.25, -2.0, 1e-3],
        vec![7.0; 5],
    ] {
        let mut t = one_number_column(&vals);
        let mut back = ColumnarTranslator::from_bytes(&t.to_bytes()).unwrap();
        let cells: Vec<u64> = back
            .all_cells()
            .iter()
            .map(|(_, c)| match c.value {
                CellValue::Number(n) => n.to_bits(),
                ref v => panic!("{v:?}"),
            })
            .collect();
        assert_eq!(cells, vals.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        assert_eq!(back.to_bytes(), t.to_bytes());
    }
    let scaled = |vals: &[f64]| one_number_column(vals).to_bytes();
    let offsets = [2500u64, 3250, 0, 2001];
    assert_eq!(
        scaled(&[0.5, 1.25, -2.0, 1e-3]),
        numbers(4, &packed_store(-2000, 3, 12, 4, &words(&offsets, 12)))
    );
}

/// The same rule for dictionary codes: plain codes that would pack, a
/// packed store wider than its largest code or with bits set past its
/// codes, RLE runs where packing is no larger, and RLE runs splitting one
/// code's run are all refused.
#[test]
fn a_code_store_build_would_not_write_is_refused() {
    let built = |codes: &[usize]| {
        let mut t = ColumnarTranslator::new(codes.len() as u32, 1);
        for (r, &c) in (0u32..).zip(codes) {
            t.set_cell(r, 0, Cell::value(["a", "b"][c])).unwrap();
        }
        t.compact();
        t.to_bytes()
    };
    let column = |rows: u32, codes: &[u8]| texts(rows, &raw_store(&[]), codes);
    // Alternating codes pack in 1 bit; two long runs are RLE.
    assert_eq!(
        column(4, &packed_codes(1, 4, &[0b1010])),
        built(&[0, 1, 0, 1])
    );
    let halves: Vec<usize> = (0..200).map(|r| r / 100).collect();
    assert_eq!(
        column(200, &rle_codes(&[(0, 100), (1, 100)])),
        built(&halves)
    );

    let cases = [
        (
            "plain codes that pack",
            column(4, &plain_codes(&[0, 1, 0, 1])),
        ),
        (
            "packed 2 bits wide",
            column(4, &packed_codes(2, 4, &[0b01_00_01_00])),
        ),
        (
            "packed with a bit past its codes",
            column(4, &packed_codes(1, 4, &[0b1_1010])),
        ),
        (
            "RLE where packing is smaller",
            column(4, &rle_codes(&[(0, 1), (1, 1), (0, 1), (1, 1)])),
        ),
        (
            "RLE splitting a run",
            column(200, &rle_codes(&[(0, 50), (0, 50), (1, 100)])),
        ),
    ];
    for (what, payload) in &cases {
        assert!(
            ColumnarTranslator::from_bytes(payload).is_err(),
            "{what}: accepted"
        );
    }
}

/// A run count is bounded only by the row count, so a 13-byte payload of
/// `u32::MAX` rows in one column announcing `u32::MAX` runs used to
/// reserve room for all of them (64 GiB) and abort the process. It is
/// refused as truncated, as every other count past the payload is.
#[test]
fn a_run_count_past_the_payload_is_refused() {
    let mut payload = vec![3]; // encoding version
    payload.extend(u32::MAX.to_le_bytes()); // rows
    payload.extend(1u32.to_le_bytes()); // one column
    payload.extend(u32::MAX.to_le_bytes()); // runs
    assert_eq!(payload.len(), 13);
    assert!(ColumnarTranslator::from_bytes(&payload).is_err());
}

/// Formula sources ride the image's cell payload at the end of the
/// columnar payload: a 1 000-row fill-down `=B{r}*2` is one literal
/// source, and every other row is the code of its relative template.
#[test]
fn a_fill_down_formula_column_is_written_once() {
    let mut t = ColumnarTranslator::new(1000, 3);
    for r in 0..1000u32 {
        t.set_cell(r, 1, Cell::value(f64::from(r))).unwrap();
        let src = format!("B{}*2", r + 1);
        t.set_cell(
            r,
            2,
            Cell::formula(&src).with_value(CellValue::Number(f64::from(2 * r))),
        )
        .unwrap();
    }
    t.compact();
    let bytes = t.to_bytes();
    let count = |needle: &[u8]| bytes.windows(needle.len()).filter(|w| *w == needle).count();
    assert_eq!(count(b"B1*2"), 1, "the first source is the one literal");
    assert_eq!(count(b"*2"), 1, "no other row spells its source");
    let back = ColumnarTranslator::from_bytes(&bytes).unwrap();
    assert_eq!(back.all_cells(), t.all_cells());
    assert_eq!(
        back.get_cell(999, 2).unwrap().formula.as_deref(),
        Some("B1000*2")
    );
}

/// The formula block holds sources and nothing else: a formula cell that
/// carries a value, a cell without a source and a cell outside the region
/// are refused.
#[test]
fn a_formula_block_cell_with_a_value_or_outside_the_region_is_refused() {
    use dataspread_engine::durable::PayloadEncoder;
    use dataspread_engine::ScanValue;
    let columns = one_column(4, 0, &raw_store(&[]), &[], &plain_codes(&[]));
    let with_block = |cells: &[(u32, u32, ScanValue<'_>, Option<&str>)]| {
        let mut block = PayloadEncoder::default();
        for &(row, col, value, formula) in cells {
            block.push(row, col, value, formula);
        }
        [&columns[..columns.len() - 1], &block.finish()].concat()
    };
    let back =
        ColumnarTranslator::from_bytes(&with_block(&[(3, 0, ScanValue::Empty, Some("1+1"))]))
            .unwrap();
    assert_eq!(back.get_cell(3, 0), Some(Cell::formula("1+1")));
    let cases = [
        (
            "a value",
            with_block(&[(1, 0, ScanValue::Number(2.0), Some("1+1"))]),
        ),
        (
            "no source",
            with_block(&[(1, 0, ScanValue::Number(2.0), None)]),
        ),
        (
            "past the rows",
            with_block(&[(4, 0, ScanValue::Empty, Some("1+1"))]),
        ),
        (
            "past the columns",
            with_block(&[(0, 1, ScanValue::Empty, Some("1+1"))]),
        ),
    ];
    for (what, payload) in &cases {
        assert!(
            ColumnarTranslator::from_bytes(payload).is_err(),
            "{what}: accepted"
        );
    }
}
