//! Property tests for the checkpoint cell payload: the one encoding every
//! non-columnar store (ROM, COM, RCV, a linked table's cells and the
//! catch-all) is written to the image in (`durable::PayloadEncoder`, a
//! `grid::codec` cell block plus formula sources) and read back from
//! (`durable::visit_payload`), and the same block as an import carries it
//! (`grid::codec::encode_block` / `visit_block`).
//!
//! Random sparse runs — small local coordinates as a region stores them,
//! and sheet coordinates up to `(u32::MAX, u32::MAX)` as the catch-all
//! does — carry every value kind and the numbers at the `Int`/`Float`
//! border: `-0.0`, NaN bit patterns, ±2^53 and the next doubles past it,
//! arbitrary bit patterns, long and empty texts, formulas. Each run must
//! round-trip, every accepted input must re-encode to exactly its own
//! bytes (checkpoint images are compared byte for byte), a cut at any byte
//! is refused, a flipped bit is refused or still canonical, and the
//! non-shortest forms — overlong varints, raw `Float` bodies holding
//! decimals, decimals at a scale not their smallest, `Int` bodies past
//! 2^53, a literal repeating an earlier text, a text code not yet written,
//! a modifier on a kind that takes none, a sparse row whose columns are
//! consecutive — are refused.
//!
//! Formula sources are stored relative to their cell: fill-down runs of
//! relative, `$`-absolute and mixed references, up to the last row and
//! column, write each template's source once and a code after; spellings
//! a template keeps verbatim round-trip exactly; and a literal repeating
//! an earlier template, a code not yet written and a code rendering off
//! the sheet are refused.

use std::collections::hash_map::{Entry, HashMap};

use dataspread_engine::durable::{visit_payload, PayloadEncoder};
use dataspread_engine::{EngineError, ScanValue};
use dataspread_formula::refs;
use dataspread_grid::addr::col_to_letters;
use dataspread_grid::codec::{encode_block, put_uvarint, visit_block, CellsEncoder};
use dataspread_grid::value::CellError;
use dataspread_grid::{CellAddr, CellValue, DecodeError};
use dataspread_relstore::StoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An owned cell value whose numbers compare by bit pattern, so a NaN
/// payload or the sign of `-0.0` that did not survive counts as a change.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Empty,
    Number(u64),
    Text(String),
    Bool(bool),
    Error(CellError),
}

/// `(row, col, value, formula source)`.
type Cell = (u32, u32, Value, Option<String>);

const ERRORS: [CellError; 7] = [
    CellError::Div0,
    CellError::Value,
    CellError::Ref,
    CellError::Name,
    CellError::Na,
    CellError::Num,
    CellError::Circular,
];

const TWO_53: f64 = 9_007_199_254_740_992.0;

/// Numbers on either side of the `Int`/`Float` border. 2^53 + 1 is not a
/// double; the next one past 2^53 is 2^53 + 2, which must stay a `Float`.
const EDGE_NUMBERS: [f64; 17] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    TWO_53,
    -TWO_53,
    TWO_53 + 2.0,
    -(TWO_53 + 2.0),
    0.5,
    -2.5e-300,
    f64::MAX,
    f64::MIN_POSITIVE,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    // A signalling NaN and a negative NaN with a payload.
    f64::from_bits(0x7FF0_0000_0000_0001),
    f64::from_bits(0xFFF8_0000_DEAD_BEEF),
];

fn scan_value(v: &Value) -> ScanValue<'_> {
    match v {
        Value::Empty => ScanValue::Empty,
        Value::Number(bits) => ScanValue::Number(f64::from_bits(*bits)),
        Value::Text(s) => ScanValue::Text(s),
        Value::Bool(b) => ScanValue::Bool(*b),
        Value::Error(e) => ScanValue::Error(*e),
    }
}

fn owned(v: ScanValue<'_>) -> Value {
    match v {
        ScanValue::Empty => Value::Empty,
        ScanValue::Number(n) => Value::Number(n.to_bits()),
        ScanValue::Text(s) => Value::Text(s.to_string()),
        ScanValue::Bool(b) => Value::Bool(b),
        ScanValue::Error(e) => Value::Error(e),
    }
}

fn encode(cells: &[Cell]) -> Vec<u8> {
    let mut enc = PayloadEncoder::default();
    for (row, col, value, formula) in cells {
        enc.push(*row, *col, scan_value(value), formula.as_deref());
    }
    enc.finish()
}

fn decode(bytes: &[u8]) -> Result<Vec<Cell>, EngineError> {
    let mut cells = Vec::new();
    visit_payload(bytes, |row, col, value, formula| {
        cells.push((row, col, owned(value), formula.map(str::to_string)));
        Ok(())
    })?;
    Ok(cells)
}

/// Visit `bytes` straight into a fresh encoder: `None` when refused.
fn reencode(bytes: &[u8]) -> Option<Vec<u8>> {
    let mut enc = PayloadEncoder::default();
    visit_payload(bytes, |row, col, value, formula| {
        enc.push(row, col, value, formula);
        Ok(())
    })
    .ok()?;
    Some(enc.finish())
}

fn random_number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..6) {
        0 => EDGE_NUMBERS[rng.gen_range(0..EDGE_NUMBERS.len())],
        1 => rng.gen_range(-200i64..200) as f64,
        2 => rng.gen_range(-(1i64 << 53)..=(1i64 << 53)) as f64,
        3 => f64::from_bits(rng.gen::<u64>()),
        4 => rng.gen_range(-1.0e6..1.0e6),
        _ => rng.gen_range(-1000i64..1000) as f64 / 8.0,
    }
}

/// A random value; `long` allows texts of up to 5 000 bytes.
fn random_value(rng: &mut StdRng, long: bool) -> Value {
    match rng.gen_range(0u32..10) {
        0..=3 => Value::Number(random_number(rng).to_bits()),
        4 => Value::Bool(rng.gen_bool(0.5)),
        5 | 6 => Value::Text(["", "red", "héllo", "日本", "a\0b"][rng.gen_range(0..5)].into()),
        7 if long => Value::Text("x".repeat(rng.gen_range(100..5000))),
        7 => Value::Text("y".repeat(rng.gen_range(100..140))),
        8 => Value::Error(ERRORS[rng.gen_range(0..ERRORS.len())]),
        _ => Value::Empty,
    }
}

/// A random non-blank cell value and formula: an `Empty` value always
/// carries a formula (a blank cell is never stored).
fn random_content(rng: &mut StdRng, long: bool) -> (Value, Option<String>) {
    let value = random_value(rng, long);
    let mut formula = rng
        .gen_bool(0.25)
        .then(|| ["A1+1", "", "SUM(A1:B9)", "\"é\"&C3"][rng.gen_range(0..4)].to_string());
    if value == Value::Empty && formula.is_none() {
        formula = Some("B2".into());
    }
    (value, formula)
}

/// A sparse run in a region's local coordinates: blank leading, interior
/// and trailing rows, ragged widths.
fn local_run(rng: &mut StdRng, long: bool) -> Vec<Cell> {
    let mut cells = Vec::new();
    let rows = rng.gen_range(1u32..48);
    for r in rng.gen_range(0..rows)..rows {
        if rng.gen_bool(0.3) {
            continue;
        }
        for c in 0..rng.gen_range(1u32..14) {
            if rng.gen_bool(0.6) {
                let (value, formula) = random_content(rng, long);
                cells.push((r, c, value, formula));
            }
        }
    }
    cells
}

/// A sparse run in sheet coordinates: addresses near zero, near the last
/// row and column, and anywhere, often including `(u32::MAX, u32::MAX)`.
fn sheet_run(rng: &mut StdRng, long: bool) -> Vec<Cell> {
    let mut addrs: Vec<(u32, u32)> = (0..rng.gen_range(0usize..40))
        .map(|_| (coord(rng), coord(rng)))
        .collect();
    if rng.gen_bool(0.5) {
        addrs.push((u32::MAX, u32::MAX));
    }
    addrs.sort_unstable();
    addrs.dedup();
    addrs
        .into_iter()
        .map(|(r, c)| {
            let (value, formula) = random_content(rng, long);
            (r, c, value, formula)
        })
        .collect()
}

/// A reference of a fill-down pattern: on a relative axis the offset from
/// the formula's own cell, on a `$` axis the index itself.
#[derive(Debug, Clone, Copy)]
struct PatternRef {
    row: i64,
    col: i64,
    abs_row: bool,
    abs_col: bool,
}

/// A row or column index near zero, near the last one, or anywhere.
fn coord(rng: &mut StdRng) -> u32 {
    match rng.gen_range(0u32..3) {
        0 => rng.gen_range(0u32..100),
        1 => u32::MAX - rng.gen_range(0u32..100),
        _ => rng.gen::<u32>(),
    }
}

fn random_pattern_ref(rng: &mut StdRng) -> PatternRef {
    let (abs_row, abs_col) = (rng.gen_bool(0.3), rng.gen_bool(0.3));
    PatternRef {
        row: if abs_row {
            coord(rng).into()
        } else {
            rng.gen_range(-8i64..8)
        },
        col: if abs_col {
            coord(rng).into()
        } else {
            rng.gen_range(-3i64..3)
        },
        abs_row,
        abs_col,
    }
}

/// `r` spelled in A1 notation in cell `(row, col)`, or `None` off the sheet.
fn spell(r: PatternRef, row: u32, col: u32) -> Option<String> {
    let axis =
        |abs: bool, at: u32, d: i64| u32::try_from(if abs { d } else { i64::from(at) + d }).ok();
    let (to_row, to_col) = (axis(r.abs_row, row, r.row)?, axis(r.abs_col, col, r.col)?);
    Some(format!(
        "{}{}{}{}",
        if r.abs_col { "$" } else { "" },
        col_to_letters(to_col),
        if r.abs_row { "$" } else { "" },
        u64::from(to_row) + 1
    ))
}

/// Formula shapes of a fill-down run; `{0}` and `{1}` are its references.
const SHAPES: [&str; 6] = [
    "SUM({0}:{1})",
    "{0}+{1}*2",
    "IF({0}>{1},{0},\"A1\")",
    "{0}",
    "AVERAGE({0}:{1})/LOG10({0})",
    "{0}&\"A1\"&{1}",
];

/// The source of `shape` over `refs` in cell `(row, col)`; `#REF!` when a
/// reference falls off the sheet there.
fn fill(shape: &str, refs: [PatternRef; 2], row: u32, col: u32) -> String {
    match (spell(refs[0], row, col), spell(refs[1], row, col)) {
        (Some(a), Some(b)) => shape.replace("{0}", &a).replace("{1}", &b),
        _ => "#REF!".to_string(),
    }
}

/// A fill-down (and fill-right) block of formulas from one random shape:
/// relative, `$`-absolute and mixed references, at local or sheet
/// coordinates up to the last row and column. With `variants`, some cells
/// are spelled in lowercase or with spaces and stay verbatim.
fn fill_down_run(rng: &mut StdRng, variants: bool) -> Vec<Cell> {
    let shape = SHAPES[rng.gen_range(0..SHAPES.len())];
    let refs = [random_pattern_ref(rng), random_pattern_ref(rng)];
    let (top, left) = (coord(rng), coord(rng));
    let (rows, cols) = (rng.gen_range(1u32..40), rng.gen_range(1u32..4));
    let mut cells = Vec::new();
    for row in top..=top.saturating_add(rows - 1) {
        for col in left..=left.saturating_add(cols - 1) {
            let mut src = fill(shape, refs, row, col);
            if variants && rng.gen_bool(0.15) {
                src = match rng.gen_range(0u32..3) {
                    0 => src.to_ascii_lowercase(),
                    1 => format!(" {} ", src.replace('+', " + ")),
                    _ => src.replace("1", "01"),
                };
            }
            let value = Value::Number((rng.gen_range(-1000i64..1000) as f64).to_bits());
            cells.push((row, col, value, Some(src)));
        }
    }
    cells
}

fn runs(seed: u64, long: bool) -> [Vec<Cell>; 3] {
    let mut rng = StdRng::seed_from_u64(seed);
    [
        local_run(&mut rng, long),
        sheet_run(&mut rng, long),
        fill_down_run(&mut rng, true),
    ]
}

fn refused(bytes: &[u8]) -> bool {
    matches!(
        decode(bytes),
        Err(EngineError::Store(StoreError::Corrupt(_)))
    )
}

#[test]
fn random_runs_roundtrip_and_reencode_to_themselves() {
    let mut kinds = [0usize; 5];
    for seed in 0..400u64 {
        for (which, cells) in runs(0x1A6E_C0DE + seed, true).iter().enumerate() {
            let ctx = format!("seed {seed} run {which}");
            let bytes = encode(cells);
            assert_eq!(decode(&bytes).unwrap(), *cells, "{ctx}");
            assert_eq!(reencode(&bytes).as_ref(), Some(&bytes), "{ctx}");
            for (.., value, _) in cells {
                kinds[match value {
                    Value::Empty => 0,
                    Value::Number(_) => 1,
                    Value::Text(_) => 2,
                    Value::Bool(_) => 3,
                    Value::Error(_) => 4,
                }] += 1;
            }
        }
    }
    assert!(
        kinds.iter().all(|&n| n > 100),
        "every kind drawn: {kinds:?}"
    );
    // An empty store is one byte: zero rows.
    assert_eq!(encode(&[]), [0]);
    assert_eq!(decode(&[0]).unwrap(), Vec::<Cell>::new());
}

/// Decimals at the edges of their form: `(number, tag, mantissa)`, the
/// tag carrying the scale in its high nibble.
const DECIMALS: [(f64, u8, i64); 6] = [
    (0.5, 0x12, 5),
    (-12.34, 0x22, -1234),
    (0.125, 0x32, 125),
    (1e-15, 0xF2, 1),
    (-1e-15, 0xF2, -1),
    (9_007_199_254_740.992, 0x32, 1 << 53),
];

#[test]
fn every_edge_number_keeps_its_bits_and_takes_its_one_form() {
    for n in EDGE_NUMBERS {
        let cells = [(7, 3, Value::Number(n.to_bits()), None)];
        let bytes = encode(&cells);
        assert_eq!(decode(&bytes).unwrap(), cells, "{n:e}");
        // 1 row, gap 7, a dense row of 1 cell, first column 3, then the
        // tag. Of the edge numbers only 0.5 is a decimal; the integral
        // ones are `Int`, the rest raw `Float`s.
        let integral = n.trunc() == n && n.abs() <= TWO_53 && n.to_bits() != (-0.0f64).to_bits();
        let tag = match n {
            _ if integral => 0x01,
            0.5 => 0x12,
            _ => 0x02,
        };
        assert_eq!(bytes[..5], [1, 7, 3, 3, tag], "{n:e}: tag");
    }
    for (n, tag, m) in DECIMALS {
        let cells = [(7, 3, Value::Number(n.to_bits()), None)];
        let bytes = encode(&cells);
        assert_eq!(decode(&bytes).unwrap(), cells, "{n:e}");
        assert_eq!(
            bytes,
            [&[1, 7, 3, 3, tag][..], &varint(zigzag(m))].concat(),
            "{n:e}"
        );
    }
}

#[test]
fn every_cut_is_refused_and_every_bit_flip_is_refused_or_canonical() {
    let mut accepted_flips = 0u64;
    for seed in 0..150u64 {
        for (which, mut cells) in runs(0xF11B + seed, false).into_iter().enumerate() {
            // Short runs keep the every-bit sweep cheap in debug builds; a
            // fill-down run's sources are long, and ten of its cells
            // already hold literals and codes.
            cells.truncate(if which == 2 { 10 } else { 30 });
            let bytes = encode(&cells);
            for cut in 0..bytes.len() {
                assert!(refused(&bytes[..cut]), "seed {seed}: cut at {cut} accepted");
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert!(refused(&trailing), "seed {seed}: trailing byte accepted");
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut mutated = bytes.clone();
                    mutated[i] ^= 1 << bit;
                    if let Some(again) = reencode(&mutated) {
                        accepted_flips += 1;
                        assert_eq!(again, mutated, "seed {seed}: flip of bit {bit} at byte {i}");
                    }
                }
            }
        }
    }
    // Most flips land in a value or a gap and still decode: the property
    // was exercised, not vacuously true.
    assert!(accepted_flips > 1000, "{accepted_flips} flips accepted");

    // Short random byte strings: refused or canonical, never a panic.
    let mut rng = StdRng::seed_from_u64(0xB17E);
    for _ in 0..20_000 {
        let len = rng.gen_range(0usize..24);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match rng.gen_range(0u32..4) {
                0 => rng.gen::<u8>(),
                1 => 0x80 | rng.gen_range(0u8..4),
                _ => rng.gen_range(0u8..16),
            })
            .collect();
        if let Some(again) = reencode(&bytes) {
            assert_eq!(again, bytes);
        }
    }
}

/// `v` in a non-shortest form: its shortest varint with one zero group
/// appended.
fn overlong(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, v);
    *out.last_mut().unwrap() |= 0x80;
    out.push(0);
    out
}

fn varint(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_uvarint(&mut out, v);
    out
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

#[test]
fn non_shortest_forms_are_refused() {
    // Row 5, dense from column 2: Int 7 under formula "A1", then the
    // literal Text "ab". Row 6, sparse: a reference to "ab" at column 0,
    // then 0.5 at column 2. Every varint of the payload, each spelled
    // either way.
    let payload = |overlong_at: Option<usize>| {
        let fields: [(u64, &[u8]); 13] = [
            (2, b""),         // n_rows
            (5, b""),         // row gap
            (5, b""),         // 2 cells, dense
            (2, &[0x09]),     // first column, tag Int + formula
            (zigzag(7), b""), // Int body
            (4, b"A1\x03"),   // source length << 1, source, tag Text
            (2, b"ab"),       // text length, text
            (0, b""),         // row gap
            (4, b""),         // 2 cells, sparse
            (0, &[0x13]),     // column gap, tag Text reference
            (0, b""),         // text code
            (1, &[0x12]),     // column gap, tag Float at scale 1
            (zigzag(5), b""), // mantissa
        ];
        let mut out = Vec::new();
        for (k, (v, rest)) in fields.iter().enumerate() {
            out.extend(if overlong_at == Some(k) {
                overlong(*v)
            } else {
                varint(*v)
            });
            out.extend_from_slice(rest);
        }
        out
    };
    let good = payload(None);
    assert_eq!(
        decode(&good).unwrap(),
        [
            (5, 2, Value::Number(7f64.to_bits()), Some("A1".into())),
            (5, 3, Value::Text("ab".into()), None),
            (6, 0, Value::Text("ab".into()), None),
            (6, 2, Value::Number(0.5f64.to_bits()), None),
        ]
    );
    assert_eq!(reencode(&good), Some(good));
    for k in 0..13 {
        assert!(refused(&payload(Some(k))), "overlong varint #{k} accepted");
    }

    // A raw `Float` body is refused exactly when the value has a decimal
    // form, integral or not.
    let one_number = |tag: u8, body: &[u8]| [&[1, 0, 3, 0, tag][..], body].concat();
    for n in [
        0.0, 1.0, -1.0, 42.0, TWO_53, -TWO_53, 1.0e15, 0.5, 0.1, -12.34, 1e-15,
    ] {
        assert!(
            refused(&one_number(2, &n.to_le_bytes())),
            "raw Float {n:e} accepted"
        );
    }
    for n in [
        -0.0,
        TWO_53 + 2.0,
        -(TWO_53 + 2.0),
        f64::NAN,
        f64::INFINITY,
        0.1 + 0.2,
        1e-16,
        1.0 / 3.0,
    ] {
        let bytes = one_number(2, &n.to_le_bytes());
        assert_eq!(
            decode(&bytes).unwrap(),
            [(0, 0, Value::Number(n.to_bits()), None)]
        );
    }
    // A decimal is refused at a scale that is not its smallest, and when
    // its value is integral (`Int` holds it).
    for (tag, m, why) in [
        (0x22, 50, "0.5 at scale 2"),
        (0x12, 10, "1.0 at scale 1"),
        (0x12, 0, "0.0 at scale 1"),
        (0xF2, 1_000_000_000_000_000, "1.0 at scale 15"),
        (0x12, (1 << 53) + 1, "mantissa past 2^53"),
    ] {
        assert!(
            refused(&one_number(tag, &varint(zigzag(m)))),
            "{why} accepted"
        );
    }
    for (n, tag, m) in DECIMALS {
        let bytes = one_number(tag, &varint(zigzag(m)));
        assert_eq!(
            decode(&bytes).unwrap(),
            [(0, 0, Value::Number(n.to_bits()), None)]
        );
    }
    // An `Int` body is refused past 2^53 in magnitude.
    for i in [(1i64 << 53) + 1, -(1i64 << 53) - 1, i64::MAX, i64::MIN] {
        assert!(
            refused(&one_number(1, &varint(zigzag(i)))),
            "Int {i} accepted"
        );
    }
    for i in [1i64 << 53, -(1i64 << 53)] {
        let bytes = one_number(1, &varint(zigzag(i)));
        assert_eq!(
            decode(&bytes).unwrap(),
            [(0, 0, Value::Number((i as f64).to_bits()), None)]
        );
    }
    // A nonzero modifier on any kind but `Float` and `Text`, and a `Text`
    // modifier past 1.
    for tag in [0x11, 0x21, 0x14, 0x15, 0xF5, 0x16, 0x18, 0x23, 0xF3] {
        let body: &[u8] = match tag & 7 {
            1 => &[2],
            6 => &[0],
            0 => &[2, b'1'],
            3 => &[1, b'a'],
            _ => &[],
        };
        assert!(refused(&one_number(tag, body)), "tag {tag:#04x} accepted");
        assert!(!refused(&one_number(tag & 0x0F, body)), "{tag:#04x}: body");
    }
    // Texts: a literal repeating an earlier text, in the same row or a
    // later one, and a reference to a code not yet written.
    let text = |s: &[u8]| [&[3, s.len() as u8][..], s].concat();
    let two_in_a_row = |a: &[u8], b: &[u8]| [&[1, 0, 5, 0][..], a, b].concat();
    let two_rows = |a: &[u8], b: &[u8]| [&[2, 0, 3, 0][..], a, &[0, 3, 0], b].concat();
    assert!(refused(&two_in_a_row(&text(b"a"), &text(b"a"))));
    assert!(refused(&two_rows(&text(b"a"), &text(b"a"))));
    assert!(
        refused(&two_in_a_row(&text(b"a"), &[0x13, 1])),
        "code 1 of 1"
    );
    assert!(
        refused(&two_in_a_row(&[0x13, 0], &text(b"a"))),
        "code before its literal"
    );
    for bytes in [
        two_in_a_row(&text(b"a"), &[0x13, 0]),
        two_rows(&text(b"a"), &[0x13, 0]),
        two_in_a_row(&text(b"a"), &text(b"b")),
    ] {
        assert_eq!(reencode(&bytes), Some(bytes));
    }
    // A row whose columns are consecutive is dense: its sparse form is
    // refused, a one-cell row included.
    assert!(refused(&[1, 0, 2, 4, 5]), "one cell, sparse");
    assert!(refused(&[1, 0, 4, 3, 5, 0, 5]), "columns 3, 4 sparse");
    for bytes in [vec![1, 0, 4, 3, 5, 1, 5], vec![1, 0, 5, 3, 5, 5]] {
        assert_eq!(reencode(&bytes), Some(bytes));
    }
    // A varint of eleven bytes, or one overflowing 64 bits.
    assert!(refused(&[[0x80; 10].as_slice(), &[0x01]].concat()));
    assert!(refused(&[[0xFF; 9].as_slice(), &[0x02]].concat()));
}

/// The bytes `cells`' formula sources take: `bytes` less the same payload
/// without them (every value is non-blank, so only the sources go).
fn source_bytes(cells: &[Cell], bytes: &[u8]) -> usize {
    let bare: Vec<Cell> = cells
        .iter()
        .map(|(r, c, v, _)| (*r, *c, v.clone(), None))
        .collect();
    bytes.len() - encode(&bare).len()
}

/// Every template's first source is written verbatim, each later one as
/// its code: the sources of a run cost exactly that, and a run spelled
/// canonically throughout is one template, wherever it sits.
#[test]
fn a_fill_down_run_writes_each_template_once() {
    let mut shared = 0;
    for seed in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0xF111 + seed);
        let variants = seed % 2 == 0;
        let cells = fill_down_run(&mut rng, variants);
        let ctx = format!("seed {seed}");
        let bytes = encode(&cells);
        assert_eq!(decode(&bytes).unwrap(), cells, "{ctx}");
        assert_eq!(reencode(&bytes).as_ref(), Some(&bytes), "{ctx}");
        let mut codes = HashMap::new();
        let mut want = 0;
        for (row, col, _, src) in &cells {
            let src = src.as_deref().unwrap();
            let n = codes.len() as u64;
            want += match codes.entry(refs::template(src, CellAddr::new(*row, *col))) {
                Entry::Occupied(e) => code(*e.get()).len(),
                Entry::Vacant(e) => {
                    e.insert(n);
                    lit(src).len()
                }
            };
        }
        assert_eq!(source_bytes(&cells, &bytes), want, "{ctx}");
        let canonical = !variants && cells.iter().all(|c| c.3.as_deref() != Some("#REF!"));
        if canonical {
            assert_eq!(codes.len(), 1, "{ctx}: {:?}", &cells[..2.min(cells.len())]);
            shared += 1;
        }
    }
    assert!(shared > 50, "{shared} canonical runs");
}

/// Spellings a template keeps verbatim — lowercase, a leading zero,
/// spaces, a reference inside a string, a function named like a cell,
/// `#REF!`, a source that does not lex — round-trip exactly, each filled
/// down beside a canonical run, at local and sheet coordinates. `{0}` is
/// the row's own 1-based number, `{1}` the one two rows down. A column
/// whose verbatim bytes move with the row is a new literal in every row;
/// one whose moving parts are all canonical references (the canonical
/// run, the spaced and the `LOG10` one) or that does not move is written
/// once.
#[test]
fn verbatim_spellings_survive_among_a_run() {
    let spellings = [
        "SUM(A{0}:B{1})",
        "a{0}+B{0}",
        "sum(a{0}:a{1})",
        "A0{0}+B{0}",
        " A{0} +  B{1} ",
        "\"A{0}\"&B{0}",
        "LOG10(A{0})+B{0}",
        "#REF!",
        "\"unterminated",
        "$a${0}*b$2",
        "2A{0}",
    ];
    let width = spellings.len() as u32;
    for origin in [(0, 0), (7, 3), (u32::MAX - 40, u32::MAX - width)] {
        let mut cells = Vec::new();
        for i in 0..40u32 {
            for (k, spelling) in spellings.iter().enumerate() {
                let src = spelling
                    .replace("{0}", &(u64::from(i) + 1).to_string())
                    .replace("{1}", &(u64::from(i) + 3).to_string());
                let cell = (origin.0 + i, origin.1 + k as u32);
                cells.push((cell.0, cell.1, Value::Bool(i % 3 == 0), Some(src)));
            }
        }
        let bytes = encode(&cells);
        assert_eq!(decode(&bytes).unwrap(), cells, "{origin:?}");
        assert_eq!(reencode(&bytes).as_ref(), Some(&bytes), "{origin:?}");
        // Columns 0, 4, 6, 7 and 8 are one literal each, plus a code per
        // later row; every other column is a literal in every row.
        let literal: usize = cells
            .iter()
            .enumerate()
            .map(|(n, c)| {
                let src = c.3.as_deref().unwrap();
                match n % spellings.len() {
                    0 | 4 | 6 | 7 | 8 if n >= spellings.len() => 1,
                    _ => varint((src.len() as u64) << 1).len() + src.len(),
                }
            })
            .sum();
        assert_eq!(source_bytes(&cells, &bytes), literal, "{origin:?}");
    }
}

/// References to the last row and column, from cells at local
/// coordinates and from cells at the last row and column themselves. The
/// left column refers to the corner, relative and `$`-absolute, so its
/// relative offset differs in every cell and each source is a literal; the
/// right column refers to the last column and the first one of its own
/// row, one template written once and then as codes, down to the last row.
#[test]
fn references_at_the_last_row_and_column_round_trip() {
    let last = "MWLQKWV4294967296";
    for (top, left) in [(0u32, 0u32), (u32::MAX - 9, u32::MAX - 1)] {
        let mut cells = Vec::new();
        let mut want = 0;
        for row in top..=top + 9 {
            let n = u64::from(row) + 1;
            let corner = format!("{last}+${last}+MWLQKWV$4294967296");
            let own_row = format!("MWLQKWV{n}+A{n}");
            want += lit(&corner).len() + if row == top { lit(&own_row).len() } else { 1 };
            let value = Value::Number(1f64.to_bits());
            cells.push((row, left, value.clone(), Some(corner)));
            cells.push((row, left + 1, value, Some(own_row)));
        }
        let bytes = encode(&cells);
        assert_eq!(decode(&bytes).unwrap(), cells, "({top}, {left})");
        assert_eq!(reencode(&bytes).as_ref(), Some(&bytes), "({top}, {left})");
        assert_eq!(source_bytes(&cells, &bytes), want, "({top}, {left})");
    }
}

/// Source fields by hand: `lit(s)` is a literal, `code(c)` a reference.
fn lit(s: &str) -> Vec<u8> {
    [varint((s.len() as u64) << 1), s.as_bytes().to_vec()].concat()
}

fn code(c: u64) -> Vec<u8> {
    varint(c << 1 | 1)
}

/// A payload of `True` cells under the given sources, one cell per row:
/// `(row, col, source field)`, rows ascending.
fn true_cells(cells: &[(u32, u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = varint(cells.len() as u64);
    let mut prev: Option<u32> = None;
    for (row, col, src) in cells {
        out.extend(varint(prev.map_or(*row, |p| row - p - 1).into()));
        out.extend([3]); // 1 cell, dense
        out.extend(varint((*col).into()));
        out.push(0x0D); // True + formula
        out.extend(src);
        prev = Some(*row);
    }
    out
}

fn sources(bytes: &[u8]) -> Vec<String> {
    decode(bytes)
        .unwrap()
        .into_iter()
        .map(|c| c.3.unwrap())
        .collect()
}

#[test]
fn a_repeated_template_an_unwritten_code_and_a_code_off_the_sheet_are_refused() {
    // The canonical form: a literal, then its code one row down.
    let good = true_cells(&[(0, 0, lit("A1+$B$1")), (1, 0, code(0))]);
    assert_eq!(sources(&good), ["A1+$B$1", "A2+$B$1"]);
    assert_eq!(reencode(&good), Some(good));
    // A literal whose template was written before, in a later row or the
    // same one; the same text at another cell is not the same template.
    assert!(refused(&true_cells(&[
        (0, 0, lit("A1")),
        (1, 0, lit("A2"))
    ])));
    let same_row = [
        &[1, 0, 5, 0][..],
        &[0x0D],
        &lit("$A$1"),
        &[0x0D],
        &lit("$A$1"),
    ]
    .concat();
    assert!(refused(&same_row), "repeat in one row");
    let moved = true_cells(&[(0, 0, lit("A1")), (1, 0, lit("A1"))]);
    assert_eq!(reencode(&moved), Some(moved));
    // A code not yet written: before any literal, or past the last one.
    assert!(refused(&true_cells(&[(0, 0, code(0)), (1, 0, lit("A1"))])));
    assert!(refused(&true_cells(&[(0, 0, lit("A1")), (1, 0, code(1))])));
    assert!(refused(&true_cells(&[
        (0, 0, lit("A1")),
        (1, 0, code(1 << 40))
    ])));
    // A code that renders off the sheet: past the last row, before the
    // first column; the same code one step less far renders.
    let last = u32::MAX;
    assert!(refused(&true_cells(&[
        (0, 0, lit("A2")),
        (last, 0, code(0))
    ])));
    let edge = true_cells(&[(0, 0, lit("A1")), (last, 0, code(0))]);
    assert_eq!(sources(&edge), ["A1", "A4294967296"]);
    assert_eq!(reencode(&edge), Some(edge));
    assert!(refused(&true_cells(&[(0, 1, lit("A1")), (1, 0, code(0))])));
    let left = true_cells(&[(0, 1, lit("B1")), (1, 0, code(0))]);
    assert_eq!(sources(&left), ["B1", "A2"]);
    // A source length past the bound, and a source that is not UTF-8.
    assert!(refused(&true_cells(&[(0, 0, varint(1 << 40))])));
    assert!(refused(&true_cells(&[(
        0,
        0,
        [&[2][..], &[0xFF]].concat()
    )])));
}

#[test]
fn an_unsorted_or_blank_cell_is_a_scan_bug_not_a_payload() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let runs: [Vec<Cell>; 3] = [
        vec![
            (1, 0, Value::Bool(true), None),
            (0, 5, Value::Bool(true), None),
        ],
        vec![
            (1, 1, Value::Bool(true), None),
            (1, 1, Value::Bool(false), None),
        ],
        vec![(0, 0, Value::Empty, None)],
    ];
    for cells in runs {
        let result = catch_unwind(AssertUnwindSafe(|| encode(&cells)));
        assert!(result.is_err(), "{cells:?} must trip the encoder's assert");
    }
}

/// An import's rows, as `SheetEngine::import_rows` takes them: ragged,
/// with `Empty` values, whole empty rows and values past the width.
fn import_rows(rng: &mut StdRng, width: u32) -> Vec<Vec<CellValue>> {
    (0..rng.gen_range(0u32..12))
        .map(|_| {
            (0..rng.gen_range(0..width + 3))
                .map(|_| match random_value(rng, false) {
                    Value::Empty => CellValue::Empty,
                    Value::Number(bits) => CellValue::Number(f64::from_bits(bits)),
                    Value::Text(s) => CellValue::Text(s),
                    Value::Bool(b) => CellValue::Bool(b),
                    Value::Error(e) => CellValue::Error(e),
                })
                .collect()
        })
        .collect()
}

/// An import block visited into a fresh block encoder: `None` when
/// refused. An import's cells are the image's cells without sources.
fn reencode_block(block: &[u8], rows: u32, width: u32) -> Option<Vec<u8>> {
    let mut enc = CellsEncoder::default();
    visit_block(block, rows, width, |row, col, value| {
        enc.push(row, col, value, false);
        Ok::<_, DecodeError>(())
    })
    .ok()?;
    Some(enc.finish())
}

/// The WAL's and the wire's import block gets the payload's properties:
/// its cells are each row's first `width` non-empty values, at their
/// rect-local addresses; every cut and trailing byte is refused; and every
/// flipped bit is refused or still canonical.
#[test]
fn an_import_block_refuses_every_cut_and_stays_canonical_under_every_flip() {
    let mut accepted_flips = 0u64;
    for seed in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0x1B10C + seed);
        let width = rng.gen_range(1u32..6);
        let rows = import_rows(&mut rng, width);
        let n_rows = rows.len() as u32;
        let block = encode_block(width, &rows);
        let mut cells = Vec::new();
        visit_block(&block, n_rows, width, |row, col, value| {
            cells.push((row, col, value.to_value()));
            Ok::<_, DecodeError>(())
        })
        .unwrap();
        let mut want = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().take(width as usize).enumerate() {
                if !v.is_empty() {
                    want.push((r as u32, c as u32, v.clone()));
                }
            }
        }
        // NaN is not equal to itself: compare the bits of numbers.
        let bits = |cells: &[(u32, u32, CellValue)]| -> Vec<(u32, u32, Value)> {
            cells
                .iter()
                .map(|(r, c, v)| (*r, *c, owned(ScanValue::of(v))))
                .collect()
        };
        assert_eq!(bits(&cells), bits(&want), "seed {seed}");
        assert_eq!(
            reencode_block(&block, n_rows, width).as_ref(),
            Some(&block),
            "seed {seed}"
        );
        for cut in 0..block.len() {
            assert!(
                reencode_block(&block[..cut], n_rows, width).is_none(),
                "seed {seed}: cut at {cut} accepted"
            );
        }
        let mut trailing = block.clone();
        trailing.push(0);
        assert!(reencode_block(&trailing, n_rows, width).is_none());
        for i in 0..block.len() {
            for bit in 0..8 {
                let mut mutated = block.clone();
                mutated[i] ^= 1 << bit;
                if let Some(again) = reencode_block(&mutated, n_rows, width) {
                    accepted_flips += 1;
                    assert_eq!(again, mutated, "seed {seed}: flip of bit {bit} at byte {i}");
                }
            }
        }
    }
    assert!(accepted_flips > 1000, "{accepted_flips} flips accepted");
}
