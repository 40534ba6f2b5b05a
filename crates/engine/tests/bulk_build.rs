//! Builder-vs-`set_cell` suite for the one bulk region build path.
//!
//! `HybridSheet::{reorganize, restore_regions, migrate_region}` all build a
//! region through [`build_translator`]: a row-major run of cells loaded by
//! the model's bulk constructor. The reference here is the path it
//! replaced — an empty translator fed the same cells one `set_cell` at a
//! time. For every [`ModelKind`] and random sparse contents the two must
//! agree on everything a caller can observe, and keep agreeing while the
//! same random tape of edits and structural ops is applied to both: a
//! bulk-built region is not allowed to be a different *kind* of object
//! from one that grew cell by cell.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::com::ComTranslator;
use dataspread_engine::hybrid::build_translator;
use dataspread_engine::rcv::RcvTranslator;
use dataspread_engine::rom::RomTranslator;
use dataspread_engine::{ColumnarTranslator, ModelKind, Translator};
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue};

const TAPE_LEN: usize = if cfg!(debug_assertions) { 80 } else { 400 };
const SEEDS: std::ops::Range<u64> = if cfg!(debug_assertions) { 0..6 } else { 0..40 };

const KINDS: [ModelKind; 4] = [
    ModelKind::Rom,
    ModelKind::Com,
    ModelKind::Rcv,
    ModelKind::Columnar,
];

/// Every value shape the stores distinguish: packable and raw numbers,
/// bools, dictionary texts, a long text, the empty text, every error
/// code, a text that begins with the error marker `\u{1}` and one that
/// spells an error's stored form (both stored behind an escape), and
/// formulas over any of them (including over an empty value).
/// Long texts stay short enough that a 30-row COM tuple of them fits a
/// page.
fn random_cell(rng: &mut StdRng) -> Cell {
    const ERRORS: [CellError; 7] = [
        CellError::Div0,
        CellError::Value,
        CellError::Ref,
        CellError::Name,
        CellError::Na,
        CellError::Num,
        CellError::Circular,
    ];
    let value = match rng.gen_range(0u32..16) {
        0..=2 => CellValue::Number(rng.gen_range(-1000..1000) as f64),
        3..=4 => CellValue::Number(rng.gen_range(-10.0..10.0)),
        5 => CellValue::Bool(rng.gen_bool(0.5)),
        6..=8 => CellValue::Text(["red", "green", "blue"][rng.gen_range(0..3)].into()),
        9 => CellValue::Text("x".repeat(rng.gen_range(60..120))),
        10 => CellValue::Text(String::new()),
        11 => CellValue::Error(ERRORS[rng.gen_range(0..ERRORS.len())]),
        12 => CellValue::Text(format!("\u{1}{}", ["", "x", "\u{1}"][rng.gen_range(0..3)])),
        13 => CellValue::Text("\u{1}ERR:#REF!".into()),
        _ => CellValue::Empty,
    };
    let formula = rng
        .gen_bool(0.15)
        .then(|| format!("A{}+1", rng.gen_range(1..50)));
    Cell { value, formula }
}

/// A random sparse region as a row-major run: whole rows left blank
/// (leading, interior and — inside the `rows` extent — trailing), ragged
/// row widths, and the odd explicitly blank cell, which still stretches a
/// growing translator's extent.
fn random_run(rng: &mut StdRng) -> (u32, u32, Vec<(CellAddr, Cell)>) {
    let rows = rng.gen_range(1u32..30);
    let cols = rng.gen_range(1u32..9);
    let mut cells = Vec::new();
    if rng.gen_bool(0.1) {
        return (rows, cols, cells);
    }
    let first = rng.gen_range(0..rows);
    let last = rng.gen_range(first..rows);
    for r in first..=last {
        if rng.gen_bool(0.25) {
            continue;
        }
        let width = rng.gen_range(1..=cols);
        for c in 0..width {
            if rng.gen_bool(0.7) {
                cells.push((CellAddr::new(r, c), random_cell(rng)));
            }
        }
    }
    (rows, cols, cells)
}

/// What `build_translator` replaced: an empty translator of the kind, fed
/// one `set_cell` per cell. Columnar has a fixed extent and folds its
/// write overlay into the columns, as its old cell-list constructor did.
fn per_cell(
    kind: ModelKind,
    rows: u32,
    cols: u32,
    cells: &[(CellAddr, Cell)],
) -> Box<dyn Translator> {
    if kind == ModelKind::Columnar {
        let mut t = ColumnarTranslator::new(rows, cols);
        for (a, c) in cells {
            t.set_cell(a.row, a.col, c.clone()).unwrap();
        }
        t.compact();
        return Box::new(t);
    }
    let mut t: Box<dyn Translator> = match kind {
        ModelKind::Rom => Box::new(RomTranslator::new()),
        ModelKind::Com => Box::new(ComTranslator::new()),
        _ => Box::new(RcvTranslator::new()),
    };
    for (a, c) in cells {
        t.set_cell(a.row, a.col, c.clone()).unwrap();
    }
    t
}

fn assert_same(bulk: &dyn Translator, reference: &dyn Translator, ctx: &str) {
    assert_eq!(bulk.kind(), reference.kind(), "{ctx}: kind");
    assert_eq!(bulk.rows(), reference.rows(), "{ctx}: rows");
    assert_eq!(bulk.cols(), reference.cols(), "{ctx}: cols");
    assert_eq!(
        bulk.filled_count(),
        reference.filled_count(),
        "{ctx}: filled_count"
    );
    assert_eq!(
        bulk.storage_bytes(),
        reference.storage_bytes(),
        "{ctx}: storage_bytes"
    );
    assert_eq!(
        bulk.resident_bytes(),
        reference.resident_bytes(),
        "{ctx}: resident_bytes"
    );
    assert_eq!(bulk.all_cells(), reference.all_cells(), "{ctx}: all_cells");
}

/// Encoding is a checkpoint: it compacts a columnar region, so tapes
/// compare images only every few ops and let overlays build up between.
fn assert_same_image(bulk: &mut dyn Translator, reference: &mut dyn Translator, ctx: &str) {
    assert_eq!(
        bulk.encoded_image(),
        reference.encoded_image(),
        "{ctx}: encoded image"
    );
}

/// One random edit or structural op applied to both translators; they
/// must accept or refuse it together (a COM column can outgrow its tuple).
fn step(rng: &mut StdRng, a: &mut dyn Translator, b: &mut dyn Translator, ctx: &str) {
    let rows = a.rows().max(1);
    let cols = a.cols().max(1);
    let (ra, rb) = match rng.gen_range(0u32..12) {
        0..=4 => {
            let (r, c) = (rng.gen_range(0..rows + 2), rng.gen_range(0..cols + 1));
            let cell = random_cell(rng);
            (a.set_cell(r, c, cell.clone()), b.set_cell(r, c, cell))
        }
        5 => {
            let (r, c) = (rng.gen_range(0..rows + 2), rng.gen_range(0..cols + 1));
            (a.clear_cell(r, c), b.clear_cell(r, c))
        }
        6 => {
            let r = rng.gen_range(0..rows + 1);
            let mut batch: Vec<(u32, Cell)> = Vec::new();
            for c in 0..cols {
                if rng.gen_bool(0.5) {
                    batch.push((c, random_cell(rng)));
                }
            }
            (
                a.set_cells_in_row(r, batch.clone()),
                b.set_cells_in_row(r, batch),
            )
        }
        7 => {
            let (at, n) = (rng.gen_range(0..rows + 1), rng.gen_range(1..3));
            (a.insert_rows(at, n), b.insert_rows(at, n))
        }
        8 => {
            let (at, n) = (rng.gen_range(0..rows), rng.gen_range(1..3));
            (a.delete_rows(at, n), b.delete_rows(at, n))
        }
        9 => {
            let (at, n) = (rng.gen_range(0..cols + 1), rng.gen_range(1..3));
            (a.insert_cols(at, n), b.insert_cols(at, n))
        }
        _ => {
            let (at, n) = (rng.gen_range(0..cols), 1);
            (a.delete_cols(at, n), b.delete_cols(at, n))
        }
    };
    assert_eq!(ra, rb, "{ctx}: both accept or both refuse");
}

#[test]
fn bulk_built_equals_per_cell_built_and_stays_equal_under_edits() {
    for seed in SEEDS {
        for (k, &kind) in KINDS.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xB01D_0000 + seed * 16 + k as u64);
            let (rows, cols, cells) = random_run(&mut rng);
            let ctx = format!("{kind:?} seed {seed}");
            let mut bulk = build_translator(kind, rows, cols, cells.clone())
                .unwrap_or_else(|e| panic!("{ctx}: build failed: {e}"));
            let mut reference = per_cell(kind, rows, cols, &cells);
            let built = format!("{ctx}, as built");
            assert_same(bulk.as_ref(), reference.as_ref(), &built);
            assert_same_image(bulk.as_mut(), reference.as_mut(), &built);
            for op in 0..TAPE_LEN {
                let ctx = format!("{ctx}, op {op}");
                step(&mut rng, bulk.as_mut(), reference.as_mut(), &ctx);
                assert_same(bulk.as_ref(), reference.as_ref(), &ctx);
                if op % 8 == 7 || op + 1 == TAPE_LEN {
                    assert_same_image(bulk.as_mut(), reference.as_mut(), &ctx);
                }
            }
        }
    }
}

#[test]
fn a_region_with_no_cells_builds_empty() {
    for kind in KINDS {
        let mut t = build_translator(kind, 7, 3, Vec::new()).unwrap();
        let mut reference = per_cell(kind, 7, 3, &[]);
        let ctx = format!("{kind:?}, empty");
        assert_same(t.as_ref(), reference.as_ref(), &ctx);
        assert_same_image(t.as_mut(), reference.as_mut(), &ctx);
        assert_eq!(t.filled_count(), 0);
        // Only the fixed-extent layout records the region's size.
        let extent = if kind == ModelKind::Columnar {
            (7, 3)
        } else {
            (0, 0)
        };
        assert_eq!((t.rows(), t.cols()), extent, "{kind:?}");
    }
}

#[test]
fn unsorted_or_duplicate_runs_are_refused_not_misbuilt() {
    let cell = |n: i64| Cell::value(n);
    let unsorted = vec![
        (CellAddr::new(2, 0), cell(1)),
        (CellAddr::new(1, 3), cell(2)),
    ];
    let column_major = vec![
        (CellAddr::new(0, 0), cell(1)),
        (CellAddr::new(1, 0), cell(2)),
        (CellAddr::new(0, 1), cell(3)),
    ];
    let duplicate = vec![
        (CellAddr::new(1, 1), cell(1)),
        (CellAddr::new(1, 1), cell(2)),
    ];
    for kind in KINDS {
        for (what, run) in [
            ("unsorted", &unsorted),
            ("column-major", &column_major),
            ("duplicate", &duplicate),
        ] {
            let built = build_translator(kind, 4, 4, run.clone());
            assert!(built.is_err(), "{kind:?}: a {what} run must be refused");
        }
    }
}
