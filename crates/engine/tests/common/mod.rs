//! Shared infrastructure for the differential and crash-recovery suites:
//! seeded random op tapes and helpers to drive a [`SheetEngine`] with them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::SheetEngine;
use dataspread_grid::{CellAddr, CellValue};

/// Bounds of the randomized playground. Kept small so structural edits
/// collide with content often (that is where the bugs live).
pub const MAX_ROW: u32 = 30;
pub const MAX_COL: u32 = 12;

/// One scripted engine operation.
#[derive(Debug, Clone, PartialEq)]
pub enum TapeOp {
    /// `updateCell` with raw user input (literal, formula, or "" = clear).
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
    /// `import_rows` of a deterministic value block (see [`import_value`])
    /// as a dedicated ROM region. The engine rejects imports overlapping an
    /// existing region; [`apply`] reports that as `false` so the caller can
    /// skip its model mirror too.
    Import {
        row: u32,
        col: u32,
        width: u32,
        n_rows: u32,
    },
}

/// The value an [`TapeOp::Import`] block holds at local `(r, c)`.
fn import_value(op_row: u32, op_col: u32, width: u32, r: u32, c: u32) -> CellValue {
    CellValue::Number(((op_row + r) * 1000 + (op_col + c) * width) as f64 + 0.25)
}

/// The row data an [`TapeOp::Import`] feeds to `import_rows`, and the
/// differential suite to its reference sheet.
pub fn import_rows_data(row: u32, col: u32, width: u32, n_rows: u32) -> Vec<Vec<CellValue>> {
    (0..n_rows)
        .map(|r| {
            (0..width)
                .map(|c| import_value(row, col, width, r, c))
                .collect()
        })
        .collect()
}

/// Literal inputs that exercise every interpretation path (numbers, bools,
/// text, whitespace-only clears). Deliberately no "nan"/"inf": those parse
/// to non-reflexive floats and would break exact state comparison.
const LITERALS: &[&str] = &[
    "0",
    "7",
    "-3",
    "3.25",
    "1e3",
    "TRUE",
    "false",
    "alpha",
    "beta gamma",
    "12abc",
    "",
    "  ",
];

/// Reference-free formulas: their values are position-independent, so a
/// failure here is about cells, not references (the formula suites cover
/// those).
const FORMULAS: &[&str] = &[
    "=1+2*3",
    "=SUM(1,2,3,4)",
    "=AVERAGE(2,4,6)",
    "=MIN(9,4,7)",
    "=MAX(1,8)",
    "=IF(TRUE,10,20)",
    "=1/0",
    "=2*(3+4)",
];

/// Generate a deterministic op tape for `seed`.
pub fn tape(seed: u64, len: usize) -> Vec<TapeOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_range(0u32..100);
        let op = if roll < 64 {
            let row = rng.gen_range(0..MAX_ROW);
            let col = rng.gen_range(0..MAX_COL);
            let input = if rng.gen_bool(0.25) {
                FORMULAS[rng.gen_range(0..FORMULAS.len())].to_string()
            } else {
                LITERALS[rng.gen_range(0..LITERALS.len())].to_string()
            };
            TapeOp::Set { row, col, input }
        } else if roll < 70 {
            TapeOp::Import {
                row: rng.gen_range(0..MAX_ROW),
                col: rng.gen_range(0..MAX_COL),
                width: rng.gen_range(1..=3),
                n_rows: rng.gen_range(1..=4),
            }
        } else {
            let at = rng.gen_range(0..MAX_ROW);
            let n = rng.gen_range(1u32..=3);
            match roll % 4 {
                0 => TapeOp::InsertRows { at, n },
                1 => TapeOp::DeleteRows { at, n },
                2 => TapeOp::InsertCols {
                    at: at % MAX_COL,
                    n,
                },
                _ => TapeOp::DeleteCols {
                    at: at % MAX_COL,
                    n,
                },
            }
        };
        ops.push(op);
    }
    ops
}

/// Apply one op to an engine. Returns whether the op applied: imports may
/// legitimately be rejected (region overlap) and then change nothing; any
/// other failure panics.
pub fn apply(engine: &mut SheetEngine, op: &TapeOp) -> bool {
    match op {
        TapeOp::Set { row, col, input } => engine
            .update_cell(CellAddr::new(*row, *col), input)
            .unwrap_or_else(|e| panic!("set ({row},{col}) {input:?}: {e}")),
        TapeOp::InsertRows { at, n } => engine.insert_rows(*at, *n).expect("insert rows"),
        TapeOp::DeleteRows { at, n } => engine.delete_rows(*at, *n).expect("delete rows"),
        TapeOp::InsertCols { at, n } => engine.insert_cols(*at, *n).expect("insert cols"),
        TapeOp::DeleteCols { at, n } => engine.delete_cols(*at, *n).expect("delete cols"),
        TapeOp::Import {
            row,
            col,
            width,
            n_rows,
        } => {
            return engine
                .import_rows(
                    CellAddr::new(*row, *col),
                    *width,
                    import_rows_data(*row, *col, *width, *n_rows),
                )
                .is_ok()
        }
    }
    true
}
