//! Differential oracle harness: random op tapes run against both the full
//! [`SheetEngine`] stack and a naive dense `Vec<Vec<Cell>>` model that
//! re-implements the sheet semantics in the most obvious way possible
//! (literal interpretation, row/column splicing). After every op the two
//! must agree exactly.
//!
//! Formula edits use reference-free sources, so the model can predict the
//! computed value once (via the shared evaluator over an empty sheet) and
//! that prediction stays correct as structural edits move the cell around.

mod common;

use common::{apply, import_value, tape, TapeOp};

use dataspread_engine::SheetEngine;
use dataspread_formula::{parse, EmptyReader, Evaluator};
use dataspread_grid::{Cell, CellAddr, CellValue};

/// The naive oracle: a dense, rectangular grid of cells. Blank cells are
/// `Cell::default()`. Structural edits are plain `Vec` splices — O(rows ×
/// cols), unarguably correct.
#[derive(Default)]
struct DenseModel {
    grid: Vec<Vec<Cell>>,
}

impl DenseModel {
    fn width(&self) -> usize {
        self.grid.first().map_or(0, Vec::len)
    }

    fn grow_to(&mut self, rows: usize, cols: usize) {
        let width = self.width().max(cols);
        for row in &mut self.grid {
            row.resize(width, Cell::default());
        }
        while self.grid.len() < rows {
            self.grid.push(vec![Cell::default(); width]);
        }
    }

    fn set(&mut self, row: u32, col: u32, cell: Cell) {
        self.grow_to(row as usize + 1, col as usize + 1);
        self.grid[row as usize][col as usize] = cell;
    }

    fn get(&self, row: u32, col: u32) -> Option<&Cell> {
        self.grid.get(row as usize)?.get(col as usize)
    }

    fn insert_rows(&mut self, at: u32, n: u32) {
        let at = at as usize;
        if at < self.grid.len() {
            let width = self.width();
            for _ in 0..n {
                self.grid.insert(at, vec![Cell::default(); width]);
            }
        }
    }

    fn delete_rows(&mut self, at: u32, n: u32) {
        let at = at as usize;
        let end = (at + n as usize).min(self.grid.len());
        if at < self.grid.len() {
            self.grid.drain(at..end);
        }
    }

    fn insert_cols(&mut self, at: u32, n: u32) {
        let at = at as usize;
        if at < self.width() {
            for row in &mut self.grid {
                for _ in 0..n {
                    row.insert(at, Cell::default());
                }
            }
        }
    }

    fn delete_cols(&mut self, at: u32, n: u32) {
        let at = at as usize;
        let width = self.width();
        let end = (at + n as usize).min(width);
        if at < width {
            for row in &mut self.grid {
                row.drain(at..end);
            }
        }
    }

    /// All non-blank cells, row-major.
    fn filled(&self) -> impl Iterator<Item = (u32, u32, &Cell)> {
        self.grid.iter().enumerate().flat_map(|(r, row)| {
            row.iter()
                .enumerate()
                .filter(|(_, cell)| !cell.is_blank())
                .map(move |(c, cell)| (r as u32, c as u32, cell))
        })
    }
}

/// What the model expects `updateCell(input)` to leave behind.
fn expected_cell(input: &str) -> Cell {
    if let Some(src) = input.strip_prefix('=') {
        let expr = parse(src).expect("tapes only use parseable formulas");
        let value = Evaluator::new().eval(&expr, &EmptyReader);
        return Cell {
            value,
            formula: Some(src.to_string()),
        };
    }
    let trimmed = input.trim();
    if trimmed.is_empty() {
        return Cell::default();
    }
    let value = if let Ok(n) = trimmed.parse::<f64>() {
        CellValue::Number(n)
    } else {
        match trimmed.to_ascii_uppercase().as_str() {
            "TRUE" => CellValue::Bool(true),
            "FALSE" => CellValue::Bool(false),
            _ => CellValue::Text(trimmed.to_string()),
        }
    };
    Cell::value(value)
}

fn apply_to_model(model: &mut DenseModel, op: &TapeOp) {
    match op {
        TapeOp::Set { row, col, input } => model.set(*row, *col, expected_cell(input)),
        TapeOp::InsertRows { at, n } => model.insert_rows(*at, *n),
        TapeOp::DeleteRows { at, n } => model.delete_rows(*at, *n),
        TapeOp::InsertCols { at, n } => model.insert_cols(*at, *n),
        TapeOp::DeleteCols { at, n } => model.delete_cols(*at, *n),
        TapeOp::Import {
            row,
            col,
            width,
            n_rows,
        } => {
            for r in 0..*n_rows {
                for c in 0..*width {
                    model.set(
                        row + r,
                        col + c,
                        Cell::value(import_value(*row, *col, *width, r, c)),
                    );
                }
            }
        }
    }
}

/// Engine and model must hold exactly the same non-blank cells. Formula
/// cells compare by computed value and formula *presence* (the engine
/// normalizes formula source text when structural edits rewrite it).
fn assert_agree(engine: &SheetEngine, model: &DenseModel, ctx: &str) {
    let snapshot = engine.snapshot();
    for (addr, cell) in snapshot.iter() {
        if cell.is_blank() {
            continue;
        }
        let expected = model.get(addr.row, addr.col).unwrap_or_else(|| {
            panic!("{ctx}: engine has {addr} = {cell:?} outside the model extent")
        });
        assert!(
            !expected.is_blank(),
            "{ctx}: engine has {addr} = {cell:?}, model says blank"
        );
        assert_eq!(
            cell.value, expected.value,
            "{ctx}: value mismatch at {addr}"
        );
        assert_eq!(
            cell.formula.is_some(),
            expected.formula.is_some(),
            "{ctx}: formula presence mismatch at {addr}"
        );
    }
    for (row, col, expected) in model.filled() {
        let addr = CellAddr::new(row, col);
        let got = snapshot.get(addr).unwrap_or_else(|| {
            panic!("{ctx}: model has {addr} = {expected:?}, engine has nothing")
        });
        assert_eq!(got.value, expected.value, "{ctx}: value mismatch at {addr}");
    }
}

fn run_tape(seed: u64, len: usize) {
    let ops = tape(seed, len);
    let mut engine = SheetEngine::new();
    let mut model = DenseModel::default();
    for (i, op) in ops.iter().enumerate() {
        // A rejected import (region overlap) changes nothing on the engine,
        // so the model must skip it too.
        if apply(&mut engine, op) {
            apply_to_model(&mut model, op);
        }
        assert_agree(&engine, &model, &format!("seed={seed} op#{i} {op:?}"));
    }
}

/// Shorter tapes in debug builds keep tier-1 `cargo test` fast; CI runs
/// the full load in `--release`.
const TAPE_LEN: usize = if cfg!(debug_assertions) { 120 } else { 400 };
const SEEDS: std::ops::Range<u64> = if cfg!(debug_assertions) { 0..6 } else { 0..24 };

#[test]
fn engine_matches_dense_model() {
    for seed in SEEDS {
        run_tape(seed, TAPE_LEN);
    }
}

#[test]
fn structural_edit_heavy_tapes() {
    // A tape that is mostly splices: shifts-of-shifts are where positional
    // maps historically disagree.
    let mut engine = SheetEngine::new();
    let mut model = DenseModel::default();
    // Seed a block of content first.
    for r in 0..10u32 {
        for c in 0..6u32 {
            let op = TapeOp::Set {
                row: r,
                col: c,
                input: format!("{}", r * 6 + c),
            };
            apply(&mut engine, &op);
            apply_to_model(&mut model, &op);
        }
    }
    let splices = [
        TapeOp::InsertRows { at: 3, n: 2 },
        TapeOp::DeleteCols { at: 1, n: 2 },
        TapeOp::InsertCols { at: 0, n: 1 },
        TapeOp::DeleteRows { at: 0, n: 4 },
        TapeOp::InsertRows { at: 8, n: 3 },
        TapeOp::DeleteRows { at: 2, n: 6 },
        TapeOp::InsertCols { at: 4, n: 2 },
        TapeOp::DeleteCols { at: 0, n: 3 },
    ];
    for (i, op) in splices.iter().enumerate() {
        apply(&mut engine, op);
        apply_to_model(&mut model, op);
        assert_agree(&engine, &model, &format!("splice#{i} {op:?}"));
    }
}
