//! Differential oracle harness: random op tapes run against both the full
//! [`SheetEngine`] stack and [`RefSheet`], a dense reference sheet that
//! implements the sheet semantics in the most obvious way possible
//! (literal interpretation, row/column splicing, every value computed
//! afresh on read). After every op the two must agree exactly, formula
//! text included.
//!
//! Formula edits use reference-free sources, so this suite checks literal
//! interpretation, imports and cell movement; the formula suites
//! (`recompute_par`, `shift_differential`) check references against the
//! same reference sheet.

mod common;

use common::{apply, import_rows_data, tape, TapeOp};

use dataspread_engine::SheetEngine;
use dataspread_grid::CellAddr;
use dataspread_sim::RefSheet;

fn apply_to_reference(model: &mut RefSheet, op: &TapeOp) {
    match op {
        TapeOp::Set { row, col, input } => model.set(CellAddr::new(*row, *col), input),
        TapeOp::InsertRows { at, n } => model.insert_rows(*at, *n),
        TapeOp::DeleteRows { at, n } => model.delete_rows(*at, *n),
        TapeOp::InsertCols { at, n } => model.insert_cols(*at, *n),
        TapeOp::DeleteCols { at, n } => model.delete_cols(*at, *n),
        TapeOp::Import {
            row,
            col,
            width,
            n_rows,
        } => model.import(
            CellAddr::new(*row, *col),
            &import_rows_data(*row, *col, *width, *n_rows),
        ),
    }
}

/// Engine and model must hold exactly the same non-blank cells.
fn assert_agree(engine: &SheetEngine, model: &RefSheet, ctx: &str) {
    let snapshot = engine.snapshot();
    model.assert_matches(snapshot.iter().map(|(a, c)| (a, c.clone())), ctx);
}

fn run_tape(seed: u64, len: usize) {
    let ops = tape(seed, len);
    let mut engine = SheetEngine::new();
    let mut model = RefSheet::new();
    for (i, op) in ops.iter().enumerate() {
        // A rejected import (region overlap) changes nothing on the engine,
        // so the model must skip it too.
        if apply(&mut engine, op) {
            apply_to_reference(&mut model, op);
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
    let mut model = RefSheet::new();
    // Seed a block of content first.
    for r in 0..10u32 {
        for c in 0..6u32 {
            let op = TapeOp::Set {
                row: r,
                col: c,
                input: format!("{}", r * 6 + c),
            };
            apply(&mut engine, &op);
            apply_to_reference(&mut model, &op);
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
        apply_to_reference(&mut model, op);
        assert_agree(&engine, &model, &format!("splice#{i} {op:?}"));
    }
}
