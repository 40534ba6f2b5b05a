//! Differential suite pinning the wave/batch recompute pipeline to the
//! sequential per-cell tree walk it replaced.
//!
//! The oracle is a [`SheetEngine`] forced onto the retained scalar path
//! (`set_scalar_recompute`): Kahn order, one tree walk per cell, no
//! batching. Random formula tapes — fill-down sliding aggregates (the
//! batch path), scalar layers, chains, cycles, error producers — are
//! replayed into it and into an engine on the wave pipeline, and full
//! sheet snapshots (values *and* stored formula text) must stay
//! bit-identical throughout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::{EngineObs, SheetEngine};
use dataspread_grid::{Cell, CellAddr, Rect};
use dataspread_obs::MetricsRegistry;

const ROWS: u32 = 48;
const COLS: u32 = 8;
/// The engine's fill-down batch threshold: a wave narrower than this, or a
/// run with fewer members, is evaluated per cell.
const BATCH_MIN: u32 = 16;

fn col_name(c: u32) -> char {
    (b'A' + c as u8) as char
}

/// A1-style address string, e.g. `(2, 1)` → `"B3"`.
fn a1(row: u32, col: u32) -> String {
    format!("{}{}", col_name(col), row + 1)
}

/// One tape entry: raw user input destined for a cell.
type Op = (CellAddr, String);

/// Random tape over a layered sheet: column A holds data, column B holds
/// fill-down sliding windows over A (batchable runs), column C scalar
/// transforms and chains over B, column D cycle pairs, the rest mixed
/// aggregates and error producers.
fn tape(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops: Vec<Op> = Vec::new();
    while ops.len() < len {
        match rng.gen_range(0..100u32) {
            // Data pokes: these reseed whole fill-down runs at once, which
            // is exactly when wave 1 is wide enough to batch.
            0..=29 => {
                let row = rng.gen_range(0..ROWS);
                let n: i64 = rng.gen_range(-50..50);
                ops.push((CellAddr::new(row, 0), format!("{n}")));
            }
            // A fill-down run: same shape, consecutive rows, one column.
            30..=49 => {
                let w = rng.gen_range(2..6u32);
                let start = rng.gen_range(w..ROWS / 2);
                let run = rng.gen_range(16..32u32).min(ROWS - start);
                for row in start..start + run {
                    let src = format!("=SUM({}:{})", a1(row - w + 1, 0), a1(row, 0));
                    ops.push((CellAddr::new(row, 1), src));
                }
            }
            // Scalar layer over the windows, occasionally chained.
            50..=64 => {
                let row = rng.gen_range(1..ROWS);
                let src = if rng.gen_bool(0.4) {
                    format!("={}+{}", a1(row, 1), a1(row - 1, 2))
                } else {
                    format!("={}*2-1", a1(row, 1))
                };
                ops.push((CellAddr::new(row, 2), src));
            }
            // Cycle pair (or a self-loop) in column D.
            65..=74 => {
                let r1 = rng.gen_range(0..ROWS);
                let r2 = rng.gen_range(0..ROWS);
                if r1 == r2 {
                    ops.push((CellAddr::new(r1, 3), format!("={}*1", a1(r1, 3))));
                } else {
                    ops.push((CellAddr::new(r1, 3), format!("={}+1", a1(r2, 3))));
                    ops.push((CellAddr::new(r2, 3), format!("={}+1", a1(r1, 3))));
                }
            }
            // Error producers and readers of errors.
            75..=84 => {
                let row = rng.gen_range(0..ROWS);
                let src = match rng.gen_range(0..3u32) {
                    0 => "=1/0".to_string(),
                    1 => format!("={}/0", a1(row, 0)),
                    _ => format!("={}+1", a1(row, 4)),
                };
                ops.push((CellAddr::new(row, 4), src));
            }
            // Mixed aggregates across the layered columns.
            85..=94 => {
                let row = rng.gen_range(1..ROWS);
                let f = ["SUM", "AVERAGE", "COUNT", "COUNTA"][rng.gen_range(0..4)];
                let src = format!("={f}(A1:{})", a1(row, rng.gen_range(1..4)));
                ops.push((CellAddr::new(row, rng.gen_range(5..COLS)), src));
            }
            // Clears.
            _ => {
                let row = rng.gen_range(0..ROWS);
                let col = rng.gen_range(0..COLS);
                ops.push((CellAddr::new(row, col), String::new()));
            }
        }
    }
    ops.truncate(len);
    ops
}

fn snapshot(e: &SheetEngine) -> Vec<(CellAddr, Cell)> {
    e.get_cells(Rect::new(0, 0, ROWS + 4, COLS + 4))
}

#[test]
fn random_tapes_match_scalar_oracle() {
    for seed in 0..4u64 {
        let mut oracle = SheetEngine::new();
        oracle.set_scalar_recompute(true);
        let mut e = SheetEngine::new();
        let ops = tape(0xFA12_0001u64 + seed, 260);
        for (step, (addr, input)) in ops.iter().enumerate() {
            oracle.update_cell(*addr, input).expect("oracle update");
            e.update_cell(*addr, input).expect("wave update");
            // Full-snapshot comparison is O(cells); sample it.
            if step % 20 == 19 {
                assert_eq!(
                    snapshot(&e),
                    snapshot(&oracle),
                    "seed {seed} step {step}: snapshot diverged"
                );
            }
        }
        // A bulk recompute-everything pass must agree too (this is the
        // path the bench drives: maximally wide waves).
        oracle.recompute_all().expect("oracle recompute_all");
        e.recompute_all().expect("wave recompute_all");
        assert_eq!(
            snapshot(&e),
            snapshot(&oracle),
            "seed {seed}: bulk diverged"
        );
    }
}

#[test]
fn wide_scalar_wave_matches_scalar_oracle() {
    // 200 same-wave scalar formulas (no batchable shape): one wave far
    // wider than BATCH_MIN, evaluated and written back member by member,
    // must match the scalar walk exactly.
    let mut oracle = SheetEngine::new();
    oracle.set_scalar_recompute(true);
    let mut e = SheetEngine::new();
    for r in 0..200u32 {
        let data = format!("{}.5", r % 17);
        let formula = format!("=A{}*3+1", r + 1);
        for engine in [&mut oracle, &mut e] {
            engine.update_cell(CellAddr::new(r, 0), &data).unwrap();
            engine.update_cell(CellAddr::new(r, 1), &formula).unwrap();
        }
    }
    oracle.recompute_all().unwrap();
    let registry = MetricsRegistry::new();
    let obs = EngineObs::new(&registry, "wide");
    e.set_obs(obs.clone());
    e.recompute_all().unwrap();
    assert_eq!(obs.waves.get(), 1, "one wave");
    assert_eq!(obs.scalar_evals.get(), 200);
    assert_eq!(
        e.get_cells(Rect::new(0, 0, 220, 4)),
        oracle.get_cells(Rect::new(0, 0, 220, 4)),
        "wide wave diverged"
    );
}

/// The batch threshold is exact: a wave of `BATCH_MIN` same-shape sliding
/// members is swept as one run, while `BATCH_MIN - 1` of them are walked
/// cell by cell, alone or beside one scalar member that makes the wave
/// `BATCH_MIN` wide. The values equal the scalar walk's either way.
#[test]
fn batch_min_members_batch_and_one_fewer_do_not() {
    for (sliding, scalar) in [(BATCH_MIN, 0), (BATCH_MIN - 1, 0), (BATCH_MIN - 1, 1)] {
        let ctx = format!("{sliding} sliding + {scalar} scalar members");
        let mut e = SheetEngine::new();
        for r in 0..sliding + 2 {
            e.update_cell(CellAddr::new(r, 0), &format!("{}", r * 3 % 7))
                .unwrap();
        }
        for r in 2..sliding + 2 {
            let src = format!("=SUM({}:{})", a1(r - 2, 0), a1(r, 0));
            e.update_cell(CellAddr::new(r, 1), &src).unwrap();
        }
        for r in 0..scalar {
            e.update_cell(CellAddr::new(r, 2), &format!("={}*2", a1(r, 0)))
                .unwrap();
        }
        e.set_scalar_recompute(true);
        e.recompute_all().unwrap();
        let want = snapshot(&e);
        e.set_scalar_recompute(false);
        let registry = MetricsRegistry::new();
        let obs = EngineObs::new(&registry, "edge");
        e.set_obs(obs.clone());
        e.recompute_all().unwrap();
        assert_eq!(obs.waves.get(), 1, "{ctx}: one wave");
        let batch = if sliding >= BATCH_MIN { sliding } else { 0 };
        assert_eq!(obs.batch_evals.get(), u64::from(batch), "{ctx}");
        let walked = sliding + scalar - batch;
        assert_eq!(obs.scalar_evals.get(), u64::from(walked), "{ctx}");
        assert_eq!(snapshot(&e), want, "{ctx}: values diverged");
    }
}

const WINDOW: u32 = 64;
const CHAIN: u32 = 2_000;

/// A fill-down corpus shaped like the paper's weather and billing sheets:
/// numbers in column A, a 64-row sliding `SUM` over A filled down column
/// B, `=B{r}*2-1` in column C and a 2 000-deep chain `=D{r-1}+1` in
/// column D. Formulas go in dependency-first, so each evaluates once.
fn fill_down_corpus(rows: u32) -> SheetEngine {
    let mut e = SheetEngine::new();
    for r in 0..rows {
        let n = (r.wrapping_mul(2_654_435_761) % 4_000) as f64 / 4.0;
        e.update_cell(CellAddr::new(r, 0), &n.to_string()).unwrap();
    }
    for r in WINDOW - 1..rows {
        let src = format!("=SUM({}:{})", a1(r + 1 - WINDOW, 0), a1(r, 0));
        e.update_cell(CellAddr::new(r, 1), &src).unwrap();
    }
    for r in 0..rows {
        e.update_cell(CellAddr::new(r, 2), &format!("={}*2-1", a1(r, 1)))
            .unwrap();
    }
    e.update_cell(CellAddr::new(0, 3), "1").unwrap();
    for r in 1..CHAIN.min(rows) {
        e.update_cell(CellAddr::new(r, 3), &format!("={}+1", a1(r - 1, 3)))
            .unwrap();
    }
    e
}

/// The batch share of a full cascade as a count: on the fill-down
/// corpus every sliding `SUM` is answered by one vectorized sweep and
/// every other formula by one tree walk, each exactly once, and the
/// values equal the scalar oracle's.
#[test]
fn fill_down_cascade_batches_every_sliding_run() {
    const ROWS: u32 = 4_000;
    let mut e = fill_down_corpus(ROWS);
    let window = Rect::new(0, 0, ROWS + 2, 6);
    e.set_scalar_recompute(true);
    e.recompute_all().unwrap();
    let want = e.get_cells(window);
    e.set_scalar_recompute(false);
    let registry = MetricsRegistry::new();
    let obs = EngineObs::new(&registry, "fill");
    e.set_obs(obs.clone());
    e.recompute_all().unwrap();
    let sliding = ROWS - (WINDOW - 1);
    assert_eq!(obs.batch_evals.get(), u64::from(sliding));
    let scalar = ROWS + CHAIN - 1;
    assert_eq!(obs.scalar_evals.get(), u64::from(scalar));
    assert_eq!(e.get_cells(window), want, "cascade diverged");
}
