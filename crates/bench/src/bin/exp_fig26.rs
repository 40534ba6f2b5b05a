//! Figure 26: incremental hybrid decomposition.
//!
//! (a) the η trade-off — higher migration penalties mean fewer migrated
//! cells but worse storage;
//! (b) storage vs user operations — re-optimizing incrementally after each
//! batch of 1 000 edits from the survey-derived mix yields the paper's
//! sawtooth: storage drifts up as the sheet diverges, then drops when the
//! optimizer decides migration pays off.

use dataspread_corpus::{apply_op, multi_table_sheet, OpMix, UserOp};
use dataspread_grid::SparseSheet;
use dataspread_hybrid::{
    incremental_agg, optimize_agg, CostModel, Decomposition, GridView, IncrementalOptions,
    Occupancy, OptimizerOptions,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Keep a decomposition's rectangles aligned with the sheet across
/// structural edits (what the engine's hybrid layer does for real storage).
fn shift_decomp(decomp: &mut Decomposition, op: UserOp) {
    match op {
        UserOp::AddRow(at) => {
            for region in &mut decomp.regions {
                if at <= region.rect.r1 {
                    region.rect = region.rect.translate(1, 0);
                } else if at <= region.rect.r2 {
                    region.rect.r2 += 1;
                }
            }
        }
        UserOp::AddCol(at) => {
            for region in &mut decomp.regions {
                if at <= region.rect.c1 {
                    region.rect = region.rect.translate(0, 1);
                } else if at <= region.rect.c2 {
                    region.rect.c2 += 1;
                }
            }
        }
        UserOp::UpdateCell(_) | UserOp::AddCell(_) => {}
    }
}

/// Apply one sampled op to the sheet and the tracked decomposition.
fn step(sheet: &mut SparseSheet, decomp: &mut Decomposition, mix: &OpMix, rng: &mut StdRng) {
    let op = mix.sample(sheet, rng);
    shift_decomp(decomp, op);
    apply_op(sheet, op, rng);
}

fn main() {
    let cm = CostModel::postgres();
    let opts = OptimizerOptions::default();

    // ----- (a) the η trade-off ----------------------------------------
    println!("Figure 26(a): eta trade-off (diverged sheet, incremental Agg)\n");
    println!(
        "{:>10} {:>16} {:>16} {:>12}",
        "eta", "migrated cells", "storage cost", "kept tables"
    );
    let synth = multi_table_sheet(8, 30, 10, 0.5, 0, 26);
    let mut sheet = synth.sheet.clone();
    let mut old = optimize_agg(&GridView::from_sheet(&sheet), &cm, &opts);
    // Diverge the sheet with 2k edits, keeping the old decomposition's
    // rectangles aligned (as the engine's region metadata would be).
    let mix = OpMix::default();
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..2_000 {
        step(&mut sheet, &mut old, &mix, &mut rng);
    }
    for &eta in &[0.0, 0.1, 1.0, 10.0, 100.0, 1e6] {
        let (decomp, stats) = incremental_agg(
            &Occupancy::of(&sheet),
            &old,
            &cm,
            &IncrementalOptions {
                eta,
                base: opts.clone(),
            },
        );
        let view = GridView::from_sheet(&sheet);
        println!(
            "{:>10} {:>16} {:>16.0} {:>12}",
            eta,
            stats.migrated_cells,
            decomp.storage_cost(&view, &cm),
            stats.kept_tables,
        );
    }
    println!("\npaper shape: migration falls and storage rises monotonically with eta;\nbeyond eta~100 the old decomposition is frozen (zero migration).\n");

    // ----- (b) user operations vs storage ------------------------------
    println!("Figure 26(b): storage vs user operations (batches of 1000, eta = 1)\n");
    println!(
        "{:>8} {:>16} {:>16} {:>10} {:>8}",
        "ops", "storage (cur)", "storage (opt)", "migrated", "kept/new"
    );
    let synth = multi_table_sheet(8, 30, 10, 0.6, 0, 27);
    let mut sheet = synth.sheet.clone();
    let mut current = optimize_agg(&GridView::from_sheet(&sheet), &cm, &opts);
    let mut rng = StdRng::seed_from_u64(7);
    for batch in 1..=10 {
        for _ in 0..1_000 {
            step(&mut sheet, &mut current, &mix, &mut rng);
        }
        let view = GridView::from_sheet(&sheet);
        // What the *current* (stale) decomposition costs: regions may no
        // longer cover everything, so re-cost a decomposition that adds a
        // catch-all for uncovered cells via the incremental keep-everything
        // path (eta huge = frozen).
        let (frozen, _) = incremental_agg(
            &Occupancy::of(&sheet),
            &current,
            &cm,
            &IncrementalOptions {
                eta: 1e12,
                base: opts.clone(),
            },
        );
        let stale_cost = frozen.storage_cost(&view, &cm);
        let (next, stats) = incremental_agg(
            &Occupancy::of(&sheet),
            &current,
            &cm,
            &IncrementalOptions {
                eta: 1.0,
                base: opts.clone(),
            },
        );
        let new_cost = next.storage_cost(&view, &cm);
        println!(
            "{:>8} {:>16.0} {:>16.0} {:>10} {:>6}/{}",
            batch * 1000,
            stale_cost,
            new_cost,
            stats.migrated_cells,
            stats.kept_tables,
            stats.new_tables,
        );
        current = next;
    }
    println!("\npaper shape: a sawtooth — the frozen layout's cost drifts upward between\nre-optimizations; migrations (nonzero 'migrated') pull it back down.");
}
