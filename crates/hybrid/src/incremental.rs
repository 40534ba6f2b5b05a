//! Incremental maintenance of hybrid decompositions (paper Appendix A-C2).
//!
//! After user edits, re-optimizing from scratch would migrate every cell
//! into fresh tables. The incremental optimizer adds a *keep-as-is*
//! candidate for rectangles that exactly match a table of the existing
//! decomposition (no migration charge, Equation 21) and charges
//! `η · #populated-cells` for any region that must be (re)materialized
//! (Equation 22). `η` trades migration time against storage optimality
//! (Figure 26a).

use std::collections::HashMap;

use dataspread_grid::Rect;

use crate::model::{best_leaf, Decomposition, ModelKind, Region};
use crate::view::{GridView, Occupancy};
use crate::{CostModel, OptimizerOptions};

/// Options for incremental maintenance.
#[derive(Debug, Clone)]
pub struct IncrementalOptions {
    /// Migration-cost factor η; 0 re-optimizes from scratch, large values
    /// freeze the current decomposition.
    pub eta: f64,
    pub base: OptimizerOptions,
}

impl Default for IncrementalOptions {
    fn default() -> Self {
        IncrementalOptions {
            eta: 1.0,
            base: OptimizerOptions::default(),
        }
    }
}

/// Statistics of an incremental re-optimization.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationStats {
    /// Populated cells moved into new tables.
    pub migrated_cells: u64,
    /// Tables of the old decomposition kept as-is.
    pub kept_tables: usize,
    /// Total tables in the new decomposition.
    pub new_tables: usize,
}

struct Ctx<'a> {
    view: &'a GridView,
    cm: &'a CostModel,
    opts: &'a OptimizerOptions,
    eta: f64,
    old: &'a HashMap<Rect, ModelKind>,
    /// Absolute row/column boundaries of old regions. Cuts along these are
    /// preferred on cost ties, so the recursion can *reach* old rectangles
    /// as keep candidates instead of slicing past them.
    old_row_bounds: std::collections::HashSet<u32>,
    old_col_bounds: std::collections::HashSet<u32>,
}

/// Leaf candidates: keep (exact old-table match, no migration) vs rebuild
/// (best model + η·filled migration charge). Returns (cost, region, kept).
fn leaf_choice(ctx: &Ctx<'_>, r1: usize, c1: usize, r2: usize, c2: usize) -> (f64, Region, bool) {
    let rect = ctx.view.band_rect(r1, c1, r2, c2);
    let filled = ctx.view.filled_weighted(r1, c1, r2, c2);
    let (rebuild_cost, kind) = best_leaf(ctx.view, ctx.cm, ctx.opts, r1, c1, r2, c2);
    let rebuild = (
        rebuild_cost + ctx.eta * filled as f64,
        Region { rect, kind },
        false,
    );
    match ctx.old.get(&rect) {
        Some(&old_kind) => {
            let rows = ctx.view.rows_weight(r1, r2);
            let cols = ctx.view.cols_weight(c1, c2);
            let keep_cost = match old_kind {
                ModelKind::Rom | ModelKind::Tom => ctx.cm.rom(rows, cols),
                ModelKind::Com => ctx.cm.com(rows, cols),
                ModelKind::Rcv => ctx.cm.rcv_table(filled),
                ModelKind::Columnar => ctx.cm.columnar(cols, filled),
            };
            if keep_cost <= rebuild.0 {
                (
                    keep_cost,
                    Region {
                        rect,
                        kind: old_kind,
                    },
                    true,
                )
            } else {
                rebuild
            }
        }
        None => rebuild,
    }
}

fn fully_dense(view: &GridView, r1: usize, c1: usize, r2: usize, c2: usize) -> bool {
    let area = view.rows_weight(r1, r2) * view.cols_weight(c1, c2);
    view.filled_weighted(r1, c1, r2, c2) == area
}

/// Aggressive-greedy recursion with the keep-as-is candidate.
fn agg_rec(
    ctx: &Ctx<'_>,
    r1: usize,
    c1: usize,
    r2: usize,
    c2: usize,
) -> (f64, Vec<(Region, bool)>) {
    if ctx.view.filled_weighted(r1, c1, r2, c2) == 0 {
        return (0.0, Vec::new());
    }
    let (leaf_cost, leaf_region, kept) = leaf_choice(ctx, r1, c1, r2, c2);
    // Uniform regions can't profit from further cuts, but a kept table
    // match still matters — leaf_choice already handled it.
    if fully_dense(ctx.view, r1, c1, r2, c2) && (r1 == r2 && c1 == c2) {
        return (leaf_cost, vec![(leaf_region, kept)]);
    }
    // Best local cut by rebuild-leaf costs (same rule as plain Agg, with
    // migration charges so keeping big old tables stays attractive). On
    // cost ties, cuts along old-region boundaries win so keep candidates
    // stay reachable by the recursion.
    let mut best_cut: Option<(bool, usize, f64, bool)> = None;
    let leaf0 = |r1: usize, c1: usize, r2: usize, c2: usize| -> f64 {
        if ctx.view.filled_weighted(r1, c1, r2, c2) == 0 {
            0.0
        } else {
            leaf_choice(ctx, r1, c1, r2, c2).0
        }
    };
    let better = |cost: f64, pref: bool, best: &Option<(bool, usize, f64, bool)>| -> bool {
        match best {
            None => true,
            Some((_, _, b, bpref)) => {
                let tol = 1e-9 * b.abs().max(1.0);
                cost < b - tol || (cost < b + tol && pref && !bpref)
            }
        }
    };
    for i in r1..r2 {
        let cost = leaf0(r1, c1, i, c2) + leaf0(i + 1, c1, r2, c2);
        let boundary = ctx.view.band_rect(i, c1, i, c1).r2 + 1;
        let pref = ctx.old_row_bounds.contains(&boundary);
        if better(cost, pref, &best_cut) {
            best_cut = Some((true, i, cost, pref));
        }
    }
    for j in c1..c2 {
        let cost = leaf0(r1, c1, r2, j) + leaf0(r1, j + 1, r2, c2);
        let boundary = ctx.view.band_rect(r1, j, r1, j).c2 + 1;
        let pref = ctx.old_col_bounds.contains(&boundary);
        if better(cost, pref, &best_cut) {
            best_cut = Some((false, j, cost, pref));
        }
    }
    let Some((horizontal, at, _, _)) = best_cut else {
        return (leaf_cost, vec![(leaf_region, kept)]);
    };
    let ((ca, ra), (cb, rb)) = if horizontal {
        (
            agg_rec(ctx, r1, c1, at, c2),
            agg_rec(ctx, at + 1, c1, r2, c2),
        )
    } else {
        (
            agg_rec(ctx, r1, c1, r2, at),
            agg_rec(ctx, r1, at + 1, r2, c2),
        )
    };
    let split = ca + cb;
    if leaf_cost <= split {
        (leaf_cost, vec![(leaf_region, kept)])
    } else {
        let mut regions = ra;
        regions.extend(rb);
        (split, regions)
    }
}

/// Incrementally re-optimize: keeps old tables where worthwhile, charges
/// `η · migCost` for regions that change (paper Appendix A-C2, Figure 26).
pub fn incremental_agg(
    occupancy: &Occupancy,
    old: &Decomposition,
    cm: &CostModel,
    opts: &IncrementalOptions,
) -> (Decomposition, MigrationStats) {
    // Force band boundaries at old-region edges so "keep" rectangles remain
    // expressible in band coordinates.
    let mut row_bounds = Vec::new();
    let mut col_bounds = Vec::new();
    for region in &old.regions {
        row_bounds.push(region.rect.r1);
        row_bounds.push(region.rect.r2 + 1);
        col_bounds.push(region.rect.c1);
        col_bounds.push(region.rect.c2 + 1);
    }
    let view = GridView::from_occupancy(occupancy, &row_bounds, &col_bounds, None);
    if view.is_empty() {
        return (Decomposition::default(), MigrationStats::default());
    }
    let old_map: HashMap<Rect, ModelKind> = old
        .regions
        .iter()
        .map(|region| (region.rect, region.kind))
        .collect();
    let ctx = Ctx {
        view: &view,
        cm,
        opts: &opts.base,
        eta: opts.eta,
        old: &old_map,
        old_row_bounds: row_bounds.iter().copied().collect(),
        old_col_bounds: col_bounds.iter().copied().collect(),
    };
    let (_, tagged) = agg_rec(&ctx, 0, 0, view.h() - 1, view.w() - 1);
    let mut stats = MigrationStats {
        new_tables: tagged.len(),
        ..MigrationStats::default()
    };
    let mut regions = Vec::with_capacity(tagged.len());
    for (region, kept) in tagged {
        if kept {
            stats.kept_tables += 1;
        } else {
            stats.migrated_cells += view.filled_in(&region.rect);
        }
        regions.push(region);
    }
    (Decomposition::new(regions), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::optimize_agg;
    use dataspread_grid::{CellAddr, SparseSheet};

    fn dense_sheet(r1: u32, c1: u32, r2: u32, c2: u32) -> SparseSheet {
        let mut s = SparseSheet::new();
        for r in r1..=r2 {
            for c in c1..=c2 {
                s.set_value(CellAddr::new(r, c), 1i64);
            }
        }
        s
    }

    #[test]
    fn unchanged_sheet_keeps_everything() {
        let s = dense_sheet(0, 0, 9, 4);
        let view = GridView::from_sheet(&s);
        let cm = CostModel::postgres();
        let old = optimize_agg(&view, &cm, &OptimizerOptions::default());
        let (new, stats) = incremental_agg(
            &Occupancy::of(&s),
            &old,
            &cm,
            &IncrementalOptions::default(),
        );
        assert_eq!(stats.migrated_cells, 0);
        assert_eq!(stats.kept_tables, old.table_count());
        assert!(new.is_recoverable(&s));
    }

    #[test]
    fn large_eta_freezes_decomposition() {
        let mut s = dense_sheet(0, 0, 9, 4);
        let view = GridView::from_sheet(&s);
        let cm = CostModel::postgres();
        let old = optimize_agg(&view, &cm, &OptimizerOptions::default());
        // Diverge: add a second dense block.
        for r in 20..30 {
            for c in 0..5 {
                s.set_value(CellAddr::new(r, c), 1i64);
            }
        }
        let (new, stats) = incremental_agg(
            &Occupancy::of(&s),
            &old,
            &cm,
            &IncrementalOptions {
                eta: 1e12,
                ..IncrementalOptions::default()
            },
        );
        // The old table must be kept; only the new block migrates.
        assert!(stats.kept_tables >= 1, "huge eta must keep the old table");
        assert!(new.is_recoverable(&s));
        assert!(stats.migrated_cells <= 50);
    }

    #[test]
    fn zero_eta_matches_from_scratch_cost() {
        let mut s = dense_sheet(0, 0, 5, 5);
        for r in 30..34 {
            for c in 10..14 {
                s.set_value(CellAddr::new(r, c), 1i64);
            }
        }
        let cm = CostModel::postgres();
        let old = Decomposition::default(); // nothing to keep
        let (new, stats) = incremental_agg(
            &Occupancy::of(&s),
            &old,
            &cm,
            &IncrementalOptions {
                eta: 0.0,
                ..IncrementalOptions::default()
            },
        );
        let scratch = optimize_agg(&GridView::from_sheet(&s), &cm, &OptimizerOptions::default());
        let view = GridView::from_sheet(&s);
        assert!((new.storage_cost(&view, &cm) - scratch.storage_cost(&view, &cm)).abs() < 1e-6);
        assert_eq!(stats.kept_tables, 0);
        assert_eq!(stats.migrated_cells, s.filled_count() as u64);
    }

    #[test]
    fn eta_monotonicity_storage_vs_migration() {
        // Higher eta ⇒ fewer migrated cells, storage no better (Fig 26a).
        let mut s = dense_sheet(0, 0, 9, 9);
        let view0 = GridView::from_sheet(&s);
        let cm = CostModel::postgres();
        let old = optimize_agg(&view0, &cm, &OptimizerOptions::default());
        for r in 0..10 {
            for c in 30..33 {
                s.set_value(CellAddr::new(r, c), 1i64);
            }
        }
        for r in 40..45 {
            s.set_value(CellAddr::new(r, 0), 1i64);
        }
        let mut prev_migrated = u64::MAX;
        for eta in [0.0, 10.0, 1e6] {
            let (_, stats) = incremental_agg(
                &Occupancy::of(&s),
                &old,
                &cm,
                &IncrementalOptions {
                    eta,
                    ..IncrementalOptions::default()
                },
            );
            assert!(
                stats.migrated_cells <= prev_migrated,
                "eta {eta}: migration should not increase"
            );
            prev_migrated = stats.migrated_cells;
        }
    }
}
