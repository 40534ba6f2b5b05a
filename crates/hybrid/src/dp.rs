//! Optimal recursive decomposition via dynamic programming (paper §IV-D).
//!
//! `Opt(rect)` = min of (a) 0 when the rectangle holds no filled cell,
//! (b) storing the rectangle as a single table (ROM, and with the Theorem 6
//! extension also COM/RCV), (c) the best horizontal cut, (d) the best
//! vertical cut. Memoized over all O(n⁴) band sub-rectangles with O(n) cut
//! candidates each → O(n⁵) (Theorem 2). The decomposition is reconstructed
//! by re-evaluating the argmin along the optimal cut tree, which avoids
//! storing per-state choices.

use dataspread_grid::Rect;

use crate::model::{best_leaf, Decomposition, ModelKind, Region};
use crate::view::GridView;
use crate::{CostModel, OptimizerOptions};

/// Errors from the DP optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DpError {
    /// The (collapsed) grid exceeds `OptimizerOptions::dp_max_side`; use the
    /// greedy or aggressive-greedy optimizer instead.
    TooLarge { side: usize, max: usize },
}

impl std::fmt::Display for DpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DpError::TooLarge { side, max } => {
                write!(f, "grid side {side} exceeds DP limit {max}")
            }
        }
    }
}

impl std::error::Error for DpError {}

struct Dp<'a> {
    view: &'a GridView,
    cm: &'a CostModel,
    opts: &'a OptimizerOptions,
    /// Triangular offsets: state (r1<=r2) maps to roff[r1] + (r2-r1).
    roff: Vec<usize>,
    coff: Vec<usize>,
    ncp: usize,
    memo: Vec<f64>,
}

const UNSET: f64 = -1.0;
const EPS: f64 = 1e-6;

impl<'a> Dp<'a> {
    fn new(view: &'a GridView, cm: &'a CostModel, opts: &'a OptimizerOptions) -> Self {
        let (h, w) = (view.h(), view.w());
        let mut roff = Vec::with_capacity(h);
        let mut acc = 0usize;
        for r1 in 0..h {
            roff.push(acc);
            acc += h - r1;
        }
        let nrp = acc;
        let mut coff = Vec::with_capacity(w);
        let mut acc = 0usize;
        for c1 in 0..w {
            coff.push(acc);
            acc += w - c1;
        }
        let ncp = acc;
        Dp {
            view,
            cm,
            opts,
            roff,
            coff,
            ncp,
            memo: vec![UNSET; nrp * ncp],
        }
    }

    #[inline]
    fn idx(&self, r1: usize, r2: usize, c1: usize, c2: usize) -> usize {
        (self.roff[r1] + (r2 - r1)) * self.ncp + self.coff[c1] + (c2 - c1)
    }

    fn solve(&mut self, r1: usize, r2: usize, c1: usize, c2: usize) -> f64 {
        if self.view.filled_weighted(r1, c1, r2, c2) == 0 {
            return 0.0;
        }
        let idx = self.idx(r1, r2, c1, c2);
        let cached = self.memo[idx];
        if cached != UNSET {
            return cached;
        }
        let (mut best, _) = best_leaf(self.view, self.cm, self.opts, r1, c1, r2, c2);
        // Horizontal cuts (between row bands i and i+1).
        for i in r1..r2 {
            let top = self.solve(r1, i, c1, c2);
            if top >= best {
                continue;
            }
            let bottom = self.solve(i + 1, r2, c1, c2);
            let cost = top + bottom;
            if cost < best {
                best = cost;
            }
        }
        // Vertical cuts.
        for j in c1..c2 {
            let left = self.solve(r1, r2, c1, j);
            if left >= best {
                continue;
            }
            let right = self.solve(r1, r2, j + 1, c2);
            let cost = left + right;
            if cost < best {
                best = cost;
            }
        }
        self.memo[idx] = best;
        best
    }

    fn reconstruct(&mut self, r1: usize, r2: usize, c1: usize, c2: usize, out: &mut Vec<Region>) {
        if self.view.filled_weighted(r1, c1, r2, c2) == 0 {
            return;
        }
        let target = self.solve(r1, r2, c1, c2);
        let (leaf_cost, kind) = best_leaf(self.view, self.cm, self.opts, r1, c1, r2, c2);
        if leaf_cost <= target + EPS {
            out.push(Region {
                rect: self.view.band_rect(r1, c1, r2, c2),
                kind,
            });
            return;
        }
        for i in r1..r2 {
            if self.solve(r1, i, c1, c2) + self.solve(i + 1, r2, c1, c2) <= target + EPS {
                self.reconstruct(r1, i, c1, c2, out);
                self.reconstruct(i + 1, r2, c1, c2, out);
                return;
            }
        }
        for j in c1..c2 {
            if self.solve(r1, r2, c1, j) + self.solve(r1, r2, j + 1, c2) <= target + EPS {
                self.reconstruct(r1, r2, c1, j, out);
                self.reconstruct(r1, r2, j + 1, c2, out);
                return;
            }
        }
        unreachable!("memoized optimum must be attained by some candidate");
    }
}

/// Run the optimal recursive-decomposition DP over a (weighted) grid view.
///
/// Returns the optimal decomposition within the recursive-decomposition
/// space (Theorem 2); with the weighted view this equals the optimum over
/// the unweighted grid (Theorem 5).
pub fn optimize_dp(
    view: &GridView,
    cm: &CostModel,
    opts: &OptimizerOptions,
) -> Result<Decomposition, DpError> {
    if view.is_empty() {
        return Ok(Decomposition::default());
    }
    let side = view.h().max(view.w());
    if side > opts.dp_max_side {
        return Err(DpError::TooLarge {
            side,
            max: opts.dp_max_side,
        });
    }
    let mut dp = Dp::new(view, cm, opts);
    let (h, w) = (view.h(), view.w());
    dp.solve(0, h - 1, 0, w - 1);
    let mut regions = Vec::new();
    dp.reconstruct(0, h - 1, 0, w - 1, &mut regions);
    Ok(Decomposition::new(regions))
}

/// The DP objective value without materializing regions.
pub fn dp_cost(view: &GridView, cm: &CostModel, opts: &OptimizerOptions) -> Result<f64, DpError> {
    if view.is_empty() {
        return Ok(0.0);
    }
    let side = view.h().max(view.w());
    if side > opts.dp_max_side {
        return Err(DpError::TooLarge {
            side,
            max: opts.dp_max_side,
        });
    }
    let mut dp = Dp::new(view, cm, opts);
    Ok(dp.solve(0, view.h() - 1, 0, view.w() - 1))
}

/// Convenience: cost of a primitive single-table model over the whole view.
pub fn primitive_cost(view: &GridView, cm: &CostModel, kind: ModelKind) -> f64 {
    let Some(bbox) = view.bbox() else { return 0.0 };
    let rect = Rect::new(bbox.r1, bbox.c1, bbox.r2, bbox.c2);
    match kind {
        ModelKind::Rom | ModelKind::Tom => cm.rom(rect.rows(), rect.cols()),
        ModelKind::Com => cm.com(rect.rows(), rect.cols()),
        ModelKind::Rcv => cm.s1_table + cm.rcv(view.total_filled()),
        ModelKind::Columnar => cm.columnar(rect.cols(), view.total_filled()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_grid::{CellAddr, SparseSheet};
    use proptest::prelude::*;

    /// Cost of an explicit recursive decomposition given as a cut tree,
    /// each cut drawn by `rng_choice`: the alternatives DP must never lose to.
    fn explicit_tree_cost(
        view: &GridView,
        cm: &CostModel,
        opts: &OptimizerOptions,
        rect_bands: (usize, usize, usize, usize),
        rng_choice: &mut impl FnMut(usize) -> usize,
    ) -> f64 {
        let (r1, r2, c1, c2) = rect_bands;
        if view.filled_weighted(r1, c1, r2, c2) == 0 {
            return 0.0;
        }
        let h_cuts = r2 - r1;
        let v_cuts = c2 - c1;
        let n_choices = 1 + h_cuts + v_cuts;
        let choice = rng_choice(n_choices);
        if choice == 0 || n_choices == 1 {
            return best_leaf(view, cm, opts, r1, c1, r2, c2).0;
        }
        if choice <= h_cuts {
            let i = r1 + choice - 1;
            explicit_tree_cost(view, cm, opts, (r1, i, c1, c2), rng_choice)
                + explicit_tree_cost(view, cm, opts, (i + 1, r2, c1, c2), rng_choice)
        } else {
            let j = c1 + (choice - h_cuts - 1);
            explicit_tree_cost(view, cm, opts, (r1, r2, c1, j), rng_choice)
                + explicit_tree_cost(view, cm, opts, (r1, r2, j + 1, c2), rng_choice)
        }
    }

    fn sheet_from(cells: &[(u32, u32)]) -> SparseSheet {
        let mut s = SparseSheet::new();
        for &(r, c) in cells {
            s.set_value(CellAddr::new(r, c), 1i64);
        }
        s
    }

    /// Two dense tables far apart (Figure 9 style).
    fn two_tables() -> SparseSheet {
        let mut cells = Vec::new();
        for r in 0..4 {
            for c in 1..4 {
                cells.push((r, c));
            }
        }
        for r in 4..7 {
            for c in 3..7 {
                cells.push((r, c));
            }
        }
        sheet_from(&cells)
    }

    #[test]
    fn empty_sheet_yields_empty_decomposition() {
        let view = GridView::from_sheet(&SparseSheet::new());
        let d = optimize_dp(&view, &CostModel::postgres(), &OptimizerOptions::default()).unwrap();
        assert_eq!(d.table_count(), 0);
    }

    #[test]
    fn dense_block_stays_single_rom_table() {
        // Large enough that ROM's fixed page cost amortizes away; a small
        // block would legitimately prefer RCV under PostgreSQL constants
        // (s1 = 8 KB dominates). 2000 rows also rules COM out via the
        // 1600-column relation-width cap (COM would need one column per
        // sheet row).
        let mut s = SparseSheet::new();
        for r in 0..2000 {
            for c in 0..10 {
                s.set_value(CellAddr::new(r, c), 1i64);
            }
        }
        let view = GridView::from_sheet(&s);
        let cm = CostModel::postgres();
        let d = optimize_dp(&view, &cm, &OptimizerOptions::default()).unwrap();
        assert_eq!(d.table_count(), 1);
        assert!(d.is_recoverable(&s));
        assert_eq!(d.regions[0].kind, ModelKind::Rom);
    }

    #[test]
    fn sparse_scatter_prefers_rcv_under_postgres() {
        // A few cells scattered over a wide area: per-cell RCV tuples beat
        // a mostly-empty ROM table (paper takeaway 1).
        let mut s = SparseSheet::new();
        for i in 0..10u32 {
            s.set_value(CellAddr::new(i * 5, (i * 7) % 50), 1i64);
        }
        let view = GridView::from_sheet(&s);
        let cm = CostModel::postgres();
        let d = optimize_dp(&view, &cm, &OptimizerOptions::default()).unwrap();
        assert!(
            d.regions.iter().all(|r| r.kind == ModelKind::Rcv),
            "scatter should land in RCV, got {:?}",
            d.regions
        );
    }

    #[test]
    fn dp_separates_distant_tables_under_ideal_model() {
        let s = two_tables();
        let view = GridView::from_sheet(&s);
        let cm = CostModel::ideal();
        let d = optimize_dp(&view, &cm, &OptimizerOptions::default()).unwrap();
        assert!(d.is_recoverable(&s));
        assert!(!d.has_overlaps());
        // Splitting must beat the single bounding ROM (lots of empty cells).
        let single = primitive_cost(&view, &cm, ModelKind::Rom);
        assert!(d.storage_cost(&view, &cm) < single);
        assert!(d.table_count() >= 2);
    }

    #[test]
    fn dp_cost_matches_decomposition_cost_without_rcv() {
        let s = two_tables();
        let view = GridView::from_sheet(&s);
        let cm = CostModel::ideal();
        let opts = OptimizerOptions {
            models: crate::ModelSet::ROM_ONLY,
            ..OptimizerOptions::default()
        };
        let d = optimize_dp(&view, &cm, &opts).unwrap();
        let cost = dp_cost(&view, &cm, &opts).unwrap();
        assert!((d.storage_cost(&view, &cm) - cost).abs() < 1e-9);
    }

    #[test]
    fn weighted_equals_unweighted_optimum() {
        // Theorem 5 on a concrete sheet.
        let s = two_tables();
        let cm = CostModel::postgres();
        let opts = OptimizerOptions::default();
        let wcost = dp_cost(&GridView::from_sheet(&s), &cm, &opts).unwrap();
        let ucost = dp_cost(&GridView::from_sheet_unweighted(&s), &cm, &opts).unwrap();
        assert!(
            (wcost - ucost).abs() < 1e-6,
            "weighted {wcost} vs unweighted {ucost}"
        );
    }

    #[test]
    fn too_large_is_reported() {
        let mut s = SparseSheet::new();
        // A diagonal never collapses: n distinct rows and columns.
        for i in 0..40u32 {
            s.set_value(CellAddr::new(i, i), 1i64);
        }
        let view = GridView::from_sheet(&s);
        let opts = OptimizerOptions {
            dp_max_side: 16,
            ..OptimizerOptions::default()
        };
        assert!(matches!(
            optimize_dp(&view, &CostModel::postgres(), &opts),
            Err(DpError::TooLarge { .. })
        ));
    }

    #[test]
    fn counterexample_figure_10a_is_approximated_not_matched() {
        // The four-table pinwheel cannot be produced by recursive cuts
        // (Observation 1); the DP must still return a recoverable
        // decomposition.
        let mut cells = Vec::new();
        for r in 0..4 {
            for c in 0..2 {
                cells.push((r, c));
            }
        }
        for r in 0..2 {
            for c in 3..9 {
                cells.push((r, c));
            }
        }
        for r in 5..7 {
            for c in 0..6 {
                cells.push((r, c));
            }
        }
        for r in 3..7 {
            for c in 7..9 {
                cells.push((r, c));
            }
        }
        let s = sheet_from(&cells);
        let view = GridView::from_sheet(&s);
        let d = optimize_dp(&view, &CostModel::ideal(), &OptimizerOptions::default()).unwrap();
        assert!(d.is_recoverable(&s));
        assert!(
            d.table_count() >= 4,
            "pinwheel needs at least 4 pieces + extras"
        );
    }

    /// Random small sheets: a few dense blocks plus scattered cells in a
    /// 16x16 window (small enough for the unweighted DP).
    fn sheet_strategy() -> impl Strategy<Value = SparseSheet> {
        let block = (0u32..12, 0u32..12, 1u32..6, 1u32..6);
        (
            prop::collection::vec(block, 0..4),
            prop::collection::vec((0u32..16, 0u32..16), 0..10),
        )
            .prop_map(|(blocks, scatter)| {
                let mut s = SparseSheet::new();
                for (r, c, h, w) in blocks {
                    for dr in 0..h {
                        for dc in 0..w {
                            s.set_value(CellAddr::new(r + dr, c + dc), 1i64);
                        }
                    }
                }
                for (r, c) in scatter {
                    s.set_value(CellAddr::new(r, c), 1i64);
                }
                s
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// DP never exceeds the cost of any explicitly sampled recursive
        /// decomposition (Theorem 2).
        #[test]
        fn dp_beats_random_recursive_decompositions(
            sheet in sheet_strategy(),
            cm in prop_oneof![Just(CostModel::postgres()), Just(CostModel::ideal())],
            seeds in prop::collection::vec(any::<u64>(), 4),
        ) {
            let view = GridView::from_sheet(&sheet);
            let opts = OptimizerOptions::default();
            let Ok(dp) = dp_cost(&view, &cm, &opts) else { return Ok(()); };
            if view.is_empty() {
                prop_assert_eq!(dp, 0.0);
                return Ok(());
            }
            let bands = (0, view.h() - 1, 0, view.w() - 1);
            for seed in seeds {
                let mut state = seed | 1;
                let mut pick = move |n: usize| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    ((state >> 33) as usize) % n
                };
                let sampled = explicit_tree_cost(&view, &cm, &opts, bands, &mut pick);
                prop_assert!(
                    dp <= sampled + 1e-6,
                    "dp {} beat by sampled recursive decomposition {}", dp, sampled
                );
            }
        }
    }
}
