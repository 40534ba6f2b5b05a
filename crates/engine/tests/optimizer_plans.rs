//! Every plan the optimizer returns is one `reorganize` can build: over
//! corpus sheets, stacked into tall sheets whose bands reach the 1 600-row
//! COM cap, under both cost models, `SheetEngine::optimize` succeeds and
//! keeps every cell.

#[path = "common/cells.rs"]
mod cells;

use cells::SheetCells;
use proptest::prelude::*;

use dataspread_corpus::{generate_corpus, CorpusName};
use dataspread_engine::{OptimizeAlgorithm, SheetEngine};
use dataspread_grid::{CellAddr, SparseSheet};
use dataspread_hybrid::{CostModel, OptimizerOptions};

/// `n` sheets of `corpus`, each placed below the last.
fn stacked(corpus: CorpusName, n: usize, seed: u64) -> SparseSheet {
    let mut out = SparseSheet::new();
    let mut top = 0;
    for sheet in generate_corpus(corpus, n, seed) {
        let Some(bbox) = sheet.bounding_box() else {
            continue;
        };
        for (addr, cell) in sheet.iter() {
            out.set(CellAddr::new(top + addr.row, addr.col), cell.clone());
        }
        top += bbox.r2 + 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn optimize_never_returns_a_plan_reorganize_rejects(
        corpus in 0usize..4,
        n in 1usize..16,
        seed in any::<u64>(),
    ) {
        let sheet = stacked(CorpusName::ALL[corpus], n, seed);
        let mut algorithms = vec![OptimizeAlgorithm::Agg, OptimizeAlgorithm::Greedy];
        if n == 1 {
            algorithms.push(OptimizeAlgorithm::Dp);
        }
        for cm in [CostModel::ideal(), CostModel::postgres()] {
            for &algorithm in &algorithms {
                let mut engine = SheetEngine::new();
                for (addr, cell) in sheet.iter() {
                    engine.storage_mut().put_cell(addr, cell.clone()).unwrap();
                }
                let report = engine.optimize(&cm, algorithm, &OptimizerOptions::default());
                prop_assert!(report.is_ok(), "{algorithm:?} under {cm:?}: {report:?}");
                prop_assert_eq!(&engine.snapshot(), &sheet);
            }
        }
    }
}
