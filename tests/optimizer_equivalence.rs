//! The optimizer reads occupancy off the storage scan; it used to read a
//! `SparseSheet` of cloned cells. Same input, same plan: on the synthetic
//! corpora the occupancy-fed `GridView` is the sheet-fed one — bands,
//! weights, bounding box — and `SheetEngine::optimize` returns the
//! decomposition the snapshot path returned, under both cost models, for
//! all four algorithms, on a sheet held in the catch-all alone and again
//! once it is spread over the regions of a first optimization.

use dataspread::corpus::{generate_corpus, CorpusName};
use dataspread::engine::{EngineError, ModelKind, OptimizeAlgorithm, SheetEngine};
use dataspread::grid::{ScanValue, SparseSheet};
use dataspread::hybrid::{
    incremental_agg, optimize_agg, optimize_dp, optimize_greedy, CostModel, Decomposition,
    GridView, IncrementalOptions, Occupancy, OptimizerOptions, Region,
};

const SHEETS_PER_CORPUS: usize = if cfg!(debug_assertions) { 2 } else { 8 };

fn corpus() -> Vec<(String, SparseSheet)> {
    CorpusName::ALL
        .into_iter()
        .flat_map(|name| {
            generate_corpus(name, SHEETS_PER_CORPUS, 20_180_416)
                .into_iter()
                .enumerate()
                .map(move |(i, sheet)| (format!("{name} #{i}"), sheet))
        })
        .collect()
}

fn load(sheet: &SparseSheet) -> SheetEngine {
    let mut engine = SheetEngine::new();
    for (addr, cell) in sheet.iter() {
        let value = ScanValue::of(&cell.value);
        engine
            .storage_mut()
            .set_cell(addr, value, cell.formula.as_deref())
            .unwrap();
    }
    engine
}

/// What `optimize` did before it asked storage for occupancy.
fn snapshot_path(
    engine: &SheetEngine,
    cm: &CostModel,
    algorithm: OptimizeAlgorithm,
    opts: &OptimizerOptions,
) -> Option<Decomposition> {
    let snapshot = engine.storage().snapshot(false);
    let view = match cm.max_table_cols {
        Some(cap) => GridView::from_sheet_capped(&snapshot, u32::MAX, cap as u32),
        None => GridView::from_sheet(&snapshot),
    };
    match algorithm {
        OptimizeAlgorithm::Dp => optimize_dp(&view, cm, opts).ok(),
        OptimizeAlgorithm::Greedy => Some(optimize_greedy(&view, cm, opts)),
        OptimizeAlgorithm::Agg => Some(optimize_agg(&view, cm, opts)),
        OptimizeAlgorithm::IncrementalAgg { eta } => {
            let old = Decomposition::new(
                engine
                    .storage()
                    .layout()
                    .into_iter()
                    .filter(|(_, kind)| *kind != ModelKind::Tom)
                    .map(|(rect, kind)| Region { rect, kind })
                    .collect(),
            );
            let opts = IncrementalOptions {
                eta,
                base: opts.clone(),
            };
            Some(incremental_agg(&Occupancy::of(&snapshot), &old, cm, &opts).0)
        }
    }
}

#[test]
fn a_grid_view_over_scanned_occupancy_is_the_view_over_the_sheet() {
    for (name, sheet) in corpus() {
        let mut engine = load(&sheet);
        for spread in [false, true] {
            if spread {
                let opts = OptimizerOptions::default();
                engine
                    .optimize(&CostModel::ideal(), OptimizeAlgorithm::Agg, &opts)
                    .unwrap();
                assert!(engine.storage().region_count() > 0, "{name}");
            }
            let occupancy = engine.storage().occupancy(false);
            let snapshot = engine.storage().snapshot(false);
            assert_eq!(snapshot, sheet, "{name}");
            assert_eq!(occupancy, Occupancy::of(&sheet), "{name} spread={spread}");
            assert_eq!(occupancy.bounding_box(), sheet.bounding_box(), "{name}");
            let bbox = sheet.bounding_box().expect("corpus sheets are not empty");
            let row_bounds = [bbox.r1 + 1, (bbox.r1 + bbox.r2) / 2, bbox.r2 + 1];
            let col_bounds = [bbox.c1, (bbox.c1 + bbox.c2) / 2 + 1];
            for (what, from_occupancy, from_sheet) in [
                (
                    "from_sheet",
                    GridView::from_occupancy(&occupancy, &[], &[], None),
                    GridView::from_sheet(&sheet),
                ),
                (
                    "from_sheet_capped",
                    GridView::from_occupancy(&occupancy, &[], &[], Some((7, 3))),
                    GridView::from_sheet_capped(&sheet, 7, 3),
                ),
                (
                    "with_boundaries",
                    GridView::from_occupancy(&occupancy, &row_bounds, &col_bounds, None),
                    GridView::with_boundaries(&sheet, &row_bounds, &col_bounds),
                ),
            ] {
                assert_eq!(from_occupancy, from_sheet, "{name} spread={spread}: {what}");
                assert_eq!(from_occupancy.bbox(), Some(bbox), "{name}: {what}");
                assert_eq!(
                    from_occupancy.total_filled(),
                    sheet.filled_count() as u64,
                    "{name}: {what}"
                );
            }
        }
    }
}

#[test]
fn optimize_returns_the_decomposition_the_snapshot_path_returned() {
    let opts = OptimizerOptions::default();
    let algorithms = [
        OptimizeAlgorithm::Dp,
        OptimizeAlgorithm::Greedy,
        OptimizeAlgorithm::Agg,
        OptimizeAlgorithm::IncrementalAgg { eta: 1.0 },
    ];
    let mut compared = 0;
    for (name, sheet) in corpus() {
        for (model, cm) in [
            ("postgres", CostModel::postgres()),
            ("ideal", CostModel::ideal()),
        ] {
            for algorithm in algorithms {
                let mut engine = load(&sheet);
                // Twice: from the catch-all, then from the regions the
                // first pass laid out (what IncrementalAgg keeps or moves).
                for pass in 0..2 {
                    let ctx = format!("{name} {model} {algorithm:?} pass {pass}");
                    let want = snapshot_path(&engine, &cm, algorithm, &opts);
                    match (engine.optimize(&cm, algorithm, &opts), want) {
                        (Ok(report), Some(want)) => {
                            assert_eq!(report.decomposition, want, "{ctx}");
                            compared += 1;
                        }
                        // A grid too large for the DP: both paths refuse.
                        (Err(EngineError::Unsupported(_)), None) => {}
                        // A plan `reorganize` cannot execute (a COM tuple
                        // past its page, ROADMAP item 3) returns no
                        // decomposition to compare; the sheet is untouched.
                        (Err(EngineError::Store(_)), Some(_)) => {}
                        (got, want) => panic!("{ctx}: {got:?} vs {want:?}"),
                    }
                    assert_eq!(engine.storage().snapshot(true), sheet, "{ctx}");
                }
            }
        }
    }
    let cases = corpus().len() * 2 * algorithms.len() * 2;
    assert!(
        compared * 10 >= cases * 9,
        "only {compared} of {cases} cases returned a decomposition to compare"
    );
}
