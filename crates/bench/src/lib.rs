//! Shared infrastructure for the experiment harnesses.
//!
//! One `exp_*` binary per paper table/figure lives in `src/bin/`. This
//! library provides the common pieces: timing, corpus loading, hybrid-storage loading, and the
//! storage-level position-as-is/monotonic baselines of Table II & Figure 18.

pub mod posmark;

use std::time::{Duration, Instant};

use dataspread_analysis::{analyze_sheet, SheetAnalysis, TabularConfig};
use dataspread_corpus::{generate_corpus, CorpusName};
use dataspread_engine::hybrid::HybridSheet;
use dataspread_engine::rom::RomTranslator;
use dataspread_engine::Translator;
use dataspread_grid::{Cell, Rect, SparseSheet};
use dataspread_hybrid::{Decomposition, ModelKind, Region};

/// Environment knob: number of sheets per synthetic corpus
/// (`DS_CORPUS_SHEETS`, default 150 — large enough for stable statistics,
/// small enough for CI).
pub fn corpus_size() -> usize {
    std::env::var("DS_CORPUS_SHEETS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(150)
}

/// Generate all four corpora with their analyses.
pub fn corpora_with_analyses() -> Vec<(CorpusName, Vec<SparseSheet>, Vec<SheetAnalysis>)> {
    CorpusName::ALL
        .into_iter()
        .map(|name| {
            let sheets = generate_corpus(name, corpus_size(), 20_180_416);
            let analyses = sheets
                .iter()
                .map(|s| analyze_sheet(s, &TabularConfig::default()))
                .collect();
            (name, sheets, analyses)
        })
        .collect()
}

/// Median wall time of `f` over `reps` runs.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> Duration {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed());
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// Time a single run.
pub fn time_once(f: impl FnOnce()) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Load a sparse sheet into hybrid storage under a given decomposition.
pub fn load_hybrid(sheet: &SparseSheet, decomp: &Decomposition) -> HybridSheet {
    let mut hs = HybridSheet::new();
    hs.reorganize(decomp).expect("fresh reorganize");
    for (addr, cell) in sheet.iter() {
        hs.set_cell(addr, cell.clone()).expect("load cell");
    }
    hs
}

/// Single-model decompositions over a sheet's bounding box.
pub fn single_model(sheet: &SparseSheet, kind: ModelKind) -> Decomposition {
    match sheet.bounding_box() {
        Some(rect) => Decomposition::new(vec![Region { rect, kind }]),
        None => Decomposition::default(),
    }
}

/// Fast-path: load a fully dense `rows x cols` sheet as one bulk-loaded ROM
/// region (Figures 18 / 22–24 substrate).
pub fn dense_rom(rows: u32, cols: u32) -> HybridSheet {
    let mut hs = HybridSheet::new();
    let rom = RomTranslator::bulk_load_rows(
        cols,
        (0..rows).map(|r| {
            (0..cols)
                .map(|c| Cell::value((r as i64) * cols as i64 + c as i64))
                .collect()
        }),
    )
    .expect("bulk load");
    let rect = Rect::new(0, 0, rows - 1, cols - 1);
    hs.add_region(rect, Box::new(rom)).expect("add region");
    hs
}

/// Load a dense sheet into a single RCV region (per-cell tuples).
pub fn dense_rcv(rows: u32, cols: u32, density: f64) -> HybridSheet {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1);
    let mut hs = HybridSheet::new();
    let mut rcv = dataspread_engine::rcv::RcvTranslator::new();
    for r in 0..rows {
        for c in 0..cols {
            if density >= 1.0 || rng.gen_bool(density) {
                rcv.set_cell(r, c, Cell::value((r as i64) * cols as i64 + c as i64))
                    .expect("set");
            }
        }
    }
    hs.add_region(Rect::new(0, 0, rows - 1, cols - 1), Box::new(rcv))
        .expect("add region");
    hs
}

/// Dense ROM with random blanks (density sweeps of Figures 22–24).
pub fn sparse_rom(rows: u32, cols: u32, density: f64) -> HybridSheet {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1);
    let mut hs = HybridSheet::new();
    let rom = RomTranslator::bulk_load_rows(
        cols,
        (0..rows).map(|r| {
            (0..cols)
                .map(|c| {
                    if density >= 1.0 || rng.gen_bool(density) {
                        Cell::value((r as i64) * cols as i64 + c as i64)
                    } else {
                        Cell::default()
                    }
                })
                .collect()
        }),
    )
    .expect("bulk load");
    hs.add_region(Rect::new(0, 0, rows - 1, cols - 1), Box::new(rom))
        .expect("add region");
    hs
}

/// Pretty milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

/// Normalize a series so the worst value is 100 (Figure 13's presentation).
pub fn normalize_to_worst(values: &[f64]) -> Vec<f64> {
    let worst = values.iter().cloned().fold(f64::MIN, f64::max);
    values
        .iter()
        .map(|v| if worst > 0.0 { v / worst * 100.0 } else { 0.0 })
        .collect()
}

/// Render an ASCII histogram line.
pub fn bar(fraction: f64, width: usize) -> String {
    let n = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    "#".repeat(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_grid::CellAddr;

    #[test]
    fn dense_rom_loads() {
        let hs = dense_rom(100, 10);
        assert_eq!(hs.filled_count(), 1000);
        assert!(hs.get_cell(CellAddr::new(99, 9)).is_some());
    }

    #[test]
    fn load_hybrid_preserves_cells() {
        let mut s = SparseSheet::new();
        for r in 0..10 {
            s.set_value(CellAddr::new(r, 0), r as i64);
        }
        let hs = load_hybrid(&s, &single_model(&s, ModelKind::Rom));
        assert_eq!(hs.snapshot(true), s);
    }

    #[test]
    fn normalization() {
        let n = normalize_to_worst(&[50.0, 100.0, 25.0]);
        assert_eq!(n, vec![50.0, 100.0, 25.0]);
    }
}
