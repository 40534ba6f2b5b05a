//! Hybrid data models: regions, decompositions, and their cost.

use dataspread_grid::{Rect, SparseSheet};

use crate::cost::CostModel;
use crate::view::GridView;
use crate::{AccessModel, ModelSet, OptimizerOptions};

/// The primitive data model assigned to a region (paper §IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Row-oriented: one tuple per sheet row.
    Rom,
    /// Column-oriented: one tuple per sheet column.
    Com,
    /// Row-column-value: one tuple per filled cell.
    Rcv,
    /// Table-oriented: a linked database table (not chosen by the
    /// optimizer; created by `linkTable`).
    Tom,
    /// Columnar compressed: per-column typed arrays with dictionary and
    /// run-length encoding — the post-paper third physical layout for
    /// large read-mostly regions (not chosen by the optimizer; a region is
    /// migrated to it explicitly).
    Columnar,
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ModelKind::Rom => "ROM",
            ModelKind::Com => "COM",
            ModelKind::Rcv => "RCV",
            ModelKind::Tom => "TOM",
            ModelKind::Columnar => "COL",
        })
    }
}

/// One region of a hybrid decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    pub rect: Rect,
    pub kind: ModelKind,
}

/// A hybrid data model: a set of disjoint regions covering the filled cells.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Decomposition {
    pub regions: Vec<Region>,
}

impl Decomposition {
    pub fn new(regions: Vec<Region>) -> Self {
        Decomposition { regions }
    }

    /// A single-table decomposition covering the sheet's bounding box.
    pub fn single(sheet: &SparseSheet, kind: ModelKind) -> Self {
        match sheet.bounding_box() {
            Some(bbox) => Decomposition {
                regions: vec![Region { rect: bbox, kind }],
            },
            None => Decomposition::default(),
        }
    }

    pub fn table_count(&self) -> usize {
        self.regions.len()
    }

    /// Storage cost under `cm` (Equation 1 summed over tables, with the
    /// single up-front RCV table cost charged once).
    pub fn storage_cost(&self, view: &GridView, cm: &CostModel) -> f64 {
        let mut total = 0.0;
        let mut any_rcv = false;
        for region in &self.regions {
            let rows = region.rect.rows();
            let cols = region.rect.cols();
            total += match region.kind {
                ModelKind::Rom | ModelKind::Tom => cm.rom(rows, cols),
                ModelKind::Com => cm.com(rows, cols),
                ModelKind::Rcv => {
                    any_rcv = true;
                    cm.rcv(view.filled_in(&region.rect))
                }
                ModelKind::Columnar => cm.columnar(cols, view.filled_in(&region.rect)),
            };
        }
        if any_rcv {
            total += cm.s1_table;
        }
        total
    }

    /// Access cost of serving `workload` rectangles from this decomposition
    /// (Theorem 7 extension): each intersected table contributes a probe
    /// plus per-tuple and per-cell transfer.
    pub fn access_cost(&self, view: &GridView, am: &AccessModel, workload: &[Rect]) -> f64 {
        let mut total = 0.0;
        for want in workload {
            for region in &self.regions {
                let Some(hit) = want.intersection(&region.rect) else {
                    continue;
                };
                total += am.per_table;
                total += match region.kind {
                    // ROM fetches whole tuples for the hit rows.
                    ModelKind::Rom | ModelKind::Tom => {
                        am.per_tuple * hit.rows() as f64
                            + am.per_cell * (hit.rows() * region.rect.cols()) as f64
                    }
                    ModelKind::Com => {
                        am.per_tuple * hit.cols() as f64
                            + am.per_cell * (hit.cols() * region.rect.rows()) as f64
                    }
                    ModelKind::Rcv => {
                        let filled = view.filled_in(&hit) as f64;
                        am.per_tuple * filled + am.per_cell * filled
                    }
                    // Columnar fetches one column segment per hit column;
                    // materializing out of typed arrays avoids the boxed-
                    // datum walk, modelled as a flat per-cell discount.
                    ModelKind::Columnar => {
                        am.per_tuple * hit.cols() as f64
                            + am.per_cell * 0.25 * (hit.rows() * hit.cols()) as f64
                    }
                };
            }
        }
        total
    }

    /// Recoverability (paper §IV-A): every filled cell is recorded by
    /// exactly one region.
    pub fn is_recoverable(&self, sheet: &SparseSheet) -> bool {
        sheet.iter().all(|(addr, _)| {
            self.regions
                .iter()
                .filter(|reg| reg.rect.contains(addr))
                .count()
                == 1
        })
    }

    /// Whether any two regions overlap (recursive decompositions never do).
    pub fn has_overlaps(&self) -> bool {
        for (i, a) in self.regions.iter().enumerate() {
            for b in &self.regions[i + 1..] {
                if a.rect.intersects(&b.rect) {
                    return true;
                }
            }
        }
        false
    }
}

/// Best single-table (leaf) choice for a band rectangle: returns
/// `(cost, model)` under the allowed [`ModelSet`], including workload access
/// cost when configured.
pub(crate) fn best_leaf(
    view: &GridView,
    cm: &CostModel,
    opts: &OptimizerOptions,
    r1b: usize,
    c1b: usize,
    r2b: usize,
    c2b: usize,
) -> (f64, ModelKind) {
    let rows = view.rows_weight(r1b, r2b);
    let cols = view.cols_weight(c1b, c2b);
    let filled = view.filled_weighted(r1b, c1b, r2b, c2b);
    let rect = view.band_rect(r1b, c1b, r2b, c2b);
    let ModelSet { rom, com, rcv } = opts.models;

    let mut best = (f64::INFINITY, ModelKind::Rom);
    let mut consider = |kind: ModelKind, storage: f64| {
        let mut cost = storage;
        if !opts.workload.is_empty() && cost.is_finite() {
            let probe = Decomposition::new(vec![Region { rect, kind }]);
            cost += probe.access_cost(view, &opts.access, &opts.workload);
        }
        if cost < best.0 {
            best = (cost, kind);
        }
    };
    if rom {
        consider(ModelKind::Rom, cm.rom(rows, cols));
    }
    if com {
        consider(ModelKind::Com, cm.com(rows, cols));
    }
    if rcv {
        consider(ModelKind::Rcv, cm.rcv_table(filled));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_grid::CellAddr;

    fn sheet() -> SparseSheet {
        let mut s = SparseSheet::new();
        for r in 0..4 {
            for c in 0..3 {
                s.set_value(CellAddr::new(r, c), 1i64);
            }
        }
        s.set_value(CellAddr::new(10, 10), 2i64);
        s
    }

    #[test]
    fn single_covers_bbox() {
        let s = sheet();
        let d = Decomposition::single(&s, ModelKind::Rom);
        assert_eq!(d.table_count(), 1);
        assert_eq!(d.regions[0].rect, Rect::new(0, 0, 10, 10));
        assert!(d.is_recoverable(&s));
    }

    #[test]
    fn recoverability_fails_on_uncovered_or_double_covered() {
        let s = sheet();
        let missing = Decomposition::new(vec![Region {
            rect: Rect::new(0, 0, 3, 2),
            kind: ModelKind::Rom,
        }]);
        assert!(!missing.is_recoverable(&s), "misses the (10,10) cell");
        let doubled = Decomposition::new(vec![
            Region {
                rect: Rect::new(0, 0, 10, 10),
                kind: ModelKind::Rom,
            },
            Region {
                rect: Rect::new(0, 0, 0, 0),
                kind: ModelKind::Rcv,
            },
        ]);
        assert!(!doubled.is_recoverable(&s), "A1 covered twice");
        assert!(doubled.has_overlaps());
    }

    #[test]
    fn storage_cost_sums_tables_and_charges_rcv_once() {
        let s = sheet();
        let view = GridView::from_sheet(&s);
        let cm = CostModel::ideal();
        let d = Decomposition::new(vec![
            Region {
                rect: Rect::new(0, 0, 3, 2),
                kind: ModelKind::Rom,
            },
            Region {
                rect: Rect::new(10, 10, 10, 10),
                kind: ModelKind::Rcv,
            },
        ]);
        // ROM 4x3: 12+4+3 = 19; RCV 1 cell: 3; + one global s1 (0 in ideal).
        assert_eq!(d.storage_cost(&view, &cm), 19.0 + 3.0);
        let pg = CostModel::postgres();
        let with_rcv = d.storage_cost(&view, &pg);
        let rom_only = Decomposition::new(vec![d.regions[0]]).storage_cost(&view, &pg);
        assert!(
            with_rcv > rom_only + pg.rcv(1) + pg.s1_table - 1e-9,
            "global RCV table cost must be charged"
        );
    }

    #[test]
    fn access_cost_prefers_matching_model() {
        let s = sheet();
        let view = GridView::from_sheet(&s);
        let am = AccessModel::default();
        let dense = Rect::new(0, 0, 3, 2);
        // Row-range scan over the dense table.
        let workload = [Rect::new(0, 0, 1, 2)];
        let rom = Decomposition::new(vec![Region {
            rect: dense,
            kind: ModelKind::Rom,
        }])
        .access_cost(&view, &am, &workload);
        let rcv = Decomposition::new(vec![Region {
            rect: dense,
            kind: ModelKind::Rcv,
        }])
        .access_cost(&view, &am, &workload);
        // ROM: 2 tuples; RCV: 6 tuples — ROM must win.
        assert!(rom < rcv);
    }

    #[test]
    fn best_leaf_respects_model_set() {
        let s = sheet();
        let view = GridView::from_sheet(&s);
        let cm = CostModel::postgres();
        let mut opts = OptimizerOptions {
            models: ModelSet::ROM_ONLY,
            ..OptimizerOptions::default()
        };
        let (_, kind) = best_leaf(&view, &cm, &opts, 0, 0, view.h() - 1, view.w() - 1);
        assert_eq!(kind, ModelKind::Rom);
        opts.models = ModelSet::ALL;
        let (cost_all, _) = best_leaf(&view, &cm, &opts, 0, 0, view.h() - 1, view.w() - 1);
        let (cost_rom, _) = best_leaf(
            &view,
            &CostModel::postgres(),
            &OptimizerOptions {
                models: ModelSet::ROM_ONLY,
                ..OptimizerOptions::default()
            },
            0,
            0,
            view.h() - 1,
            view.w() - 1,
        );
        assert!(cost_all <= cost_rom);
    }
}
