//! Weighted grid views.
//!
//! The DP of §IV-D is O(n⁵) in the side length of the sheet's bounding box.
//! The paper's *weighted representation* (§IV-D, Figure 10b) collapses
//! adjacent rows with identical filled-cell structure into a single weighted
//! row (and likewise for columns) — cuts between identical neighbours can
//! never help, so optimality is preserved (Theorem 5). [`GridView`] performs
//! this collapse and exposes O(1) weighted rectangle-count queries in *band*
//! coordinates, which is what the optimizers work in.

use std::collections::BTreeMap;

use dataspread_grid::{Rect, SparseSheet};

/// Which positions of a sheet hold a cell: per row, its filled columns in
/// ascending order. It is all the optimizers read of a sheet, so storage
/// can report it from a scan without materializing a single cell. (Sparse:
/// two cells a million rows apart are two entries.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Occupancy {
    rows: BTreeMap<u32, Vec<u32>>,
}

impl Occupancy {
    /// The occupancy of an in-memory sheet.
    pub fn of(sheet: &SparseSheet) -> Self {
        Self::from_visits(|fill| {
            for (addr, _) in sheet.iter() {
                fill(addr.row, addr.col);
            }
        })
    }

    /// The occupancy of the positions `visit` reports, `(row, col)` each.
    /// Rows may arrive in any order and a row in several pieces (a sheet
    /// row crossing several stores); a piece in ascending column order that
    /// continues its row — what a row-major scan delivers — costs one map
    /// lookup per piece and no sort.
    pub fn from_visits(visit: impl FnOnce(&mut dyn FnMut(u32, u32))) -> Self {
        let mut occ = Occupancy::default();
        let mut piece: (u32, Vec<u32>) = (0, Vec::new());
        visit(&mut |row, col| {
            if row != piece.0 {
                occ.fill(piece.0, &piece.1);
                piece.0 = row;
                piece.1.clear();
            }
            piece.1.push(col);
        });
        occ.fill(piece.0, &piece.1);
        occ
    }

    fn fill(&mut self, row: u32, cols: &[u32]) {
        let Some(&first) = cols.first() else {
            return;
        };
        let list = self.rows.entry(row).or_default();
        let in_order =
            list.last().is_none_or(|&l| l < first) && cols.windows(2).all(|w| w[0] < w[1]);
        list.extend_from_slice(cols);
        if !in_order {
            list.sort_unstable();
            list.dedup();
        }
    }

    /// Minimum bounding rectangle of the filled positions.
    pub fn bounding_box(&self) -> Option<Rect> {
        let (&r1, _) = self.rows.first_key_value()?;
        let (&r2, _) = self.rows.last_key_value()?;
        // `fill` never leaves an empty list behind.
        let c1 = self.rows.values().map(|cols| cols[0]).min()?;
        let c2 = self.rows.values().map(|cols| cols[cols.len() - 1]).max()?;
        Some(Rect::new(r1, c1, r2, c2))
    }
}

/// A (possibly weighted) view of a sheet's occupancy.
///
/// Band `i` of the row axis covers absolute rows
/// `row_start[i] .. row_start[i+1]`; within a band every row has the same
/// filled-column pattern, so a band×band cell is uniformly filled or empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridView {
    /// Number of row bands.
    h: usize,
    /// Number of column bands.
    w: usize,
    /// Absolute start row of each band, plus a sentinel end (len `h+1`).
    row_start: Vec<u32>,
    /// Absolute start column of each band, plus a sentinel end (len `w+1`).
    col_start: Vec<u32>,
    /// Band-level occupancy, `h*w`, row-major.
    filled: Vec<bool>,
    /// `(h+1)*(w+1)` prefix sums of *weighted* filled counts
    /// (`row_weight × col_weight` per filled band cell).
    wprefix: Vec<u64>,
    bbox: Option<Rect>,
}

impl GridView {
    /// Weighted view: adjacent structurally identical rows/columns collapse.
    pub fn from_sheet(sheet: &SparseSheet) -> Self {
        Self::build(&Occupancy::of(sheet), &[], &[], true, None)
    }

    /// Unweighted view: every row/column is its own band (for tests and for
    /// the Theorem 5 equivalence check).
    pub fn from_sheet_unweighted(sheet: &SparseSheet) -> Self {
        Self::build(&Occupancy::of(sheet), &[], &[], false, None)
    }

    /// Weighted view whose bands never exceed `max_rows × max_cols`
    /// original rows/columns. Required when the cost model enforces
    /// relation-width caps (Theorem 8): collapsing identical columns past
    /// the cap would make the mandatory split cuts unreachable — the one
    /// case where Theorem 5's "collapse freely" doesn't carry over.
    pub fn from_sheet_capped(sheet: &SparseSheet, max_rows: u32, max_cols: u32) -> Self {
        Self::build(
            &Occupancy::of(sheet),
            &[],
            &[],
            true,
            Some((max_rows, max_cols)),
        )
    }

    /// Weighted view with forced band boundaries (absolute coordinates that
    /// must *start* a new band). Incremental maintenance uses this so the
    /// previous decomposition's rectangles stay addressable.
    pub fn with_boundaries(sheet: &SparseSheet, row_bounds: &[u32], col_bounds: &[u32]) -> Self {
        Self::build(&Occupancy::of(sheet), row_bounds, col_bounds, true, None)
    }

    /// The weighted view of an occupancy — what every `from_sheet*`
    /// constructor builds once it has read the sheet's: forced band
    /// boundaries as in [`GridView::with_boundaries`], a `(max_rows,
    /// max_cols)` band cap as in [`GridView::from_sheet_capped`].
    pub fn from_occupancy(
        occupancy: &Occupancy,
        row_bounds: &[u32],
        col_bounds: &[u32],
        band_cap: Option<(u32, u32)>,
    ) -> Self {
        Self::build(occupancy, row_bounds, col_bounds, true, band_cap)
    }

    fn build(
        occupancy: &Occupancy,
        row_bounds: &[u32],
        col_bounds: &[u32],
        collapse: bool,
        band_cap: Option<(u32, u32)>,
    ) -> Self {
        let Some(bbox) = occupancy.bounding_box() else {
            return GridView {
                h: 0,
                w: 0,
                row_start: vec![0],
                col_start: vec![0],
                filled: Vec::new(),
                wprefix: vec![0],
                bbox: None,
            };
        };
        let rows = &occupancy.rows;

        use std::collections::HashSet;
        let row_bound_set: HashSet<u32> = row_bounds.iter().copied().collect();
        let col_bound_set: HashSet<u32> = col_bounds.iter().copied().collect();

        // --- Row bands ---
        static EMPTY: Vec<u32> = Vec::new();
        let max_band_rows = band_cap.map(|(r, _)| r.max(1)).unwrap_or(u32::MAX);
        let mut row_start: Vec<u32> = Vec::new();
        // Per-band filled-column pattern (borrowed from `rows`).
        let mut band_pattern: Vec<&Vec<u32>> = Vec::new();
        let mut prev: Option<&Vec<u32>> = None;
        for r in bbox.r1..=bbox.r2 {
            let pat = rows.get(&r).unwrap_or(&EMPTY);
            let cap_hit = row_start.last().is_some_and(|&s| r - s >= max_band_rows);
            let force = row_bound_set.contains(&r) || !collapse || cap_hit;
            if force || prev != Some(pat) {
                row_start.push(r);
                band_pattern.push(pat);
                prev = Some(pat);
            }
        }
        row_start.push(bbox.r2 + 1);
        let h = band_pattern.len();

        // --- Column bands ---
        // Signature of column c = sorted list of row-band indices where it
        // is filled.
        let width = (bbox.c2 - bbox.c1 + 1) as usize;
        let mut col_sig: Vec<Vec<u32>> = vec![Vec::new(); width];
        for (b, pat) in band_pattern.iter().enumerate() {
            for &c in pat.iter() {
                col_sig[(c - bbox.c1) as usize].push(b as u32);
            }
        }
        let max_band_cols = band_cap.map(|(_, c)| c.max(1)).unwrap_or(u32::MAX);
        let mut col_start: Vec<u32> = Vec::new();
        let mut col_band_sig: Vec<&Vec<u32>> = Vec::new();
        let mut prev: Option<&Vec<u32>> = None;
        for (i, sig) in col_sig.iter().enumerate() {
            let c = bbox.c1 + i as u32;
            let cap_hit = col_start.last().is_some_and(|&s| c - s >= max_band_cols);
            let force = col_bound_set.contains(&c) || !collapse || cap_hit;
            if force || prev != Some(sig) {
                col_start.push(c);
                col_band_sig.push(sig);
                prev = Some(sig);
            }
        }
        col_start.push(bbox.c2 + 1);
        let w = col_band_sig.len();

        // --- Band occupancy + weighted prefix sums ---
        let mut filled = vec![false; h * w];
        for (cb, sig) in col_band_sig.iter().enumerate() {
            for &b in sig.iter() {
                filled[b as usize * w + cb] = true;
            }
        }
        let mut wprefix = vec![0u64; (h + 1) * (w + 1)];
        let pw = w + 1;
        for rb in 0..h {
            let rw = (row_start[rb + 1] - row_start[rb]) as u64;
            let mut row_sum = 0u64;
            for cb in 0..w {
                let cw = (col_start[cb + 1] - col_start[cb]) as u64;
                if filled[rb * w + cb] {
                    row_sum += rw * cw;
                }
                wprefix[(rb + 1) * pw + (cb + 1)] = wprefix[rb * pw + (cb + 1)] + row_sum;
            }
        }

        GridView {
            h,
            w,
            row_start,
            col_start,
            filled,
            wprefix,
            bbox: Some(bbox),
        }
    }

    /// Number of row bands.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Number of column bands.
    pub fn w(&self) -> usize {
        self.w
    }

    pub fn is_empty(&self) -> bool {
        self.h == 0 || self.w == 0
    }

    pub fn bbox(&self) -> Option<Rect> {
        self.bbox
    }

    /// Total (original) filled cells.
    pub fn total_filled(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.wprefix[self.h * (self.w + 1) + self.w]
        }
    }

    /// Number of original rows covered by row bands `r1b..=r2b`.
    pub fn rows_weight(&self, r1b: usize, r2b: usize) -> u64 {
        (self.row_start[r2b + 1] - self.row_start[r1b]) as u64
    }

    /// Number of original columns covered by column bands `c1b..=c2b`.
    pub fn cols_weight(&self, c1b: usize, c2b: usize) -> u64 {
        (self.col_start[c2b + 1] - self.col_start[c1b]) as u64
    }

    /// Original filled-cell count of the band rectangle, O(1).
    pub fn filled_weighted(&self, r1b: usize, c1b: usize, r2b: usize, c2b: usize) -> u64 {
        let pw = self.w + 1;
        self.wprefix[(r2b + 1) * pw + (c2b + 1)] + self.wprefix[r1b * pw + c1b]
            - self.wprefix[r1b * pw + (c2b + 1)]
            - self.wprefix[(r2b + 1) * pw + c1b]
    }

    /// Absolute rectangle covered by the band rectangle.
    pub fn band_rect(&self, r1b: usize, c1b: usize, r2b: usize, c2b: usize) -> Rect {
        Rect::new(
            self.row_start[r1b],
            self.col_start[c1b],
            self.row_start[r2b + 1] - 1,
            self.col_start[c2b + 1] - 1,
        )
    }

    /// Band index containing absolute row `r` (must lie in the bbox).
    fn row_band(&self, r: u32) -> usize {
        self.row_start.partition_point(|&s| s <= r) - 1
    }

    fn col_band(&self, c: u32) -> usize {
        self.col_start.partition_point(|&s| s <= c) - 1
    }

    /// Exact filled count of an arbitrary absolute rectangle. Bands cut by
    /// the rectangle edge contribute proportionally (rows within a band are
    /// identical, so the count is exact, not an estimate).
    pub fn filled_in(&self, rect: &Rect) -> u64 {
        let Some(bbox) = self.bbox else { return 0 };
        let Some(clip) = rect.intersection(&bbox) else {
            return 0;
        };
        let rb1 = self.row_band(clip.r1);
        let rb2 = self.row_band(clip.r2);
        let cb1 = self.col_band(clip.c1);
        let cb2 = self.col_band(clip.c2);
        let mut total = 0u64;
        for rb in rb1..=rb2 {
            let band_r1 = self.row_start[rb].max(clip.r1);
            let band_r2 = (self.row_start[rb + 1] - 1).min(clip.r2);
            let rows = (band_r2 - band_r1 + 1) as u64;
            for cb in cb1..=cb2 {
                if !self.filled[rb * self.w + cb] {
                    continue;
                }
                let band_c1 = self.col_start[cb].max(clip.c1);
                let band_c2 = (self.col_start[cb + 1] - 1).min(clip.c2);
                total += rows * (band_c2 - band_c1 + 1) as u64;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_grid::CellAddr;

    fn sheet_from(cells: &[(u32, u32)]) -> SparseSheet {
        let mut s = SparseSheet::new();
        for &(r, c) in cells {
            s.set_value(CellAddr::new(r, c), 1i64);
        }
        s
    }

    /// Figure 10(a)-style layout: dense bars that should collapse.
    fn banded_sheet() -> SparseSheet {
        let mut cells = Vec::new();
        // Rows 0-1: cols 0..8 filled (two identical rows).
        for r in 0..2 {
            for c in 0..8 {
                cells.push((r, c));
            }
        }
        // Rows 5-6: cols 0..8 filled again.
        for r in 5..7 {
            for c in 0..8 {
                cells.push((r, c));
            }
        }
        sheet_from(&cells)
    }

    #[test]
    fn empty_sheet_view() {
        let v = GridView::from_sheet(&SparseSheet::new());
        assert!(v.is_empty());
        assert_eq!(v.total_filled(), 0);
        assert_eq!(v.filled_in(&Rect::new(0, 0, 10, 10)), 0);
    }

    #[test]
    fn collapse_reduces_band_counts() {
        let s = banded_sheet();
        let v = GridView::from_sheet(&s);
        // Row bands: [0-1 full], [2-4 empty], [5-6 full] = 3.
        assert_eq!(v.h(), 3);
        // Col bands: all 8 columns identical = 1.
        assert_eq!(v.w(), 1);
        let u = GridView::from_sheet_unweighted(&s);
        assert_eq!(u.h(), 7);
        assert_eq!(u.w(), 8);
        assert_eq!(v.total_filled(), u.total_filled());
        assert_eq!(v.total_filled(), 32);
    }

    #[test]
    fn weights_and_band_rects() {
        let v = GridView::from_sheet(&banded_sheet());
        assert_eq!(v.rows_weight(0, 0), 2);
        assert_eq!(v.rows_weight(1, 1), 3);
        assert_eq!(v.rows_weight(0, 2), 7);
        assert_eq!(v.cols_weight(0, 0), 8);
        assert_eq!(v.band_rect(0, 0, 0, 0), Rect::new(0, 0, 1, 7));
        assert_eq!(v.band_rect(0, 0, 2, 0), Rect::new(0, 0, 6, 7));
        assert_eq!(v.filled_weighted(0, 0, 0, 0), 16);
        assert_eq!(v.filled_weighted(0, 0, 2, 0), 32);
    }

    #[test]
    fn filled_in_exact_on_band_cuts() {
        let s = banded_sheet();
        let v = GridView::from_sheet(&s);
        // A rect slicing through bands: row 1 only, cols 2..5.
        assert_eq!(v.filled_in(&Rect::new(1, 2, 1, 5)), 4);
        // Partial band rows 1..5 (1 full row + 3 empty rows) x cols 0..7.
        assert_eq!(v.filled_in(&Rect::new(1, 0, 4, 7)), 8);
        // Compare against brute force for many rects.
        for r1 in 0..7u32 {
            for r2 in r1..7 {
                for c1 in (0..8u32).step_by(3) {
                    for c2 in c1..8 {
                        let rect = Rect::new(r1, c1, r2, c2);
                        let brute = s.iter_rect(rect).count() as u64;
                        assert_eq!(v.filled_in(&rect), brute, "{rect}");
                    }
                }
            }
        }
    }

    #[test]
    fn forced_boundaries_split_bands() {
        let s = banded_sheet();
        let v = GridView::with_boundaries(&s, &[1], &[4]);
        // Row band [0,1] forced apart at 1 → bands {0},{1},{2-4},{5-6}.
        assert_eq!(v.h(), 4);
        // Col band forced apart at 4 → {0-3},{4-7}.
        assert_eq!(v.w(), 2);
        assert_eq!(v.total_filled(), 32);
    }

    #[test]
    fn band_cap_splits_uniform_runs() {
        // 1x100 dense row would collapse to one column band; a 30-col cap
        // must split it so width-capped cuts stay reachable (Theorem 8).
        let mut s = SparseSheet::new();
        for c in 0..100u32 {
            s.set_value(CellAddr::new(0, c), 1i64);
        }
        let v = GridView::from_sheet_capped(&s, u32::MAX, 30);
        assert_eq!(v.w(), 4, "100 cols at cap 30 → 30+30+30+10");
        assert_eq!(v.cols_weight(0, 0), 30);
        assert_eq!(v.cols_weight(3, 3), 10);
        assert_eq!(v.total_filled(), 100);
        // Row cap likewise.
        let mut tall = SparseSheet::new();
        for r in 0..70u32 {
            tall.set_value(CellAddr::new(r, 0), 1i64);
        }
        let v = GridView::from_sheet_capped(&tall, 32, u32::MAX);
        assert_eq!(v.h(), 3);
        assert_eq!(v.total_filled(), 70);
    }
}
