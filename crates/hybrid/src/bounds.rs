//! Optimality bounds (paper Theorems 3 and 4, Figures 13's OPT and 14).

use dataspread_grid::SparseSheet;

use crate::cost::CostModel;

/// Lower bound on the optimal ROM-only decomposition (Problem 1, denoted
/// OPT in Figure 13): the cost of storing only the non-empty cells in a
/// single ROM table, ignoring the overhead of extra tables and empty cells
/// — i.e. `s1 + s2·filled + s3·(#distinct non-empty columns) +
/// s4·(#distinct non-empty rows)`. It does not bound decompositions that
/// use COM or RCV: RCV pays no `s3`/`s4`, so an all-model optimum can sit
/// below it.
pub fn opt_lower_bound(sheet: &SparseSheet, cm: &CostModel) -> f64 {
    if sheet.is_empty() {
        return 0.0;
    }
    let mut rows = std::collections::HashSet::new();
    let mut cols = std::collections::HashSet::new();
    let mut filled = 0u64;
    for (addr, _) in sheet.iter() {
        rows.insert(addr.row);
        cols.insert(addr.col);
        filled += 1;
    }
    cm.s1_table
        + cm.s2_cell * filled as f64
        + cm.s3_col * cols.len() as f64
        + cm.s4_row * rows.len() as f64
}

/// Theorem 4: the optimal decomposition of a connected component's minimum
/// bounding rectangle has at most `⌊e·s2/s1 + 1⌋` tables, where `e` is the
/// number of empty cells in that bounding rectangle. With `s1 = 0` the bound
/// is vacuous and `u64::MAX` is returned.
pub fn table_count_upper_bound(empty_cells: u64, cm: &CostModel) -> u64 {
    if cm.s1_table <= 0.0 {
        return u64::MAX;
    }
    (empty_cells as f64 * cm.s2_cell / cm.s1_table + 1.0).floor() as u64
}

/// Theorem 3: the DP's recursive-decomposition optimum is within
/// `s1 · k(k−1)/2` of the unrestricted optimum with `k` tables.
pub fn theorem3_additive_slack(k: u64, cm: &CostModel) -> f64 {
    cm.s1_table * (k as f64 * (k as f64 - 1.0)) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_grid::CellAddr;

    #[test]
    fn lower_bound_below_any_single_model() {
        let mut s = SparseSheet::new();
        for r in 0..10 {
            for c in 0..4 {
                if (r + c) % 3 != 0 {
                    s.set_value(CellAddr::new(r, c), 1i64);
                }
            }
        }
        let cm = CostModel::postgres();
        let lb = opt_lower_bound(&s, &cm);
        let bbox_rom = cm.rom(10, 4);
        assert!(lb <= bbox_rom);
        let rcv = cm.s1_table + cm.rcv(s.filled_count() as u64);
        // The lower bound must not exceed real representations' costs when
        // those representations store everything (RCV here stores only
        // filled cells but pays s5 > s2 per cell).
        assert!(lb <= rcv);
    }

    #[test]
    fn empty_sheet_bound_is_zero() {
        assert_eq!(
            opt_lower_bound(&SparseSheet::new(), &CostModel::postgres()),
            0.0
        );
    }

    #[test]
    fn table_bound_matches_formula() {
        let cm = CostModel::postgres();
        // e=0 → 1 table; dense components shouldn't be split.
        assert_eq!(table_count_upper_bound(0, &cm), 1);
        // e = 65536 empty cells: 65536 * 0.125 / 8192 + 1 = 2.
        assert_eq!(table_count_upper_bound(65_536, &cm), 2);
        assert_eq!(
            table_count_upper_bound(u64::MAX, &CostModel::ideal()),
            u64::MAX
        );
    }

    #[test]
    fn theorem3_slack_grows_quadratically() {
        let cm = CostModel::postgres();
        assert_eq!(theorem3_additive_slack(1, &cm), 0.0);
        assert_eq!(theorem3_additive_slack(2, &cm), cm.s1_table);
        assert_eq!(theorem3_additive_slack(4, &cm), cm.s1_table * 6.0);
    }
}
