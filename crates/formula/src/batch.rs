//! Batch evaluation for fill-down formula runs.
//!
//! A spreadsheet column of formulas is almost always one formula *filled
//! down*: the same AST with every relative reference shifted by the row
//! delta (Table I's corpus is dominated by this shape). Recomputing such a
//! run cell-by-cell pays a full tree walk plus a storage range-fetch per
//! cell — `SUM(A1:A64)` filled down 100k rows costs 100k index probes and
//! 6.4M `Cell` clones. This module detects the shape once, at formula
//! registration ([`detect_sliding`]), and evaluates a whole run against a
//! single bulk fetch ([`batch_eval_sliding`]): the union of the run's
//! windows is read into dense arrays, then each cell's aggregate folds over
//! array slots in exactly the order the tree-walking evaluator would visit the
//! underlying cells — so results are bit-identical to per-cell evaluation
//! (same float associativity, same first-error semantics, same skip rules).

use dataspread_grid::value::CellError;
use dataspread_grid::{CellAddr, CellValue, Rect, ScanValue};

use crate::ast::{CellRef, Expr};
use crate::eval::{AggKind, CellReader, RangeAgg};

/// A sliding-window aggregate: `AGG(range)` where the whole range is
/// relative, described by the range's corners as written (offsets from the
/// formula cell). This is the canonical fill-down aggregate
/// (`=SUM(A1:A64)` filled down a column), and the shape
/// [`batch_eval_sliding`] vectorizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlidingSpec {
    kind: AggKind,
    from: CellRef,
    to: CellRef,
}

impl SlidingSpec {
    /// The window this spec reads when the formula sits at `addr`; `None`
    /// when a corner falls outside the sheet (caller falls back to the
    /// tree walk, which resolves it the slow way).
    fn window(&self, addr: CellAddr) -> Option<Rect> {
        Expr::Range(self.from, self.to).rect_at(addr)
    }
}

/// Detect the sliding-aggregate shape: a single `SUM`/`COUNT`/`COUNTA`/
/// `AVERAGE` call over one fully-relative range or cell reference.
pub fn detect_sliding(expr: &Expr) -> Option<SlidingSpec> {
    let Expr::Func(name, args) = expr else {
        return None;
    };
    let kind = AggKind::from_name(name)?;
    let [arg] = args.as_slice() else {
        return None;
    };
    let (a, b) = match arg {
        Expr::Range(a, b) => (a, b),
        Expr::Ref(r) => (r, r),
        _ => return None,
    };
    if a.abs_row || a.abs_col || b.abs_row || b.abs_col {
        return None;
    }
    Some(SlidingSpec {
        kind,
        from: *a,
        to: *b,
    })
}

/// Refuse to materialize dense arrays past this many slots (~72 MB: an
/// `f64` and a kind byte each) — a run whose window union is bigger falls
/// back to per-cell evaluation rather than ballooning memory.
const MAX_DENSE_SLOTS: u64 = 8_000_000;

/// Evaluate one fill-down run of `spec` at `members` with a single storage
/// fetch. Returns values aligned with `members`, or `None` when the run
/// does not fit the dense sweep (window out of bounds, union too large) —
/// the caller then evaluates those cells through the normal tree walk.
///
/// Exactness: for each member this folds the same cells, in the same
/// row-major order, through the same [`RangeAgg`] as `Evaluator::eval` on
/// the equivalent `AGG(range)` call, so the results are bit-identical —
/// the differential suites in `dataspread-engine` pin this against the
/// sequential evaluator on random tapes.
pub fn batch_eval_sliding(
    spec: SlidingSpec,
    members: &[CellAddr],
    reader: &dyn CellReader,
) -> Option<Vec<CellValue>> {
    if members.is_empty() {
        return Some(Vec::new());
    }
    let windows: Vec<Rect> = members
        .iter()
        .map(|&m| spec.window(m))
        .collect::<Option<Vec<Rect>>>()?;
    let mut it = windows.iter();
    let first = it.next().expect("non-empty");
    let union = it.fold(*first, |acc, w| acc.bbox_union(w));
    let width = union.cols();
    if union.rows().checked_mul(width)? > MAX_DENSE_SLOTS {
        return None;
    }
    let slots = (union.rows() * width) as usize;
    let width = width as usize;
    // One bulk fetch for the whole run, splatted into dense row-major
    // arrays of what the fold reads: each slot's kind, a number's value,
    // and the errors by slot. A text or bool only counts as non-empty.
    const EMPTY: u8 = 0;
    const NUMBER: u8 = 1;
    const OTHER: u8 = 2;
    const ERROR: u8 = 3;
    let mut nums = vec![0.0f64; slots];
    let mut kinds = vec![EMPTY; slots];
    let mut errors: Vec<(usize, CellError)> = Vec::new();
    reader.for_each_value(union, &mut |addr, value| {
        let idx = (addr.row - union.r1) as usize * width + (addr.col - union.c1) as usize;
        kinds[idx] = match value {
            ScanValue::Empty => EMPTY,
            ScanValue::Number(n) => {
                nums[idx] = n;
                NUMBER
            }
            ScanValue::Bool(_) | ScanValue::Text(_) => OTHER,
            ScanValue::Error(e) => {
                errors.push((idx, e));
                ERROR
            }
        };
    });
    let slot = |idx: usize| match kinds[idx] {
        EMPTY => ScanValue::Empty,
        NUMBER => ScanValue::Number(nums[idx]),
        OTHER => ScanValue::Bool(false),
        _ => ScanValue::Error(errors[errors.partition_point(|&(i, _)| i < idx)].1),
    };
    let out = windows
        .iter()
        .map(|w| {
            let mut agg = RangeAgg::default();
            'rows: for r in w.r1..=w.r2 {
                let from = (r - union.r1) as usize * width + (w.c1 - union.c1) as usize;
                for idx in from..from + w.cols() as usize {
                    if !agg.fold(slot(idx)) {
                        break 'rows;
                    }
                }
            }
            agg.value(spec.kind)
        })
        .collect();
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{Evaluator, SheetReader};
    use crate::parser::{parse, parse_at};
    use dataspread_grid::SparseSheet;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse_a1(s).unwrap()
    }

    #[test]
    fn absolute_refs_have_no_shape() {
        let e = parse_at("SUM($A$1:A5)", a("B5")).unwrap();
        assert_eq!(detect_sliding(&e), None);
    }

    #[test]
    fn detect_sliding_covers_the_four_aggregates() {
        for (src, kind) in [
            ("SUM(A1:A8)", AggKind::Sum),
            ("COUNT(A1:A8)", AggKind::Count),
            ("COUNTA(A1:A8)", AggKind::CountA),
            ("AVERAGE(A1:A8)", AggKind::Average),
        ] {
            let spec = detect_sliding(&parse_at(src, a("B8")).unwrap()).unwrap();
            assert_eq!(spec.kind, kind);
            assert_eq!(
                spec.window(a("B8")).unwrap(),
                Rect::parse_a1("A1:A8").unwrap()
            );
            // Filled down one row, the window slides with it.
            assert_eq!(
                spec.window(a("B9")).unwrap(),
                Rect::parse_a1("A2:A9").unwrap()
            );
        }
        // Arithmetic around the call is not a bare sliding aggregate.
        assert_eq!(
            detect_sliding(&parse_at("SUM(A1:A8)+1", a("B8")).unwrap()),
            None
        );
        // MIN has no order-insensitive prefix fold here; excluded.
        assert_eq!(
            detect_sliding(&parse_at("MIN(A1:A8)", a("B8")).unwrap()),
            None
        );
    }

    #[test]
    fn window_above_sheet_top_falls_back() {
        let spec = detect_sliding(&parse_at("SUM(A1:A8)", a("B8")).unwrap()).unwrap();
        // At row 3 the window would start at row -4.
        assert_eq!(spec.window(a("B4")), None);
    }

    #[test]
    fn batch_matches_tree_walk_on_mixed_data() {
        let mut sheet = SparseSheet::new();
        // Numbers, text, bools, a gap, and an error cell at A13.
        for r in 0..30u32 {
            let v = match r % 5 {
                0 => CellValue::Number(r as f64 * 1.5 + 0.1),
                1 => CellValue::Number(-(r as f64) / 3.0),
                2 => CellValue::Text(format!("t{r}")),
                3 => CellValue::Bool(r % 2 == 0),
                _ => continue,
            };
            sheet.set_value(CellAddr::new(r, 0), v);
        }
        sheet.set_value(CellAddr::new(12, 0), CellValue::Error(CellError::Div0));
        let reader = SheetReader(&sheet);
        let eval = Evaluator::new();
        for src in [
            "SUM(A1:A8)",
            "COUNT(A1:A8)",
            "COUNTA(A1:A8)",
            "AVERAGE(A1:A8)",
        ] {
            let spec = detect_sliding(&parse_at(src, a("B8")).unwrap()).unwrap();
            let members: Vec<CellAddr> = (7..30).map(|r| CellAddr::new(r, 1)).collect();
            let got = batch_eval_sliding(spec, &members, &reader).unwrap();
            for (i, &m) in members.iter().enumerate() {
                // The per-cell oracle: shift the window text to the member.
                let w = spec.window(m).unwrap();
                let shifted = parse(&format!(
                    "{}(A{}:A{})",
                    src.split('(').next().unwrap(),
                    w.r1 + 1,
                    w.r2 + 1
                ))
                .unwrap();
                let want = eval.eval(&shifted, &reader);
                assert_eq!(got[i], want, "{src} at {m} diverged");
            }
        }
    }

    #[test]
    fn empty_run_and_empty_window() {
        let sheet = SparseSheet::new();
        let reader = SheetReader(&sheet);
        let spec = detect_sliding(&parse_at("SUM(A1:A4)", a("B4")).unwrap()).unwrap();
        assert_eq!(batch_eval_sliding(spec, &[], &reader), Some(Vec::new()));
        let got = batch_eval_sliding(spec, &[a("B4")], &reader).unwrap();
        assert_eq!(got, vec![CellValue::Number(0.0)]);
        let avg = detect_sliding(&parse_at("AVERAGE(A1:A4)", a("B4")).unwrap()).unwrap();
        let got = batch_eval_sliding(avg, &[a("B4")], &reader).unwrap();
        assert_eq!(got, vec![CellValue::Error(CellError::Div0)]);
    }

    #[test]
    fn oversized_union_falls_back() {
        let sheet = SparseSheet::new();
        let reader = SheetReader(&sheet);
        let spec = SlidingSpec {
            kind: AggKind::Sum,
            from: CellRef {
                row: -9_000_000,
                col: 0,
                abs_row: false,
                abs_col: false,
            },
            to: CellRef::relative(0, 0),
        };
        assert_eq!(
            batch_eval_sliding(spec, &[CellAddr::new(9_000_001, 0)], &reader),
            None
        );
    }
}
