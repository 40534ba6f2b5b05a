//! Compact positional-window responses.
//!
//! PR 5 shipped `fetch_window` returning `Vec<(CellAddr, Cell)>` — one
//! 8-byte address plus a boxed [`Cell`] clone (value enum + optional
//! formula `String`) per filled cell, whatever the window looked like. A
//! [`WindowPatch`] carries the same information in the shape windows
//! actually have:
//!
//! * **Typed value runs.** Consecutive filled cells (row-major within the
//!   window) of the same scalar type collapse into one run — a dense
//!   imported table encodes as a handful of `f64` arrays instead of N
//!   tagged enums, and a constant-filled stretch (the fill-down pattern)
//!   collapses further into a single repeat run.
//! * **Sparse overlays.** Formula sources and error values are the
//!   exception, not the rule, so they ride in sparse `(index, payload)`
//!   overlays on top of the runs instead of widening every cell.
//!
//! The same struct is the in-process return type of
//! `Session::fetch_window` *and* the wire encoding of a window response —
//! the server never re-shapes a window, it frames these bytes as-is.

use dataspread_grid::codec::{
    cell_error, corrupt, put_f64, put_list, put_rect, put_str, put_u32, put_u64, put_u8, read_rect,
    Reader,
};
use dataspread_grid::{Cell, CellAddr, CellError, CellValue, DecodeError, Rect, ScanValue};

/// Identical consecutive numbers collapse into a repeat run once a
/// stretch reaches this length (below it, the plain array is smaller or
/// within a few bytes of it).
const REPEAT_MIN: usize = 16;

/// One run of same-typed values starting at a linear (row-major) index
/// within the window.
#[derive(Debug, Clone, PartialEq)]
enum RunData {
    Numbers(Vec<f64>),
    Texts(Vec<String>),
    Bools(Vec<bool>),
    /// `n` copies of the same number (fill-down constants).
    RepeatNumber {
        n: u32,
        value: f64,
    },
    /// `n` copies of the same text (categorical columns, fill-down labels).
    RepeatText {
        n: u32,
        value: String,
    },
}

impl RunData {
    fn len(&self) -> u64 {
        match self {
            RunData::Numbers(v) => v.len() as u64,
            RunData::Texts(v) => v.len() as u64,
            RunData::Bools(v) => v.len() as u64,
            RunData::RepeatNumber { n, .. } | RunData::RepeatText { n, .. } => u64::from(*n),
        }
    }

    fn value_at(&self, offset: u64) -> CellValue {
        match self {
            RunData::Numbers(v) => CellValue::Number(v[offset as usize]),
            RunData::Texts(v) => CellValue::Text(v[offset as usize].clone()),
            RunData::Bools(v) => CellValue::Bool(v[offset as usize]),
            RunData::RepeatNumber { value, .. } => CellValue::Number(*value),
            RunData::RepeatText { value, .. } => CellValue::Text(value.clone()),
        }
    }
}

/// A compact window of cells: typed value runs plus sparse formula and
/// error overlays, addressed by row-major linear index within [`rect`].
///
/// [`rect`]: WindowPatch::rect
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPatch {
    rect: Rect,
    /// Sorted by start index; runs never overlap.
    runs: Vec<(u64, RunData)>,
    /// Sorted by index; disjoint from `runs` (an error *is* the cell's
    /// value).
    errors: Vec<(u64, CellError)>,
    /// Sorted by index; may coincide with a run/error entry (a formula
    /// cell has both a source and a computed value).
    formulas: Vec<(u64, String)>,
}

impl WindowPatch {
    /// Build a patch from a list of distinct `(addr, cell)`s, in any order:
    /// sorted, then placed like a scan ([`PatchBuilder::place`]). Cells
    /// outside `rect` are ignored; blank cells contribute nothing.
    pub fn from_cells(rect: Rect, mut cells: Vec<(CellAddr, Cell)>) -> WindowPatch {
        cells.sort_unstable_by_key(|(a, _)| *a);
        let mut b = PatchBuilder::new(rect);
        for (addr, cell) in &cells {
            b.place(
                addr.row,
                addr.col,
                ScanValue::of(&cell.value),
                cell.formula.as_deref(),
            );
        }
        b.finish()
    }

    /// Append a number at `idx`, extending the previous run when it is
    /// numeric and ends exactly at `idx`.
    fn push_number(&mut self, idx: u64, n: f64) {
        if let Some((start, RunData::Numbers(v))) = self.runs.last_mut() {
            if *start + v.len() as u64 == idx {
                v.push(n);
                return;
            }
        }
        self.runs.push((idx, RunData::Numbers(vec![n])));
    }

    /// Append a one-element run at `idx`, merging with a contiguous
    /// same-typed predecessor.
    fn push_scalar(&mut self, idx: u64, data: RunData) {
        match (self.runs.last_mut(), data) {
            (Some((start, RunData::Texts(v))), RunData::Texts(mut one))
                if *start + v.len() as u64 == idx =>
            {
                v.push(one.pop().expect("one text"));
            }
            (Some((start, RunData::Bools(v))), RunData::Bools(mut one))
                if *start + v.len() as u64 == idx =>
            {
                v.push(one.pop().expect("one bool"));
            }
            (_, data) => self.runs.push((idx, data)),
        }
    }

    /// Split stretches of ≥ [`REPEAT_MIN`] identical consecutive numbers
    /// (compared by bits) or texts out of plain runs into repeat runs.
    fn compact_repeats(&mut self) {
        let mut out: Vec<(u64, RunData)> = Vec::with_capacity(self.runs.len());
        for (start, data) in self.runs.drain(..) {
            match data {
                RunData::Numbers(v) => split_repeats(
                    start,
                    v,
                    &mut out,
                    |a, b| a.to_bits() == b.to_bits(),
                    |n, value| RunData::RepeatNumber { n, value },
                    RunData::Numbers,
                ),
                RunData::Texts(v) => split_repeats(
                    start,
                    v,
                    &mut out,
                    |a, b| a == b,
                    |n, value| RunData::RepeatText { n, value },
                    RunData::Texts,
                ),
                other => out.push((start, other)),
            }
        }
        self.runs = out;
    }

    /// The window this patch covers.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Number of value runs (observability for benches/tests).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Number of filled cells the patch carries.
    pub fn filled_count(&self) -> usize {
        let mut n: u64 =
            self.runs.iter().map(|(_, d)| d.len()).sum::<u64>() + self.errors.len() as u64;
        // A formula whose computed value is blank has no run/error entry.
        n += self
            .formulas
            .iter()
            .filter(|(idx, _)| self.run_value(*idx).is_none() && !self.has_error(*idx))
            .count() as u64;
        n as usize
    }

    /// True when the patch carries no cells at all.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.errors.is_empty() && self.formulas.is_empty()
    }

    fn width(&self) -> u64 {
        u64::from(self.rect.c2 - self.rect.c1) + 1
    }

    /// Linear index of the window's last cell. Exact for every window: the
    /// whole sheet has 2^64 cells, one more than a `u64` area can count.
    fn last_index(&self) -> u64 {
        u64::from(self.rect.r2 - self.rect.r1) * self.width()
            + u64::from(self.rect.c2 - self.rect.c1)
    }

    fn index_of(&self, addr: CellAddr) -> Option<u64> {
        if addr.row < self.rect.r1
            || addr.row > self.rect.r2
            || addr.col < self.rect.c1
            || addr.col > self.rect.c2
        {
            return None;
        }
        Some(u64::from(addr.row - self.rect.r1) * self.width() + u64::from(addr.col - self.rect.c1))
    }

    fn addr_of(&self, idx: u64) -> CellAddr {
        CellAddr::new(
            self.rect.r1 + (idx / self.width()) as u32,
            self.rect.c1 + (idx % self.width()) as u32,
        )
    }

    /// The run-borne value at linear index `idx`, if a run covers it.
    fn run_value(&self, idx: u64) -> Option<CellValue> {
        let i = match self.runs.binary_search_by_key(&idx, |(s, _)| *s) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (start, data) = &self.runs[i];
        (idx - start < data.len()).then(|| data.value_at(idx - start))
    }

    fn has_error(&self, idx: u64) -> bool {
        self.errors.binary_search_by_key(&idx, |(i, _)| *i).is_ok()
    }

    /// The cell at `addr`, or `None` for blank / out-of-window addresses.
    pub fn cell_at(&self, addr: CellAddr) -> Option<Cell> {
        let idx = self.index_of(addr)?;
        let formula = self
            .formulas
            .binary_search_by_key(&idx, |(i, _)| *i)
            .ok()
            .map(|i| self.formulas[i].1.clone());
        let value = if let Ok(i) = self.errors.binary_search_by_key(&idx, |(i, _)| *i) {
            Some(CellValue::Error(self.errors[i].1))
        } else {
            self.run_value(idx)
        };
        match (value, formula) {
            (None, None) => None,
            (value, formula) => Some(Cell {
                value: value.unwrap_or_default(),
                formula,
            }),
        }
    }

    /// Expand back into the sorted `(addr, cell)` form (tests, exports,
    /// UI adapters that want one cell at a time).
    pub fn cells(&self) -> Vec<(CellAddr, Cell)> {
        let mut map: std::collections::BTreeMap<u64, Cell> = std::collections::BTreeMap::new();
        for (start, data) in &self.runs {
            for off in 0..data.len() {
                map.insert(
                    start + off,
                    Cell {
                        value: data.value_at(off),
                        formula: None,
                    },
                );
            }
        }
        for (idx, e) in &self.errors {
            map.entry(*idx).or_default().value = CellValue::Error(*e);
        }
        for (idx, src) in &self.formulas {
            map.entry(*idx).or_default().formula = Some(src.clone());
        }
        map.into_iter()
            .map(|(idx, cell)| (self.addr_of(idx), cell))
            .collect()
    }

    /// Serialize with the shared workspace codec.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_rect(out, self.rect);
        put_u32(out, self.runs.len() as u32);
        for (start, data) in &self.runs {
            put_u64(out, *start);
            match data {
                RunData::Numbers(v) => {
                    put_u8(out, 0);
                    put_list(out, v, |out, n| put_f64(out, *n));
                }
                RunData::Texts(v) => {
                    put_u8(out, 1);
                    put_list(out, v, |out, s| put_str(out, s));
                }
                RunData::Bools(v) => {
                    put_u8(out, 2);
                    put_list(out, v, |out, b| put_u8(out, u8::from(*b)));
                }
                RunData::RepeatNumber { n, value } => {
                    put_u8(out, 3);
                    put_u32(out, *n);
                    put_f64(out, *value);
                }
                RunData::RepeatText { n, value } => {
                    put_u8(out, 4);
                    put_u32(out, *n);
                    put_str(out, value);
                }
            }
        }
        put_list(out, &self.errors, |out, (idx, e)| {
            put_u64(out, *idx);
            put_u8(out, e.code());
        });
        put_list(out, &self.formulas, |out, (idx, src)| {
            put_u64(out, *idx);
            put_str(out, src);
        });
    }

    /// Decode and validate: runs must be sorted, non-overlapping, and
    /// in-bounds; overlays sorted and in-bounds. Violations surface as a
    /// [`DecodeError`].
    pub fn decode(r: &mut Reader<'_>) -> Result<WindowPatch, DecodeError> {
        let rect = read_rect(r)?;
        let mut patch = WindowPatch {
            rect,
            runs: Vec::new(),
            errors: Vec::new(),
            formulas: Vec::new(),
        };
        let last = patch.last_index();
        let run_count = r.u32()?;
        // First index not yet covered; `None` once a run took the last.
        let mut horizon = Some(0u64);
        for _ in 0..run_count {
            let start = r.u64()?;
            let data = match r.u8()? {
                0 => RunData::Numbers(r.list(Reader::f64)?),
                1 => RunData::Texts(r.list(Reader::str)?),
                2 => RunData::Bools(r.list(Reader::bool)?),
                3 => RunData::RepeatNumber {
                    n: r.u32()?,
                    value: r.f64()?,
                },
                4 => RunData::RepeatText {
                    n: r.u32()?,
                    value: r.str()?,
                },
                t => return Err(corrupt(format!("unknown window-run tag {t}"))),
            };
            let len = data.len();
            if len == 0 {
                return Err(corrupt("empty window run"));
            }
            if horizon.is_none_or(|h| start < h) {
                return Err(corrupt("window runs out of order or overlapping"));
            }
            let end = start
                .checked_add(len - 1)
                .filter(|&end| end <= last)
                .ok_or_else(|| corrupt("window run exceeds window area"))?;
            horizon = end.checked_add(1);
            patch.runs.push((start, data));
        }
        patch.errors = read_overlay(r, last, "error", |r| cell_error(r.u8()?))?;
        patch.formulas = read_overlay(r, last, "formula", Reader::str)?;
        Ok(patch)
    }
}

/// A sparse overlay: strictly increasing in-window indices, each with its
/// payload.
fn read_overlay<'a, T>(
    r: &mut Reader<'a>,
    last: u64,
    what: &str,
    mut payload: impl FnMut(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<Vec<(u64, T)>, DecodeError> {
    let mut prev = None;
    r.list(|r| {
        let idx = r.u64()?;
        if idx > last || prev.is_some_and(|p| idx <= p) {
            return Err(corrupt(format!(
                "window {what} overlay out of order or out of bounds"
            )));
        }
        prev = Some(idx);
        Ok((idx, payload(r)?))
    })
}

/// Split stretches of ≥ [`REPEAT_MIN`] equal consecutive values out of one
/// plain run into repeat runs, leaving shorter stretches in plain runs.
fn split_repeats<T: Clone>(
    start: u64,
    v: Vec<T>,
    out: &mut Vec<(u64, RunData)>,
    same: impl Fn(&T, &T) -> bool,
    repeat: impl Fn(u32, T) -> RunData,
    plain: impl Fn(Vec<T>) -> RunData,
) {
    let mut lo = 0usize;
    while lo < v.len() {
        let mut hi = lo + 1;
        while hi < v.len() && same(&v[hi], &v[lo]) {
            hi += 1;
        }
        if hi - lo >= REPEAT_MIN {
            out.push((start + lo as u64, repeat((hi - lo) as u32, v[lo].clone())));
            lo = hi;
        } else {
            // Grow a plain run until the next long repeat stretch.
            let run_lo = lo;
            while lo < v.len() {
                let mut h = lo + 1;
                while h < v.len() && same(&v[h], &v[lo]) {
                    h += 1;
                }
                if h - lo >= REPEAT_MIN {
                    break;
                }
                lo = h;
            }
            out.push((start + run_lo as u64, plain(v[run_lo..lo].to_vec())));
        }
    }
}

/// Streaming [`WindowPatch`] construction off an ordered scan of the window
/// (`HybridSheet::scan` in the engine): the filled cells arrive as borrows
/// in strictly increasing row-major order and go straight into the runs —
/// no intermediate `(CellAddr, Cell)` vector, no per-cell `Cell`, no sort.
#[derive(Debug)]
pub struct PatchBuilder {
    patch: WindowPatch,
    /// Linear index of the last cell placed (the window's last index is
    /// `u64::MAX` on a full sheet, so "the next one" may not exist).
    last: Option<u64>,
}

impl PatchBuilder {
    pub fn new(rect: Rect) -> PatchBuilder {
        PatchBuilder {
            patch: WindowPatch {
                rect,
                runs: Vec::new(),
                errors: Vec::new(),
                formulas: Vec::new(),
            },
            last: None,
        }
    }

    /// Place the cell at sheet position `(row, col)`. Positions must
    /// strictly increase in row-major order; the ones skipped are blank. A
    /// cell outside the window is ignored, and so is one at or behind the
    /// last placed position — a bug in the caller's scan, never
    /// mis-indexed.
    #[inline]
    pub fn place(&mut self, row: u32, col: u32, value: ScanValue<'_>, formula: Option<&str>) {
        let Some(idx) = self.patch.index_of(CellAddr::new(row, col)) else {
            return;
        };
        let behind = self.last.is_some_and(|last| idx <= last);
        debug_assert!(!behind, "cell ({row},{col}) placed out of row-major order");
        if behind {
            return;
        }
        self.last = Some(idx);
        if let Some(src) = formula {
            self.patch.formulas.push((idx, src.to_string()));
        }
        match value {
            ScanValue::Empty => {}
            ScanValue::Error(e) => self.patch.errors.push((idx, e)),
            ScanValue::Number(n) => self.patch.push_number(idx, n),
            ScanValue::Text(s) => self
                .patch
                .push_scalar(idx, RunData::Texts(vec![s.to_string()])),
            ScanValue::Bool(b) => self.patch.push_scalar(idx, RunData::Bools(vec![b])),
        }
    }

    /// Finish the patch (collapses repeat stretches).
    pub fn finish(mut self) -> WindowPatch {
        self.patch.compact_repeats();
        self.patch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell_num(n: f64) -> Cell {
        Cell::value(n)
    }

    fn roundtrip(patch: &WindowPatch) -> WindowPatch {
        let mut buf = Vec::new();
        patch.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = WindowPatch::decode(&mut r).unwrap();
        r.expect_done("patch").unwrap();
        decoded
    }

    #[test]
    fn empty_window() {
        let patch = WindowPatch::from_cells(Rect::new(0, 0, 9, 9), Vec::new());
        assert!(patch.is_empty());
        assert_eq!(patch.filled_count(), 0);
        assert_eq!(patch.cells(), Vec::new());
        assert_eq!(roundtrip(&patch), patch);
    }

    #[test]
    fn dense_numbers_collapse_into_one_run() {
        let rect = Rect::new(2, 1, 4, 3);
        let mut cells = Vec::new();
        for r in 2..=4u32 {
            for c in 1..=3u32 {
                cells.push((CellAddr::new(r, c), cell_num((r * 10 + c) as f64)));
            }
        }
        let patch = WindowPatch::from_cells(rect, cells.clone());
        assert_eq!(patch.run_count(), 1, "contiguous same-typed cells = 1 run");
        assert_eq!(patch.filled_count(), 9);
        assert_eq!(patch.cells(), cells);
        assert_eq!(roundtrip(&patch), patch);
    }

    #[test]
    fn mixed_types_and_gaps_split_runs() {
        let rect = Rect::new(0, 0, 1, 4);
        let cells = vec![
            (CellAddr::new(0, 0), Cell::value(1.0)),
            (CellAddr::new(0, 1), Cell::value("x")),
            (CellAddr::new(0, 2), Cell::value(true)),
            // gap at (0,3)
            (CellAddr::new(0, 4), Cell::value(2.0)),
            (CellAddr::new(1, 0), Cell::value(3.0)),
        ];
        let patch = WindowPatch::from_cells(rect, cells.clone());
        // number | text | bool | number(2.0 .. wraps row, still contiguous
        // linearly? idx 4 then 5 — contiguous, same type → one run)
        assert_eq!(patch.run_count(), 4);
        assert_eq!(patch.cells(), cells);
        assert_eq!(patch.filled_count(), 5);
        assert_eq!(roundtrip(&patch), patch);
    }

    #[test]
    fn formula_and_error_overlays() {
        let rect = Rect::new(0, 0, 0, 3);
        let cells = vec![
            (CellAddr::new(0, 0), Cell::value(2.0)),
            (CellAddr::new(0, 1), Cell::formula("A1*2").with_value(4.0)),
            (
                CellAddr::new(0, 2),
                Cell {
                    value: CellValue::Error(CellError::Div0),
                    formula: Some("1/0".to_string()),
                },
            ),
            (CellAddr::new(0, 3), Cell::formula("ZZ1")),
        ];
        let patch = WindowPatch::from_cells(rect, cells.clone());
        assert_eq!(patch.filled_count(), 4);
        assert_eq!(patch.cells(), cells);
        assert_eq!(
            patch.cell_at(CellAddr::new(0, 1)).unwrap(),
            Cell::formula("A1*2").with_value(4.0)
        );
        assert_eq!(
            patch.cell_at(CellAddr::new(0, 2)).unwrap().value,
            CellValue::Error(CellError::Div0)
        );
        assert_eq!(patch.cell_at(CellAddr::new(5, 5)), None);
        assert_eq!(
            patch.cell_at(CellAddr::new(0, 3)).unwrap().value,
            CellValue::Empty
        );
        assert_eq!(roundtrip(&patch), patch);
    }

    #[test]
    fn constant_stretches_become_repeat_runs() {
        let rect = Rect::new(0, 0, 0, 99);
        let mut cells = Vec::new();
        for c in 0..40u32 {
            cells.push((CellAddr::new(0, c), cell_num(7.0)));
        }
        for c in 40..50u32 {
            cells.push((CellAddr::new(0, c), cell_num(c as f64)));
        }
        let patch = WindowPatch::from_cells(rect, cells.clone());
        assert_eq!(
            patch.run_count(),
            2,
            "40 identical numbers collapse to one repeat run"
        );
        let mut buf = Vec::new();
        patch.encode(&mut buf);
        assert!(
            buf.len() < 40 * 8,
            "repeat encoding beats 40 raw f64s ({} bytes)",
            buf.len()
        );
        assert_eq!(patch.cells(), cells);
        assert_eq!(roundtrip(&patch), patch);
    }

    #[test]
    fn wire_size_beats_naive_cells_by_a_wide_margin_on_dense_windows() {
        // 50x8 dense numeric window: the naive form is ≥ 16 bytes of
        // address + tag overhead per cell before the payload.
        let rect = Rect::new(0, 0, 49, 7);
        let mut cells = Vec::new();
        for r in 0..50u32 {
            for c in 0..8u32 {
                cells.push((CellAddr::new(r, c), cell_num((r + c) as f64)));
            }
        }
        let patch = WindowPatch::from_cells(rect, cells);
        let mut buf = Vec::new();
        patch.encode(&mut buf);
        let naive = 400 * (8 + 1 + 8 + 1); // addr + value tag + f64 + formula tag
        assert!(
            buf.len() * 2 < naive,
            "patch bytes {} vs naive {naive}",
            buf.len()
        );
    }

    #[test]
    fn decode_rejects_malformed_patches() {
        // Overlapping runs.
        let mut buf = Vec::new();
        put_rect(&mut buf, Rect::new(0, 0, 0, 9));
        put_u32(&mut buf, 2);
        put_u64(&mut buf, 0);
        put_u8(&mut buf, 0);
        put_u32(&mut buf, 3);
        for _ in 0..3 {
            put_f64(&mut buf, 1.0);
        }
        put_u64(&mut buf, 1); // overlaps [0,3)
        put_u8(&mut buf, 0);
        put_u32(&mut buf, 1);
        put_f64(&mut buf, 2.0);
        assert!(WindowPatch::decode(&mut Reader::new(&buf)).is_err());

        // Run past the window area.
        let mut buf = Vec::new();
        put_rect(&mut buf, Rect::new(0, 0, 0, 1));
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 0);
        put_u8(&mut buf, 3);
        put_u32(&mut buf, 100);
        put_f64(&mut buf, 1.0);
        assert!(WindowPatch::decode(&mut Reader::new(&buf)).is_err());

        // Truncated mid-run.
        let mut buf = Vec::new();
        put_rect(&mut buf, Rect::new(0, 0, 9, 9));
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 0);
        put_u8(&mut buf, 0);
        put_u32(&mut buf, 50); // claims 50 numbers, provides none
        assert!(WindowPatch::decode(&mut Reader::new(&buf)).is_err());

        // Unknown run tag.
        let mut buf = Vec::new();
        put_rect(&mut buf, Rect::new(0, 0, 9, 9));
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 0);
        put_u8(&mut buf, 9);
        assert!(WindowPatch::decode(&mut Reader::new(&buf)).is_err());

        // Error overlay out of bounds.
        let mut buf = Vec::new();
        put_rect(&mut buf, Rect::new(0, 0, 0, 0));
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 5);
        put_u8(&mut buf, 0);
        assert!(WindowPatch::decode(&mut Reader::new(&buf)).is_err());
    }

    /// Regression: the whole sheet has 2^64 cells, one more than a `u64`
    /// area holds, so decoding a full-sheet window overflowed (debug) or
    /// refused every run (release) — and took the client's demux thread,
    /// and every session multiplexed on its connection, with it.
    #[test]
    fn a_full_sheet_window_roundtrips_to_its_corners() {
        let rect = Rect::new(0, 0, u32::MAX, u32::MAX);
        let corners = vec![
            (CellAddr::new(0, 0), cell_num(1.0)),
            (CellAddr::new(0, u32::MAX), Cell::value("top right")),
            (CellAddr::new(u32::MAX, 0), Cell::value(true)),
            (
                CellAddr::new(u32::MAX, u32::MAX),
                Cell::formula("A1").with_value(1.0),
            ),
        ];
        let patch = WindowPatch::from_cells(rect, corners.clone());
        assert_eq!(patch.filled_count(), 4);
        assert_eq!(patch.cells(), corners);
        let back = roundtrip(&patch);
        assert_eq!(back, patch);
        assert_eq!(
            back.cell_at(CellAddr::new(u32::MAX, u32::MAX)),
            Some(Cell::formula("A1").with_value(1.0))
        );

        // A run ending on the last cell decodes; one cell longer does not.
        let run = |start: u64, n: u32| {
            let mut buf = Vec::new();
            put_rect(&mut buf, rect);
            put_u32(&mut buf, 1);
            put_u64(&mut buf, start);
            put_u8(&mut buf, 3);
            put_u32(&mut buf, n);
            put_f64(&mut buf, 1.0);
            put_u32(&mut buf, 0);
            put_u32(&mut buf, 0);
            WindowPatch::decode(&mut Reader::new(&buf))
        };
        let last = run(u64::MAX - 9, 10).unwrap();
        assert_eq!(
            last.cell_at(CellAddr::new(u32::MAX, u32::MAX)),
            Some(cell_num(1.0))
        );
        assert!(run(u64::MAX - 9, 11).is_err(), "one cell past the sheet");
        assert!(run(u64::MAX, 2).is_err(), "wraps past the last index");
        // Nothing can follow a run that took the last cell.
        let mut buf = Vec::new();
        put_rect(&mut buf, rect);
        put_u32(&mut buf, 2);
        for start in [u64::MAX, u64::MAX] {
            put_u64(&mut buf, start);
            put_u8(&mut buf, 3);
            put_u32(&mut buf, 1);
            put_f64(&mut buf, 1.0);
        }
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 0);
        assert!(WindowPatch::decode(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn constant_text_stretches_become_repeat_runs() {
        let rect = Rect::new(0, 0, 0, 59);
        let mut cells = Vec::new();
        for c in 0..40u32 {
            cells.push((CellAddr::new(0, c), Cell::value("electronics")));
        }
        for c in 40..50u32 {
            cells.push((CellAddr::new(0, c), Cell::value(format!("sku-{c}"))));
        }
        let patch = WindowPatch::from_cells(rect, cells.clone());
        assert_eq!(
            patch.run_count(),
            2,
            "40 identical texts collapse to one repeat run"
        );
        let mut buf = Vec::new();
        patch.encode(&mut buf);
        assert!(
            buf.len() < 40 * "electronics".len(),
            "repeat encoding beats 40 raw strings ({} bytes)",
            buf.len()
        );
        assert_eq!(patch.cells(), cells);
        assert_eq!(roundtrip(&patch), patch);
    }

    #[test]
    fn builder_matches_from_cells() {
        // A window with every value shape, plus long numeric and text
        // repeats, built both ways must be structurally identical.
        let rect = Rect::new(3, 2, 7, 11); // 5x10 window
        let mut cells = Vec::new();
        for idx in 0..50u32 {
            let addr = CellAddr::new(rect.r1 + idx / 10, rect.c1 + idx % 10);
            let cell = match idx {
                0..=17 => Cell::value(7.0),
                18 => Cell {
                    value: CellValue::Error(CellError::Div0),
                    formula: Some("1/0".to_string()),
                },
                19 | 20 => continue,
                21..=40 => Cell::value("apparel"),
                41 => Cell::value(true),
                42 => Cell::formula("SUM(A1:A2)").with_value(42.0),
                43 => Cell::formula("ZZ99"),
                _ => Cell::value(idx as f64),
            };
            cells.push((addr, cell));
        }
        let built = placed(rect, &cells);
        assert_eq!(built, WindowPatch::from_cells(rect, cells.clone()));
        assert_eq!(built.cells(), cells);
        assert_eq!(roundtrip(&built), built);
    }

    /// `cells` placed into a builder in the order given.
    fn placed(rect: Rect, cells: &[(CellAddr, Cell)]) -> WindowPatch {
        let mut b = PatchBuilder::new(rect);
        for (addr, cell) in cells {
            b.place(
                addr.row,
                addr.col,
                ScanValue::of(&cell.value),
                cell.formula.as_deref(),
            );
        }
        b.finish()
    }

    #[test]
    fn builder_ignores_pushes_past_the_window() {
        let rect = Rect::new(1, 1, 1, 2);
        let mut b = PatchBuilder::new(rect);
        b.place(0, 1, ScanValue::Number(0.0), None); // above
        b.place(1, 0, ScanValue::Number(0.5), None); // left
        b.place(1, 1, ScanValue::Number(1.0), None);
        b.place(1, 2, ScanValue::Number(2.0), None);
        b.place(1, 3, ScanValue::Number(3.0), Some("A1")); // right
        b.place(2, 1, ScanValue::Text("x"), None); // below
        let patch = b.finish();
        assert_eq!(
            patch.cells(),
            vec![
                (CellAddr::new(1, 1), cell_num(1.0)),
                (CellAddr::new(1, 2), cell_num(2.0)),
            ]
        );
    }

    /// A scan that hands a position at or behind the last one is a bug:
    /// loud in debug builds, and in release the cell is dropped — never
    /// filed under the wrong index.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "out of row-major order"))]
    fn a_position_behind_the_last_is_refused() {
        let mut b = PatchBuilder::new(Rect::new(0, 0, 1, 1));
        b.place(0, 1, ScanValue::Number(1.0), None);
        b.place(0, 0, ScanValue::Number(2.0), Some("B1"));
        b.place(0, 1, ScanValue::Text("again"), None);
        b.place(1, 0, ScanValue::Bool(true), None);
        assert_eq!(
            b.finish().cells(),
            vec![
                (CellAddr::new(0, 1), cell_num(1.0)),
                (CellAddr::new(1, 0), Cell::value(true)),
            ]
        );
    }

    proptest::proptest! {
        /// Any strictly increasing subset of window positions — stretches
        /// of one shape, so long number and text repeats occur beside
        /// bools, errors, gaps and formulas over empty values — builds the
        /// patch `from_cells` builds from the same cells out of order, and
        /// that patch expands back to the cells and survives the wire.
        #[test]
        fn place_builds_what_from_cells_builds(
            rows in 1u32..7,
            cols in 1u32..40,
            stretches in proptest::collection::vec((1usize..40, 0u8..8, 0u8..4), 1..24),
        ) {
            let rect = Rect::new(5, 3, 5 + rows - 1, 3 + cols - 1);
            let shapes = stretches
                .iter()
                .flat_map(|&(len, shape, formula)| std::iter::repeat_n((shape, formula), len));
            let mut cells = Vec::new();
            for (addr, (shape, formula)) in rect.iter().zip(shapes) {
                let value = match shape {
                    0 => continue,
                    1 | 2 => CellValue::Number(7.0),
                    3 => CellValue::Number(f64::from(addr.col)),
                    4 => CellValue::Text("apparel".to_string()),
                    5 => CellValue::Bool(addr.row % 2 == 0),
                    6 => CellValue::Error(CellError::Na),
                    _ => CellValue::Empty,
                };
                let formula =
                    (formula == 0 || value.is_empty()).then(|| format!("A{}", addr.row + 1));
                cells.push((addr, Cell { value, formula }));
            }
            let built = placed(rect, &cells);
            let mut reversed = cells.clone();
            reversed.reverse();
            proptest::prop_assert_eq!(&built, &WindowPatch::from_cells(rect, reversed));
            proptest::prop_assert_eq!(built.cells(), cells);
            proptest::prop_assert_eq!(roundtrip(&built), built);
        }
    }

    #[test]
    fn unsorted_input_is_normalized() {
        let rect = Rect::new(0, 0, 1, 1);
        let cells = vec![
            (CellAddr::new(1, 1), cell_num(4.0)),
            (CellAddr::new(0, 0), cell_num(1.0)),
        ];
        let patch = WindowPatch::from_cells(rect, cells);
        assert_eq!(
            patch.cells(),
            vec![
                (CellAddr::new(0, 0), cell_num(1.0)),
                (CellAddr::new(1, 1), cell_num(4.0)),
            ]
        );
    }

    #[test]
    fn out_of_rect_cells_are_dropped() {
        let rect = Rect::new(0, 0, 1, 1);
        let patch = WindowPatch::from_cells(
            rect,
            vec![
                (CellAddr::new(0, 0), cell_num(1.0)),
                (CellAddr::new(9, 9), cell_num(2.0)),
            ],
        );
        assert_eq!(patch.filled_count(), 1);
    }
}
