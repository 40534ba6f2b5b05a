//! Positional-window responses.
//!
//! A [`WindowPatch`] is a window's rect plus its filled cells as one cell
//! block ([`CellsEncoder`]): the encoding the checkpoint image, the WAL
//! and an import already give a block of cells, so a window of numbers
//! is a varint per cell, a repeated text is the code of its first
//! occurrence, and a formula's source rides beside its value.
//!
//! The same struct is the in-process return type of
//! `Session::fetch_window` *and* the wire encoding of a window response —
//! the server never re-shapes a window, it frames these bytes as-is.

use dataspread_grid::codec::{
    put_literal, put_rect, put_u32, read_rect, visit_cells, visit_rect, CellsEncoder, Reader,
};
use dataspread_grid::{Cell, CellAddr, DecodeError, Rect, ScanValue};

/// A window of cells: its rect, and its filled cells as one cell block
/// ([`CellsEncoder`]) in window-local coordinates — the rect's top-left
/// cell is `(0, 0)`. A cell with a formula has a source field holding the
/// formula's source as a literal ([`put_literal`]: its byte length as a
/// varint, then UTF-8, at most [`MAX_STR_LEN`] bytes); a formula whose
/// value is blank is an `Empty` cell with a source.
///
/// On the wire: the rect ([`put_rect`]), the block's length as a `u32`,
/// the block. A block has one byte form per set of cells, so two patches
/// are equal exactly when their cells are.
///
/// [`MAX_STR_LEN`]: dataspread_grid::codec::MAX_STR_LEN
#[derive(Debug, Clone, PartialEq)]
pub struct WindowPatch {
    rect: Rect,
    /// Written by a [`PatchBuilder`] or accepted by [`WindowPatch::decode`].
    block: Vec<u8>,
    /// The cells in `block`.
    filled: usize,
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

    /// The window this patch covers.
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Number of filled cells the patch carries.
    pub fn filled_count(&self) -> usize {
        self.filled
    }

    /// True when the patch carries no cells at all.
    pub fn is_empty(&self) -> bool {
        self.filled == 0
    }

    /// Visit the cells at their sheet positions, in row-major order.
    fn visit(&self, mut f: impl FnMut(CellAddr, ScanValue<'_>, Option<&str>)) {
        visit_cells(&self.block, |row, col, value, source| {
            let formula = source.map(|r| r.literal()).transpose()?;
            f(
                CellAddr::new(self.rect.r1 + row, self.rect.c1 + col),
                value,
                formula,
            );
            Ok::<_, DecodeError>(())
        })
        .expect("a patch's block is checked when it is built or decoded");
    }

    /// Expand back into the sorted `(addr, cell)` form (tests, exports,
    /// UI adapters that want one cell at a time).
    pub fn cells(&self) -> Vec<(CellAddr, Cell)> {
        let mut cells = Vec::with_capacity(self.filled);
        self.visit(|at, value, formula| cells.push((at, cell(value, formula))));
        cells
    }

    /// Serialize with the shared workspace codec.
    pub fn encode(&self, out: &mut Vec<u8>) {
        put_rect(out, self.rect);
        put_u32(out, self.block.len() as u32);
        out.extend_from_slice(&self.block);
    }

    /// Decode and validate in one pass over the block: a cell outside the
    /// window, a source that is not a literal, and every byte
    /// [`CellsEncoder`] would not write surface as a [`DecodeError`].
    pub fn decode(r: &mut Reader<'_>) -> Result<WindowPatch, DecodeError> {
        let rect = read_rect(r)?;
        let len = r.u32()?;
        let block = r.take(len as usize)?;
        let mut filled = 0;
        visit_rect(block, rect.rows(), rect.cols(), |_, _, _, source| {
            if let Some(src) = source {
                src.literal()?;
            }
            filled += 1;
            Ok::<_, DecodeError>(())
        })?;
        Ok(WindowPatch {
            rect,
            block: block.to_vec(),
            filled,
        })
    }
}

fn cell(value: ScanValue<'_>, formula: Option<&str>) -> Cell {
    Cell {
        value: value.to_value(),
        formula: formula.map(str::to_string),
    }
}

/// Streaming [`WindowPatch`] construction off an ordered scan of the window
/// (`HybridSheet::scan` in the engine): the filled cells arrive as borrows
/// in strictly increasing row-major order and go straight into the block —
/// no intermediate `(CellAddr, Cell)` vector, no per-cell `Cell`, no sort.
pub struct PatchBuilder {
    rect: Rect,
    cells: CellsEncoder,
    /// Window-local position of the last cell placed.
    last: Option<(u32, u32)>,
    filled: usize,
}

impl PatchBuilder {
    pub fn new(rect: Rect) -> PatchBuilder {
        PatchBuilder {
            rect,
            cells: CellsEncoder::default(),
            last: None,
            filled: 0,
        }
    }

    /// Place the cell at sheet position `(row, col)`. Positions must
    /// strictly increase in row-major order; the ones skipped are blank. A
    /// cell outside the window is ignored, and so is one at or behind the
    /// last placed position — a bug in the caller's scan, never
    /// mis-placed.
    #[inline]
    pub fn place(&mut self, row: u32, col: u32, value: ScanValue<'_>, formula: Option<&str>) {
        if !self.rect.contains(CellAddr::new(row, col)) {
            return;
        }
        let at = (row - self.rect.r1, col - self.rect.c1);
        let behind = self.last >= Some(at);
        debug_assert!(!behind, "cell ({row},{col}) placed out of row-major order");
        if behind {
            return;
        }
        self.last = Some(at);
        if value == ScanValue::Empty && formula.is_none() {
            return;
        }
        self.filled += 1;
        let out = self.cells.push(at.0, at.1, value, formula.is_some());
        if let Some(src) = formula {
            put_literal(out, src);
        }
    }

    pub fn finish(self) -> WindowPatch {
        WindowPatch {
            rect: self.rect,
            block: self.cells.finish(),
            filled: self.filled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_grid::codec::put_uvarint;
    use dataspread_grid::{CellError, CellValue};

    fn cell_num(n: f64) -> Cell {
        Cell::value(n)
    }

    fn roundtrip(patch: &WindowPatch) -> WindowPatch {
        let mut buf = Vec::new();
        patch.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let decoded = WindowPatch::decode(&mut r).unwrap();
        r.expect_done("patch").unwrap();
        // The decoded cells rebuild the very bytes they came from.
        assert_eq!(
            WindowPatch::from_cells(decoded.rect, decoded.cells()),
            decoded
        );
        decoded
    }

    fn decode(bytes: &[u8]) -> Result<WindowPatch, DecodeError> {
        let mut r = Reader::new(bytes);
        let patch = WindowPatch::decode(&mut r)?;
        r.expect_done("patch")?;
        Ok(patch)
    }

    /// The wire form of `block` as the cells of `rect`.
    fn frame(rect: Rect, block: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_rect(&mut buf, rect);
        put_u32(&mut buf, block.len() as u32);
        buf.extend_from_slice(block);
        buf
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
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
        let decoded: std::collections::BTreeMap<CellAddr, Cell> =
            patch.cells().into_iter().collect();
        assert_eq!(
            decoded[&CellAddr::new(0, 1)],
            Cell::formula("A1*2").with_value(4.0)
        );
        assert_eq!(
            decoded[&CellAddr::new(0, 2)].value,
            CellValue::Error(CellError::Div0)
        );
        assert_eq!(decoded.get(&CellAddr::new(5, 5)), None);
        assert_eq!(decoded[&CellAddr::new(0, 3)].value, CellValue::Empty);
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
        let rect = Rect::new(10, 20, 11, 21);
        // One number at window-local `(row, col)`, with a raw source field.
        let one = |row, col, source: Option<&[u8]>| {
            let mut enc = CellsEncoder::default();
            let out = enc.push(row, col, ScanValue::Number(1.0), source.is_some());
            out.extend_from_slice(source.unwrap_or_default());
            enc.finish()
        };
        let good = one(1, 1, Some(&[2, b'A', b'1']));
        assert_eq!(
            decode(&frame(rect, &good)).unwrap().cells(),
            [(CellAddr::new(11, 21), Cell::formula("A1").with_value(1.0))]
        );
        let mut short = frame(rect, &good);
        short.pop();
        let refused = [
            ("a cell past the last row", frame(rect, &one(2, 1, None))),
            ("a cell past the last column", frame(rect, &one(1, 2, None))),
            (
                "a source that is not utf-8",
                frame(rect, &one(0, 0, Some(&[1, 0xFF]))),
            ),
            (
                "a source past the block",
                frame(rect, &one(0, 0, Some(&[5, b'A']))),
            ),
            (
                "trailing bytes in the block",
                frame(rect, &[&good[..], &[0]].concat()),
            ),
            ("a block length past the frame", short),
            // One row, dense, one cell at column 0 with tag 7.
            ("an unknown tag", frame(rect, &[1, 0, 3, 0, 7])),
        ];
        for (why, bytes) in refused {
            assert!(decode(&bytes).is_err(), "{why}");
        }
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
            back.cells().pop(),
            Some((
                CellAddr::new(u32::MAX, u32::MAX),
                Cell::formula("A1").with_value(1.0)
            ))
        );

        // A cell on the last position decodes; a cell or a row after it
        // does not. An integer 1 is tag 1, zigzag mantissa 2.
        let varints = |vs: &[u64]| {
            let mut block = Vec::new();
            for &v in vs {
                put_uvarint(&mut block, v);
            }
            frame(rect, &block)
        };
        let max = u64::from(u32::MAX);
        let last = decode(&varints(&[1, max, 3, max, 1, 2])).unwrap();
        assert_eq!(
            last.cells(),
            vec![(CellAddr::new(u32::MAX, u32::MAX), cell_num(1.0))]
        );
        let past_column = varints(&[1, max, 4, max, 1, 2, 0, 1, 2]);
        assert!(decode(&past_column).is_err(), "one cell past the sheet");
        let past_row = varints(&[2, max, 3, 0, 1, 2, 0, 3, 0, 1, 2]);
        assert!(decode(&past_row).is_err(), "one row past the sheet");
    }

    /// A small window's bytes, pinned when the window response became a
    /// cell block (protocol 5). Byte groups: the rect; the block's length
    /// (49); 3 stored rows; row 0 dense with 4 cells from col 0 — Int
    /// zigzag 84 (42), Float at scale 2 zigzag 2449 (-12.25), raw Float
    /// 1/3, Text literal "ab"; row 1 dense with 4 cells from col 0 — Text
    /// code 0 ("ab"), True, Error #DIV/0!, Int 84 with a source literal
    /// "A1*2"; row 2 sparse with 2 cells — col gap 1, Empty with the
    /// source "ZZ9", col gap 1, Int zigzag 1 (-1).
    #[test]
    fn a_window_encodes_to_the_pinned_bytes() {
        let rect = Rect::new(5, 2, 7, 5);
        let at = |r: u32, c: u32| CellAddr::new(rect.r1 + r, rect.c1 + c);
        let cells = vec![
            (at(0, 0), Cell::value(42.0)),
            (at(0, 1), Cell::value(-12.25)),
            (at(0, 2), Cell::value(1.0 / 3.0)),
            (at(0, 3), Cell::value("ab")),
            (at(1, 0), Cell::value("ab")),
            (at(1, 1), Cell::value(true)),
            (at(1, 2), Cell::value(CellValue::Error(CellError::Div0))),
            (at(1, 3), Cell::formula("A1*2").with_value(84.0)),
            (at(2, 1), Cell::formula("ZZ9")),
            (at(2, 3), Cell::value(-1.0)),
        ];
        let patch = WindowPatch::from_cells(rect, cells.clone());
        let mut bytes = Vec::new();
        patch.encode(&mut bytes);
        assert_eq!(
            hex(&bytes),
            concat!(
                "05000000020000000700000005000000",
                "31000000",
                "03",
                "000900",
                "0154",
                "229113",
                "02555555555555d53f",
                "03026162",
                "000900",
                "1300",
                "05",
                "0600",
                "09a8010441312a32",
                "0004",
                "0108035a5a39",
                "010101"
            )
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
