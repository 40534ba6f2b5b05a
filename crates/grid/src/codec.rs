//! The workspace's one byte codec: length-prefixed little-endian framing
//! plus the encodings of the grid vocabulary.
//!
//! Every byte format in the workspace — the row store's tuples and
//! snapshots, the engine's WAL records and checkpoint image, and the
//! session protocol on the wire — frames its primitives the same way:
//! fixed-width little-endian integers and `u32`-length-prefixed UTF-8
//! strings; a cell block also packs small integers as shortest-form
//! unsigned varints ([`put_uvarint`] / [`Reader::uvarint`]) and its texts
//! as varint-length literals ([`put_literal`] / [`Reader::literal`]), and
//! both checkpoint codecs store a number that has one as its
//! [`decimal_form`], a mantissa at a decimal scale. This module is the
//! single implementation of that framing: `put_*` writers that append to
//! a byte buffer, and a bounds-checked [`Reader`] that refuses to read
//! past the end of its slice (truncated or hostile input surfaces as a
//! [`DecodeError`], never a panic).
//!
//! Next to it live the one encoding of each shared grid value — a cell
//! value ([`put_value`] / [`read_value`]), a rectangle ([`put_rect`] /
//! [`read_rect`]) and a block of cells ([`CellsEncoder`] /
//! [`visit_cells`]): the image's cell payload, the cells of the WAL's and
//! the wire's imports ([`encode_block`] / [`visit_block`]) and the wire's
//! window response ([`visit_rect`]). Decoders accept only what the
//! encoders write: a bool is 0 or 1, a rectangle's corners are ordered, a
//! number has one form, so every decoded value re-encodes to the bytes it
//! came from.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::region::Rect;
use crate::value::{CellError, CellValue, ScanValue};

/// Hard cap on a decoded string — a sanity bound against corrupt length
/// fields, deliberately above everything an encoder can legitimately
/// produce (WAL records and wire frames are capped at 64 MiB, tuples at
/// the page size), so no committed bytes are ever rejected.
pub const MAX_STR_LEN: usize = 1 << 28;

/// Bytes that do not decode: truncated, out of range, or not what any
/// encoder writes. The storage layers fold it into their own corruption
/// error; the wire layer reports it as a protocol violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "undecodable bytes: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Shorthand for the error every decoder in the workspace returns.
pub fn corrupt(msg: impl Into<String>) -> DecodeError {
    DecodeError(msg.into())
}

// The primitives are `#[inline]`: the row store's tuple codec and the
// engine's checkpoint codec call them in their hot loops from other crates,
// where a plain function would not be inlined.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
#[inline]
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}
/// `u32` length prefix followed by the UTF-8 bytes.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
/// An unsigned LEB128 varint: seven bits per byte, low groups first, the
/// high bit set on every byte but the last. Always the shortest form, so
/// [`Reader::uvarint`] can refuse every other one.
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}
/// `10^s` for every scale `s` a [`decimal_form`] can have; each is exact
/// in an `f64`.
pub const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

/// Largest mantissa magnitude of a [`decimal_form`]: every integer up to
/// 2^53 is exact in an `f64`.
const MAX_MANTISSA: f64 = (1u64 << 53) as f64;

/// The mantissa `m` of `n` at scale `s`, if `m / 10^s` is exactly `n`:
/// `m = round(n·10^s)`, |m| ≤ 2^53, and `m as f64 / POW10[s]` has `n`'s
/// bits (so `-0.0`, NaN and ±∞ have none).
#[inline]
pub fn mantissa_at(n: f64, s: u8) -> Option<i64> {
    let p = POW10[s as usize];
    let m = (n * p).round();
    if m.abs() > MAX_MANTISSA {
        return None;
    }
    let m = m as i64;
    ((m as f64 / p).to_bits() == n.to_bits()).then_some(m)
}

/// The one number rule of the checkpoint codecs: `n` as the mantissa `m`
/// at the smallest scale `s` in `0..=15` with `m / 10^s == n` bit for bit
/// ([`mantissa_at`]). Scale 0 is an integer; `None` for `-0.0`, NaN, ±∞
/// and every number that needs more than 15 decimals or 53 bits.
#[inline]
pub fn decimal_form(n: f64) -> Option<(i64, u8)> {
    (0..POW10.len() as u8).find_map(|s| mantissa_at(n, s).map(|m| (m, s)))
}

/// A literal: its byte length as a varint ([`put_uvarint`]), then its
/// UTF-8 bytes.
#[inline]
pub fn put_literal(out: &mut Vec<u8>, s: &str) {
    put_uvarint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked little-endian reader over a byte slice.
///
/// Every accessor returns a [`DecodeError`] instead of panicking when the
/// slice runs out, so decoders can be driven by untrusted bytes.
pub struct Reader<'a> {
    bytes: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, off: 0 }
    }

    /// Fail with `ctx` unless the slice was consumed exactly.
    pub fn expect_done(&self, ctx: &str) -> Result<(), DecodeError> {
        if self.off == self.bytes.len() {
            Ok(())
        } else {
            Err(corrupt(format!("trailing bytes after {ctx}")))
        }
    }

    /// Consume the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.off.checked_add(n).filter(|e| *e <= self.bytes.len());
        let Some(end) = end else {
            return Err(corrupt("truncated record"));
        };
        let s = &self.bytes[self.off..end];
        self.off = end;
        Ok(s)
    }

    /// Consume every byte left.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.bytes[self.off..];
        self.off = self.bytes.len();
        s
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2")))
    }
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A varint written by [`put_uvarint`]. Only the shortest form is
    /// accepted: a trailing zero group (overlong), an eleventh byte, and a
    /// tenth byte carrying bits past 63 are refused. A failed read
    /// consumes nothing.
    #[inline]
    pub fn uvarint(&mut self) -> Result<u64, DecodeError> {
        let rest = &self.bytes[self.off..];
        let mut v = 0u64;
        for (i, &b) in rest.iter().take(10).enumerate() {
            v |= u64::from(b & 0x7F) << (7 * i);
            if b & 0x80 == 0 {
                if i > 0 && b == 0 {
                    return Err(corrupt("overlong varint"));
                }
                if i == 9 && b > 1 {
                    return Err(corrupt("varint overflows u64"));
                }
                self.off += i + 1;
                return Ok(v);
            }
        }
        Err(corrupt(if rest.len() < 10 {
            "truncated record"
        } else {
            "varint longer than 10 bytes"
        }))
    }

    /// A bool written as one byte: 0 or 1, nothing else.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bool byte {b}"))),
        }
    }

    /// A string written by [`put_str`].
    #[inline]
    pub fn str(&mut self) -> Result<String, DecodeError> {
        self.str_ref().map(str::to_string)
    }

    /// [`Reader::str`] without the copy: the text borrows from the slice,
    /// under the same length bound and UTF-8 check.
    #[inline]
    pub fn str_ref(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.u32()? as usize;
        if len > MAX_STR_LEN {
            return Err(corrupt(format!("string of {len} bytes exceeds bound")));
        }
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("invalid utf-8 string"))
    }

    /// A literal written by [`put_literal`], borrowed from the slice, under
    /// the same length bound and UTF-8 check as [`Reader::str_ref`].
    #[inline]
    pub fn literal(&mut self) -> Result<&'a str, DecodeError> {
        let len = self.uvarint()?;
        if len > MAX_STR_LEN as u64 {
            return Err(corrupt(format!("literal of {len} bytes exceeds bound")));
        }
        std::str::from_utf8(self.take(len as usize)?).map_err(|_| corrupt("invalid utf-8 literal"))
    }
}

/// The [`CellError`] stored as `code` ([`CellError::code`]).
pub fn cell_error(code: u8) -> Result<CellError, DecodeError> {
    CellError::from_code(code).ok_or_else(|| corrupt(format!("unknown error code {code}")))
}

/// A cell value: a tag byte (Empty 0, Number 1, Text 2, Bool 3, Error 4)
/// and its payload.
#[inline]
pub fn put_value(out: &mut Vec<u8>, v: ScanValue<'_>) {
    match v {
        ScanValue::Empty => put_u8(out, 0),
        ScanValue::Number(n) => {
            put_u8(out, 1);
            put_f64(out, n);
        }
        ScanValue::Text(s) => {
            put_u8(out, 2);
            put_str(out, s);
        }
        ScanValue::Bool(b) => {
            put_u8(out, 3);
            put_u8(out, u8::from(b));
        }
        ScanValue::Error(e) => {
            put_u8(out, 4);
            put_u8(out, e.code());
        }
    }
}

/// A value written by [`put_value`], decoded in place: a text borrows from
/// the slice.
#[inline]
pub fn read_value<'a>(r: &mut Reader<'a>) -> Result<ScanValue<'a>, DecodeError> {
    Ok(match r.u8()? {
        0 => ScanValue::Empty,
        1 => ScanValue::Number(r.f64()?),
        2 => ScanValue::Text(r.str_ref()?),
        3 => ScanValue::Bool(r.bool()?),
        4 => ScanValue::Error(cell_error(r.u8()?)?),
        t => return Err(corrupt(format!("unknown value tag {t}"))),
    })
}

/// A rectangle as its four corners `r1, c1, r2, c2`.
pub fn put_rect(out: &mut Vec<u8>, rect: Rect) {
    put_u32(out, rect.r1);
    put_u32(out, rect.c1);
    put_u32(out, rect.r2);
    put_u32(out, rect.c2);
}

/// A rectangle written by [`put_rect`]; inverted corners are refused.
pub fn read_rect(r: &mut Reader<'_>) -> Result<Rect, DecodeError> {
    let (r1, c1, r2, c2) = (r.u32()?, r.u32()?, r.u32()?, r.u32()?);
    if r1 > r2 || c1 > c2 {
        return Err(corrupt(format!("inverted rect ({r1},{c1})..({r2},{c2})")));
    }
    Ok(Rect { r1, c1, r2, c2 })
}

// A cell's tag (grammar at `CellsEncoder`): the kind in the low three
// bits, the source bit, and the modifier nibble (`TEXT_REF`: a text code).
const CELL_EMPTY: u8 = 0;
const CELL_INT: u8 = 1;
const CELL_FLOAT: u8 = 2;
const CELL_TEXT: u8 = 3;
const CELL_FALSE: u8 = 4;
const CELL_TRUE: u8 = 5;
const CELL_ERROR: u8 = 6;
const CELL_KIND: u8 = 0x07;
const CELL_SOURCE: u8 = 0x08;
const MODIFIER_SHIFT: u8 = 4;
const TEXT_REF: u8 = 1;

fn put_zigzag(out: &mut Vec<u8>, i: i64) {
    put_uvarint(out, ((i << 1) ^ (i >> 63)) as u64);
}

/// A zigzag mantissa at scale `s`, refused unless it is exactly the
/// [`decimal_form`] of the number it spells: that refuses a non-minimal
/// scale, an integral `Float` and a magnitude past 2^53.
///
/// Two shapes are accepted without the full check, because they are
/// always their own form. An integer of at most 53 bits at scale 0 is
/// exact. So is a mantissa with `1 <= s <= 15`, `|m| < 2^50` and
/// `m % 10 != 0`, where `n` is `m / 10^s` rounded once:
/// - `round(n·10^s)` is `m`: the two roundings move `n·10^s` by at most
///   `|m|·2^-52 < 1/4`, so [`mantissa_at`] finds `m` at scale `s`;
/// - no smaller scale `s'` spells `n` with some `m'`: then both
///   `m / 10^s` and `m'·10^(s−s') / 10^s` would round to `n`, so
///   `|m − m'·10^(s−s')| / 10^s` would be at most `ulp(n) <= |n|·2^-52 <
///   10^-s / 4`. The numerator is a nonzero integer when `10 ∤ m`, so it
///   would have to be below 1/4, which is impossible.
fn read_decimal(r: &mut Reader<'_>, s: u8) -> Result<f64, DecodeError> {
    let z = r.uvarint()?;
    let m = (z >> 1) as i64 ^ -((z & 1) as i64);
    if s == 0 && m.unsigned_abs() <= 1 << 53 {
        return Ok(m as f64);
    }
    if s >= 1 && m.unsigned_abs() < 1 << 50 && m % 10 != 0 {
        return Ok(m as f64 / POW10[s as usize]);
    }
    let n = m as f64 / POW10[s as usize];
    if decimal_form(n) != Some((m, s)) {
        return Err(corrupt(format!(
            "cells: mantissa {m} at scale {s} is not the form of {n:e}"
        )));
    }
    Ok(n)
}

/// Streams cells into a *cell block*, the one byte form of a block of
/// cells: the checkpoint image's cell payload, a WAL import record's and a
/// wire import's cells, and a window response's cells. Every integer is a
/// shortest-form varint ([`put_uvarint`]):
///
/// ```text
/// block   := n_rows row{n_rows}
/// row     := row_gap head [first_col] cell{n_cells}
///            row_gap = row - prev_row - 1 (first: row)
///            head    = n_cells(>=1) << 1 | dense; a dense row's columns
///                      are consecutive and it writes first_col once
/// cell    := [col_gap] tag body [source]
///            col_gap = col - prev_col - 1 (first in row: col); sparse rows only
/// tag     := kind (low 3 bits: Empty 0 | Int 1 | Float 2 | Text 3 | False 4 |
///            True 5 | Error 6) | 0x08 if a source field follows |
///            modifier << 4 (Float: scale 0..=15; Text: 0 literal, 1 reference;
///            0 on every other kind)
/// body    := Int, Float at scale s >= 1: zigzag varint mantissa |
///            Float at modifier 0: f64 LE | Text literal: put_literal |
///            Text reference: code | Error: code u8 | otherwise nothing
/// ```
///
/// Each value has one byte form: a number with a [`decimal_form`] is its
/// mantissa, and a raw `Float` holds exactly the numbers with none; a
/// text's first occurrence is a literal and every repeat the code of that
/// literal; a row whose columns are consecutive is dense. `Empty` is legal
/// only before a source field, whose grammar belongs to the layer above
/// (the image and a window store a formula source there; an import has
/// none). Cells must arrive non-blank and in strictly increasing
/// row-major order; a caller that pushes otherwise trips an assert rather
/// than writing a non-canonical block.
#[derive(Default)]
pub struct CellsEncoder {
    /// Finished rows.
    out: Vec<u8>,
    /// The current row's cells, without their column gaps.
    row: Vec<u8>,
    /// Per cell of the current row: where it starts in `row`, and its
    /// column gap.
    cells: Vec<(usize, u32)>,
    /// The current row's gap from the previous row.
    row_gap: u64,
    rows: u64,
    last: Option<(u32, u32)>,
    /// Every text written as a literal so far, by its code.
    texts: HashMap<String, u32>,
}

impl CellsEncoder {
    /// Append the cell at `(row, col)`. With `sourced`, its tag announces a
    /// source field, which the caller appends to the returned buffer
    /// before the next push.
    pub fn push(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        sourced: bool,
    ) -> &mut Vec<u8> {
        assert!(
            self.last < Some((row, col)),
            "cell block: cell ({row},{col}) pushed after {:?}",
            self.last
        );
        assert!(
            sourced || value != ScanValue::Empty,
            "cell block: blank cell ({row},{col}) pushed"
        );
        let col_gap = match self.last {
            Some((r, c)) if r == row => col - c - 1,
            last => {
                self.end_row();
                self.row_gap = last.map_or(row, |(r, _)| row - r - 1) as u64;
                col
            }
        };
        self.last = Some((row, col));
        self.cells.push((self.row.len(), col_gap));
        let out = &mut self.row;
        let flag = if sourced { CELL_SOURCE } else { 0 };
        match value {
            ScanValue::Empty => out.push(CELL_EMPTY | flag),
            ScanValue::Number(n) => match decimal_form(n) {
                Some((m, 0)) => {
                    out.push(CELL_INT | flag);
                    put_zigzag(out, m);
                }
                Some((m, s)) => {
                    out.push(CELL_FLOAT | s << MODIFIER_SHIFT | flag);
                    put_zigzag(out, m);
                }
                None => {
                    out.push(CELL_FLOAT | flag);
                    put_f64(out, n);
                }
            },
            ScanValue::Text(s) => match self.texts.get(s) {
                Some(&code) => {
                    out.push(CELL_TEXT | TEXT_REF << MODIFIER_SHIFT | flag);
                    put_uvarint(out, code.into());
                }
                None => {
                    self.texts.insert(s.to_string(), self.texts.len() as u32);
                    out.push(CELL_TEXT | flag);
                    put_literal(out, s);
                }
            },
            ScanValue::Bool(b) => out.push(if b { CELL_TRUE } else { CELL_FALSE } | flag),
            ScanValue::Error(e) => {
                out.push(CELL_ERROR | flag);
                out.push(e.code());
            }
        }
        out
    }

    /// Move the current row, under its header, to the finished rows: a
    /// dense row writes its first column once, a sparse one every cell's
    /// column gap.
    fn end_row(&mut self) {
        let Some(&(_, first_col)) = self.cells.first() else {
            return;
        };
        let dense = self.cells[1..].iter().all(|&(_, gap)| gap == 0);
        let out = &mut self.out;
        put_uvarint(out, self.row_gap);
        put_uvarint(out, (self.cells.len() as u64) << 1 | u64::from(dense));
        if dense {
            put_uvarint(out, first_col.into());
            out.extend_from_slice(&self.row);
        } else {
            let ends = self.cells[1..].iter().map(|&(start, _)| start);
            for (&(start, gap), end) in self.cells.iter().zip(ends.chain([self.row.len()])) {
                put_uvarint(out, gap.into());
                out.extend_from_slice(&self.row[start..end]);
            }
        }
        self.row.clear();
        self.cells.clear();
        self.rows += 1;
    }

    pub fn finish(mut self) -> Vec<u8> {
        self.end_row();
        let mut head = Vec::with_capacity(10);
        put_uvarint(&mut head, self.rows);
        self.out.splice(0..0, head);
        self.out
    }
}

/// `prev + 1 + gap` (or `gap` for the first), refused past `u32::MAX`.
fn advance(prev: Option<u32>, gap: u64, axis: &str) -> Result<u32, DecodeError> {
    prev.map_or(Some(gap), |p| (p as u64 + 1).checked_add(gap))
        .and_then(|at| u32::try_from(at).ok())
        .ok_or_else(|| corrupt(format!("cells: {axis} past u32::MAX")))
}

/// One cell's value, decoded in place, and whether a source field follows.
/// `texts` holds the literals read so far, by code.
fn read_cell<'a>(
    r: &mut Reader<'a>,
    texts: &mut Vec<&'a str>,
    seen: &mut HashSet<&'a str>,
) -> Result<(ScanValue<'a>, bool), DecodeError> {
    let tag = r.u8()?;
    let sourced = tag & CELL_SOURCE != 0;
    let value = match (tag & CELL_KIND, tag >> MODIFIER_SHIFT) {
        (CELL_EMPTY, 0) if sourced => ScanValue::Empty,
        (CELL_EMPTY, 0) => return Err(corrupt("cells: blank cell without a source")),
        (CELL_INT, 0) => ScanValue::Number(read_decimal(r, 0)?),
        (CELL_FLOAT, 0) => {
            let n = r.f64()?;
            if decimal_form(n).is_some() {
                return Err(corrupt(format!("cells: decimal {n} stored as a raw float")));
            }
            ScanValue::Number(n)
        }
        (CELL_FLOAT, s) => ScanValue::Number(read_decimal(r, s)?),
        (CELL_TEXT, 0) => {
            let s = r.literal()?;
            if !seen.insert(s) {
                return Err(corrupt("cells: a literal repeats an earlier text"));
            }
            texts.push(s);
            ScanValue::Text(s)
        }
        (CELL_TEXT, TEXT_REF) => {
            let code = r.uvarint()?;
            match usize::try_from(code).ok().and_then(|c| texts.get(c)) {
                Some(s) => ScanValue::Text(s),
                None => return Err(corrupt(format!("cells: text code {code} not yet written"))),
            }
        }
        (CELL_FALSE, 0) => ScanValue::Bool(false),
        (CELL_TRUE, 0) => ScanValue::Bool(true),
        (CELL_ERROR, 0) => ScanValue::Error(cell_error(r.u8()?)?),
        _ => return Err(corrupt(format!("cells: unknown cell tag {tag:#04x}"))),
    };
    Ok((value, sourced))
}

/// Visit the cells of a block written by [`CellsEncoder`] in row-major
/// order, texts borrowed from `block`; `f` gets the reader at a cell's
/// source field, if any, and must consume it. Only the encoder's own bytes
/// are accepted (anything else, trailing bytes included, is a
/// [`DecodeError`]), so every accepted block re-encodes to itself. An
/// error from `f` ends the visit.
pub fn visit_cells<'a, E: From<DecodeError>>(
    block: &'a [u8],
    mut f: impl FnMut(u32, u32, ScanValue<'a>, Option<&mut Reader<'a>>) -> Result<(), E>,
) -> Result<(), E> {
    let mut r = Reader::new(block);
    let (mut texts, mut seen) = (Vec::new(), HashSet::new());
    let n_rows = r.uvarint()?;
    let mut row = None;
    // Every row and cell consumes input, so a huge count fails on
    // truncation instead of looping.
    for _ in 0..n_rows {
        let at = advance(row, r.uvarint()?, "row")?;
        let head = r.uvarint()?;
        let (n_cells, dense) = (head >> 1, head & 1 == 1);
        if n_cells == 0 {
            return Err(corrupt("cells: empty row").into());
        }
        let mut col = None;
        let mut consecutive = true;
        for _ in 0..n_cells {
            let gap = if dense && col.is_some() {
                0
            } else {
                r.uvarint()?
            };
            consecutive &= col.is_none() || gap == 0;
            let c = advance(col, gap, "column")?;
            let (value, sourced) = read_cell(&mut r, &mut texts, &mut seen)?;
            f(at, c, value, sourced.then_some(&mut r))?;
            col = Some(c);
        }
        if consecutive && !dense {
            return Err(corrupt("cells: consecutive columns in a sparse row").into());
        }
        row = Some(at);
    }
    Ok(r.expect_done("cells")?)
}

/// The cell block of an import of `rows` into a rect `width` columns wide,
/// in rect-local coordinates: each row's first `width` non-empty values.
pub fn encode_block(width: u32, rows: &[Vec<CellValue>]) -> Vec<u8> {
    let mut enc = CellsEncoder::default();
    for (r, row) in rows.iter().enumerate() {
        for (c, v) in row.iter().take(width as usize).enumerate() {
            if !v.is_empty() {
                enc.push(r as u32, c as u32, ScanValue::of(v), false);
            }
        }
    }
    enc.finish()
}

/// [`visit_cells`] of a block in the local coordinates of a rect `rows`
/// x `width`, refusing also a cell outside that rect. A window's rect may
/// be the whole sheet, `2^32` rows and columns, hence `u64`.
pub fn visit_rect<'a, E: From<DecodeError>>(
    block: &'a [u8],
    rows: u64,
    width: u64,
    mut f: impl FnMut(u32, u32, ScanValue<'a>, Option<&mut Reader<'a>>) -> Result<(), E>,
) -> Result<(), E> {
    visit_cells(block, |row, col, value, source| {
        if u64::from(row) >= rows || u64::from(col) >= width {
            return Err(corrupt(format!(
                "cells: cell ({row},{col}) outside its {rows}x{width} rect"
            ))
            .into());
        }
        f(row, col, value, source)
    })
}

/// [`visit_rect`] of an import block `rows` x `width`, refusing also a
/// source field.
pub fn visit_block<'a, E: From<DecodeError>>(
    block: &'a [u8],
    rows: u32,
    width: u32,
    mut f: impl FnMut(u32, u32, ScanValue<'a>) -> Result<(), E>,
) -> Result<(), E> {
    let (rows, width) = (u64::from(rows), u64::from(width));
    visit_rect(block, rows, width, |row, col, value, source| {
        if source.is_some() {
            return Err(corrupt(format!("import block: cell ({row},{col}) has a source")).into());
        }
        f(row, col, value)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 1234);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_f64(&mut buf, -2.5);
        put_str(&mut buf, "héllo");
        buf.extend_from_slice(&[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 1234);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -2.5);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.take(3).unwrap(), &[1, 2, 3]);
        r.expect_done("test").unwrap();
    }

    #[test]
    fn bounds_checked_reads_fail_cleanly() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u32().is_err());
        // A failed read consumes nothing.
        assert_eq!(r.u16().unwrap(), 0x0201);
        assert!(r.u8().is_err());
        // A string length pointing past the end is corruption, not a panic.
        let mut buf = Vec::new();
        put_u32(&mut buf, 100);
        buf.extend_from_slice(b"abc");
        assert!(Reader::new(&buf).str().is_err());
        // An implausible length is rejected before allocation.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        assert!(Reader::new(&buf).str().is_err());
    }

    #[test]
    fn varints_roundtrip_in_their_shortest_form() {
        let samples = [
            (0u64, vec![0x00]),
            (1, vec![0x01]),
            (127, vec![0x7F]),
            (128, vec![0x80, 0x01]),
            (300, vec![0xAC, 0x02]),
            (u32::MAX as u64, vec![0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
            (
                u64::MAX,
                vec![0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01],
            ),
        ];
        for (v, bytes) in samples {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            assert_eq!(buf, bytes, "{v}");
            let mut r = Reader::new(&buf);
            assert_eq!(r.uvarint(), Ok(v));
            r.expect_done("varint").unwrap();
        }
        for shift in 0..64 {
            for v in [1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) + 1] {
                let mut buf = Vec::new();
                put_uvarint(&mut buf, v);
                assert_eq!(Reader::new(&buf).uvarint(), Ok(v));
            }
        }
    }

    #[test]
    fn non_canonical_varints_are_refused_and_consume_nothing() {
        let refused = [
            (vec![0x80, 0x00], "0, overlong"),
            (vec![0xFF, 0x80, 0x00], "127, overlong"),
            ([[0xFF; 9].as_slice(), &[0x02]].concat(), "bit 64 set"),
            ([[0x80; 10].as_slice(), &[0x01]].concat(), "eleven bytes"),
            (vec![0x80], "truncated"),
            (vec![], "empty"),
        ];
        for (bytes, why) in &refused {
            let mut r = Reader::new(bytes);
            assert!(r.uvarint().is_err(), "{why}");
            assert_eq!(r.take(bytes.len()).unwrap(), bytes, "{why}: consumed");
        }
    }

    #[test]
    fn expect_done_flags_trailing_bytes() {
        let mut r = Reader::new(&[0, 1]);
        r.u8().unwrap();
        assert!(r.expect_done("thing").is_err());
        r.u8().unwrap();
        r.expect_done("thing").unwrap();
    }

    #[test]
    fn value_roundtrip_all_variants() {
        let values = [
            CellValue::Empty,
            CellValue::Number(-0.5),
            CellValue::Text("héllo".into()),
            CellValue::Bool(true),
            CellValue::Error(CellError::Circular),
        ];
        for v in &values {
            let mut buf = Vec::new();
            put_value(&mut buf, ScanValue::of(v));
            let mut r = Reader::new(&buf);
            assert_eq!(read_value(&mut r).unwrap().to_value(), *v);
            r.expect_done("value").unwrap();
        }
        let rect = Rect::new(0, 7, u32::MAX, u32::MAX);
        let mut buf = Vec::new();
        put_rect(&mut buf, rect);
        assert_eq!(read_rect(&mut Reader::new(&buf)).unwrap(), rect);
    }

    #[test]
    fn every_number_takes_its_smallest_exact_scale() {
        let two_53 = (1u64 << 53) as f64;
        for (n, want) in [
            (0.0, Some((0, 0))),
            (-7.0, Some((-7, 0))),
            (two_53, Some((1 << 53, 0))),
            (-two_53, Some((-(1 << 53), 0))),
            (0.5, Some((5, 1))),
            (0.1, Some((1, 1))),
            (-1234.56, Some((-123_456, 2))),
            (0.125, Some((125, 3))),
            (1e-15, Some((1, 15))),
            (-0.0, None),
            (f64::NAN, None),
            (f64::INFINITY, None),
            (f64::NEG_INFINITY, None),
            (two_53 + 2.0, None),
            (1e-16, None),
            (1.0 / 3.0, None),
            (f64::MAX, None),
        ] {
            assert_eq!(decimal_form(n), want, "{n:e}");
            if let Some((m, s)) = want {
                assert_eq!((m as f64 / POW10[s as usize]).to_bits(), n.to_bits());
            }
        }
        // A decimal keeps an exact mantissa at every larger scale that fits.
        assert_eq!(mantissa_at(0.1, 3), Some(100));
        assert_eq!(mantissa_at(0.25, 1), None);
        assert_eq!(mantissa_at(-0.0, 0), None);
    }

    #[test]
    fn cell_error_tags_roundtrip() {
        for e in [
            CellError::Div0,
            CellError::Value,
            CellError::Ref,
            CellError::Name,
            CellError::Na,
            CellError::Num,
            CellError::Circular,
        ] {
            assert_eq!(cell_error(e.code()), Ok(e));
        }
        assert_eq!(cell_error(200), Err(corrupt("unknown error code 200")));
    }

    #[test]
    fn non_canonical_and_unknown_bytes_are_refused() {
        assert_eq!(
            read_value(&mut Reader::new(&[77])),
            Err(corrupt("unknown value tag 77"))
        );
        assert!(read_value(&mut Reader::new(&[4, 200])).is_err());
        assert!(
            read_value(&mut Reader::new(&[3, 2])).is_err(),
            "bool byte 2"
        );
        assert!(read_value(&mut Reader::new(&[])).is_err());
        let mut buf = Vec::new();
        for corner in [5u32, 0, 4, 0] {
            put_u32(&mut buf, corner);
        }
        assert!(read_rect(&mut Reader::new(&buf)).is_err(), "r1 > r2");
    }

    #[test]
    fn an_integer_of_up_to_53_bits_decodes_and_a_wider_one_is_refused() {
        // One row, dense, one cell at column 0: an Int.
        let block = |m: i64| {
            let mut b = vec![1, 0, 3, 0, CELL_INT];
            put_zigzag(&mut b, m);
            b
        };
        let decoded = |m| {
            let mut got = Vec::new();
            visit_block(&block(m), 1, 1, |_, _, v| {
                got.push(v.to_value());
                Ok::<_, DecodeError>(())
            })
            .map(|()| got)
        };
        let two_53 = 1i64 << 53;
        for m in [0, two_53, -two_53] {
            let n = m as f64;
            assert_eq!(encode_block(1, &[vec![CellValue::Number(n)]]), block(m));
            assert_eq!(decoded(m), Ok(vec![CellValue::Number(n)]), "{m}");
        }
        for m in [two_53 + 1, -two_53 - 1] {
            assert!(decoded(m).is_err(), "{m}");
        }
    }

    #[test]
    fn a_fraction_of_under_50_bits_takes_the_fast_path_to_decimal_forms_answer() {
        let read = |m: i64, s: u8| {
            let mut b = Vec::new();
            put_zigzag(&mut b, m);
            read_decimal(&mut Reader::new(&b), s)
        };
        // The full check the fast path skips: `m` at `s` is accepted
        // exactly when it is the form of the number it spells.
        let agrees = |m: i64, s: u8| {
            let n = m as f64 / POW10[s as usize];
            match read(m, s) {
                Ok(got) => got.to_bits() == n.to_bits() && decimal_form(n) == Some((m, s)),
                Err(_) => decimal_form(n) != Some((m, s)),
            }
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for bits in 4..=50 {
            for s in 1..=15u8 {
                for _ in 0..40 {
                    let r = next();
                    let m = (r >> 1 & ((1u64 << bits) - 1)) as i64;
                    let m = if r & 1 == 1 { -m } else { m };
                    assert!(agrees(m, s), "{m} at scale {s}");
                }
            }
        }
        let two_50 = 1i64 << 50;
        for m in [two_50 - 1, -(two_50 - 1), two_50, -two_50] {
            for s in 1..=15u8 {
                assert!(agrees(m, s), "{m} at scale {s}");
            }
        }
        // A multiple of ten at a nonzero scale has a smaller one.
        for (m, s) in [(10, 1), (-120, 2), (1_000_000, 15), (two_50 - 4, 3)] {
            assert!(read(m, s).is_err(), "{m} at scale {s}");
        }
    }

    fn block_cells(
        block: &[u8],
        rows: u32,
        width: u32,
    ) -> Result<Vec<(u32, u32, CellValue)>, DecodeError> {
        let mut cells = Vec::new();
        visit_block(block, rows, width, |r, c, v| {
            cells.push((r, c, v.to_value()));
            Ok::<_, DecodeError>(())
        })?;
        Ok(cells)
    }

    #[test]
    fn an_import_block_keeps_its_cells_and_refuses_what_it_cannot_hold() {
        let rows = vec![
            vec![
                CellValue::Empty,
                CellValue::Text("a".into()),
                CellValue::Number(0.25),
            ],
            Vec::new(),
            vec![
                CellValue::Text("a".into()),
                CellValue::Empty,
                CellValue::Bool(true),
                CellValue::Number(9.0),
            ],
        ];
        let block = encode_block(3, &rows);
        // The fourth value of the last row lies past the width: not stored.
        assert_eq!(
            block_cells(&block, 3, 3).unwrap(),
            [
                (0, 1, CellValue::Text("a".into())),
                (0, 2, CellValue::Number(0.25)),
                (2, 0, CellValue::Text("a".into())),
                (2, 2, CellValue::Bool(true)),
            ]
        );
        // Too short or too narrow for its cells, a block is refused.
        assert!(block_cells(&block, 2, 3).is_err());
        assert!(block_cells(&block, 3, 2).is_err());
        // A source field is not part of an import.
        let mut enc = CellsEncoder::default();
        enc.push(0, 0, ScanValue::Empty, true).push(0);
        assert!(block_cells(&enc.finish(), 1, 1).is_err());
        // A row count far past the bytes fails on truncation.
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        assert!(block_cells(&buf, u32::MAX, u32::MAX).is_err());
        assert_eq!(encode_block(3, &[]), [0]);
    }
}
