//! Columnar compressed region storage — the third physical layout
//! (ROADMAP item 3, post-paper).
//!
//! A [`ColumnarTranslator`] stores its region as per-column typed arrays:
//! run-length-encoded *tag runs* (null / number / bool / text / error)
//! carry the row structure, and each tag's payload lives in a dense typed
//! store — numbers as bit-packed decimal mantissas at one scale per column
//! when every value has one (the cell payload's number rule,
//! [`codec::decimal_form`]: 1-decimal amounts at scale 1, integers at 0),
//! raw `f64`s otherwise; bools in a bitmap, strings as codes into a
//! per-column dictionary (themselves RLE'd when repetitive), errors as
//! code bytes. Formulas are sparse (`row → source`), since large imported
//! regions hold almost none.
//!
//! Writes go to a small sorted overlay checked before the base columns;
//! past a threshold the overlay compacts back into the affected columns.
//! That keeps the layout honest for *read-mostly* — not read-only —
//! regions: point edits stay O(log overlay), scans stay columnar.
//!
//! One cursor, `CellCursor`, merges a column's base runs, its formulas and
//! the overlay cell by cell. Scans, point reads and both rewrites read
//! through it: compaction rebuilds the overlay's columns off it, and a row
//! delete rebuilds every column off it with the deleted band skipped. Row
//! inserts and growth splice null runs instead of rebuilding.
//!
//! The checkpoint payload is the region's fresh build:
//! [`ColumnarTranslator::to_bytes`] compacts the region, so a checkpoint
//! leaves it as its image decodes, and writes its columns (the overlay
//! never reaches the image), then every formula source in one cell
//! payload of the image's own [`PayloadEncoder`] — sources without
//! values, row-major, so a fill-down is written once as a template. Two
//! regions holding the same cells encode to the same bytes whatever their
//! edit history.
//! [`ColumnarTranslator::from_bytes`] round-trips byte-identically, so
//! images store the compressed columns directly and recovery restores a
//! region without per-cell replay. The decoder accepts a number or code
//! store only if building its values writes exactly that store, so each
//! content has one byte form.

use std::collections::{btree_map, BTreeMap, HashMap};
use std::ops::Range;

use dataspread_formula::RangeAgg;
use dataspread_grid::codec;
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellValue, DecodeError, Rect, ScanValue, Shift};
use dataspread_hybrid::ModelKind;

use crate::durable::{visit_payload, PayloadEncoder};
use crate::error::EngineError;
use crate::translator::{CellVisitor, Translator};

/// Overlay entries before the next write compacts them into the columns.
const OVERLAY_COMPACT: usize = 4096;

const TAG_NULL: u8 = 0;
const TAG_NUM: u8 = 1;
const TAG_BOOL: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_ERR: u8 = 4;

const ENC_VERSION: u8 = 3;

// ------------------------------------------------------------ tag runs --

/// One run of same-tagged rows. `start_row`/`start_idx` are derived (not
/// encoded): the row the run begins at, and the offset of its first value
/// in the tag's typed store.
#[derive(Debug, Clone, Copy)]
struct Run {
    tag: u8,
    len: u32,
    start_row: u32,
    start_idx: u32,
}

// ------------------------------------------------------- typed stores --

/// Number storage: raw doubles, or bit-packed offsets from a minimum
/// mantissa when every value of the column is a decimal mantissa at one
/// scale ([`codec::mantissa_at`]): value `i` is `(min + offset_i) /
/// 10^scale`. `bits == 0` encodes a constant column with no payload words
/// at all.
#[derive(Debug, Clone, PartialEq)]
enum NumStore {
    F64(Vec<f64>),
    Packed {
        min: i64,
        scale: u8,
        bits: u8,
        len: u32,
        words: Vec<u64>,
    },
}

/// Bits needed to hold every value up to `max`.
fn width(max: u64) -> u8 {
    (64 - max.leading_zeros()) as u8
}

/// `vals`, each in its low `bits`, packed back to back into 64-bit words.
fn pack_bits(vals: impl Iterator<Item = u64>, len: u32, bits: u8) -> Vec<u64> {
    let mut words = vec![0u64; (len as u64 * bits as u64).div_ceil(64) as usize];
    if bits == 0 {
        return words;
    }
    for (i, v) in vals.enumerate() {
        let bit = i as u64 * bits as u64;
        let word = (bit / 64) as usize;
        let off = (bit % 64) as u32;
        words[word] |= v << off;
        if off + bits as u32 > 64 {
            words[word + 1] |= v >> (64 - off);
        }
    }
    words
}

/// Value `i` of [`pack_bits`]'s words.
#[inline]
fn unpack_bits(words: &[u64], bits: u8, i: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    let bit = i as u64 * bits as u64;
    let word = (bit / 64) as usize;
    let off = (bit % 64) as u32;
    let mut raw = words[word] >> off;
    if off + bits as u32 > 64 {
        raw |= words[word + 1] << (64 - off);
    }
    raw & (u64::MAX >> (64 - bits))
}

impl NumStore {
    fn len(&self) -> u32 {
        match self {
            NumStore::F64(v) => v.len() as u32,
            NumStore::Packed { len, .. } => *len,
        }
    }

    fn get(&self, i: u32) -> f64 {
        match self {
            NumStore::F64(v) => v[i as usize],
            NumStore::Packed {
                min,
                scale,
                bits,
                words,
                ..
            } => {
                let m = (min + unpack_bits(words, *bits, i) as i64) as f64;
                if *scale == 0 {
                    m
                } else {
                    m / codec::POW10[*scale as usize]
                }
            }
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            NumStore::F64(v) => 8 * v.len() as u64,
            NumStore::Packed { words, .. } => 16 + 8 * words.len() as u64,
        }
    }

    /// Canonical build: packed at the smallest scale at which every value
    /// is a decimal mantissa, raw doubles when there is none.
    fn build(vals: Vec<f64>) -> NumStore {
        NumStore::pack(vals.iter().copied()).unwrap_or(NumStore::F64(vals))
    }

    /// The packed store of `vals`, if they are not empty and share a
    /// scale. That scale is at least the largest of their
    /// [`codec::decimal_form`] scales, and almost always equal to it.
    fn pack(vals: impl Iterator<Item = f64> + Clone) -> Option<NumStore> {
        let mut least = 0;
        let mut len = 0u32;
        for v in vals.clone() {
            least = least.max(codec::decimal_form(v)?.1);
            len += 1;
        }
        if len == 0 {
            return None;
        }
        let (scale, min, max) = (least..codec::POW10.len() as u8).find_map(|s| {
            let (mut min, mut max) = (i64::MAX, i64::MIN);
            for v in vals.clone() {
                let m = codec::mantissa_at(v, s)?;
                (min, max) = (min.min(m), max.max(m));
            }
            Some((s, min, max))
        })?;
        // |min|, |max| <= 2^53, so the span cannot overflow.
        let bits = width((max - min) as u64);
        let offsets = vals.map(|v| {
            (codec::mantissa_at(v, scale).expect("every value has this scale") - min) as u64
        });
        Some(NumStore::Packed {
            min,
            scale,
            bits,
            len,
            words: pack_bits(offsets, len, bits),
        })
    }

    /// Whether [`NumStore::build`] of this store's values writes exactly
    /// this store. A packed store whose `min` plus its widest offset
    /// overflows is refused before a value is read; `bits` is at most 63.
    fn is_canonical(&self) -> bool {
        match self {
            NumStore::F64(v) => NumStore::pack(v.iter().copied()).is_none(),
            NumStore::Packed { min, bits, .. } => {
                let widest = ((1u64 << bits) - 1) as i64;
                min.checked_add(widest).is_some()
                    && NumStore::pack((0..self.len()).map(|i| self.get(i))).as_ref() == Some(self)
            }
        }
    }
}

/// Bool storage: a bitmap.
#[derive(Debug, Clone, Default, PartialEq)]
struct Bits {
    words: Vec<u64>,
    len: u32,
}

impl Bits {
    fn push(&mut self, b: bool) {
        let i = self.len as usize;
        if i / 64 >= self.words.len() {
            self.words.push(0);
        }
        if b {
            self.words[i / 64] |= 1 << (i % 64);
        }
        self.len += 1;
    }

    fn get(&self, i: u32) -> bool {
        (self.words[i as usize / 64] >> (i % 64)) & 1 == 1
    }
}

/// Dictionary-code storage: plain codes, bit-packed codes sized to the
/// dictionary (a 4-entry dictionary needs 2 bits per cell, not 32), or
/// RLE runs. The canonical rule is byte-driven: the smallest payload
/// wins, RLE preferred on a strict win, then packing
/// ([`CodeStore::form`]).
#[derive(Debug, Clone, PartialEq)]
enum CodeStore {
    Plain(Vec<u32>),
    Packed {
        bits: u8,
        len: u32,
        words: Vec<u64>,
    },
    Rle {
        runs: Vec<(u32, u32)>,
        /// Cumulative end offsets of `runs` for O(log) random access
        /// (derived, not encoded).
        ends: Vec<u32>,
    },
}

/// [`CodeStore`] variants, as their encoding names them.
const CODES_PLAIN: u8 = 0;
const CODES_RLE: u8 = 1;
const CODES_PACKED: u8 = 2;

impl CodeStore {
    fn len(&self) -> u32 {
        match self {
            CodeStore::Plain(v) => v.len() as u32,
            CodeStore::Packed { len, .. } => *len,
            CodeStore::Rle { ends, .. } => ends.last().copied().unwrap_or(0),
        }
    }

    fn get(&self, i: u32) -> u32 {
        match self {
            CodeStore::Plain(v) => v[i as usize],
            CodeStore::Packed { bits, words, .. } => unpack_bits(words, *bits, i) as u32,
            CodeStore::Rle { runs, ends } => {
                let k = ends.partition_point(|&e| e <= i);
                runs[k].0
            }
        }
    }

    fn bytes(&self) -> u64 {
        match self {
            CodeStore::Plain(v) => 4 * v.len() as u64,
            CodeStore::Packed { words, .. } => 8 + 8 * words.len() as u64,
            CodeStore::Rle { runs, .. } => 8 * runs.len() as u64,
        }
    }

    fn variant(&self) -> u8 {
        match self {
            CodeStore::Plain(_) => CODES_PLAIN,
            CodeStore::Rle { .. } => CODES_RLE,
            CodeStore::Packed { .. } => CODES_PACKED,
        }
    }

    /// The variant [`CodeStore::build`] picks for `len` codes in `runs`
    /// runs, the largest `max`.
    fn form(len: u64, runs: u64, max: u32) -> u8 {
        let packed_bytes = 8 * (len * u64::from(width(max.into()))).div_ceil(64);
        let rle_bytes = 8 * runs;
        let plain_bytes = 4 * len;
        if rle_bytes < packed_bytes.min(plain_bytes) {
            CODES_RLE
        } else if packed_bytes < plain_bytes {
            CODES_PACKED
        } else {
            CODES_PLAIN
        }
    }

    fn build(codes: Vec<u32>) -> CodeStore {
        let mut runs: Vec<(u32, u32)> = Vec::new();
        for &c in &codes {
            match runs.last_mut() {
                Some((code, len)) if *code == c => *len += 1,
                _ => runs.push((c, 1)),
            }
        }
        let max = codes.iter().copied().max().unwrap_or(0);
        match CodeStore::form(codes.len() as u64, runs.len() as u64, max) {
            CODES_RLE => {
                let ends = runs
                    .iter()
                    .scan(0u32, |acc, &(_, len)| {
                        *acc += len;
                        Some(*acc)
                    })
                    .collect();
                CodeStore::Rle { runs, ends }
            }
            CODES_PACKED => {
                let (len, bits) = (codes.len() as u32, width(max.into()));
                let words = pack_bits(codes.iter().map(|&c| u64::from(c)), len, bits);
                CodeStore::Packed { bits, len, words }
            }
            _ => CodeStore::Plain(codes),
        }
    }

    /// Whether [`CodeStore::build`] of this store's codes writes exactly
    /// this store. Reads the codes once without collecting them: a packed
    /// store of width 0 holds any number of codes in no bytes.
    fn is_canonical(&self) -> bool {
        let len = u64::from(self.len());
        if let CodeStore::Rle { runs, .. } = self {
            let max = runs.iter().map(|&(c, _)| c).max().unwrap_or(0);
            return runs.windows(2).all(|w| w[0].0 != w[1].0)
                && CodeStore::form(len, runs.len() as u64, max) == CODES_RLE;
        }
        let codes = (0..self.len()).map(|i| self.get(i));
        let (mut runs, mut max, mut prev) = (0u64, 0u32, None);
        for c in codes.clone() {
            runs += u64::from(prev != Some(c));
            (max, prev) = (max.max(c), Some(c));
        }
        if CodeStore::form(len, runs, max) != self.variant() {
            return false;
        }
        match self {
            CodeStore::Packed { bits, words, .. } => {
                *bits == width(max.into())
                    && *words == pack_bits(codes.map(u64::from), self.len(), *bits)
            }
            _ => true,
        }
    }
}

// ------------------------------------------------------------- column --

#[derive(Debug, Clone)]
struct Column {
    runs: Vec<Run>,
    nums: NumStore,
    bools: Bits,
    dict: Vec<String>,
    codes: CodeStore,
    errors: Vec<u8>,
    /// Sparse formula sources by row.
    formulas: BTreeMap<u32, String>,
}

impl Column {
    fn empty(rows: u32) -> Column {
        let runs = if rows == 0 {
            Vec::new()
        } else {
            vec![Run {
                tag: TAG_NULL,
                len: rows,
                start_row: 0,
                start_idx: 0,
            }]
        };
        Column {
            runs,
            nums: NumStore::F64(Vec::new()),
            bools: Bits::default(),
            dict: Vec::new(),
            codes: CodeStore::Plain(Vec::new()),
            errors: Vec::new(),
            formulas: BTreeMap::new(),
        }
    }

    fn rows(&self) -> u32 {
        self.runs.last().map_or(0, |r| r.start_row + r.len)
    }

    /// Recompute the derived `start_row`/`start_idx` fields from the
    /// `(tag, len)` sequence.
    fn reindex(&mut self) {
        let mut row = 0u32;
        let mut idx = [0u32; 5];
        for run in &mut self.runs {
            run.start_row = row;
            run.start_idx = idx[run.tag as usize];
            row += run.len;
            idx[run.tag as usize] += run.len;
        }
    }

    /// The run holding `row`; `runs.len()` for a row past the column,
    /// found without a search (the append path).
    fn run_at(&self, row: u32) -> usize {
        if row >= self.rows() {
            return self.runs.len();
        }
        self.runs.partition_point(|r| r.start_row + r.len <= row)
    }

    /// Whether the base columns hold nothing at `row`: no value and no
    /// formula (overlay not consulted; rows past the column are blank).
    fn base_blank(&self, row: u32) -> bool {
        row >= self.rows()
            || (matches!(BaseCursor::new(self, row).value(row), ScanValue::Empty)
                && !self.formulas.contains_key(&row))
    }

    /// Splice `n` blank rows in before `at` (`at == rows()` appends).
    /// Nulls carry no payload, so this is a run edit with no store
    /// rebuilt; formulas at or below `at` move down with their rows.
    fn insert_nulls(&mut self, at: u32, n: u32) {
        let k = self.run_at(at);
        let starts_here = self.runs.get(k).is_none_or(|r| r.start_row == at);
        let blank = |len| Run {
            tag: TAG_NULL,
            len,
            start_row: 0,
            start_idx: 0,
        };
        // A null run to lengthen: the one holding `at`, or the one before
        // a run starting there (the encoding requires canonical runs, so
        // no adjacent same-tag pair is created).
        let grown = if self.runs.get(k).is_some_and(|r| r.tag == TAG_NULL) {
            Some(k)
        } else if starts_here && k > 0 && self.runs[k - 1].tag == TAG_NULL {
            Some(k - 1)
        } else {
            None
        };
        match grown {
            Some(g) => self.runs[g].len += n,
            None if starts_here => self.runs.insert(k, blank(n)),
            None => {
                let run = self.runs[k];
                let head = at - run.start_row;
                self.runs[k].len = head;
                let tail = Run {
                    len: run.len - head,
                    ..run
                };
                self.runs.splice(k + 1..k + 1, [blank(n), tail]);
            }
        }
        // Lengthening the last run moves no other run: growth at the
        // bottom of a region stays O(1) per column.
        if grown.is_none_or(|g| g + 1 < self.runs.len()) {
            self.reindex();
        }
        if self
            .formulas
            .last_key_value()
            .is_some_and(|(&row, _)| row >= at)
        {
            let moved = self.formulas.split_off(&at);
            self.formulas
                .extend(moved.into_iter().map(|(row, src)| (row + n, src)));
        }
    }

    /// Visit `r1..=r2` in row order without per-row binary searches.
    fn for_each_base<'a>(&'a self, r1: u32, r2: u32, mut f: impl FnMut(u32, ScanValue<'a>)) {
        if self.rows() == 0 || r1 > r2 || r1 >= self.rows() {
            return;
        }
        let r2 = r2.min(self.rows() - 1);
        let mut k = self.run_at(r1);
        let mut row = r1;
        while row <= r2 {
            let run = &self.runs[k];
            let end = (run.start_row + run.len - 1).min(r2);
            let mut i = run.start_idx + (row - run.start_row);
            while row <= end {
                let v = match run.tag {
                    TAG_NULL => ScanValue::Empty,
                    TAG_NUM => ScanValue::Number(self.nums.get(i)),
                    TAG_BOOL => ScanValue::Bool(self.bools.get(i)),
                    TAG_TEXT => ScanValue::Text(&self.dict[self.codes.get(i) as usize]),
                    _ => ScanValue::Error(
                        CellError::from_code(self.errors[i as usize]).expect("validated on build"),
                    ),
                };
                f(row, v);
                row += 1;
                i += 1;
            }
            k += 1;
        }
    }

    /// Non-blank cells counted from the base alone.
    fn base_filled(&self) -> u64 {
        let mut filled: u64 = self
            .runs
            .iter()
            .filter(|r| r.tag != TAG_NULL)
            .map(|r| r.len as u64)
            .sum();
        // Formula cells whose value is empty are still non-blank.
        filled += self
            .formulas
            .keys()
            .filter(|&&row| self.runs[self.run_at(row)].tag == TAG_NULL)
            .count() as u64;
        filled
    }

    fn resident_bytes(&self) -> u64 {
        9 * self.runs.len() as u64
            + self.nums.bytes()
            + 8 * self.bools.words.len() as u64
            + self.dict.iter().map(|s| 4 + s.len() as u64).sum::<u64>()
            + self.codes.bytes()
            + self.errors.len() as u64
            + self
                .formulas
                .values()
                .map(|s| 8 + s.len() as u64)
                .sum::<u64>()
    }
}

/// A read position in one column's base stores: the run holding the row
/// (and, in an RLE code store, the code run holding the text) is found by
/// binary search once and then advanced as the rows go by, so a scan pays
/// one comparison per row instead of a search.
struct BaseCursor<'a> {
    col: &'a Column,
    run: usize,
    /// First row past `runs[run]` (0 when the column has no such run).
    run_end: u32,
    /// Position in an RLE code store, located at the first text read.
    code_run: Option<usize>,
}

impl<'a> BaseCursor<'a> {
    /// A cursor for reads at `row` and below it.
    fn new(col: &'a Column, row: u32) -> Self {
        let run = col.run_at(row);
        BaseCursor {
            col,
            run,
            run_end: col.runs.get(run).map_or(0, |r| r.start_row + r.len),
            code_run: None,
        }
    }

    /// The base value at `row` (inside the column's rows); rows must not
    /// decrease between calls.
    #[inline]
    fn value(&mut self, row: u32) -> ScanValue<'a> {
        let col = self.col;
        while row >= self.run_end {
            self.run += 1;
            self.run_end += col.runs[self.run].len;
        }
        let run = &col.runs[self.run];
        let i = run.start_idx + (row - run.start_row);
        match run.tag {
            TAG_NULL => ScanValue::Empty,
            TAG_NUM => ScanValue::Number(col.nums.get(i)),
            TAG_BOOL => ScanValue::Bool(col.bools.get(i)),
            TAG_TEXT => ScanValue::Text(&col.dict[self.code(i) as usize]),
            _ => ScanValue::Error(
                CellError::from_code(col.errors[i as usize]).expect("validated on build"),
            ),
        }
    }

    fn code(&mut self, i: u32) -> u32 {
        let CodeStore::Rle { runs, ends } = &self.col.codes else {
            return self.col.codes.get(i);
        };
        let mut k = self
            .code_run
            .unwrap_or_else(|| ends.partition_point(|&e| e <= i));
        while ends[k] <= i {
            k += 1;
        }
        self.code_run = Some(k);
        runs[k].0
    }
}

/// A read position in one of a column's sparse maps (formula sources, the
/// write overlay) over a row span: the entry a scan will meet next is held
/// ready, so a row with nothing in the map costs one comparison — none at
/// all once the span's entries are used up, which for a window over a
/// column nobody edited is from the start.
struct SparseCursor<'a, K, V> {
    rest: btree_map::Range<'a, K, V>,
    next: Option<(u32, &'a V)>,
    row_of: fn(&K) -> u32,
}

impl<'a, K, V> SparseCursor<'a, K, V> {
    fn new(mut rest: btree_map::Range<'a, K, V>, row_of: fn(&K) -> u32) -> Self {
        let next = rest.next().map(|(k, v)| (row_of(k), v));
        SparseCursor { rest, next, row_of }
    }

    /// A cursor holding only `row`'s entry, found with one lookup.
    fn one(row: u32, entry: Option<&'a V>, row_of: fn(&K) -> u32) -> Self {
        SparseCursor {
            rest: btree_map::Range::default(),
            next: entry.map(|v| (row, v)),
            row_of,
        }
    }

    /// The entry at `row`, if any; rows must increase between calls.
    #[inline]
    fn at(&mut self, row: u32) -> Option<&'a V> {
        while let Some((r, v)) = self.next {
            if r > row {
                return None;
            }
            self.next = self.rest.next().map(|(k, v)| ((self.row_of)(k), v));
            if r == row {
                return Some(v);
            }
        }
        None
    }
}

/// [`BaseCursor`] merged with the column's sparse maps — the formula
/// sources and the translator's write overlay — each walked by its own
/// cursor instead of probed per cell. The one cell-at-a-time merge of a
/// column: scans, point reads and the column rewrite all read through it.
struct CellCursor<'a> {
    base: BaseCursor<'a>,
    /// Rows the column's base stores hold.
    base_rows: u32,
    formulas: SparseCursor<'a, u32, String>,
    overlay: SparseCursor<'a, (u32, u32), Cell>,
}

impl<'a> CellCursor<'a> {
    /// A cursor over rows `r1..=r2` of column `c`.
    fn new(t: &'a ColumnarTranslator, c: u32, r1: u32, r2: u32) -> Self {
        let col = &t.columns[c as usize];
        CellCursor {
            base: BaseCursor::new(col, r1),
            base_rows: col.rows(),
            formulas: SparseCursor::new(col.formulas.range(r1..=r2), |&row| row),
            overlay: SparseCursor::new(t.overlay.range((c, r1)..=(c, r2)), |&(_, row)| row),
        }
    }

    /// A cursor over row `row` alone: its sparse entries are probed with
    /// `get`, not opened as ranges.
    #[inline]
    fn one_row(t: &'a ColumnarTranslator, c: u32, row: u32) -> Self {
        let col = &t.columns[c as usize];
        CellCursor {
            base: BaseCursor::new(col, row),
            base_rows: col.rows(),
            formulas: SparseCursor::one(row, col.formulas.get(&row), |&row| row),
            overlay: SparseCursor::one(row, t.overlay.get(&(c, row)), |&(_, row)| row),
        }
    }

    /// The effective (overlay-merged) cell at `row`; rows must increase
    /// between calls.
    #[inline]
    fn at(&mut self, row: u32) -> (ScanValue<'a>, Option<&'a str>) {
        if let Some(cell) = self.overlay.at(row) {
            return (ScanValue::of(&cell.value), cell.formula.as_deref());
        }
        if row >= self.base_rows {
            return (ScanValue::Empty, None);
        }
        (
            self.base.value(row),
            self.formulas.at(row).map(String::as_str),
        )
    }
}

/// Streaming column builder: push cells in row order, then `finish`.
struct ColumnBuilder {
    runs: Vec<(u8, u32)>,
    nums: Vec<f64>,
    bools: Bits,
    dict: Vec<String>,
    lookup: HashMap<String, u32>,
    codes: Vec<u32>,
    errors: Vec<u8>,
    formulas: BTreeMap<u32, String>,
    row: u32,
}

impl ColumnBuilder {
    fn new() -> ColumnBuilder {
        ColumnBuilder {
            runs: Vec::new(),
            nums: Vec::new(),
            bools: Bits::default(),
            dict: Vec::new(),
            lookup: HashMap::new(),
            codes: Vec::new(),
            errors: Vec::new(),
            formulas: BTreeMap::new(),
            row: 0,
        }
    }

    fn push_tag(&mut self, tag: u8) {
        self.push_run(tag, 1);
    }

    fn push_run(&mut self, tag: u8, n: u32) {
        if n == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some((t, len)) if *t == tag => *len += n,
            _ => self.runs.push((tag, n)),
        }
        self.row += n;
    }

    /// `n` blank rows: nulls carry no payload, so this is one run edit.
    fn push_nulls(&mut self, n: u32) {
        self.push_run(TAG_NULL, n);
    }

    fn push(&mut self, value: ScanValue<'_>, formula: Option<&str>) {
        if let Some(src) = formula {
            self.formulas.insert(self.row, src.to_string());
        }
        match value {
            ScanValue::Empty => self.push_tag(TAG_NULL),
            ScanValue::Number(n) => {
                self.nums.push(n);
                self.push_tag(TAG_NUM);
            }
            ScanValue::Bool(b) => {
                self.bools.push(b);
                self.push_tag(TAG_BOOL);
            }
            ScanValue::Text(s) => {
                let code = match self.lookup.get(s) {
                    Some(&c) => c,
                    None => {
                        let c = self.dict.len() as u32;
                        self.dict.push(s.to_string());
                        self.lookup.insert(s.to_string(), c);
                        c
                    }
                };
                self.codes.push(code);
                self.push_tag(TAG_TEXT);
            }
            ScanValue::Error(e) => {
                self.errors.push(e.code());
                self.push_tag(TAG_ERR);
            }
        }
    }

    fn finish(self) -> Column {
        let mut col = Column {
            runs: self
                .runs
                .into_iter()
                .map(|(tag, len)| Run {
                    tag,
                    len,
                    start_row: 0,
                    start_idx: 0,
                })
                .collect(),
            nums: NumStore::build(self.nums),
            bools: self.bools,
            dict: self.dict,
            codes: CodeStore::build(self.codes),
            errors: self.errors,
            formulas: self.formulas,
        };
        col.reindex();
        col
    }
}

/// Builds a whole region from one ordered walk: cells arrive as borrowed
/// values with rows ascending within each column (any row-major walk does),
/// and go straight into the per-column builders — gaps become null runs.
pub(crate) struct ColumnarBuilder {
    rows: u32,
    columns: Vec<ColumnBuilder>,
}

impl ColumnarBuilder {
    /// A builder for at least a `rows` x `cols` extent; cells beyond it
    /// grow it.
    pub(crate) fn new(rows: u32, cols: u32) -> ColumnarBuilder {
        ColumnarBuilder {
            rows,
            columns: (0..cols).map(|_| ColumnBuilder::new()).collect(),
        }
    }

    pub(crate) fn push(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError> {
        while self.columns.len() <= col as usize {
            self.columns.push(ColumnBuilder::new());
        }
        let b = &mut self.columns[col as usize];
        let Some(gap) = row.checked_sub(b.row) else {
            return Err(EngineError::Unsupported(format!(
                "columnar build: cell ({row},{col}) arrived after row {} of its column",
                b.row
            )));
        };
        b.push_nulls(gap);
        b.push(value, formula);
        self.rows = self.rows.max(row + 1);
        Ok(())
    }

    pub(crate) fn finish(self) -> ColumnarTranslator {
        let rows = self.rows;
        ColumnarTranslator {
            rows,
            columns: self
                .columns
                .into_iter()
                .map(|mut b| {
                    b.push_nulls(rows - b.row);
                    b.finish()
                })
                .collect(),
            overlay: BTreeMap::new(),
        }
    }
}

// --------------------------------------------------------- translator --

/// Columnar compressed storage for one region.
pub struct ColumnarTranslator {
    rows: u32,
    columns: Vec<Column>,
    /// Sorted write overlay keyed `(col, row)` (column-major so column
    /// scans can range over it); a blank [`Cell`] entry masks the base
    /// cell as deleted.
    overlay: BTreeMap<(u32, u32), Cell>,
}

impl std::fmt::Debug for ColumnarTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnarTranslator")
            .field("rows", &self.rows)
            .field("cols", &self.columns.len())
            .field("overlay", &self.overlay.len())
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

impl ColumnarTranslator {
    /// An empty region of the given extent.
    pub fn new(rows: u32, cols: u32) -> ColumnarTranslator {
        ColumnarTranslator {
            rows,
            columns: (0..cols).map(|_| Column::empty(rows)).collect(),
            overlay: BTreeMap::new(),
        }
    }

    fn ensure_extent(&mut self, rows: u32, cols: u32) {
        if rows > self.rows {
            for col in &mut self.columns {
                col.insert_nulls(self.rows, rows - self.rows);
            }
            self.rows = rows;
        }
        while (self.columns.len() as u32) < cols {
            self.columns.push(Column::empty(self.rows));
        }
    }

    /// Column `c` rebuilt from its merged cells over `0..rows`, the rows
    /// in `skip` left out.
    fn rewrite_column(&self, c: u32, skip: Range<u32>) -> Column {
        let mut cells = CellCursor::new(self, c, 0, self.rows.saturating_sub(1));
        let mut b = ColumnBuilder::new();
        for row in (0..skip.start).chain(skip.end..self.rows) {
            let (value, formula) = cells.at(row);
            b.push(value, formula);
        }
        b.finish()
    }

    /// Fold the overlay back into the base columns (rebuilding only the
    /// columns that have overlay entries), leaving the overlay empty.
    pub fn compact(&mut self) {
        let mut touched: Vec<u32> = self.overlay.keys().map(|&(c, _)| c).collect();
        touched.dedup();
        for c in touched {
            self.columns[c as usize] = self.rewrite_column(c, 0..0);
        }
        self.overlay.clear();
    }

    /// Single-column aggregate over local rows `r1..=r2`, overlay-merged:
    /// the column's typed runs folded in row order through
    /// [`RangeAgg::fold`], stopping at the first error.
    pub fn column_agg(&self, col: u32, r1: u32, r2: u32) -> RangeAgg {
        let mut agg = RangeAgg::default();
        let Some(c) = self.columns.get(col as usize) else {
            return agg;
        };
        let mut over = self
            .overlay
            .range((col, r1)..=(col, r2))
            .map(|(&(_, row), cell)| (row, cell))
            .peekable();
        let r2 = r2.min(self.rows.saturating_sub(1));
        let mut row = r1;
        while row <= r2 {
            // Base runs up to the next overlay edit, then the edit itself.
            let next_edit = over.peek().map(|&(r, _)| r).unwrap_or(r2 + 1);
            if row < next_edit {
                c.for_each_base(row, next_edit.min(r2 + 1) - 1, |_, v| {
                    agg.fold(v);
                });
                if agg.error.is_some() {
                    return agg;
                }
                row = next_edit;
                continue;
            }
            let (_, cell) = over.next().expect("peeked");
            if !agg.fold(ScanValue::of(&cell.value)) {
                return agg;
            }
            row += 1;
        }
        agg
    }

    /// Row-major scan of a local rectangle, overlay-merged, including
    /// empty positions — the one walk under [`Translator::scan`]. One
    /// [`CellCursor`] per column is advanced row by row. `f` receives
    /// `(local row, local col, value, formula)`.
    pub fn scan_rect(&self, rect: Rect, mut f: impl FnMut(u32, u32, ScanValue<'_>, Option<&str>)) {
        let stored = (self.columns.len() as u32).min(rect.c2.saturating_add(1));
        let mut cursors: Vec<CellCursor<'_>> = (rect.c1..stored)
            .map(|c| CellCursor::new(self, c, rect.r1, rect.r2))
            .collect();
        for row in rect.r1..=rect.r2 {
            let mut cursors = cursors.iter_mut();
            for col in rect.c1..=rect.c2 {
                let (value, formula) = match cursors.next() {
                    Some(cur) => cur.at(row),
                    None => (ScanValue::Empty, None),
                };
                f(row, col, value, formula);
            }
        }
    }

    /// [`Translator::scan`] generic over its visitor: the non-blank cells
    /// of `rect` ∩ extent off [`ColumnarTranslator::scan_rect`]. The sheet's
    /// ordered read calls this directly so the per-cell visit inlines into
    /// the column walk instead of crossing a `dyn` call.
    pub(crate) fn scan_filled(
        &self,
        rect: Rect,
        mut f: impl FnMut(u32, u32, ScanValue<'_>, Option<&str>),
    ) {
        if rect.r1 >= self.rows || rect.c1 >= self.cols() {
            return;
        }
        let rect = Rect::new(
            rect.r1,
            rect.c1,
            rect.r2.min(self.rows - 1),
            rect.c2.min(self.cols() - 1),
        );
        self.scan_rect(rect, |row, col, value, formula| {
            if !matches!(value, ScanValue::Empty) || formula.is_some() {
                f(row, col, value, formula);
            }
        });
    }

    /// Visit every formula cell as `(local row, local col, source)` —
    /// overlay-merged (an overlay write without a formula masks the base
    /// formula at that position).
    pub fn for_each_formula(&self, mut f: impl FnMut(u32, u32, &str)) {
        for (c, col) in self.columns.iter().enumerate() {
            for (&row, src) in &col.formulas {
                if !self.overlay.contains_key(&(c as u32, row)) {
                    f(row, c as u32, src);
                }
            }
        }
        for (&(col, row), cell) in &self.overlay {
            if let Some(src) = &cell.formula {
                f(row, col, src);
            }
        }
    }

    // ---------------------------------------------------------- codec --

    /// Canonical byte encoding: the checkpoint payload, the region as a
    /// fresh build of its cells writes it. The region is compacted first,
    /// so it stays as its image decodes, and the formula sources follow
    /// the columns as one [`PayloadEncoder`] payload. Decoding with
    /// [`ColumnarTranslator::from_bytes`] and re-encoding is
    /// byte-identical.
    pub fn to_bytes(&mut self) -> Vec<u8> {
        self.compact();
        let mut out = Vec::new();
        codec::put_u8(&mut out, ENC_VERSION);
        codec::put_u32(&mut out, self.rows);
        codec::put_u32(&mut out, self.cols());
        for col in &self.columns {
            codec::put_u32(&mut out, col.runs.len() as u32);
            for run in &col.runs {
                codec::put_u8(&mut out, run.tag);
                codec::put_u32(&mut out, run.len);
            }
            match &col.nums {
                NumStore::F64(v) => {
                    codec::put_u8(&mut out, 0);
                    codec::put_u32(&mut out, v.len() as u32);
                    for &n in v {
                        codec::put_f64(&mut out, n);
                    }
                }
                NumStore::Packed {
                    min,
                    scale,
                    bits,
                    len,
                    words,
                } => {
                    codec::put_u8(&mut out, 1);
                    codec::put_u64(&mut out, *min as u64);
                    codec::put_u8(&mut out, *scale);
                    codec::put_u8(&mut out, *bits);
                    codec::put_u32(&mut out, *len);
                    for &w in words {
                        codec::put_u64(&mut out, w);
                    }
                }
            }
            codec::put_u32(&mut out, col.bools.len);
            for &w in &col.bools.words {
                codec::put_u64(&mut out, w);
            }
            codec::put_u32(&mut out, col.dict.len() as u32);
            for s in &col.dict {
                codec::put_str(&mut out, s);
            }
            codec::put_u8(&mut out, col.codes.variant());
            match &col.codes {
                CodeStore::Plain(v) => {
                    codec::put_u32(&mut out, v.len() as u32);
                    for &c in v {
                        codec::put_u32(&mut out, c);
                    }
                }
                CodeStore::Packed { bits, len, words } => {
                    codec::put_u8(&mut out, *bits);
                    codec::put_u32(&mut out, *len);
                    for &w in words {
                        codec::put_u64(&mut out, w);
                    }
                }
                CodeStore::Rle { runs, .. } => {
                    codec::put_u32(&mut out, runs.len() as u32);
                    for &(code, len) in runs {
                        codec::put_u32(&mut out, code);
                        codec::put_u32(&mut out, len);
                    }
                }
            }
            codec::put_u32(&mut out, col.errors.len() as u32);
            for &e in &col.errors {
                codec::put_u8(&mut out, e);
            }
        }
        let mut formulas: Vec<(u32, u32, &str)> = (0u32..)
            .zip(&self.columns)
            .flat_map(|(c, col)| {
                col.formulas
                    .iter()
                    .map(move |(&r, src)| (r, c, src.as_str()))
            })
            .collect();
        formulas.sort_unstable_by_key(|&(row, col, _)| (row, col));
        let mut sources = PayloadEncoder::default();
        for (row, col, src) in formulas {
            sources.push(row, col, ScanValue::Empty, Some(src));
        }
        out.extend(sources.finish());
        out
    }

    /// Decode a payload produced by [`ColumnarTranslator::to_bytes`],
    /// validating every structural invariant (run extents, payload
    /// lengths, dictionary codes) and refusing a formula cell that
    /// carries a value, has no source or lies outside the region.
    pub fn from_bytes(bytes: &[u8]) -> Result<ColumnarTranslator, EngineError> {
        let mut r = codec::Reader::new(bytes);
        let version = r.u8()?;
        if version != ENC_VERSION {
            return Err(
                codec::corrupt(format!("unknown columnar payload version {version}")).into(),
            );
        }
        let rows = r.u32()?;
        let n_cols = r.u32()?;
        if n_cols as u64 > bytes.len() as u64 {
            return Err(codec::corrupt("columnar column count exceeds payload").into());
        }
        let mut columns = Vec::with_capacity(n_cols as usize);
        for _ in 0..n_cols {
            columns.push(read_column(&mut r, rows)?);
        }
        visit_payload(r.rest(), |row, col, value, formula| match formula {
            Some(src) if value == ScanValue::Empty && row < rows && col < n_cols => {
                columns[col as usize].formulas.insert(row, src.to_string());
                Ok(())
            }
            _ => Err(codec::corrupt(format!(
                "columnar formula cell ({row},{col}): a value, no source or outside {rows}x{n_cols}"
            ))
            .into()),
        })?;
        Ok(ColumnarTranslator {
            rows,
            columns,
            overlay: BTreeMap::new(),
        })
    }
}

fn read_column(r: &mut codec::Reader<'_>, rows: u32) -> Result<Column, DecodeError> {
    let n_runs = r.u32()?;
    if n_runs as u64 > rows as u64 {
        return Err(codec::corrupt("more runs than rows"));
    }
    let mut runs = Vec::with_capacity((n_runs as usize).min(1 << 20));
    let mut covered = 0u64;
    let mut counts = [0u64; 5];
    let mut prev_tag: Option<u8> = None;
    for _ in 0..n_runs {
        let tag = r.u8()?;
        let len = r.u32()?;
        if tag > TAG_ERR {
            return Err(codec::corrupt(format!("bad run tag {tag}")));
        }
        if len == 0 {
            return Err(codec::corrupt("empty run"));
        }
        if prev_tag == Some(tag) {
            return Err(codec::corrupt("adjacent runs share a tag"));
        }
        prev_tag = Some(tag);
        covered += len as u64;
        counts[tag as usize] += len as u64;
        runs.push(Run {
            tag,
            len,
            start_row: 0,
            start_idx: 0,
        });
    }
    if covered != rows as u64 {
        return Err(codec::corrupt(format!(
            "runs cover {covered} rows, region has {rows}"
        )));
    }
    let nums = match r.u8()? {
        0 => {
            let n = r.u32()?;
            let mut v = Vec::with_capacity((n as usize).min(1 << 20));
            for _ in 0..n {
                v.push(r.f64()?);
            }
            NumStore::F64(v)
        }
        1 => {
            let min = r.u64()? as i64;
            let scale = r.u8()?;
            let bits = r.u8()?;
            let len = r.u32()?;
            if scale as usize >= codec::POW10.len() {
                return Err(codec::corrupt(format!("bad number scale {scale}")));
            }
            if bits > 63 {
                return Err(codec::corrupt(format!("bad pack width {bits}")));
            }
            let n_words = (len as u64 * bits as u64).div_ceil(64) as usize;
            let mut words = Vec::with_capacity(n_words.min(1 << 20));
            for _ in 0..n_words {
                words.push(r.u64()?);
            }
            NumStore::Packed {
                min,
                scale,
                bits,
                len,
                words,
            }
        }
        t => return Err(codec::corrupt(format!("bad number store variant {t}"))),
    };
    if nums.len() as u64 != counts[TAG_NUM as usize] {
        return Err(codec::corrupt("number payload length mismatch"));
    }
    if !nums.is_canonical() {
        return Err(codec::corrupt(
            "number store is not the one its values build",
        ));
    }
    let bool_len = r.u32()?;
    if bool_len as u64 != counts[TAG_BOOL as usize] {
        return Err(codec::corrupt("bool payload length mismatch"));
    }
    let n_words = (bool_len as u64).div_ceil(64) as usize;
    let mut words = Vec::with_capacity(n_words.min(1 << 20));
    for _ in 0..n_words {
        words.push(r.u64()?);
    }
    let bools = Bits {
        words,
        len: bool_len,
    };
    let n_dict = r.u32()?;
    let mut dict = Vec::with_capacity((n_dict as usize).min(1 << 20));
    for _ in 0..n_dict {
        dict.push(r.str()?);
    }
    let codes = match r.u8()? {
        CODES_PLAIN => {
            let n = r.u32()?;
            let mut v = Vec::with_capacity((n as usize).min(1 << 20));
            for _ in 0..n {
                v.push(r.u32()?);
            }
            CodeStore::Plain(v)
        }
        CODES_RLE => {
            let n = r.u32()?;
            let mut code_runs = Vec::with_capacity((n as usize).min(1 << 20));
            let mut ends = Vec::with_capacity((n as usize).min(1 << 20));
            let mut acc = 0u64;
            for _ in 0..n {
                let code = r.u32()?;
                let len = r.u32()?;
                if len == 0 {
                    return Err(codec::corrupt("empty code run"));
                }
                acc += len as u64;
                if acc > u32::MAX as u64 {
                    return Err(codec::corrupt("code runs overflow"));
                }
                code_runs.push((code, len));
                ends.push(acc as u32);
            }
            CodeStore::Rle {
                runs: code_runs,
                ends,
            }
        }
        CODES_PACKED => {
            let bits = r.u8()?;
            let len = r.u32()?;
            if bits > 32 {
                return Err(codec::corrupt(format!("bad code pack width {bits}")));
            }
            let n_words = (len as u64 * bits as u64).div_ceil(64) as usize;
            let mut words = Vec::with_capacity(n_words.min(1 << 20));
            for _ in 0..n_words {
                words.push(r.u64()?);
            }
            CodeStore::Packed { bits, len, words }
        }
        t => return Err(codec::corrupt(format!("bad code store variant {t}"))),
    };
    if codes.len() as u64 != counts[TAG_TEXT as usize] {
        return Err(codec::corrupt("text code length mismatch"));
    }
    match &codes {
        CodeStore::Plain(v) => {
            if v.iter().any(|&c| c as usize >= dict.len()) {
                return Err(codec::corrupt("dictionary code out of range"));
            }
        }
        CodeStore::Packed { len, .. } => {
            if (0..*len).any(|i| codes.get(i) as usize >= dict.len()) {
                return Err(codec::corrupt("dictionary code out of range"));
            }
        }
        CodeStore::Rle { runs, .. } => {
            if runs.iter().any(|&(c, _)| c as usize >= dict.len()) {
                return Err(codec::corrupt("dictionary code out of range"));
            }
        }
    }
    if !codes.is_canonical() {
        return Err(codec::corrupt("code store is not the one its codes build"));
    }
    let n_errors = r.u32()?;
    if n_errors as u64 != counts[TAG_ERR as usize] {
        return Err(codec::corrupt("error payload length mismatch"));
    }
    let mut errors = Vec::with_capacity((n_errors as usize).min(1 << 20));
    for _ in 0..n_errors {
        let e = r.u8()?;
        codec::cell_error(e)?;
        errors.push(e);
    }
    let mut col = Column {
        runs,
        nums,
        bools,
        dict,
        codes,
        errors,
        formulas: BTreeMap::new(),
    };
    col.reindex();
    Ok(col)
}

impl Translator for ColumnarTranslator {
    fn kind(&self) -> ModelKind {
        ModelKind::Columnar
    }

    fn rows(&self) -> u32 {
        self.rows
    }

    fn cols(&self) -> u32 {
        self.columns.len() as u32
    }

    fn value(&self, row: u32, col: u32) -> CellValue {
        if col >= self.cols() {
            return CellValue::Empty;
        }
        CellCursor::one_row(self, col, row).at(row).0.to_value()
    }

    /// The overlay owns its cells until compaction folds them in.
    fn set_cell(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError> {
        self.ensure_extent(row + 1, col + 1);
        self.overlay.insert((col, row), value.to_cell(formula));
        if self.overlay.len() >= OVERLAY_COMPACT {
            self.compact();
        }
        Ok(())
    }

    fn clear_cell(&mut self, row: u32, col: u32) -> Result<(), EngineError> {
        if row >= self.rows || col as usize >= self.columns.len() {
            return Ok(());
        }
        if self.columns[col as usize].base_blank(row) {
            // Nothing underneath: dropping any overlay entry restores blank
            // without growing the overlay.
            self.overlay.remove(&(col, row));
        } else {
            self.overlay.insert((col, row), Cell::default());
            if self.overlay.len() >= OVERLAY_COMPACT {
                self.compact();
            }
        }
        Ok(())
    }

    fn scan(&self, rect: Rect, f: &mut CellVisitor<'_>) {
        self.scan_filled(rect, f);
    }

    fn shift(&mut self, s: Shift) -> Result<(), EngineError> {
        match s {
            Shift::InsertRows { at, n } => {
                if at >= self.rows {
                    self.ensure_extent(at + n, self.columns.len() as u32);
                    return Ok(());
                }
                self.compact();
                for col in &mut self.columns {
                    col.insert_nulls(at, n);
                }
                self.rows += n;
            }
            Shift::DeleteRows { at, n } => {
                if at >= self.rows {
                    return Ok(());
                }
                let end = at.saturating_add(n).min(self.rows);
                self.columns = (0..self.cols())
                    .map(|c| self.rewrite_column(c, at..end))
                    .collect();
                self.overlay.clear();
                self.rows -= end - at;
            }
            Shift::InsertCols { at, n } => {
                self.compact();
                let at = (at as usize).min(self.columns.len());
                self.columns
                    .splice(at..at, (0..n).map(|_| Column::empty(self.rows)));
            }
            Shift::DeleteCols { at, n } => {
                if at as usize >= self.columns.len() {
                    return Ok(());
                }
                self.compact();
                let end = (at as usize + n as usize).min(self.columns.len());
                self.columns.drain(at as usize..end);
            }
        }
        Ok(())
    }

    fn storage_bytes(&self) -> u64 {
        self.resident_bytes()
    }

    fn filled_count(&self) -> u64 {
        let mut filled: u64 = self.columns.iter().map(Column::base_filled).sum();
        for (&(col, row), cell) in &self.overlay {
            let base_blank = self
                .columns
                .get(col as usize)
                .is_none_or(|c| c.base_blank(row));
            match (base_blank, cell.is_blank()) {
                (true, false) => filled += 1,
                (false, true) => filled -= 1,
                _ => {}
            }
        }
        filled
    }

    fn resident_bytes(&self) -> u64 {
        let base: u64 = self.columns.iter().map(Column::resident_bytes).sum();
        let overlay: u64 = self
            .overlay
            .values()
            .map(|c| {
                16 + match &c.value {
                    CellValue::Text(s) => s.len() as u64,
                    _ => 8,
                } + c.formula.as_ref().map_or(0, |f| f.len() as u64)
            })
            .sum();
        base + overlay
    }

    fn encoded_image(&mut self) -> Option<Vec<u8>> {
        Some(self.to_bytes())
    }

    fn as_columnar(&self) -> Option<&ColumnarTranslator> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_cells::StoreCells;

    fn cell_n(n: f64) -> Cell {
        Cell::value(n)
    }

    fn sample() -> ColumnarTranslator {
        let rows = (0..100u32).map(|r| {
            vec![
                cell_n(r as f64),
                Cell::value(if r % 3 == 0 { "PASS" } else { "FAIL" }),
                Cell::value(r % 2 == 0),
                if r == 50 {
                    Cell::default()
                } else {
                    cell_n(r as f64 * 0.5)
                },
            ]
        });
        from_rows(4, rows)
    }

    /// `width` columns, one `Vec<Cell>` per row, through the bulk builder.
    fn from_rows(width: u32, rows: impl IntoIterator<Item = Vec<Cell>>) -> ColumnarTranslator {
        let mut b = ColumnarBuilder::new(0, width);
        for (r, row) in (0u32..).zip(rows) {
            for (c, cell) in (0u32..).zip(&row) {
                b.push(r, c, ScanValue::of(&cell.value), cell.formula.as_deref())
                    .unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn bulk_load_and_read_back() {
        let t = sample();
        assert_eq!(t.rows(), 100);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.get_cell(7, 0).unwrap().value, CellValue::Number(7.0));
        assert_eq!(
            t.get_cell(9, 1).unwrap().value,
            CellValue::Text("PASS".into())
        );
        assert_eq!(t.get_cell(9, 2).unwrap().value, CellValue::Bool(false));
        assert_eq!(t.get_cell(50, 3), None);
        assert_eq!(t.filled_count(), 399);
    }

    #[test]
    fn integer_columns_bit_pack() {
        let t = from_rows(1, (0..1000u32).map(|r| vec![cell_n((r % 7) as f64)]));
        // 0..6 needs 3 bits: 1000 values in ~47 words, far below 8000 bytes.
        assert!(t.resident_bytes() < 1000, "{} bytes", t.resident_bytes());
        for r in 0..1000u32 {
            assert_eq!(
                t.get_cell(r, 0).unwrap().value,
                CellValue::Number((r % 7) as f64)
            );
        }
    }

    #[test]
    fn dictionary_rle_compresses_repeats() {
        let t = from_rows(1, (0..10_000u32).map(|_| vec![Cell::value("PASS")]));
        assert!(t.resident_bytes() < 128, "{} bytes", t.resident_bytes());
    }

    #[test]
    fn overlay_write_read_clear() {
        let mut t = sample();
        t.put_cell(10, 0, Cell::value("edited")).unwrap();
        assert_eq!(
            t.get_cell(10, 0).unwrap().value,
            CellValue::Text("edited".into())
        );
        assert_eq!(t.overlay.len(), 1);
        t.clear_cell(10, 0).unwrap();
        assert_eq!(t.get_cell(10, 0), None);
        // Clearing a base-blank position must not grow the overlay.
        t.clear_cell(50, 3).unwrap();
        assert_eq!(t.get_cell(50, 3), None);
        assert_eq!(t.filled_count(), 398);
    }

    #[test]
    fn compaction_preserves_content() {
        let mut t = sample();
        let before: Vec<_> = (0..100u32)
            .map(|r| (0..4).map(|c| t.get_cell(r, c)).collect::<Vec<_>>())
            .collect();
        // Rows 0..20 of column 1, then whole rows grown below the sample,
        // until the overlay reaches its threshold.
        let edits: Vec<(u32, u32)> = (0..20u32)
            .map(|r| (r, 1))
            .chain((100u32..).flat_map(|r| (0..4).map(move |c| (r, c))))
            .take(OVERLAY_COMPACT)
            .collect();
        for (i, &(r, c)) in edits.iter().enumerate() {
            assert_eq!(t.overlay.len(), i, "no compaction below the threshold");
            t.put_cell(r, c, Cell::value(format!("edit{r}"))).unwrap();
        }
        assert!(t.overlay.is_empty(), "compaction must have run");
        for &(r, c) in &edits[20..] {
            assert_eq!(t.get_cell(r, c), Some(Cell::value(format!("edit{r}"))));
        }
        for r in 0..100u32 {
            for c in 0..4u32 {
                let want = if c == 1 && r < 20 {
                    Some(Cell::value(format!("edit{r}")))
                } else {
                    before[r as usize][c as usize].clone()
                };
                assert_eq!(t.get_cell(r, c), want, "({r},{c})");
            }
        }
    }

    #[test]
    fn byte_roundtrip_is_identical() {
        let mut t = sample();
        t.put_cell(3, 2, Cell::value(9.5)).unwrap();
        t.put_cell(
            4,
            1,
            Cell {
                value: CellValue::Number(1.0),
                formula: Some("A1+1".into()),
            },
        )
        .unwrap();
        t.put_cell(5, 0, Cell::default()).unwrap();
        let bytes = t.to_bytes();
        let mut back = ColumnarTranslator::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        for r in 0..100u32 {
            for c in 0..4u32 {
                assert_eq!(back.get_cell(r, c), t.get_cell(r, c), "({r},{c})");
            }
        }
        assert_eq!(back.filled_count(), t.filled_count());
    }

    #[test]
    fn corrupt_payloads_are_rejected() {
        let mut t = sample();
        let bytes = t.to_bytes();
        assert!(ColumnarTranslator::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut bad = bytes.clone();
        bad[0] = 99; // version
        assert!(ColumnarTranslator::from_bytes(&bad).is_err());
    }

    #[test]
    fn insert_rows_splices_null_runs() {
        let mut t = sample();
        t.shift(Shift::InsertRows { at: 10, n: 5 }).unwrap();
        assert_eq!(t.rows(), 105);
        assert_eq!(t.get_cell(9, 0).unwrap().value, CellValue::Number(9.0));
        for r in 10..15u32 {
            assert_eq!(t.get_cell(r, 0), None, "inserted row {r}");
        }
        assert_eq!(t.get_cell(15, 0).unwrap().value, CellValue::Number(10.0));
    }

    #[test]
    fn delete_rows_rebuilds() {
        let mut t = sample();
        t.shift(Shift::DeleteRows { at: 10, n: 5 }).unwrap();
        assert_eq!(t.rows(), 95);
        assert_eq!(t.get_cell(9, 0).unwrap().value, CellValue::Number(9.0));
        assert_eq!(t.get_cell(10, 0).unwrap().value, CellValue::Number(15.0));
    }

    #[test]
    fn insert_delete_cols() {
        let mut t = sample();
        t.shift(Shift::InsertCols { at: 1, n: 2 }).unwrap();
        assert_eq!(t.cols(), 6);
        assert_eq!(t.get_cell(3, 0).unwrap().value, CellValue::Number(3.0));
        assert_eq!(t.get_cell(3, 1), None);
        assert_eq!(
            t.get_cell(3, 3).unwrap().value,
            CellValue::Text("PASS".into())
        );
        t.shift(Shift::DeleteCols { at: 1, n: 2 }).unwrap();
        assert_eq!(t.cols(), 4);
        assert_eq!(
            t.get_cell(3, 1).unwrap().value,
            CellValue::Text("PASS".into())
        );
    }

    #[test]
    fn column_agg_matches_sequential_fold() {
        let mut t = sample();
        t.put_cell(17, 0, Cell::value(100.5)).unwrap();
        let agg = t.column_agg(0, 0, 99);
        let mut sum = 0.0;
        let mut numbers = 0u64;
        for r in 0..100u32 {
            if let Some(c) = t.get_cell(r, 0) {
                if let CellValue::Number(n) = c.value {
                    sum += n;
                    numbers += 1;
                }
            }
        }
        assert_eq!(agg.sum.to_bits(), sum.to_bits());
        assert_eq!(agg.numbers, numbers);
        assert_eq!(agg.nonempty, 100);
        assert_eq!(agg.error, None);
    }

    #[test]
    fn column_agg_stops_at_first_error() {
        let mut t = sample();
        t.put_cell(30, 0, Cell::value(CellValue::Error(CellError::Div0)))
            .unwrap();
        t.put_cell(60, 0, Cell::value(CellValue::Error(CellError::Ref)))
            .unwrap();
        let agg = t.column_agg(0, 0, 99);
        assert_eq!(agg.error, Some(CellError::Div0));
        assert_eq!(agg.numbers, 30, "stops before the error row");
    }

    #[test]
    fn get_range_is_row_major_and_skips_blanks() {
        let t = sample();
        let got = t.get_range(Rect::new(49, 0, 51, 3));
        let addrs: Vec<(u32, u32)> = got.iter().map(|(a, _)| (a.row, a.col)).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        assert_eq!(addrs, sorted);
        assert!(!addrs.contains(&(50, 3)), "blank cell must be skipped");
        assert_eq!(got.len(), 11);
    }
}
