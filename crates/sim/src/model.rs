//! [`RefSheet`]: the dense reference sheet the formula suites check the
//! engine against.
//!
//! It is a sheet done the most obvious way. Cells live in a rectangular
//! `Vec<Vec<Slot>>`, and every row and column carries an identity that no
//! structural edit changes, the way the paper's positional map names a row
//! (§V). A formula keeps its typed text cut into literal pieces and
//! references, and a reference holds the identities of the cells it names.
//! An insert is then a plain `Vec` splice that renumbers nothing, and a
//! reference is spelled by looking up where its identities are now, so an
//! insert strictly inside a range grows it and one at its first row moves
//! it, with no code for either.
//!
//! A delete is the one edit with rules of its own, written here from the
//! spreadsheet semantics:
//! - a deleted range corner moves to the nearest surviving position inside
//!   the range;
//! - a formula is destroyed when the cell of a point reference is deleted,
//!   or every row (or column) of one of its ranges is: its cell holds
//!   `#REF!` with no formula;
//! - a deleted formula cell is gone.
//!
//! Values are computed on the first read after an edit, from scratch: the
//! formula-to-formula edges come from enumerating every position of every
//! reference, a Kahn ordering runs over them, and each formula it releases
//! is spelled at its cell, parsed and evaluated. A formula Kahn never
//! releases reads `#CIRC!`: cycle members, self-readers and everything
//! downstream of them. The model shares the parser and the evaluator with
//! the engine, and nothing else: no reference rewrite, no `Shift`, no
//! dependency index, no expression printer.
//!
//! Its language is plain `A1` references and `A1:B2` ranges. A `$`, a
//! lowercase reference or a `:` anywhere else is outside it, and the model
//! panics on one rather than guess.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::ops::Range;

use dataspread_formula::{parse_at, CellReader, Evaluator};
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue};

/// A cell named by the identities of its row and its column.
#[derive(Debug)]
struct Named {
    row: u32,
    col: u32,
}

/// A piece of a formula's text.
#[derive(Debug)]
enum Piece {
    /// Typed text outside any reference, kept verbatim.
    Text(String),
    /// A point reference, `B2`.
    Ref(Named),
    /// A range, `B2:C9`, its corners in the order they were typed.
    Range(Named, Named),
}

#[derive(Debug)]
struct Formula {
    /// The source as typed, without the `=`.
    typed: String,
    pieces: Vec<Piece>,
    /// Whether an edit has ever spelled it other than as typed. The engine
    /// keeps the typed text until then, and its own printing after.
    respelled: bool,
}

#[derive(Debug, Default)]
enum Slot {
    #[default]
    Empty,
    Value(CellValue),
    Formula(Formula),
}

/// One axis: its identities in position order, and each identity's
/// position (`None` once deleted). An identity is never reused.
#[derive(Debug, Default)]
struct Axis {
    ids: Vec<u32>,
    at: Vec<Option<u32>>,
}

impl Axis {
    fn len(&self) -> usize {
        self.ids.len()
    }

    /// Splice `n` fresh identities in before position `at`.
    fn insert(&mut self, at: usize, n: usize) {
        let first = self.at.len();
        self.at.resize(first + n, None);
        self.ids
            .splice(at..at, (first..first + n).map(|id| id as u32));
        self.renumber();
    }

    fn delete(&mut self, band: Range<usize>) {
        for id in self.ids.drain(band) {
            self.at[id as usize] = None;
        }
        self.renumber();
    }

    fn renumber(&mut self) {
        for (pos, &id) in self.ids.iter().enumerate() {
            self.at[id as usize] = Some(pos as u32);
        }
    }

    fn pos(&self, id: u32) -> u32 {
        self.at[id as usize].expect("a reference names only live identities")
    }
}

/// The dense reference sheet. See the module documentation.
#[derive(Debug, Default)]
pub struct RefSheet {
    /// `grid[row][col]`, `rows.len()` rows of `cols.len()` slots.
    grid: Vec<Vec<Slot>>,
    rows: Axis,
    cols: Axis,
    /// Every cell's value, computed on the first read after an edit.
    values: OnceCell<Vec<Vec<CellValue>>>,
}

impl RefSheet {
    pub fn new() -> Self {
        Self::default()
    }

    /// `updateCell`: `=…` is a formula, text that parses as a number is a
    /// number, `TRUE`/`FALSE` in any case are booleans, empty (or
    /// whitespace-only) input clears the cell, and anything else is text.
    pub fn set(&mut self, addr: CellAddr, input: &str) {
        let slot = match input.strip_prefix('=') {
            Some(src) => Slot::Formula(self.cut(addr, src)),
            None => literal(input.trim()),
        };
        self.put(addr, slot);
    }

    /// Overwrite the block at `top_left` with `rows` of values.
    pub fn import(&mut self, top_left: CellAddr, rows: &[Vec<CellValue>]) {
        for (r, row) in (top_left.row..).zip(rows) {
            for (c, value) in (top_left.col..).zip(row) {
                let slot = match value {
                    CellValue::Empty => Slot::Empty,
                    v => Slot::Value(v.clone()),
                };
                self.put(CellAddr::new(r, c), slot);
            }
        }
    }

    pub fn insert_rows(&mut self, at: u32, n: u32) {
        let (at, n) = (at as usize, n as usize);
        // Nothing lies at or past the end, so there is nothing to move.
        if at < self.rows.len() {
            self.rows.insert(at, n);
            let width = self.cols.len();
            let blank = || (0..width).map(|_| Slot::Empty).collect();
            self.grid.splice(at..at, (0..n).map(|_| blank()));
            self.edited();
        }
    }

    pub fn insert_cols(&mut self, at: u32, n: u32) {
        let (at, n) = (at as usize, n as usize);
        if at < self.cols.len() {
            self.cols.insert(at, n);
            for row in &mut self.grid {
                row.splice(at..at, (0..n).map(|_| Slot::Empty));
            }
            self.edited();
        }
    }

    pub fn delete_rows(&mut self, at: u32, n: u32) {
        let Some(band) = band(at, n, self.rows.len()) else {
            return;
        };
        self.reaim(&band, |cell| &mut cell.row, true);
        self.grid.drain(band.clone());
        self.rows.delete(band);
        self.edited();
    }

    pub fn delete_cols(&mut self, at: u32, n: u32) {
        let Some(band) = band(at, n, self.cols.len()) else {
            return;
        };
        self.reaim(&band, |cell| &mut cell.col, false);
        for row in &mut self.grid {
            row.drain(band.clone());
        }
        self.cols.delete(band);
        self.edited();
    }

    /// The value of the cell at `addr`.
    pub fn value(&self, addr: CellAddr) -> CellValue {
        Values(self.values()).value(addr)
    }

    /// The formula at `addr` as the model spells it now, without the `=`.
    pub fn formula(&self, addr: CellAddr) -> Option<String> {
        match self.slot(addr)? {
            Slot::Formula(f) => Some(self.spell(f)),
            _ => None,
        }
    }

    pub fn formula_count(&self) -> usize {
        self.slots()
            .filter(|(_, slot)| matches!(slot, Slot::Formula(_)))
            .count()
    }

    /// Every non-blank cell, row-major.
    pub fn cells(&self) -> Vec<(CellAddr, Cell)> {
        self.slots()
            .map(|(addr, _)| {
                let cell = Cell {
                    value: self.value(addr),
                    formula: self.formula(addr),
                };
                (addr, cell)
            })
            .collect()
    }

    /// Assert that `got`, an engine's cells, are the model's. Values
    /// compare exactly. A formula's text compares byte for byte while the
    /// model still spells it as typed; once an edit has respelled it, the
    /// engine holds its own printing (`A3*2+1` becomes `((A4*2)+1)`), so
    /// the two texts must parse at the cell to equal expressions.
    pub fn assert_matches(&self, got: impl IntoIterator<Item = (CellAddr, Cell)>, ctx: &str) {
        let mut got: BTreeMap<CellAddr, Cell> =
            got.into_iter().filter(|(_, c)| !c.is_blank()).collect();
        for (addr, slot) in self.slots() {
            let Some(cell) = got.remove(&addr) else {
                panic!("{ctx}: the model has {addr} = {slot:?}, the engine nothing");
            };
            assert_eq!(cell.value, self.value(addr), "{ctx}: value at {addr}");
            match (slot, cell.formula) {
                (Slot::Value(_), None) => {}
                (Slot::Formula(f), Some(text)) if !f.respelled => {
                    assert_eq!(text, f.typed, "{ctx}: formula text at {addr}");
                }
                (Slot::Formula(f), Some(text)) => {
                    let want = self.spell(f);
                    let parse = |src: &str| {
                        parse_at(src, addr).unwrap_or_else(|e| panic!("{ctx}: {addr} {src:?}: {e}"))
                    };
                    assert_eq!(
                        parse(&text),
                        parse(&want),
                        "{ctx}: formula at {addr}: engine {text:?}, model {want:?}"
                    );
                }
                (slot, formula) => {
                    panic!(
                        "{ctx}: at {addr} the engine has formula {formula:?}, the model {slot:?}"
                    )
                }
            }
        }
        if let Some((addr, cell)) = got.into_iter().next() {
            panic!("{ctx}: the engine has {addr} = {cell:?}, the model nothing");
        }
    }

    // ------------------------------------------------------------ edits --

    fn put(&mut self, addr: CellAddr, slot: Slot) {
        self.cover(addr.row as usize, addr.col as usize);
        self.grid[addr.row as usize][addr.col as usize] = slot;
        self.values.take();
    }

    /// Grow the grid, and the axes with it, to hold position `(row, col)`.
    fn cover(&mut self, row: usize, col: usize) {
        if col >= self.cols.len() {
            let width = col + 1;
            self.cols.insert(self.cols.len(), width - self.cols.len());
            for r in &mut self.grid {
                r.resize_with(width, Slot::default);
            }
        }
        if row >= self.rows.len() {
            self.rows.insert(self.rows.len(), row + 1 - self.rows.len());
            let width = self.cols.len();
            self.grid
                .resize_with(row + 1, || (0..width).map(|_| Slot::Empty).collect());
        }
    }

    /// Before the positions `band` of one axis go: each deleted range
    /// corner walks toward the other corner to the first survivor, and a
    /// formula with a deleted point reference, or a range with no survivor,
    /// becomes `#REF!`. `axis` picks a cell's identity on that axis.
    fn reaim(&mut self, band: &Range<usize>, axis: fn(&mut Named) -> &mut u32, rows: bool) {
        let line = if rows { &self.rows } else { &self.cols };
        let gone = |pos: u32| band.contains(&(pos as usize));
        // The first surviving position from `from` toward `to`, inclusive.
        let survivor = |from: u32, to: u32| {
            let mut pos = from;
            while gone(pos) {
                if pos == to {
                    return None;
                }
                pos = if to > pos { pos + 1 } else { pos - 1 };
            }
            Some(pos)
        };
        for slot in self.grid.iter_mut().flatten() {
            let Slot::Formula(f) = slot else { continue };
            let mut destroyed = false;
            for piece in &mut f.pieces {
                match piece {
                    Piece::Text(_) => {}
                    Piece::Ref(cell) => destroyed |= gone(line.pos(*axis(cell))),
                    Piece::Range(a, b) => {
                        let (pa, pb) = (line.pos(*axis(a)), line.pos(*axis(b)));
                        match (survivor(pa, pb), survivor(pb, pa)) {
                            (Some(na), Some(nb)) => {
                                *axis(a) = line.ids[na as usize];
                                *axis(b) = line.ids[nb as usize];
                            }
                            _ => destroyed = true,
                        }
                    }
                }
            }
            if destroyed {
                *slot = Slot::Value(CellValue::Error(CellError::Ref));
            }
        }
    }

    /// After a structural edit: values go stale, and a formula whose
    /// spelling left its typed text is marked respelled for good.
    fn edited(&mut self) {
        self.values.take();
        let (rows, cols) = (&self.rows, &self.cols);
        for slot in self.grid.iter_mut().flatten() {
            if let Slot::Formula(f) = slot {
                f.respelled |= spell(&f.pieces, rows, cols) != f.typed;
            }
        }
    }

    /// Cut `src`, typed in `addr`, into literal text and references, and
    /// name each referenced cell by its identities, growing the grid to
    /// hold it. Panics outside the model's language, and on a formula the
    /// parser refuses.
    fn cut(&mut self, addr: CellAddr, src: &str) -> Formula {
        let bytes = src.as_bytes();
        // Pieces naming cells by position until the grid covers them all.
        let mut pieces = Vec::new();
        let mut text = String::new();
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            match bytes[i] {
                b'"' => {
                    // A string literal; `""` is a quote inside it.
                    i += 1;
                    while i < bytes.len() {
                        i += 1;
                        if bytes[i - 1] == b'"' {
                            if bytes.get(i) != Some(&b'"') {
                                break;
                            }
                            i += 1;
                        }
                    }
                    text.push_str(&src[start..i]);
                }
                b'0'..=b'9' | b'.' => {
                    // A number, with its exponent: `1E5` names no cell.
                    while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                        i += 1;
                    }
                    if matches!(bytes.get(i), Some(b'e' | b'E')) {
                        let mut j = i + 1;
                        if matches!(bytes.get(j), Some(b'+' | b'-')) {
                            j += 1;
                        }
                        if bytes.get(j).is_some_and(u8::is_ascii_digit) {
                            i = j;
                            while i < bytes.len() && bytes[i].is_ascii_digit() {
                                i += 1;
                            }
                        }
                    }
                    text.push_str(&src[start..i]);
                }
                b'$' => outside("`$`", src),
                b':' => outside("a `:` outside `X:Y`", src),
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let first = word(src, &mut i);
                    let call = src[i..].trim_start().starts_with('(');
                    match position(first) {
                        _ if call => text.push_str(first),
                        Some(a) => {
                            pieces.push(Piece::Text(std::mem::take(&mut text)));
                            if bytes.get(i) == Some(&b':') {
                                i += 1;
                                let second = word(src, &mut i);
                                let b = position(second).unwrap_or_else(|| outside(second, src));
                                pieces.push(Piece::Range(a, b));
                            } else {
                                pieces.push(Piece::Ref(a));
                            }
                        }
                        None if first.contains('$') => outside("`$`", src),
                        None if position(&first.to_ascii_uppercase()).is_some() => {
                            outside(first, src)
                        }
                        None => text.push_str(first),
                    }
                }
                _ => {
                    let ch = src[i..].chars().next().expect("a char starts here");
                    text.push(ch);
                    i += ch.len_utf8();
                }
            }
        }
        pieces.push(Piece::Text(text));
        for piece in &pieces {
            let corners = match piece {
                Piece::Text(_) => continue,
                Piece::Ref(a) => [a, a],
                Piece::Range(a, b) => [a, b],
            };
            for cell in corners {
                self.cover(cell.row as usize, cell.col as usize);
            }
        }
        let name = |p: &mut Named| {
            p.row = self.rows.ids[p.row as usize];
            p.col = self.cols.ids[p.col as usize];
        };
        for piece in &mut pieces {
            match piece {
                Piece::Text(_) => {}
                Piece::Ref(a) => name(a),
                Piece::Range(a, b) => {
                    name(a);
                    name(b);
                }
            }
        }
        pieces.retain(|p| !matches!(p, Piece::Text(t) if t.is_empty()));
        let formula = Formula {
            typed: src.to_string(),
            pieces,
            respelled: false,
        };
        if let Err(e) = parse_at(&self.spell(&formula), addr) {
            panic!("the reference sheet holds only formulas that parse: {src:?}: {e}");
        }
        formula
    }

    // ------------------------------------------------------------ reads --

    fn slot(&self, addr: CellAddr) -> Option<&Slot> {
        self.grid.get(addr.row as usize)?.get(addr.col as usize)
    }

    /// The non-empty slots, row-major.
    fn slots(&self) -> impl Iterator<Item = (CellAddr, &Slot)> {
        self.grid.iter().zip(0..).flat_map(|(row, r)| {
            row.iter()
                .zip(0..)
                .filter(|(slot, _)| !matches!(slot, Slot::Empty))
                .map(move |(slot, c)| (CellAddr::new(r, c), slot))
        })
    }

    fn spell(&self, f: &Formula) -> String {
        spell(&f.pieces, &self.rows, &self.cols)
    }

    fn values(&self) -> &[Vec<CellValue>] {
        self.values.get_or_init(|| self.evaluate())
    }

    /// Every cell's value: literals as they are, formulas by Kahn order
    /// over the edges the references' positions give, `#CIRC!` for those
    /// it never releases.
    fn evaluate(&self) -> Vec<Vec<CellValue>> {
        let mut values: Vec<Vec<CellValue>> = self
            .grid
            .iter()
            .map(|row| {
                row.iter()
                    .map(|slot| match slot {
                        Slot::Value(v) => v.clone(),
                        _ => CellValue::Empty,
                    })
                    .collect()
            })
            .collect();
        // The formulas, numbered row-major.
        let mut id = vec![vec![None; self.cols.len()]; self.rows.len()];
        let mut formulas = Vec::new();
        for (addr, slot) in self.slots() {
            if let Slot::Formula(f) = slot {
                id[addr.row as usize][addr.col as usize] = Some(formulas.len());
                formulas.push((addr, f));
            }
        }
        // `readers[i]` reads formula `i`; `waiting[j]` counts the edges
        // into `j` not yet released.
        let mut readers = vec![Vec::new(); formulas.len()];
        let mut waiting = vec![0u32; formulas.len()];
        for (j, (_, f)) in formulas.iter().enumerate() {
            for piece in &f.pieces {
                let (a, b) = match piece {
                    Piece::Text(_) => continue,
                    Piece::Ref(a) => (a, a),
                    Piece::Range(a, b) => (a, b),
                };
                let span = |x: u32, y: u32| x.min(y) as usize..=x.max(y) as usize;
                let rows = span(self.rows.pos(a.row), self.rows.pos(b.row));
                let cols = span(self.cols.pos(a.col), self.cols.pos(b.col));
                for r in rows {
                    for &i in id[r][cols.clone()].iter().flatten() {
                        readers[i].push(j);
                        waiting[j] += 1;
                    }
                }
            }
        }
        // Kahn's algorithm; the order is its own queue.
        let mut order: Vec<usize> = (0..formulas.len()).filter(|&j| waiting[j] == 0).collect();
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &v in &readers[u] {
                waiting[v] -= 1;
                if waiting[v] == 0 {
                    order.push(v);
                }
            }
        }
        for &j in &order {
            let (addr, f) = formulas[j];
            let expr = parse_at(&self.spell(f), addr).expect("a held formula parses");
            let value = Evaluator::at(addr).eval(&expr, &Values(&values));
            values[addr.row as usize][addr.col as usize] = value;
        }
        for (j, (addr, _)) in formulas.iter().enumerate() {
            if waiting[j] > 0 {
                values[addr.row as usize][addr.col as usize] =
                    CellValue::Error(CellError::Circular);
            }
        }
        values
    }
}

fn outside(what: &str, src: &str) -> ! {
    panic!("{what} in {src:?} is outside the reference sheet's language")
}

/// The identifier starting at `*i` in `src`, as the formula lexer reads
/// one; `*i` moves past it.
fn word<'s>(src: &'s str, i: &mut usize) -> &'s str {
    let bytes = src.as_bytes();
    let from = *i;
    while *i < bytes.len() && (bytes[*i].is_ascii_alphanumeric() || b"_.$".contains(&bytes[*i])) {
        *i += 1;
    }
    &src[from..*i]
}

/// The positions `at..at + n` of an axis `len` long that exist, if any.
fn band(at: u32, n: u32, len: usize) -> Option<Range<usize>> {
    let at = at as usize;
    let end = at.saturating_add(n as usize).min(len);
    (at < end).then_some(at..end)
}

/// A literal input, trimmed: a number, a boolean, text, or nothing.
fn literal(input: &str) -> Slot {
    if input.is_empty() {
        return Slot::Empty;
    }
    let value = match input.parse::<f64>() {
        Ok(n) => CellValue::Number(n),
        Err(_) if input.eq_ignore_ascii_case("TRUE") => CellValue::Bool(true),
        Err(_) if input.eq_ignore_ascii_case("FALSE") => CellValue::Bool(false),
        Err(_) => CellValue::Text(input.to_string()),
    };
    Slot::Value(value)
}

/// The position `word` names when it is a reference, `[A-Z]+[0-9]+` with
/// a row from 1, as a [`Named`] holding positions.
fn position(word: &str) -> Option<Named> {
    let digits = word.find(|c: char| c.is_ascii_digit())?;
    let (letters, row) = word.split_at(digits);
    if letters.is_empty()
        || !letters.bytes().all(|b| b.is_ascii_uppercase())
        || !row.bytes().all(|b| b.is_ascii_digit())
    {
        return None;
    }
    let row = row.parse::<u32>().ok()?.checked_sub(1)?;
    let col = letters.bytes().try_fold(0u32, |n, b| {
        n.checked_mul(26)?.checked_add(u32::from(b - b'A') + 1)
    })?;
    Some(Named { row, col: col - 1 })
}

/// A formula's text, each reference spelled where its identities are now.
fn spell(pieces: &[Piece], rows: &Axis, cols: &Axis) -> String {
    let mut out = String::new();
    let name = |out: &mut String, cell: &Named| {
        let mut col = u64::from(cols.pos(cell.col)) + 1;
        let mut letters = Vec::new();
        while col > 0 {
            col -= 1;
            letters.push(b'A' + (col % 26) as u8);
            col /= 26;
        }
        letters.reverse();
        out.push_str(std::str::from_utf8(&letters).expect("ASCII letters"));
        out.push_str(&(u64::from(rows.pos(cell.row)) + 1).to_string());
    };
    for piece in pieces {
        match piece {
            Piece::Text(t) => out.push_str(t),
            Piece::Ref(a) => name(&mut out, a),
            Piece::Range(a, b) => {
                name(&mut out, a);
                out.push(':');
                name(&mut out, b);
            }
        }
    }
    out
}

/// The evaluator's view of the values computed so far.
struct Values<'a>(&'a [Vec<CellValue>]);

impl CellReader for Values<'_> {
    fn value(&self, addr: CellAddr) -> CellValue {
        self.0
            .get(addr.row as usize)
            .and_then(|row| row.get(addr.col as usize))
            .cloned()
            .unwrap_or(CellValue::Empty)
    }
}
