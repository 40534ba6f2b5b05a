//! The translator abstraction (paper Figure 12: ROM/TOM, COM, RCV, and
//! hybrid translators all provide a "collection of cells" view over stored
//! tuples).
//!
//! A cell crosses the store boundary one way in both directions: its value
//! as a borrowed [`ScanValue`], its formula source as an `Option<&str>`.
//! [`Translator::scan`] hands cells out so, and `set_cell`,
//! `set_cells_in_row` and the bulk builders take them so. The point read,
//! [`Translator::value`], returns the value alone: its callers
//! (`SheetEngine::value`, the evaluator, COM's inner ROM) keep only that,
//! formula sources live in the engine's registry, and whole cells are read
//! by scanning.

use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue, Rect, ScanValue, Shift};
use dataspread_hybrid::ModelKind;
use dataspread_relstore::{Datum, DatumRef, RowWriter};

use crate::error::EngineError;

/// What [`Translator::scan`] hands each cell to: local row and column, the
/// value as a borrow, and the formula source if there is one.
pub type CellVisitor<'a> = dyn FnMut(u32, u32, ScanValue<'_>, Option<&str>) + 'a;

/// A rect covering every address a store can hold: `scan(WHOLE, ..)` reads
/// the whole store, whatever its extent.
pub const WHOLE: Rect = Rect {
    r1: 0,
    c1: 0,
    r2: u32::MAX,
    c2: u32::MAX,
};

/// A translator serves a rectangular region of the sheet in *local*
/// coordinates (`(0,0)` = the region's top-left). The hybrid layer owns the
/// mapping between sheet and local coordinates: on a structural edit it
/// moves the region's rect ([`Shift::apply_rect`]) and hands the translator
/// one [`Translator::shift`] with the part of the edit that lands inside.
///
/// `Send + Sync` are supertraits: the concurrent workspace shards sheets
/// across session threads behind per-sheet reader-writer locks, so every
/// translator (and therefore the whole `SheetEngine`) must move between
/// threads and serve `&self` reads from several at once.
pub trait Translator: std::fmt::Debug + Send + Sync {
    fn kind(&self) -> ModelKind;

    /// Current logical extent (rows may exceed the last filled row after
    /// structural inserts).
    fn rows(&self) -> u32;
    fn cols(&self) -> u32;

    /// The point read: the value at `(row, col)`, [`CellValue::Empty`] for
    /// a blank cell or a position past the extent. A formula cell reads as
    /// its last computed value.
    fn value(&self, row: u32, col: u32) -> CellValue;

    /// Insert-or-update: the cell holds `value` and `formula` (it is blank
    /// when `value` is empty and there is no formula). The translator
    /// grows its extent as needed.
    fn set_cell(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError>;

    /// Blank a cell; a position past the extent is already blank.
    fn clear_cell(&mut self, row: u32, col: u32) -> Result<(), EngineError> {
        if row < self.rows() && col < self.cols() {
            self.set_cell(row, col, ScanValue::Empty, None)?;
        }
        Ok(())
    }

    /// The one way a region is read in bulk: visit every non-blank cell of
    /// `rect` ∩ extent (local coords) in strictly increasing row-major
    /// order, values and formula sources as borrows — nothing is cloned
    /// unless the visitor clones it. Snapshots, the optimizer's occupancy,
    /// checkpoint payloads, migrations, relations, range aggregates and —
    /// through [`HybridSheet::scan`](crate::hybrid::HybridSheet::scan) —
    /// window fetches and the evaluator's range reads are all folds over
    /// it.
    fn scan(&self, rect: Rect, f: &mut CellVisitor<'_>);

    /// The scan collected as owned cells.
    fn get_range(&self, rect: Rect) -> Vec<(CellAddr, Cell)> {
        let mut out = Vec::new();
        self.scan(rect, &mut |row, col, value, formula| {
            out.push((CellAddr::new(row, col), value.to_cell(formula)));
        });
        out
    }

    /// All non-blank cells.
    fn all_cells(&self) -> Vec<(CellAddr, Cell)> {
        self.get_range(WHOLE)
    }

    /// Update several cells of one row at once: `(col, value, formula)`
    /// each, applied in order. Row-oriented translators override this to
    /// rewrite the row tuple a single time (the paper's ROM issues one
    /// UPDATE per row, not per cell — Figure 22).
    fn set_cells_in_row(
        &mut self,
        row: u32,
        cells: &[(u32, ScanValue<'_>, Option<&str>)],
    ) -> Result<(), EngineError> {
        for &(col, value, formula) in cells {
            self.set_cell(row, col, value, formula)?;
        }
        Ok(())
    }

    /// A structural edit in local coordinates: the part of a sheet-level
    /// edit that lands inside the region ([`Shift::within`]), or the whole
    /// edit for the catch-all, whose origin is the sheet's. Its count is
    /// never zero. Each model keeps its own mechanism per axis — a row
    /// edit is a posmap edit for ROM and RCV, a schema edit for COM.
    fn shift(&mut self, s: Shift) -> Result<(), EngineError>;

    /// Accounted storage footprint in bytes.
    fn storage_bytes(&self) -> u64;

    /// Number of non-blank cells.
    fn filled_count(&self) -> u64;

    /// A stamp that changes whenever this translator's *backing store* may
    /// have changed without a sheet mutator running. `None` (the default)
    /// means cell content only ever changes through the translator's own
    /// `&mut self` methods, so the hybrid layer's dirty flag is exhaustive.
    /// TOM returns the database's change counter: a linked table can be
    /// mutated by SQL behind the sheet's back, and an unchanged counter
    /// lets a checkpoint skip re-serializing the region.
    fn change_stamp(&self) -> Option<u64> {
        None
    }

    /// Pre-encoded canonical checkpoint payload, when the translator has a
    /// compact native serialization (columnar regions encode their
    /// dictionary/RLE pages directly, so checkpoint images shrink with the
    /// data). Encoding may fold pending writes into the store first: a
    /// columnar region compacts, so it stays as its image decodes. `None`
    /// (the default) checkpoints through the generic per-cell codec.
    fn encoded_image(&mut self) -> Option<Vec<u8>> {
        None
    }

    /// Estimated resident (in-memory) footprint in bytes. Defaults to the
    /// accounted storage bytes; translators whose in-memory shape differs
    /// materially from their accounting (compressed layouts) override.
    fn resident_bytes(&self) -> u64 {
        self.storage_bytes()
    }

    /// Downcast hook for the columnar fast paths (column aggregates, the
    /// monomorphic window walk): `Some` only for
    /// [`ColumnarTranslator`](crate::columnar::ColumnarTranslator).
    fn as_columnar(&self) -> Option<&crate::columnar::ColumnarTranslator> {
        None
    }
}

/// Marker prefix for spreadsheet error values stored as text datums.
const ERR_TAG: &str = "\u{1}ERR:";

/// The marker's first character. ROM, COM and RCV store a text that
/// begins with it behind one more, so no text reads back as an error.
const ESC: char = '\u{1}';

/// Encode a cell value as a datum the way SQL sees it: [`stored`]'s datum,
/// except that linked tables and relations hold texts as they are, so
/// there a text beginning with [`ERR_TAG`] reads back as an error.
pub fn value_to_datum(v: &CellValue) -> Datum {
    match v {
        CellValue::Text(s) => Datum::Text(s.clone()),
        v => stored(ScanValue::of(v), &mut String::new()).to_datum(),
    }
}

/// The one escape rule of ROM, COM and RCV, which every tuple they write
/// goes through ([`write_stored`]): the datum `v` is stored as. An error
/// is a text behind [`ERR_TAG`], and a text beginning with [`ESC`] goes
/// behind one more, so no text reads back as an error. Either text is
/// built in `text`.
fn stored<'a>(v: ScanValue<'a>, text: &'a mut String) -> DatumRef<'a> {
    match v {
        ScanValue::Text(s) if s.starts_with(ESC) => *text = format!("{ESC}{s}"),
        ScanValue::Error(e) => *text = format!("{ERR_TAG}{e}"),
        ScanValue::Empty => return DatumRef::Null,
        ScanValue::Number(n) => return DatumRef::Float(n),
        ScanValue::Bool(b) => return DatumRef::Bool(b),
        ScanValue::Text(s) => return DatumRef::Text(s),
    }
    DatumRef::Text(text)
}

/// Append a cell's stored `[value, formula]` pair to `row` straight from
/// the borrows — the one encoder of a stored cell, for the bulk builders
/// and per-cell writes alike: a text is copied once, into the tuple.
pub(crate) fn write_stored(row: &mut RowWriter, value: ScanValue<'_>, formula: Option<&str>) {
    row.push(stored(value, &mut String::new()));
    row.push(formula.map_or(DatumRef::Null, DatumRef::Text));
}

/// Whether a cell of `value` and `formula` is blank: no value and no
/// formula.
pub(crate) fn is_blank(value: ScanValue<'_>, formula: Option<&str>) -> bool {
    matches!(value, ScanValue::Empty) && formula.is_none()
}

/// Decode a datum back into a cell value.
pub fn datum_to_value(d: &Datum) -> CellValue {
    datum_to_scan(d.as_ref()).to_value()
}

/// [`datum_to_value`] without the copy: a text borrows from the tuple the
/// datum was decoded in. Decodes both encodings: an escaped text loses its
/// escape, and a text behind [`ERR_TAG`] is an error.
pub(crate) fn datum_to_scan(d: DatumRef<'_>) -> ScanValue<'_> {
    match d {
        DatumRef::Null => ScanValue::Empty,
        DatumRef::Int(i) => ScanValue::Number(i as f64),
        DatumRef::Float(f) => ScanValue::Number(f),
        DatumRef::Bool(b) => ScanValue::Bool(b),
        DatumRef::Text(s) => match s.strip_prefix(ESC) {
            None => ScanValue::Text(s),
            Some(escaped) if escaped.starts_with(ESC) => ScanValue::Text(escaped),
            Some(_) => match s.strip_prefix(ERR_TAG) {
                Some(tag) => ScanValue::Error(parse_cell_error(tag)),
                None => ScanValue::Text(s),
            },
        },
    }
}

fn parse_cell_error(s: &str) -> CellError {
    match s {
        "#DIV/0!" => CellError::Div0,
        "#VALUE!" => CellError::Value,
        "#REF!" => CellError::Ref,
        "#NAME?" => CellError::Name,
        "#N/A" => CellError::Na,
        "#NUM!" => CellError::Num,
        _ => CellError::Circular,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_roundtrip() {
        for v in [
            CellValue::Empty,
            CellValue::Number(2.5),
            CellValue::Text("x".into()),
            CellValue::Bool(true),
            CellValue::Error(CellError::Div0),
            CellValue::Error(CellError::Na),
        ] {
            assert_eq!(datum_to_value(&value_to_datum(&v)), v, "{v:?}");
        }
    }

    #[test]
    fn error_text_does_not_collide_with_user_text() {
        // A user typing the literal text "#DIV/0!" must round-trip as text.
        let v = CellValue::Text("#DIV/0!".into());
        assert_eq!(datum_to_value(&value_to_datum(&v)), v);
    }

    #[test]
    fn a_written_cell_reads_back_as_written() {
        use dataspread_relstore::{ColumnDef, DataType, Schema, Table};
        let mut table = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("v", DataType::Any),
                ColumnDef::new("f", DataType::Any),
            ]),
        );
        let mut row = RowWriter::default();
        for (value, formula) in [
            (ScanValue::Number(1.0), None),
            (ScanValue::Text("abc"), Some("A1&\"x\"")),
            (ScanValue::Error(CellError::Na), None),
            // Texts that begin with the marker stay texts.
            (ScanValue::Text("\u{1}x"), None),
            (ScanValue::Text("\u{1}ERR:#REF!"), None),
            (ScanValue::Text("\u{1}\u{1}"), None),
            (ScanValue::Bool(true), None),
            (ScanValue::Empty, Some("B2")),
            (ScanValue::Empty, None),
        ] {
            write_stored(&mut row, value, formula);
            let tid = table.insert_row(&mut row).unwrap();
            let mut pair = Vec::new();
            table.fetch_ref(tid, &mut pair).unwrap();
            assert_eq!(datum_to_scan(pair[0]), value, "{value:?}");
            assert_eq!(pair[1].as_str(), formula, "{value:?}");
        }
    }
}
