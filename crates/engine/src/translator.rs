//! The translator abstraction (paper Figure 12: ROM/TOM, COM, RCV, and
//! hybrid translators all provide a "collection of cells" view over stored
//! tuples).

use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue, Rect, ScanValue};
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
/// mapping between sheet and local coordinates.
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

    fn get_cell(&self, row: u32, col: u32) -> Option<Cell>;

    /// Insert-or-update; the translator grows its extent as needed.
    fn set_cell(&mut self, row: u32, col: u32, cell: Cell) -> Result<(), EngineError>;

    fn clear_cell(&mut self, row: u32, col: u32) -> Result<(), EngineError>;

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

    /// Update several cells of one row at once, consuming the batch so no
    /// translator has to clone cell payloads. Row-oriented translators
    /// override this to fetch/rewrite the row tuple a single time (the
    /// paper's ROM issues one UPDATE per row, not per cell — Figure 22).
    fn set_cells_in_row(&mut self, row: u32, cells: Vec<(u32, Cell)>) -> Result<(), EngineError> {
        for (col, cell) in cells {
            self.set_cell(row, col, cell)?;
        }
        Ok(())
    }

    fn insert_rows(&mut self, at: u32, n: u32) -> Result<(), EngineError>;
    fn delete_rows(&mut self, at: u32, n: u32) -> Result<(), EngineError>;
    fn insert_cols(&mut self, at: u32, n: u32) -> Result<(), EngineError>;
    fn delete_cols(&mut self, at: u32, n: u32) -> Result<(), EngineError>;

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

/// The one escape rule of ROM, COM and RCV, which the owned
/// ([`cell_to_datums`]) and the written ([`write_stored`]) encodings both
/// call: the datum `v` is stored as. An error is a text behind
/// [`ERR_TAG`], and a text beginning with [`ESC`] goes behind one more, so
/// no text reads back as an error. Either text is built in `text`.
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
/// the borrows, as [`cell_to_datums`] has it: a text is copied once, into
/// the tuple.
pub(crate) fn write_stored(row: &mut RowWriter, value: ScanValue<'_>, formula: Option<&str>) {
    row.push(stored(value, &mut String::new()));
    row.push(formula.map_or(DatumRef::Null, DatumRef::Text));
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

/// Encode a cell (value + optional formula) as a stored `[value, formula]`
/// pair of owned datums (texts are copied).
pub fn cell_to_datums(cell: &Cell) -> [Datum; 2] {
    [
        stored(ScanValue::of(&cell.value), &mut String::new()).to_datum(),
        cell.formula.as_deref().map_or(Datum::Null, Datum::from),
    ]
}

/// Decode a `[value, formula]` datum pair.
pub fn datums_to_cell(value: &Datum, formula: &Datum) -> Cell {
    Cell {
        value: datum_to_value(value),
        formula: match formula {
            Datum::Text(s) => Some(s.clone()),
            _ => None,
        },
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
    fn cell_roundtrip() {
        let cell = Cell {
            value: CellValue::Number(85.0),
            formula: Some("AVERAGE(B2:C2)+D2+E2".into()),
        };
        let [v, f] = cell_to_datums(&cell);
        assert_eq!(datums_to_cell(&v, &f), cell);
        let plain = Cell::value(1i64);
        let [v, f] = cell_to_datums(&plain);
        assert_eq!(datums_to_cell(&v, &f), plain);
    }

    #[test]
    fn owned_encode_matches_written_encode() {
        use dataspread_relstore::{ColumnDef, DataType, Schema, Table};
        let mut table = Table::new(
            "t",
            Schema::new(vec![
                ColumnDef::new("v", DataType::Any),
                ColumnDef::new("f", DataType::Any),
            ]),
        );
        let mut row = RowWriter::default();
        for cell in [
            Cell::value(1i64),
            Cell {
                value: CellValue::Text("abc".into()),
                formula: Some("A1&\"x\"".into()),
            },
            Cell {
                value: CellValue::Error(CellError::Na),
                formula: None,
            },
            Cell::value("\u{1}x"),
            Cell::value("\u{1}ERR:#REF!"),
            Cell::value("\u{1}\u{1}"),
            Cell::value(true),
            Cell::default(),
        ] {
            write_stored(
                &mut row,
                ScanValue::of(&cell.value),
                cell.formula.as_deref(),
            );
            let tid = table.insert_row(&mut row).unwrap();
            let owned = cell_to_datums(&cell);
            assert_eq!(table.fetch(tid).unwrap(), owned, "{cell:?}");
            assert_eq!(datums_to_cell(&owned[0], &owned[1]), cell);
        }
    }
}
