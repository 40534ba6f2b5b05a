//! Typed values and their on-page encoding.
//!
//! The byte layout is built on the shared [`dataspread_grid::codec`]
//! primitives, so tuple bytes, snapshot files, and the engine's WAL records
//! all use the same bounds-checked framing. A datum has one encoder and
//! one decoder, `DatumRef::encode_into` and `DatumRef::decode_from`: an
//! owned row ([`encode_row`]) and a row written from borrows
//! ([`RowWriter`]) are both written through the first.

use std::fmt;

use crate::error::StoreError;
use dataspread_grid::codec::{self, Reader};

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
    Bool,
    /// Accepts any datum — used by the storage engine's spreadsheet-cell
    /// columns, which hold whatever the user typed (like SQLite's type
    /// affinity rather than rigid typing).
    Any,
}

/// A single typed value inside a tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Null,
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
}

impl Datum {
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Datum::Int(i) => Some(*i),
            Datum::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::Int(i) => Some(*i as f64),
            Datum::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Datum::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Encoded size in bytes (tag + payload), excluding tuple headers.
    pub fn encoded_len(&self) -> usize {
        1 + match self {
            Datum::Null => 0,
            Datum::Int(_) => 8,
            Datum::Float(_) => 8,
            Datum::Text(s) => 4 + s.len(),
            Datum::Bool(_) => 1,
        }
    }

    /// This datum as a borrow (texts are not copied).
    pub fn as_ref(&self) -> DatumRef<'_> {
        match self {
            Datum::Null => DatumRef::Null,
            Datum::Int(i) => DatumRef::Int(*i),
            Datum::Float(f) => DatumRef::Float(*f),
            Datum::Text(s) => DatumRef::Text(s),
            Datum::Bool(b) => DatumRef::Bool(*b),
        }
    }
}

/// A datum decoded in place: a text borrows from the encoded tuple instead
/// of being copied out of it — what a scan over many tuples reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DatumRef<'a> {
    Null,
    Int(i64),
    Float(f64),
    Text(&'a str),
    Bool(bool),
}

impl<'a> DatumRef<'a> {
    /// Whether this datum can be stored in a column of type `ty`.
    /// `Null` fits everywhere; `Int` widens into `Float` columns.
    pub fn fits(self, ty: DataType) -> bool {
        matches!(
            (self, ty),
            (_, DataType::Any)
                | (DatumRef::Null, _)
                | (DatumRef::Int(_), DataType::Int)
                | (DatumRef::Int(_), DataType::Float)
                | (DatumRef::Float(_), DataType::Float)
                | (DatumRef::Text(_), DataType::Text)
                | (DatumRef::Bool(_), DataType::Bool)
        )
    }

    pub fn as_str(self) -> Option<&'a str> {
        match self {
            DatumRef::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The owned datum (texts are copied).
    pub fn to_datum(self) -> Datum {
        match self {
            DatumRef::Null => Datum::Null,
            DatumRef::Int(i) => Datum::Int(i),
            DatumRef::Float(f) => Datum::Float(f),
            DatumRef::Text(s) => Datum::Text(s.to_string()),
            DatumRef::Bool(b) => Datum::Bool(b),
        }
    }

    /// The one datum encoder, the twin of [`DatumRef::decode_from`]: an
    /// owned row ([`encode_row`]) and a [`RowWriter`]'s borrowed datums are
    /// both written through it, so the two byte forms cannot drift apart.
    fn encode_into(self, out: &mut Vec<u8>) {
        match self {
            DatumRef::Null => codec::put_u8(out, 0),
            DatumRef::Int(i) => {
                codec::put_u8(out, 1);
                out.extend_from_slice(&i.to_le_bytes());
            }
            DatumRef::Float(f) => {
                codec::put_u8(out, 2);
                codec::put_f64(out, f);
            }
            DatumRef::Text(s) => {
                codec::put_u8(out, 3);
                codec::put_str(out, s);
            }
            DatumRef::Bool(b) => {
                codec::put_u8(out, 4);
                codec::put_u8(out, b as u8);
            }
        }
    }

    /// The one datum decoder: every owned decode goes through it too, so
    /// both forms apply the same bounds, tag and UTF-8 checks.
    // Forced inline: out of line, every datum of every scanned tuple pays a
    // call returning `Result<_, StoreError>` through memory — 3x the cost
    // of the decode itself on a projected row read.
    #[inline(always)]
    fn decode_from(cur: &mut Reader<'a>) -> Result<DatumRef<'a>, StoreError> {
        match cur.u8()? {
            0 => Ok(DatumRef::Null),
            1 => {
                let b: [u8; 8] = cur.take(8)?.try_into().expect("8 bytes");
                Ok(DatumRef::Int(i64::from_le_bytes(b)))
            }
            2 => Ok(DatumRef::Float(cur.f64()?)),
            3 => Ok(DatumRef::Text(cur.str_ref()?)),
            4 => Ok(DatumRef::Bool(cur.u8()? != 0)),
            t => Err(codec::corrupt(format!("unknown datum tag {t}")).into()),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Float(x) => write!(f, "{x}"),
            Datum::Text(s) => write!(f, "{s}"),
            Datum::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}
impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}
impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Text(v.to_string())
    }
}
impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Text(v)
    }
}
impl From<bool> for Datum {
    fn from(v: bool) -> Self {
        Datum::Bool(v)
    }
}

/// Encode a row of datums: `u16` arity followed by each datum.
pub fn encode_row(row: &[Datum]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + row.iter().map(Datum::encoded_len).sum::<usize>());
    codec::put_u16(&mut out, row.len() as u16);
    for d in row {
        d.as_ref().encode_into(&mut out);
    }
    out
}

/// A tuple written datum by datum in [`encode_row`]'s layout, straight from
/// borrows: no [`Datum`] is made and a text is copied once, into the
/// tuple's bytes. [`Table::insert_row`](crate::Table::insert_row) takes it.
#[derive(Debug, Default)]
pub struct RowWriter {
    datums: Vec<u8>,
    pub(crate) arity: usize,
}

impl RowWriter {
    /// Append the next datum.
    #[inline]
    pub fn push(&mut self, d: DatumRef<'_>) {
        d.encode_into(&mut self.datums);
        self.arity += 1;
    }

    /// The datums written so far, decoded in place.
    pub(crate) fn datums(&self) -> impl Iterator<Item = DatumRef<'_>> {
        let mut cur = Reader::new(&self.datums);
        (0..self.arity)
            .map(move |_| DatumRef::decode_from(&mut cur).expect("written by the encoder"))
    }

    /// The tuple, behind its arity header (the caller has checked that the
    /// arity fits one); the writer is left empty for the next row.
    pub(crate) fn take_tuple(&mut self) -> Box<[u8]> {
        let mut tuple = Vec::with_capacity(2 + self.datums.len());
        codec::put_u16(&mut tuple, self.arity as u16);
        tuple.append(&mut self.datums);
        self.arity = 0;
        tuple.into_boxed_slice()
    }
}

/// Skip one encoded datum without allocating its value.
#[inline(always)] // as `DatumRef::decode_from`
fn skip_datum(cur: &mut Reader<'_>) -> Result<(), StoreError> {
    let payload = match cur.u8()? {
        0 => 0,
        1 | 2 => 8,
        3 => cur.u32()? as usize,
        4 => 1,
        t => return Err(codec::corrupt(format!("unknown datum tag {t}")).into()),
    };
    cur.take(payload)?;
    Ok(())
}

/// Visit the datums at the given (sorted, deduplicated) indices in order,
/// skipping everything else without decoding; an index beyond the row's
/// arity is not visited.
fn project<'a>(
    buf: &'a [u8],
    wanted: &[usize],
    mut visit: impl FnMut(DatumRef<'a>),
) -> Result<(), StoreError> {
    let mut cur = Reader::new(buf);
    let n = arity(&mut cur)?;
    let mut next = 0usize; // index into `wanted`
    for i in 0..n {
        if next >= wanted.len() {
            break;
        }
        if wanted[next] == i {
            visit(DatumRef::decode_from(&mut cur)?);
            next += 1;
        } else {
            skip_datum(&mut cur)?;
        }
    }
    Ok(())
}

/// The datums at the given (sorted, deduplicated) indices, as borrows into
/// `out` (cleared first), one per index in order and `Null` beyond the
/// row's arity (short rows are NULL-padded by convention): one buffer
/// serves a whole scan, and nothing else is decoded or copied.
pub fn decode_row_project_ref<'a>(
    buf: &'a [u8],
    wanted: &[usize],
    out: &mut Vec<DatumRef<'a>>,
) -> Result<(), StoreError> {
    out.clear();
    project(buf, wanted, |d| out.push(d))?;
    out.resize(wanted.len(), DatumRef::Null);
    Ok(())
}

/// [`decode_row_project_ref`] of the one index `i`, with no buffer.
pub fn decode_datum_ref(buf: &[u8], i: usize) -> Result<DatumRef<'_>, StoreError> {
    let mut datum = DatumRef::Null;
    project(buf, &[i], |d| datum = d)?;
    Ok(datum)
}

/// A tuple's arity header.
fn arity(cur: &mut Reader<'_>) -> Result<usize, StoreError> {
    Ok(cur
        .u16()
        .map_err(|_| codec::corrupt("row shorter than arity header"))? as usize)
}

/// Decode a whole row into `out` (cleared first), each datum through
/// `make`, and check that nothing trails it.
fn decode_into<'a, T>(
    buf: &'a [u8],
    out: &mut Vec<T>,
    make: impl Fn(DatumRef<'a>) -> T,
) -> Result<(), StoreError> {
    out.clear();
    let mut cur = Reader::new(buf);
    let n = arity(&mut cur)?;
    out.reserve(n);
    for _ in 0..n {
        out.push(make(DatumRef::decode_from(&mut cur)?));
    }
    cur.expect_done("row")?;
    Ok(())
}

/// Decode a row previously produced by [`encode_row`].
pub fn decode_row(buf: &[u8]) -> Result<Vec<Datum>, StoreError> {
    let mut row = Vec::new();
    decode_into(buf, &mut row, DatumRef::to_datum)?;
    Ok(row)
}

/// [`decode_row`] as borrows into `out` (cleared first): texts point into
/// `buf`.
pub fn decode_row_ref<'a>(buf: &'a [u8], out: &mut Vec<DatumRef<'a>>) -> Result<(), StoreError> {
    decode_into(buf, out, |d| d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let row = vec![
            Datum::Null,
            Datum::Int(-42),
            Datum::Float(3.5),
            Datum::Text("héllo".into()),
            Datum::Bool(true),
        ];
        let bytes = encode_row(&row);
        assert_eq!(decode_row(&bytes).unwrap(), row);
        let mut borrowed = vec![DatumRef::Int(7)]; // stale content is dropped
        decode_row_ref(&bytes, &mut borrowed).unwrap();
        assert!(borrowed.iter().map(|d| d.to_datum()).eq(row));
    }

    #[test]
    fn encoded_len_matches_actual() {
        for d in [
            Datum::Null,
            Datum::Int(7),
            Datum::Float(1.25),
            Datum::Text("abc".into()),
            Datum::Bool(false),
        ] {
            let mut buf = Vec::new();
            d.as_ref().encode_into(&mut buf);
            assert_eq!(buf.len(), d.encoded_len(), "{d:?}");
        }
    }

    /// The borrowed projection of `wanted`, as owned datums.
    fn project(bytes: &[u8], wanted: &[usize]) -> Result<Vec<Datum>, StoreError> {
        let mut buf = Vec::new();
        decode_row_project_ref(bytes, wanted, &mut buf)?;
        Ok(buf.iter().map(|d| d.to_datum()).collect())
    }

    /// The full decode's datums at `wanted`, NULL beyond the arity.
    fn picked(bytes: &[u8], wanted: &[usize]) -> Result<Vec<Datum>, StoreError> {
        let row = decode_row(bytes)?;
        Ok(wanted
            .iter()
            .map(|&i| row.get(i).cloned().unwrap_or(Datum::Null))
            .collect())
    }

    #[test]
    fn projected_decode_matches_full_decode() {
        let row = vec![
            Datum::Int(1),
            Datum::Text("abc".into()),
            Datum::Null,
            Datum::Float(2.5),
            Datum::Bool(true),
        ];
        let bytes = encode_row(&row);
        for (wanted, want) in [
            (
                &[1, 3][..],
                vec![Datum::Text("abc".into()), Datum::Float(2.5)],
            ),
            (&[0], vec![Datum::Int(1)]),
            // Beyond arity pads with NULL.
            (&[4, 9], vec![Datum::Bool(true), Datum::Null]),
            (&[], Vec::<Datum>::new()),
        ] {
            assert_eq!(project(&bytes, wanted).unwrap(), want);
            assert_eq!(picked(&bytes, wanted).unwrap(), want);
        }
    }

    #[test]
    fn borrowed_projection_matches_owned_projection() {
        let row = vec![
            Datum::Int(1),
            Datum::Text("héllo".into()),
            Datum::Null,
            Datum::Float(2.5),
            Datum::Bool(true),
            Datum::Text(String::new()),
        ];
        let bytes = encode_row(&row);
        let mut buf = vec![DatumRef::Bool(false)]; // stale content is dropped
        for wanted in [vec![], vec![1], vec![0, 3, 5], vec![4, 5, 6, 9], vec![7]] {
            decode_row_project_ref(&bytes, &wanted, &mut buf).unwrap();
            let owned = picked(&bytes, &wanted).unwrap();
            assert_eq!(buf.len(), owned.len());
            for (d, o) in buf.iter().zip(&owned) {
                assert_eq!(*d, o.as_ref());
            }
            // One index alone decodes with no buffer.
            for (&i, d) in wanted.iter().zip(&buf) {
                assert_eq!(decode_datum_ref(&bytes, i).unwrap(), *d, "index {i}");
            }
        }
        // Same rejections as the owned decode: truncation at every byte,
        // an unknown tag, and text that is not UTF-8.
        let all: Vec<usize> = (0..row.len()).collect();
        for cut in 0..bytes.len() {
            assert_eq!(
                decode_row_project_ref(&bytes[..cut], &all, &mut buf).is_err(),
                decode_row(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
            assert!(decode_row_project_ref(&bytes[..cut], &all, &mut buf).is_err());
            for &i in &all {
                assert_eq!(
                    decode_datum_ref(&bytes[..cut], i).is_err(),
                    decode_row_project_ref(&bytes[..cut], &[i], &mut buf).is_err(),
                    "cut at {cut}, index {i}"
                );
            }
        }
        for bad in [&[1, 0, 9][..], &[1, 0, 3, 1, 0, 0, 0, 0xFF]] {
            assert!(decode_row_project_ref(bad, &[0], &mut buf).is_err());
            assert!(decode_datum_ref(bad, 0).is_err());
            assert!(decode_row(bad).is_err());
        }
    }

    #[test]
    fn decode_rejects_corruption() {
        let row = vec![Datum::Text("hello".into())];
        let mut bytes = encode_row(&row);
        let mut trailing = bytes.clone();
        trailing.push(0);
        bytes.truncate(bytes.len() - 1);
        let mut buf = Vec::new();
        for bad in [&bytes[..], &[9, 9, 9], &[], &trailing] {
            assert!(decode_row(bad).is_err(), "{bad:?}");
            assert!(decode_row_ref(bad, &mut buf).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn fits_rules() {
        assert!(DatumRef::Null.fits(DataType::Int));
        assert!(DatumRef::Int(1).fits(DataType::Float));
        assert!(!DatumRef::Float(1.0).fits(DataType::Int));
        assert!(!DatumRef::Text("x").fits(DataType::Bool));
    }

    #[test]
    fn accessors() {
        assert_eq!(Datum::Int(5).as_f64(), Some(5.0));
        assert_eq!(Datum::Float(5.0).as_i64(), Some(5));
        assert_eq!(Datum::Float(5.5).as_i64(), None);
        assert_eq!(Datum::Text("x".into()).as_str(), Some("x"));
        assert_eq!(Datum::Bool(true).as_bool(), Some(true));
        assert!(Datum::Null.is_null());
    }
}
