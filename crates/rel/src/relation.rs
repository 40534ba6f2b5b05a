//! Composite table values.

use std::cmp::Ordering;

use dataspread_relstore::{Datum, DatumRef};

use crate::RelError;

/// A materialized relation: named columns and rows of datums. This is the
/// "single composite table value" returned by the relational spreadsheet
/// functions (paper §III).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Relation {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Datum>>,
}

impl Relation {
    pub fn new(columns: Vec<String>, rows: Vec<Vec<Datum>>) -> Self {
        debug_assert!(rows.iter().all(|r| r.len() == columns.len()));
        Relation { columns, rows }
    }

    pub fn empty(columns: Vec<String>) -> Self {
        Relation {
            columns,
            rows: Vec::new(),
        }
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Resolve a (possibly qualified) column name to an index.
    ///
    /// Accepts an exact match of the stored name, or — when the stored
    /// names are qualified like `t.col` — a unique unqualified suffix.
    pub fn resolve(&self, name: &str) -> Result<usize, RelError> {
        resolve_column(&self.columns, name)
    }

    /// The `index(table, i, j)` accessor (1-based, like the paper's
    /// spreadsheet function): row `i`, column `j`.
    pub fn index(&self, i: usize, j: usize) -> Option<&Datum> {
        if i == 0 || j == 0 {
            return None;
        }
        self.rows.get(i - 1)?.get(j - 1)
    }

    /// Render as an aligned text table (examples and the qualitative
    /// evaluation use this).
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|d| d.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.columns.to_vec(), &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        out.push('\n');
        for row in &rendered {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// [`Relation::resolve`] over a bare list of column names.
pub(crate) fn resolve_column(columns: &[String], name: &str) -> Result<usize, RelError> {
    if let Some(i) = columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
        return Ok(i);
    }
    let mut suffix_matches = columns.iter().enumerate().filter(|(_, c)| {
        c.rsplit_once('.')
            .is_some_and(|(_, tail)| tail.eq_ignore_ascii_case(name))
    });
    match (suffix_matches.next(), suffix_matches.next()) {
        (Some((i, _)), None) => Ok(i),
        (None, _) => Err(RelError::BadColumn(name.to_string())),
        (Some(_), Some(_)) => Err(RelError::BadColumn(format!("{name} is ambiguous"))),
    }
}

/// Total ordering over datums for `=`, ORDER BY, grouping, joins and set
/// operations: NULL < numbers < text < bool. Numbers compare by exact
/// value, integers against floats too, with `-0.0` equal to `0.0` and NaN
/// placed by [`f64::total_cmp`].
pub fn cmp_datum(a: &Datum, b: &Datum) -> Ordering {
    cmp_ref(a.as_ref(), b.as_ref())
}

/// [`cmp_datum`] over borrowed datums.
pub(crate) fn cmp_ref(a: DatumRef<'_>, b: DatumRef<'_>) -> Ordering {
    fn kind(d: DatumRef<'_>) -> u8 {
        match d {
            DatumRef::Null => 0,
            DatumRef::Int(_) | DatumRef::Float(_) => 1,
            DatumRef::Text(_) => 2,
            DatumRef::Bool(_) => 3,
        }
    }
    match (a, b) {
        (DatumRef::Null, DatumRef::Null) => Ordering::Equal,
        (DatumRef::Text(x), DatumRef::Text(y)) => x.cmp(y),
        (DatumRef::Bool(x), DatumRef::Bool(y)) => x.cmp(&y),
        (DatumRef::Int(x), DatumRef::Int(y)) => x.cmp(&y),
        (DatumRef::Int(x), DatumRef::Float(y)) => cmp_int_float(x, y),
        (DatumRef::Float(x), DatumRef::Int(y)) => cmp_int_float(y, x).reverse(),
        // `+ 0.0` folds -0.0 into 0.0 and leaves every other value as is.
        (DatumRef::Float(x), DatumRef::Float(y)) => (x + 0.0).total_cmp(&(y + 0.0)),
        _ => kind(a).cmp(&kind(b)),
    }
}

/// `i` against `f` by exact value. Through `f64` alone, integers past
/// 2^53 round, so distinct ones would compare equal.
fn cmp_int_float(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        // Where `total_cmp` puts NaN: a negative one below every number.
        return if f.is_sign_negative() {
            Ordering::Greater
        } else {
            Ordering::Less
        };
    }
    // Rounding is monotone, so a strict order of `i as f64` against `f`
    // is the order of `i` against `f`. On a tie `f` is integral and
    // within [-2^63, 2^63]; only 2^63 itself is out of `i64`'s range.
    match (i as f64).partial_cmp(&f).expect("neither is NaN") {
        Ordering::Equal if f >= 9_223_372_036_854_775_808.0 => Ordering::Less,
        Ordering::Equal => i.cmp(&(f as i64)),
        ord => ord,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        Relation::new(
            vec!["id".into(), "name".into()],
            vec![
                vec![Datum::Int(1), Datum::Text("a".into())],
                vec![Datum::Int(2), Datum::Text("b".into())],
            ],
        )
    }

    #[test]
    fn resolve_plain_and_qualified() {
        let r = rel();
        assert_eq!(r.resolve("id").unwrap(), 0);
        assert_eq!(r.resolve("NAME").unwrap(), 1);
        assert!(r.resolve("missing").is_err());
        let q = Relation::empty(vec!["t1.id".into(), "t2.id".into(), "t2.x".into()]);
        assert_eq!(q.resolve("t1.id").unwrap(), 0);
        assert_eq!(q.resolve("x").unwrap(), 2);
        assert!(matches!(q.resolve("id"), Err(RelError::BadColumn(_))));
    }

    #[test]
    fn one_based_index_accessor() {
        let r = rel();
        assert_eq!(r.index(1, 1), Some(&Datum::Int(1)));
        assert_eq!(r.index(2, 2), Some(&Datum::Text("b".into())));
        assert_eq!(r.index(0, 1), None);
        assert_eq!(r.index(3, 1), None);
    }

    #[test]
    fn datum_ordering() {
        use std::cmp::Ordering::*;
        assert_eq!(cmp_datum(&Datum::Null, &Datum::Int(0)), Less);
        assert_eq!(cmp_datum(&Datum::Int(2), &Datum::Float(2.0)), Equal);
        assert_eq!(cmp_datum(&Datum::Int(3), &Datum::Float(2.5)), Greater);
        assert_eq!(
            cmp_datum(&Datum::Text("a".into()), &Datum::Text("b".into())),
            Less
        );
        assert_eq!(cmp_datum(&Datum::Int(999), &Datum::Text("".into())), Less);
        assert_eq!(cmp_datum(&Datum::Float(-0.0), &Datum::Int(0)), Equal);
        let nan = Datum::Float(f64::NAN);
        assert_eq!(cmp_datum(&nan, &nan), Equal);
        assert_eq!(cmp_datum(&Datum::Float(f64::INFINITY), &nan), Less);
    }

    #[test]
    fn text_rendering_aligns() {
        let txt = rel().to_text();
        let lines: Vec<&str> = txt.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("id"));
        assert!(lines[2].contains('1'));
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
