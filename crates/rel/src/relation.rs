//! Composite table values.

use dataspread_relstore::{Datum, Table};

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

    /// Materialize a stored table.
    pub fn from_table(table: &Table) -> Self {
        Relation {
            columns: table
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
            rows: table.scan().map(|(_, row)| row).collect(),
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
        if let Some(i) = self
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
        {
            return Ok(i);
        }
        let suffix_matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.rsplit_once('.')
                    .is_some_and(|(_, tail)| tail.eq_ignore_ascii_case(name))
            })
            .map(|(i, _)| i)
            .collect();
        match suffix_matches.as_slice() {
            [i] => Ok(*i),
            [] => Err(RelError::BadColumn(name.to_string())),
            _ => Err(RelError::BadColumn(format!("{name} is ambiguous"))),
        }
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

/// Total ordering over datums for `=`, ORDER BY, grouping, joins and set
/// operations: NULL < numbers < text < bool. Numbers compare by value with
/// `-0.0` equal to `0.0`, NaN placed by [`f64::total_cmp`].
pub fn cmp_datum(a: &Datum, b: &Datum) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn kind(d: &Datum) -> u8 {
        match d {
            Datum::Null => 0,
            Datum::Int(_) | Datum::Float(_) => 1,
            Datum::Text(_) => 2,
            Datum::Bool(_) => 3,
        }
    }
    match (a, b) {
        (Datum::Null, Datum::Null) => Ordering::Equal,
        (Datum::Text(x), Datum::Text(y)) => x.cmp(y),
        (Datum::Bool(x), Datum::Bool(y)) => x.cmp(y),
        _ if kind(a) == 1 && kind(b) == 1 => {
            // `+ 0.0` folds -0.0 into 0.0 and leaves every other value as is.
            let x = a.as_f64().expect("numeric") + 0.0;
            let y = b.as_f64().expect("numeric") + 0.0;
            x.total_cmp(&y)
        }
        _ => kind(a).cmp(&kind(b)),
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
