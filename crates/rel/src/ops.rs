//! The relational operators exposed as spreadsheet functions (Appendix B).

use std::collections::BTreeSet;

use dataspread_relstore::Datum;

use crate::expr::RowExpr;
use crate::relation::{cmp_datum, Relation};
use crate::RelError;

/// Sortable key for set semantics over rows: two rows get equal keys
/// exactly when `=` holds column by column (NULL matching NULL).
pub(crate) fn row_key(row: &[Datum]) -> Vec<OrdDatum> {
    row.iter().cloned().map(OrdDatum).collect()
}

/// A datum ordered by [`cmp_datum`].
#[derive(Debug, Clone)]
pub(crate) struct OrdDatum(pub(crate) Datum);

impl PartialEq for OrdDatum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrdDatum {}
impl PartialOrd for OrdDatum {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdDatum {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        cmp_datum(&self.0, &other.0)
    }
}

fn check_union_compatible(a: &Relation, b: &Relation) -> Result<(), RelError> {
    if a.arity() != b.arity() {
        return Err(RelError::SchemaMismatch(format!(
            "arity {} vs {}",
            a.arity(),
            b.arity()
        )));
    }
    Ok(())
}

/// Set union (deduplicated), keeping the left schema.
pub fn union(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    check_union_compatible(a, b)?;
    let mut seen = BTreeSet::new();
    let mut rows = Vec::new();
    for row in a.rows.iter().chain(b.rows.iter()) {
        if seen.insert(row_key(row)) {
            rows.push(row.clone());
        }
    }
    Ok(Relation::new(a.columns.clone(), rows))
}

/// Set difference `a − b`.
pub fn difference(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    check_union_compatible(a, b)?;
    let exclude: BTreeSet<_> = b.rows.iter().map(|r| row_key(r)).collect();
    let mut seen = BTreeSet::new();
    let rows = a
        .rows
        .iter()
        .filter(|r| !exclude.contains(&row_key(r)) && seen.insert(row_key(r)))
        .cloned()
        .collect();
    Ok(Relation::new(a.columns.clone(), rows))
}

/// Set intersection.
pub fn intersection(a: &Relation, b: &Relation) -> Result<Relation, RelError> {
    check_union_compatible(a, b)?;
    let keep: BTreeSet<_> = b.rows.iter().map(|r| row_key(r)).collect();
    let mut seen = BTreeSet::new();
    let rows = a
        .rows
        .iter()
        .filter(|r| keep.contains(&row_key(r)) && seen.insert(row_key(r)))
        .cloned()
        .collect();
    Ok(Relation::new(a.columns.clone(), rows))
}

/// Disambiguate column names when concatenating two schemas: qualify with
/// the given prefixes on collision.
fn joined_columns(a: &Relation, b: &Relation, pa: &str, pb: &str) -> Vec<String> {
    let mut cols = Vec::with_capacity(a.arity() + b.arity());
    for c in &a.columns {
        if b.columns.iter().any(|d| d.eq_ignore_ascii_case(c)) && !c.contains('.') {
            cols.push(format!("{pa}.{c}"));
        } else {
            cols.push(c.clone());
        }
    }
    for c in &b.columns {
        if a.columns.iter().any(|d| d.eq_ignore_ascii_case(c)) && !c.contains('.') {
            cols.push(format!("{pb}.{c}"));
        } else {
            cols.push(c.clone());
        }
    }
    cols
}

/// Cartesian product.
pub fn crossproduct(a: &Relation, b: &Relation) -> Relation {
    let columns = joined_columns(a, b, "left", "right");
    let mut rows = Vec::with_capacity(a.len() * b.len());
    for ra in &a.rows {
        for rb in &b.rows {
            let mut row = ra.clone();
            row.extend(rb.iter().cloned());
            rows.push(row);
        }
    }
    Relation::new(columns, rows)
}

/// Theta join: cross product filtered by `on`; `None` means natural cross.
/// Joins on equality of two columns use a hash path.
pub fn join(a: &Relation, b: &Relation, on: Option<&RowExpr>) -> Result<Relation, RelError> {
    let columns = joined_columns(a, b, "left", "right");
    // Fast path: equi-join on col = col.
    if let Some(RowExpr::Cmp(crate::expr::CmpOp::Eq, l, r)) = on {
        if let (RowExpr::Column(lc), RowExpr::Column(rc)) = (l.as_ref(), r.as_ref()) {
            // Figure out which side each column belongs to.
            let try_sides = |c1: &str, c2: &str| -> Option<(usize, usize)> {
                match (a.resolve(c1), b.resolve(c2)) {
                    (Ok(i), Ok(j)) => Some((i, j)),
                    _ => None,
                }
            };
            if let Some((ia, jb)) = try_sides(lc, rc).or_else(|| try_sides(rc, lc)) {
                use std::collections::BTreeMap;
                let mut index: BTreeMap<OrdDatum, Vec<usize>> = BTreeMap::new();
                for (i, row) in b.rows.iter().enumerate() {
                    if !row[jb].is_null() {
                        index.entry(OrdDatum(row[jb].clone())).or_default().push(i);
                    }
                }
                let mut rows = Vec::new();
                for ra in &a.rows {
                    if ra[ia].is_null() {
                        continue;
                    }
                    if let Some(matches) = index.get(&OrdDatum(ra[ia].clone())) {
                        for &i in matches {
                            let mut row = ra.clone();
                            row.extend(b.rows[i].iter().cloned());
                            rows.push(row);
                        }
                    }
                }
                return Ok(Relation::new(columns, rows));
            }
        }
    }
    // General nested-loop theta join: a pair is copied out only once its
    // predicate holds.
    let out_schema = Relation::empty(columns.clone());
    let pred = on.map(|p| p.resolve_in(&out_schema)).transpose()?;
    let mut rows = Vec::new();
    let mut pair = Vec::with_capacity(columns.len());
    for ra in &a.rows {
        for rb in &b.rows {
            pair.clear();
            pair.extend(ra.iter().chain(rb).map(Datum::as_ref));
            let keep = match &pred {
                Some(pred) => pred.matches(&pair)?,
                None => true,
            };
            if keep {
                rows.push(ra.iter().chain(rb).cloned().collect());
            }
        }
    }
    Ok(Relation::new(columns, rows))
}

/// Filter (the paper's `select`/`filter` spreadsheet function).
pub fn filter(a: &Relation, pred: &RowExpr) -> Result<Relation, RelError> {
    let pred = pred.resolve_in(a)?;
    let mut rows = Vec::new();
    let mut refs = Vec::with_capacity(a.arity());
    for row in &a.rows {
        refs.clear();
        refs.extend(row.iter().map(Datum::as_ref));
        if pred.matches(&refs)? {
            rows.push(row.clone());
        }
    }
    Ok(Relation::new(a.columns.clone(), rows))
}

/// Project onto named columns (duplicates allowed, order as given).
pub fn project(a: &Relation, cols: &[&str]) -> Result<Relation, RelError> {
    let idx: Vec<usize> = cols
        .iter()
        .map(|c| a.resolve(c))
        .collect::<Result<_, _>>()?;
    let columns = idx.iter().map(|&i| a.columns[i].clone()).collect();
    let rows = a
        .rows
        .iter()
        .map(|row| idx.iter().map(|&i| row[i].clone()).collect())
        .collect();
    Ok(Relation::new(columns, rows))
}

/// Rename one column.
pub fn rename(a: &Relation, from: &str, to: &str) -> Result<Relation, RelError> {
    let i = a.resolve(from)?;
    let mut columns = a.columns.clone();
    columns[i] = to.to_string();
    Ok(Relation::new(columns, a.rows.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r1() -> Relation {
        Relation::new(
            vec!["id".into(), "v".into()],
            vec![
                vec![Datum::Int(1), Datum::Text("a".into())],
                vec![Datum::Int(2), Datum::Text("b".into())],
                vec![Datum::Int(2), Datum::Text("b".into())],
            ],
        )
    }

    fn r2() -> Relation {
        Relation::new(
            vec!["id".into(), "v".into()],
            vec![
                vec![Datum::Int(2), Datum::Text("b".into())],
                vec![Datum::Int(3), Datum::Text("c".into())],
            ],
        )
    }

    #[test]
    fn union_dedups() {
        let u = union(&r1(), &r2()).unwrap();
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn difference_and_intersection() {
        let d = difference(&r1(), &r2()).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.rows[0][0], Datum::Int(1));
        let i = intersection(&r1(), &r2()).unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(i.rows[0][0], Datum::Int(2));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let narrow = Relation::empty(vec!["x".into()]);
        assert!(union(&r1(), &narrow).is_err());
        assert!(difference(&r1(), &narrow).is_err());
        assert!(intersection(&r1(), &narrow).is_err());
    }

    #[test]
    fn crossproduct_sizes_and_qualified_names() {
        let c = crossproduct(&r1(), &r2());
        assert_eq!(c.len(), 6);
        assert_eq!(c.arity(), 4);
        assert_eq!(c.columns[0], "left.id");
        assert_eq!(c.columns[2], "right.id");
    }

    #[test]
    fn equi_join_matches_nested_loop() {
        let on = RowExpr::col("left.id").eq(RowExpr::col("right.id"));
        let j = join(&r1(), &r2(), Some(&on)).unwrap();
        // id=2 twice on the left × once on the right.
        assert_eq!(j.len(), 2);
        for row in &j.rows {
            assert_eq!(row[0], row[2]);
        }
    }

    #[test]
    fn theta_join_general_predicate() {
        let on = RowExpr::Cmp(
            crate::expr::CmpOp::Lt,
            Box::new(RowExpr::col("left.id")),
            Box::new(RowExpr::col("right.id")),
        );
        let j = join(&r1(), &r2(), Some(&on)).unwrap();
        // left ids 1,2,2 vs right ids 2,3: pairs (1,2),(1,3),(2,3),(2,3).
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn filter_project_rename() {
        let f = filter(&r1(), &RowExpr::col("id").eq(RowExpr::lit(2i64))).unwrap();
        assert_eq!(f.len(), 2);
        let p = project(&r1(), &["v"]).unwrap();
        assert_eq!(p.arity(), 1);
        assert_eq!(p.columns, vec!["v".to_string()]);
        assert!(project(&r1(), &["nope"]).is_err());
        let rn = rename(&r1(), "v", "value").unwrap();
        assert_eq!(rn.columns[1], "value");
        assert!(rename(&r1(), "nope", "x").is_err());
    }

    #[test]
    fn join_skips_nulls() {
        let mut left = r1();
        left.rows.push(vec![Datum::Null, Datum::Text("n".into())]);
        let on = RowExpr::col("left.id").eq(RowExpr::col("right.id"));
        let j = join(&left, &r2(), Some(&on)).unwrap();
        assert_eq!(j.len(), 2, "NULL keys never match");
    }
}
