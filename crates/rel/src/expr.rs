//! Row expressions: the WHERE/filter language shared by the relational
//! operators and the SQL engine.

use dataspread_relstore::{Datum, DatumRef};

use crate::relation::{cmp_ref, Relation};
use crate::RelError;

/// An expression evaluated against a single row.
#[derive(Debug, Clone, PartialEq)]
pub enum RowExpr {
    Literal(Datum),
    /// `?` prepared-statement placeholder, 0-based.
    Param(usize),
    Column(String),
    Cmp(CmpOp, Box<RowExpr>, Box<RowExpr>),
    Arith(ArithOp, Box<RowExpr>, Box<RowExpr>),
    And(Box<RowExpr>, Box<RowExpr>),
    Or(Box<RowExpr>, Box<RowExpr>),
    Not(Box<RowExpr>),
    IsNull(Box<RowExpr>, bool),
    /// Aggregate call — only valid in SELECT items (the executor evaluates
    /// these over groups, never per-row).
    Aggregate(AggFunc, Option<Box<RowExpr>>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl RowExpr {
    pub fn col(name: impl Into<String>) -> Self {
        RowExpr::Column(name.into())
    }

    pub fn lit(d: impl Into<Datum>) -> Self {
        RowExpr::Literal(d.into())
    }

    pub fn eq(self, other: RowExpr) -> Self {
        RowExpr::Cmp(CmpOp::Eq, Box::new(self), Box::new(other))
    }

    pub fn contains_aggregate(&self) -> bool {
        match self {
            RowExpr::Aggregate(..) => true,
            RowExpr::Cmp(_, a, b)
            | RowExpr::Arith(_, a, b)
            | RowExpr::And(a, b)
            | RowExpr::Or(a, b) => a.contains_aggregate() || b.contains_aggregate(),
            RowExpr::Not(e) | RowExpr::IsNull(e, _) => e.contains_aggregate(),
            _ => false,
        }
    }

    /// Substitute `?` parameters with literal values.
    pub fn bind(&self, params: &[Datum]) -> Result<RowExpr, RelError> {
        Ok(match self {
            RowExpr::Param(i) => {
                RowExpr::Literal(params.get(*i).cloned().ok_or(RelError::ParamCount {
                    expected: i + 1,
                    got: params.len(),
                })?)
            }
            RowExpr::Cmp(op, a, b) => {
                RowExpr::Cmp(*op, Box::new(a.bind(params)?), Box::new(b.bind(params)?))
            }
            RowExpr::Arith(op, a, b) => {
                RowExpr::Arith(*op, Box::new(a.bind(params)?), Box::new(b.bind(params)?))
            }
            RowExpr::And(a, b) => {
                RowExpr::And(Box::new(a.bind(params)?), Box::new(b.bind(params)?))
            }
            RowExpr::Or(a, b) => RowExpr::Or(Box::new(a.bind(params)?), Box::new(b.bind(params)?)),
            RowExpr::Not(e) => RowExpr::Not(Box::new(e.bind(params)?)),
            RowExpr::IsNull(e, n) => RowExpr::IsNull(Box::new(e.bind(params)?), *n),
            RowExpr::Aggregate(f, e) => RowExpr::Aggregate(
                *f,
                match e {
                    Some(e) => Some(Box::new(e.bind(params)?)),
                    None => None,
                },
            ),
            leaf => leaf.clone(),
        })
    }

    /// Resolve every column through `col`, once, into the form rows are
    /// evaluated in. Aggregate calls are appended to `aggs` and become
    /// references to their slot there; `?` parameters must be bound first.
    pub(crate) fn resolve(
        &self,
        col: &mut dyn FnMut(&str) -> Result<usize, RelError>,
        aggs: &mut Vec<(AggFunc, Option<Expr>)>,
    ) -> Result<Expr, RelError> {
        let mut pair = |a: &RowExpr, b: &RowExpr| -> Result<_, RelError> {
            Ok((
                Box::new(a.resolve(col, aggs)?),
                Box::new(b.resolve(col, aggs)?),
            ))
        };
        Ok(match self {
            RowExpr::Literal(d) => Expr::Lit(d.clone()),
            RowExpr::Param(i) => {
                return Err(RelError::ParamCount {
                    expected: i + 1,
                    got: 0,
                })
            }
            RowExpr::Column(name) => Expr::Col(col(name)?),
            RowExpr::Cmp(op, a, b) => {
                let (a, b) = pair(a, b)?;
                Expr::Cmp(*op, a, b)
            }
            RowExpr::Arith(op, a, b) => {
                let (a, b) = pair(a, b)?;
                Expr::Arith(*op, a, b)
            }
            RowExpr::And(a, b) => {
                let (a, b) = pair(a, b)?;
                Expr::And(a, b)
            }
            RowExpr::Or(a, b) => {
                let (a, b) = pair(a, b)?;
                Expr::Or(a, b)
            }
            RowExpr::Not(e) => Expr::Not(Box::new(e.resolve(col, aggs)?)),
            RowExpr::IsNull(e, n) => Expr::IsNull(Box::new(e.resolve(col, aggs)?), *n),
            RowExpr::Aggregate(f, arg) => {
                let arg = match arg {
                    Some(e) => Some(e.resolve(col, aggs)?),
                    None => None,
                };
                aggs.push((*f, arg));
                Expr::Agg(aggs.len() - 1)
            }
        })
    }

    /// [`RowExpr::resolve`] against the columns of `schema`, for a
    /// predicate evaluated row by row.
    pub(crate) fn resolve_in(&self, schema: &Relation) -> Result<Expr, RelError> {
        self.resolve(&mut |name| schema.resolve(name), &mut Vec::new())
    }
}

/// A [`RowExpr`] with its columns resolved to positions in the row it is
/// evaluated on, so evaluation never looks up a name.
#[derive(Debug)]
pub(crate) enum Expr {
    Lit(Datum),
    Col(usize),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>, bool),
    /// An aggregate's value, by slot. Only a group has one: evaluated
    /// against a row it is an error.
    Agg(usize),
}

impl Expr {
    /// Evaluate against one row; texts are borrowed, not copied.
    // Leaves are read inline: most operands are a column or a literal, and
    // a call per operand was most of a `col > ?` filter's cost.
    #[inline]
    pub(crate) fn eval<'a>(&'a self, row: &[DatumRef<'a>]) -> Result<DatumRef<'a>, RelError> {
        match self {
            Expr::Lit(d) => Ok(d.as_ref()),
            Expr::Col(i) => Ok(row[*i]),
            _ => self.eval_node(row),
        }
    }

    fn eval_node<'a>(&'a self, row: &[DatumRef<'a>]) -> Result<DatumRef<'a>, RelError> {
        Ok(match self {
            Expr::Lit(d) => d.as_ref(),
            Expr::Col(i) => row[*i],
            Expr::Cmp(op, a, b) => compare(*op, a.eval(row)?, b.eval(row)?),
            Expr::Arith(op, a, b) => arith(*op, a.eval(row)?, b.eval(row)?)?,
            Expr::And(a, b) => {
                let x = truthy(a.eval(row)?);
                let y = truthy(b.eval(row)?);
                DatumRef::Bool(x && y)
            }
            Expr::Or(a, b) => {
                let x = truthy(a.eval(row)?);
                let y = truthy(b.eval(row)?);
                DatumRef::Bool(x || y)
            }
            Expr::Not(e) => DatumRef::Bool(!truthy(e.eval(row)?)),
            Expr::IsNull(e, want_null) => {
                DatumRef::Bool(matches!(e.eval(row)?, DatumRef::Null) == *want_null)
            }
            Expr::Agg(_) => {
                return Err(RelError::Unsupported(
                    "aggregate outside SELECT items".into(),
                ))
            }
        })
    }

    /// Evaluate as a filter predicate (NULL ⇒ false).
    pub(crate) fn matches(&self, row: &[DatumRef<'_>]) -> Result<bool, RelError> {
        Ok(truthy(self.eval(row)?))
    }

    /// Every column position, for remapping.
    pub(crate) fn columns_mut(&mut self, f: &mut dyn FnMut(&mut usize)) {
        match self {
            Expr::Col(i) => f(i),
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
                a.columns_mut(f);
                b.columns_mut(f);
            }
            Expr::Not(e) | Expr::IsNull(e, _) => e.columns_mut(f),
            Expr::Lit(_) | Expr::Agg(_) => {}
        }
    }
}

/// SQL comparison: NULL against anything is NULL (false for filtering).
pub(crate) fn compare(op: CmpOp, x: DatumRef<'_>, y: DatumRef<'_>) -> DatumRef<'static> {
    if matches!(x, DatumRef::Null) || matches!(y, DatumRef::Null) {
        return DatumRef::Null;
    }
    let ord = cmp_ref(x, y);
    use std::cmp::Ordering;
    DatumRef::Bool(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    })
}

/// The one truth rule: WHERE, HAVING, AND, OR and NOT all hold on a
/// non-zero number, a non-empty text and `TRUE`; NULL is false.
pub(crate) fn truthy(d: DatumRef<'_>) -> bool {
    match d {
        DatumRef::Bool(b) => b,
        DatumRef::Int(i) => i != 0,
        DatumRef::Float(f) => f != 0.0,
        DatumRef::Null => false,
        DatumRef::Text(s) => !s.is_empty(),
    }
}

fn as_f64(d: DatumRef<'_>) -> Option<f64> {
    match d {
        DatumRef::Int(i) => Some(i as f64),
        DatumRef::Float(f) => Some(f),
        _ => None,
    }
}

/// Arithmetic; NULL in, NULL out. Integers stay integral unless the
/// result does not fit, or a division is inexact: then, as in SQLite, the
/// result is the float one.
pub(crate) fn arith(
    op: ArithOp,
    x: DatumRef<'_>,
    y: DatumRef<'_>,
) -> Result<DatumRef<'static>, RelError> {
    if matches!(x, DatumRef::Null) || matches!(y, DatumRef::Null) {
        return Ok(DatumRef::Null);
    }
    if let (DatumRef::Int(a), DatumRef::Int(b)) = (x, y) {
        if op == ArithOp::Div && b == 0 {
            return Err(RelError::Type("division by zero".into()));
        }
        let exact = match op {
            ArithOp::Add => a.checked_add(b),
            ArithOp::Sub => a.checked_sub(b),
            ArithOp::Mul => a.checked_mul(b),
            // `checked_rem` fails only where the quotient overflows.
            ArithOp::Div => match a.checked_rem(b) {
                Some(0) => Some(a / b),
                _ => None,
            },
        };
        if let Some(n) = exact {
            return Ok(DatumRef::Int(n));
        }
    }
    let (Some(a), Some(b)) = (as_f64(x), as_f64(y)) else {
        return Err(RelError::Type(format!("non-numeric operands {x:?}, {y:?}")));
    };
    let n = match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => {
            if b == 0.0 {
                return Err(RelError::Type("division by zero".into()));
            }
            a / b
        }
    };
    Ok(DatumRef::Float(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Relation {
        Relation::empty(vec!["a".into(), "b".into()])
    }

    fn refs(row: &[Datum]) -> Vec<DatumRef<'_>> {
        row.iter().map(Datum::as_ref).collect()
    }

    fn eval(e: &RowExpr, s: &Relation, row: &[Datum]) -> Result<Datum, RelError> {
        Ok(e.resolve_in(s)?.eval(&refs(row))?.to_datum())
    }

    #[test]
    fn column_and_literal() {
        let s = schema();
        let row = vec![Datum::Int(5), Datum::Text("x".into())];
        assert_eq!(eval(&RowExpr::col("a"), &s, &row).unwrap(), Datum::Int(5));
        assert_eq!(eval(&RowExpr::lit(7i64), &s, &row).unwrap(), Datum::Int(7));
        assert!(eval(&RowExpr::col("zz"), &s, &row).is_err());
    }

    #[test]
    fn comparisons_and_null_semantics() {
        let s = schema();
        let row = vec![Datum::Int(5), Datum::Null];
        let e = RowExpr::col("a").eq(RowExpr::lit(5i64));
        assert_eq!(eval(&e, &s, &row).unwrap(), Datum::Bool(true));
        let n = RowExpr::col("b").eq(RowExpr::lit(5i64));
        assert_eq!(eval(&n, &s, &row).unwrap(), Datum::Null);
        assert!(
            !n.resolve_in(&s).unwrap().matches(&refs(&row)).unwrap(),
            "NULL comparison filters out"
        );
        let isn = RowExpr::IsNull(Box::new(RowExpr::col("b")), true);
        assert_eq!(eval(&isn, &s, &row).unwrap(), Datum::Bool(true));
    }

    #[test]
    fn arithmetic_int_float() {
        let s = schema();
        let row = vec![Datum::Int(7), Datum::Float(2.0)];
        let e = RowExpr::Arith(
            ArithOp::Add,
            Box::new(RowExpr::col("a")),
            Box::new(RowExpr::lit(3i64)),
        );
        assert_eq!(eval(&e, &s, &row).unwrap(), Datum::Int(10));
        let d = RowExpr::Arith(
            ArithOp::Div,
            Box::new(RowExpr::col("a")),
            Box::new(RowExpr::col("b")),
        );
        assert_eq!(eval(&d, &s, &row).unwrap(), Datum::Float(3.5));
        let z = RowExpr::Arith(
            ArithOp::Div,
            Box::new(RowExpr::col("a")),
            Box::new(RowExpr::lit(0i64)),
        );
        assert!(eval(&z, &s, &row).is_err());
    }

    #[test]
    fn bind_parameters() {
        let e = RowExpr::col("a").eq(RowExpr::Param(0));
        let bound = e.bind(&[Datum::Int(9)]).unwrap();
        assert_eq!(bound, RowExpr::col("a").eq(RowExpr::lit(9i64)));
        assert!(matches!(
            e.bind(&[]),
            Err(RelError::ParamCount {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn aggregate_detection() {
        let e = RowExpr::Aggregate(AggFunc::Sum, Some(Box::new(RowExpr::col("a"))));
        assert!(e.contains_aggregate());
        assert!(!RowExpr::col("a").contains_aggregate());
        let nested = RowExpr::Arith(ArithOp::Add, Box::new(e), Box::new(RowExpr::lit(1i64)));
        assert!(nested.contains_aggregate());
    }
}
