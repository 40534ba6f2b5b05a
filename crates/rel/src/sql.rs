//! A mini-SQL `SELECT` engine (paper §VI, Appendix B: the `sql(query,
//! param…)` spreadsheet function).
//!
//! Supported subset: `SELECT [DISTINCT] items FROM t [alias] (JOIN t2 ON
//! expr)* [WHERE expr] [GROUP BY exprs] [HAVING expr] [ORDER BY keys
//! [ASC|DESC]] [LIMIT n]` with aggregates COUNT/SUM/AVG/MIN/MAX and `?`
//! prepared-statement parameters. Equi-joins take a hash path; everything
//! else is a scan — honest for a storage-engine testbed.

use std::collections::BTreeMap;

use dataspread_relstore::{Database, Datum};

use crate::expr::{AggFunc, ArithOp, CmpOp, RowExpr};
use crate::ops::{self, row_key, OrdDatum};
use crate::relation::{cmp_datum, Relation};
use crate::RelError;

/// Source of named relations for `FROM` clauses.
pub trait TableProvider {
    fn relation(&self, name: &str) -> Option<Relation>;
}

impl TableProvider for Database {
    fn relation(&self, name: &str) -> Option<Relation> {
        self.table(name).ok().map(Relation::from_table)
    }
}

impl TableProvider for std::collections::HashMap<String, Relation> {
    fn relation(&self, name: &str) -> Option<Relation> {
        self.get(name).cloned()
    }
}

/// Execute a SELECT statement with `?` parameters.
pub fn execute_sql(
    provider: &dyn TableProvider,
    query: &str,
    params: &[Datum],
) -> Result<Relation, RelError> {
    let stmt = Parser::new(query)?.select_stmt()?;
    stmt.execute(provider, params)
}

// ---------------------------------------------------------------- tokens --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Str(String),
    Symbol(&'static str),
    Param,
}

fn keyword(t: &Tok, kw: &str) -> bool {
    matches!(t, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
}

fn lex(src: &str) -> Result<Vec<Tok>, RelError> {
    let b = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b' ' | b'\t' | b'\n' | b'\r' => i += 1,
            b'?' => {
                out.push(Tok::Param);
                i += 1;
            }
            b'(' | b')' | b',' | b'*' | b'+' | b'-' | b'/' | b'.' => {
                let s = match b[i] {
                    b'(' => "(",
                    b')' => ")",
                    b',' => ",",
                    b'*' => "*",
                    b'+' => "+",
                    b'-' => "-",
                    b'/' => "/",
                    _ => ".",
                };
                out.push(Tok::Symbol(s));
                i += 1;
            }
            b'=' => {
                out.push(Tok::Symbol("="));
                i += 1;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'>') {
                    out.push(Tok::Symbol("<>"));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Symbol("<="));
                    i += 2;
                } else {
                    out.push(Tok::Symbol("<"));
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Tok::Symbol(">="));
                    i += 2;
                } else {
                    out.push(Tok::Symbol(">"));
                    i += 1;
                }
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push(Tok::Symbol("<>"));
                i += 2;
            }
            b'\'' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match b.get(i) {
                        Some(b'\'') if b.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(_) => {
                            let len = src[i..].chars().next().expect("in bounds").len_utf8();
                            s.push_str(&src[i..i + len]);
                            i += len;
                        }
                        None => return Err(RelError::Syntax("unterminated string".into())),
                    }
                }
                out.push(Tok::Str(s));
            }
            b'0'..=b'9' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'.') {
                    j += 1;
                }
                let n: f64 = src[i..j]
                    .parse()
                    .map_err(|_| RelError::Syntax(format!("bad number {:?}", &src[i..j])))?;
                out.push(Tok::Number(n));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                out.push(Tok::Ident(src[i..j].to_string()));
                i = j;
            }
            c => {
                return Err(RelError::Syntax(format!(
                    "unexpected character {:?}",
                    c as char
                )))
            }
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------- parser --

#[derive(Debug, Clone)]
struct SelectItem {
    expr: RowExpr,
    alias: Option<String>,
    star: bool,
}

#[derive(Debug, Clone)]
struct JoinClause {
    table: String,
    alias: Option<String>,
    on: Option<RowExpr>,
}

#[derive(Debug, Clone)]
struct OrderKey {
    expr: OrderTarget,
    desc: bool,
}

#[derive(Debug, Clone)]
enum OrderTarget {
    /// Output column name.
    Name(String),
    /// 1-based output position.
    Position(usize),
}

#[derive(Debug, Clone)]
struct SelectStmt {
    distinct: bool,
    items: Vec<SelectItem>,
    from: (String, Option<String>),
    joins: Vec<JoinClause>,
    filter: Option<RowExpr>,
    group_by: Vec<RowExpr>,
    having: Option<RowExpr>,
    order_by: Vec<OrderKey>,
    limit: Option<usize>,
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn new(src: &str) -> Result<Self, RelError> {
        Ok(Parser {
            toks: lex(src)?,
            pos: 0,
        })
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        self.pos += 1;
        t
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if self.peek()
            == Some(&Tok::Symbol(match s {
                "(" => "(",
                ")" => ")",
                "," => ",",
                "*" => "*",
                "." => ".",
                _ => return self.eat_symbol_slow(s),
            }))
        {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_symbol_slow(&mut self, s: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Symbol(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| keyword(t, kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), RelError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(RelError::Syntax(format!("expected {kw}")))
        }
    }

    fn ident(&mut self) -> Result<String, RelError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(RelError::Syntax(format!(
                "expected identifier, got {other:?}"
            ))),
        }
    }

    /// Table name with optional alias (bare identifier or `AS ident`).
    fn table_ref(&mut self) -> Result<(String, Option<String>), RelError> {
        let name = self.ident()?;
        if self.eat_keyword("AS") {
            return Ok((name, Some(self.ident()?)));
        }
        // Bare alias: an identifier that isn't a clause keyword.
        if let Some(Tok::Ident(s)) = self.peek() {
            let is_kw = [
                "JOIN", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "ON", "INNER",
            ]
            .iter()
            .any(|k| s.eq_ignore_ascii_case(k));
            if !is_kw {
                let alias = s.clone();
                self.pos += 1;
                return Ok((name, Some(alias)));
            }
        }
        Ok((name, None))
    }

    fn select_stmt(&mut self) -> Result<SelectStmt, RelError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut items = Vec::new();
        loop {
            if self.eat_symbol("*") {
                items.push(SelectItem {
                    expr: RowExpr::Literal(Datum::Null),
                    alias: None,
                    star: true,
                });
            } else {
                let expr = self.expr()?;
                let alias = if self.eat_keyword("AS") {
                    Some(self.ident()?)
                } else {
                    None
                };
                items.push(SelectItem {
                    expr,
                    alias,
                    star: false,
                });
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        loop {
            let _ = self.eat_keyword("INNER");
            if !self.eat_keyword("JOIN") {
                break;
            }
            let (table, alias) = self.table_ref()?;
            let on = if self.eat_keyword("ON") {
                Some(self.expr()?)
            } else {
                None
            };
            joins.push(JoinClause { table, alias, on });
        }
        let filter = if self.eat_keyword("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.expr()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let having = if self.eat_keyword("HAVING") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let target = match self.peek() {
                    Some(Tok::Number(n)) => {
                        let n = *n;
                        self.pos += 1;
                        OrderTarget::Position(n as usize)
                    }
                    _ => {
                        // Column, possibly qualified.
                        let mut name = self.ident()?;
                        if self.eat_symbol(".") {
                            name = format!("{name}.{}", self.ident()?);
                        }
                        OrderTarget::Name(name)
                    }
                };
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    let _ = self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderKey { expr: target, desc });
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                Some(Tok::Number(n)) if n >= 0.0 => Some(n as usize),
                _ => return Err(RelError::Syntax("expected LIMIT count".into())),
            }
        } else {
            None
        };
        if self.pos != self.toks.len() {
            return Err(RelError::Syntax("trailing tokens after statement".into()));
        }
        Ok(SelectStmt {
            distinct,
            items,
            from,
            joins,
            filter,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    // Expression precedence: OR < AND < NOT < cmp < add < mul < unary.
    fn expr(&mut self) -> Result<RowExpr, RelError> {
        let mut lhs = self.and_expr()?;
        while self.eat_keyword("OR") {
            let rhs = self.and_expr()?;
            lhs = RowExpr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<RowExpr, RelError> {
        let mut lhs = self.not_expr()?;
        while self.eat_keyword("AND") {
            let rhs = self.not_expr()?;
            lhs = RowExpr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<RowExpr, RelError> {
        if self.eat_keyword("NOT") {
            Ok(RowExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<RowExpr, RelError> {
        let lhs = self.add_expr()?;
        // IS [NOT] NULL postfix.
        if self.eat_keyword("IS") {
            let not = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(RowExpr::IsNull(Box::new(lhs), !not));
        }
        let op = match self.peek() {
            Some(Tok::Symbol("=")) => CmpOp::Eq,
            Some(Tok::Symbol("<>")) => CmpOp::Ne,
            Some(Tok::Symbol("<")) => CmpOp::Lt,
            Some(Tok::Symbol("<=")) => CmpOp::Le,
            Some(Tok::Symbol(">")) => CmpOp::Gt,
            Some(Tok::Symbol(">=")) => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        Ok(RowExpr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn add_expr(&mut self) -> Result<RowExpr, RelError> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Symbol("+")) => ArithOp::Add,
                Some(Tok::Symbol("-")) => ArithOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = RowExpr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<RowExpr, RelError> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Symbol("*")) => ArithOp::Mul,
                Some(Tok::Symbol("/")) => ArithOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = RowExpr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<RowExpr, RelError> {
        if self.eat_symbol_slow("-") {
            let e = self.unary_expr()?;
            return Ok(RowExpr::Arith(
                ArithOp::Sub,
                Box::new(RowExpr::Literal(Datum::Int(0))),
                Box::new(e),
            ));
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<RowExpr, RelError> {
        match self.bump() {
            Some(Tok::Number(n)) => Ok(RowExpr::Literal(if n.fract() == 0.0 {
                Datum::Int(n as i64)
            } else {
                Datum::Float(n)
            })),
            Some(Tok::Str(s)) => Ok(RowExpr::Literal(Datum::Text(s))),
            Some(Tok::Param) => {
                // Number params positionally in appearance order.
                let idx = self
                    .toks
                    .iter()
                    .take(self.pos - 1)
                    .filter(|t| **t == Tok::Param)
                    .count();
                Ok(RowExpr::Param(idx))
            }
            Some(Tok::Symbol("(")) => {
                let e = self.expr()?;
                if !self.eat_symbol(")") {
                    return Err(RelError::Syntax("expected )".into()));
                }
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                let upper = name.to_ascii_uppercase();
                match upper.as_str() {
                    "NULL" => return Ok(RowExpr::Literal(Datum::Null)),
                    "TRUE" => return Ok(RowExpr::Literal(Datum::Bool(true))),
                    "FALSE" => return Ok(RowExpr::Literal(Datum::Bool(false))),
                    _ => {}
                }
                // Aggregate call?
                let agg = match upper.as_str() {
                    "COUNT" => Some(AggFunc::Count),
                    "SUM" => Some(AggFunc::Sum),
                    "AVG" => Some(AggFunc::Avg),
                    "MIN" => Some(AggFunc::Min),
                    "MAX" => Some(AggFunc::Max),
                    _ => None,
                };
                if let Some(f) = agg {
                    if self.eat_symbol("(") {
                        let arg = if self.eat_symbol("*") {
                            None
                        } else {
                            Some(Box::new(self.expr()?))
                        };
                        if !self.eat_symbol(")") {
                            return Err(RelError::Syntax("expected ) after aggregate".into()));
                        }
                        return Ok(RowExpr::Aggregate(f, arg));
                    }
                }
                // Qualified column `t.col`.
                if self.eat_symbol(".") {
                    let col = self.ident()?;
                    return Ok(RowExpr::Column(format!("{name}.{col}")));
                }
                Ok(RowExpr::Column(name))
            }
            other => Err(RelError::Syntax(format!("unexpected token {other:?}"))),
        }
    }
}

// --------------------------------------------------------------- executor --

/// Qualify a relation's columns with an alias (`alias.col`).
fn qualify(mut rel: Relation, alias: &str) -> Relation {
    for c in &mut rel.columns {
        if !c.contains('.') {
            *c = format!("{alias}.{c}");
        }
    }
    rel
}

/// Evaluate a select item over a group of rows (aggregate context).
fn eval_grouped(
    expr: &RowExpr,
    schema: &Relation,
    group: &[&Vec<Datum>],
) -> Result<Datum, RelError> {
    match expr {
        RowExpr::Aggregate(f, arg) => {
            let values: Vec<Datum> = match arg {
                None => return Ok(Datum::Int(group.len() as i64)), // COUNT(*)
                Some(e) => group
                    .iter()
                    .map(|row| e.eval(schema, row))
                    .collect::<Result<_, _>>()?,
            };
            let non_null: Vec<&Datum> = values.iter().filter(|d| !d.is_null()).collect();
            Ok(match f {
                AggFunc::Count => Datum::Int(non_null.len() as i64),
                AggFunc::Sum => {
                    if non_null.is_empty() {
                        Datum::Null
                    } else if non_null.iter().all(|d| matches!(d, Datum::Int(_))) {
                        Datum::Int(non_null.iter().filter_map(|d| d.as_i64()).sum())
                    } else {
                        Datum::Float(non_null.iter().filter_map(|d| d.as_f64()).sum())
                    }
                }
                AggFunc::Avg => {
                    if non_null.is_empty() {
                        Datum::Null
                    } else {
                        let sum: f64 = non_null.iter().filter_map(|d| d.as_f64()).sum();
                        Datum::Float(sum / non_null.len() as f64)
                    }
                }
                AggFunc::Min => non_null
                    .iter()
                    .min_by(|a, b| cmp_datum(a, b))
                    .map(|d| (*d).clone())
                    .unwrap_or(Datum::Null),
                AggFunc::Max => non_null
                    .iter()
                    .max_by(|a, b| cmp_datum(a, b))
                    .map(|d| (*d).clone())
                    .unwrap_or(Datum::Null),
            })
        }
        RowExpr::Cmp(op, a, b) => {
            let bound = RowExpr::Cmp(
                *op,
                Box::new(RowExpr::Literal(eval_grouped(a, schema, group)?)),
                Box::new(RowExpr::Literal(eval_grouped(b, schema, group)?)),
            );
            bound.eval(schema, group.first().map(|r| r.as_slice()).unwrap_or(&[]))
        }
        RowExpr::Arith(op, a, b) => {
            let bound = RowExpr::Arith(
                *op,
                Box::new(RowExpr::Literal(eval_grouped(a, schema, group)?)),
                Box::new(RowExpr::Literal(eval_grouped(b, schema, group)?)),
            );
            bound.eval(schema, group.first().map(|r| r.as_slice()).unwrap_or(&[]))
        }
        RowExpr::And(a, b) | RowExpr::Or(a, b) => {
            let is_and = matches!(expr, RowExpr::And(..));
            let x = eval_grouped(a, schema, group)?;
            let y = eval_grouped(b, schema, group)?;
            let xb = matches!(x, Datum::Bool(true));
            let yb = matches!(y, Datum::Bool(true));
            Ok(Datum::Bool(if is_and { xb && yb } else { xb || yb }))
        }
        // Plain columns in an aggregate context take the group's first row
        // (the relaxed SQLite-style semantics).
        other => match group.first() {
            Some(row) => other.eval(schema, row),
            None => Ok(Datum::Null),
        },
    }
}

/// Output name for an unaliased select item.
fn derived_name(expr: &RowExpr, idx: usize) -> String {
    match expr {
        RowExpr::Column(c) => c
            .rsplit_once('.')
            .map(|(_, tail)| tail.to_string())
            .unwrap_or_else(|| c.clone()),
        RowExpr::Aggregate(f, arg) => {
            let fname = match f {
                AggFunc::Count => "count",
                AggFunc::Sum => "sum",
                AggFunc::Avg => "avg",
                AggFunc::Min => "min",
                AggFunc::Max => "max",
            };
            match arg {
                Some(a) => format!("{fname}({})", derived_name(a, idx)),
                None => format!("{fname}(*)"),
            }
        }
        _ => format!("col{}", idx + 1),
    }
}

impl SelectStmt {
    fn execute(
        &self,
        provider: &dyn TableProvider,
        params: &[Datum],
    ) -> Result<Relation, RelError> {
        // Check parameter count across the whole statement.
        // (Binding errors below also catch missing params.)
        // FROM + JOINs.
        let (name, alias) = &self.from;
        let base = provider
            .relation(name)
            .ok_or_else(|| RelError::NoSuchTable(name.clone()))?;
        let mut current = qualify(base, alias.as_deref().unwrap_or(name));
        for j in &self.joins {
            let right = provider
                .relation(&j.table)
                .ok_or_else(|| RelError::NoSuchTable(j.table.clone()))?;
            let right = qualify(right, j.alias.as_deref().unwrap_or(&j.table));
            let on = match &j.on {
                Some(e) => Some(e.bind(params)?),
                None => None,
            };
            // Both sides are alias-qualified, so no column is renamed.
            current = ops::join(&current, &right, on.as_ref())?;
        }
        // WHERE.
        if let Some(pred) = &self.filter {
            let pred = pred.bind(params)?;
            let mut rows = Vec::new();
            for row in &current.rows {
                if pred.matches(&current, row)? {
                    rows.push(row.clone());
                }
            }
            current.rows = rows;
        }
        // Expand stars and bind item params.
        let mut items: Vec<(RowExpr, String)> = Vec::new();
        for (i, item) in self.items.iter().enumerate() {
            if item.star {
                for c in &current.columns {
                    items.push((
                        RowExpr::Column(c.clone()),
                        derived_name(&RowExpr::Column(c.clone()), 0),
                    ));
                }
            } else {
                let e = item.expr.bind(params)?;
                let name = item.alias.clone().unwrap_or_else(|| derived_name(&e, i));
                items.push((e, name));
            }
        }
        let needs_group =
            !self.group_by.is_empty() || items.iter().any(|(e, _)| e.contains_aggregate());
        // Kept for ORDER BY keys that reference non-projected columns
        // (valid SQL for non-grouped, non-DISTINCT queries).
        let pre_projection = if needs_group || self.distinct {
            None
        } else {
            Some(current.clone())
        };
        let mut out = if needs_group {
            // Group rows.
            let keys: Vec<RowExpr> = self
                .group_by
                .iter()
                .map(|e| e.bind(params))
                .collect::<Result<_, _>>()?;
            // Rows whose keys are `=` share a group; groups come out in
            // key order.
            let mut groups: BTreeMap<Vec<OrdDatum>, Vec<&Vec<Datum>>> = BTreeMap::new();
            for row in &current.rows {
                let key = keys
                    .iter()
                    .map(|k| k.eval(&current, row).map(OrdDatum))
                    .collect::<Result<_, _>>()?;
                groups.entry(key).or_default().push(row);
            }
            // A global aggregate over an empty table still yields one row.
            if groups.is_empty() && keys.is_empty() {
                groups.insert(Vec::new(), Vec::new());
            }
            let having = match &self.having {
                Some(h) => Some(h.bind(params)?),
                None => None,
            };
            let mut rows = Vec::new();
            for group in groups.values() {
                if let Some(h) = &having {
                    if !matches!(eval_grouped(h, &current, group)?, Datum::Bool(true)) {
                        continue;
                    }
                }
                let mut row = Vec::with_capacity(items.len());
                for (e, _) in &items {
                    row.push(eval_grouped(e, &current, group)?);
                }
                rows.push(row);
            }
            Relation::new(items.iter().map(|(_, n)| n.clone()).collect(), rows)
        } else {
            let mut rows = Vec::with_capacity(current.rows.len());
            for row in &current.rows {
                let mut out_row = Vec::with_capacity(items.len());
                for (e, _) in &items {
                    out_row.push(e.eval(&current, row)?);
                }
                rows.push(out_row);
            }
            Relation::new(items.iter().map(|(_, n)| n.clone()).collect(), rows)
        };
        // DISTINCT.
        if self.distinct {
            let mut seen = std::collections::BTreeSet::new();
            out.rows.retain(|row| seen.insert(row_key(row)));
        }
        // ORDER BY: keys resolve against the output columns first, then —
        // for plain row-wise queries — against the pre-projection schema
        // (e.g. `SELECT name FROM t ORDER BY age`).
        if !self.order_by.is_empty() {
            let n_rows = out.rows.len();
            // sort_keys[row] = the datums to order this row by.
            let mut sort_keys: Vec<Vec<Datum>> = vec![Vec::new(); n_rows];
            let mut descs = Vec::new();
            for k in &self.order_by {
                descs.push(k.desc);
                match &k.expr {
                    OrderTarget::Position(p) => {
                        if *p == 0 || *p > out.arity() {
                            return Err(RelError::BadColumn(format!("ORDER BY position {p}")));
                        }
                        for (keys, row) in sort_keys.iter_mut().zip(&out.rows) {
                            keys.push(row[p - 1].clone());
                        }
                    }
                    OrderTarget::Name(n) => match out.resolve(n) {
                        Ok(i) => {
                            for (keys, row) in sort_keys.iter_mut().zip(&out.rows) {
                                keys.push(row[i].clone());
                            }
                        }
                        Err(e) => {
                            let Some(pre) = &pre_projection else {
                                return Err(e);
                            };
                            let i = pre.resolve(n)?;
                            for (keys, row) in sort_keys.iter_mut().zip(&pre.rows) {
                                keys.push(row[i].clone());
                            }
                        }
                    },
                }
            }
            let mut perm: Vec<usize> = (0..n_rows).collect();
            perm.sort_by(|&x, &y| {
                for (j, desc) in descs.iter().enumerate() {
                    let ord = cmp_datum(&sort_keys[x][j], &sort_keys[y][j]);
                    if ord != std::cmp::Ordering::Equal {
                        return if *desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
            out.rows = perm.into_iter().map(|i| out.rows[i].clone()).collect();
        }
        // LIMIT.
        if let Some(n) = self.limit {
            out.rows.truncate(n);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn db() -> HashMap<String, Relation> {
        let mut m = HashMap::new();
        m.insert(
            "invoice".to_string(),
            Relation::new(
                vec!["id".into(), "supp_id".into(), "amount".into()],
                vec![
                    vec![Datum::Int(1), Datum::Int(10), Datum::Float(100.0)],
                    vec![Datum::Int(2), Datum::Int(10), Datum::Float(250.0)],
                    vec![Datum::Int(3), Datum::Int(20), Datum::Float(75.0)],
                    vec![Datum::Int(4), Datum::Int(30), Datum::Null],
                ],
            ),
        );
        m.insert(
            "supp".to_string(),
            Relation::new(
                vec!["id".into(), "name".into()],
                vec![
                    vec![Datum::Int(10), Datum::Text("acme".into())],
                    vec![Datum::Int(20), Datum::Text("globex".into())],
                ],
            ),
        );
        m
    }

    fn run(q: &str) -> Relation {
        execute_sql(&db(), q, &[]).unwrap()
    }

    #[test]
    fn select_star_where() {
        let r = run("SELECT * FROM invoice WHERE amount > 80");
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 3);
        assert_eq!(r.columns[0], "id");
    }

    #[test]
    fn projection_and_alias() {
        let r = run("SELECT id AS invoice_id, amount * 2 AS dbl FROM invoice WHERE id = 1");
        assert_eq!(r.columns, vec!["invoice_id".to_string(), "dbl".to_string()]);
        assert_eq!(r.rows[0], vec![Datum::Int(1), Datum::Float(200.0)]);
    }

    #[test]
    fn join_with_qualified_columns() {
        let r = run(
            "SELECT supp.name, invoice.amount FROM invoice JOIN supp ON invoice.supp_id = supp.id ORDER BY 2 DESC",
        );
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0][1], Datum::Float(250.0));
        assert_eq!(r.rows[0][0], Datum::Text("acme".into()));
    }

    #[test]
    fn group_by_aggregates() {
        let r = run(
            "SELECT supp_id, COUNT(*) AS n, SUM(amount) AS total FROM invoice GROUP BY supp_id ORDER BY supp_id",
        );
        assert_eq!(r.len(), 3);
        assert_eq!(
            r.rows[0],
            vec![Datum::Int(10), Datum::Int(2), Datum::Float(350.0)]
        );
        // NULL amounts are skipped by SUM → group 30 sums to NULL.
        assert_eq!(r.rows[2][2], Datum::Null);
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let r = run("SELECT COUNT(*), AVG(amount) FROM invoice");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Datum::Int(4));
        let Datum::Float(avg) = r.rows[0][1] else {
            panic!("avg should be float")
        };
        assert!(
            (avg - (100.0 + 250.0 + 75.0) / 3.0).abs() < 1e-9,
            "NULL skipped"
        );
    }

    #[test]
    fn having_filters_groups() {
        let r = run("SELECT supp_id FROM invoice GROUP BY supp_id HAVING COUNT(*) > 1");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Datum::Int(10));
    }

    #[test]
    fn prepared_statement_params() {
        let r = execute_sql(
            &db(),
            "SELECT id FROM invoice WHERE amount > ? AND supp_id = ?",
            &[Datum::Float(50.0), Datum::Int(10)],
        )
        .unwrap();
        assert_eq!(r.len(), 2);
        let err = execute_sql(&db(), "SELECT id FROM invoice WHERE amount > ?", &[]);
        assert!(matches!(err, Err(RelError::ParamCount { .. })));
    }

    #[test]
    fn distinct_and_limit() {
        let r = run("SELECT DISTINCT supp_id FROM invoice ORDER BY supp_id LIMIT 2");
        assert_eq!(r.len(), 2);
        assert_eq!(r.rows[0][0], Datum::Int(10));
        assert_eq!(r.rows[1][0], Datum::Int(20));
    }

    #[test]
    fn is_null_and_not() {
        let r = run("SELECT id FROM invoice WHERE amount IS NULL");
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Datum::Int(4));
        let r = run("SELECT id FROM invoice WHERE NOT amount IS NULL");
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            execute_sql(&db(), "SELECT * FROM missing", &[]),
            Err(RelError::NoSuchTable(_))
        ));
        assert!(matches!(
            execute_sql(&db(), "SELECT nope FROM invoice", &[]),
            Err(RelError::BadColumn(_))
        ));
        assert!(matches!(
            execute_sql(&db(), "SELEC * FROM invoice", &[]),
            Err(RelError::Syntax(_))
        ));
        assert!(matches!(
            execute_sql(&db(), "SELECT * FROM invoice WHERE", &[]),
            Err(RelError::Syntax(_))
        ));
    }

    #[test]
    fn table_aliases() {
        let r =
            run("SELECT i.id FROM invoice i JOIN supp s ON i.supp_id = s.id WHERE s.name = 'acme'");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn string_escapes() {
        let r = run("SELECT id FROM supp WHERE name = 'o''brien'");
        assert_eq!(r.len(), 0);
    }
}
