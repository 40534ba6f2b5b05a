//! A mini-SQL `SELECT` engine (paper §VI, Appendix B: the `sql(query,
//! param…)` spreadsheet function).
//!
//! Supported subset: `SELECT [DISTINCT] items FROM t [alias] (JOIN t2 ON
//! expr)* [WHERE expr] [GROUP BY exprs] [HAVING expr] [ORDER BY keys
//! [ASC|DESC]] [LIMIT n]` with aggregates COUNT/SUM/AVG/MIN/MAX and `?`
//! prepared-statement parameters.
//!
//! A statement is planned once, then run as one pass over its rows:
//!
//! - **Plan.** Parameters are bound and every column reference is resolved
//!   against the FROM/JOIN schema, so evaluating a row never looks up a
//!   name, and an unknown or ambiguous column fails before any row is read.
//!   The plan also records which columns the statement reads.
//! - **Scan.** A [`TableProvider`] hands each row over as borrowed datums,
//!   projected onto those columns. Joins materialize the projected tables
//!   through [`ops::join`] (equi-joins take a hash path) and are then read
//!   the same way.
//! - **Pipeline.** WHERE runs on the borrowed row. A plain query copies out
//!   only the projected rows that pass, carrying any ORDER BY key on a
//!   column it does not output. A grouped query folds each row into its
//!   group's accumulators, which SELECT items and HAVING then read.
//!   DISTINCT, ORDER BY and LIMIT finish the answer.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use dataspread_relstore::datum::decode_row_project_ref;
use dataspread_relstore::{Database, Datum, DatumRef};

use crate::expr::{arith, compare, truthy, AggFunc, ArithOp, CmpOp, Expr, RowExpr};
use crate::ops::{self, row_key, OrdDatum};
use crate::relation::{cmp_datum, cmp_ref, resolve_column, Relation};
use crate::RelError;

/// Source of named tables for `FROM` and `JOIN` clauses: each one's
/// columns, and a scan over its rows as borrowed datums.
pub trait TableProvider {
    /// The column names of table `name`, or `None` when there is none.
    fn columns(&self, name: &str) -> Option<Vec<String>>;

    /// Visit every row of table `name` in order, projected onto `cols`
    /// (ascending column positions); a column past the end of a short row
    /// reads as NULL. Stops at, and returns, the first error of `visit`.
    fn scan(
        &self,
        name: &str,
        cols: &[usize],
        visit: &mut dyn FnMut(&[DatumRef<'_>]) -> Result<(), RelError>,
    ) -> Result<(), RelError>;
}

impl TableProvider for Database {
    fn columns(&self, name: &str) -> Option<Vec<String>> {
        let table = self.table(name).ok()?;
        Some(
            table
                .schema()
                .columns()
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        )
    }

    fn scan(
        &self,
        name: &str,
        cols: &[usize],
        visit: &mut dyn FnMut(&[DatumRef<'_>]) -> Result<(), RelError>,
    ) -> Result<(), RelError> {
        let table = self
            .table(name)
            .map_err(|_| RelError::NoSuchTable(name.to_string()))?;
        let mut row = Vec::with_capacity(cols.len());
        for tuple in table.tuples() {
            decode_row_project_ref(tuple, cols, &mut row).expect("stored rows decode");
            visit(&row)?;
        }
        Ok(())
    }
}

impl TableProvider for HashMap<String, Relation> {
    fn columns(&self, name: &str) -> Option<Vec<String>> {
        self.get(name).map(|rel| rel.columns.clone())
    }

    fn scan(
        &self,
        name: &str,
        cols: &[usize],
        visit: &mut dyn FnMut(&[DatumRef<'_>]) -> Result<(), RelError>,
    ) -> Result<(), RelError> {
        let rel = self
            .get(name)
            .ok_or_else(|| RelError::NoSuchTable(name.to_string()))?;
        scan_rows(&rel.rows, cols, visit)
    }
}

/// Visit `rows` projected onto `cols`, borrowing every datum.
fn scan_rows(
    rows: &[Vec<Datum>],
    cols: &[usize],
    visit: &mut dyn FnMut(&[DatumRef<'_>]) -> Result<(), RelError>,
) -> Result<(), RelError> {
    let mut refs = Vec::with_capacity(cols.len());
    for row in rows {
        refs.clear();
        refs.extend(cols.iter().map(|&c| row[c].as_ref()));
        visit(&refs)?;
    }
    Ok(())
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
    /// An all-digit literal that fits in an `i64`, kept exact.
    Int(i64),
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
                let text = &src[i..j];
                match text.parse::<i64>() {
                    Ok(n) => out.push(Tok::Int(n)),
                    Err(_) => out
                        .push(Tok::Number(text.parse().map_err(|_| {
                            RelError::Syntax(format!("bad number {text:?}"))
                        })?)),
                }
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
                    Some(&Tok::Int(n)) => {
                        self.pos += 1;
                        OrderTarget::Position(n as usize)
                    }
                    Some(&Tok::Number(n)) => {
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
                Some(Tok::Int(n)) => Some(n as usize),
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
            Some(Tok::Int(n)) => Ok(RowExpr::Literal(Datum::Int(n))),
            // An integral decimal (`3.0`) within `i64` reads as an integer;
            // one past it (an all-digit literal too) stays a float; `i64::MAX
            // as f64` is 2^63.
            Some(Tok::Number(n)) => Ok(RowExpr::Literal(
                if n.fract() == 0.0 && (i64::MIN as f64..i64::MAX as f64).contains(&n) {
                    Datum::Int(n as i64)
                } else {
                    Datum::Float(n)
                },
            )),
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

/// Qualify column names with an alias (`alias.col`).
fn qualify(columns: Vec<String>, alias: &str) -> Vec<String> {
    columns
        .into_iter()
        .map(|c| {
            if c.contains('.') {
                c
            } else {
                format!("{alias}.{c}")
            }
        })
        .collect()
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

/// One table of the FROM/JOIN list.
struct Source<'q> {
    table: &'q str,
    /// Its columns' positions in the joined schema.
    columns: Range<usize>,
    /// The bound ON clause that joins it to the tables before it.
    on: Option<RowExpr>,
}

/// What a plain query or a grouped one makes of the rows that pass WHERE.
enum Body {
    /// One output row per source row. Past the output columns come ORDER
    /// BY keys on source columns the output drops.
    Rows(Vec<Expr>),
    /// One output row per group of rows with `=` keys.
    Groups {
        keys: Vec<Expr>,
        aggs: Vec<(AggFunc, Option<Expr>)>,
        items: Vec<Expr>,
        having: Option<Expr>,
    },
}

/// A statement with its parameters bound and its columns resolved. Every
/// [`Expr`] indexes the rows the scan yields: the source rows projected
/// onto `cols`.
struct Plan<'q> {
    sources: Vec<Source<'q>>,
    /// The FROM/JOIN schema: every table's columns, qualified by its alias.
    schema: Vec<String>,
    /// The columns the statement reads, ascending positions in the joined
    /// schema.
    cols: Vec<usize>,
    filter: Option<Expr>,
    body: Body,
    names: Vec<String>,
    distinct: bool,
    /// Sort keys: a position in the body's rows, and whether descending.
    order: Vec<(usize, bool)>,
    limit: Option<usize>,
}

impl SelectStmt {
    fn execute(
        &self,
        provider: &dyn TableProvider,
        params: &[Datum],
    ) -> Result<Relation, RelError> {
        self.plan(provider, params)?.run(provider)
    }

    fn plan<'q>(
        &'q self,
        provider: &dyn TableProvider,
        params: &[Datum],
    ) -> Result<Plan<'q>, RelError> {
        // The FROM/JOIN schema. ON clauses are bound in join order, as the
        // tables are looked up.
        let mut sources: Vec<Source<'q>> = Vec::new();
        let mut schema: Vec<String> = Vec::new();
        let from = std::iter::once((&self.from.0, &self.from.1, None));
        let joins = self
            .joins
            .iter()
            .map(|j| (&j.table, &j.alias, j.on.as_ref()));
        for (table, alias, on) in from.chain(joins) {
            let columns = provider
                .columns(table)
                .ok_or_else(|| RelError::NoSuchTable(table.clone()))?;
            let start = schema.len();
            schema.extend(qualify(columns, alias.as_deref().unwrap_or(table)));
            let on = on.map(|e| e.bind(params)).transpose()?;
            sources.push(Source {
                table,
                columns: start..schema.len(),
                on,
            });
        }
        let mut used = vec![false; schema.len()];
        // `ops::join` resolves each ON clause itself, against its two
        // sides: keep every column one of its names could resolve to.
        for src in &sources[1..] {
            let prefix = &schema[..src.columns.end];
            if let Some(on) = &src.on {
                let mut mark = |name: &str| -> Result<usize, RelError> {
                    for (c, used) in prefix.iter().zip(used.iter_mut()) {
                        let tail = c.rsplit_once('.').map_or(c.as_str(), |(_, t)| t);
                        *used |= c.eq_ignore_ascii_case(name) || tail.eq_ignore_ascii_case(name);
                    }
                    Ok(0)
                };
                on.resolve(&mut mark, &mut Vec::new())?;
            }
        }
        let mut col = |name: &str| {
            let i = resolve_column(&schema, name)?;
            used[i] = true;
            Ok(i)
        };
        let mut filter = match &self.filter {
            Some(e) => Some(e.bind(params)?.resolve(&mut col, &mut Vec::new())?),
            None => None,
        };
        let mut names = Vec::new();
        let mut items = Vec::new();
        let mut aggs = Vec::new();
        // A HAVING without GROUP BY groups the query over one group, as
        // SQLite does.
        let mut grouped = !self.group_by.is_empty() || self.having.is_some();
        for (i, item) in self.items.iter().enumerate() {
            if item.star {
                for c in &schema {
                    let e = RowExpr::Column(c.clone());
                    names.push(derived_name(&e, 0));
                    items.push(e.resolve(&mut col, &mut aggs)?);
                }
            } else {
                let e = item.expr.bind(params)?;
                grouped |= e.contains_aggregate();
                names.push(item.alias.clone().unwrap_or_else(|| derived_name(&e, i)));
                items.push(e.resolve(&mut col, &mut aggs)?);
            }
        }
        let mut keys = Vec::new();
        let mut having = None;
        if grouped {
            for e in &self.group_by {
                keys.push(e.bind(params)?.resolve(&mut col, &mut Vec::new())?);
            }
            if let Some(h) = &self.having {
                having = Some(h.bind(params)?.resolve(&mut col, &mut aggs)?);
            }
        }
        // ORDER BY keys name an output column, or — in a plain query — a
        // source column the rows then carry (`SELECT name FROM t ORDER BY
        // age`).
        let mut order = Vec::new();
        for k in &self.order_by {
            let at = match &k.expr {
                OrderTarget::Position(p) => {
                    if *p == 0 || *p > names.len() {
                        return Err(RelError::BadColumn(format!("ORDER BY position {p}")));
                    }
                    p - 1
                }
                OrderTarget::Name(n) => match resolve_column(&names, n) {
                    Ok(i) => i,
                    Err(e) if grouped || self.distinct => return Err(e),
                    Err(_) => {
                        items.push(Expr::Col(col(n)?));
                        items.len() - 1
                    }
                },
            };
            order.push((at, k.desc));
        }
        // Renumber columns from the joined schema to the projected rows.
        let cols: Vec<usize> = (0..schema.len()).filter(|&i| used[i]).collect();
        let mut slot = vec![0; schema.len()];
        for (at, &c) in cols.iter().enumerate() {
            slot[c] = at;
        }
        let renumber = &mut |i: &mut usize| *i = slot[*i];
        let exprs = filter.iter_mut().chain(&mut items).chain(&mut keys);
        let exprs = exprs.chain(having.iter_mut());
        let exprs = exprs.chain(aggs.iter_mut().filter_map(|(_, arg)| arg.as_mut()));
        for e in exprs {
            e.columns_mut(renumber);
        }
        let body = if grouped {
            Body::Groups {
                keys,
                aggs,
                items,
                having,
            }
        } else {
            Body::Rows(items)
        };
        Ok(Plan {
            sources,
            schema,
            cols,
            filter,
            body,
            names,
            distinct: self.distinct,
            order,
            limit: self.limit,
        })
    }
}

impl Plan<'_> {
    fn run(self, provider: &dyn TableProvider) -> Result<Relation, RelError> {
        let mut rows: Vec<Vec<Datum>> = Vec::new();
        match &self.body {
            Body::Rows(items) => self.stream(provider, |row| {
                let out = items.iter().map(|e| Ok(e.eval(row)?.to_datum()));
                rows.push(out.collect::<Result<_, RelError>>()?);
                Ok(())
            })?,
            Body::Groups {
                keys,
                aggs,
                items,
                having,
            } => {
                // Rows whose keys are `=` share a group; groups come out in
                // key order.
                let mut index: BTreeMap<Vec<OrdDatum>, usize> = BTreeMap::new();
                let mut groups: Vec<Group> = Vec::new();
                let mut key = Vec::with_capacity(keys.len());
                self.stream(provider, |row| {
                    key.clear();
                    for k in keys {
                        key.push(OrdDatum(k.eval(row)?.to_datum()));
                    }
                    let g = match index.get(key.as_slice()) {
                        Some(&g) => g,
                        None => {
                            index.insert(key.clone(), groups.len());
                            groups.push(Group::new(aggs, Some(row)));
                            groups.len() - 1
                        }
                    };
                    for (acc, (_, arg)) in groups[g].accs.iter_mut().zip(aggs) {
                        acc.fold(arg.as_ref(), row);
                    }
                    Ok(())
                })?;
                // A global aggregate over no rows still yields one row.
                if groups.is_empty() && keys.is_empty() {
                    index.insert(Vec::new(), 0);
                    groups.push(Group::new(aggs, None));
                }
                for &g in index.values() {
                    let group = &groups[g];
                    if let Some(h) = having {
                        if !truthy(group.eval(h)?.as_ref()) {
                            continue;
                        }
                    }
                    rows.push(
                        items
                            .iter()
                            .map(|e| group.eval(e))
                            .collect::<Result<_, _>>()?,
                    );
                }
            }
        }
        if self.distinct {
            let mut seen = std::collections::BTreeSet::new();
            rows.retain(|row| seen.insert(row_key(row)));
        }
        if !self.order.is_empty() {
            rows.sort_by(|x, y| {
                for &(at, desc) in &self.order {
                    let ord = cmp_datum(&x[at], &y[at]);
                    if ord != std::cmp::Ordering::Equal {
                        return if desc { ord.reverse() } else { ord };
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = self.limit {
            rows.truncate(n);
        }
        // Drop the carried ORDER BY keys.
        for row in &mut rows {
            row.truncate(self.names.len());
        }
        Ok(Relation::new(self.names, rows))
    }

    /// Feed each source row that passes WHERE to `sink`. A WHERE error
    /// ends the scan at once; the first error of `sink` is held until the
    /// scan ends, because a WHERE error on a later row still comes first:
    /// WHERE is applied to every row before anything else.
    fn stream(
        &self,
        provider: &dyn TableProvider,
        mut sink: impl FnMut(&[DatumRef<'_>]) -> Result<(), RelError>,
    ) -> Result<(), RelError> {
        let mut held = None;
        let mut visit = |row: &[DatumRef<'_>]| {
            if let Some(f) = &self.filter {
                if !f.matches(row)? {
                    return Ok(());
                }
            }
            if held.is_none() {
                held = sink(row).err();
            }
            Ok(())
        };
        match self.sources.as_slice() {
            [only] => provider.scan(only.table, &self.cols, &mut visit)?,
            _ => {
                let joined = self.join(provider)?;
                let all: Vec<usize> = (0..joined.arity()).collect();
                scan_rows(&joined.rows, &all, &mut visit)?;
            }
        }
        held.map_or(Ok(()), Err)
    }

    /// Materialize the join of the sources, each projected onto the
    /// columns the statement reads.
    fn join(&self, provider: &dyn TableProvider) -> Result<Relation, RelError> {
        let mut joined: Option<Relation> = None;
        for src in &self.sources {
            let read = self.cols.iter().filter(|c| src.columns.contains(c));
            let local: Vec<usize> = read.clone().map(|c| c - src.columns.start).collect();
            let mut rows = Vec::new();
            provider.scan(src.table, &local, &mut |row| {
                rows.push(row.iter().map(|d| d.to_datum()).collect());
                Ok(())
            })?;
            let columns = read.map(|&c| self.schema[c].clone()).collect();
            let right = Relation::new(columns, rows);
            joined = Some(match joined {
                None => right,
                Some(left) => ops::join(&left, &right, src.on.as_ref())?,
            });
        }
        Ok(joined.expect("a statement reads at least its FROM table"))
    }
}

/// One group of a grouped query: its first row, and one accumulator per
/// aggregate of the statement.
struct Group {
    /// `None` for the one group of a global aggregate over no rows.
    first: Option<Vec<Datum>>,
    accs: Vec<Acc>,
}

impl Group {
    fn new(aggs: &[(AggFunc, Option<Expr>)], first: Option<&[DatumRef<'_>]>) -> Self {
        Group {
            first: first.map(|row| row.iter().map(|d| d.to_datum()).collect()),
            accs: aggs
                .iter()
                .map(|(f, arg)| Acc::new(*f, arg.is_some()))
                .collect(),
        }
    }

    /// Evaluate a SELECT item or HAVING over the group: an aggregate reads
    /// its accumulator, a column the group's first row (the relaxed
    /// SQLite-style semantics; NULL when there is none), a literal is
    /// itself, and every operator combines its operands as over a row.
    fn eval(&self, e: &Expr) -> Result<Datum, RelError> {
        Ok(match e {
            Expr::Lit(d) => d.clone(),
            Expr::Col(i) => self
                .first
                .as_ref()
                .map_or(Datum::Null, |row| row[*i].clone()),
            Expr::Agg(slot) => self.accs[*slot].value()?,
            Expr::Cmp(op, a, b) => {
                compare(*op, self.eval(a)?.as_ref(), self.eval(b)?.as_ref()).to_datum()
            }
            Expr::Arith(op, a, b) => {
                arith(*op, self.eval(a)?.as_ref(), self.eval(b)?.as_ref())?.to_datum()
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                let x = truthy(self.eval(a)?.as_ref());
                let y = truthy(self.eval(b)?.as_ref());
                Datum::Bool(if matches!(e, Expr::And(..)) {
                    x && y
                } else {
                    x || y
                })
            }
            Expr::Not(e) => Datum::Bool(!truthy(self.eval(e)?.as_ref())),
            Expr::IsNull(e, want_null) => Datum::Bool(self.eval(e)?.is_null() == *want_null),
        })
    }
}

/// The running state of one aggregate over one group.
enum Acc {
    /// COUNT, and any aggregate of `*`: the rows, or the non-null values.
    Count(i64),
    /// SUM or AVG over the non-null values seen so far.
    Sum {
        avg: bool,
        seen: i64,
        /// Whether every value so far is an Int.
        ints: bool,
        /// Their exact sum; `None` once it overflowed.
        int: Option<i64>,
        /// The sum of the numeric values in row order (texts and bools
        /// count as seen but add nothing).
        float: f64,
    },
    /// The first of equal minima, as `Iterator::min_by` keeps.
    Min(Option<Datum>),
    /// The last of equal maxima, as `Iterator::max_by` keeps.
    Max(Option<Datum>),
    /// The argument failed on a row; the aggregate is that error, raised
    /// only if its value is read.
    Failed(RelError),
}

impl Acc {
    fn new(func: AggFunc, has_arg: bool) -> Self {
        match func {
            _ if !has_arg => Acc::Count(0),
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum | AggFunc::Avg => Acc::Sum {
                avg: func == AggFunc::Avg,
                seen: 0,
                ints: true,
                int: Some(0),
                // `Iterator::sum`'s start: a sum of `-0.0`s stays `-0.0`.
                float: -0.0,
            },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn fold(&mut self, arg: Option<&Expr>, row: &[DatumRef<'_>]) {
        let Some(arg) = arg else {
            if let Acc::Count(n) = self {
                *n += 1;
            }
            return;
        };
        if matches!(self, Acc::Failed(_)) {
            return;
        }
        let v = match arg.eval(row) {
            Ok(DatumRef::Null) => return,
            Ok(v) => v,
            Err(e) => {
                *self = Acc::Failed(e);
                return;
            }
        };
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum {
                seen,
                ints,
                int,
                float,
                ..
            } => {
                *seen += 1;
                match v {
                    DatumRef::Int(i) => {
                        *int = int.and_then(|s| s.checked_add(i));
                        *float += i as f64;
                    }
                    DatumRef::Float(f) => {
                        *ints = false;
                        *float += f;
                    }
                    _ => *ints = false,
                }
            }
            Acc::Min(m) => {
                if m.as_ref().is_none_or(|m| cmp_ref(v, m.as_ref()).is_lt()) {
                    *m = Some(v.to_datum());
                }
            }
            Acc::Max(m) => {
                if m.as_ref().is_none_or(|m| cmp_ref(v, m.as_ref()).is_ge()) {
                    *m = Some(v.to_datum());
                }
            }
            Acc::Failed(_) => {}
        }
    }

    fn value(&self) -> Result<Datum, RelError> {
        Ok(match self {
            Acc::Count(n) => Datum::Int(*n),
            Acc::Sum { seen: 0, .. } => Datum::Null,
            &Acc::Sum {
                avg,
                seen,
                ints,
                int,
                float,
            } => match (avg, ints, int) {
                (true, ..) => Datum::Float(float / seen as f64),
                // An Int sum that overflows is the float sum, as SQLite's
                // arithmetic does.
                (false, true, Some(i)) => Datum::Int(i),
                (false, ..) => Datum::Float(float),
            },
            Acc::Min(m) | Acc::Max(m) => m.clone().unwrap_or(Datum::Null),
            Acc::Failed(e) => return Err(e.clone()),
        })
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
