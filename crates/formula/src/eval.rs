//! Formula evaluation.
//!
//! The evaluator reads cell values through a [`CellReader`] — in the full
//! engine this is the hybrid translator (paper §VI) — and implements 30+
//! spreadsheet functions covering the
//! categories the corpus study found common (Figure 5): arithmetic,
//! aggregation over ranges (SUM/AVERAGE/…), conditionals (IF/ISBLANK), text
//! functions (SEARCH/…), and lookups (VLOOKUP — the paper's stand-in for
//! joins).

use dataspread_grid::{CellAddr, CellValue, Rect, ScanValue, SparseSheet};

use crate::ast::{BinOp, Expr, UnOp};
use dataspread_grid::value::CellError;

/// The aggregates [`RangeAgg`] answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    Sum,
    Count,
    CountA,
    Average,
}

impl AggKind {
    pub(crate) fn from_name(name: &str) -> Option<AggKind> {
        match name {
            "SUM" => Some(AggKind::Sum),
            "COUNT" => Some(AggKind::Count),
            "COUNTA" => Some(AggKind::CountA),
            "AVERAGE" => Some(AggKind::Average),
            _ => None,
        }
    }
}

/// SUM/COUNT/COUNTA/AVERAGE, defined once: the evaluator's walk, the batch
/// sweep and a storage push-down ([`CellReader::range_agg`]) all feed
/// values to [`RangeAgg::fold`] in visit order and answer with
/// [`RangeAgg::value`], so they agree bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RangeAgg {
    /// `0.0 + n₁ + n₂ + …` over `Number` values, in visit order.
    pub sum: f64,
    /// Count of `Number` values.
    pub numbers: u64,
    /// Count of non-empty values (COUNTA).
    pub nonempty: u64,
    /// The first error visited; the fold ended there.
    pub error: Option<CellError>,
}

impl RangeAgg {
    /// Fold the next value in visit order; `false` once an error has
    /// ended the fold (later values must not count). Inlined across
    /// crates: storage push-downs call it once per row.
    #[inline]
    pub fn fold(&mut self, v: ScanValue<'_>) -> bool {
        if self.error.is_some() {
            return false;
        }
        match v {
            ScanValue::Empty => {}
            ScanValue::Number(n) => {
                self.sum += n;
                self.numbers += 1;
                self.nonempty += 1;
            }
            ScanValue::Error(e) => {
                self.error = Some(e);
                return false;
            }
            _ => self.nonempty += 1,
        }
        true
    }

    /// The aggregate's result: the first error if one was met, and
    /// `#DIV/0!` for the average of no numbers.
    pub fn value(&self, kind: AggKind) -> CellValue {
        if let Some(e) = self.error {
            return CellValue::Error(e);
        }
        match kind {
            AggKind::Sum => CellValue::Number(self.sum),
            AggKind::Count => CellValue::Number(self.numbers as f64),
            AggKind::CountA => CellValue::Number(self.nonempty as f64),
            AggKind::Average if self.numbers == 0 => CellValue::Error(CellError::Div0),
            AggKind::Average => CellValue::Number(self.sum / self.numbers as f64),
        }
    }
}

/// Read access to cell values, by single cell or (sparsely) by range.
pub trait CellReader {
    fn value(&self, addr: CellAddr) -> CellValue;

    /// Visit the non-empty values inside `rect` in row-major order, as
    /// borrows. The default probes every position; storage-backed readers
    /// override with their ordered scan.
    fn for_each_value(&self, rect: Rect, f: &mut dyn FnMut(CellAddr, ScanValue<'_>)) {
        for addr in rect.iter() {
            let v = self.value(addr);
            if !v.is_empty() {
                f(addr, ScanValue::of(&v));
            }
        }
    }

    /// Aggregate push-down: `Some` when the storage layer folds `rect`
    /// faster than [`CellReader::for_each_value`] streams it (the same
    /// values, in the same order, through [`RangeAgg::fold`]). The
    /// default returns `None`: the evaluator folds its own walk.
    fn range_agg(&self, _rect: Rect) -> Option<RangeAgg> {
        None
    }
}

/// A reader over an empty sheet (formulas of constants only).
#[derive(Debug, Default, Clone, Copy)]
pub struct EmptyReader;

impl CellReader for EmptyReader {
    fn value(&self, _addr: CellAddr) -> CellValue {
        CellValue::Empty
    }
}

/// Reader over an in-memory [`SparseSheet`].
pub struct SheetReader<'a>(pub &'a SparseSheet);

impl CellReader for SheetReader<'_> {
    fn value(&self, addr: CellAddr) -> CellValue {
        self.0.value(addr)
    }

    fn for_each_value(&self, rect: Rect, f: &mut dyn FnMut(CellAddr, ScanValue<'_>)) {
        for (addr, cell) in self.0.iter_rect(rect) {
            f(addr, ScanValue::of(&cell.value));
        }
    }
}

/// Intermediate evaluation value: a scalar or an unmaterialized range.
#[derive(Debug, Clone)]
enum Val {
    Scalar(CellValue),
    Range(Rect),
}

impl Val {
    /// Collapse to a scalar: 1×1 ranges dereference, larger ranges error.
    fn scalar(self, reader: &dyn CellReader) -> CellValue {
        match self {
            Val::Scalar(v) => v,
            Val::Range(r) if r.area() == 1 => reader.value(r.top_left()),
            Val::Range(_) => CellValue::Error(CellError::Value),
        }
    }
}

/// The formula evaluator, for the formula of one cell.
#[derive(Debug, Default, Clone, Copy)]
pub struct Evaluator(CellAddr);

impl Evaluator {
    /// The evaluator of a formula in `A1`.
    pub fn new() -> Self {
        Self::default()
    }

    /// The evaluator of the formula in cell `at`.
    pub fn at(at: CellAddr) -> Self {
        Evaluator(at)
    }

    /// Evaluate `expr` against `reader`.
    pub fn eval(&self, expr: &Expr, reader: &dyn CellReader) -> CellValue {
        self.eval_val(expr, reader).scalar(reader)
    }

    fn eval_val(&self, expr: &Expr, reader: &dyn CellReader) -> Val {
        match expr {
            Expr::Number(n) => Val::Scalar(CellValue::Number(*n)),
            Expr::Text(s) => Val::Scalar(CellValue::Text(s.clone())),
            Expr::Bool(b) => Val::Scalar(CellValue::Bool(*b)),
            Expr::Ref(_) | Expr::Range(..) => match expr.rect_at(self.0) {
                Some(rect) => Val::Range(rect),
                None => Val::Scalar(CellValue::Error(CellError::Ref)),
            },
            Expr::Unary(op, e) => {
                let v = self.eval(e, reader);
                if let CellValue::Error(_) = v {
                    return Val::Scalar(v);
                }
                match (op, v.as_number()) {
                    (UnOp::Neg, Some(n)) => Val::Scalar(CellValue::Number(-n)),
                    (UnOp::Plus, Some(n)) => Val::Scalar(CellValue::Number(n)),
                    _ => Val::Scalar(CellValue::Error(CellError::Value)),
                }
            }
            Expr::Percent(e) => {
                let v = self.eval(e, reader);
                if let CellValue::Error(_) = v {
                    return Val::Scalar(v);
                }
                match v.as_number() {
                    Some(n) => Val::Scalar(CellValue::Number(n / 100.0)),
                    None => Val::Scalar(CellValue::Error(CellError::Value)),
                }
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, reader);
                let vb = self.eval(b, reader);
                Val::Scalar(binary(*op, va, vb))
            }
            Expr::Func(name, args) => Val::Scalar(self.call(name, args, reader)),
        }
    }

    /// Evaluate a function call.
    fn call(&self, name: &str, args: &[Expr], reader: &dyn CellReader) -> CellValue {
        let ctx = Ctx {
            eval: self,
            reader,
            args,
        };
        if let Some(kind) = AggKind::from_name(name) {
            return ctx.aggregate(kind);
        }
        match name {
            "PRODUCT" => ctx.fold_numbers(1.0, |acc, n| acc * n),
            "MIN" => ctx.min_max(true),
            "MAX" => ctx.min_max(false),
            "MEDIAN" => ctx.median(),
            "IF" => ctx.r#if(),
            "AND" => ctx.and_or(true),
            "OR" => ctx.and_or(false),
            "NOT" => ctx.not(),
            "ISBLANK" => ctx.is_pred(|v| v.is_empty()),
            "ISNUMBER" => ctx.is_pred(|v| matches!(v, CellValue::Number(_))),
            "ISTEXT" => ctx.is_pred(|v| matches!(v, CellValue::Text(_))),
            "ISERROR" => ctx.is_pred(|v| matches!(v, CellValue::Error(_))),
            "ABS" => ctx.num1(f64::abs),
            "SQRT" => ctx.num1_checked(|n| if n < 0.0 { None } else { Some(n.sqrt()) }),
            "LN" => ctx.num1_checked(|n| if n <= 0.0 { None } else { Some(n.ln()) }),
            "LOG10" => ctx.num1_checked(|n| if n <= 0.0 { None } else { Some(n.log10()) }),
            "LOG" => ctx.log(),
            "EXP" => ctx.num1(f64::exp),
            "SIGN" => ctx.num1(f64::signum),
            "INT" => ctx.num1(f64::floor),
            "POWER" => ctx.num2(|a, b| a.powf(b)),
            "MOD" => ctx.modulo(),
            "ROUND" => ctx.round(),
            "FLOOR" => ctx.floor_ceil(true),
            "CEILING" => ctx.floor_ceil(false),
            "LEN" => ctx.text1(|s| CellValue::Number(s.chars().count() as f64)),
            "UPPER" => ctx.text1(|s| CellValue::Text(s.to_uppercase())),
            "LOWER" => ctx.text1(|s| CellValue::Text(s.to_lowercase())),
            "TRIM" => ctx.text1(|s| CellValue::Text(s.trim().to_string())),
            "CONCATENATE" | "CONCAT" => ctx.concatenate(),
            "LEFT" => ctx.left_right(true),
            "RIGHT" => ctx.left_right(false),
            "MID" => ctx.mid(),
            "SEARCH" => ctx.search(),
            "VLOOKUP" => ctx.vlookup(),
            "HLOOKUP" => ctx.hlookup(),
            "INDEX" => ctx.index(),
            "MATCH" => ctx.r#match(),
            "SUMIF" => ctx.sumif(),
            "COUNTIF" => ctx.countif(),
            "TRUE" => CellValue::Bool(true),
            "FALSE" => CellValue::Bool(false),
            _ => CellValue::Error(CellError::Name),
        }
    }
}

fn binary(op: BinOp, a: CellValue, b: CellValue) -> CellValue {
    if let CellValue::Error(e) = a {
        return CellValue::Error(e);
    }
    if let CellValue::Error(e) = b {
        return CellValue::Error(e);
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Pow => {
            let (Some(x), Some(y)) = (a.as_number(), b.as_number()) else {
                return CellValue::Error(CellError::Value);
            };
            let n = match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => {
                    if y == 0.0 {
                        return CellValue::Error(CellError::Div0);
                    }
                    x / y
                }
                BinOp::Pow => x.powf(y),
                _ => unreachable!(),
            };
            if n.is_nan() || n.is_infinite() {
                CellValue::Error(CellError::Num)
            } else {
                CellValue::Number(n)
            }
        }
        BinOp::Concat => CellValue::Text(format!("{}{}", a.as_text(), b.as_text())),
        BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = compare(&a, &b);
            let res = match op {
                BinOp::Eq => ord == std::cmp::Ordering::Equal,
                BinOp::Ne => ord != std::cmp::Ordering::Equal,
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::Le => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                BinOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!("outer match restricts to comparisons"),
            };
            CellValue::Bool(res)
        }
    }
}

/// Spreadsheet comparison: numbers by value, text case-insensitively,
/// mixed types by kind (number < text < bool), blanks as 0/"".
fn compare(a: &CellValue, b: &CellValue) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    fn kind(v: &CellValue) -> u8 {
        match v {
            CellValue::Empty | CellValue::Number(_) => 0,
            CellValue::Text(_) => 1,
            CellValue::Bool(_) => 2,
            CellValue::Error(_) => 3,
        }
    }
    match (a, b) {
        (CellValue::Text(x), CellValue::Text(y)) => x.to_lowercase().cmp(&y.to_lowercase()),
        (CellValue::Text(x), CellValue::Empty) => x.to_lowercase().cmp(&String::new()),
        (CellValue::Empty, CellValue::Text(y)) => String::new().cmp(&y.to_lowercase()),
        (CellValue::Bool(x), CellValue::Bool(y)) => x.cmp(y),
        _ if kind(a) == kind(b) => {
            let x = a.as_number().unwrap_or(0.0);
            let y = b.as_number().unwrap_or(0.0);
            x.partial_cmp(&y).unwrap_or(Ordering::Equal)
        }
        _ => kind(a).cmp(&kind(b)),
    }
}

/// Per-call context bundling evaluator, reader and argument list.
struct Ctx<'a> {
    eval: &'a Evaluator,
    reader: &'a dyn CellReader,
    args: &'a [Expr],
}

impl Ctx<'_> {
    fn scalar(&self, i: usize) -> CellValue {
        match self.args.get(i) {
            Some(e) => self.eval.eval(e, self.reader),
            None => CellValue::Error(CellError::Value),
        }
    }

    fn number(&self, i: usize) -> Result<f64, CellValue> {
        let v = self.scalar(i);
        if let CellValue::Error(_) = v {
            return Err(v);
        }
        v.as_number().ok_or(CellValue::Error(CellError::Value))
    }

    fn text(&self, i: usize) -> Result<String, CellValue> {
        let v = self.scalar(i);
        if let CellValue::Error(_) = v {
            return Err(v);
        }
        Ok(v.as_text())
    }

    /// Visit every value in the argument list as a borrow, expanding ranges
    /// sparsely. The first error met — row-major within a range — ends the
    /// walk: it is returned and later visits are ignored.
    fn for_each_value(&self, mut f: impl FnMut(ScanValue<'_>)) -> Option<CellValue> {
        let mut error = None;
        for arg in self.args {
            let mut visit = |v: ScanValue<'_>| match v {
                _ if error.is_some() => {}
                ScanValue::Error(e) => error = Some(e),
                v => f(v),
            };
            match self.eval.eval_val(arg, self.reader) {
                Val::Range(r) => self.reader.for_each_value(r, &mut |_, v| visit(v)),
                Val::Scalar(v) => visit(ScanValue::of(&v)),
            }
            if error.is_some() {
                break;
            }
        }
        error.map(CellValue::Error)
    }

    fn fold_numbers(&self, init: f64, f: impl Fn(f64, f64) -> f64) -> CellValue {
        let mut acc = init;
        if let Some(err) = self.for_each_value(|v| {
            if let ScanValue::Number(n) = v {
                acc = f(acc, n);
            }
        }) {
            return err;
        }
        CellValue::Number(acc)
    }

    /// SUM/COUNT/COUNTA/AVERAGE: a single range argument asks the reader
    /// for its push-down; anything else folds every argument's values.
    fn aggregate(&self, kind: AggKind) -> CellValue {
        if let [range @ Expr::Range(..)] = self.args {
            let agg = range
                .rect_at(self.eval.0)
                .and_then(|r| self.reader.range_agg(r));
            if let Some(agg) = agg {
                return agg.value(kind);
            }
        }
        let mut agg = RangeAgg::default();
        match self.for_each_value(|v| {
            agg.fold(v);
        }) {
            Some(err) => err,
            None => agg.value(kind),
        }
    }

    fn min_max(&self, min: bool) -> CellValue {
        let mut best: Option<f64> = None;
        if let Some(err) = self.for_each_value(|v| {
            if let ScanValue::Number(x) = v {
                best = Some(match best {
                    None => x,
                    Some(b) => {
                        if min {
                            b.min(x)
                        } else {
                            b.max(x)
                        }
                    }
                });
            }
        }) {
            return err;
        }
        CellValue::Number(best.unwrap_or(0.0))
    }

    fn median(&self) -> CellValue {
        let mut xs = Vec::new();
        if let Some(err) = self.for_each_value(|v| {
            if let ScanValue::Number(x) = v {
                xs.push(x);
            }
        }) {
            return err;
        }
        if xs.is_empty() {
            return CellValue::Error(CellError::Num);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs stored"));
        let mid = xs.len() / 2;
        let m = if xs.len() % 2 == 1 {
            xs[mid]
        } else {
            (xs[mid - 1] + xs[mid]) / 2.0
        };
        CellValue::Number(m)
    }

    fn r#if(&self) -> CellValue {
        if self.args.is_empty() || self.args.len() > 3 {
            return CellValue::Error(CellError::Value);
        }
        let cond = self.scalar(0);
        if let CellValue::Error(_) = cond {
            return cond;
        }
        match cond.as_bool() {
            Some(true) => {
                if self.args.len() >= 2 {
                    self.scalar(1)
                } else {
                    CellValue::Bool(true)
                }
            }
            Some(false) => {
                if self.args.len() == 3 {
                    self.scalar(2)
                } else {
                    CellValue::Bool(false)
                }
            }
            None => CellValue::Error(CellError::Value),
        }
    }

    fn and_or(&self, is_and: bool) -> CellValue {
        let mut acc = is_and;
        let mut saw = false;
        if let Some(err) = self.for_each_value(|v| {
            if let Some(b) = v.to_value().as_bool() {
                saw = true;
                if is_and {
                    acc &= b;
                } else {
                    acc |= b;
                }
            }
        }) {
            return err;
        }
        if !saw {
            CellValue::Error(CellError::Value)
        } else {
            CellValue::Bool(acc)
        }
    }

    fn not(&self) -> CellValue {
        let v = self.scalar(0);
        if let CellValue::Error(_) = v {
            return v;
        }
        match v.as_bool() {
            Some(b) => CellValue::Bool(!b),
            None => CellValue::Error(CellError::Value),
        }
    }

    fn is_pred(&self, pred: impl Fn(&CellValue) -> bool) -> CellValue {
        // ISBLANK wants the raw cell, not a coerced scalar: a reference to
        // an empty cell must stay Empty (scalar() already preserves that).
        let v = self.scalar(0);
        CellValue::Bool(pred(&v))
    }

    fn num1(&self, f: impl Fn(f64) -> f64) -> CellValue {
        match self.number(0) {
            Ok(n) => CellValue::Number(f(n)),
            Err(e) => e,
        }
    }

    fn num1_checked(&self, f: impl Fn(f64) -> Option<f64>) -> CellValue {
        match self.number(0) {
            Ok(n) => match f(n) {
                Some(x) => CellValue::Number(x),
                None => CellValue::Error(CellError::Num),
            },
            Err(e) => e,
        }
    }

    fn num2(&self, f: impl Fn(f64, f64) -> f64) -> CellValue {
        match (self.number(0), self.number(1)) {
            (Ok(a), Ok(b)) => {
                let n = f(a, b);
                if n.is_nan() || n.is_infinite() {
                    CellValue::Error(CellError::Num)
                } else {
                    CellValue::Number(n)
                }
            }
            (Err(e), _) | (_, Err(e)) => e,
        }
    }

    fn log(&self) -> CellValue {
        let base = if self.args.len() >= 2 {
            match self.number(1) {
                Ok(b) => b,
                Err(e) => return e,
            }
        } else {
            10.0
        };
        match self.number(0) {
            Ok(n) if n > 0.0 && base > 0.0 && base != 1.0 => CellValue::Number(n.log(base)),
            Ok(_) => CellValue::Error(CellError::Num),
            Err(e) => e,
        }
    }

    fn modulo(&self) -> CellValue {
        match (self.number(0), self.number(1)) {
            (Ok(_), Ok(0.0)) => CellValue::Error(CellError::Div0),
            // Excel MOD follows the divisor's sign.
            (Ok(a), Ok(b)) => CellValue::Number(a - b * (a / b).floor()),
            (Err(e), _) | (_, Err(e)) => e,
        }
    }

    fn round(&self) -> CellValue {
        let digits = if self.args.len() >= 2 {
            match self.number(1) {
                Ok(d) => d as i32,
                Err(e) => return e,
            }
        } else {
            0
        };
        match self.number(0) {
            Ok(n) => {
                let p = 10f64.powi(digits);
                CellValue::Number((n * p).round() / p)
            }
            Err(e) => e,
        }
    }

    fn floor_ceil(&self, floor: bool) -> CellValue {
        let sig = if self.args.len() >= 2 {
            match self.number(1) {
                Ok(s) => s,
                Err(e) => return e,
            }
        } else {
            1.0
        };
        if sig == 0.0 {
            return CellValue::Error(CellError::Div0);
        }
        match self.number(0) {
            Ok(n) => {
                let q = n / sig;
                let q = if floor { q.floor() } else { q.ceil() };
                CellValue::Number(q * sig)
            }
            Err(e) => e,
        }
    }

    fn text1(&self, f: impl Fn(&str) -> CellValue) -> CellValue {
        match self.text(0) {
            Ok(s) => f(&s),
            Err(e) => e,
        }
    }

    fn concatenate(&self) -> CellValue {
        let mut out = String::new();
        if let Some(err) = self.for_each_value(|v| match v {
            ScanValue::Text(s) => out.push_str(s),
            v => out.push_str(&v.to_value().as_text()),
        }) {
            return err;
        }
        CellValue::Text(out)
    }

    fn left_right(&self, left: bool) -> CellValue {
        let n = if self.args.len() >= 2 {
            match self.number(1) {
                Ok(n) if n >= 0.0 => n as usize,
                Ok(_) => return CellValue::Error(CellError::Value),
                Err(e) => return e,
            }
        } else {
            1
        };
        match self.text(0) {
            Ok(s) => {
                let chars: Vec<char> = s.chars().collect();
                let taken: String = if left {
                    chars.iter().take(n).collect()
                } else {
                    chars.iter().skip(chars.len().saturating_sub(n)).collect()
                };
                CellValue::Text(taken)
            }
            Err(e) => e,
        }
    }

    fn mid(&self) -> CellValue {
        match (self.text(0), self.number(1), self.number(2)) {
            (Ok(s), Ok(start), Ok(len)) if start >= 1.0 && len >= 0.0 => {
                let out: String = s
                    .chars()
                    .skip(start as usize - 1)
                    .take(len as usize)
                    .collect();
                CellValue::Text(out)
            }
            (Ok(_), Ok(_), Ok(_)) => CellValue::Error(CellError::Value),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => e,
        }
    }

    fn search(&self) -> CellValue {
        // SEARCH(needle, haystack, [start]) — 1-based, case-insensitive.
        let start = if self.args.len() >= 3 {
            match self.number(2) {
                Ok(s) if s >= 1.0 => s as usize - 1,
                Ok(_) => return CellValue::Error(CellError::Value),
                Err(e) => return e,
            }
        } else {
            0
        };
        match (self.text(0), self.text(1)) {
            (Ok(needle), Ok(hay)) => {
                let hay_l = hay.to_lowercase();
                let needle_l = needle.to_lowercase();
                let hay_chars: Vec<char> = hay_l.chars().collect();
                if start > hay_chars.len() {
                    return CellValue::Error(CellError::Value);
                }
                let suffix: String = hay_chars[start..].iter().collect();
                match suffix.find(&needle_l) {
                    Some(byte_pos) => {
                        let char_pos = suffix[..byte_pos].chars().count();
                        CellValue::Number((start + char_pos + 1) as f64)
                    }
                    None => CellValue::Error(CellError::Value),
                }
            }
            (Err(e), _) | (_, Err(e)) => e,
        }
    }

    fn arg_rect(&self, i: usize) -> Option<Rect> {
        self.args.get(i).and_then(|e| e.rect_at(self.eval.0))
    }

    fn vlookup(&self) -> CellValue {
        // VLOOKUP(key, range, col_index, [exact: assume TRUE means approx;
        // we implement exact match when 4th arg is FALSE or omitted]).
        let key = self.scalar(0);
        if let CellValue::Error(_) = key {
            return key;
        }
        let Some(rect) = self.arg_rect(1) else {
            return CellValue::Error(CellError::Value);
        };
        let col_index = match self.number(2) {
            Ok(n) if n >= 1.0 => n as u64,
            Ok(_) => return CellValue::Error(CellError::Value),
            Err(e) => return e,
        };
        if col_index > rect.cols() {
            return CellValue::Error(CellError::Ref);
        }
        for r in rect.r1..=rect.r2 {
            let candidate = self.reader.value(CellAddr::new(r, rect.c1));
            if compare(&candidate, &key) == std::cmp::Ordering::Equal && !candidate.is_empty() {
                return self
                    .reader
                    .value(CellAddr::new(r, rect.c1 + col_index as u32 - 1));
            }
        }
        CellValue::Error(CellError::Na)
    }

    fn hlookup(&self) -> CellValue {
        let key = self.scalar(0);
        if let CellValue::Error(_) = key {
            return key;
        }
        let Some(rect) = self.arg_rect(1) else {
            return CellValue::Error(CellError::Value);
        };
        let row_index = match self.number(2) {
            Ok(n) if n >= 1.0 => n as u64,
            Ok(_) => return CellValue::Error(CellError::Value),
            Err(e) => return e,
        };
        if row_index > rect.rows() {
            return CellValue::Error(CellError::Ref);
        }
        for c in rect.c1..=rect.c2 {
            let candidate = self.reader.value(CellAddr::new(rect.r1, c));
            if compare(&candidate, &key) == std::cmp::Ordering::Equal && !candidate.is_empty() {
                return self
                    .reader
                    .value(CellAddr::new(rect.r1 + row_index as u32 - 1, c));
            }
        }
        CellValue::Error(CellError::Na)
    }

    fn index(&self) -> CellValue {
        let Some(rect) = self.arg_rect(0) else {
            return CellValue::Error(CellError::Value);
        };
        let row = match self.number(1) {
            Ok(n) if n >= 1.0 => n as u64,
            Ok(_) => return CellValue::Error(CellError::Value),
            Err(e) => return e,
        };
        let col = if self.args.len() >= 3 {
            match self.number(2) {
                Ok(n) if n >= 1.0 => n as u64,
                Ok(_) => return CellValue::Error(CellError::Value),
                Err(e) => return e,
            }
        } else {
            1
        };
        if row > rect.rows() || col > rect.cols() {
            return CellValue::Error(CellError::Ref);
        }
        self.reader.value(CellAddr::new(
            rect.r1 + row as u32 - 1,
            rect.c1 + col as u32 - 1,
        ))
    }

    fn r#match(&self) -> CellValue {
        // MATCH(key, range, [0]) — exact match only.
        let key = self.scalar(0);
        if let CellValue::Error(_) = key {
            return key;
        }
        let Some(rect) = self.arg_rect(1) else {
            return CellValue::Error(CellError::Value);
        };
        let cells: Vec<CellAddr> = if rect.cols() == 1 {
            (rect.r1..=rect.r2)
                .map(|r| CellAddr::new(r, rect.c1))
                .collect()
        } else if rect.rows() == 1 {
            (rect.c1..=rect.c2)
                .map(|c| CellAddr::new(rect.r1, c))
                .collect()
        } else {
            return CellValue::Error(CellError::Na);
        };
        for (i, a) in cells.iter().enumerate() {
            let v = self.reader.value(*a);
            if !v.is_empty() && compare(&v, &key) == std::cmp::Ordering::Equal {
                return CellValue::Number((i + 1) as f64);
            }
        }
        CellValue::Error(CellError::Na)
    }

    fn sumif(&self) -> CellValue {
        // SUMIF(range, criteria, [sum_range]).
        let Some(rect) = self.arg_rect(0) else {
            return CellValue::Error(CellError::Value);
        };
        let crit = match self.text(1) {
            Ok(c) => c,
            Err(e) => return e,
        };
        let sum_rect = if self.args.len() >= 3 {
            match self.arg_rect(2) {
                Some(r) => r,
                None => return CellValue::Error(CellError::Value),
            }
        } else {
            rect
        };
        let pred = Criteria::parse(&crit);
        let mut total = 0.0;
        for r in 0..rect.rows() as u32 {
            for c in 0..rect.cols() as u32 {
                let v = self.reader.value(CellAddr::new(rect.r1 + r, rect.c1 + c));
                if pred.matches(&v) {
                    let sv = self
                        .reader
                        .value(CellAddr::new(sum_rect.r1 + r, sum_rect.c1 + c));
                    if let CellValue::Number(n) = sv {
                        total += n;
                    }
                }
            }
        }
        CellValue::Number(total)
    }

    fn countif(&self) -> CellValue {
        let Some(rect) = self.arg_rect(0) else {
            return CellValue::Error(CellError::Value);
        };
        let crit = match self.text(1) {
            Ok(c) => c,
            Err(e) => return e,
        };
        let pred = Criteria::parse(&crit);
        let mut n = 0u64;
        self.reader.for_each_value(rect, &mut |_, v| {
            if pred.matches(&v.to_value()) {
                n += 1;
            }
        });
        CellValue::Number(n as f64)
    }
}

/// SUMIF/COUNTIF criteria: `">5"`, `"<=3"`, `"<>x"`, `"abc"`, `"=abc"`.
struct Criteria {
    op: BinOp,
    rhs: CellValue,
}

impl Criteria {
    fn parse(s: &str) -> Criteria {
        let (op, rest) = if let Some(r) = s.strip_prefix("<>") {
            (BinOp::Ne, r)
        } else if let Some(r) = s.strip_prefix(">=") {
            (BinOp::Ge, r)
        } else if let Some(r) = s.strip_prefix("<=") {
            (BinOp::Le, r)
        } else if let Some(r) = s.strip_prefix('>') {
            (BinOp::Gt, r)
        } else if let Some(r) = s.strip_prefix('<') {
            (BinOp::Lt, r)
        } else if let Some(r) = s.strip_prefix('=') {
            (BinOp::Eq, r)
        } else {
            (BinOp::Eq, s)
        };
        let rhs = match rest.trim().parse::<f64>() {
            Ok(n) => CellValue::Number(n),
            Err(_) => CellValue::Text(rest.to_string()),
        };
        Criteria { op, rhs }
    }

    fn matches(&self, v: &CellValue) -> bool {
        if v.is_empty() {
            return false;
        }
        matches!(
            binary(self.op, v.clone(), self.rhs.clone()),
            CellValue::Bool(true)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn sheet() -> SparseSheet {
        let mut s = SparseSheet::new();
        // A1:A5 = 1..5, B1:B5 = words, C1 = TRUE
        for i in 0..5u32 {
            s.set_value(CellAddr::new(i, 0), (i + 1) as i64);
        }
        for (i, w) in ["apple", "banana", "cherry", "apple", "fig"]
            .iter()
            .enumerate()
        {
            s.set_value(CellAddr::new(i as u32, 1), *w);
        }
        s.set_value(CellAddr::new(0, 2), true);
        s
    }

    fn eval(src: &str, s: &SparseSheet) -> CellValue {
        Evaluator::new().eval(&parse(src).unwrap(), &SheetReader(s))
    }

    fn num(src: &str, s: &SparseSheet) -> f64 {
        match eval(src, s) {
            CellValue::Number(n) => n,
            v => panic!("{src} => {v:?}, expected number"),
        }
    }

    #[test]
    fn arithmetic_and_coercion() {
        let s = sheet();
        assert_eq!(num("1+2*3", &s), 7.0);
        assert_eq!(num("(1+2)*3", &s), 9.0);
        assert_eq!(num("-A1+10", &s), 9.0);
        assert_eq!(eval("A1&A2", &s), CellValue::Text("12".into()));
        assert_eq!(num("(A1&A2)+0", &s), 12.0, "numeric text coerces back");
        assert_eq!(num("50%*200", &s), 100.0);
        assert_eq!(eval("1/0", &s), CellValue::Error(CellError::Div0));
    }

    #[test]
    fn aggregates() {
        let s = sheet();
        assert_eq!(num("SUM(A1:A5)", &s), 15.0);
        assert_eq!(num("AVERAGE(A1:A5)", &s), 3.0);
        assert_eq!(num("MIN(A1:A5)", &s), 1.0);
        assert_eq!(num("MAX(A1:A5)", &s), 5.0);
        assert_eq!(num("COUNT(A1:B5)", &s), 5.0, "only numbers count");
        assert_eq!(num("COUNTA(A1:B5)", &s), 10.0);
        assert_eq!(num("MEDIAN(A1:A5)", &s), 3.0);
        assert_eq!(num("MEDIAN(A1:A4)", &s), 2.5);
        assert_eq!(num("PRODUCT(A1:A5)", &s), 120.0);
        assert_eq!(num("SUM(A1:A5,100,A1)", &s), 116.0);
        // Empty cells are skipped, not zero-counted.
        assert_eq!(num("AVERAGE(A1:A10)", &s), 3.0);
    }

    #[test]
    fn conditionals() {
        let s = sheet();
        assert_eq!(num("IF(A1>0,10,20)", &s), 10.0);
        assert_eq!(num("IF(A1>5,10,20)", &s), 20.0);
        assert_eq!(eval("IF(C1,\"y\",\"n\")", &s), CellValue::Text("y".into()));
        assert_eq!(eval("AND(A1>0,A2>1)", &s), CellValue::Bool(true));
        assert_eq!(eval("OR(A1>99,A2>99)", &s), CellValue::Bool(false));
        assert_eq!(eval("NOT(C1)", &s), CellValue::Bool(false));
        assert_eq!(eval("ISBLANK(Z99)", &s), CellValue::Bool(true));
        assert_eq!(eval("ISBLANK(A1)", &s), CellValue::Bool(false));
        assert_eq!(eval("ISNUMBER(A1)", &s), CellValue::Bool(true));
        assert_eq!(eval("ISTEXT(B1)", &s), CellValue::Bool(true));
        assert_eq!(eval("ISERROR(1/0)", &s), CellValue::Bool(true));
    }

    #[test]
    fn math_functions() {
        let s = sheet();
        assert_eq!(num("ABS(-3)", &s), 3.0);
        assert_eq!(num("SQRT(16)", &s), 4.0);
        assert_eq!(eval("SQRT(-1)", &s), CellValue::Error(CellError::Num));
        assert!((num("LN(EXP(2))", &s) - 2.0).abs() < 1e-12);
        assert_eq!(num("LOG(100)", &s), 2.0);
        assert_eq!(num("LOG(8,2)", &s), 3.0);
        assert_eq!(num("POWER(2,10)", &s), 1024.0);
        assert_eq!(num("MOD(7,3)", &s), 1.0);
        assert_eq!(num("MOD(-7,3)", &s), 2.0, "Excel MOD follows divisor sign");
        assert_eq!(num("ROUND(2.567,2)", &s), 2.57);
        assert_eq!(num("ROUND(2.5)", &s), 3.0);
        assert_eq!(num("FLOOR(7.7,2)", &s), 6.0);
        assert_eq!(num("CEILING(7.1,2)", &s), 8.0);
        assert_eq!(num("INT(-1.5)", &s), -2.0);
        assert_eq!(num("SIGN(-9)", &s), -1.0);
    }

    #[test]
    fn text_functions() {
        let s = sheet();
        assert_eq!(num("LEN(B1)", &s), 5.0);
        assert_eq!(eval("UPPER(B1)", &s), CellValue::Text("APPLE".into()));
        assert_eq!(eval("LOWER(\"ABC\")", &s), CellValue::Text("abc".into()));
        assert_eq!(eval("TRIM(\"  x  \")", &s), CellValue::Text("x".into()));
        assert_eq!(
            eval("CONCATENATE(B1,\"-\",A1)", &s),
            CellValue::Text("apple-1".into())
        );
        assert_eq!(eval("LEFT(B1,3)", &s), CellValue::Text("app".into()));
        assert_eq!(eval("RIGHT(B1,2)", &s), CellValue::Text("le".into()));
        assert_eq!(eval("MID(B1,2,3)", &s), CellValue::Text("ppl".into()));
        assert_eq!(num("SEARCH(\"PLE\",B1)", &s), 3.0);
        assert_eq!(
            eval("SEARCH(\"zz\",B1)", &s),
            CellValue::Error(CellError::Value)
        );
    }

    #[test]
    fn lookups() {
        let s = sheet();
        // VLOOKUP over B1:B5 keyed... use A as key col: VLOOKUP(3, A1:B5, 2).
        assert_eq!(
            eval("VLOOKUP(3,A1:B5,2)", &s),
            CellValue::Text("cherry".into())
        );
        assert_eq!(
            eval("VLOOKUP(99,A1:B5,2)", &s),
            CellValue::Error(CellError::Na)
        );
        assert_eq!(
            eval("VLOOKUP(3,A1:B5,9)", &s),
            CellValue::Error(CellError::Ref)
        );
        assert_eq!(num("MATCH(\"cherry\",B1:B5)", &s), 3.0);
        assert_eq!(
            eval("INDEX(A1:B5,3,2)", &s),
            CellValue::Text("cherry".into())
        );
        assert_eq!(num("HLOOKUP(1,A1:B5,2)", &s), 2.0);
    }

    #[test]
    fn criteria_functions() {
        let s = sheet();
        assert_eq!(num("COUNTIF(A1:A5,\">2\")", &s), 3.0);
        assert_eq!(num("COUNTIF(B1:B5,\"apple\")", &s), 2.0);
        assert_eq!(num("COUNTIF(B1:B5,\"<>apple\")", &s), 3.0);
        assert_eq!(num("SUMIF(A1:A5,\">=4\")", &s), 9.0);
        // Criteria over B, summing A.
        assert_eq!(num("SUMIF(B1:B5,\"apple\",A1:A5)", &s), 5.0);
    }

    #[test]
    fn unknown_function_is_name_error() {
        let s = sheet();
        assert_eq!(eval("FROBNICATE(1)", &s), CellValue::Error(CellError::Name));
    }

    #[test]
    fn multi_cell_range_in_scalar_context_is_value_error() {
        let s = sheet();
        assert_eq!(eval("A1:A5+1", &s), CellValue::Error(CellError::Value));
        // 1x1 range dereferences.
        assert_eq!(num("A1:A1+1", &s), 2.0);
    }

    #[test]
    fn errors_propagate_through_aggregates() {
        let mut s = sheet();
        s.set(
            CellAddr::new(2, 0),
            dataspread_grid::Cell {
                value: CellValue::Error(CellError::Div0),
                formula: Some("1/0".into()),
            },
        );
        assert_eq!(eval("SUM(A1:A5)", &s), CellValue::Error(CellError::Div0));
    }

    #[test]
    fn comparisons_are_spreadsheet_style() {
        let s = sheet();
        assert_eq!(eval("\"Apple\"=\"apple\"", &s), CellValue::Bool(true));
        assert_eq!(eval("2>1", &s), CellValue::Bool(true));
        assert_eq!(
            eval("\"a\">2", &s),
            CellValue::Bool(true),
            "text sorts above numbers"
        );
    }
}
