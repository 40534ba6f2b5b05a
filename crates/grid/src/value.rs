//! Cell values and contents.

use std::fmt;

/// Spreadsheet error values (`#DIV/0!` and friends).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellError {
    /// Division by zero.
    Div0,
    /// A formula argument had the wrong type.
    Value,
    /// A reference was invalid (e.g. deleted or out of bounds).
    Ref,
    /// An unknown function name was used.
    Name,
    /// A lookup found nothing.
    Na,
    /// A numeric result was out of range.
    Num,
    /// A formula participates in a reference cycle.
    Circular,
}

impl CellError {
    /// The one-byte code every on-disk and wire format stores this error
    /// as. Stable: never renumber.
    pub fn code(self) -> u8 {
        match self {
            CellError::Div0 => 0,
            CellError::Value => 1,
            CellError::Ref => 2,
            CellError::Name => 3,
            CellError::Na => 4,
            CellError::Num => 5,
            CellError::Circular => 6,
        }
    }

    /// Inverse of [`CellError::code`]; `None` for an unassigned byte.
    pub fn from_code(code: u8) -> Option<CellError> {
        Some(match code {
            0 => CellError::Div0,
            1 => CellError::Value,
            2 => CellError::Ref,
            3 => CellError::Name,
            4 => CellError::Na,
            5 => CellError::Num,
            6 => CellError::Circular,
            _ => return None,
        })
    }
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CellError::Div0 => "#DIV/0!",
            CellError::Value => "#VALUE!",
            CellError::Ref => "#REF!",
            CellError::Name => "#NAME?",
            CellError::Na => "#N/A",
            CellError::Num => "#NUM!",
            CellError::Circular => "#CIRC!",
        };
        f.write_str(s)
    }
}

/// The value held by (or computed for) a cell.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum CellValue {
    /// An empty cell (blank).
    #[default]
    Empty,
    /// A numeric value. Spreadsheets use doubles throughout.
    Number(f64),
    /// A text value.
    Text(String),
    /// A boolean value.
    Bool(bool),
    /// An error value.
    Error(CellError),
}

impl CellValue {
    pub fn is_empty(&self) -> bool {
        matches!(self, CellValue::Empty)
    }

    /// Numeric view used by arithmetic: numbers as-is, booleans as 0/1,
    /// empty as 0, numeric-looking text coerced, otherwise `None`.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            CellValue::Number(n) => Some(*n),
            CellValue::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            CellValue::Empty => Some(0.0),
            CellValue::Text(s) => s.trim().parse::<f64>().ok(),
            CellValue::Error(_) => None,
        }
    }

    /// Truthiness used by IF/AND/OR: numbers nonzero, bools as-is.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            CellValue::Bool(b) => Some(*b),
            CellValue::Number(n) => Some(*n != 0.0),
            CellValue::Empty => Some(false),
            CellValue::Text(s) => match s.to_ascii_uppercase().as_str() {
                "TRUE" => Some(true),
                "FALSE" => Some(false),
                _ => None,
            },
            CellValue::Error(_) => None,
        }
    }

    /// Text view used by `&` concatenation and text functions.
    pub fn as_text(&self) -> String {
        match self {
            CellValue::Empty => String::new(),
            CellValue::Number(n) => fmt_number(*n),
            CellValue::Text(s) => s.clone(),
            CellValue::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
            CellValue::Error(e) => e.to_string(),
        }
    }
}

impl fmt::Display for CellValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_text())
    }
}

impl From<f64> for CellValue {
    fn from(n: f64) -> Self {
        CellValue::Number(n)
    }
}
impl From<i64> for CellValue {
    fn from(n: i64) -> Self {
        CellValue::Number(n as f64)
    }
}
impl From<bool> for CellValue {
    fn from(b: bool) -> Self {
        CellValue::Bool(b)
    }
}
impl From<&str> for CellValue {
    fn from(s: &str) -> Self {
        CellValue::Text(s.to_string())
    }
}
impl From<String> for CellValue {
    fn from(s: String) -> Self {
        CellValue::Text(s)
    }
}

fn fmt_number(n: f64) -> String {
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// A cell's stored contents: the (possibly computed) value plus the formula
/// source when the cell contains a formula (paper Figure 8 stores the pair).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cell {
    pub value: CellValue,
    /// Formula source *without* the leading `=`, e.g. `AVERAGE(B2:C2)+D2`.
    pub formula: Option<String>,
}

impl Cell {
    pub fn value(v: impl Into<CellValue>) -> Self {
        Cell {
            value: v.into(),
            formula: None,
        }
    }

    pub fn formula(src: impl Into<String>) -> Self {
        Cell {
            value: CellValue::Empty,
            formula: Some(src.into()),
        }
    }

    pub fn with_value(mut self, v: impl Into<CellValue>) -> Self {
        self.value = v.into();
        self
    }

    pub fn is_formula(&self) -> bool {
        self.formula.is_some()
    }

    /// True when the cell holds neither a value nor a formula.
    pub fn is_blank(&self) -> bool {
        self.value.is_empty() && self.formula.is_none()
    }
}

/// Borrowed view of one cell's value — what a storage scan hands its
/// visitor, so the window emitter, the evaluator and the aggregate fast
/// path read cells without materializing [`Cell`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScanValue<'a> {
    Empty,
    Number(f64),
    Bool(bool),
    Text(&'a str),
    Error(CellError),
}

impl ScanValue<'_> {
    /// The borrowed view of an owned value.
    pub fn of(v: &CellValue) -> ScanValue<'_> {
        match v {
            CellValue::Empty => ScanValue::Empty,
            CellValue::Number(n) => ScanValue::Number(*n),
            CellValue::Bool(b) => ScanValue::Bool(*b),
            CellValue::Text(s) => ScanValue::Text(s),
            CellValue::Error(e) => ScanValue::Error(*e),
        }
    }

    /// Materialize into an owned [`CellValue`] (texts clone).
    pub fn to_value(self) -> CellValue {
        match self {
            ScanValue::Empty => CellValue::Empty,
            ScanValue::Number(n) => CellValue::Number(n),
            ScanValue::Bool(b) => CellValue::Bool(b),
            ScanValue::Text(s) => CellValue::Text(s.to_string()),
            ScanValue::Error(e) => CellValue::Error(e),
        }
    }

    /// The owned cell a scan visitor was handed (texts clone).
    pub fn to_cell(self, formula: Option<&str>) -> Cell {
        Cell {
            value: self.to_value(),
            formula: formula.map(str::to_string),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_coercions() {
        assert_eq!(CellValue::Number(2.5).as_number(), Some(2.5));
        assert_eq!(CellValue::Bool(true).as_number(), Some(1.0));
        assert_eq!(CellValue::Empty.as_number(), Some(0.0));
        assert_eq!(CellValue::Text(" 42 ".into()).as_number(), Some(42.0));
        assert_eq!(CellValue::Text("x".into()).as_number(), None);
        assert_eq!(CellValue::Error(CellError::Div0).as_number(), None);
    }

    #[test]
    fn bool_coercions() {
        assert_eq!(CellValue::Number(0.0).as_bool(), Some(false));
        assert_eq!(CellValue::Number(-3.0).as_bool(), Some(true));
        assert_eq!(CellValue::Text("true".into()).as_bool(), Some(true));
        assert_eq!(CellValue::Text("yes".into()).as_bool(), None);
    }

    #[test]
    fn text_rendering() {
        assert_eq!(CellValue::Number(3.0).as_text(), "3");
        assert_eq!(CellValue::Number(3.25).as_text(), "3.25");
        assert_eq!(CellValue::Bool(false).as_text(), "FALSE");
        assert_eq!(CellValue::Error(CellError::Na).as_text(), "#N/A");
        assert_eq!(CellValue::Empty.as_text(), "");
    }

    #[test]
    fn cell_constructors() {
        let c = Cell::value(10i64);
        assert!(!c.is_formula());
        assert!(!c.is_blank());
        let f = Cell::formula("SUM(A1:A2)");
        assert!(f.is_formula());
        assert!(!f.is_blank());
        assert!(Cell::default().is_blank());
    }

    #[test]
    fn error_display() {
        assert_eq!(CellError::Circular.to_string(), "#CIRC!");
        assert_eq!(CellError::Value.to_string(), "#VALUE!");
    }
}
