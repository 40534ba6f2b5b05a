//! Formula abstract syntax. A reference is relative to its formula's cell
//! ([`CellRef`]), so one AST serves a fill-down run; it names a cell once
//! resolved there. At the origin an offset is an index, so an expression
//! from [`crate::parser::parse`] reads and prints the cells it spells.

use std::fmt;

use dataspread_grid::addr::col_to_letters;
use dataspread_grid::{CellAddr, Rect};

/// A single-cell reference as written in a formula's cell: a relative axis
/// holds its offset from that cell, a `$` axis its index (`$B$2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRef {
    pub row: i64,
    pub col: i64,
    pub abs_row: bool,
    pub abs_col: bool,
}

impl CellRef {
    pub fn relative(row: u32, col: u32) -> Self {
        CellRef {
            row: row.into(),
            col: col.into(),
            abs_row: false,
            abs_col: false,
        }
    }

    /// The reference, written in cell `at`, to cell `to` with these `$`s.
    pub(crate) fn to(to: CellAddr, abs_row: bool, abs_col: bool, at: CellAddr) -> Self {
        let from = |abs: bool, at: u32| if abs { 0 } else { i64::from(at) };
        CellRef {
            row: i64::from(to.row) - from(abs_row, at.row),
            col: i64::from(to.col) - from(abs_col, at.col),
            abs_row,
            abs_col,
        }
    }

    /// The cell this reference names from cell `at`, if on the sheet.
    pub(crate) fn resolve(&self, at: CellAddr) -> Option<CellAddr> {
        CellAddr::new(
            if self.abs_row { 0 } else { at.row },
            if self.abs_col { 0 } else { at.col },
        )
        .checked_offset(self.row, self.col)
    }
}

/// A reference or expression as spelled in the formula of cell `.1`; a
/// reference off the sheet there prints as `#REF!`.
pub struct At<'a, T>(pub &'a T, pub CellAddr);

impl fmt::Display for At<'_, CellRef> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = self.0;
        let Some(to) = r.resolve(self.1) else {
            return f.write_str("#REF!");
        };
        write!(
            f,
            "{}{}{}{}",
            if r.abs_col { "$" } else { "" },
            col_to_letters(to.col),
            if r.abs_row { "$" } else { "" },
            u64::from(to.row) + 1
        )
    }
}

/// Binary operators, lowest precedence first in the parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    Concat,
    Add,
    Sub,
    Mul,
    Div,
    Pow,
}

impl BinOp {
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Concat => "&",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Pow => "^",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Neg,
    Plus,
}

/// A parsed formula expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Number(f64),
    Text(String),
    Bool(bool),
    Ref(CellRef),
    Range(CellRef, CellRef),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Postfix percent: `50%` = 0.5.
    Percent(Box<Expr>),
    Func(String, Vec<Expr>),
}

impl Expr {
    /// The rectangle a reference or range covers in the formula of cell
    /// `at`; `None` for any other expression, or a corner off the sheet.
    pub fn rect_at(&self, at: CellAddr) -> Option<Rect> {
        match self {
            Expr::Ref(r) => Some(Rect::cell(r.resolve(at)?)),
            Expr::Range(a, b) => {
                let (a, b) = (a.resolve(at)?, b.resolve(at)?);
                Some(Rect::new(a.row, a.col, b.row, b.col))
            }
            _ => None,
        }
    }
}

impl fmt::Display for At<'_, Expr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (e, at) = (self.0, self.1);
        match e {
            Expr::Number(n) => {
                if *n == n.trunc() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Expr::Text(s) => write!(f, "\"{}\"", s.replace('"', "\"\"")),
            Expr::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Expr::Ref(r) => write!(f, "{}", At(r, at)),
            Expr::Range(a, b) => write!(f, "{}:{}", At(a, at), At(b, at)),
            Expr::Unary(op, e) => {
                let sign = if *op == UnOp::Neg { "-" } else { "+" };
                write!(f, "{sign}{}", At(&**e, at))
            }
            Expr::Binary(op, a, b) => {
                // Re-rendering fully parenthesized keeps round-trips exact
                // without tracking the original precedence context.
                write!(f, "({}{}{})", At(&**a, at), op.symbol(), At(&**b, at))
            }
            Expr::Percent(e) => write!(f, "{}%", At(&**e, at)),
            Expr::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{}", At(a, at))?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&At(self, CellAddr::default()), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cellref_display() {
        let a1 = CellAddr::default();
        assert_eq!(At(&CellRef::relative(1, 1), a1).to_string(), "B2");
        let abs = CellRef {
            row: 0,
            col: 26,
            abs_row: true,
            abs_col: true,
        };
        assert_eq!(At(&abs, a1).to_string(), "$AA$1");
        // `B2` written in C3 is one up and one left, wherever it goes.
        let up_left = CellRef::to(CellAddr::new(1, 1), false, false, CellAddr::new(2, 2));
        assert_eq!((up_left.row, up_left.col), (-1, -1));
        assert_eq!(At(&up_left, CellAddr::new(2, 2)).to_string(), "B2");
        assert_eq!(At(&up_left, CellAddr::new(9, 3)).to_string(), "C9");
        assert_eq!(At(&up_left, a1).to_string(), "#REF!", "above the origin");
        let mixed = CellRef::to(CellAddr::new(1, 1), true, false, CellAddr::new(2, 2));
        assert_eq!(At(&mixed, CellAddr::new(9, 3)).to_string(), "C$2");
    }

    #[test]
    fn expr_display() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Func(
                "SUM".into(),
                vec![Expr::Range(
                    CellRef::relative(0, 0),
                    CellRef::relative(9, 0),
                )],
            )),
            Box::new(Expr::Number(2.0)),
        );
        assert_eq!(e.to_string(), "(SUM(A1:A10)+2)");
        assert_eq!(At(&e, CellAddr::new(4, 1)).to_string(), "(SUM(B5:B14)+2)");
        assert_eq!(Expr::Text("a\"b".into()).to_string(), "\"a\"\"b\"");
        assert_eq!(
            Expr::Percent(Box::new(Expr::Number(50.0))).to_string(),
            "50%"
        );
    }

    #[test]
    fn as_rect() {
        let e = Expr::Ref(CellRef::relative(2, 3));
        assert_eq!(e.rect_at(CellAddr::default()), Some(Rect::new(2, 3, 2, 3)));
        assert_eq!(e.rect_at(CellAddr::new(1, 1)), Some(Rect::new(3, 4, 3, 4)));
        let last = CellAddr::new(u32::MAX, 0);
        assert_eq!(e.rect_at(last), None, "past the last row");
        assert_eq!(Expr::Number(1.0).rect_at(CellAddr::default()), None);
    }
}
