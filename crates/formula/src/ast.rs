//! Formula abstract syntax.

use std::fmt;

use dataspread_grid::addr::col_to_letters;
use dataspread_grid::{CellAddr, Rect};

/// A single-cell reference with absolute/relative flags (`$B$2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellRef {
    pub row: u32,
    pub col: u32,
    pub abs_row: bool,
    pub abs_col: bool,
}

impl CellRef {
    pub fn relative(row: u32, col: u32) -> Self {
        CellRef {
            row,
            col,
            abs_row: false,
            abs_col: false,
        }
    }

    pub fn addr(&self) -> CellAddr {
        CellAddr::new(self.row, self.col)
    }
}

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}{}",
            if self.abs_col { "$" } else { "" },
            col_to_letters(self.col),
            if self.abs_row { "$" } else { "" },
            u64::from(self.row) + 1
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
    /// The rectangle covered by a reference or range expression.
    pub fn as_rect(&self) -> Option<Rect> {
        match self {
            Expr::Ref(r) => Some(Rect::cell(r.addr())),
            Expr::Range(a, b) => Some(Rect::new(a.row, a.col, b.row, b.col)),
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Number(n) => {
                if *n == n.trunc() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Expr::Text(s) => write!(f, "\"{}\"", s.replace('"', "\"\"")),
            Expr::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Expr::Ref(r) => write!(f, "{r}"),
            Expr::Range(a, b) => write!(f, "{a}:{b}"),
            Expr::Unary(op, e) => {
                write!(f, "{}{}", if *op == UnOp::Neg { "-" } else { "+" }, e)
            }
            Expr::Binary(op, a, b) => {
                // Re-rendering fully parenthesized keeps round-trips exact
                // without tracking the original precedence context.
                write!(f, "({}{}{})", a, op.symbol(), b)
            }
            Expr::Percent(e) => write!(f, "{e}%"),
            Expr::Func(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cellref_display() {
        assert_eq!(CellRef::relative(1, 1).to_string(), "B2");
        let abs = CellRef {
            row: 0,
            col: 26,
            abs_row: true,
            abs_col: true,
        };
        assert_eq!(abs.to_string(), "$AA$1");
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
        assert_eq!(Expr::Text("a\"b".into()).to_string(), "\"a\"\"b\"");
        assert_eq!(
            Expr::Percent(Box::new(Expr::Number(50.0))).to_string(),
            "50%"
        );
    }

    #[test]
    fn as_rect() {
        assert_eq!(
            Expr::Ref(CellRef::relative(2, 3)).as_rect(),
            Some(Rect::new(2, 3, 2, 3))
        );
        assert_eq!(Expr::Number(1.0).as_rect(), None);
    }
}
