//! Recursive-descent formula parser with precedence climbing.
//!
//! Grammar (lowest precedence first):
//! `cmp → concat (( = | <> | < | <= | > | >= ) concat)*`
//! `concat → add (& add)*`
//! `add → mul (( + | - ) mul)*`
//! `mul → pow (( * | / ) pow)*`
//! `pow → unary (^ unary)*` (left-assoc, matching Excel)
//! `unary → ( - | + ) unary | postfix`
//! `postfix → primary %*`
//! `primary → number | string | TRUE | FALSE | ref[:ref] | func(args) | (expr)`

use crate::ast::{BinOp, CellRef, Expr, UnOp};
use crate::error::ParseError;
use crate::lexer::{lex, Token};

use dataspread_grid::addr::{letters_to_col, number_to_row};
use dataspread_grid::CellAddr;

/// Parse a formula body (without the leading `=`) as written in `A1`.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    parse_at(src, CellAddr::default())
}

/// Parse a formula body written in cell `cell` ([`CellRef`]).
pub fn parse_at(src: &str, cell: CellAddr) -> Result<Expr, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        cell,
    };
    let e = p.cmp()?;
    if p.pos != p.tokens.len() {
        return Err(ParseError::new(
            p.tokens[p.pos].1,
            "unexpected trailing input",
        ));
    }
    Ok(e)
}

struct Parser<'a> {
    tokens: Vec<(Token<'a>, usize)>,
    pos: usize,
    /// The cell whose formula this is.
    cell: CellAddr,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn here(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map_or(0, |(_, p)| *p)
    }

    fn bump(&mut self) -> Option<Token<'a>> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Token<'a>, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(ParseError::new(self.here(), format!("expected {what}")))
        }
    }

    fn cmp(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.concat()?;
        loop {
            let op = match self.peek() {
                Some(Token::Eq) => BinOp::Eq,
                Some(Token::Ne) => BinOp::Ne,
                Some(Token::Lt) => BinOp::Lt,
                Some(Token::Le) => BinOp::Le,
                Some(Token::Gt) => BinOp::Gt,
                Some(Token::Ge) => BinOp::Ge,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.concat()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn concat(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.add()?;
        while self.peek() == Some(&Token::Amp) {
            self.pos += 1;
            let rhs = self.add()?;
            lhs = Expr::Binary(BinOp::Concat, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn add(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn mul(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.pow()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.pow()?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn pow(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary()?;
        while self.peek() == Some(&Token::Caret) {
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = Expr::Binary(BinOp::Pow, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Some(Token::Minus) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::Neg, Box::new(self.unary()?)))
            }
            Some(Token::Plus) => {
                self.pos += 1;
                Ok(Expr::Unary(UnOp::Plus, Box::new(self.unary()?)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        while self.peek() == Some(&Token::Percent) {
            self.pos += 1;
            e = Expr::Percent(Box::new(e));
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        let at = self.here();
        match self.bump() {
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::Text(s)) => Ok(Expr::Text(s)),
            Some(Token::LParen) => {
                let e = self.cmp()?;
                self.expect(&Token::RParen, ")")?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                if self.peek() == Some(&Token::LParen) {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() == Some(&Token::RParen) {
                        self.pos += 1;
                    } else {
                        loop {
                            args.push(self.cmp()?);
                            match self.bump() {
                                Some(Token::Comma) => continue,
                                Some(Token::RParen) => break,
                                _ => return Err(ParseError::new(at, "expected , or ) in call")),
                            }
                        }
                    }
                    return Ok(Expr::Func(name.to_ascii_uppercase(), args));
                }
                match name.to_ascii_uppercase().as_str() {
                    "TRUE" => return Ok(Expr::Bool(true)),
                    "FALSE" => return Ok(Expr::Bool(false)),
                    _ => {}
                }
                let first = parse_cellref(name, self.cell)
                    .ok_or_else(|| ParseError::new(at, format!("unknown identifier {name:?}")))?;
                if self.peek() == Some(&Token::Colon) {
                    self.pos += 1;
                    let at2 = self.here();
                    match self.bump() {
                        Some(Token::Ident(second)) => {
                            let second = parse_cellref(second, self.cell).ok_or_else(|| {
                                ParseError::new(at2, "expected cell reference after :")
                            })?;
                            Ok(Expr::Range(first, second))
                        }
                        _ => Err(ParseError::new(at2, "expected cell reference after :")),
                    }
                } else {
                    Ok(Expr::Ref(first))
                }
            }
            _ => Err(ParseError::new(at, "expected expression")),
        }
    }
}

/// Parse `B2`, `$B2`, `B$2`, `$B$2`, written in cell `cell`.
pub fn parse_cellref(s: &str, cell: CellAddr) -> Option<CellRef> {
    let bytes = s.as_bytes();
    let mut i = 0;
    let abs_col = bytes.first() == Some(&b'$');
    if abs_col {
        i += 1;
    }
    let col_start = i;
    while i < bytes.len() && bytes[i].is_ascii_alphabetic() {
        i += 1;
    }
    if i == col_start {
        return None;
    }
    let col = letters_to_col(&s[col_start..i]).ok()?;
    let abs_row = bytes.get(i) == Some(&b'$');
    if abs_row {
        i += 1;
    }
    let row_start = i;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    if row_start == i || i != bytes.len() {
        return None;
    }
    let row = number_to_row(&s[row_start..i])?;
    Some(CellRef::to(CellAddr::new(row, col), abs_row, abs_col, cell))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::At;

    #[test]
    fn precedence() {
        let e = parse("1+2*3").unwrap();
        assert_eq!(e.to_string(), "(1+(2*3))");
        let e = parse("(1+2)*3").unwrap();
        assert_eq!(e.to_string(), "((1+2)*3)");
        let e = parse("1&2=3").unwrap();
        assert_eq!(e.to_string(), "((1&2)=3)");
        let e = parse("2^3^2").unwrap();
        assert_eq!(e.to_string(), "((2^3)^2)", "Excel's ^ is left-assoc");
        let e = parse("-2^2").unwrap();
        assert_eq!(e.to_string(), "(-2^2)");
    }

    #[test]
    fn functions_and_ranges() {
        let e = parse("AVERAGE(B2:C2)+D2+E2").unwrap();
        assert_eq!(e.to_string(), "((AVERAGE(B2:C2)+D2)+E2)");
        let e = parse("IF(A1>0,SUM(A1:A10),0)").unwrap();
        assert_eq!(e.to_string(), "IF((A1>0),SUM(A1:A10),0)");
        let e = parse("sum(a1:a2)").unwrap();
        assert_eq!(e.to_string(), "SUM(A1:A2)", "names are upper-cased");
        let e = parse("COUNT()").unwrap();
        assert_eq!(e.to_string(), "COUNT()");
    }

    #[test]
    fn absolute_refs() {
        let e = parse("$A$1+B$2+$C3").unwrap();
        assert_eq!(e.to_string(), "(($A$1+B$2)+$C3)");
    }

    #[test]
    fn percent_postfix() {
        let e = parse("50%+1").unwrap();
        assert_eq!(e.to_string(), "(50%+1)");
        let e = parse("50%%").unwrap();
        assert_eq!(e.to_string(), "50%%");
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("1+").is_err());
        assert!(parse("SUM(1,").is_err());
        assert!(parse("A1:").is_err());
        assert!(parse("A1:5").is_err());
        assert!(parse("NOTAREF_").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn bool_literals() {
        assert_eq!(parse("TRUE").unwrap(), Expr::Bool(true));
        assert_eq!(parse("false").unwrap(), Expr::Bool(false));
        // But TRUE() is a call.
        assert_eq!(parse("TRUE()").unwrap().to_string(), "TRUE()");
    }

    #[test]
    fn cellref_forms() {
        assert_eq!(
            parse_cellref("B2", CellAddr::default()),
            Some(CellRef::relative(1, 1))
        );
        assert_eq!(
            parse_cellref("$B$2", CellAddr::default()),
            Some(CellRef {
                row: 1,
                col: 1,
                abs_row: true,
                abs_col: true
            })
        );
        assert!(parse_cellref("B$2", CellAddr::default()).unwrap().abs_row);
        assert_eq!(parse_cellref("ZZZ", CellAddr::default()), None);
        assert_eq!(parse_cellref("B0", CellAddr::default()), None);
        assert_eq!(parse_cellref("2B", CellAddr::default()), None);
    }

    #[test]
    fn a_formula_parsed_in_its_cell_prints_back_there() {
        let cell = CellAddr::new(4, 2);
        let e = parse_at("SUM(A1:B$2)+$C3", cell).unwrap();
        assert_eq!(At(&e, cell).to_string(), "(SUM(A1:B$2)+$C3)");
        // One down and one right, the relative axes follow.
        let next = CellAddr::new(5, 3);
        assert_eq!(At(&e, next).to_string(), "(SUM(B2:C$2)+$C4)");
        assert_eq!(parse_at("SUM(B2:C$2)+$C4", next).unwrap(), e);
    }

    #[test]
    fn the_last_row_and_column_round_trip() {
        let corner = CellRef::relative(u32::MAX, u32::MAX);
        let a1 = CellAddr::default();
        assert_eq!(At(&corner, a1).to_string(), "MWLQKWV4294967296");
        let src = "SUM(A4294967295:MWLQKWV4294967296)+$MWLQKWV$4294967296";
        let e = parse(src).unwrap();
        assert_eq!(e.to_string(), format!("({src})"));
        assert_eq!(parse(&e.to_string()).unwrap(), e);
        assert_eq!(parse_cellref("A4294967297", CellAddr::default()), None);
        assert_eq!(parse_cellref("MWLQKWW1", CellAddr::default()), None);
    }
}
