//! Formula lexer.

use crate::error::ParseError;

/// Lexical tokens of the formula language.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    Number(f64),
    Text(String),
    /// Identifier: function name, TRUE/FALSE, or a cell reference (the
    /// parser decides), borrowed from the source. `$` signs are kept for
    /// reference parsing.
    Ident(&'a str),
    Plus,
    Minus,
    Star,
    Slash,
    Caret,
    Percent,
    Amp,
    LParen,
    RParen,
    Comma,
    Colon,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Tokenize a formula body (without the leading `=`).
pub fn lex(src: &str) -> Result<Vec<(Token<'_>, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                i += 1;
            }
            b'+' => {
                out.push((Token::Plus, start));
                i += 1;
            }
            b'-' => {
                out.push((Token::Minus, start));
                i += 1;
            }
            b'*' => {
                out.push((Token::Star, start));
                i += 1;
            }
            b'/' => {
                out.push((Token::Slash, start));
                i += 1;
            }
            b'^' => {
                out.push((Token::Caret, start));
                i += 1;
            }
            b'%' => {
                out.push((Token::Percent, start));
                i += 1;
            }
            b'&' => {
                out.push((Token::Amp, start));
                i += 1;
            }
            b'(' => {
                out.push((Token::LParen, start));
                i += 1;
            }
            b')' => {
                out.push((Token::RParen, start));
                i += 1;
            }
            b',' => {
                out.push((Token::Comma, start));
                i += 1;
            }
            b':' => {
                out.push((Token::Colon, start));
                i += 1;
            }
            b'=' => {
                out.push((Token::Eq, start));
                i += 1;
            }
            b'<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    out.push((Token::Ne, start));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push((Token::Le, start));
                    i += 2;
                } else {
                    out.push((Token::Lt, start));
                    i += 1;
                }
            }
            b'>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    out.push((Token::Ge, start));
                    i += 2;
                } else {
                    out.push((Token::Gt, start));
                    i += 1;
                }
            }
            b'"' => {
                // Quoted string; "" escapes a quote.
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(ParseError::new(start, "unterminated string"));
                    }
                    if bytes[i] == b'"' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'"' {
                            s.push('"');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // Multi-byte UTF-8 is copied verbatim.
                        let ch_len = utf8_len(bytes[i]);
                        s.push_str(&src[i..i + ch_len]);
                        i += ch_len;
                    }
                }
                out.push((Token::Text(s), start));
            }
            b'0'..=b'9' | b'.' => {
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_digit() || bytes[j] == b'.') {
                    j += 1;
                }
                // Scientific notation.
                if j < bytes.len() && (bytes[j] == b'e' || bytes[j] == b'E') {
                    let mut k = j + 1;
                    if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                        k += 1;
                    }
                    if k < bytes.len() && bytes[k].is_ascii_digit() {
                        j = k;
                        while j < bytes.len() && bytes[j].is_ascii_digit() {
                            j += 1;
                        }
                    }
                }
                let text = &src[i..j];
                let n: f64 = text
                    .parse()
                    .map_err(|_| ParseError::new(start, format!("bad number {text:?}")))?;
                out.push((Token::Number(n), start));
                i = j;
            }
            b'$' | b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric()
                        || bytes[j] == b'_'
                        || bytes[j] == b'$'
                        || bytes[j] == b'.')
                {
                    j += 1;
                }
                out.push((Token::Ident(&src[i..j]), start));
                i = j;
            }
            _ => {
                return Err(ParseError::new(
                    start,
                    format!("unexpected character {:?}", src[start..].chars().next()),
                ))
            }
        }
    }
    Ok(out)
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src).unwrap().into_iter().map(|(t, _)| t).collect()
    }

    #[test]
    fn operators_and_numbers() {
        assert_eq!(
            toks("1+2.5*3"),
            vec![
                Token::Number(1.0),
                Token::Plus,
                Token::Number(2.5),
                Token::Star,
                Token::Number(3.0)
            ]
        );
        assert_eq!(toks("1e3"), vec![Token::Number(1000.0)]);
        assert_eq!(toks("2E-2"), vec![Token::Number(0.02)]);
    }

    #[test]
    fn comparisons() {
        assert_eq!(
            toks("a<=b<>c>=d"),
            vec![
                Token::Ident("a"),
                Token::Le,
                Token::Ident("b"),
                Token::Ne,
                Token::Ident("c"),
                Token::Ge,
                Token::Ident("d")
            ]
        );
    }

    #[test]
    fn strings_with_escapes() {
        assert_eq!(
            toks("\"he said \"\"hi\"\"\""),
            vec![Token::Text("he said \"hi\"".into())]
        );
        assert!(lex("\"open").is_err());
    }

    #[test]
    fn refs_keep_dollar_signs() {
        assert_eq!(
            toks("$A$1:B2"),
            vec![Token::Ident("$A$1"), Token::Colon, Token::Ident("B2")]
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(lex("1 # 2").is_err());
    }
}
