//! Cell addresses and A1 notation.

use std::fmt;
use std::str::FromStr;

use crate::error::GridError;

/// A cell position: 0-based row and column indices.
///
/// Rendered in A1 notation (`A1` = row 0, column 0). Columns are letters
/// `A..Z, AA..`, rows are 1-based numbers, matching spreadsheet convention.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellAddr {
    pub row: u32,
    pub col: u32,
}

impl CellAddr {
    pub const fn new(row: u32, col: u32) -> Self {
        CellAddr { row, col }
    }

    /// Parse an A1-notation reference such as `B12` or `AA1`.
    pub fn parse_a1(s: &str) -> Result<Self, GridError> {
        let s = s.trim();
        let letters_end = s
            .find(|c: char| !c.is_ascii_alphabetic())
            .unwrap_or(s.len());
        if letters_end == 0 || letters_end == s.len() {
            return Err(GridError::BadA1(s.to_string()));
        }
        let col = letters_to_col(&s[..letters_end])?;
        let row =
            number_to_row(&s[letters_end..]).ok_or_else(|| GridError::BadA1(s.to_string()))?;
        Ok(CellAddr::new(row, col))
    }

    /// Render in A1 notation. The 1-based row is a `u64`, so the last row
    /// (`u32::MAX`) renders as `4294967296`.
    pub fn to_a1(self) -> String {
        format!("{}{}", col_to_letters(self.col), u64::from(self.row) + 1)
    }

    /// The address shifted by (dr, dc); saturates at zero and at
    /// `u32::MAX` on each axis.
    pub fn offset(self, dr: i64, dc: i64) -> Self {
        let clamp =
            |at: u32, d: i64| i64::from(at).saturating_add(d).clamp(0, u32::MAX.into()) as u32;
        CellAddr::new(clamp(self.row, dr), clamp(self.col, dc))
    }

    /// The address shifted by (dr, dc), or `None` when that falls off the
    /// sheet on either axis.
    pub fn checked_offset(self, dr: i64, dc: i64) -> Option<Self> {
        let shift = |at: u32, d: i64| u32::try_from(i64::from(at).checked_add(d)?).ok();
        Some(CellAddr::new(shift(self.row, dr)?, shift(self.col, dc)?))
    }
}

impl fmt::Display for CellAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_a1())
    }
}

impl FromStr for CellAddr {
    type Err = GridError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        CellAddr::parse_a1(s)
    }
}

impl From<(u32, u32)> for CellAddr {
    fn from((row, col): (u32, u32)) -> Self {
        CellAddr::new(row, col)
    }
}

/// Convert a 0-based column index to spreadsheet letters (0 → `A`, 26 → `AA`).
pub fn col_to_letters(mut col: u32) -> String {
    let mut buf = Vec::new();
    loop {
        buf.push(b'A' + (col % 26) as u8);
        if col < 26 {
            break;
        }
        col = col / 26 - 1;
    }
    buf.reverse();
    // Safety not needed: buf is pure ASCII by construction.
    String::from_utf8(buf).expect("ascii")
}

/// Convert spreadsheet letters to a 0-based column index (`A` → 0, `AA` → 26).
pub fn letters_to_col(s: &str) -> Result<u32, GridError> {
    if s.is_empty() {
        return Err(GridError::BadA1(s.to_string()));
    }
    let mut col: u64 = 0;
    for ch in s.chars() {
        let c = ch.to_ascii_uppercase();
        if !c.is_ascii_uppercase() {
            return Err(GridError::BadA1(s.to_string()));
        }
        col = col * 26 + (c as u64 - 'A' as u64 + 1);
        if col > 1 << 32 {
            return Err(GridError::BadA1(s.to_string()));
        }
    }
    Ok((col - 1) as u32)
}

/// Convert a 1-based row number to a 0-based row index (`1` → 0,
/// `4294967296` → `u32::MAX`); `None` outside that range.
/// Only ASCII digits are read: no sign, no space.
pub fn number_to_row(s: &str) -> Option<u32> {
    if !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let row_1b: u64 = s.parse().ok()?;
    (1..=1 << 32).contains(&row_1b).then(|| (row_1b - 1) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_letters_roundtrip_small() {
        assert_eq!(col_to_letters(0), "A");
        assert_eq!(col_to_letters(25), "Z");
        assert_eq!(col_to_letters(26), "AA");
        assert_eq!(col_to_letters(27), "AB");
        assert_eq!(col_to_letters(51), "AZ");
        assert_eq!(col_to_letters(52), "BA");
        assert_eq!(col_to_letters(701), "ZZ");
        assert_eq!(col_to_letters(702), "AAA");
    }

    #[test]
    fn letters_to_col_inverse() {
        for c in [0u32, 1, 25, 26, 27, 700, 701, 702, 18277, 100_000] {
            assert_eq!(letters_to_col(&col_to_letters(c)).unwrap(), c);
        }
    }

    #[test]
    fn letters_to_col_lowercase_ok() {
        assert_eq!(letters_to_col("aa").unwrap(), 26);
    }

    #[test]
    fn parse_a1_basic() {
        assert_eq!(CellAddr::parse_a1("A1").unwrap(), CellAddr::new(0, 0));
        assert_eq!(CellAddr::parse_a1("B2").unwrap(), CellAddr::new(1, 1));
        assert_eq!(CellAddr::parse_a1("AA10").unwrap(), CellAddr::new(9, 26));
    }

    #[test]
    fn parse_a1_rejects_garbage() {
        for bad in ["", "1", "A", "A0", "1A", "A-1", "A1B", "A+5", "A+1", "A 1"] {
            assert!(CellAddr::parse_a1(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn a1_display_roundtrip() {
        let a = CellAddr::new(999_999, 283);
        assert_eq!(CellAddr::parse_a1(&a.to_a1()).unwrap(), a);
        assert_eq!(a.to_string(), a.to_a1());
    }

    #[test]
    fn the_last_row_and_column_round_trip() {
        let corner = CellAddr::new(u32::MAX, u32::MAX);
        assert_eq!(corner.to_a1(), "MWLQKWV4294967296");
        assert_eq!(CellAddr::parse_a1(&corner.to_a1()).unwrap(), corner);
        for past in ["A4294967297", "MWLQKWW1"] {
            assert!(CellAddr::parse_a1(past).is_err(), "should reject {past}");
        }
    }

    #[test]
    fn offset_saturates() {
        assert_eq!(CellAddr::new(0, 0).offset(-5, -5), CellAddr::new(0, 0));
        assert_eq!(CellAddr::new(2, 3).offset(1, -1), CellAddr::new(3, 2));
        assert_eq!(CellAddr::new(0, 0).offset(-1, 0), CellAddr::new(0, 0));
        let last = CellAddr::new(u32::MAX, u32::MAX);
        assert_eq!(
            CellAddr::new(u32::MAX, 0).offset(1, 0),
            CellAddr::new(u32::MAX, 0)
        );
        assert_eq!(last.offset(i64::MAX, i64::MAX), last);
        assert_eq!(
            CellAddr::new(3, 3).offset(i64::MIN, i64::MIN),
            CellAddr::new(0, 0)
        );
    }

    #[test]
    fn checked_offset_refuses_to_leave_the_sheet() {
        assert_eq!(CellAddr::new(u32::MAX, 0).checked_offset(1, 0), None);
        assert_eq!(CellAddr::new(0, 0).checked_offset(-1, 0), None);
        assert_eq!(CellAddr::new(0, u32::MAX).checked_offset(0, 1), None);
        assert_eq!(CellAddr::new(0, 0).checked_offset(0, -1), None);
        assert_eq!(CellAddr::new(0, 0).checked_offset(i64::MAX, 0), None);
        assert_eq!(
            CellAddr::new(u32::MAX, 0).checked_offset(-1, i64::from(u32::MAX)),
            Some(CellAddr::new(u32::MAX - 1, u32::MAX))
        );
        assert_eq!(
            CellAddr::new(7, 9).checked_offset(-7, -9),
            Some(CellAddr::new(0, 0))
        );
    }
}
