//! Rectangular regions — the unit of presentational access.
//!
//! Scrolling fetches a rectangular window; formulas such as `SUM(A1:B100)`
//! access rectangular ranges; the hybrid optimizer decomposes a sheet into
//! rectangles (paper §IV). [`Rect`] is therefore the most heavily shared
//! type in the workspace.

use std::fmt;

use crate::addr::CellAddr;
use crate::error::GridError;

/// An inclusive rectangle of cells: rows `r1..=r2`, columns `c1..=c2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rect {
    pub r1: u32,
    pub c1: u32,
    pub r2: u32,
    pub c2: u32,
}

impl Rect {
    /// Construct from corners, normalizing order.
    pub fn new(r1: u32, c1: u32, r2: u32, c2: u32) -> Self {
        Rect {
            r1: r1.min(r2),
            c1: c1.min(c2),
            r2: r1.max(r2),
            c2: c1.max(c2),
        }
    }

    /// A 1×1 rectangle covering one cell.
    pub fn cell(addr: CellAddr) -> Self {
        Rect::new(addr.row, addr.col, addr.row, addr.col)
    }

    /// Parse an A1 range such as `B2:C10`; a bare reference is a 1×1 rect.
    pub fn parse_a1(s: &str) -> Result<Self, GridError> {
        match s.split_once(':') {
            Some((a, b)) => {
                let a = CellAddr::parse_a1(a)?;
                let b = CellAddr::parse_a1(b)?;
                Ok(Rect::new(a.row, a.col, b.row, b.col))
            }
            None => Ok(Rect::cell(CellAddr::parse_a1(s)?)),
        }
    }

    pub fn to_a1(self) -> String {
        let a = CellAddr::new(self.r1, self.c1);
        let b = CellAddr::new(self.r2, self.c2);
        if self.rows() == 1 && self.cols() == 1 {
            a.to_a1()
        } else {
            format!("{}:{}", a.to_a1(), b.to_a1())
        }
    }

    pub fn rows(&self) -> u64 {
        (self.r2 - self.r1) as u64 + 1
    }

    pub fn cols(&self) -> u64 {
        (self.c2 - self.c1) as u64 + 1
    }

    pub fn area(&self) -> u64 {
        self.rows() * self.cols()
    }

    pub fn top_left(&self) -> CellAddr {
        CellAddr::new(self.r1, self.c1)
    }

    pub fn contains(&self, a: CellAddr) -> bool {
        a.row >= self.r1 && a.row <= self.r2 && a.col >= self.c1 && a.col <= self.c2
    }

    pub fn contains_rect(&self, o: &Rect) -> bool {
        o.r1 >= self.r1 && o.r2 <= self.r2 && o.c1 >= self.c1 && o.c2 <= self.c2
    }

    pub fn intersects(&self, o: &Rect) -> bool {
        self.r1 <= o.r2 && o.r1 <= self.r2 && self.c1 <= o.c2 && o.c1 <= self.c2
    }

    pub fn intersection(&self, o: &Rect) -> Option<Rect> {
        if !self.intersects(o) {
            return None;
        }
        Some(Rect {
            r1: self.r1.max(o.r1),
            c1: self.c1.max(o.c1),
            r2: self.r2.min(o.r2),
            c2: self.c2.min(o.c2),
        })
    }

    /// Smallest rectangle covering both.
    pub fn bbox_union(&self, o: &Rect) -> Rect {
        Rect {
            r1: self.r1.min(o.r1),
            c1: self.c1.min(o.c1),
            r2: self.r2.max(o.r2),
            c2: self.c2.max(o.c2),
        }
    }

    /// Iterate all addresses in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = CellAddr> + '_ {
        let (r1, r2, c1, c2) = (self.r1, self.r2, self.c1, self.c2);
        (r1..=r2).flat_map(move |r| (c1..=c2).map(move |c| CellAddr::new(r, c)))
    }

    /// Translate by (dr, dc); panics in debug builds on underflow.
    pub fn translate(&self, dr: i64, dc: i64) -> Rect {
        Rect {
            r1: (self.r1 as i64 + dr) as u32,
            c1: (self.c1 as i64 + dc) as u32,
            r2: (self.r2 as i64 + dr) as u32,
            c2: (self.c2 as i64 + dc) as u32,
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_a1())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_normalizes() {
        let r = Rect::new(5, 7, 2, 3);
        assert_eq!(r, Rect::new(2, 3, 5, 7));
        assert_eq!(r.rows(), 4);
        assert_eq!(r.cols(), 5);
        assert_eq!(r.area(), 20);
    }

    #[test]
    fn parse_and_display() {
        let r = Rect::parse_a1("B2:C10").unwrap();
        assert_eq!(r, Rect::new(1, 1, 9, 2));
        assert_eq!(r.to_a1(), "B2:C10");
        let single = Rect::parse_a1("D4").unwrap();
        assert_eq!(single.to_a1(), "D4");
        for bad in ["B2:", "A+1:B2", "A1:B+2", "A-1:B2", "A+1"] {
            assert!(Rect::parse_a1(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn containment_and_intersection() {
        let a = Rect::new(0, 0, 9, 9);
        let b = Rect::new(5, 5, 15, 15);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 9, 9)));
        assert!(a.contains(CellAddr::new(9, 9)));
        assert!(!a.contains(CellAddr::new(10, 9)));
        let c = Rect::new(20, 20, 21, 21);
        assert!(!a.intersects(&c));
        assert_eq!(a.intersection(&c), None);
        assert_eq!(a.bbox_union(&c), Rect::new(0, 0, 21, 21));
        assert!(a.contains_rect(&Rect::new(1, 1, 2, 2)));
        assert!(!a.contains_rect(&b));
    }

    #[test]
    fn iter_covers_all_cells_row_major() {
        let r = Rect::new(1, 1, 2, 3);
        let cells: Vec<_> = r.iter().collect();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0], CellAddr::new(1, 1));
        assert_eq!(cells[2], CellAddr::new(1, 3));
        assert_eq!(cells[5], CellAddr::new(2, 3));
    }

    #[test]
    fn translate_moves_rect() {
        let r = Rect::new(2, 2, 4, 4).translate(3, -1);
        assert_eq!(r, Rect::new(5, 1, 7, 3));
    }
}
