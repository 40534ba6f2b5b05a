//! Structural edits: where a position goes when rows or columns are
//! inserted or deleted — the one rule the sheet model, the storage engine
//! and formula references all move by. [`Shift::apply`] moves a point;
//! [`Shift::apply_rect`] moves a rectangle (a region, a formula range, a
//! decomposition's table) to the span of its surviving positions, and
//! [`Shift::within`] is the part of the edit a rectangle's own contents
//! take, in its local coordinates.

use crate::addr::CellAddr;
use crate::region::Rect;

/// An insertion or deletion of `n` rows or columns at index `at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    InsertRows { at: u32, n: u32 },
    DeleteRows { at: u32, n: u32 },
    InsertCols { at: u32, n: u32 },
    DeleteCols { at: u32, n: u32 },
}

impl Shift {
    /// `(on rows, at, n, is an insert)`.
    fn parts(self) -> (bool, u32, u32, bool) {
        match self {
            Shift::InsertRows { at, n } => (true, at, n, true),
            Shift::DeleteRows { at, n } => (true, at, n, false),
            Shift::InsertCols { at, n } => (false, at, n, true),
            Shift::DeleteCols { at, n } => (false, at, n, false),
        }
    }

    /// The edit whose [`Shift::parts`] these are.
    fn from_parts(rows: bool, at: u32, n: u32, insert: bool) -> Shift {
        match (rows, insert) {
            (true, true) => Shift::InsertRows { at, n },
            (true, false) => Shift::DeleteRows { at, n },
            (false, true) => Shift::InsertCols { at, n },
            (false, false) => Shift::DeleteCols { at, n },
        }
    }

    pub(crate) fn is_insert(self) -> bool {
        self.parts().3
    }

    /// The same edit on the other axis: what a row edit is to a store
    /// that keeps the sheet transposed.
    pub fn transpose(self) -> Shift {
        let (rows, at, n, insert) = self.parts();
        Shift::from_parts(!rows, at, n, insert)
    }

    /// Where position `pos` on the edit's axis moves.
    fn place(self, pos: u32) -> Option<u32> {
        let (_, at, n, insert) = self.parts();
        if pos < at {
            Some(pos)
        } else if insert {
            pos.checked_add(n)
        } else if u64::from(pos) < u64::from(at) + u64::from(n) {
            None
        } else {
            Some(pos - n)
        }
    }

    /// `rect`'s first and last position on the edit's axis.
    fn span(self, rect: &Rect) -> (u32, u32) {
        match self.parts().0 {
            true => (rect.r1, rect.r2),
            false => (rect.c1, rect.c2),
        }
    }

    /// Where `addr` moves: positions at or past `at` move by `n`; `None`
    /// when a delete removes it or an insert pushes it past the last row
    /// or column. A delete reaching past the last index deletes to the end.
    pub fn apply(self, addr: CellAddr) -> Option<CellAddr> {
        Some(match self.parts().0 {
            true => CellAddr::new(self.place(addr.row)?, addr.col),
            false => CellAddr::new(addr.row, self.place(addr.col)?),
        })
    }

    /// Where `rect` goes: the span from the image of its first surviving
    /// position to the image of its last, so a delete inside it shrinks it
    /// and an insert strictly inside it grows it. `None` when a delete
    /// removes every position of it, or an insert pushes an end past the
    /// last row or column. A zero count leaves it as it is.
    pub fn apply_rect(self, rect: &Rect) -> Option<Rect> {
        let (rows, at, n, insert) = self.parts();
        let (lo, hi) = self.span(rect);
        // A delete moves an end it removes to the nearest survivor.
        let end = u64::from(at) + u64::from(n);
        let gone = |pos: u32| !insert && pos >= at && u64::from(pos) < end;
        let lo = if gone(lo) {
            u32::try_from(end).ok()?
        } else {
            lo
        };
        let hi = if gone(hi) { at.checked_sub(1)? } else { hi };
        if lo > hi {
            return None;
        }
        let mut out = *rect;
        let ends = match rows {
            true => (&mut out.r1, &mut out.r2),
            false => (&mut out.c1, &mut out.c2),
        };
        (*ends.0, *ends.1) = (self.place(lo)?, self.place(hi)?);
        Some(out)
    }

    /// The part of the edit that lands inside `rect`, in its local
    /// coordinates (its first position is 0): an insert strictly inside it,
    /// which grows it, or the overlapping part of a delete. `None` when the
    /// edit leaves what `rect` holds as it is: a zero count, or a rect
    /// wholly before the edit or moved rigidly by it.
    pub fn within(self, rect: &Rect) -> Option<Shift> {
        let (rows, at, n, insert) = self.parts();
        let (lo, hi) = self.span(rect);
        let (first, end) = match insert {
            true if lo < at && at <= hi => (at, u64::from(at) + u64::from(n)),
            true => return None,
            false => (
                at.max(lo),
                (u64::from(at) + u64::from(n)).min(u64::from(hi) + 1),
            ),
        };
        // A delete's count is what overlaps the rect, at most `n`.
        (n > 0 && u64::from(first) < end)
            .then(|| Shift::from_parts(rows, first - lo, (end - u64::from(first)) as u32, insert))
    }
}
