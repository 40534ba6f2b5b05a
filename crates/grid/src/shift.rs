//! Structural edits: where a position goes when rows or columns are
//! inserted or deleted — the one rule the sheet model, the storage engine
//! and formula references all move by.

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

    pub(crate) fn is_insert(self) -> bool {
        self.parts().3
    }

    /// Where `addr` moves: positions at or past `at` move by `n`; `None`
    /// when a delete removes it or an insert pushes it past the last row
    /// or column. A delete reaching past the last index deletes to the end.
    pub fn apply(self, addr: CellAddr) -> Option<CellAddr> {
        let (rows, at, n, insert) = self.parts();
        let mut out = addr;
        let pos = if rows { &mut out.row } else { &mut out.col };
        if *pos >= at {
            if insert {
                *pos = pos.checked_add(n)?;
            } else if u64::from(*pos) < u64::from(at) + u64::from(n) {
                return None;
            } else {
                *pos -= n;
            }
        }
        Some(out)
    }

    /// Whether the edit changes what `rect` (in pre-edit coordinates)
    /// holds: a delete whose band overlaps it, or an insert strictly inside
    /// it (the rect grows). A rect wholly before the edit, or moved rigidly
    /// by it, keeps its contents.
    pub fn hits(self, rect: &Rect) -> bool {
        let (rows, at, n, insert) = self.parts();
        let (lo, hi) = if rows {
            (rect.r1, rect.r2)
        } else {
            (rect.c1, rect.c2)
        };
        if insert {
            lo < at && at <= hi
        } else {
            u64::from(lo) < u64::from(at) + u64::from(n) && hi >= at
        }
    }
}
