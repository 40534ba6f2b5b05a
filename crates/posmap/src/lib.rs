//! Positional mapping: maintaining an *ordering* of items under
//! position-based fetch, insert, and delete (DataSpread, ICDE 2018, §V).
//!
//! Storing row/column numbers explicitly makes inserts cascade: inserting at
//! position `n` renumbers every later item. The paper's answer, and the one
//! scheme the storage engine uses, is [`HierarchicalPosMap`]: a counted
//! B+-tree (order-statistic tree) with O(log N) fetch, insert and delete.
//!
//! The baselines the paper measures against it in Table II and Figure 18
//! (position-as-is and gapped monotonic keys) store positions inside the
//! tuples themselves, so they live at storage level beside the benchmark
//! that runs them (`dataspread-bench`'s `posmark` module), not here.

pub mod hierarchical;

pub use hierarchical::HierarchicalPosMap;

/// Cap on the positions one map serves per sheet axis (rows and columns
/// alike).
///
/// Positions are *materialized*: a map holds one entry per position up to
/// the highest one ever touched, so a single write at an astronomical
/// index (say row 4×10⁹ — representable, since addresses are `u32`) would
/// grow it O(row) on first touch and hang the engine. The engine refuses up
/// front a write to an RCV store (the catch-all is one) at or past this
/// cap, and an insert that would stretch a region past it — 64 × Excel's
/// 1,048,576-row limit, far past what positional materialization serves
/// well.
pub const MAX_POSITIONS: u32 = 64 * 1_048_576;

/// An ordered collection addressed purely by position.
///
/// Positions are dense: after any operation the items occupy positions
/// `0..len()`. `insert_at(pos, v)` shifts items at `pos..` right by one;
/// `remove_at(pos)` shifts items at `pos+1..` left by one.
pub trait PositionalMap<T> {
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the item at `pos`.
    fn get(&self, pos: usize) -> Option<&T>;

    /// Insert so that `value` ends up at `pos` (`pos <= len`).
    ///
    /// # Panics
    /// Panics if `pos > len()`.
    fn insert_at(&mut self, pos: usize, value: T);

    /// Remove and return the item at `pos`.
    fn remove_at(&mut self, pos: usize) -> Option<T>;

    /// Append at the end.
    fn push(&mut self, value: T) {
        self.insert_at(self.len(), value);
    }

    /// Collect `count` items starting at `start` (clamped to the end) —
    /// the positional range scan behind `getCells` and scrolling.
    fn range(&self, start: usize, count: usize) -> Vec<&T>;
}
