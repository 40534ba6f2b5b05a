//! Hierarchical positional mapping: a counted B+-tree.
//!
//! The paper's positional index (§V, Figure 11) adapts order-statistic
//! trees to a B+-tree layout: instead of keys, every internal node stores
//! the *count* of items in each child's subtree; leaves store the payloads
//! (tuple pointers in the storage engine). Fetching, inserting, or deleting
//! at a position descends by subtracting child counts — O(log N) for all
//! three operations, with no cascading renumbering.

use crate::PositionalMap;

/// Maximum entries per leaf and maximum children per internal node.
/// Corresponds to the B+-tree order `m`; nodes split at `MAX + 1` and two
/// merged nodes always fit.
const MAX: usize = 64;
/// Minimum fill for non-root nodes (`⌈m/2⌉`).
const MIN: usize = MAX / 2;
/// Bulk-load fill factor keeps some slack so early inserts don't split.
const BULK_FILL: usize = MAX * 3 / 4;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf(Vec<T>),
    Internal {
        /// `counts[i]` = number of items in `children[i]`'s subtree.
        counts: Vec<usize>,
        children: Vec<Node<T>>,
        /// Sum of `counts` (cached).
        total: usize,
    },
}

impl<T> Node<T> {
    fn count(&self) -> usize {
        match self {
            Node::Leaf(items) => items.len(),
            Node::Internal { total, .. } => *total,
        }
    }

    fn is_underfull(&self) -> bool {
        match self {
            Node::Leaf(items) => items.len() < MIN,
            Node::Internal { children, .. } => children.len() < MIN,
        }
    }

    fn get(&self, pos: usize) -> Option<&T> {
        match self {
            Node::Leaf(items) => items.get(pos),
            Node::Internal {
                counts, children, ..
            } => {
                let mut pos = pos;
                for (i, &cnt) in counts.iter().enumerate() {
                    if pos < cnt {
                        return children[i].get(pos);
                    }
                    pos -= cnt;
                }
                None
            }
        }
    }

    /// Insert `value` at `pos`; returns the split-off right sibling when the
    /// node overflows.
    fn insert(&mut self, pos: usize, value: T) -> Option<Node<T>> {
        match self {
            Node::Leaf(items) => {
                items.insert(pos, value);
                if items.len() > MAX {
                    let right = items.split_off(items.len() / 2);
                    Some(Node::Leaf(right))
                } else {
                    None
                }
            }
            Node::Internal {
                counts,
                children,
                total,
            } => {
                // Choose the first child that can host `pos` (<= so appends
                // go to the rightmost eligible subtree).
                let mut pos = pos;
                let mut idx = counts.len() - 1;
                for (i, &cnt) in counts.iter().enumerate() {
                    if pos <= cnt {
                        idx = i;
                        break;
                    }
                    pos -= cnt;
                }
                let split = children[idx].insert(pos, value);
                *total += 1;
                counts[idx] = children[idx].count();
                if let Some(right) = split {
                    counts.insert(idx + 1, right.count());
                    children.insert(idx + 1, right);
                }
                if children.len() > MAX {
                    let at = children.len() / 2;
                    let rchildren = children.split_off(at);
                    let rcounts = counts.split_off(at);
                    let rtotal: usize = rcounts.iter().sum();
                    *total -= rtotal;
                    Some(Node::Internal {
                        counts: rcounts,
                        children: rchildren,
                        total: rtotal,
                    })
                } else {
                    None
                }
            }
        }
    }

    /// Remove the item at `pos` (must exist).
    fn remove(&mut self, pos: usize) -> T {
        match self {
            Node::Leaf(items) => items.remove(pos),
            Node::Internal {
                counts,
                children,
                total,
            } => {
                let mut pos = pos;
                let mut idx = 0;
                for (i, &cnt) in counts.iter().enumerate() {
                    if pos < cnt {
                        idx = i;
                        break;
                    }
                    pos -= cnt;
                }
                let removed = children[idx].remove(pos);
                *total -= 1;
                counts[idx] -= 1;
                if children[idx].is_underfull() {
                    rebalance(counts, children, idx);
                }
                removed
            }
        }
    }

    fn collect_range<'a>(&'a self, start: usize, count: usize, out: &mut Vec<&'a T>) {
        if count == 0 {
            return;
        }
        match self {
            Node::Leaf(items) => {
                let end = (start + count).min(items.len());
                if start < items.len() {
                    out.extend(items[start..end].iter());
                }
            }
            Node::Internal {
                counts, children, ..
            } => {
                let mut start = start;
                let mut remaining = count;
                for (i, &cnt) in counts.iter().enumerate() {
                    if remaining == 0 {
                        break;
                    }
                    if start >= cnt {
                        start -= cnt;
                        continue;
                    }
                    let take = remaining.min(cnt - start);
                    children[i].collect_range(start, take, out);
                    remaining -= take;
                    start = 0;
                }
            }
        }
    }

    fn depth(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Internal { children, .. } => 1 + children[0].depth(),
        }
    }

    /// Structural invariant check used by tests: counts match subtree sizes,
    /// non-root fill bounds hold, all leaves at the same depth.
    fn check(&self, is_root: bool, expected_depth: usize) -> usize {
        match self {
            Node::Leaf(items) => {
                assert!(items.len() <= MAX, "leaf overflow");
                if !is_root {
                    assert!(items.len() >= MIN, "leaf underflow: {}", items.len());
                }
                assert_eq!(expected_depth, 1, "leaf at wrong depth");
                items.len()
            }
            Node::Internal {
                counts,
                children,
                total,
            } => {
                assert!(children.len() <= MAX, "internal overflow");
                assert!(children.len() >= 2, "internal with < 2 children");
                if !is_root {
                    assert!(children.len() >= MIN, "internal underflow");
                }
                assert_eq!(counts.len(), children.len());
                let mut sum = 0;
                for (i, child) in children.iter().enumerate() {
                    let c = child.check(false, expected_depth - 1);
                    assert_eq!(c, counts[i], "stale count at child {i}");
                    sum += c;
                }
                assert_eq!(sum, *total, "stale total");
                sum
            }
        }
    }
}

/// Fix an underfull `children[idx]` by borrowing from a sibling or merging.
fn rebalance<T>(counts: &mut Vec<usize>, children: &mut Vec<Node<T>>, idx: usize) {
    // Try borrowing from the left sibling.
    if idx > 0 && can_lend(&children[idx - 1]) {
        let (left, rest) = children.split_at_mut(idx);
        move_last_to_front(&mut left[idx - 1], &mut rest[0]);
        counts[idx - 1] = children[idx - 1].count();
        counts[idx] = children[idx].count();
        return;
    }
    // Try borrowing from the right sibling.
    if idx + 1 < children.len() && can_lend(&children[idx + 1]) {
        let (left, rest) = children.split_at_mut(idx + 1);
        move_first_to_back(&mut rest[0], &mut left[idx]);
        counts[idx] = children[idx].count();
        counts[idx + 1] = children[idx + 1].count();
        return;
    }
    // Merge with a sibling (two minimally-filled nodes always fit in one).
    let merge_left = if idx > 0 { idx - 1 } else { idx };
    let right = children.remove(merge_left + 1);
    counts.remove(merge_left + 1);
    merge_into(&mut children[merge_left], right);
    counts[merge_left] = children[merge_left].count();
}

fn can_lend<T>(node: &Node<T>) -> bool {
    match node {
        Node::Leaf(items) => items.len() > MIN,
        Node::Internal { children, .. } => children.len() > MIN,
    }
}

fn move_last_to_front<T>(left: &mut Node<T>, right: &mut Node<T>) {
    match (left, right) {
        (Node::Leaf(l), Node::Leaf(r)) => {
            let item = l.pop().expect("lender non-empty");
            r.insert(0, item);
        }
        (
            Node::Internal {
                counts: lc,
                children: lch,
                total: lt,
            },
            Node::Internal {
                counts: rc,
                children: rch,
                total: rt,
            },
        ) => {
            let child = lch.pop().expect("lender non-empty");
            let cnt = lc.pop().expect("lender non-empty");
            *lt -= cnt;
            *rt += cnt;
            rch.insert(0, child);
            rc.insert(0, cnt);
        }
        _ => unreachable!("siblings are at the same depth"),
    }
}

fn move_first_to_back<T>(right: &mut Node<T>, left: &mut Node<T>) {
    match (right, left) {
        (Node::Leaf(r), Node::Leaf(l)) => {
            let item = r.remove(0);
            l.push(item);
        }
        (
            Node::Internal {
                counts: rc,
                children: rch,
                total: rt,
            },
            Node::Internal {
                counts: lc,
                children: lch,
                total: lt,
            },
        ) => {
            let child = rch.remove(0);
            let cnt = rc.remove(0);
            *rt -= cnt;
            *lt += cnt;
            lch.push(child);
            lc.push(cnt);
        }
        _ => unreachable!("siblings are at the same depth"),
    }
}

fn merge_into<T>(left: &mut Node<T>, right: Node<T>) {
    match (left, right) {
        (Node::Leaf(l), Node::Leaf(mut r)) => l.append(&mut r),
        (
            Node::Internal {
                counts: lc,
                children: lch,
                total: lt,
            },
            Node::Internal {
                counts: mut rc,
                children: mut rch,
                total: rt,
            },
        ) => {
            lch.append(&mut rch);
            lc.append(&mut rc);
            *lt += rt;
        }
        _ => unreachable!("siblings are at the same depth"),
    }
}

/// A counted B+-tree mapping positions to payloads — the paper's
/// *hierarchical positional mapping*.
#[derive(Debug, Clone)]
pub struct HierarchicalPosMap<T> {
    root: Node<T>,
}

impl<T> Default for HierarchicalPosMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> HierarchicalPosMap<T> {
    pub fn new() -> Self {
        HierarchicalPosMap {
            root: Node::Leaf(Vec::new()),
        }
    }

    /// Tree height (1 = a single leaf). `O(log N)` operations traverse this
    /// many nodes.
    pub fn depth(&self) -> usize {
        self.root.depth()
    }

    /// Iterate items in position order.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            stack: vec![(&self.root, 0)],
        }
    }

    /// Validate structural invariants (tests only; O(N)).
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let d = self.root.depth();
        self.root.check(true, d);
    }

    /// Bulk-load from items in order: builds packed leaves and then each
    /// internal level, O(N) — used when importing large sheets.
    pub fn bulk_load(items: impl IntoIterator<Item = T>) -> Self {
        let mut items = items.into_iter();
        let mut leaves: Vec<Node<T>> = Vec::new();
        loop {
            let chunk: Vec<T> = items.by_ref().take(BULK_FILL).collect();
            if chunk.is_empty() {
                break;
            }
            leaves.push(Node::Leaf(chunk));
        }
        if leaves.is_empty() {
            return Self::new();
        }
        // Fix an underfull final leaf: merge with its predecessor when the
        // pair fits in one node, otherwise split the pair evenly (the pair
        // then holds > MAX items, so both halves are >= MIN).
        if leaves.len() >= 2 {
            let under = matches!(leaves.last(), Some(Node::Leaf(l)) if l.len() < MIN);
            if under {
                let Some(Node::Leaf(last)) = leaves.pop() else {
                    unreachable!("checked leaf above")
                };
                let Some(Node::Leaf(mut prev)) = leaves.pop() else {
                    unreachable!("bulk leaves are all leaves")
                };
                prev.extend(last);
                if prev.len() <= MAX {
                    leaves.push(Node::Leaf(prev));
                } else {
                    let right = prev.split_off(prev.len() / 2);
                    leaves.push(Node::Leaf(prev));
                    leaves.push(Node::Leaf(right));
                }
            }
        }
        let mut level = leaves;
        while level.len() > 1 {
            let mut groups: Vec<Vec<Node<T>>> = Vec::new();
            let mut iter = level.into_iter().peekable();
            while iter.peek().is_some() {
                groups.push(iter.by_ref().take(BULK_FILL).collect());
            }
            // Same underfull fix one level up, in units of children.
            if groups.len() >= 2 && groups.last().map_or(0, Vec::len) < MIN {
                let last = groups.pop().expect("len >= 2");
                let prev = groups.last_mut().expect("len >= 2");
                prev.extend(last);
                if prev.len() > MAX {
                    let right = prev.split_off(prev.len() / 2);
                    groups.push(right);
                }
            }
            level = groups
                .into_iter()
                .map(|group| {
                    let counts: Vec<usize> = group.iter().map(Node::count).collect();
                    let total = counts.iter().sum();
                    Node::Internal {
                        counts,
                        children: group,
                        total,
                    }
                })
                .collect();
        }
        HierarchicalPosMap {
            root: level.pop().expect("non-empty"),
        }
    }
}

impl<T> PositionalMap<T> for HierarchicalPosMap<T> {
    fn len(&self) -> usize {
        self.root.count()
    }

    fn get(&self, pos: usize) -> Option<&T> {
        self.root.get(pos)
    }

    fn insert_at(&mut self, pos: usize, value: T) {
        let len = self.len();
        assert!(pos <= len, "insert_at({pos}) out of bounds (len {len})");
        if let Some(right) = self.root.insert(pos, value) {
            let left = std::mem::replace(&mut self.root, Node::Leaf(Vec::new()));
            let counts = vec![left.count(), right.count()];
            let total = counts.iter().sum();
            self.root = Node::Internal {
                counts,
                children: vec![left, right],
                total,
            };
        }
    }

    fn remove_at(&mut self, pos: usize) -> Option<T> {
        if pos >= self.len() {
            return None;
        }
        let removed = self.root.remove(pos);
        // Shrink the root when it has a single child left.
        if let Node::Internal { children, .. } = &mut self.root {
            if children.len() == 1 {
                let child = children.pop().expect("one child");
                self.root = child;
            }
        }
        Some(removed)
    }

    fn range(&self, start: usize, count: usize) -> Vec<&T> {
        let mut out = Vec::with_capacity(count.min(self.len().saturating_sub(start)));
        self.root.collect_range(start, count, &mut out);
        out
    }
}

impl<T> FromIterator<T> for HierarchicalPosMap<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Self::bulk_load(iter)
    }
}

/// In-order iterator over a [`HierarchicalPosMap`].
pub struct Iter<'a, T> {
    /// Stack of (node, next index within node).
    stack: Vec<(&'a Node<T>, usize)>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        loop {
            let (node, idx) = self.stack.last_mut()?;
            match node {
                Node::Leaf(items) => {
                    if *idx < items.len() {
                        let item = &items[*idx];
                        *idx += 1;
                        return Some(item);
                    }
                    self.stack.pop();
                }
                Node::Internal { children, .. } => {
                    if *idx < children.len() {
                        let child = &children[*idx];
                        *idx += 1;
                        self.stack.push((child, 0));
                    } else {
                        self.stack.pop();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let m: HierarchicalPosMap<u32> = HierarchicalPosMap::new();
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(0), None);
        assert_eq!(m.depth(), 1);
    }

    #[test]
    fn sequential_appends_split_correctly() {
        let mut m = HierarchicalPosMap::new();
        for i in 0..10_000u32 {
            m.push(i);
        }
        m.check_invariants();
        assert_eq!(m.len(), 10_000);
        for i in (0..10_000).step_by(97) {
            assert_eq!(m.get(i), Some(&(i as u32)));
        }
        assert!(m.depth() >= 3, "10k items at order 64 must be >= 3 levels");
    }

    #[test]
    fn front_inserts_keep_order() {
        let mut m = HierarchicalPosMap::new();
        for i in 0..5_000u32 {
            m.insert_at(0, i);
        }
        m.check_invariants();
        assert_eq!(m.get(0), Some(&4_999));
        assert_eq!(m.get(4_999), Some(&0));
    }

    #[test]
    fn middle_insert_shifts() {
        let mut m: HierarchicalPosMap<u32> = (0..200).collect();
        m.insert_at(100, 9999);
        assert_eq!(m.get(100), Some(&9999));
        assert_eq!(m.get(101), Some(&100));
        assert_eq!(m.get(99), Some(&99));
        assert_eq!(m.len(), 201);
        m.check_invariants();
    }

    #[test]
    fn removals_rebalance() {
        let mut m: HierarchicalPosMap<u32> = (0..10_000).collect();
        // Remove from the front to force repeated underflow handling.
        for expected in 0..9_000u32 {
            assert_eq!(m.remove_at(0), Some(expected));
        }
        m.check_invariants();
        assert_eq!(m.len(), 1_000);
        assert_eq!(m.get(0), Some(&9_000));
    }

    #[test]
    fn remove_at_random_positions_matches_vec() {
        let mut m: HierarchicalPosMap<u32> = (0..1_000).collect();
        let mut oracle: Vec<u32> = (0..1_000).collect();
        // Deterministic pseudo-random positions.
        let mut state = 0x9E3779B97F4A7C15u64;
        while !oracle.is_empty() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % oracle.len();
            assert_eq!(m.remove_at(pos), Some(oracle.remove(pos)));
        }
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn bulk_load_matches_iteration() {
        for n in [0usize, 1, 47, 48, 49, 64, 65, 1_000, 10_000] {
            let m: HierarchicalPosMap<usize> = (0..n).collect();
            m.check_invariants();
            assert_eq!(m.len(), n);
            let collected: Vec<usize> = m.iter().copied().collect();
            assert_eq!(collected, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn range_scan() {
        let m: HierarchicalPosMap<u32> = (0..1_000).collect();
        let r = m.range(500, 10);
        let expected: Vec<u32> = (500..510).collect();
        assert_eq!(r.into_iter().copied().collect::<Vec<_>>(), expected);
        assert_eq!(m.range(995, 100).len(), 5);
        assert!(m.range(2_000, 5).is_empty());
    }

    #[test]
    fn logarithmic_depth_at_scale() {
        let m: HierarchicalPosMap<u8> = std::iter::repeat_n(0u8, 1_000_000).collect();
        // order-64 tree over 1M items: depth should be about log_48(1e6) ~ 4.
        assert!(m.depth() <= 5, "depth {} too deep", m.depth());
        m.check_invariants();
    }
}
