//! The dependency graph (paper §VI): which formula cells read which ranges,
//! and in what order dependents must be recomputed after an update.
//!
//! Rather than materializing one edge per referenced *cell* (a formula like
//! `SUM(A1:A100000)` would explode), each formula stores its referenced
//! rectangles. Finding the dependents of an updated cell is the interactive
//! hot path — it runs on every `updateCell` — so the formula → ranges map is
//! paired with an inverted *spatial* index ([`GridIndex`]) that maps a cell
//! to the candidate formulas whose ranges could contain it. Lookups are
//! O(candidates), not O(registered formulas); on the paper's dense-formula
//! sheets (Figures 13–15) that is the difference between O(1) and O(F) per
//! edit. The straightforward scan, which walks every formula, lives in
//! `tests/deps_oracle.rs` as the differential oracle.
//!
//! **Planning.** Every plan shape reads one subgraph over dense ids, built
//! by one walk that numbers each affected formula once and probes it once.
//! A formula reading its own cell has an edge to itself, so its in-degree
//! never reaches 0 and it lands in the cycle set with no special case.
//!
//! **Sharding.** A `DependencyGraph` is deliberately *per-sheet* state —
//! no globals, no interior sharing — and the whole structure is `Send`.
//! The concurrent workspace shards one graph per sheet behind that
//! sheet's lock, so formula edits on different sheets never contend on a
//! shared index (the PR 4 follow-up: "per-sheet sharding … once multiple
//! sheets/users mutate in parallel").

use std::collections::HashMap;

use dataspread_grid::{CellAddr, Rect};

/// Level-0 buckets of the spatial index are `32×32` cells.
const BASE_SHIFT: u32 = 5;

/// Multi-resolution grid-bucket index over read ranges.
///
/// Each rectangle is registered at the smallest level whose bucket edge
/// (`32 << level`) covers its larger span, so it lands in at most 2 buckets
/// per axis (4 total) regardless of size — a whole-column `SUM(A:A)` costs
/// the same to register as a single cell. A cell lookup probes exactly one
/// bucket per allocated level (≤ 28 levels for the full `u32` sheet, and
/// only levels that some range actually uses are allocated), yielding a
/// candidate superset that the caller filters by exact containment.
#[derive(Debug, Default, Clone)]
struct GridIndex {
    /// `levels[l]` maps `(row >> (5 + l), col >> (5 + l))` to the formulas
    /// with a range placed at level `l` covering that bucket. A formula
    /// appears once per (range, bucket) placement, so the same address can
    /// occur more than once in a bucket.
    levels: Vec<HashMap<(u32, u32), Vec<CellAddr>>>,
}

/// The level at which a rectangle is placed: the smallest bucket edge that
/// is at least the rect's larger span.
fn level_of(rect: &Rect) -> usize {
    let span = rect.rows().max(rect.cols());
    let mut level = 0usize;
    while 1u64 << (BASE_SHIFT as u64 + level as u64) < span {
        level += 1;
    }
    level
}

/// The buckets a rect occupies at its level (at most 4).
fn placements(rect: &Rect) -> (usize, impl Iterator<Item = (u32, u32)>) {
    let level = level_of(rect);
    let s = BASE_SHIFT as u64 + level as u64;
    let (br1, br2) = (rect.r1 as u64 >> s, rect.r2 as u64 >> s);
    let (bc1, bc2) = (rect.c1 as u64 >> s, rect.c2 as u64 >> s);
    (
        level,
        (br1..=br2).flat_map(move |br| (bc1..=bc2).map(move |bc| (br as u32, bc as u32))),
    )
}

impl GridIndex {
    fn insert(&mut self, formula: CellAddr, rect: &Rect) {
        let (level, buckets) = placements(rect);
        if self.levels.len() <= level {
            self.levels.resize_with(level + 1, HashMap::new);
        }
        for key in buckets {
            self.levels[level].entry(key).or_default().push(formula);
        }
    }

    /// Remove one placement of `formula` per bucket `rect` occupies —
    /// exactly symmetric to [`GridIndex::insert`], so re-registering a
    /// formula with the same ranges round-trips.
    fn remove(&mut self, formula: CellAddr, rect: &Rect) {
        let (level, buckets) = placements(rect);
        let Some(map) = self.levels.get_mut(level) else {
            return;
        };
        for key in buckets {
            if let Some(v) = map.get_mut(&key) {
                if let Some(pos) = v.iter().position(|&a| a == formula) {
                    v.swap_remove(pos);
                }
                if v.is_empty() {
                    map.remove(&key);
                }
            }
        }
    }

    /// All formulas with a range placement whose bucket covers `cell` — a
    /// superset of the formulas actually reading it, with possible
    /// duplicates (one per matching placement).
    fn candidates(&self, cell: CellAddr) -> impl Iterator<Item = CellAddr> + '_ {
        self.levels
            .iter()
            .enumerate()
            .flat_map(move |(level, map)| {
                let s = BASE_SHIFT as u64 + level as u64;
                let key = ((cell.row as u64 >> s) as u32, (cell.col as u64 >> s) as u32);
                map.get(&key).into_iter().flatten().copied()
            })
    }
}

/// Range-granular dependency graph with a two-sided index: formula → read
/// ranges (exact), plus cell → candidate formulas (spatial, superset).
#[derive(Debug, Default, Clone)]
pub struct DependencyGraph {
    /// Formula cell → ranges it reads.
    reads: HashMap<CellAddr, Vec<Rect>>,
    /// Inverted spatial index over every registered range.
    index: GridIndex,
}

/// Result of a recomputation-order query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecomputePlan {
    /// Formula cells in a valid evaluation order.
    pub order: Vec<CellAddr>,
    /// Formula cells caught in a reference cycle (must display `#CIRC!`).
    pub cyclic: Vec<CellAddr>,
}

/// Result of a wave-structured recomputation query: the same affected set
/// as [`RecomputePlan`], grouped by dependency depth.
///
/// Wave `k` holds the formulas whose longest dependency path from a ready
/// formula has length `k` — no formula in a wave reads any cell computed
/// by another member of the same wave, so a wave's members can be
/// evaluated concurrently once every earlier wave has been written back.
/// Each wave is sorted, so concatenating the waves yields a deterministic
/// (and valid topological) evaluation order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WavePlan {
    /// Dependency levels, shallowest first; each wave sorted by address.
    pub waves: Vec<Vec<CellAddr>>,
    /// Formula cells caught in a reference cycle (must display `#CIRC!`).
    pub cyclic: Vec<CellAddr>,
}

impl WavePlan {
    /// Total number of formulas across all waves.
    pub fn len(&self) -> usize {
        self.waves.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.waves.is_empty()
    }
}

/// The subgraph every plan shape is read from, over dense ids: node `i` is
/// `nodes[i]`, and its readers (`i → j` when formula `j` reads cell `i`, so
/// `j` evaluates after it) are `edges[ends[i - 1]..ends[i]]`, from 0 for
/// node 0. End offsets keep an empty subgraph free of allocations.
#[derive(Default)]
struct Subgraph {
    nodes: Vec<CellAddr>,
    ids: HashMap<CellAddr, u32>,
    edges: Vec<u32>,
    ends: Vec<u32>,
    /// Edges into each node not yet released by Kahn's algorithm.
    indeg: Vec<u32>,
}

impl Subgraph {
    /// The id of `cell`, numbering it the first time it is seen.
    fn id(&mut self, cell: CellAddr) -> u32 {
        *self.ids.entry(cell).or_insert_with(|| {
            self.nodes.push(cell);
            self.indeg.push(0);
            (self.nodes.len() - 1) as u32
        })
    }

    fn sort_by_addr(&self, ids: &mut [u32]) {
        ids.sort_unstable_by_key(|&i| self.nodes[i as usize]);
    }

    /// The nodes with no unreleased edge in, sorted by address, in a
    /// vector with room for every node: Kahn's algorithm appends to it the
    /// nodes it releases, so the order is its own queue.
    fn ready(&self) -> Vec<u32> {
        let mut order = Vec::with_capacity(self.nodes.len());
        order.extend((0..self.nodes.len() as u32).filter(|&i| self.indeg[i as usize] == 0));
        self.sort_by_addr(&mut order);
        order
    }

    /// Release `u`'s edges, appending each reader left with none to `out`.
    fn release(&mut self, u: u32, out: &mut Vec<u32>) {
        let u = u as usize;
        let start = if u == 0 { 0 } else { self.ends[u - 1] as usize };
        for &v in &self.edges[start..self.ends[u] as usize] {
            let d = &mut self.indeg[v as usize];
            *d -= 1;
            if *d == 0 {
                out.push(v);
            }
        }
    }

    fn addrs(&self, ids: &[u32]) -> Vec<CellAddr> {
        ids.iter().map(|&i| self.nodes[i as usize]).collect()
    }

    /// The nodes Kahn's algorithm never released, sorted: cycle members,
    /// self-readers and everything downstream of them.
    fn cyclic(&self) -> Vec<CellAddr> {
        let mut cyclic: Vec<CellAddr> = (0..self.nodes.len())
            .filter(|&i| self.indeg[i] > 0)
            .map(|i| self.nodes[i])
            .collect();
        cyclic.sort_unstable();
        cyclic
    }

    /// Level-synchronous Kahn: each wave is what the previous one released,
    /// sorted.
    fn waves(mut self) -> WavePlan {
        let mut order = self.ready();
        let mut waves = Vec::new();
        let mut head = 0;
        while head < order.len() {
            let tail = order.len();
            for i in head..tail {
                self.release(order[i], &mut order);
            }
            self.sort_by_addr(&mut order[tail..]);
            waves.push(self.addrs(&order[head..tail]));
            head = tail;
        }
        WavePlan {
            waves,
            cyclic: self.cyclic(),
        }
    }
}

impl DependencyGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a formula cell and the ranges it reads.
    pub fn set_formula(&mut self, cell: CellAddr, ranges: Vec<Rect>) {
        self.remove(cell);
        for r in &ranges {
            self.index.insert(cell, r);
        }
        self.reads.insert(cell, ranges);
    }

    /// Remove a formula cell.
    pub fn remove(&mut self, cell: CellAddr) {
        if let Some(old) = self.reads.remove(&cell) {
            for r in &old {
                self.index.remove(cell, r);
            }
        }
    }

    pub fn formula_count(&self) -> usize {
        self.reads.len()
    }

    pub fn is_formula(&self, cell: CellAddr) -> bool {
        self.reads.contains_key(&cell)
    }

    pub fn formulas(&self) -> impl Iterator<Item = (CellAddr, &[Rect])> {
        self.reads.iter().map(|(a, r)| (*a, r.as_slice()))
    }

    /// Formula cells that directly read `cell`, sorted (deduplicated).
    pub fn dependents_of(&self, cell: CellAddr) -> Vec<CellAddr> {
        let mut out: Vec<CellAddr> = self.dependents(cell).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The formulas reading `cell`, once per index placement that finds
    /// them: probe the spatial index for candidates, then confirm
    /// containment against the exact range lists. O(candidates), not
    /// O(formulas), and nothing is collected.
    fn dependents(&self, cell: CellAddr) -> impl Iterator<Item = CellAddr> + '_ {
        self.index.candidates(cell).filter(move |f| {
            self.reads
                .get(f)
                .is_some_and(|ranges| ranges.iter().any(|r| r.contains(cell)))
        })
    }

    /// The subgraph affected by updates to `seeds`, in one walk: a formula
    /// seed is a node, any other seed is probed for its readers. Nodes are
    /// visited in id order, so the node list is the queue; each is probed
    /// once, numbering its readers and appending its edges. A reader that
    /// two index placements find gets two edges, each released once. No
    /// probe collects into a buffer: a reused one would grow in probe
    /// order, which follows the callers' hash-map seed order, and the work
    /// ledger's allocation counts would vary from run to run.
    /// O(affected × candidates), with no all-pairs rect test.
    fn subgraph(&self, seeds: &[CellAddr]) -> Subgraph {
        let mut g = Subgraph::default();
        for &seed in seeds {
            if self.is_formula(seed) {
                g.id(seed);
            } else {
                self.dependents(seed).for_each(|v| {
                    g.id(v);
                });
            }
        }
        let mut u = 0;
        while u < g.nodes.len() {
            // `for_each` runs the probe by internal iteration, twice as fast
            // on crowded buckets as a `for` loop's `next` calls.
            self.dependents(g.nodes[u]).for_each(|v| {
                let v = g.id(v);
                g.edges.push(v);
                g.indeg[v as usize] += 1;
            });
            g.ends.push(g.edges.len() as u32);
            u += 1;
        }
        g
    }

    /// All formulas transitively affected by updates to `seeds`, in a valid
    /// recomputation order; cycle participants are reported separately.
    /// Kahn's algorithm over the walk's subgraph with sorted tie-breaking:
    /// the ready formulas in address order, then what each formula in turn
    /// releases, sorted.
    pub fn recompute_plan(&self, seeds: &[CellAddr]) -> RecomputePlan {
        let mut g = self.subgraph(seeds);
        let mut order = g.ready();
        let mut head = 0;
        while head < order.len() {
            let tail = order.len();
            g.release(order[head], &mut order);
            g.sort_by_addr(&mut order[tail..]);
            head += 1;
        }
        RecomputePlan {
            order: g.addrs(&order),
            cyclic: g.cyclic(),
        }
    }

    /// The same affected set as [`DependencyGraph::recompute_plan`], read
    /// from the same walk's subgraph and grouped into dependency-depth
    /// waves (level-synchronous Kahn): a formula lands in the first wave
    /// after every in-subgraph formula it reads. Members of one wave never
    /// read each other, so the engine evaluates a wave's cells concurrently
    /// and writes the results back in wave order — producing the same
    /// values as the sequential plan.
    pub fn recompute_waves(&self, seeds: &[CellAddr]) -> WavePlan {
        self.subgraph(seeds).waves()
    }

    /// The wave plan covering *every* registered formula — the bulk
    /// `recompute_all` path. Produces exactly the plan that
    /// [`DependencyGraph::recompute_waves`] seeded with every formula cell
    /// would, into the same dense-id subgraph, but with no walk: the
    /// affected set is the whole graph by definition, and the edges come
    /// straight from the read ranges, by a column-sorted containment query
    /// over the formula addresses that yields `(source, reader)` id pairs,
    /// sorted into the subgraph's edge list. On dense fill-down sheets —
    /// many same-column ranges crowding the same index buckets — that is
    /// several times faster than one spatial-index probe per formula.
    pub fn full_waves(&self) -> WavePlan {
        // Formula ids grouped by column, sorted by row: "which formula
        // cells does this rect cover" becomes a binary search per column.
        let mut g = Subgraph::default();
        let mut by_col: HashMap<u32, Vec<(u32, u32)>> = HashMap::new();
        for &a in self.reads.keys() {
            by_col.entry(a.col).or_default().push((a.row, g.id(a)));
        }
        for rows in by_col.values_mut() {
            rows.sort_unstable();
        }
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (addr, ranges) in &self.reads {
            let v = g.ids[addr];
            let mut rows_in = |rows: &[(u32, u32)], r: &Rect| {
                let lo = rows.partition_point(|&(row, _)| row < r.r1);
                let hi = rows.partition_point(|&(row, _)| row <= r.r2);
                pairs.extend(rows[lo..hi].iter().map(|&(_, u)| (u, v)));
            };
            for r in ranges {
                // Enumerate the formula cells inside `r`, walking whichever
                // axis set is smaller: the rect's columns or the columns
                // that actually hold formulas (a whole-row rect spans 2³²
                // columns; the sheet holds formulas in a handful).
                if r.cols() >= by_col.len() as u64 {
                    for (&c, rows) in &by_col {
                        if c >= r.c1 && c <= r.c2 {
                            rows_in(rows, r);
                        }
                    }
                } else {
                    for c in r.c1..=r.c2 {
                        if let Some(rows) = by_col.get(&c) {
                            rows_in(rows, r);
                        }
                    }
                }
            }
        }
        // Sorted by source, the pairs are the edge list in node order. A
        // source that several of a reader's ranges cover repeats its edge,
        // and each copy is released once, so the plan is the same.
        pairs.sort_unstable();
        for &(_, v) in &pairs {
            g.edges.push(v);
            g.indeg[v as usize] += 1;
        }
        g.ends = (0..g.nodes.len() as u32)
            .map(|u| pairs.partition_point(|&(s, _)| s <= u) as u32)
            .collect();
        g.waves()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn graphs_are_send_for_per_sheet_sharding() {
        fn assert_send<T: Send>() {}
        assert_send::<super::DependencyGraph>();
    }

    use super::*;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse_a1(s).unwrap()
    }

    fn r(s: &str) -> Rect {
        Rect::parse_a1(s).unwrap()
    }

    #[test]
    fn dependents_by_range_containment() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("C1"), vec![r("A1:A10")]);
        g.set_formula(a("D1"), vec![r("C1")]);
        assert_eq!(g.dependents_of(a("A5")), vec![a("C1")]);
        assert!(g.dependents_of(a("B1")).is_empty());
        assert_eq!(g.dependents_of(a("C1")), vec![a("D1")]);
    }

    #[test]
    fn recompute_order_is_topological() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("B1"), vec![r("A1")]);
        g.set_formula(a("C1"), vec![r("B1")]);
        g.set_formula(a("D1"), vec![r("B1"), r("C1")]);
        let plan = g.recompute_plan(&[a("A1")]);
        assert!(plan.cyclic.is_empty());
        assert_eq!(plan.order, vec![a("B1"), a("C1"), a("D1")]);
    }

    #[test]
    fn unrelated_formulas_not_recomputed() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("B1"), vec![r("A1")]);
        g.set_formula(a("Z9"), vec![r("Y1:Y5")]);
        let plan = g.recompute_plan(&[a("A1")]);
        assert_eq!(plan.order, vec![a("B1")]);
    }

    #[test]
    fn cycles_are_detected() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("A1"), vec![r("B1")]);
        g.set_formula(a("B1"), vec![r("A1")]);
        g.set_formula(a("C1"), vec![r("B1")]);
        let plan = g.recompute_plan(&[a("A1")]);
        // C1 depends on the cycle; it stays blocked (reported cyclic) since
        // its input never settles.
        assert_eq!(plan.cyclic, vec![a("A1"), a("B1"), a("C1")]);
        assert!(plan.order.is_empty());
    }

    #[test]
    fn self_reference_is_cyclic() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("A1"), vec![r("A1:B2")]);
        let plan = g.recompute_plan(&[a("B2")]);
        assert_eq!(plan.cyclic, vec![a("A1")]);
        let waves = g.recompute_waves(&[a("B2")]);
        assert!(waves.is_empty());
        assert_eq!(waves.cyclic, vec![a("A1")]);
        assert_eq!(g.full_waves(), waves);
    }

    #[test]
    fn seed_formula_recomputes_itself() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("B1"), vec![r("A1")]);
        let plan = g.recompute_plan(&[a("B1")]);
        assert_eq!(plan.order, vec![a("B1")]);
    }

    #[test]
    fn remove_drops_dependencies() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("B1"), vec![r("A1")]);
        g.remove(a("B1"));
        assert!(g.dependents_of(a("A1")).is_empty());
        assert_eq!(g.formula_count(), 0);
    }

    #[test]
    fn replacing_ranges_unregisters_old_placements() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("B1"), vec![r("A1:A10")]);
        g.set_formula(a("B1"), vec![r("C1:C10")]);
        assert!(g.dependents_of(a("A5")).is_empty(), "old range forgotten");
        assert_eq!(g.dependents_of(a("C5")), vec![a("B1")]);
    }

    #[test]
    fn huge_ranges_index_at_coarse_levels() {
        let mut g = DependencyGraph::new();
        // A whole-column read spans ~2^20 rows: placed at a coarse level,
        // it must still be found from any stabbed cell.
        g.set_formula(a("B1"), vec![Rect::new(0, 0, 1_000_000, 0)]);
        g.set_formula(a("C1"), vec![Rect::new(5, 2, 5, 2)]);
        assert_eq!(g.dependents_of(CellAddr::new(999_999, 0)), vec![a("B1")]);
        assert_eq!(g.dependents_of(CellAddr::new(5, 2)), vec![a("C1")]);
        assert!(g.dependents_of(CellAddr::new(999_999, 1)).is_empty());
    }

    #[test]
    fn duplicate_ranges_survive_one_removal_cycle() {
        let mut g = DependencyGraph::new();
        // The same rect twice: two placements, both removed on re-register.
        g.set_formula(a("B1"), vec![r("A1:A4"), r("A1:A4")]);
        assert_eq!(g.dependents_of(a("A2")), vec![a("B1")]);
        g.remove(a("B1"));
        assert!(g.dependents_of(a("A2")).is_empty());
    }

    #[test]
    fn waves_group_by_dependency_depth() {
        let mut g = DependencyGraph::new();
        // Diamond: B1 and C1 read A1; D1 reads both.
        g.set_formula(a("B1"), vec![r("A1")]);
        g.set_formula(a("C1"), vec![r("A1")]);
        g.set_formula(a("D1"), vec![r("B1"), r("C1")]);
        let plan = g.recompute_waves(&[a("A1")]);
        assert_eq!(plan.waves, vec![vec![a("B1"), a("C1")], vec![a("D1")]]);
        assert!(plan.cyclic.is_empty());
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn chain_yields_single_cell_waves() {
        let mut g = DependencyGraph::new();
        for row in 1..6u32 {
            g.set_formula(
                CellAddr::new(row, 0),
                vec![Rect::cell(CellAddr::new(row - 1, 0))],
            );
        }
        let plan = g.recompute_waves(&[CellAddr::new(0, 0)]);
        assert_eq!(plan.waves.len(), 5);
        assert!(plan.waves.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn waves_match_plan_set_and_cycles() {
        let mut g = DependencyGraph::new();
        g.set_formula(a("B1"), vec![r("A1:A4")]);
        g.set_formula(a("C1"), vec![r("B1")]);
        g.set_formula(a("D1"), vec![r("B1"), r("C1")]);
        // An independent cycle touched by the same seed.
        g.set_formula(a("A2"), vec![r("A3")]);
        g.set_formula(a("A3"), vec![r("A2"), r("A1")]);
        let plan = g.recompute_plan(&[a("A1")]);
        let waves = g.recompute_waves(&[a("A1")]);
        let mut flat: Vec<CellAddr> = waves.waves.iter().flatten().copied().collect();
        flat.sort();
        let mut order = plan.order.clone();
        order.sort();
        assert_eq!(flat, order, "waves must cover exactly the plan set");
        assert_eq!(waves.cyclic, plan.cyclic);
        // Every edge crosses strictly forward in wave index.
        let wave_of: HashMap<CellAddr, usize> = waves
            .waves
            .iter()
            .enumerate()
            .flat_map(|(i, w)| w.iter().map(move |&c| (c, i)))
            .collect();
        for (&u, &wu) in &wave_of {
            for v in g.dependents_of(u) {
                if let Some(&wv) = wave_of.get(&v) {
                    assert!(wv > wu, "{v} reads {u} but is in wave {wv} <= {wu}");
                }
            }
        }
    }

    #[test]
    fn full_waves_match_all_seed_recompute_waves() {
        // Fill-down band, a point-ref column, a chain, a 2-cycle, a
        // self-reference, a whole-row rect, and an overlapping-range
        // formula (two ranges covering the same source must still yield
        // one edge) — full_waves must reproduce recompute_waves exactly.
        let mut g = DependencyGraph::new();
        for row in 4..40u32 {
            g.set_formula(CellAddr::new(row, 1), vec![Rect::new(row - 4, 0, row, 0)]);
            g.set_formula(
                CellAddr::new(row, 2),
                vec![Rect::cell(CellAddr::new(row, 1))],
            );
        }
        for row in 1..20u32 {
            g.set_formula(
                CellAddr::new(row, 3),
                vec![Rect::cell(CellAddr::new(row - 1, 3))],
            );
        }
        g.set_formula(a("F1"), vec![r("G1")]);
        g.set_formula(a("G1"), vec![r("F1")]);
        g.set_formula(a("H1"), vec![r("H1")]);
        g.set_formula(a("I1"), vec![Rect::new(5, 0, 5, u32::MAX - 1)]);
        g.set_formula(a("J1"), vec![r("B5:B20"), r("B10:C15")]);
        // The cascade shape: a 64-row sliding `SUM` over column A, a
        // scalar column over it, a running chain and a whole-column total,
        // whose fill-down ranges crowd one index bucket.
        let mut cascade = DependencyGraph::new();
        for row in 0..300u32 {
            let window = Rect::new(row.saturating_sub(63), 0, row, 0);
            cascade.set_formula(CellAddr::new(row, 7), vec![window]);
            cascade.set_formula(
                CellAddr::new(row, 8),
                vec![Rect::cell(CellAddr::new(row, 7))],
            );
        }
        cascade.set_formula(CellAddr::new(0, 9), vec![r("A1")]);
        for row in 1..150u32 {
            cascade.set_formula(
                CellAddr::new(row, 9),
                vec![
                    Rect::cell(CellAddr::new(row - 1, 9)),
                    Rect::cell(CellAddr::new(row, 0)),
                ],
            );
        }
        cascade.set_formula(CellAddr::new(0, 10), vec![Rect::new(0, 8, 299, 8)]);
        for g in [g, cascade] {
            let seeds: Vec<CellAddr> = g.reads.keys().copied().collect();
            assert_eq!(g.full_waves(), g.recompute_waves(&seeds));
            assert_eq!(
                g.full_waves().len() + g.full_waves().cyclic.len(),
                g.formula_count()
            );
        }
    }

    #[test]
    fn empty_seed_set_yields_empty_waves() {
        let g = DependencyGraph::new();
        let plan = g.recompute_waves(&[a("A1")]);
        assert!(plan.is_empty());
        assert!(plan.cyclic.is_empty());
    }

    #[test]
    fn level_selection_bounds_bucket_count() {
        for rect in [
            Rect::new(0, 0, 0, 0),
            Rect::new(0, 0, 31, 31),
            Rect::new(7, 9, 70, 40),
            Rect::new(0, 0, u32::MAX - 1, 0),
            Rect::new(0, 0, u32::MAX - 1, u32::MAX - 1),
            Rect::new(1000, 1000, 1031, 1000),
        ] {
            let (level, buckets) = placements(&rect);
            let n = buckets.count();
            assert!(n <= 4, "{rect:?} at level {level} occupies {n} buckets");
        }
    }

    /// The sub-linear lookup claim as a count. The corpus is a dense
    /// formula column: each of 100 000 rows holds a formula reading a
    /// few cells of its own row, every third one also reads the formula
    /// above it, and every 500th reads a whole-sheet column band. A
    /// `dependents_of` probe confirms only the candidates the index
    /// yields, where the scan oracle examines every formula; the index
    /// must yield under 1 % of the formulas per probe (it yields ~243
    /// candidates for ~111 dependents).
    #[test]
    fn dependents_probe_examines_few_candidates() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const FORMULAS: u32 = 100_000;
        let mut rng = StdRng::seed_from_u64(0x407_9478);
        let mut g = DependencyGraph::new();
        for i in 0..FORMULAS {
            let mut ranges = vec![Rect::new(
                i,
                rng.gen_range(0..4u32),
                i,
                rng.gen_range(4..8u32),
            )];
            if i % 3 == 2 {
                ranges.push(Rect::cell(CellAddr::new(i - 1, 9)));
            }
            if i % 500 == 499 {
                ranges.push(Rect::new(0, rng.gen_range(0..8u32), FORMULAS, 8));
            }
            g.set_formula(CellAddr::new(i, 9), ranges);
        }
        const PROBES: usize = 512;
        let (mut candidates, mut dependents) = (0, 0);
        for _ in 0..PROBES {
            let probe = CellAddr::new(rng.gen_range(0..FORMULAS), rng.gen_range(0..10u32));
            candidates += g.index.candidates(probe).count();
            dependents += g.dependents_of(probe).len();
        }
        assert!(dependents > 0, "the probes must hit dependents");
        assert!(
            candidates * 100 <= PROBES * FORMULAS as usize,
            "{candidates} candidates over {PROBES} probes of {FORMULAS} formulas"
        );
    }
}
