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
//! **Sharding.** A `DependencyGraph` is deliberately *per-sheet* state —
//! no globals, no interior sharing — and the whole structure is `Send`.
//! The concurrent workspace shards one graph per sheet behind that
//! sheet's lock, so formula edits on different sheets never contend on a
//! shared index (the PR 4 follow-up: "per-sheet sharding … once multiple
//! sheets/users mutate in parallel").

use std::collections::{HashMap, HashSet, VecDeque};

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
    fn candidates_into(&self, cell: CellAddr, out: &mut Vec<CellAddr>) {
        for (level, map) in self.levels.iter().enumerate() {
            if map.is_empty() {
                continue;
            }
            let s = BASE_SHIFT as u64 + level as u64;
            let key = ((cell.row as u64 >> s) as u32, (cell.col as u64 >> s) as u32);
            if let Some(v) = map.get(&key) {
                out.extend_from_slice(v);
            }
        }
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

/// The affected subgraph both plan shapes are built from: nodes reachable
/// from the seeds by dependent edges, in-degrees, and forward edges
/// (`u → v` when formula `v` reads cell `u`).
struct AffectedSubgraph {
    nodes: Vec<CellAddr>,
    indeg: HashMap<CellAddr, usize>,
    edges: HashMap<CellAddr, Vec<CellAddr>>,
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

    /// Formula cells that directly read `cell`, sorted (deduplicated):
    /// probe the spatial index for candidates, then confirm containment
    /// against the exact range lists. O(candidates), not O(formulas).
    pub fn dependents_of(&self, cell: CellAddr) -> Vec<CellAddr> {
        let mut cands = Vec::new();
        self.index.candidates_into(cell, &mut cands);
        cands.sort_unstable();
        cands.dedup();
        cands.retain(|f| {
            self.reads
                .get(f)
                .is_some_and(|ranges| ranges.iter().any(|r| r.contains(cell)))
        });
        cands
    }

    /// All formulas transitively affected by updates to `seeds`, in a valid
    /// recomputation order; cycle participants are reported separately.
    ///
    /// Both phases are index-driven: the BFS probes the spatial index per
    /// affected cell, and the topological edges come from the same probes
    /// (every formula reading cell `u` is by construction already in the
    /// affected closure), so plan construction is O(affected × candidates)
    /// instead of the all-pairs O(affected²) rect test.
    fn affected_subgraph(&self, seeds: &[CellAddr]) -> AffectedSubgraph {
        // Each cell's dependents are needed twice (BFS discovery, then
        // edge construction below) — probe the index once per cell.
        let mut memo: HashMap<CellAddr, Vec<CellAddr>> = HashMap::new();
        // 1. Collect affected formulas by BFS over dependents.
        let mut affected: HashSet<CellAddr> = HashSet::new();
        let mut queue: VecDeque<CellAddr> = VecDeque::new();
        for &seed in seeds {
            // A seed that is itself a formula needs recomputation too.
            if self.is_formula(seed) && affected.insert(seed) {
                queue.push_back(seed);
            }
            let deps = memo.entry(seed).or_insert_with(|| self.dependents_of(seed));
            for &dep in deps.iter() {
                if affected.insert(dep) {
                    queue.push_back(dep);
                }
            }
        }
        while let Some(cell) = queue.pop_front() {
            let deps = memo.entry(cell).or_insert_with(|| self.dependents_of(cell));
            for &dep in deps.iter() {
                if affected.insert(dep) {
                    queue.push_back(dep);
                }
            }
        }
        // 2. Edges of the affected subgraph: u→v when v reads u (v must
        //    evaluate after u). Every node was probed during the BFS, so
        //    this phase is pure memo lookups.
        let nodes: Vec<CellAddr> = affected.iter().copied().collect();
        let mut indeg: HashMap<CellAddr, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        let mut edges: HashMap<CellAddr, Vec<CellAddr>> = HashMap::new();
        for &u in &nodes {
            let deps = memo.entry(u).or_insert_with(|| self.dependents_of(u));
            for &v in deps.iter() {
                if v == u {
                    // A formula reading its own cell is an immediate cycle:
                    // a permanent in-degree bump keeps it (and its
                    // dependents) out of the topological order.
                    *indeg.get_mut(&u).expect("node present") += 1;
                } else if affected.contains(&v) {
                    edges.entry(u).or_default().push(v);
                    *indeg.get_mut(&v).expect("node present") += 1;
                }
            }
        }
        AffectedSubgraph {
            nodes,
            indeg,
            edges,
        }
    }

    pub fn recompute_plan(&self, seeds: &[CellAddr]) -> RecomputePlan {
        let AffectedSubgraph {
            nodes,
            mut indeg,
            edges,
        } = self.affected_subgraph(seeds);
        // Kahn's algorithm with sorted tie-breaking over the subgraph.
        let mut ready: Vec<CellAddr> = nodes.iter().copied().filter(|n| indeg[n] == 0).collect();
        // Deterministic order helps tests and users.
        ready.sort();
        let mut order = Vec::with_capacity(nodes.len());
        let mut queue: VecDeque<CellAddr> = ready.into();
        while let Some(u) = queue.pop_front() {
            order.push(u);
            if let Some(vs) = edges.get(&u) {
                let mut unlocked: Vec<CellAddr> = Vec::new();
                for &v in vs {
                    let d = indeg.get_mut(&v).expect("node present");
                    *d -= 1;
                    if *d == 0 {
                        unlocked.push(v);
                    }
                }
                unlocked.sort();
                queue.extend(unlocked);
            }
        }
        let mut cyclic: Vec<CellAddr> = nodes.into_iter().filter(|n| indeg[n] > 0).collect();
        cyclic.sort();
        RecomputePlan { order, cyclic }
    }

    /// The same affected set as [`DependencyGraph::recompute_plan`], grouped
    /// into dependency-depth waves (level-synchronous Kahn): a formula lands
    /// in the first wave after every in-subgraph formula it reads. Members
    /// of one wave never read each other, so the engine evaluates a wave's
    /// cells concurrently and writes the results back in wave order —
    /// producing the same values as the sequential plan.
    pub fn recompute_waves(&self, seeds: &[CellAddr]) -> WavePlan {
        let AffectedSubgraph {
            nodes,
            indeg,
            edges,
        } = self.affected_subgraph(seeds);
        Self::waves_from(nodes, indeg, edges)
    }

    /// The wave plan covering *every* registered formula — the bulk
    /// `recompute_all` path. Produces exactly the plan that
    /// [`DependencyGraph::recompute_waves`] seeded with every formula cell
    /// would, but skips the discovery BFS (the affected set is the whole
    /// graph by definition) and builds the edges straight from the read
    /// ranges with a column-sorted containment query over the formula
    /// addresses, instead of one spatial-index probe per cell. On dense
    /// fill-down sheets — many same-column ranges crowding the same index
    /// buckets — that turns plan construction from the dominant cascade
    /// cost into noise.
    pub fn full_waves(&self) -> WavePlan {
        // Formula addresses grouped by column, rows sorted: "which formula
        // cells does this rect cover" becomes a binary search per column.
        let mut by_col: HashMap<u32, Vec<u32>> = HashMap::new();
        for a in self.reads.keys() {
            by_col.entry(a.col).or_default().push(a.row);
        }
        for rows in by_col.values_mut() {
            rows.sort_unstable();
        }
        let rows_in = |rows: &[u32], col: u32, r: &Rect, out: &mut Vec<CellAddr>| {
            let lo = rows.partition_point(|&row| row < r.r1);
            let hi = rows.partition_point(|&row| row <= r.r2);
            out.extend(rows[lo..hi].iter().map(|&row| CellAddr::new(row, col)));
        };
        let nodes: Vec<CellAddr> = self.reads.keys().copied().collect();
        let mut indeg: HashMap<CellAddr, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        let mut edges: HashMap<CellAddr, Vec<CellAddr>> = HashMap::new();
        let mut sources: Vec<CellAddr> = Vec::new();
        for (&v, ranges) in &self.reads {
            sources.clear();
            for r in ranges {
                // Enumerate the formula cells inside `r`, walking whichever
                // axis set is smaller: the rect's columns or the columns
                // that actually hold formulas (a whole-row rect spans 2³²
                // columns; the sheet holds formulas in a handful).
                if r.cols() >= by_col.len() as u64 {
                    for (&c, rows) in &by_col {
                        if c >= r.c1 && c <= r.c2 {
                            rows_in(rows, c, r, &mut sources);
                        }
                    }
                } else {
                    for c in r.c1..=r.c2 {
                        if let Some(rows) = by_col.get(&c) {
                            rows_in(rows, c, r, &mut sources);
                        }
                    }
                }
            }
            // One edge per (source, reader) pair no matter how many of the
            // reader's ranges cover the source — mirrors the deduplication
            // `dependents_of` performs on the probe path.
            sources.sort_unstable();
            sources.dedup();
            for &u in &sources {
                let d = indeg.get_mut(&v).expect("node present");
                *d += 1;
                if u == v {
                    // Self-reference: an immediate cycle — the permanent
                    // in-degree bump keeps `v` out of every wave.
                    continue;
                }
                edges.entry(u).or_default().push(v);
            }
        }
        Self::waves_from(nodes, indeg, edges)
    }

    /// Level-synchronous Kahn over a prepared subgraph: shared tail of
    /// [`DependencyGraph::recompute_waves`] and
    /// [`DependencyGraph::full_waves`].
    fn waves_from(
        nodes: Vec<CellAddr>,
        mut indeg: HashMap<CellAddr, usize>,
        edges: HashMap<CellAddr, Vec<CellAddr>>,
    ) -> WavePlan {
        let mut frontier: Vec<CellAddr> = nodes.iter().copied().filter(|n| indeg[n] == 0).collect();
        frontier.sort_unstable();
        let mut waves: Vec<Vec<CellAddr>> = Vec::new();
        while !frontier.is_empty() {
            let mut next: Vec<CellAddr> = Vec::new();
            for &u in &frontier {
                if let Some(vs) = edges.get(&u) {
                    for &v in vs {
                        let d = indeg.get_mut(&v).expect("node present");
                        *d -= 1;
                        if *d == 0 {
                            next.push(v);
                        }
                    }
                }
            }
            next.sort_unstable();
            waves.push(frontier);
            frontier = next;
        }
        let mut cyclic: Vec<CellAddr> = nodes.into_iter().filter(|n| indeg[n] > 0).collect();
        cyclic.sort();
        WavePlan { waves, cyclic }
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
        let seeds: Vec<CellAddr> = g.reads.keys().copied().collect();
        assert_eq!(g.full_waves(), g.recompute_waves(&seeds));
        assert_eq!(
            g.full_waves().len() + g.full_waves().cyclic.len(),
            g.formula_count()
        );
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
            let mut cands = Vec::new();
            g.index.candidates_into(probe, &mut cands);
            candidates += cands.len();
            dependents += g.dependents_of(probe).len();
        }
        assert!(dependents > 0, "the probes must hit dependents");
        assert!(
            candidates * 100 <= PROBES * FORMULAS as usize,
            "{candidates} candidates over {PROBES} probes of {FORMULAS} formulas"
        );
    }
}
