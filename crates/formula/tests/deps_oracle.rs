//! Differential oracle suite for the spatially-indexed dependency graph:
//! [`DependencyGraph`] (grid-bucket index) must be behavior-identical to
//! [`ScanDependencyGraph`] (the pre-index scan implementation, kept here) on
//! random formula sets and edit sequences — dependent lookups, recompute
//! plans (order *and* cycle sets), across every range shape the index has
//! to place (single cells, small rects, whole-column bands, huge blocks).

use std::collections::{HashMap, HashSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_formula::{DependencyGraph, RecomputePlan};
use dataspread_grid::{CellAddr, Rect};

/// The pre-index scan implementation, the reference oracle of this suite:
/// `dependents_of` walks every registered formula and `recompute_plan`
/// tests all affected pairs.
#[derive(Debug, Default)]
struct ScanDependencyGraph {
    reads: HashMap<CellAddr, Vec<Rect>>,
}

impl ScanDependencyGraph {
    fn new() -> Self {
        Self::default()
    }

    fn set_formula(&mut self, cell: CellAddr, ranges: Vec<Rect>) {
        self.reads.insert(cell, ranges);
    }

    fn remove(&mut self, cell: CellAddr) {
        self.reads.remove(&cell);
    }

    fn is_formula(&self, cell: CellAddr) -> bool {
        self.reads.contains_key(&cell)
    }

    /// Formula cells that directly read `cell`, sorted (the scan visits
    /// every formula; sorting matches `DependencyGraph::dependents_of`).
    fn dependents_of(&self, cell: CellAddr) -> Vec<CellAddr> {
        let mut out: Vec<CellAddr> = self
            .reads
            .iter()
            .filter(|(_, ranges)| ranges.iter().any(|r| r.contains(cell)))
            .map(|(a, _)| *a)
            .collect();
        out.sort_unstable();
        out
    }

    fn reads_rect(&self, f: CellAddr, rect: &Rect) -> bool {
        self.reads
            .get(&f)
            .is_some_and(|ranges| ranges.iter().any(|r| r.intersects(rect)))
    }

    fn recompute_plan(&self, seeds: &[CellAddr]) -> RecomputePlan {
        let mut affected: HashSet<CellAddr> = HashSet::new();
        let mut queue: VecDeque<CellAddr> = VecDeque::new();
        for &seed in seeds {
            if self.is_formula(seed) && affected.insert(seed) {
                queue.push_back(seed);
            }
            for dep in self.dependents_of(seed) {
                if affected.insert(dep) {
                    queue.push_back(dep);
                }
            }
        }
        while let Some(cell) = queue.pop_front() {
            for dep in self.dependents_of(cell) {
                if affected.insert(dep) {
                    queue.push_back(dep);
                }
            }
        }
        let nodes: Vec<CellAddr> = affected.iter().copied().collect();
        let mut indeg: HashMap<CellAddr, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        let mut edges: HashMap<CellAddr, Vec<CellAddr>> = HashMap::new();
        for &u in &nodes {
            let cell_rect = Rect::cell(u);
            if self.reads_rect(u, &cell_rect) {
                *indeg.get_mut(&u).expect("node present") += 1;
            }
            for &v in &nodes {
                if u != v && self.reads_rect(v, &cell_rect) {
                    edges.entry(u).or_default().push(v);
                    *indeg.get_mut(&v).expect("node present") += 1;
                }
            }
        }
        let mut ready: Vec<CellAddr> = nodes.iter().copied().filter(|n| indeg[n] == 0).collect();
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
}

/// Rows × cols of the synthetic sheet (formula addresses and probe cells
/// are drawn from a slightly larger space to hit out-of-range probes too).
const ROWS: u32 = 600;
const COLS: u32 = 80;

fn random_addr(rng: &mut StdRng) -> CellAddr {
    CellAddr::new(rng.gen_range(0..ROWS), rng.gen_range(0..COLS))
}

/// A random read-range, biased across the shapes that stress different
/// index levels: point refs, small aggregates, row/column bands, and the
/// occasional huge block.
fn random_rect(rng: &mut StdRng) -> Rect {
    let a = random_addr(rng);
    match rng.gen_range(0..10u32) {
        // Point reference (≈ plain `A1`).
        0..=3 => Rect::cell(a),
        // Small aggregate (`SUM(B2:D9)`).
        4..=6 => {
            let h = rng.gen_range(1..12u32);
            let w = rng.gen_range(1..6u32);
            Rect::new(
                a.row,
                a.col,
                (a.row + h - 1).min(ROWS - 1),
                (a.col + w - 1).min(COLS - 1),
            )
        }
        // Tall column band (`SUM(A:A)`-ish): coarse index levels.
        7..=8 => Rect::new(
            0,
            a.col,
            ROWS - 1,
            (a.col + rng.gen_range(0..2u32)).min(COLS - 1),
        ),
        // Huge block spanning most of the sheet.
        _ => Rect::new(
            rng.gen_range(0..ROWS / 4),
            rng.gen_range(0..COLS / 4),
            rng.gen_range(ROWS / 2..ROWS),
            rng.gen_range(COLS / 2..COLS),
        ),
    }
}

fn random_ranges(rng: &mut StdRng) -> Vec<Rect> {
    (0..rng.gen_range(1..4usize))
        .map(|_| random_rect(rng))
        .collect()
}

/// Assert a plan order is a valid topological order: every formula appears
/// at most once, and by the time a formula is evaluated, no *later* entry
/// is one of its read dependencies (reads among the ordered set must point
/// backwards only).
fn assert_valid_topo(g: &ScanDependencyGraph, order: &[CellAddr]) {
    let pos: HashMap<CellAddr, usize> = order.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    assert_eq!(pos.len(), order.len(), "duplicate cell in plan order");
    for (i, &u) in order.iter().enumerate() {
        // Everything reading u that is in the order must come after u.
        for v in g.dependents_of(u) {
            if let Some(&j) = pos.get(&v) {
                assert!(j > i, "{v} reads {u} but is ordered before it");
            }
        }
    }
}

fn compare_lookups(indexed: &DependencyGraph, scan: &ScanDependencyGraph, rng: &mut StdRng) {
    for _ in 0..200 {
        let probe = random_addr(rng);
        assert_eq!(
            indexed.dependents_of(probe),
            scan.dependents_of(probe),
            "dependents_of({probe}) diverged"
        );
    }
}

fn compare_plans(indexed: &DependencyGraph, scan: &ScanDependencyGraph, rng: &mut StdRng) {
    for _ in 0..20 {
        let seeds: Vec<CellAddr> = (0..rng.gen_range(1..4usize))
            .map(|_| random_addr(rng))
            .collect();
        let got = indexed.recompute_plan(&seeds);
        let want = scan.recompute_plan(&seeds);
        // Both implementations run Kahn's algorithm with sorted
        // tie-breaking over identical edge sets, so the order (not just
        // its validity) must match exactly, as must the cycle set.
        assert_eq!(got.order, want.order, "plan order diverged for {seeds:?}");
        assert_eq!(got.cyclic, want.cyclic, "cycle set diverged for {seeds:?}");
        assert_valid_topo(scan, &got.order);
        assert_valid_waves(scan, &indexed.recompute_waves(&seeds), &want);
    }
}

/// `full_waves` must equal the wave plan seeded with every formula, and
/// be valid against the scan oracle's plan over the same seeds.
fn compare_full_waves(indexed: &DependencyGraph, scan: &ScanDependencyGraph) {
    let every: Vec<CellAddr> = indexed.formulas().map(|(a, _)| a).collect();
    let full = indexed.full_waves();
    assert_eq!(full, indexed.recompute_waves(&every), "full_waves diverged");
    assert_valid_waves(scan, &full, &scan.recompute_plan(&every));
}

/// The wave plan must cover exactly the sequential plan's affected set and
/// cycle set, and every read edge must cross strictly forward in wave
/// index — the invariant that makes per-wave parallel evaluation safe.
fn assert_valid_waves(
    scan: &ScanDependencyGraph,
    waves: &dataspread_formula::WavePlan,
    plan: &RecomputePlan,
) {
    let wave_of: HashMap<CellAddr, usize> = waves
        .waves
        .iter()
        .enumerate()
        .flat_map(|(i, w)| w.iter().map(move |&c| (c, i)))
        .collect();
    assert_eq!(wave_of.len(), waves.len(), "duplicate cell across waves");
    let mut flat: Vec<CellAddr> = wave_of.keys().copied().collect();
    flat.sort();
    let mut order = plan.order.clone();
    order.sort();
    assert_eq!(flat, order, "wave set diverged from plan order set");
    assert_eq!(waves.cyclic, plan.cyclic, "wave cycle set diverged");
    for w in &waves.waves {
        assert!(!w.is_empty(), "empty wave emitted");
        assert!(w.windows(2).all(|p| p[0] < p[1]), "wave not sorted");
    }
    for (&u, &wu) in &wave_of {
        for v in scan.dependents_of(u) {
            if let Some(&wv) = wave_of.get(&v) {
                assert!(wv > wu, "{v} reads {u} but sits in wave {wv} <= {wu}");
            }
        }
    }
}

#[test]
fn random_formula_sets_agree_with_scan_oracle() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xDE9_0001 + seed);
        let mut indexed = DependencyGraph::new();
        let mut scan = ScanDependencyGraph::new();
        for _ in 0..rng.gen_range(50..300usize) {
            let cell = random_addr(&mut rng);
            let ranges = random_ranges(&mut rng);
            indexed.set_formula(cell, ranges.clone());
            scan.set_formula(cell, ranges);
        }
        compare_lookups(&indexed, &scan, &mut rng);
        compare_plans(&indexed, &scan, &mut rng);
        compare_full_waves(&indexed, &scan);
    }
}

#[test]
fn random_edit_sequences_agree_with_scan_oracle() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0xDE9_1000 + seed);
        let mut indexed = DependencyGraph::new();
        let mut scan = ScanDependencyGraph::new();
        let mut registered: Vec<CellAddr> = Vec::new();
        for step in 0..400usize {
            match rng.gen_range(0..10u32) {
                // Remove a known formula (exercises placement removal).
                0..=2 if !registered.is_empty() => {
                    let cell = registered.swap_remove(rng.gen_range(0..registered.len()));
                    indexed.remove(cell);
                    scan.remove(cell);
                }
                // Replace an existing formula's ranges (old placements
                // must be fully unregistered).
                3..=4 if !registered.is_empty() => {
                    let cell = registered[rng.gen_range(0..registered.len())];
                    let ranges = random_ranges(&mut rng);
                    indexed.set_formula(cell, ranges.clone());
                    scan.set_formula(cell, ranges);
                }
                // Register a (possibly new) formula.
                _ => {
                    let cell = random_addr(&mut rng);
                    let ranges = random_ranges(&mut rng);
                    if !registered.contains(&cell) {
                        registered.push(cell);
                    }
                    indexed.set_formula(cell, ranges.clone());
                    scan.set_formula(cell, ranges);
                }
            }
            assert_eq!(indexed.formula_count(), registered.len());
            // Spot-check continuously, full sweep every 50 steps.
            let probe = random_addr(&mut rng);
            assert_eq!(indexed.dependents_of(probe), scan.dependents_of(probe));
            if step % 50 == 49 {
                compare_lookups(&indexed, &scan, &mut rng);
                compare_plans(&indexed, &scan, &mut rng);
                compare_full_waves(&indexed, &scan);
            }
        }
        // Drain to empty: every placement must unregister cleanly.
        while let Some(cell) = registered.pop() {
            indexed.remove(cell);
            scan.remove(cell);
        }
        compare_lookups(&indexed, &scan, &mut rng);
        assert_eq!(indexed.formula_count(), 0);
    }
}

#[test]
fn dense_chain_plans_agree() {
    // A long dependency chain (each cell reads its predecessor) plus
    // aggregate readers: worst case for plan construction, and the shape
    // where an ordering bug would surface immediately.
    let mut indexed = DependencyGraph::new();
    let mut scan = ScanDependencyGraph::new();
    for r in 1..200u32 {
        let ranges = vec![Rect::cell(CellAddr::new(r - 1, 0))];
        indexed.set_formula(CellAddr::new(r, 0), ranges.clone());
        scan.set_formula(CellAddr::new(r, 0), ranges);
    }
    // Aggregates over the whole chain.
    for c in 1..5u32 {
        let ranges = vec![Rect::new(0, 0, 199, 0)];
        indexed.set_formula(CellAddr::new(0, c), ranges.clone());
        scan.set_formula(CellAddr::new(0, c), ranges);
    }
    let got = indexed.recompute_plan(&[CellAddr::new(0, 0)]);
    let want = scan.recompute_plan(&[CellAddr::new(0, 0)]);
    assert_eq!(got, want);
    assert_eq!(got.order.len(), 203, "199 chain cells + 4 aggregates");
    assert!(got.cyclic.is_empty());
}
