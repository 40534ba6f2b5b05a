//! Interactive hot-path benchmark: the sub-linear claims behind the
//! paper's "O(1) edit" story (§VI, Figures 13–15, 22), measured against
//! the retained scan implementations.
//!
//! * **dependents lookup** — `DependencyGraph::dependents_of` (grid-bucket
//!   spatial index) vs `ScanDependencyGraph` (walks every formula), across
//!   formula counts.
//! * **recompute plan** — index-probed edge construction vs the all-pairs
//!   scan, same seeds.
//! * **point routing** — `HybridSheet::region_at` (row-band index) vs
//!   `region_at_scan`, plus end-to-end `get_cell`/`set_cell`, across
//!   region counts.
//! * **window fetch** — `get_cells` over a scrolling-sized window.
//!
//! Results go to stdout and to a machine-readable `BENCH_hotpath.json`
//! (override with `DS_HOTPATH_OUT`) so successive perf PRs accumulate a
//! tracked trajectory. Sizes: `DS_HOTPATH_FORMULAS` / `DS_HOTPATH_REGIONS`
//! (comma-separated; CI runs scaled-down sizes, local runs default to the
//! paper-scale 100k formulas / 2048 regions).
//!
//! At full size the run *asserts* the ≥10× acceptance bound, so a perf
//! regression fails loudly instead of shipping quietly.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::rom::RomTranslator;
use dataspread_engine::HybridSheet;
use dataspread_formula::{DependencyGraph, ScanDependencyGraph};
use dataspread_grid::{Cell, CellAddr, Rect};

fn sizes_from_env(var: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(var)
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

/// Nanoseconds per op for `iters` runs of `f`.
fn per_op_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

struct FormulaRow {
    count: usize,
    dep_scan_ns: f64,
    dep_indexed_ns: f64,
    plan_scan_ns: f64,
    plan_indexed_ns: f64,
}

struct RoutingRow {
    regions: usize,
    route_scan_ns: f64,
    route_indexed_ns: f64,
    get_cell_ns: f64,
    set_cell_ns: f64,
    window_fetch_us: f64,
}

/// A synthetic dense-formula sheet: data cells in columns 0..8, one
/// formula per data row in column 9 reading a small aggregate of nearby
/// data, chains (formula reading the previous formula) every 3rd row, and
/// a whole-column aggregate every 500th row to exercise coarse index
/// levels. Registered into both graphs identically.
fn build_graphs(count: usize, rng: &mut StdRng) -> (DependencyGraph, ScanDependencyGraph) {
    let mut indexed = DependencyGraph::new();
    let mut scan = ScanDependencyGraph::new();
    for i in 0..count as u32 {
        let cell = CellAddr::new(i, 9);
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
            ranges.push(Rect::new(0, rng.gen_range(0..8u32), count as u32, 8));
        }
        indexed.set_formula(cell, ranges.clone());
        scan.set_formula(cell, ranges);
    }
    (indexed, scan)
}

fn bench_formulas(count: usize, rng: &mut StdRng) -> FormulaRow {
    let (indexed, scan) = build_graphs(count, rng);
    let probes: Vec<CellAddr> = (0..512)
        .map(|_| CellAddr::new(rng.gen_range(0..count as u32), rng.gen_range(0..10u32)))
        .collect();
    // The scan graph is O(F) per lookup: keep its iteration count small at
    // large F (per-op normalization keeps the comparison fair).
    let scan_iters = (200_000 / count.max(1)).clamp(8, probes.len());
    let mut pi = probes.iter().cycle();
    let dep_indexed_ns = per_op_ns(probes.len() * 8, || {
        black_box(indexed.dependents_of(*pi.next().unwrap()));
    });
    let mut pi = probes.iter().cycle();
    let dep_scan_ns = per_op_ns(scan_iters, || {
        black_box(scan.dependents_of(*pi.next().unwrap()));
    });
    // Recompute plans seeded by single data-cell edits (the updateCell
    // path): seeds with a direct dependent, sometimes a chain.
    let seeds: Vec<CellAddr> = (0..64)
        .map(|_| CellAddr::new(rng.gen_range(0..count as u32), rng.gen_range(0..8u32)))
        .collect();
    let mut si = seeds.iter().cycle();
    let plan_indexed_ns = per_op_ns(seeds.len() * 4, || {
        black_box(indexed.recompute_plan(std::slice::from_ref(si.next().unwrap())));
    });
    let plan_iters = (100_000 / count.max(1)).clamp(4, seeds.len());
    let mut si = seeds.iter().cycle();
    let plan_scan_ns = per_op_ns(plan_iters, || {
        black_box(scan.recompute_plan(std::slice::from_ref(si.next().unwrap())));
    });
    FormulaRow {
        count,
        dep_scan_ns,
        dep_indexed_ns,
        plan_scan_ns,
        plan_indexed_ns,
    }
}

/// A many-region sheet: row bands of 10 rows × 8 columns with 2-row gaps
/// (catch-all territory), one seeded cell per region.
fn build_regioned_sheet(regions: usize) -> HybridSheet {
    let mut hs = HybridSheet::new();
    for i in 0..regions as u32 {
        let r1 = i * 12;
        let rom = Box::new(RomTranslator::new());
        hs.add_region(Rect::new(r1, 0, r1 + 9, 7), rom)
            .expect("bands are disjoint");
    }
    for i in 0..regions as u32 {
        hs.set_cell(CellAddr::new(i * 12 + 3, 2), Cell::value(i as i64))
            .expect("seed cell");
    }
    hs
}

fn bench_routing(regions: usize, rng: &mut StdRng) -> RoutingRow {
    let mut hs = build_regioned_sheet(regions);
    let max_row = regions as u32 * 12;
    let addrs: Vec<CellAddr> = (0..1024)
        .map(|_| CellAddr::new(rng.gen_range(0..max_row), rng.gen_range(0..10u32)))
        .collect();
    let mut ai = addrs.iter().cycle();
    let route_indexed_ns = per_op_ns(addrs.len() * 8, || {
        black_box(hs.region_at(*ai.next().unwrap()));
    });
    let scan_iters = (1_000_000 / regions.max(1)).clamp(64, addrs.len() * 8);
    let mut ai = addrs.iter().cycle();
    let route_scan_ns = per_op_ns(scan_iters, || {
        black_box(hs.region_at_scan(*ai.next().unwrap()));
    });
    let mut ai = addrs.iter().cycle();
    let get_cell_ns = per_op_ns(addrs.len() * 4, || {
        black_box(hs.get_cell(*ai.next().unwrap()));
    });
    let mut ai = addrs.iter().cycle();
    let mut v = 0i64;
    let set_cell_ns = per_op_ns(addrs.len() * 2, || {
        v += 1;
        hs.set_cell(*ai.next().unwrap(), Cell::value(v)).unwrap();
    });
    // Scrolling window: 50 rows × 8 cols at random vertical offsets.
    let offsets: Vec<u32> = (0..128)
        .map(|_| rng.gen_range(0..max_row.saturating_sub(50).max(1)))
        .collect();
    let mut oi = offsets.iter().cycle();
    let window_fetch_us = per_op_ns(offsets.len() * 2, || {
        let r1 = *oi.next().unwrap();
        black_box(hs.get_cells(Rect::new(r1, 0, r1 + 49, 7)));
    }) / 1e3;
    RoutingRow {
        regions,
        route_scan_ns,
        route_indexed_ns,
        get_cell_ns,
        set_cell_ns,
        window_fetch_us,
    }
}

fn main() {
    let formula_sizes = sizes_from_env("DS_HOTPATH_FORMULAS", &[1_000, 10_000, 100_000]);
    let region_sizes = sizes_from_env("DS_HOTPATH_REGIONS", &[16, 256, 2048]);
    let out_path =
        std::env::var("DS_HOTPATH_OUT").unwrap_or_else(|_| "BENCH_hotpath.json".to_string());
    let mut rng = StdRng::seed_from_u64(0x407_9478);

    println!("Hot-path benchmark (indexed vs retained scan implementations)\n");
    println!(
        "{:>9} | {:>13} {:>13} {:>8} | {:>13} {:>13} {:>8}",
        "formulas", "deps scan", "deps idx", "speedup", "plan scan", "plan idx", "speedup"
    );
    let mut formula_rows = Vec::new();
    for &count in &formula_sizes {
        let row = bench_formulas(count, &mut rng);
        println!(
            "{:>9} | {:>11.0}ns {:>11.0}ns {:>7.1}x | {:>11.0}ns {:>11.0}ns {:>7.1}x",
            row.count,
            row.dep_scan_ns,
            row.dep_indexed_ns,
            row.dep_scan_ns / row.dep_indexed_ns,
            row.plan_scan_ns,
            row.plan_indexed_ns,
            row.plan_scan_ns / row.plan_indexed_ns,
        );
        formula_rows.push(row);
    }

    println!(
        "\n{:>9} | {:>12} {:>12} {:>8} | {:>10} {:>10} {:>11}",
        "regions", "route scan", "route idx", "speedup", "get_cell", "set_cell", "window 50x8"
    );
    let mut routing_rows = Vec::new();
    for &regions in &region_sizes {
        let row = bench_routing(regions, &mut rng);
        println!(
            "{:>9} | {:>10.0}ns {:>10.0}ns {:>7.1}x | {:>8.0}ns {:>8.0}ns {:>9.1}us",
            row.regions,
            row.route_scan_ns,
            row.route_indexed_ns,
            row.route_scan_ns / row.route_indexed_ns,
            row.get_cell_ns,
            row.set_cell_ns,
            row.window_fetch_us,
        );
        routing_rows.push(row);
    }

    // Machine-readable trajectory record.
    let mut json = String::from("{\n  \"bench\": \"hotpath\",\n  \"formulas\": [\n");
    for (i, r) in formula_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"count\": {}, \"dependents_scan_ns\": {:.1}, \"dependents_indexed_ns\": {:.1}, \
             \"plan_scan_ns\": {:.1}, \"plan_indexed_ns\": {:.1}}}{}\n",
            r.count,
            r.dep_scan_ns,
            r.dep_indexed_ns,
            r.plan_scan_ns,
            r.plan_indexed_ns,
            if i + 1 < formula_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"routing\": [\n");
    for (i, r) in routing_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"regions\": {}, \"route_scan_ns\": {:.1}, \"route_indexed_ns\": {:.1}, \
             \"get_cell_ns\": {:.1}, \"set_cell_ns\": {:.1}, \"window_fetch_us\": {:.2}}}{}\n",
            r.regions,
            r.route_scan_ns,
            r.route_indexed_ns,
            r.get_cell_ns,
            r.set_cell_ns,
            r.window_fetch_us,
            if i + 1 < routing_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");

    // Acceptance bounds at paper scale: the indexed hot paths must beat
    // the scans by ≥10× (scaled-down CI runs skip the assert — small
    // sizes don't separate the asymptotics).
    for r in &formula_rows {
        if r.count >= 100_000 {
            let dep = r.dep_scan_ns / r.dep_indexed_ns;
            let plan = r.plan_scan_ns / r.plan_indexed_ns;
            assert!(
                dep >= 10.0,
                "dependents_of speedup {dep:.1}x < 10x at {} formulas",
                r.count
            );
            assert!(
                plan >= 10.0,
                "recompute_plan speedup {plan:.1}x < 10x at {} formulas",
                r.count
            );
        }
    }
    for r in &routing_rows {
        if r.regions >= 2048 {
            let route = r.route_scan_ns / r.route_indexed_ns;
            assert!(
                route >= 10.0,
                "routing speedup {route:.1}x < 10x at {} regions",
                r.regions
            );
        }
    }
    println!(
        "\npaper context: single-cell edits and window fetches must stay sub-linear in\n\
         sheet size for interactivity (Figs 13-15, 22); the spatial dependency index\n\
         and row-band routing index make dependents-of, plan construction, and point\n\
         routing O(candidates)/O(log regions) instead of O(formulas)/O(regions)."
    );
}
