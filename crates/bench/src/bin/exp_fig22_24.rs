//! Figures 22–24: translator operation latencies vs sheet density, column
//! count, and row count — ROM vs RCV, both on hierarchical positional maps
//! (Appendix C-B1).
//!
//! * Fig 22 — update a 100×20 region (cell-at-a-time updates),
//! * Fig 23 — insert one row of `cols` cells,
//! * Fig 24 — select (scroll to) a 1000×20 region.
//!
//! Default row count is 10⁵ (the paper sweeps to 10⁷; pass `--full`).

use std::time::Duration;

use dataspread_bench::{dense_rcv, dense_rom, sparse_rom, time_median};
use dataspread_engine::hybrid::HybridSheet;
use dataspread_grid::{Cell, Rect};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let base_rows: u32 = if full { 1_000_000 } else { 100_000 };

    // --- sweep 1: density (rows fixed, 100 cols) ---------------------
    println!("sweep (a): density (rows={base_rows}, cols=100)\n");
    header();
    for &density in &[0.2, 0.4, 0.6, 0.8, 1.0] {
        let mut rom = sparse_rom(base_rows / 10, 100, density);
        let mut rcv = dense_rcv(base_rows / 10, 100, density);
        row(
            &format!("d={density}"),
            measure(&mut rom),
            measure(&mut rcv),
        );
    }

    // --- sweep 2: column count ----------------------------------------
    println!(
        "\nsweep (b): columns (rows={}, density=1)\n",
        base_rows / 10
    );
    header();
    for &cols in &[10u32, 30, 50, 70, 100] {
        let mut rom = dense_rom(base_rows / 10, cols);
        let mut rcv = dense_rcv(base_rows / 10, cols, 1.0);
        row(&format!("c={cols}"), measure(&mut rom), measure(&mut rcv));
    }

    // --- sweep 3: row count --------------------------------------------
    println!("\nsweep (c): rows (cols=100, density=1)\n");
    header();
    let row_sizes: &[u32] = if full {
        &[10_000, 100_000, 1_000_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    for &rows in row_sizes {
        let mut rom = dense_rom(rows, 100);
        let mut rcv = dense_rcv(rows, 100, 1.0);
        row(&format!("r={rows}"), measure(&mut rom), measure(&mut rcv));
    }
    println!(
        "\npaper shape (Figs 22-24): ROM beats RCV for updates and inserts (one tuple vs many);\n\
         selects: RCV competitive at low density, ROM wins when dense; everything stays\n\
         interactive (<500 ms) except RCV range updates, which issue one query per cell."
    );
}

struct Lat {
    update: Duration,
    insert: Duration,
    select: Duration,
}

fn measure(hs: &mut HybridSheet) -> Lat {
    // Fig 22: update a 100 x 20 region, one batched write per row (the
    // paper's ROM issues one UPDATE per row; RCV still touches each cell's
    // tuple).
    let patch: Vec<(u32, Cell)> = (0..20).map(|c| (c, Cell::value(1i64))).collect();
    let update = time_median(3, || {
        for r in 200..300 {
            // The batch API consumes its input; both models pay the same
            // clone here, so the ROM-vs-RCV comparison is unaffected.
            hs.set_cells_in_row(r, patch.clone()).unwrap();
        }
    });
    // Fig 23: insert one row (the region's translator handles the shift).
    let insert = time_median(3, || {
        hs.insert_rows(500, 1).unwrap();
    });
    // Fig 24: select a 1000 x 20 region.
    let select = time_median(3, || {
        std::hint::black_box(hs.get_cells(Rect::new(100, 0, 1099, 19)));
    });
    Lat {
        update,
        insert,
        select,
    }
}

fn header() {
    println!(
        "{:<10} | {:>12} {:>12} | {:>12} {:>12} | {:>12} {:>12}",
        "", "upd ROM", "upd RCV", "ins ROM", "ins RCV", "sel ROM", "sel RCV"
    );
}

fn row(label: &str, rom: Lat, rcv: Lat) {
    println!(
        "{:<10} | {:>12?} {:>12?} | {:>12?} {:>12?} | {:>12?} {:>12?}",
        label, rom.update, rcv.update, rom.insert, rcv.insert, rom.select, rcv.select
    );
}
