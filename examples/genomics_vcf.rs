//! Genomics use case (paper Example 1, §VII-D.a, Figure 16).
//!
//! Biologists' VCF files run to millions of rows — beyond Excel's 1M-row
//! limit. This example imports a synthetic VCF-shaped dataset, then
//! "scrolls" (positional range fetches) to the millionth row with
//! interactive latency, and inserts a row in the middle without the
//! cascading-renumber penalty.
//!
//! Run with: `cargo run --release --example genomics_vcf [-- rows cols]`
//! Defaults to 1.3M rows × 12 columns (the paper's file was 1.3M × 284;
//! trim columns to keep the example's memory footprint laptop-friendly).

use std::time::Instant;

use dataspread::corpus::vcf::{vcf_header, vcf_rows};
use dataspread::engine::SheetEngine;
use dataspread::grid::{CellAddr, CellValue, Rect, Shift};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().collect();
    let n_rows: usize = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_300_000);
    let n_cols: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(12);
    let n_samples = n_cols.saturating_sub(9).max(1);

    println!(
        "importing VCF-like dataset: {n_rows} rows x {} columns ...",
        9 + n_samples
    );
    let t0 = Instant::now();
    let mut sheet = SheetEngine::new();
    // Header row.
    for (c, h) in vcf_header(n_samples).iter().enumerate() {
        sheet.update_cell(CellAddr::new(0, c as u32), h)?;
    }
    // Bulk import as a ROM region with O(N) positional-map construction.
    let rect = sheet.import_rows(
        CellAddr::new(1, 0),
        (9 + n_samples) as u32,
        vcf_rows(n_rows, n_samples, 42),
    )?;
    println!(
        "imported {} rows in {:.2?} (region {}, {} B accounted)",
        n_rows,
        t0.elapsed(),
        rect,
        sheet.storage_bytes()
    );

    // --- Scrolling: fetch a 40x? window at several positions ---------
    for &target in &[100usize, n_rows / 2, n_rows.saturating_sub(50).max(1)] {
        let t = Instant::now();
        let window = Rect::new(target as u32, 0, target as u32 + 39, 8);
        let cells = sheet.get_cells(window);
        let elapsed = t.elapsed();
        println!(
            "scroll to row {:>9}: fetched {:3} cells in {:?} (interactive: {})",
            target + 1,
            cells.len(),
            elapsed,
            if elapsed.as_millis() < 500 {
                "yes"
            } else {
                "NO"
            },
        );
        assert!(!cells.is_empty());
    }

    // Show the window around the millionth row like Figure 16.
    if n_rows >= 1_000_000 {
        println!("\nwindow at the millionth row:");
        let window = Rect::new(1_000_000, 0, 1_000_004, 5);
        for (addr, cell) in sheet.get_cells(window) {
            if addr.col == 0 {
                print!("  row {:>8}: ", addr.row + 1);
            }
            print!("{} ", cell.value.as_text());
            if addr.col == 5 {
                println!();
            }
        }
        println!();
    }

    // --- A positional middle insert (the operation that cascades in a
    //     position-as-is store) ---------------------------------------
    let mid = (n_rows / 2) as u32;
    let t = Instant::now();
    sheet
        .storage_mut()
        .shift(Shift::InsertRows { at: mid, n: 1 })?;
    println!(
        "inserted a row at position {} in {:?} (no cascading renumber)",
        mid,
        t.elapsed()
    );
    assert_eq!(sheet.value(CellAddr::new(mid, 0)), CellValue::Empty);

    // --- A formula over a large range ---------------------------------
    let t = Instant::now();
    let qual_rows = 200_000.min(n_rows);
    sheet.update_cell(
        CellAddr::new(0, (9 + n_samples) as u32 + 1),
        &format!("=AVERAGE(F2:F{})", qual_rows + 1),
    )?;
    let avg = sheet.value(CellAddr::new(0, (9 + n_samples) as u32 + 1));
    println!(
        "AVERAGE(QUAL) over {} rows = {} in {:.2?}",
        qual_rows,
        avg.as_text(),
        t.elapsed()
    );
    Ok(())
}
