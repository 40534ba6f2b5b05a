//! Persistence benchmark: WAL logging, crash recovery (replay), checkpoint,
//! and cold-open throughput of the durable engine.
//!
//! Scenario: `DS_PERSIST_OPS` cell updates (default 50 000) are logged to
//! the WAL of a durable sheet. We then measure
//!
//! * **log** — op logging throughput (`update_cell` with WAL append),
//! * **commit** — the fsync-point (`save`),
//! * **replay** — reopening the crash image: recovery replays every logged
//!   op and folds the result into the page image,
//! * **checkpoint** — folding the live engine's WAL into the image,
//! * **cold open** — reopening from a checkpointed image with an empty WAL,
//! * **incremental checkpoint** — after touching ~1% of cells, how many
//!   image pages actually get rewritten (dirty-page tracking at work),
//! * **region-granular checkpoint** — on a sheet decomposed into many ROM
//!   regions, a one-cell edit must re-serialize only the dirty region:
//!   page-writes and checkpoint time stay O(dirty regions), independent of
//!   total sheet size. Violations panic, so the CI durability job enforces
//!   the bound.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dataspread_engine::SheetEngine;
use dataspread_grid::{CellAddr, CellValue};

fn ops_budget() -> usize {
    std::env::var("DS_PERSIST_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-exp-persist-{name}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn clone_store(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn row(metric: &str, duration_s: f64, detail: String) {
    println!("  {metric:<28} {:>10.1} ms   {detail}", duration_s * 1e3);
}

fn main() {
    let ops = ops_budget();
    println!("Persistence benchmark ({ops} logged cell updates)\n");

    let base = temp_dir("base");
    let crash = temp_dir("crash");

    // --- log ---------------------------------------------------------
    let mut engine = SheetEngine::open(&base).expect("open durable sheet");
    let t = Instant::now();
    for i in 0..ops as u32 {
        let addr = CellAddr::new(i % 1009, i / 1009);
        engine
            .update_cell(addr, &format!("{}", (i as i64) * 7 % 100_000))
            .expect("update");
    }
    let log_s = t.elapsed().as_secs_f64();
    row(
        "log (update_cell + WAL)",
        log_s,
        format!("{:>10.0} ops/s", ops as f64 / log_s),
    );

    // --- commit (fsync-point) ---------------------------------------
    let t = Instant::now();
    engine.save().expect("save");
    let commit_s = t.elapsed().as_secs_f64();
    let wal_bytes = engine.persistence_stats().expect("durable").wal_bytes;
    row(
        "commit (wal fsync)",
        commit_s,
        format!("{:>10} wal bytes", wal_bytes),
    );

    // --- replay (crash recovery) -------------------------------------
    clone_store(&base, &crash);
    let t = Instant::now();
    let recovered = SheetEngine::open(&crash).expect("recover");
    let replay_s = t.elapsed().as_secs_f64();
    row(
        "replay (recover + fold)",
        replay_s,
        format!("{:>10.0} ops/s", ops as f64 / replay_s),
    );
    assert_eq!(recovered.snapshot(), engine.snapshot(), "recovery fidelity");
    drop(recovered);

    // --- checkpoint ---------------------------------------------------
    let t = Instant::now();
    let report = engine.checkpoint().expect("checkpoint").expect("durable");
    let ckpt_s = t.elapsed().as_secs_f64();
    row(
        "checkpoint (full image)",
        ckpt_s,
        format!(
            "{:>10} pages written ({} total, {} KiB payload)",
            report.pages_written,
            report.page_count,
            report.payload_bytes / 1024
        ),
    );

    // --- cold open ----------------------------------------------------
    let t = Instant::now();
    let cold = SheetEngine::open(&base).expect("cold open");
    let cold_s = t.elapsed().as_secs_f64();
    let cells = cold.snapshot().filled_count();
    row(
        "cold open (image only)",
        cold_s,
        format!("{:>10.0} cells/s", cells as f64 / cold_s),
    );
    drop(cold);

    // --- incremental checkpoint --------------------------------------
    // Touch ~1% of cells in a contiguous row band: the canonical image is
    // row-major, so a localized edit should dirty only a few pages.
    let touched = (ops / 100).max(1);
    for i in 0..touched as u32 {
        let addr = CellAddr::new(i % 1009, 0);
        engine.update_cell(addr, "424242").expect("touch");
    }
    let t = Instant::now();
    let incr = engine.checkpoint().expect("checkpoint").expect("durable");
    let incr_s = t.elapsed().as_secs_f64();
    row(
        "incremental checkpoint",
        incr_s,
        format!(
            "{:>10} pages written of {} after touching {touched} cells",
            incr.pages_written, incr.page_count
        ),
    );

    let stats = engine.persistence_stats().expect("durable");
    println!(
        "\n  on-disk: {} KiB, image {} pages; image pages read {} / written {}",
        dir_bytes(&base) / 1024,
        stats.image_pages,
        stats.pages_read,
        stats.pages_written
    );
    drop(engine);

    // --- region-granular incremental vs full checkpoint ----------------
    // Two sheets built from row-band ROM imports, the second twice the
    // size. After a single-cell edit, checkpoint cost must depend on the
    // dirty region alone: identical page-writes on both sheets, regardless
    // of total size.
    println!("\nRegion-granular checkpoints (single-cell edit on an N-region sheet):");
    let mut incr_pages = Vec::new();
    for bands in [120u32, 240u32] {
        let dir = temp_dir(&format!("regions-{bands}"));
        let mut engine = SheetEngine::open(&dir).expect("open region sheet");
        for band in 0..bands {
            engine
                .import_rows(
                    CellAddr::new(band * 60, 0),
                    8,
                    (0..50u32).map(|r| {
                        (0..8u32)
                            .map(|c| CellValue::Number((band * 1000 + r * 8 + c) as f64))
                            .collect()
                    }),
                )
                .expect("import band");
        }
        engine.save().expect("save imports");
        let t = Instant::now();
        let full = engine.checkpoint().expect("checkpoint").expect("durable");
        let full_s = t.elapsed().as_secs_f64();
        // One-cell edit inside one region.
        engine
            .update_cell(CellAddr::new(3 * 60 + 7, 2), "424242")
            .expect("edit");
        let t = Instant::now();
        let incr = engine.checkpoint().expect("checkpoint").expect("durable");
        let incr_s = t.elapsed().as_secs_f64();
        row(
            &format!("full ckpt ({bands} regions)"),
            full_s,
            format!(
                "{:>10} pages written, {} regions serialized ({} B)",
                full.pages_written, full.regions_written, full.payload_bytes
            ),
        );
        row(
            &format!("1-cell ckpt ({bands} regions)"),
            incr_s,
            format!(
                "{:>10} pages written, {} of {} regions serialized ({} B)",
                incr.pages_written, incr.regions_dirty, incr.regions_total, incr.payload_bytes
            ),
        );
        // The hard bounds the durability CI job relies on: exactly the
        // dirty region is re-serialized, and page-writes stay O(dirty
        // regions) — region payload + map + header — not O(sheet).
        assert_eq!(
            incr.regions_dirty, 1,
            "single-cell edit must dirty exactly one region"
        );
        assert_eq!(incr.regions_written, 1, "only the dirty region rewrites");
        assert!(
            incr.pages_written <= 8,
            "incremental checkpoint wrote {} pages (want O(dirty region), got O(sheet)?)",
            incr.pages_written
        );
        // Payloads share pages, so the full checkpoint's page count no
        // longer scales with the region count; the serialized bytes do: a
        // one-cell edit serializes 1 of the bands + 1 regions.
        assert!(
            incr.payload_bytes * 10 <= full.payload_bytes,
            "incremental ({} B serialized) should be far below full ({} B)",
            incr.payload_bytes,
            full.payload_bytes
        );
        incr_pages.push(incr.pages_written);
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        incr_pages[0], incr_pages[1],
        "incremental page-writes must not grow with sheet size"
    );

    // --- clean-TOM checkpoint skip --------------------------------------
    // A linked-table region's content lives in the database; the database
    // change counter lets a checkpoint prove "nothing changed" and skip
    // re-serializing the region entirely (pre-counter behavior: TOM regions
    // were re-serialized every checkpoint).
    println!("\nClean-TOM checkpoint skip (database change counter):");
    let tom_dir = temp_dir("tom");
    {
        let mut engine = SheetEngine::open(&tom_dir).expect("open tom sheet");
        engine.update_cell(CellAddr::new(0, 0), "id").expect("hdr");
        engine
            .update_cell(CellAddr::new(0, 1), "amount")
            .expect("hdr");
        for r in 1..=40u32 {
            engine
                .update_cell(CellAddr::new(r, 0), &r.to_string())
                .expect("row");
            engine
                .update_cell(CellAddr::new(r, 1), &(r * 10).to_string())
                .expect("row");
        }
        engine
            .link_table(dataspread_grid::Rect::new(0, 0, 40, 1), "persist_bench_inv")
            .expect("link");
        engine.save().expect("save");
        let t = Instant::now();
        let clean = engine.checkpoint().expect("checkpoint").expect("durable");
        let clean_s = t.elapsed().as_secs_f64();
        row(
            "ckpt (quiet linked table)",
            clean_s,
            format!(
                "{:>10} regions serialized, {} pages written",
                clean.regions_written, clean.pages_written
            ),
        );
        assert_eq!(
            clean.regions_dirty, 0,
            "a quiet database must not re-serialize the TOM region"
        );
        // Mutate the table behind the sheet's back (direct SQL-style
        // access): the counter moves, so the next checkpoint captures it.
        {
            let db = engine.database();
            let mut guard = db.write();
            let table = guard.table_mut("persist_bench_inv").expect("table");
            table
                .insert(&[
                    dataspread_relstore::Datum::Int(999),
                    dataspread_relstore::Datum::Float(9990.0),
                ])
                .expect("insert");
        }
        let t = Instant::now();
        let dirtied = engine.checkpoint().expect("checkpoint").expect("durable");
        let dirty_s = t.elapsed().as_secs_f64();
        row(
            "ckpt (table mutated via SQL)",
            dirty_s,
            format!("{:>10} regions serialized", dirtied.regions_written),
        );
        assert_eq!(
            dirtied.regions_dirty, 1,
            "a database mutation must re-dirty exactly the TOM region"
        );
        assert_eq!(dirtied.regions_written, 1);
        // Per-table change counters tighten the skip further: churn on an
        // *unrelated* table in the same database must leave the linked
        // region clean (the database-global counter used to dirty it).
        {
            let db = engine.database();
            let mut guard = db.write();
            guard
                .create_table(
                    "persist_bench_other",
                    dataspread_relstore::Schema::new(vec![dataspread_relstore::ColumnDef::new(
                        "x",
                        dataspread_relstore::DataType::Int,
                    )]),
                )
                .expect("create other");
            for i in 0..50 {
                guard
                    .table_mut("persist_bench_other")
                    .expect("other")
                    .insert(&[dataspread_relstore::Datum::Int(i)])
                    .expect("insert other");
            }
        }
        let t = Instant::now();
        let unrelated = engine.checkpoint().expect("checkpoint").expect("durable");
        let unrelated_s = t.elapsed().as_secs_f64();
        row(
            "ckpt (unrelated table churn)",
            unrelated_s,
            format!("{:>10} regions serialized", unrelated.regions_written),
        );
        assert_eq!(
            unrelated.regions_dirty, 0,
            "churn on an unrelated table must not dirty the TOM region \
             (per-table change counters)"
        );
    }
    std::fs::remove_dir_all(&tom_dir).ok();

    println!(
        "\npaper context: page-granular persistence + WAL is the durability story\n\
         behind the positional storage engine; region-keyed images make the\n\
         checkpoint itself O(dirty regions); replay >= log throughput means\n\
         recovery is never the bottleneck after a crash."
    );

    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&crash).ok();
}
