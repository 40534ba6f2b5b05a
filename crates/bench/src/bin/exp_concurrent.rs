//! Concurrent-workspace benchmark: group commit across a writer grid, and
//! concurrent positional-window read scaling across sheets.
//!
//! * **Writers.** K concurrent sessions hammer ONE durable sheet with
//!   cell edits, in two client shapes: fully synchronous (window 1 — one
//!   edit in flight per client) and pipelined (window 4 — stage a small
//!   window, await its last ticket; the standard RPC pipelining
//!   pattern). Every edit appends and commits its ticket; a committing
//!   writer that finds no fsync in flight fsyncs every outstanding record
//!   at once, covering the writers that wait behind it — no edit is
//!   acknowledged before it is on stable storage, at ~1 fsync per batch
//!   instead of per op. The 1-writer window-1 row is
//!   the one-op-one-fsync baseline the rest of the grid is read against.
//! * **Readers.** R sessions each scan positional windows of their own
//!   pre-imported sheet — per-sheet sharding means their locks never
//!   touch, so aggregate throughput should track the machine's available
//!   parallelism.
//!
//! Results go to stdout and `BENCH_concurrent.json` (override with
//! `DS_CONCURRENT_OUT`). Sizes: `DS_CONCURRENT_WRITERS` /
//! `DS_CONCURRENT_READERS` (comma-separated thread counts) and
//! `DS_CONCURRENT_OPS` (ops per writer). At full scale (a grid including
//! 8 writers) the run *asserts* the acceptance bounds: at 8 pipelined
//! writers fsyncs ≤ ¼ of ops (scheduler-independent) and throughput ≥ 5×
//! the 1-writer window-1 row, and read scaling within 2× of linear in
//! `min(readers, cores)` — scaled-down CI grids skip the asserts.

use std::path::PathBuf;
use std::time::Instant;

use dataspread_grid::{CellAddr, CellValue, Rect};
use dataspread_workspace::{Edit, Workspace};

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

fn ops_per_writer() -> usize {
    std::env::var("DS_CONCURRENT_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(400)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-exp-concurrent-{name}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

struct WriterRow {
    writers: usize,
    window: usize,
    ops: u64,
    ops_s: f64,
    fsyncs: u64,
}

struct ReaderRow {
    readers: usize,
    windows_s: f64,
    speedup: f64,
    efficiency: f64,
}

/// K writer threads × `ops` edits each against one shared durable sheet,
/// each client keeping `window` edits in flight (window 1 = fully
/// synchronous; larger windows = RPC pipelining: stage a window, then
/// await its last ticket). Returns (ops/s, fsyncs).
fn run_writers(writers: usize, ops: usize, window: usize) -> (f64, u64) {
    let dir = temp_dir(&format!("writers-{writers}-{window}"));
    let ws = Workspace::open(&dir).expect("open workspace");
    let session = ws.session();
    session.open_sheet("hot").expect("open sheet");
    let registry = ws.metrics_registry();
    let fsyncs = || {
        registry
            .snapshot()
            .counter("wal_fsyncs{sheet=\"hot\"}")
            .unwrap_or(0)
    };
    let fsyncs_at_open = fsyncs();
    let t = Instant::now();
    std::thread::scope(|scope| {
        for w in 0..writers {
            let session = session.clone();
            scope.spawn(move || {
                let mut i = 0usize;
                while i < ops {
                    let burst = window.min(ops - i);
                    let mut last = 0u64;
                    for k in 0..burst {
                        let receipt = session
                            .stage_edit(
                                "hot",
                                Edit::Set {
                                    row: ((i + k) % 512) as u32,
                                    col: w as u32,
                                    input: format!("{}", (i + k) * 7 + w),
                                },
                            )
                            .expect("edit");
                        last = receipt.ticket;
                    }
                    session.await_commit("hot", last).expect("commit");
                    i += burst;
                }
            });
        }
    });
    let elapsed = t.elapsed().as_secs_f64();
    let fsyncs = fsyncs() - fsyncs_at_open;
    // The WAL observer attaches at shard build, before any append, so the
    // registry must have seen exactly one append per staged edit.
    let appends = registry
        .snapshot()
        .counter("wal_appends{sheet=\"hot\"}")
        .unwrap_or(0);
    assert_eq!(
        appends,
        (writers * ops) as u64,
        "registry wal_appends disagrees with the ops issued"
    );
    drop(ws);
    std::fs::remove_dir_all(&dir).ok();
    ((writers * ops) as f64 / elapsed, fsyncs)
}

/// R reader threads, each fetching positional windows of its own sheet;
/// returns aggregate windows/s.
fn run_readers(readers: usize, windows_per_reader: usize) -> f64 {
    let dir = temp_dir(&format!("readers-{readers}"));
    let ws = Workspace::open(&dir).expect("open workspace");
    let session = ws.session();
    for r in 0..readers {
        let name = format!("sheet{r}");
        session.open_sheet(&name).expect("open sheet");
        session
            .import_rows(
                &name,
                CellAddr::new(0, 0),
                8,
                (0..2000u32)
                    .map(|i| {
                        (0..8u32)
                            .map(|c| CellValue::Number((i * 8 + c) as f64))
                            .collect()
                    })
                    .collect(),
            )
            .expect("import");
    }
    let t = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..readers {
            let session = session.clone();
            scope.spawn(move || {
                let name = format!("sheet{r}");
                let mut total = 0usize;
                for i in 0..windows_per_reader {
                    let r1 = ((i * 137) % 1950) as u32;
                    let cells = session
                        .fetch_window(&name, Rect::new(r1, 0, r1 + 49, 7))
                        .expect("window");
                    total += cells.filled_count() as usize;
                }
                assert!(total > 0);
            });
        }
    });
    let elapsed = t.elapsed().as_secs_f64();
    drop(ws);
    std::fs::remove_dir_all(&dir).ok();
    (readers * windows_per_reader) as f64 / elapsed
}

fn main() {
    let writer_sizes = sizes_from_env("DS_CONCURRENT_WRITERS", &[1, 2, 4, 8]);
    let reader_sizes = sizes_from_env("DS_CONCURRENT_READERS", &[1, 2, 4, 8]);
    let ops = ops_per_writer();
    let out_path =
        std::env::var("DS_CONCURRENT_OUT").unwrap_or_else(|_| "BENCH_concurrent.json".to_string());
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    println!("Concurrent workspace benchmark ({ops} ops/writer, {cores} cores)\n");
    println!(
        "{:>8} {:>7} | {:>10} {:>8} {:>10}",
        "writers", "window", "ops/s", "fsyncs", "ops/fsync"
    );
    let mut writer_rows = Vec::new();
    for &writers in &writer_sizes {
        // Window 1: fully synchronous clients (one edit in flight each).
        // Window 4: pipelined clients (the RPC pattern — stage a small
        // window, await its last ticket); group commit batches the whole
        // in-flight set.
        for window in [1usize, 4] {
            let (ops_s, fsyncs) = run_writers(writers, ops, window);
            let row = WriterRow {
                writers,
                window,
                ops: (writers * ops) as u64,
                ops_s,
                fsyncs,
            };
            println!(
                "{:>8} {:>7} | {:>10.0} {:>8} {:>10.1}",
                writers,
                window,
                ops_s,
                fsyncs,
                row.ops as f64 / fsyncs as f64,
            );
            writer_rows.push(row);
        }
    }

    // Fixed per-reader work so wall-clock reflects aggregate throughput.
    let windows_per_reader = (ops * 2).max(200);
    println!(
        "\n{:>8} | {:>12} | {:>8} | {:>10}",
        "readers", "windows/s", "speedup", "efficiency"
    );
    let mut reader_rows: Vec<ReaderRow> = Vec::new();
    for &readers in &reader_sizes {
        let windows_s = run_readers(readers, windows_per_reader);
        let base = reader_rows
            .first()
            .map(|r: &ReaderRow| r.windows_s / r.readers as f64)
            .unwrap_or(windows_s / readers as f64);
        let speedup = windows_s / base;
        // Near-linear means: throughput tracks min(readers, cores) — the
        // hardware bound, not the thread count (a 1-core CI box cannot
        // show wall-clock parallelism, only absence of collapse).
        let ideal = readers.min(cores) as f64;
        let efficiency = speedup / ideal;
        println!(
            "{:>8} | {:>12.0} | {:>7.2}x | {:>9.0}%",
            readers,
            windows_s,
            speedup,
            efficiency * 100.0
        );
        reader_rows.push(ReaderRow {
            readers,
            windows_s,
            speedup,
            efficiency,
        });
    }

    // Machine-readable trajectory record.
    let mut json = format!(
        "{{\n  \"bench\": \"concurrent\",\n  \"cores\": {cores},\n  \"ops_per_writer\": {ops},\n  \"writers\": [\n"
    );
    for (i, r) in writer_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"writers\": {}, \"window\": {}, \"ops_s\": {:.0}, \
             \"fsyncs\": {}, \"ops_per_fsync\": {:.2}}}{}\n",
            r.writers,
            r.window,
            r.ops_s,
            r.fsyncs,
            r.ops as f64 / r.fsyncs as f64,
            if i + 1 < writer_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"readers\": [\n");
    for (i, r) in reader_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"readers\": {}, \"windows_s\": {:.0}, \"speedup\": {:.2}, \
             \"efficiency_vs_cores\": {:.2}}}{}\n",
            r.readers,
            r.windows_s,
            r.speedup,
            r.efficiency,
            if i + 1 < reader_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("\nwrote {out_path}");

    // Acceptance bounds, armed only at full scale (8-writer grid), on the
    // pipelined row. One fsync per op is what a lone synchronous writer
    // pays by construction, so batching is asserted against the op count
    // (scheduler-independent) and throughput against the 1-writer
    // window-1 row.
    let baseline = writer_rows
        .iter()
        .find(|r| r.writers == 1 && r.window == 1)
        .map(|r| r.ops_s);
    for r in writer_rows
        .iter()
        .filter(|r| r.writers >= 8 && r.window > 1)
    {
        assert!(
            r.fsyncs <= r.ops / 4,
            "group commit must batch fsyncs ({} fsyncs for {} ops)",
            r.fsyncs,
            r.ops
        );
        if let Some(base) = baseline {
            let speedup = r.ops_s / base;
            assert!(
                speedup >= 5.0,
                "{} pipelined writers reach only {speedup:.1}x the one-writer \
                 synchronous row",
                r.writers
            );
        }
    }
    if writer_sizes.iter().any(|&w| w >= 8) {
        for r in &reader_rows {
            if r.readers >= 8 {
                assert!(
                    r.efficiency >= 0.5,
                    "read scaling efficiency {:.0}% < 50% of linear in \
                     min(readers, cores) at {} readers",
                    r.efficiency * 100.0,
                    r.readers
                );
            }
        }
    }
    println!(
        "\npaper context: a spreadsheet *served* from a database-grade engine means\n\
         many sessions fetching windows and committing edits at once; per-sheet\n\
         sharding keeps readers wait-free across sheets, and group commit (the\n\
         committing writer fsyncs for everyone waiting) turns K writers x 1\n\
         fsync/op into ~1 fsync per batch without weakening the WAL durability\n\
         contract."
    );
}
