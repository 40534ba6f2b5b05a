//! The work ledger: what each session op costs, in counts that repeat
//! exactly from run to run and between debug and release builds —
//! allocations, bytes allocated, cells recomputed and regions dirtied —
//! so a change that does more work shows as a changed line, with no clock
//! read and no noise to argue with.
//!
//! Three seeded durable populations: 64 ROM tables of 48×8, each with a
//! `SUM` totals row below it (one region per table, the totals in the
//! catch-all); one 20 000 × 12 ROM import; and a cascade, 1 000 imported
//! data rows under a 64-row sliding `SUM`, a scalar column over it, a
//! 500-row running chain and a whole-column total. For each, a batch of
//! edits, 50×12 window fetches, row and column inserts and deletes inside
//! the regions, the checkpoint after the edits, and row inserts below every
//! used row, which move no cell and no formula. `work_ledger.txt` holds the
//! counts; on a mismatch the differing lines are printed and the actual
//! ledger is written to `$CARGO_TARGET_TMPDIR/work_ledger.actual.txt`,
//! which replaces the fixture when a change of counts is intended.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::path::PathBuf;

use dataspread_grid::{CellAddr, CellValue, Rect};
use dataspread_workspace::{Edit, Session, Workspace, WorkspaceConfig};

/// Counts the allocations (and reallocations) made on the thread that
/// switched counting on. Session ops run on the calling thread, so other
/// threads cannot perturb the counts.
struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if ON.with(Cell::get) {
        ALLOCS.with(|c| c.set(c.get() + 1));
        BYTES.with(|c| c.set(c.get() + bytes as u64));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are const-initialized thread locals without destructors, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, bytes)` made by `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    ALLOCS.with(|c| c.set(0));
    BYTES.with(|c| c.set(0));
    ON.with(|c| c.set(true));
    let out = f();
    ON.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// SplitMix64: the populations' and the ops' positions and values.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next() % u64::from(hi - lo)) as u32
    }
}

/// Ops of each kind per population.
const BATCH: usize = 8;

/// Where a population's ops land: a table's top-left, and the span of
/// rows and columns from it that the ops pick from.
struct Population {
    name: &'static str,
    origins: Vec<(u32, u32)>,
    rows: u32,
    cols: u32,
    /// The column every edit lands in, when not a random one.
    edit_col: Option<u32>,
    /// A row below every row the population uses.
    past: u32,
}

impl Population {
    /// A random table's first column, and a position strictly inside the
    /// span on each axis, so an insert there lands inside the region.
    fn pick(&self, rng: &mut Rng) -> (u32, u32, u32) {
        let (r0, c0) = self.origins[rng.range(0, self.origins.len() as u32) as usize];
        (
            c0,
            r0 + rng.range(1, self.rows - 1),
            c0 + rng.range(1, self.cols),
        )
    }
}

/// The op kinds of the ledger, in its order.
const KINDS: [&str; 7] = [
    "edit",
    "fetch 50x12",
    "insert row",
    "delete row",
    "insert col",
    "delete col",
    "insert row past",
];

enum Op {
    Edit(Edit),
    Fetch(Rect),
}

/// One op of kind `KINDS[k]` at a random place in `pop`.
fn op(k: usize, pop: &Population, rng: &mut Rng) -> Op {
    let (c0, row, col) = pop.pick(rng);
    Op::Edit(match k {
        0 => Edit::Set {
            row,
            col: pop.edit_col.unwrap_or(col),
            input: rng.range(0, 1_000_000).to_string(),
        },
        1 => return Op::Fetch(Rect::new(row, c0, row + 49, c0 + 11)),
        2 => Edit::InsertRows { at: row, n: 1 },
        3 => Edit::DeleteRows { at: row, n: 1 },
        4 => Edit::InsertCols { at: col, n: 1 },
        5 => Edit::DeleteCols { at: col, n: 1 },
        _ => Edit::InsertRows { at: pop.past, n: 1 },
    })
}

/// A fresh directory for a population, given relative to the working
/// directory: the store's file paths, which its file calls allocate, then
/// have the same length on every machine and in every process.
fn temp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(format!("ledger-{name}-{:010}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn numbers(rng: &mut Rng, rows: u32, cols: u32) -> Vec<Vec<CellValue>> {
    (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| CellValue::Number(f64::from(rng.range(0, 1_000_000))))
                .collect()
        })
        .collect()
}

/// 64 tables of 48×8 on an 8×8 grid of 56×10 slots, a `SUM` under each
/// column.
fn tables(s: &Session, rng: &mut Rng) -> Population {
    let origins: Vec<(u32, u32)> = (0..64).map(|t| ((t / 8) * 56, (t % 8) * 10)).collect();
    for &(r0, c0) in &origins {
        s.import_rows("p", CellAddr::new(r0, c0), 8, numbers(rng, 48, 8))
            .unwrap();
        for c in c0..c0 + 8 {
            let column = CellAddr::new(r0, c).to_a1();
            let last = CellAddr::new(r0 + 47, c).to_a1();
            let set = Edit::Set {
                row: r0 + 48,
                col: c,
                input: format!("=SUM({column}:{last})"),
            };
            s.apply_edit("p", set).unwrap();
        }
    }
    Population {
        name: "tables",
        origins,
        rows: 48,
        cols: 8,
        edit_col: None,
        // The slot below the last totals row (440).
        past: 8 * 56,
    }
}

fn import(s: &Session, rng: &mut Rng) -> Population {
    s.import_rows("p", CellAddr::new(0, 0), 12, numbers(rng, 20_000, 12))
        .unwrap();
    Population {
        name: "import",
        origins: vec![(0, 0)],
        rows: 20_000,
        cols: 12,
        edit_col: None,
        past: 20_000,
    }
}

/// `cascade`, scaled down: 1 000 rows of 6 data columns; in H a `SUM` of
/// column A's last 64 rows, in I a scalar over H, in J a running chain
/// down its first 500 rows and in K1 the total of column I. The formulas
/// are typed as staged edits under one commit. Ops land in the chain's
/// rows and edits in column A, so each edit recomputes a window of `SUM`s,
/// their scalars, the chain below it and the total.
fn cascade(s: &Session, rng: &mut Rng) -> Population {
    const ROWS: u32 = 1_000;
    const WINDOW: u32 = 64;
    const CHAIN: u32 = 500;
    const H: u32 = 7;
    let a1 = |r: u32, c: u32| CellAddr::new(r, c).to_a1();
    let data: Vec<Vec<CellValue>> = (0..ROWS)
        .map(|_| {
            (0..6)
                .map(|_| CellValue::Number(f64::from(rng.range(0, 1_000))))
                .collect()
        })
        .collect();
    s.import_rows("p", CellAddr::new(0, 0), 6, data).unwrap();
    let mut formulas = Vec::new();
    for r in 0..ROWS {
        let top = r.saturating_sub(WINDOW - 1);
        formulas.push((r, H, format!("=SUM({}:{})", a1(top, 0), a1(r, 0))));
    }
    for r in 0..ROWS {
        formulas.push((r, H + 1, format!("={}*2-1", a1(r, H))));
    }
    formulas.push((0, H + 2, format!("={}", a1(0, 0))));
    for r in 1..CHAIN {
        let chain = format!("={}+{}", a1(r - 1, H + 2), a1(r, 0));
        formulas.push((r, H + 2, chain));
    }
    let total = format!("=SUM({}:{})", a1(0, H + 1), a1(ROWS - 1, H + 1));
    formulas.push((0, H + 3, total));
    let mut ticket = 0;
    for (row, col, input) in formulas {
        ticket = s
            .stage_edit("p", Edit::Set { row, col, input })
            .unwrap()
            .ticket;
    }
    s.await_commit("p", ticket).unwrap();
    Population {
        name: "cascade",
        origins: vec![(0, 0)],
        rows: CHAIN,
        cols: 6,
        edit_col: Some(0),
        past: ROWS,
    }
}

/// Cells evaluated so far on sheet `p`, batch and scalar.
fn recomputed(ws: &Workspace) -> u64 {
    let reg = ws.metrics_registry();
    let labels = &[("sheet", "p")];
    reg.counter("eval_batch_cells", labels).get() + reg.counter("eval_scalar_cells", labels).get()
}

/// Run each op kind as a batch on a fresh durable workspace and append
/// one ledger line per kind: allocations and bytes of the batch, cells it
/// recomputed, and regions the checkpoint after it re-serialized.
fn ledger(out: &mut String, build: fn(&Session, &mut Rng) -> Population, seed: u64, dir: &str) {
    let dir = temp_dir(dir);
    let ws = Workspace::open_with(
        &dir,
        WorkspaceConfig {
            slow_op_ns: Some(u64::MAX),
            ..WorkspaceConfig::default()
        },
    )
    .unwrap();
    let s = ws.session();
    s.open_sheet("p").unwrap();
    let mut rng = Rng(seed);
    let pop = build(&s, &mut rng);
    s.checkpoint("p").unwrap();

    for (k, kind) in KINDS.into_iter().enumerate() {
        let batch: Vec<Op> = (0..BATCH).map(|_| op(k, &pop, &mut rng)).collect();
        let before = recomputed(&ws);
        let ((), allocs, bytes) = counted(|| {
            for op in batch {
                match op {
                    Op::Edit(edit) => drop(s.apply_edit("p", edit).unwrap()),
                    Op::Fetch(window) => drop(s.fetch_window("p", window).unwrap()),
                }
            }
        });
        let cells = recomputed(&ws) - before;
        let (report, ck_allocs, ck_bytes) = counted(|| s.checkpoint("p").unwrap());
        let dirtied = report.expect("durable").regions_dirty;
        line(out, pop.name, kind, allocs, bytes, cells, dirtied);
        if kind == "edit" {
            line(out, pop.name, "checkpoint", ck_allocs, ck_bytes, 0, dirtied);
        }
    }
    drop(s);
    drop(ws);
    std::fs::remove_dir_all(&dir).ok();
}

fn line(out: &mut String, pop: &str, op: &str, allocs: u64, bytes: u64, cells: u64, dirtied: u64) {
    writeln!(
        out,
        "{pop:<6} {op:<12} allocs {allocs:>8} bytes {bytes:>10} recomputed {cells:>4} dirtied {dirtied:>3}"
    )
    .unwrap();
}

#[test]
fn work_counts_match_the_ledger() {
    // The only test in this binary, so no other test sees the change.
    std::env::set_current_dir(env!("CARGO_TARGET_TMPDIR")).unwrap();
    let mut actual = format!("# {BATCH} ops per line; see work_ledger.rs\n");
    ledger(&mut actual, tables, 0x5EED_0001, "tables");
    ledger(&mut actual, import, 0x5EED_0002, "import");
    ledger(&mut actual, cascade, 0x5EED_0003, "cascade");
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("work_ledger.actual.txt");
    std::fs::write(&path, &actual).unwrap();
    let golden = include_str!("work_ledger.txt");
    if actual != golden {
        let (want, got): (Vec<_>, Vec<_>) = (golden.lines().collect(), actual.lines().collect());
        for i in 0..want.len().max(got.len()) {
            match (want.get(i), got.get(i)) {
                (Some(w), Some(g)) if w == g => {}
                (w, g) => {
                    if let Some(w) = w {
                        eprintln!("- {w}");
                    }
                    if let Some(g) = g {
                        eprintln!("+ {g}");
                    }
                }
            }
        }
        panic!("work counts differ from the ledger; see {}", path.display());
    }
}
