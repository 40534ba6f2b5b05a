//! The four workloads: seeded base data, formulas, relayout and op tape.
//!
//! Everything here is a pure function of `(workload, sizes, seed)`. The
//! program under test only ever sees the generated imports, formulas and
//! ops; the harness's own RNG keeps tapes independent of `vendor/rand`.

use dataspread_corpus::vcf::vcf_rows;
use dataspread_grid::{CellAddr, CellValue, Rect};

/// Name of the one sheet every workload serves.
pub const SHEET: &str = "sheet";

/// Fetch-run length: a viewport pages down this many times, then jumps.
const PAGE_RUN: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Scroll,
    Cascade,
    Structural,
    IngestStore,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Scroll,
        Workload::Cascade,
        Workload::Structural,
        Workload::IngestStore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scroll => "scroll",
            Workload::Cascade => "cascade",
            Workload::Structural => "structural",
            Workload::IngestStore => "ingest_store",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// SplitMix64: small, seedable, and owned by the harness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        assert!(hi > lo, "empty range {lo}..{hi}");
        lo + (self.next_u64() % u64::from(hi - lo)) as u32
    }

    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.range(0, items.len() as u32) as usize]
    }

    /// A value with two decimals in `lo..hi`.
    pub fn cents(&mut self, lo: u32, hi: u32) -> f64 {
        f64::from(self.range(lo * 100, hi * 100)) / 100.0
    }
}

/// Data and tape sizes of one workload run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Rows of the base table (`structural`: number of tables).
    pub rows: u32,
    pub fetches: usize,
    pub edits: usize,
    /// Single-row shifts; always even (insert/delete pairs, one latency
    /// sample per pair).
    pub shifts: usize,
    /// `range_to_relation` + `sql` pairs per set-up round.
    pub queries: usize,
    /// Full set-up rounds per run; set-up timings are the median round
    /// and the last round is served.
    pub setup_rounds: usize,
}

/// The issue's sample floors (fetches, edits, shift samples): 8 000 /
/// 4 000 / 1 000 where the op is under 2 ms, 1 000 edits / 120 shift
/// samples where it takes milliseconds (`cascade` edits; every workload's
/// shifts but `scroll`'s). A shift sample is an insert/delete pair, so the
/// tape holds twice as many shift ops.
fn floors(w: Workload) -> (usize, usize, usize) {
    match w {
        Workload::Scroll => (8_000, 4_000, 1_000),
        Workload::Cascade => (5_000, 1_000, 120),
        Workload::Structural | Workload::IngestStore => (8_000, 4_000, 120),
    }
}

impl Sizes {
    /// Sizes for a run that measures for about `seconds` seconds on the
    /// sizing machine (see README). Tapes scale with `seconds` but never
    /// shrink below the sample floors; data sizes are fixed.
    pub fn full(w: Workload, seconds: u32) -> Sizes {
        // Tape sizes at the nominal 10 s.
        let (rows, fetches, edits, shifts) = match w {
            Workload::Scroll => (60_000, 40_000, 8_000, 2_000),
            Workload::Cascade => (5_000, 5_000, 1_800, 360),
            Workload::Structural => (256, 8_000, 8_000, 1_000),
            Workload::IngestStore => (60_000, 20_000, 4_000, 240),
        };
        let (ff, fe, fs) = floors(w);
        let scale = |n: usize, floor: usize| (n * seconds as usize / 10).max(floor);
        Sizes {
            rows,
            fetches: scale(fetches, ff),
            edits: scale(edits, fe),
            shifts: scale(shifts / 2, fs) * 2,
            queries: 40,
            setup_rounds: 3,
        }
    }

    /// About 1/100 of each tape on small data: compiles, runs and checks
    /// every code path of the harness in well under a second per workload.
    pub fn smoke(w: Workload) -> Sizes {
        let rows = match w {
            Workload::Structural => 16,
            Workload::Cascade => 4_000,
            _ => 2_000,
        };
        Sizes {
            rows,
            fetches: 200,
            edits: 40,
            shifts: 10,
            queries: 3,
            setup_rounds: 1,
        }
    }
}

/// One client request of the serve phase.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Fetch(Rect),
    Set { row: u32, col: u32, input: String },
    InsertRow(u32),
    DeleteRow(u32),
}

/// One `import_rows` call of the build phase.
#[derive(Clone)]
pub struct Import {
    pub top_left: CellAddr,
    pub width: u32,
    pub rows: Vec<Vec<CellValue>>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Relayout {
    /// `optimize(&CostModel::postgres(), Agg, default options)`.
    OptimizeAgg,
    /// `optimize(&CostModel::ideal(), Agg, default options)`: the paper's
    /// ideal-database constants (no fixed per-table cost). Under the
    /// PostgreSQL constants an 8 KiB table overhead makes the optimizer
    /// merge a grid of small tables into one region, which is not the
    /// multi-region shape `structural` exists to exercise.
    OptimizeAggIdeal,
    /// `migrate_region(slot, Columnar)` on every imported region.
    MigrateColumnar,
}

/// Everything one workload run feeds the program.
pub struct Plan {
    pub workload: Workload,
    pub imports: Vec<Import>,
    pub formulas: Vec<(CellAddr, String)>,
    pub relayout: Relayout,
    pub tape: Vec<Op>,
    /// 128-row bands for the in-process query phase.
    pub query_bands: Vec<Rect>,
}

impl Plan {
    pub fn generate(w: Workload, sizes: &Sizes, seed: u64) -> Plan {
        // Independent streams so a change to one generator leaves the
        // others' outputs alone.
        let mut data_rng = Rng::new(seed ^ 0xDA7A);
        let mut tape_rng = Rng::new(seed ^ 0x7A9E);
        match w {
            Workload::Scroll => scroll(sizes, &mut data_rng, &mut tape_rng),
            Workload::Cascade => cascade(sizes, &mut data_rng, &mut tape_rng),
            Workload::Structural => structural(sizes, &mut data_rng, &mut tape_rng),
            Workload::IngestStore => ingest_store(sizes, seed, &mut tape_rng),
        }
    }

    pub fn imported_cells(&self) -> u64 {
        self.imports
            .iter()
            .flat_map(|i| i.rows.iter())
            .map(|r| r.iter().filter(|v| !v.is_empty()).count() as u64)
            .sum()
    }

    /// FNV-1a over the tape's canonical text: the determinism tests and
    /// the report header use it to name a tape.
    pub fn tape_hash(&self) -> u64 {
        let mut h = Fnv::new();
        for op in &self.tape {
            h.write(format!("{op:?};").as_bytes());
        }
        h.finish()
    }

    pub fn tape_counts(&self) -> (usize, usize, usize) {
        tape_counts(&self.tape)
    }
}

/// `(fetches, edits, shifts)` in a tape.
pub fn tape_counts(tape: &[Op]) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for op in tape {
        match op {
            Op::Fetch(_) => c.0 += 1,
            Op::Set { .. } => c.1 += 1,
            Op::InsertRow(_) | Op::DeleteRow(_) => c.2 += 1,
        }
    }
    c
}

pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn num(v: impl Into<f64>) -> CellValue {
    CellValue::Number(v.into())
}

fn text(s: &str) -> CellValue {
    CellValue::Text(s.to_string())
}

/// A1 name of the 0-based `(row, col)`.
fn a1(row: u32, col: u32) -> String {
    CellAddr::new(row, col).to_a1()
}

/// `col`'s rows `r1..=r2` (0-based) as an A1 range.
fn col_range(col: u32, r1: u32, r2: u32) -> String {
    format!("{}:{}", a1(r1, col), a1(r2, col))
}

/// Seeded window starts: page-down runs of [`PAGE_RUN`] windows of
/// `win_rows` rows inside `lo..hi`, then a jump. `hi - lo` must hold a
/// whole run.
fn paged_rows(rng: &mut Rng, n: usize, lo: u32, hi: u32, win_rows: u32) -> Vec<u32> {
    let run_rows = win_rows * PAGE_RUN as u32;
    let run_rows = run_rows.min(hi - lo);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let start = rng.range(lo, hi - run_rows + 1);
        for k in 0..(run_rows / win_rows) {
            if out.len() < n {
                out.push(start + k * win_rows);
            }
        }
    }
    out
}

/// Interleave the three op kinds evenly (the kind furthest behind its
/// share goes next), so every stretch of the tape has the same mix.
/// `shift_rows` are insert positions: each is emitted as an insert and,
/// at the next shift slot, a delete of the same row — the sheet returns
/// to its shape after every pair, so fetch and edit populations stay
/// stationary over the run.
fn interleave(fetches: Vec<Rect>, edits: Vec<(u32, u32, String)>, shift_rows: Vec<u32>) -> Vec<Op> {
    let totals = [fetches.len(), edits.len(), shift_rows.len() * 2];
    let mut done = [0usize; 3];
    let mut fetches = fetches.into_iter();
    let mut edits = edits.into_iter();
    let mut tape = Vec::with_capacity(totals.iter().sum());
    while done != totals {
        let kind = (0..3)
            .filter(|&k| done[k] < totals[k])
            .min_by(|&a, &b| {
                // done[a]/totals[a] vs done[b]/totals[b], exactly.
                (done[a] * totals[b]).cmp(&(done[b] * totals[a]))
            })
            .expect("some kind has ops left");
        tape.push(match kind {
            0 => Op::Fetch(fetches.next().expect("fetch")),
            1 => {
                let (row, col, input) = edits.next().expect("edit");
                Op::Set { row, col, input }
            }
            _ => {
                let at = shift_rows[done[2] / 2];
                if done[2] % 2 == 0 {
                    Op::InsertRow(at)
                } else {
                    Op::DeleteRow(at)
                }
            }
        });
        done[kind] += 1;
    }
    tape
}

fn query_bands(rng: &mut Rng, n: usize, rows: u32, c1: u32, c2: u32) -> Vec<Rect> {
    let band = 128.min(rows);
    (0..n)
        .map(|_| {
            let r1 = rng.range(0, rows - band + 1);
            Rect::new(r1, c1, r1 + band - 1, c2)
        })
        .collect()
}

/// `scroll`: one wide retail-shaped table, three column aggregates beside
/// it; a read-dominated tape.
fn scroll(sizes: &Sizes, data: &mut Rng, tape: &mut Rng) -> Plan {
    const WIDTH: u32 = 12;
    /// Column the value edits go to: no formula reads it.
    const EDIT_COL: u32 = 9;
    let n = sizes.rows;
    let customers = ["wilde", "poe", "woolf", "kafka", "borges", "morrison"];
    let cities = ["Champaign", "Urbana", "Savoy", "Mahomet"];
    let supps = ["acme", "globex", "initech", "umbrella"];
    let channels = ["web", "store", "phone"];
    let rows = (0..n)
        .map(|i| {
            let c = data.range(0, customers.len() as u32) as usize;
            vec![
                num(i + 1),
                text(customers[c]),
                text(cities[c % cities.len()]),
                text(data.pick(&supps)),
                num(data.cents(10, 5_000)),
                num(data.range(1, 50)),
                num(f64::from(data.range(0, 90)) - 30.0),
                CellValue::Bool(data.range(0, 10) < 7),
                text(data.pick(&channels)),
                num(data.cents(0, 1)),
                num(data.cents(0, 400)),
                CellValue::Bool(data.range(0, 10) < 9),
            ]
        })
        .collect();
    // The aggregates cover the older half of the ledger and sit beside the
    // table; row shifts land in the newer half. A shift inside a
    // whole-column range would re-aggregate it (20 ms at this size) and
    // turn `shift` on this workload into a second `recalc`.
    let half = n / 2;
    let formulas = vec![
        (
            CellAddr::new(0, WIDTH + 1),
            format!("=SUM({})", col_range(4, 0, half - 1)),
        ),
        (
            CellAddr::new(1, WIDTH + 1),
            format!("=COUNT({})", col_range(0, 0, half - 1)),
        ),
        (
            CellAddr::new(2, WIDTH + 1),
            format!("=AVERAGE({})", col_range(6, 0, half - 1)),
        ),
    ];
    let fetches = paged_rows(tape, sizes.fetches, 0, n, 50)
        .into_iter()
        .map(|r| Rect::new(r, 0, r + 49, WIDTH - 1))
        .collect();
    let edits = (0..sizes.edits)
        .map(|_| (tape.range(0, n), EDIT_COL, format!("{}", tape.cents(0, 1))))
        .collect();
    let shift_rows = (0..sizes.shifts / 2)
        .map(|_| tape.range(half + 1, n))
        .collect();
    Plan {
        workload: Workload::Scroll,
        imports: vec![Import {
            top_left: CellAddr::new(0, 0),
            width: WIDTH,
            rows,
        }],
        formulas,
        relayout: Relayout::OptimizeAgg,
        tape: interleave(fetches, edits, shift_rows),
        query_bands: query_bands(tape, sizes.queries, n, 0, WIDTH - 1),
    }
}

/// `cascade`: a 6-column data table whose first column feeds a sliding
/// `SUM`, a scalar column on top of it, a running-total chain and a
/// whole-column total.
fn cascade(sizes: &Sizes, data: &mut Rng, tape: &mut Rng) -> Plan {
    const DATA_WIDTH: u32 = 6;
    const WINDOW: u32 = 64;
    // Formula columns: H sliding SUM, I scalar, J chain, K1 total.
    const H: u32 = 7;
    const I: u32 = 8;
    const J: u32 = 9;
    const K: u32 = 10;
    let n = sizes.rows;
    // Never under 1 700 rows: the optimizer gives a band of up to 1 600
    // rows to COM, whose one-tuple-per-column layout overflows a page.
    let chain = (n / 2).min(2_000);
    let kinds = ["alpha", "beta", "gamma", "delta", "epsilon"];
    let rows = (0..n)
        .map(|_| {
            vec![
                num(data.range(0, 1_000)),
                text(data.pick(&kinds)),
                num(data.cents(0, 100)),
                CellValue::Bool(data.range(0, 2) == 0),
                text(data.pick(&kinds)),
                num(data.range(0, 10_000)),
            ]
        })
        .collect();
    let mut formulas = Vec::with_capacity((2 * n + chain + 1) as usize);
    for r in 0..n {
        let top = r.saturating_sub(WINDOW - 1);
        formulas.push((
            CellAddr::new(r, H),
            format!("=SUM({})", col_range(0, top, r)),
        ));
    }
    for r in 0..n {
        formulas.push((CellAddr::new(r, I), format!("={}*2-1", a1(r, H))));
    }
    formulas.push((CellAddr::new(0, J), format!("={}", a1(0, 0))));
    for r in 1..chain {
        formulas.push((
            CellAddr::new(r, J),
            format!("={}+{}", a1(r - 1, J), a1(r, 0)),
        ));
    }
    formulas.push((
        CellAddr::new(0, K),
        format!("=SUM({})", col_range(I, 0, n - 1)),
    ));

    // Every edit lands below the chain and at least a window from either
    // end, so each does the same amount of formula work. A shift re-anchors
    // every formula below it, so its cost falls linearly with its row:
    // shifts stay within 64 rows of the middle of that span, or the 60
    // pairs' median would move with the seed's draw of positions.
    let (lo, hi) = (chain + WINDOW, n - WINDOW);
    let mid = (lo + hi) / 2;
    let fetches = paged_rows(tape, sizes.fetches, lo, hi, 50)
        .into_iter()
        .map(|r| Rect::new(r, DATA_WIDTH, r + 49, K))
        .collect();
    let edits = (0..sizes.edits)
        .map(|_| (tape.range(lo, hi), 0, format!("{}", tape.range(0, 1_000))))
        .collect();
    let shift_rows = (0..sizes.shifts / 2)
        .map(|_| tape.range(mid - WINDOW, mid + WINDOW))
        .collect();
    Plan {
        workload: Workload::Cascade,
        imports: vec![Import {
            top_left: CellAddr::new(0, 0),
            width: DATA_WIDTH,
            rows,
        }],
        formulas,
        relayout: Relayout::OptimizeAgg,
        tape: interleave(fetches, edits, shift_rows),
        query_bands: query_bands(tape, sizes.queries, n, 0, K),
    }
}

/// `structural`: `sizes.rows` tables of 48×8 on a regular grid of 56×10
/// slots, each with a `SUM` totals row; a write-heavy tape of row shifts
/// and in-table edits.
fn structural(sizes: &Sizes, data: &mut Rng, tape: &mut Rng) -> Plan {
    const T_ROWS: u32 = 48;
    const T_COLS: u32 = 8;
    const SLOT_ROWS: u32 = 56;
    const SLOT_COLS: u32 = 10;
    let tables = sizes.rows;
    // A square-ish grid, at least two slots wide so a 20-column window
    // always covers two tables.
    let grid_cols = ((f64::from(tables)).sqrt().ceil() as u32).max(2);
    let grid_rows = tables.div_ceil(grid_cols);
    let mut imports = Vec::with_capacity(tables as usize);
    let mut formulas = Vec::with_capacity((tables * T_COLS) as usize);
    for t in 0..tables {
        let (r0, c0) = ((t / grid_cols) * SLOT_ROWS, (t % grid_cols) * SLOT_COLS);
        let rows = (0..T_ROWS)
            .map(|_| (0..T_COLS).map(|_| num(data.range(0, 1_000_000))).collect())
            .collect();
        imports.push(Import {
            top_left: CellAddr::new(r0, c0),
            width: T_COLS,
            rows,
        });
        for c in c0..c0 + T_COLS {
            formulas.push((
                CellAddr::new(r0 + T_ROWS, c),
                format!("=SUM({})", col_range(c, r0, r0 + T_ROWS - 1)),
            ));
        }
    }
    // Windows start at a slot origin and are two slots wide: each covers
    // exactly two tables and their totals rows. Only full grid rows are
    // used so that holds for every window.
    let full_rows = tables / grid_cols;
    let fetches = (0..sizes.fetches)
        .map(|_| {
            let r = tape.range(0, full_rows) * SLOT_ROWS;
            let c = tape.range(0, grid_cols - 1) * SLOT_COLS;
            Rect::new(r, c, r + 49, c + 2 * SLOT_COLS - 1)
        })
        .collect();
    // Rows 1..=46 of a table: still inside it while an insert above is
    // waiting for its paired delete.
    let edits = (0..sizes.edits)
        .map(|_| {
            let t = tape.range(0, full_rows * grid_cols);
            let (r0, c0) = ((t / grid_cols) * SLOT_ROWS, (t % grid_cols) * SLOT_COLS);
            (
                r0 + tape.range(1, T_ROWS - 1),
                c0 + tape.range(0, T_COLS),
                format!("{}", tape.range(0, 1_000_000)),
            )
        })
        .collect();
    let shift_rows = (0..sizes.shifts / 2)
        .map(|_| tape.range(0, full_rows) * SLOT_ROWS + tape.range(1, T_ROWS - 1))
        .collect();
    let sheet_rows = grid_rows * SLOT_ROWS;
    Plan {
        workload: Workload::Structural,
        imports,
        formulas,
        relayout: Relayout::OptimizeAggIdeal,
        tape: interleave(fetches, edits, shift_rows),
        query_bands: query_bands(tape, sizes.queries, sheet_rows, 0, 2 * SLOT_COLS - 1),
    }
}

/// `ingest_store`: VCF-shaped rows imported in six batches (six stacked
/// regions), per-batch column aggregates, every region migrated to the
/// columnar layout.
fn ingest_store(sizes: &Sizes, seed: u64, tape: &mut Rng) -> Plan {
    const SAMPLES: usize = 8;
    const WIDTH: u32 = 9 + SAMPLES as u32;
    const BATCHES: u32 = 6;
    /// A genotype column: text edits go to its write overlay.
    const EDIT_COL: u32 = 12;
    let per_batch = sizes.rows / BATCHES;
    let n = per_batch * BATCHES;
    let mut all = vcf_rows(n as usize, SAMPLES, seed);
    let mut imports = Vec::new();
    let mut formulas = Vec::new();
    for b in 0..BATCHES {
        let (r1, r2) = (b * per_batch, (b + 1) * per_batch - 1);
        imports.push(Import {
            top_left: CellAddr::new(r1, 0),
            width: WIDTH,
            rows: all.by_ref().take(per_batch as usize).collect(),
        });
        // One region per range, so the columnar aggregate path applies:
        // three numeric aggregates and a COUNTA per column, per batch.
        let mut k = 0;
        let mut put = |src: String| {
            formulas.push((CellAddr::new(n + 1 + b, k), src));
            k += 1;
        };
        put(format!("=SUM({})", col_range(5, r1, r2)));
        put(format!("=AVERAGE({})", col_range(5, r1, r2)));
        put(format!("=COUNT({})", col_range(1, r1, r2)));
        for c in 0..WIDTH {
            put(format!("=COUNTA({})", col_range(c, r1, r2)));
        }
    }
    // Windows, edits and shifts stay two rows clear of batch boundaries:
    // a window served by two regions would be a second, slower population.
    let inside = |rng: &mut Rng, span: u32| {
        let b = rng.range(0, BATCHES);
        b * per_batch + rng.range(2, per_batch - span - 2)
    };
    let fetches = (0..sizes.fetches)
        .map(|_| {
            let r = inside(tape, 50);
            Rect::new(r, 0, r + 49, WIDTH - 1)
        })
        .collect();
    let genotypes = ["0/0", "0/1", "1/1", "./."];
    let edits = (0..sizes.edits)
        .map(|_| (inside(tape, 1), EDIT_COL, tape.pick(&genotypes).to_string()))
        .collect();
    let shift_rows = (0..sizes.shifts / 2).map(|_| inside(tape, 1)).collect();
    Plan {
        workload: Workload::IngestStore,
        imports,
        formulas,
        relayout: Relayout::MigrateColumnar,
        tape: interleave(fetches, edits, shift_rows),
        query_bands: query_bands(tape, sizes.queries, n, 0, WIDTH - 1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_tape_different_seed_different_tape() {
        for w in Workload::ALL {
            let sizes = Sizes::smoke(w);
            let a = Plan::generate(w, &sizes, 7);
            let b = Plan::generate(w, &sizes, 7);
            let c = Plan::generate(w, &sizes, 8);
            assert_eq!(a.tape, b.tape, "{}", w.name());
            assert_eq!(a.tape_hash(), b.tape_hash(), "{}", w.name());
            assert_ne!(a.tape_hash(), c.tape_hash(), "{}", w.name());
            assert_eq!(a.formulas, b.formulas, "{}", w.name());
        }
    }

    #[test]
    fn tape_has_the_requested_mix_and_pairs_its_shifts() {
        for w in Workload::ALL {
            let sizes = Sizes::smoke(w);
            let plan = Plan::generate(w, &sizes, 3);
            assert_eq!(
                plan.tape_counts(),
                (sizes.fetches, sizes.edits, sizes.shifts),
                "{}",
                w.name()
            );
            let mut open = None;
            for op in &plan.tape {
                match (op, open) {
                    (Op::InsertRow(at), None) => open = Some(*at),
                    (Op::DeleteRow(at), Some(ins)) if *at == ins => open = None,
                    (Op::InsertRow(_) | Op::DeleteRow(_), _) => panic!("unpaired shift {op:?}"),
                    _ => {}
                }
            }
            assert_eq!(open, None);
        }
    }

    #[test]
    fn full_sizes_never_go_below_the_sample_floors() {
        for w in Workload::ALL {
            let s = Sizes::full(w, 1);
            let (f, e, sh) = floors(w);
            assert!(
                s.fetches >= f && s.edits >= e && s.shifts / 2 >= sh,
                "{s:?}"
            );
        }
    }
}
