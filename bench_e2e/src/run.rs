//! One workload run: set-up rounds (build → relayout → query → reopen →
//! listen/connect), the served tape, and the verification against the
//! reference model.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dataspread_client::Client;
use dataspread_corpus::retail::populate_retail;
use dataspread_engine::{ModelKind, OptimizeAlgorithm, ScanValue, SheetEngine};
use dataspread_grid::{CellAddr, Rect, SparseSheet};
use dataspread_hybrid::{CostModel, OptimizerOptions};
use dataspread_proto::{CheckpointSummary, Edit, WindowPatch};
use dataspread_relstore::vfs::StorageFs;
use dataspread_relstore::Datum;
use dataspread_server::ServerHandle;
use dataspread_workspace::{Workspace, WorkspaceConfig};

use crate::machine::{rss_peak_mb, CpuMask};
use crate::memfs::MemFs;
use crate::spec::{tape_counts, Fnv, Op, Plan, Relayout, Sizes, Workload, SHEET};
use crate::stats::{median, Samples};

/// Invoices in the retail tables the query phase runs SQL over.
const RETAIL_INVOICES: usize = 2_000;
const QUERY: &str = "SELECT supp_id, COUNT(*) AS n, SUM(amount) AS total FROM invoice \
                     WHERE amount > ? GROUP BY supp_id ORDER BY supp_id";
/// One fetched window in this many is kept and compared with the
/// reference model's window at the same point of the tape.
const FETCH_CHECK_EVERY: usize = 64;

pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(what: &'static str) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// What one run is asked to do.
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    /// Directory the run may create (and removes) its data directory in.
    pub data_root: PathBuf,
}

/// Failures and attempts of everything the run checks.
#[derive(Default, Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }
}

/// Canonical digest of a whole sheet: every filled cell's address, value
/// and formula source in row-major order.
pub fn digest(sheet: &SparseSheet) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv::new();
    let mut line = String::new();
    for (addr, cell) in sheet.iter() {
        line.clear();
        let _ = write!(
            line,
            "{},{}:{:?}|{:?};",
            addr.row, addr.col, cell.value, cell.formula
        );
        h.write(line.as_bytes());
    }
    h.finish()
}

/// The first cell on which two sheets differ, for the failure message.
fn first_difference(a: &SparseSheet, b: &SparseSheet) -> String {
    let mut bi = b.iter();
    for (addr, cell) in a.iter() {
        match bi.next() {
            Some((baddr, bcell)) if baddr == addr && bcell == cell => {}
            other => return format!("at {addr}: {cell:?} vs {other:?}"),
        }
    }
    match bi.next() {
        Some(extra) => format!("extra cell {extra:?}"),
        None => "none".to_string(),
    }
}

/// Timings and sizes of one set-up round.
#[derive(Default, Clone)]
pub struct Round {
    pub generate_s: f64,
    pub import_s: f64,
    pub imported_cells: u64,
    pub wal_bytes_after_import: u64,
    pub relayout_s: f64,
    pub recalc_s: f64,
    pub checkpoint_s: f64,
    pub checkpoint_pages: u64,
    pub disk_bytes: u64,
    pub image_bytes: u64,
    pub resident_bytes: u64,
    pub resident_by_kind: [u64; 3],
    pub filled_cells: u64,
    pub regions: u64,
    pub formulas_recomputed: u64,
    pub relation_ns: Vec<u64>,
    pub sql_ns: Vec<u64>,
    pub reopen_s: f64,
    pub setup_s: f64,
}

/// A workspace that finished set-up: reopened from its checkpoint, being
/// served on loopback, one client connected with the sheet open.
pub struct Served {
    pub plan: Plan,
    pub fs: Arc<MemFs>,
    pub dir: PathBuf,
    pub handle: ServerHandle,
    pub client: Client,
    pub pinned: bool,
}

/// Phase 1 on `engine`, durable or not: retail tables for the query
/// phase, then the imports. Returns the time inside `import_rows`.
pub fn import_tables(engine: &mut SheetEngine, plan: &Plan, seed: u64) -> Res<f64> {
    populate_retail(&mut engine.database().write(), RETAIL_INVOICES, seed)
        .map_err(err("populate_retail"))?;
    let mut import_s = 0.0;
    for imp in &plan.imports {
        let rows = imp.rows.clone();
        let t = Instant::now();
        engine
            .import_rows(imp.top_left, imp.width, rows)
            .map_err(err("import_rows"))?;
        import_s += secs(t);
    }
    Ok(import_s)
}

pub fn lay_formulas(engine: &mut SheetEngine, plan: &Plan) -> Res<()> {
    for (addr, src) in &plan.formulas {
        engine.update_cell(*addr, src).map_err(err("formula"))?;
    }
    Ok(())
}

/// A durable workspace over `dir` with every file in `fs`; otherwise the
/// default configuration (group commit).
pub fn open_workspace(dir: &Path, fs: Arc<MemFs>) -> Res<Workspace> {
    let storage: Arc<dyn StorageFs> = fs;
    Workspace::open_with(
        dir,
        WorkspaceConfig {
            storage_fs: Some(storage),
            ..WorkspaceConfig::default()
        },
    )
    .map_err(err("Workspace::open"))
}

/// The workload's layout op.
pub fn relayout(engine: &mut SheetEngine, plan: &Plan) -> Res<()> {
    match plan.relayout {
        Relayout::OptimizeAgg | Relayout::OptimizeAggIdeal => {
            let cm = if plan.relayout == Relayout::OptimizeAgg {
                CostModel::postgres()
            } else {
                CostModel::ideal()
            };
            engine
                .optimize(&cm, OptimizeAlgorithm::Agg, &OptimizerOptions::default())
                .map_err(err("optimize"))?;
        }
        Relayout::MigrateColumnar => {
            for imp in &plan.imports {
                let slot = engine
                    .storage()
                    .layout()
                    .iter()
                    .position(|(r, _)| {
                        r.top_left() == imp.top_left && r.cols() == u64::from(imp.width)
                    })
                    .ok_or("imported region not in the layout")?;
                engine
                    .migrate_region(slot, ModelKind::Columnar)
                    .map_err(err("migrate_region"))?;
            }
        }
    }
    Ok(())
}

/// Read `rect` out of storage by the path the server's `fetch_window`
/// takes (columnar run scan when one region serves the window, cell
/// materialisation otherwise), without building the patch.
pub fn engine_read_window(engine: &SheetEngine, rect: Rect) -> usize {
    let mut seen = 0usize;
    let columnar = engine
        .storage()
        .scan_columnar_window(rect, |_, _, v, formula| {
            if !matches!(v, ScanValue::Empty) || formula.is_some() {
                seen += 1;
            }
        });
    if columnar {
        seen
    } else {
        black_box(engine.get_cells(rect)).len()
    }
}

fn resident_by_kind(engine: &SheetEngine) -> [u64; 3] {
    let mut by = [0u64; 3];
    for (_, kind, bytes) in engine.storage().region_resident_bytes() {
        let slot = match kind {
            ModelKind::Rom => 0,
            ModelKind::Columnar => 1,
            _ => 2,
        };
        by[slot] += bytes;
    }
    by
}

/// Phases 1–5a of one round. The caller's thread is unpinned on entry and
/// pinned to one CPU on return (if the kernel allows).
fn setup_round(
    cfg: &RunConfig,
    round: usize,
    masks: &Masks,
    tally: &mut Tally,
) -> Res<(Round, Served)> {
    masks.unpin();
    let t0 = Instant::now();
    let mut out = Round::default();

    // 1. build
    let plan = Plan::generate(cfg.workload, &cfg.sizes, cfg.seed);
    out.generate_s = secs(t0);
    out.imported_cells = plan.imported_cells();
    let fs = MemFs::new();
    let dir = cfg.data_root.join(format!("round{round}"));
    let sheet_dir = dir.join(SHEET);
    let mut engine = SheetEngine::open_on(fs.clone(), &sheet_dir).map_err(err("open"))?;
    out.import_s = import_tables(&mut engine, &plan, cfg.seed)?;
    out.wal_bytes_after_import = engine.persistence_stats().map_or(0, |p| p.wal_bytes);
    lay_formulas(&mut engine, &plan)?;
    engine.save().map_err(err("save"))?;

    // 2. relayout
    let t = Instant::now();
    relayout(&mut engine, &plan)?;
    out.relayout_s = secs(t);
    let before = engine.cells_recomputed();
    let t = Instant::now();
    engine.recompute_all().map_err(err("recompute_all"))?;
    out.recalc_s = secs(t);
    out.formulas_recomputed = engine.cells_recomputed() - before;
    let t = Instant::now();
    let report = engine.checkpoint().map_err(err("checkpoint"))?;
    out.checkpoint_s = secs(t);
    out.checkpoint_pages = report.map_or(0, |r| r.pages_written);
    out.disk_bytes = fs.bytes_under(&sheet_dir);
    out.image_bytes = fs.bytes_under(&dataspread_engine::durable::image_path(&sheet_dir));
    out.resident_bytes = engine.storage().resident_bytes();
    out.resident_by_kind = resident_by_kind(&engine);
    out.filled_cells = engine.storage().filled_count();
    out.regions = engine.storage().region_count() as u64;

    // 3. query
    let expect_groups = {
        let db = engine.database();
        let db = db.read();
        let invoice = db.table("invoice").map_err(err("invoice table"))?;
        let mut supps: Vec<i64> = invoice
            .scan()
            .filter(|(_, r)| r[3].as_f64().is_some_and(|a| a > 100.0))
            .filter_map(|(_, r)| r[1].as_i64())
            .collect();
        supps.sort_unstable();
        supps.dedup();
        supps.len()
    };
    for band in &plan.query_bands {
        let t = Instant::now();
        let rel = black_box(engine.range_to_relation(*band));
        out.relation_ns.push(ns(t));
        let t = Instant::now();
        let groups = engine.sql(QUERY, &[Datum::Float(100.0)]);
        out.sql_ns.push(ns(t));
        tally.check(
            rel.len() as u64 == band.rows() - 1 && rel.arity() as u64 == band.cols(),
            || {
                format!(
                    "range_to_relation({band}) shape {}x{}",
                    rel.len(),
                    rel.arity()
                )
            },
        );
        tally.check(
            groups.as_ref().is_ok_and(|g| g.len() == expect_groups),
            || format!("sql: {:?}", groups.as_ref().map(|g| g.len())),
        );
    }
    let before_drop = digest(&engine.snapshot());
    drop(engine);

    // 4. reopen, on one CPU from here on
    let pinned = masks.pin();
    let t = Instant::now();
    let ws = open_workspace(&dir, fs.clone())?;
    let session = ws.session();
    session.open_sheet(SHEET).map_err(err("open_sheet"))?;
    out.reopen_s = secs(t);
    let reopened = digest(&session.snapshot(SHEET).map_err(err("snapshot"))?);
    tally.check(reopened == before_drop, || {
        format!("reopen digest {reopened:016x} != {before_drop:016x} before the drop")
    });

    // 5a. listen and connect
    let handle = dataspread_server::serve(ws, "127.0.0.1:0").map_err(err("serve"))?;
    let client = Client::connect(handle.local_addr()).map_err(err("connect"))?;
    client
        .session()
        .open_sheet(SHEET)
        .map_err(err("remote open_sheet"))?;
    out.setup_s = secs(t0);
    Ok((
        out,
        Served {
            plan,
            fs,
            dir,
            handle,
            client,
            pinned,
        },
    ))
}

/// The affinity mask the process started with; `pin` narrows it to one CPU.
pub struct Masks {
    full: Option<CpuMask>,
}

impl Masks {
    pub fn probe() -> Masks {
        Masks {
            full: CpuMask::current(),
        }
    }

    pub fn pin(&self) -> bool {
        self.full.is_some_and(|m| m.last_cpu().apply())
    }

    pub fn unpin(&self) {
        if let Some(m) = self.full {
            m.apply();
        }
    }
}

/// One recorded span: a public call made by the harness at some depth.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u32,
    pub depth: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-kind latency samples of one pass over the tape at one depth.
pub struct TapeTimes {
    pub fetch: Samples,
    pub edit: Samples,
    /// One sample per insert/delete pair: the mean of the two calls. An
    /// insert and a delete can differ 30-fold (a columnar region splices
    /// a null run in, but rebuilds its columns to take a row out); taken
    /// singly they would be two populations under one name.
    pub shift: Samples,
    /// First op sent → last reply received, the mid-tape checkpoint included.
    pub wall_s: f64,
    /// The insert of a pair still waiting for its delete.
    open_insert: Option<u64>,
}

impl TapeTimes {
    fn for_tape(tape: &[Op]) -> TapeTimes {
        let (f, e, s) = tape_counts(tape);
        TapeTimes {
            fetch: Samples::with_capacity(f),
            edit: Samples::with_capacity(e),
            shift: Samples::with_capacity(s / 2),
            wall_s: 0.0,
            open_insert: None,
        }
    }

    pub fn discard_warmup(&mut self) {
        self.fetch.discard_warmup();
        self.edit.discard_warmup();
        self.shift.discard_warmup();
    }
}

/// Where spans go when a pass over the tape is traced.
pub struct SpanSink<'a> {
    pub epoch: Instant,
    pub depth: u8,
    /// Span names for fetch, edit and shift calls at this depth.
    pub names: [&'static str; 3],
    pub spans: &'a mut Vec<Span>,
}

/// The three calls a depth must offer for the tape to run against it.
pub trait Target {
    fn fetch(&mut self, rect: Rect) -> Res<Option<WindowPatch>>;
    fn edit(&mut self, edit: Edit) -> Res<()>;
    /// The mid-tape checkpoint (after 90 % of the ops); untimed.
    fn checkpoint(&mut self) -> Res<Option<CheckpointSummary>>;
}

/// What a pass over the tape kept besides the timings.
#[derive(Default)]
pub struct TapeOutput {
    /// `(tape index, patch)` of every [`FETCH_CHECK_EVERY`]-th fetch.
    pub kept: Vec<(usize, WindowPatch)>,
    pub checkpoint: Option<CheckpointSummary>,
}

fn to_edit(op: &Op) -> Edit {
    match op {
        Op::Set { row, col, input } => Edit::Set {
            row: *row,
            col: *col,
            input: input.clone(),
        },
        Op::InsertRow(at) => Edit::InsertRows { at: *at, n: 1 },
        Op::DeleteRow(at) => Edit::DeleteRows { at: *at, n: 1 },
        Op::Fetch(_) => unreachable!("fetches are not edits"),
    }
}

/// Run the tape against `target`, one op at a time, timing each call.
/// An `Err` from the target counts as a failed op and the run goes on.
pub fn run_tape(
    tape: &[Op],
    target: &mut dyn Target,
    mut sink: Option<SpanSink<'_>>,
    tally: &mut Tally,
) -> (TapeTimes, TapeOutput) {
    let mut times = TapeTimes::for_tape(tape);
    let mut out = TapeOutput::default();
    let checkpoint_at = tape.len() * 9 / 10;
    let mut fetch_no = 0usize;
    let wall = Instant::now();
    for (i, op) in tape.iter().enumerate() {
        if i == checkpoint_at {
            match target.checkpoint() {
                Ok(summary) => out.checkpoint = summary,
                Err(e) => tally.check(false, || format!("checkpoint: {e}")),
            }
        }
        let (kind, result, t, elapsed) = match op {
            Op::Fetch(rect) => {
                let t = Instant::now();
                let r = target.fetch(*rect);
                let elapsed = ns(t);
                let r = r.map(|patch| {
                    if let Some(patch) = patch {
                        if fetch_no.is_multiple_of(FETCH_CHECK_EVERY) {
                            out.kept.push((i, patch));
                        }
                    }
                    fetch_no += 1;
                });
                (0, r, t, elapsed)
            }
            op => {
                let edit = to_edit(op);
                let kind = if matches!(op, Op::Set { .. }) { 1 } else { 2 };
                let t = Instant::now();
                let r = target.edit(edit);
                (kind, r, t, ns(t))
            }
        };
        match kind {
            0 => times.fetch.push(elapsed),
            1 => times.edit.push(elapsed),
            _ => match times.open_insert.take() {
                None => times.open_insert = Some(elapsed),
                Some(insert) => times.shift.push((insert + elapsed) / 2),
            },
        }
        if let Some(sink) = sink.as_mut() {
            let start_ns = ns_between(sink.epoch, t);
            sink.spans.push(Span {
                name: sink.names[kind],
                op_id: i as u32,
                depth: sink.depth,
                start_ns,
                end_ns: start_ns + elapsed,
            });
        }
        tally.check(result.is_ok(), || {
            format!("op {i} {op:?}: {}", result.unwrap_err())
        });
    }
    times.wall_s = secs(wall);
    (times, out)
}

fn ns_between(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Depth 0: the TCP client.
pub struct ClientTarget(pub dataspread_client::RemoteSession);

impl Target for ClientTarget {
    fn fetch(&mut self, rect: Rect) -> Res<Option<WindowPatch>> {
        let patch = self
            .0
            .fetch_window(SHEET, rect)
            .map_err(|e| e.to_string())?;
        if patch.rect() != rect {
            return Err(format!("patch for {} instead of {rect}", patch.rect()));
        }
        Ok(Some(patch))
    }

    fn edit(&mut self, edit: Edit) -> Res<()> {
        let receipt = self.0.apply_edit(SHEET, edit).map_err(|e| e.to_string())?;
        if receipt.durable {
            Ok(())
        } else {
            Err("acknowledged without durability".to_string())
        }
    }

    fn checkpoint(&mut self) -> Res<Option<CheckpointSummary>> {
        self.0.checkpoint(SHEET).map_err(|e| e.to_string())
    }
}

/// Replay the plan on a plain in-memory engine — the reference model —
/// comparing every kept window with the model's window at that point.
fn reference_model(
    plan: &Plan,
    seed: u64,
    kept: &[(usize, WindowPatch)],
    tally: &mut Tally,
) -> Res<SparseSheet> {
    let mut model = SheetEngine::new();
    import_tables(&mut model, plan, seed)?;
    lay_formulas(&mut model, plan)?;
    let mut kept = kept.iter().peekable();
    for (i, op) in plan.tape.iter().enumerate() {
        match op {
            Op::Fetch(rect) => {
                if let Some((_, got)) = kept.next_if(|(at, _)| *at == i) {
                    let want = WindowPatch::from_cells(*rect, model.get_cells(*rect));
                    tally.check(*got == want, || {
                        format!("window {rect} at op {i} differs from the model")
                    });
                }
            }
            Op::Set { row, col, input } => model
                .update_cell(CellAddr::new(*row, *col), input)
                .map_err(err("model update_cell"))?,
            Op::InsertRow(at) => model.insert_rows(*at, 1).map_err(err("model insert"))?,
            Op::DeleteRow(at) => model.delete_rows(*at, 1).map_err(err("model delete"))?,
        }
    }
    Ok(model.snapshot())
}

/// Everything one untraced run measured.
pub struct RunResult {
    pub rounds: Vec<Round>,
    pub times: TapeTimes,
    pub rss_peak_mb: f64,
    /// Time spent in phase 6 (cold reopen, reference model, comparison).
    pub verify_s: f64,
    pub pinned: bool,
    pub tape_hash: u64,
    pub tape_counts: (usize, usize, usize),
    pub tally: Tally,
}

/// Set up `cfg.sizes.setup_rounds` times; serve the last round.
pub fn set_up(cfg: &RunConfig, masks: &Masks, tally: &mut Tally) -> Res<(Vec<Round>, Served)> {
    let mut rounds = Vec::new();
    let mut served = None;
    for round in 0..cfg.sizes.setup_rounds.max(1) {
        if let Some(prev) = served.take() {
            shut_down(prev);
        }
        let (r, s) = setup_round(cfg, round, masks, tally)?;
        rounds.push(r);
        served = Some(s);
    }
    Ok((rounds, served.expect("at least one round")))
}

/// Stop serving: close the client, then the server and its workspace.
pub fn shut_down(served: Served) -> (Plan, Arc<MemFs>, PathBuf) {
    let Served {
        plan,
        fs,
        dir,
        handle,
        client,
        ..
    } = served;
    drop(client);
    handle.shutdown();
    (plan, fs, dir)
}

/// Phase 6: reopen cold and compare the whole sheet with the reference
/// model. Returns the cold-open time (image restore + WAL-tail replay).
pub fn verify(
    plan: &Plan,
    seed: u64,
    fs: Arc<MemFs>,
    dir: &Path,
    kept: &[(usize, WindowPatch)],
    tally: &mut Tally,
) -> Res<f64> {
    let t = Instant::now();
    let recovered = SheetEngine::open_on(fs, dir.join(SHEET)).map_err(err("cold reopen"))?;
    let recover_s = secs(t);
    let recovered = recovered.snapshot();
    let model = reference_model(plan, seed, kept, tally)?;
    tally.check(recovered == model, || {
        format!(
            "recovered sheet differs from the reference model ({} vs {} cells; first difference {})",
            recovered.filled_count(),
            model.filled_count(),
            first_difference(&recovered, &model)
        )
    });
    Ok(recover_s)
}

/// The untraced end-to-end run.
pub fn run(cfg: &RunConfig) -> Res<RunResult> {
    let masks = Masks::probe();
    let mut tally = Tally::default();
    let (rounds, served) = set_up(cfg, &masks, &mut tally)?;
    let pinned = served.pinned;
    let mut target = ClientTarget(served.client.session());
    let (mut times, output) = run_tape(&served.plan.tape, &mut target, None, &mut tally);
    drop(target);
    let rss = rss_peak_mb().unwrap_or(0.0);
    times.discard_warmup();
    let (plan, fs, dir) = shut_down(served);
    masks.unpin();
    let t = Instant::now();
    verify(&plan, cfg.seed, fs, &dir, &output.kept, &mut tally)?;
    let verify_s = secs(t);
    Ok(RunResult {
        rounds,
        times,
        rss_peak_mb: rss,
        verify_s,
        pinned,
        tape_hash: plan.tape_hash(),
        tape_counts: plan.tape_counts(),
        tally,
    })
}

/// Median over the rounds of one per-round measurement.
pub fn round_median(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}
