//! The workspace service proper: named sheet shards behind per-sheet
//! locks, and the name-keyed session API served over them.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use dataspread_engine::{
    CheckpointReport, EngineError, EngineObs, HybridSheet, ModelKind, SheetEngine,
};
use dataspread_grid::{codec, CellAddr, CellValue, Rect, SparseSheet};
use dataspread_obs::{
    now_ms, Counter, Event, Gauge, Health, Histogram, MetricsRegistry, SheetHealth,
};
use dataspread_proto::{
    codes, Edit, EditReceipt, PatchBuilder, RegistrySnapshot, SheetStats, WindowPatch, WireError,
};
use dataspread_relstore::{SharedWal, StorageFs, StoreError, WalObs};

/// Workspace construction knobs.
#[derive(Clone, Default)]
pub struct WorkspaceConfig {
    /// Route every sheet's file I/O through this filesystem instead of
    /// the real one — the hook fault-injection tests use to script
    /// storage failures (`None` = the real OS filesystem).
    pub storage_fs: Option<Arc<dyn StorageFs>>,
    /// Ops slower than this land in the slow-op event ring
    /// (`None` = the registry default, 20ms).
    pub slow_op_ns: Option<u64>,
}

impl std::fmt::Debug for WorkspaceConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkspaceConfig")
            .field("storage_fs", &self.storage_fs.as_ref().map(|_| "custom"))
            .finish()
    }
}

/// Every region layout: `Session::metrics` sets one
/// `region_resident_bytes{kind, sheet}` gauge per entry, 0 for a layout
/// the sheet does not use.
const LAYOUTS: [ModelKind; 5] = [
    ModelKind::Rom,
    ModelKind::Com,
    ModelKind::Rcv,
    ModelKind::Tom,
    ModelKind::Columnar,
];

/// Errors surfaced by the session API.
///
/// Every variant has a stable numeric wire code ([`WorkspaceError::code`],
/// constants in [`dataspread_proto::codes`]) so errors cross the network
/// as `(code, detail)` pairs ([`WorkspaceError::to_wire`]) instead of
/// collapsing into strings. The wire form is one-way: a remote client
/// receives the [`WireError`] itself and never rebuilds this enum. The
/// enum is `#[non_exhaustive]`: new variants may appear.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkspaceError {
    /// The named sheet was never opened in this workspace.
    NoSuchSheet(String),
    /// Sheet names become directory names; only `[A-Za-z0-9_-]` survive
    /// an RPC boundary safely.
    BadSheetName(String),
    Engine(EngineError),
    Store(StoreError),
    /// Admission control rejected the request (e.g. too many staged edits
    /// in flight); retry after draining.
    Busy(String),
    /// The sheet is read-only after a permanent storage failure: fetches
    /// still serve from memory, but edits are refused until the server
    /// reopens the store. The payload is the original failure cause.
    Degraded(String),
    /// A permanent storage failure surfaced by the failing operation
    /// itself (a failed fsync, a torn checkpoint). The request that got
    /// this error was NOT made durable; the sheet degrades to read-only.
    StorageFailed(String),
}

impl std::fmt::Display for WorkspaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkspaceError::NoSuchSheet(n) => write!(f, "no such sheet: {n}"),
            WorkspaceError::BadSheetName(n) => {
                write!(f, "bad sheet name {n:?} (use [A-Za-z0-9_-])")
            }
            WorkspaceError::Engine(e) => write!(f, "engine: {e}"),
            WorkspaceError::Store(e) => write!(f, "store: {e}"),
            WorkspaceError::Busy(m) => write!(f, "busy: {m}"),
            WorkspaceError::Degraded(m) => {
                write!(f, "sheet degraded to read-only after storage failure: {m}")
            }
            WorkspaceError::StorageFailed(m) => write!(f, "storage failed: {m}"),
        }
    }
}

impl std::error::Error for WorkspaceError {}

/// A permanent storage failure gets its own session-level variant (and
/// wire code) wherever it surfaces — the commit path, a checkpoint, an
/// edit's WAL append — instead of hiding inside [`WorkspaceError::Store`]
/// or [`WorkspaceError::Engine`]: clients branch on it to stop retrying,
/// and the sheet's degrade is noted by the op that hit it.
impl From<EngineError> for WorkspaceError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Store(StoreError::StorageFailed(m)) => WorkspaceError::StorageFailed(m),
            other => WorkspaceError::Engine(other),
        }
    }
}

impl From<StoreError> for WorkspaceError {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::StorageFailed(m) => WorkspaceError::StorageFailed(m),
            other => WorkspaceError::Store(other),
        }
    }
}

fn store_code(e: &StoreError) -> u16 {
    match e {
        StoreError::NoSuchTable(_) => codes::STORE_NO_SUCH_TABLE,
        StoreError::TableExists(_) => codes::STORE_TABLE_EXISTS,
        StoreError::SchemaMismatch(_) => codes::STORE_SCHEMA_MISMATCH,
        StoreError::BadTupleId => codes::STORE_BAD_TUPLE_ID,
        StoreError::Corrupt(_) => codes::STORE_CORRUPT,
        StoreError::NoSuchColumn(_) => codes::STORE_NO_SUCH_COLUMN,
        StoreError::LimitExceeded(_) => codes::STORE_LIMIT_EXCEEDED,
        StoreError::Io(_) => codes::STORE_IO,
        StoreError::StorageFailed(_) => codes::STORE_STORAGE_FAILED,
    }
}

fn store_detail(e: &StoreError) -> String {
    match e {
        StoreError::NoSuchTable(s)
        | StoreError::TableExists(s)
        | StoreError::SchemaMismatch(s)
        | StoreError::Corrupt(s)
        | StoreError::NoSuchColumn(s)
        | StoreError::LimitExceeded(s)
        | StoreError::Io(s)
        | StoreError::StorageFailed(s) => s.clone(),
        StoreError::BadTupleId => String::new(),
    }
}

impl WorkspaceError {
    /// The variant's stable wire code (see [`dataspread_proto::codes`]).
    /// Codes never change meaning across versions.
    pub fn code(&self) -> u16 {
        match self {
            WorkspaceError::NoSuchSheet(_) => codes::NO_SUCH_SHEET,
            WorkspaceError::BadSheetName(_) => codes::BAD_SHEET_NAME,
            WorkspaceError::Busy(_) => codes::BUSY,
            WorkspaceError::Degraded(_) => codes::DEGRADED,
            WorkspaceError::StorageFailed(_) => codes::STORAGE_FAILED,
            WorkspaceError::Engine(EngineError::Unsupported(_)) => codes::ENGINE_UNSUPPORTED,
            WorkspaceError::Engine(EngineError::BadLink(_)) => codes::ENGINE_BAD_LINK,
            WorkspaceError::Engine(EngineError::Formula(_)) => codes::ENGINE_FORMULA,
            WorkspaceError::Engine(EngineError::Grid(_)) => codes::ENGINE_GRID,
            WorkspaceError::Engine(EngineError::Rel(_)) => codes::ENGINE_REL,
            WorkspaceError::Engine(EngineError::Store(e)) | WorkspaceError::Store(e) => {
                store_code(e)
            }
        }
    }

    /// The variant's payload string as sent over the wire (the sheet
    /// name, the message — not the rendered `Display` form).
    pub fn wire_detail(&self) -> String {
        match self {
            WorkspaceError::NoSuchSheet(s)
            | WorkspaceError::BadSheetName(s)
            | WorkspaceError::Busy(s)
            | WorkspaceError::Degraded(s)
            | WorkspaceError::StorageFailed(s) => s.clone(),
            WorkspaceError::Engine(EngineError::Unsupported(m))
            | WorkspaceError::Engine(EngineError::BadLink(m)) => m.clone(),
            WorkspaceError::Engine(EngineError::Formula(e)) => e.to_string(),
            WorkspaceError::Engine(EngineError::Grid(e)) => e.to_string(),
            WorkspaceError::Engine(EngineError::Rel(e)) => e.to_string(),
            WorkspaceError::Engine(EngineError::Store(e)) | WorkspaceError::Store(e) => {
                store_detail(e)
            }
        }
    }

    /// Package for the wire: `(code, detail)`.
    pub fn to_wire(&self) -> WireError {
        WireError::new(self.code(), self.wire_detail())
    }
}

/// One sheet shard: the engine behind its reader-writer lock plus the
/// shared WAL handle its writers commit through.
struct Shard {
    name: String,
    engine: RwLock<SheetEngine>,
    /// `None` for in-memory workspaces.
    wal: Option<Arc<SharedWal>>,
    /// Set by the first operation that observes the sheet degraded, so
    /// the transition lands in the event ring exactly once.
    degraded_noted: AtomicBool,
}

/// A sheet's slot in the workspace map. The slot is published (under the
/// map's short-lived write lock) *before* recovery runs, then recovery
/// proceeds outside every workspace-level lock — a slow recovery stalls
/// only sessions that touch that sheet, never openers of other sheets.
struct SheetSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

enum SlotState {
    /// The opener is recovering the engine; wait on `ready`.
    Building,
    Ready(Arc<Shard>),
    /// Recovery failed; the opener has already unlinked the slot from the
    /// map so a later `open_sheet` can retry.
    Failed(WorkspaceError),
}

impl SheetSlot {
    fn building() -> SheetSlot {
        SheetSlot {
            state: Mutex::new(SlotState::Building),
            ready: Condvar::new(),
        }
    }

    /// Block until the slot leaves `Building`.
    fn wait_ready(&self) -> Result<Arc<Shard>, WorkspaceError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match &*st {
                SlotState::Ready(shard) => return Ok(Arc::clone(shard)),
                SlotState::Failed(e) => return Err(e.clone()),
                SlotState::Building => {
                    st = self.ready.wait(st).unwrap_or_else(|e| e.into_inner());
                }
            }
        }
    }

    fn publish(&self, state: SlotState) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = state;
        self.ready.notify_all();
    }
}

/// One session op's instrumentation pair: an exact op counter
/// (`session_ops{op=…}`) and a latency histogram
/// (`session_op_ns{op=…}`) fed by *sampled* clock reads.
///
/// Counting is one relaxed fetch-add per op; the two `Instant::now()`
/// reads and the histogram record are paid only for one op in
/// `mask + 1`. The first op is always timed, so even tiny workloads
/// leave a latency sample, and the sequence is the counter itself, so
/// sampling costs no extra atomic. Hot mutation ops (`apply_edit`,
/// `stage_edit`) sample at 1-in-128 — an in-memory edit runs in hundreds
/// of nanoseconds, where clocking every call would cost a visible share
/// of the op; the heavier ops (`fetch_window`, `await_commit`) time every
/// call.
struct OpMeter {
    ops: Arc<Counter>,
    hist: Arc<Histogram>,
    /// Sample an op's latency iff `(n - 1) & mask == 0` for its sequence
    /// number `n` (1-based). `0` times every op.
    mask: u64,
}

/// Cached per-op instrumentation handles — resolved once at workspace
/// construction so the hot path never touches the registry's map lock.
struct OpHists {
    apply_edit: OpMeter,
    fetch_window: OpMeter,
    stage_edit: OpMeter,
    await_commit: OpMeter,
}

impl OpHists {
    /// Hot-path sampling rate: time one op in 128.
    const HOT_MASK: u64 = 127;

    fn new(registry: &Arc<MetricsRegistry>) -> OpHists {
        let meter = |op: &str, mask: u64| OpMeter {
            ops: registry.counter("session_ops", &[("op", op)]),
            hist: registry.histogram("session_op_ns", &[("op", op)]),
            mask,
        };
        OpHists {
            apply_edit: meter("apply_edit", Self::HOT_MASK),
            fetch_window: meter("fetch_window", 0),
            stage_edit: meter("stage_edit", Self::HOT_MASK),
            await_commit: meter("await_commit", 0),
        }
    }
}

struct Inner {
    dir: Option<PathBuf>,
    config: WorkspaceConfig,
    sheets: RwLock<HashMap<String, Arc<SheetSlot>>>,
    /// The workspace-wide metrics registry every layer records into
    /// (WAL fsyncs, engine recompute waves, session op latencies, …).
    metrics: Arc<MetricsRegistry>,
    op_hists: OpHists,
    /// `wal_ops_per_fsync` — appended WAL records per fsync across the
    /// workspace, refreshed by [`Session::metrics`].
    ops_per_fsync: Arc<Gauge>,
}

/// A concurrent multi-sheet workspace. Create one, hand [`Session`]s to
/// each client thread, and let them read/write concurrently: readers of a
/// sheet share its lock, writers serialize per sheet, and sessions on
/// different sheets proceed fully in parallel.
pub struct Workspace {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Workspace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workspace")
            .field("dir", &self.inner.dir)
            .field("sheets", &self.sheet_names())
            .finish()
    }
}

fn valid_sheet_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl Workspace {
    /// A volatile workspace: sheets live in memory, receipts carry no
    /// durability.
    pub fn in_memory() -> Workspace {
        Self::build(None, WorkspaceConfig::default())
    }

    /// Open (or create) a durable workspace rooted at `dir` with group
    /// commit (each sheet lives in `dir/<name>/` and recovers
    /// independently on open).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Workspace, WorkspaceError> {
        Self::open_with(dir, WorkspaceConfig::default())
    }

    /// [`Workspace::open`] with explicit configuration.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        config: WorkspaceConfig,
    ) -> Result<Workspace, WorkspaceError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(StoreError::from)?;
        Ok(Self::build(Some(dir), config))
    }

    fn build(dir: Option<PathBuf>, config: WorkspaceConfig) -> Workspace {
        let metrics = MetricsRegistry::new();
        if let Some(ns) = config.slow_op_ns {
            metrics.set_slow_op_ns(ns);
        }
        let op_hists = OpHists::new(&metrics);
        let ops_per_fsync = metrics.gauge("wal_ops_per_fsync", &[]);
        Workspace {
            inner: Arc::new(Inner {
                dir,
                config,
                sheets: RwLock::new(HashMap::new()),
                metrics,
                op_hists,
                ops_per_fsync,
            }),
        }
    }

    /// A new session over this workspace. Sessions are cheap handles
    /// (`Clone + Send`) — one per client thread.
    pub fn session(&self) -> Session {
        Session {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Names of the sheets opened so far (including ones still
    /// recovering).
    pub fn sheet_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .sheets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// The workspace-wide metrics registry — every layer (WAL, engine,
    /// session ops, server) records into this one instance. Benches and
    /// embedders can snapshot or toggle it directly.
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.inner.metrics)
    }
}

/// The window `rect` of `sheet` as a [`WindowPatch`]: the sheet's ordered
/// scan placed straight into a [`PatchBuilder`] — whatever layouts serve
/// the window, no `(CellAddr, Cell)` list and no sort in between (a window
/// straddling several stores is gathered and sorted once, inside the
/// scan). Equal to `WindowPatch::from_cells(rect, sheet.get_cells(rect))`.
pub fn window_patch(sheet: &HybridSheet, rect: Rect) -> WindowPatch {
    let mut builder = PatchBuilder::new(rect);
    sheet.scan(rect, |row, col, value, formula| {
        builder.place(row, col, value, formula)
    });
    builder.finish()
}

/// A client handle onto a [`Workspace`]: the session API (`open_sheet`,
/// `fetch_window`, `apply_edit`, `import_rows`, `checkpoint`), keyed by
/// sheet name. Every request/response type on this surface is wire-stable
/// plain data from [`dataspread_proto`] — the TCP server exposes these
/// methods one-to-one without reshaping anything.
#[derive(Clone)]
pub struct Session {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("dir", &self.inner.dir)
            .finish()
    }
}

impl Session {
    fn shard(&self, name: &str) -> Result<Arc<Shard>, WorkspaceError> {
        let slot = self
            .inner
            .sheets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| WorkspaceError::NoSuchSheet(name.to_string()))?;
        slot.wait_ready()
    }

    fn read_engine<'a>(&self, shard: &'a Shard) -> RwLockReadGuard<'a, SheetEngine> {
        shard.engine.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_engine<'a>(&self, shard: &'a Shard) -> RwLockWriteGuard<'a, SheetEngine> {
        shard.engine.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Open (or create) the named sheet. Durable workspaces store each
    /// sheet in its own subdirectory and run the engine's crash recovery
    /// here; reopening an already-open sheet is a cheap no-op.
    ///
    /// The sheet-map write lock is held only long enough to publish a
    /// placeholder slot; recovery itself (image restore + WAL replay,
    /// potentially seconds on a large sheet) runs outside it, so
    /// concurrent opens and operations on *other* sheets never stall
    /// behind this one. Concurrent opens of the *same* sheet block until
    /// the first opener finishes, then share its shard.
    pub fn open_sheet(&self, name: &str) -> Result<(), WorkspaceError> {
        if !valid_sheet_name(name) {
            return Err(WorkspaceError::BadSheetName(name.to_string()));
        }
        {
            let sheets = self.inner.sheets.read().unwrap_or_else(|e| e.into_inner());
            if let Some(slot) = sheets.get(name) {
                let slot = Arc::clone(slot);
                drop(sheets);
                return slot.wait_ready().map(|_| ());
            }
        }
        // Publish a placeholder under the (briefly held) write lock.
        let slot = {
            let mut sheets = self.inner.sheets.write().unwrap_or_else(|e| e.into_inner());
            if let Some(existing) = sheets.get(name) {
                // Raced with another opener: wait on their slot instead.
                let existing = Arc::clone(existing);
                drop(sheets);
                return existing.wait_ready().map(|_| ());
            }
            let slot = Arc::new(SheetSlot::building());
            sheets.insert(name.to_string(), Arc::clone(&slot));
            slot
        };
        // Recover outside every workspace-level lock.
        match self.build_shard(name) {
            Ok(shard) => {
                slot.publish(SlotState::Ready(shard));
                Ok(())
            }
            Err(e) => {
                // Unlink the failed slot first so a retry can start
                // fresh, then wake waiters with the error.
                let mut sheets = self.inner.sheets.write().unwrap_or_else(|e| e.into_inner());
                if sheets
                    .get(name)
                    .is_some_and(|current| Arc::ptr_eq(current, &slot))
                {
                    sheets.remove(name);
                }
                drop(sheets);
                slot.publish(SlotState::Failed(e.clone()));
                Err(e)
            }
        }
    }

    /// Engine construction + recovery for one sheet (no workspace locks
    /// held).
    fn build_shard(&self, name: &str) -> Result<Arc<Shard>, WorkspaceError> {
        let mut engine = match &self.inner.dir {
            Some(dir) => match &self.inner.config.storage_fs {
                Some(fs) => SheetEngine::open_on(Arc::clone(fs), dir.join(name))?,
                None => SheetEngine::open(dir.join(name))?,
            },
            None => SheetEngine::new(),
        };
        engine.set_obs(EngineObs::new(&self.inner.metrics, name));
        let wal = engine.commit_wal();
        if let Some(wal) = &wal {
            wal.set_obs(WalObs::new(&self.inner.metrics, name));
        }
        Ok(Arc::new(Shard {
            name: name.to_string(),
            engine: RwLock::new(engine),
            wal,
            degraded_noted: AtomicBool::new(false),
        }))
    }

    /// Stopwatch start for an instrumented session op: bumps the op's
    /// exact counter, reads the clock only for sampled ops (see
    /// [`OpMeter`]). `None` means the op fell outside the sample and
    /// records no latency.
    fn op_timer(&self, meter: &OpMeter) -> Option<Instant> {
        let n = meter.ops.inc_get();
        ((n - 1) & meter.mask == 0).then(Instant::now)
    }

    /// Record one finished *sampled* session op: latency histogram plus
    /// the slow-op ring (only ops over the registry threshold are
    /// ring-buffered).
    fn note_op(
        &self,
        t0: Option<Instant>,
        meter: &OpMeter,
        sheet: &str,
        op: &'static str,
        ticket: u64,
        outcome: &str,
    ) {
        let Some(t0) = t0 else { return };
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        meter.hist.record_ns(ns);
        self.inner.metrics.note_op(sheet, op, ns, ticket, outcome);
    }

    /// Ring-buffer the sheet's healthy→degraded transition, exactly once.
    fn note_degraded(&self, shard: &Shard, cause: &str) {
        if shard.degraded_noted.swap(true, Ordering::Relaxed) {
            return;
        }
        self.inner.metrics.push_event(Event {
            ts_ms: now_ms(),
            kind: "degraded".to_string(),
            sheet: shard.name.clone(),
            op: String::new(),
            duration_ns: 0,
            ticket: 0,
            outcome: cause.to_string(),
        });
    }

    /// Inspect an op result: degrade-class errors mark the shard's
    /// transition; the returned string labels the outcome for the ring.
    fn outcome_of<T>(&self, shard: &Shard, res: &Result<T, WorkspaceError>) -> &'static str {
        match res {
            Ok(_) => "ok",
            Err(WorkspaceError::Degraded(cause)) | Err(WorkspaceError::StorageFailed(cause)) => {
                self.note_degraded(shard, cause);
                "storage_failed"
            }
            Err(_) => "err",
        }
    }

    /// Fetch the positional window `rect` of `sheet` — the scrolling /
    /// rendering read path. Takes the sheet's *shared* lock: any number of
    /// sessions fetch windows of the same sheet concurrently, and windows
    /// of different sheets never touch the same lock at all.
    ///
    /// Returns a [`WindowPatch`] — the window's cells as one cell block —
    /// instead of one `Cell` clone per filled cell. The patch is the wire
    /// format: the TCP server frames it as-is.
    pub fn fetch_window(&self, sheet: &str, rect: Rect) -> Result<WindowPatch, WorkspaceError> {
        let shard = self.shard(sheet)?;
        let t0 = self.op_timer(&self.inner.op_hists.fetch_window);
        let patch = window_patch(self.read_engine(&shard).storage(), rect);
        self.note_op(
            t0,
            &self.inner.op_hists.fetch_window,
            sheet,
            "fetch_window",
            0,
            "ok",
        );
        Ok(patch)
    }

    /// A single cell's computed value (shared lock, like `fetch_window`).
    pub fn value(&self, sheet: &str, addr: CellAddr) -> Result<CellValue, WorkspaceError> {
        let shard = self.shard(sheet)?;
        let value = self.read_engine(&shard).value(addr);
        Ok(value)
    }

    /// Apply one edit to `sheet` and return once it is committed.
    ///
    /// The edit itself serializes under the sheet's write lock (one writer
    /// per sheet; writers on other sheets run in parallel). Commit
    /// acknowledgement happens *after* the lock is released: the call
    /// commits the edit's ticket on the sheet's WAL (see
    /// [`SharedWal::commit`]) — so the fsync wait never blocks the sheet's
    /// readers or the next writer.
    pub fn apply_edit(&self, sheet: &str, edit: Edit) -> Result<EditReceipt, WorkspaceError> {
        let shard = self.shard(sheet)?;
        let t0 = self.op_timer(&self.inner.op_hists.apply_edit);
        let res = self
            .apply_under_lock(&shard, &edit)
            .and_then(|ticket| self.commit(&shard, ticket));
        let outcome = self.outcome_of(&shard, &res);
        let ticket = res.as_ref().map_or(0, |r| r.ticket);
        self.note_op(
            t0,
            &self.inner.op_hists.apply_edit,
            sheet,
            "apply_edit",
            ticket,
            outcome,
        );
        res
    }

    /// Refuse durable mutations on a sheet whose store suffered a
    /// permanent storage failure. The check runs *before* the engine
    /// mutates memory, so a degraded sheet's in-memory state stays
    /// exactly what was last acknowledged — reads keep serving it.
    fn check_writable(engine: &SheetEngine) -> Result<(), WorkspaceError> {
        match engine.storage_failed() {
            Some(cause) => Err(WorkspaceError::Degraded(cause)),
            None => Ok(()),
        }
    }

    /// Apply `edit` under the sheet's write lock; returns its ticket.
    fn apply_under_lock(&self, shard: &Shard, edit: &Edit) -> Result<u64, WorkspaceError> {
        let mut engine = self.write_engine(shard);
        Self::check_writable(&engine)?;
        match edit {
            Edit::Set { row, col, input } => {
                engine.update_cell(CellAddr::new(*row, *col), input)?
            }
            Edit::InsertRows { at, n } => engine.insert_rows(*at, *n)?,
            Edit::DeleteRows { at, n } => engine.delete_rows(*at, *n)?,
            Edit::InsertCols { at, n } => engine.insert_cols(*at, *n)?,
            Edit::DeleteCols { at, n } => engine.delete_cols(*at, *n)?,
        }
        Ok(engine.last_commit_ticket())
    }

    /// [`Session::apply_edit`] without the commit wait: the edit is
    /// applied and logged, and the returned receipt's ticket can be
    /// awaited later with [`Session::await_commit`] — the pipelining
    /// building block for RPC clients that keep a small window of edits
    /// in flight (the awaiting writer's one fsync then covers the whole
    /// window). Durable workspaces return immediately with
    /// `durable: false`; a staged edit nobody awaits becomes durable with
    /// the sheet's next commit or checkpoint.
    pub fn stage_edit(&self, sheet: &str, edit: Edit) -> Result<EditReceipt, WorkspaceError> {
        let shard = self.shard(sheet)?;
        let t0 = self.op_timer(&self.inner.op_hists.stage_edit);
        // In-memory engines log nothing, so their ticket is 0.
        let res = self
            .apply_under_lock(&shard, &edit)
            .map(|ticket| EditReceipt {
                ticket,
                durable: false,
            });
        let outcome = self.outcome_of(&shard, &res);
        let ticket = res.as_ref().map_or(0, |r| r.ticket);
        self.note_op(
            t0,
            &self.inner.op_hists.stage_edit,
            sheet,
            "stage_edit",
            ticket,
            outcome,
        );
        res
    }

    /// Block until `ticket` (from [`Session::stage_edit`]) is
    /// crash-durable. Tickets are covered in order, so awaiting the last
    /// ticket of a staged window commits the whole window. A ticket the
    /// sheet never issued is refused with a `LimitExceeded` store error.
    pub fn await_commit(&self, sheet: &str, ticket: u64) -> Result<(), WorkspaceError> {
        let shard = self.shard(sheet)?;
        let t0 = self.op_timer(&self.inner.op_hists.await_commit);
        let res = match &shard.wal {
            None => Ok(()), // in-memory: nothing to await
            Some(wal) => wal.commit(ticket).map_err(WorkspaceError::from),
        };
        let outcome = self.outcome_of(&shard, &res);
        self.note_op(
            t0,
            &self.inner.op_hists.await_commit,
            sheet,
            "await_commit",
            ticket,
            outcome,
        );
        res
    }

    /// Highest commit ticket known crash-durable on `sheet` (0 on
    /// in-memory workspaces). `stage_edit` tickets at or below this value
    /// no longer need an `await_commit` — the admission-control signal
    /// the server's per-connection backpressure prunes its in-flight
    /// window with.
    pub fn durable_ticket(&self, sheet: &str) -> Result<u64, WorkspaceError> {
        let shard = self.shard(sheet)?;
        Ok(shard.wal.as_ref().map_or(0, |w| w.durable_seq()))
    }

    /// The restart-reconciliation pair `(incarnation, horizon)` for
    /// `sheet`, both frozen when its durable directory was last opened
    /// (`(0, 0)` on in-memory workspaces). A reconnecting client compares
    /// the incarnation against the value it remembered: unchanged means
    /// the server never restarted (nothing staged was lost; re-staging
    /// would double-apply), changed means it must re-stage exactly its
    /// staged edits with tickets above the horizon.
    pub fn recovery_horizon(&self, sheet: &str) -> Result<(u64, u64), WorkspaceError> {
        let shard = self.shard(sheet)?;
        let horizon = self.read_engine(&shard).recovery_horizon();
        Ok(horizon)
    }

    /// `Some(cause)` when `sheet` has degraded to read-only after a
    /// permanent storage failure (`None` = healthy). Degraded sheets keep
    /// serving reads from memory; edits fail with
    /// [`WorkspaceError::Degraded`] until the workspace is reopened.
    pub fn storage_failed(&self, sheet: &str) -> Result<Option<String>, WorkspaceError> {
        let shard = self.shard(sheet)?;
        let failed = self.read_engine(&shard).storage_failed();
        Ok(failed)
    }

    /// Bulk-import rows of values at `top_left` (one logical op, one WAL
    /// record), committed like any edit: each row's first `width` values,
    /// as the cell block a remote import sends ([`Session::import_block`]).
    pub fn import_rows(
        &self,
        sheet: &str,
        top_left: CellAddr,
        width: u32,
        rows: Vec<Vec<CellValue>>,
    ) -> Result<Rect, WorkspaceError> {
        let block = codec::encode_block(width, &rows);
        self.import_block(sheet, top_left, width, rows.len() as u32, block)
    }

    /// An import whose cells are already a cell block `rows` rows tall
    /// ([`SheetEngine::import_block`]): the server's import path, which
    /// neither decodes the block into rows nor re-encodes it.
    pub fn import_block(
        &self,
        sheet: &str,
        top_left: CellAddr,
        width: u32,
        rows: u32,
        block: Vec<u8>,
    ) -> Result<Rect, WorkspaceError> {
        let shard = self.shard(sheet)?;
        let res = (|| {
            let (rect, ticket) = {
                let mut engine = self.write_engine(&shard);
                Self::check_writable(&engine)?;
                let rect = engine.import_block(top_left, width, rows, block)?;
                (rect, engine.last_commit_ticket())
            };
            self.commit(&shard, ticket)?;
            Ok(rect)
        })();
        self.outcome_of(&shard, &res);
        res
    }

    /// Fold `sheet`'s WAL into its checkpoint image (write lock; readers
    /// of other sheets are unaffected). `Ok(None)` on in-memory
    /// workspaces.
    pub fn checkpoint(&self, sheet: &str) -> Result<Option<CheckpointReport>, WorkspaceError> {
        let shard = self.shard(sheet)?;
        let res = {
            let mut engine = self.write_engine(&shard);
            engine.checkpoint().map_err(WorkspaceError::from)
        };
        self.outcome_of(&shard, &res);
        res
    }

    /// Block until the op behind `ticket` is crash-durable.
    fn commit(&self, shard: &Shard, ticket: u64) -> Result<EditReceipt, WorkspaceError> {
        let Some(wal) = &shard.wal else {
            return Ok(EditReceipt {
                ticket: 0,
                durable: false,
            });
        };
        wal.commit(ticket)?;
        Ok(EditReceipt {
            ticket,
            durable: true,
        })
    }

    /// In-memory copy of a sheet (tests, exports). Shared lock.
    pub fn snapshot(&self, sheet: &str) -> Result<SparseSheet, WorkspaceError> {
        let shard = self.shard(sheet)?;
        let snapshot = self.read_engine(&shard).snapshot();
        Ok(snapshot)
    }

    /// Counters and health for one sheet: its projection of
    /// [`Session::metrics`] ([`SheetStats::from_snapshot`]), so the numbers
    /// are the ones every other reader of the snapshot sees. Unknown and
    /// badly named sheets are refused like every other per-sheet call.
    pub fn stats(&self, sheet: &str) -> Result<SheetStats, WorkspaceError> {
        self.shard(sheet)?;
        SheetStats::from_snapshot(&self.metrics(), sheet)
            .ok_or_else(|| WorkspaceError::NoSuchSheet(sheet.to_string()))
    }

    /// Every `Ready` shard by name, sorted — skips sheets still
    /// recovering (their metrics land once they publish).
    fn ready_shards(&self) -> Vec<(String, Arc<Shard>)> {
        let slots: Vec<(String, Arc<SheetSlot>)> = self
            .inner
            .sheets
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, slot)| (name.clone(), Arc::clone(slot)))
            .collect();
        let mut shards: Vec<(String, Arc<Shard>)> = slots
            .into_iter()
            .filter_map(|(name, slot)| {
                let st = slot.state.lock().unwrap_or_else(|e| e.into_inner());
                match &*st {
                    SlotState::Ready(shard) => Some((name, Arc::clone(shard))),
                    _ => None,
                }
            })
            .collect();
        shards.sort_by(|a, b| a.0.cmp(&b.0));
        shards
    }

    /// A whole-workspace metrics snapshot: every counter, gauge and
    /// histogram recorded so far, the slow-op/event ring, and per-sheet
    /// health. Point-in-time gauges are sampled here, so the snapshot is
    /// self-contained: each [`SheetStats`] number as a `{sheet}`-labelled
    /// gauge of the same name (`checkpoints` is the `checkpoint_ns{sheet}`
    /// count; the persistence numbers exist for durable sheets only),
    /// resident bytes by region layout, and WAL ops-per-fsync. Sheets
    /// still recovering are not in it yet.
    ///
    /// This is the payload `Request::Metrics` serves, the one stats
    /// channel: [`Session::stats`] and the remote client's `stats` are
    /// projections of it. The text exposition
    /// (`RegistrySnapshot::render_text`) renders it for scrapes.
    pub fn metrics(&self) -> RegistrySnapshot {
        let shards = self.ready_shards();
        let registry = &self.inner.metrics;
        let mut sheets: Vec<SheetHealth> = Vec::with_capacity(shards.len());
        let mut total_appends: u64 = 0;
        let mut total_fsyncs: u64 = 0;
        for (name, shard) in &shards {
            let labels: &[(&str, &str)] = &[("sheet", name)];
            let engine = self.read_engine(shard);
            let storage = engine.storage();
            let mut numbers = vec![
                ("filled_cells", storage.filled_count()),
                ("regions", storage.region_count() as u64),
                ("resident_bytes", storage.resident_bytes()),
            ];
            if let Some(p) = engine.persistence_stats() {
                numbers.extend([
                    ("wal_bytes", p.wal_bytes),
                    ("ops_since_checkpoint", p.ops_since_checkpoint),
                    ("image_pages", p.image_pages),
                    ("image_regions", p.image_regions),
                    ("pager_pages_read", p.pages_read),
                    ("pager_pages_written", p.pages_written),
                ]);
            }
            for (key, v) in numbers {
                registry
                    .gauge(key, labels)
                    .set(i64::try_from(v).unwrap_or(i64::MAX));
            }
            // One series per layout, never per region: a region's position
            // moves with every row shift, and the registry keeps every key.
            let regions = storage.region_resident_bytes();
            for kind in LAYOUTS {
                let bytes: u64 = regions
                    .iter()
                    .filter(|&&(_, k, _)| k == kind)
                    .map(|&(_, _, b)| b)
                    .sum();
                registry
                    .gauge(
                        "region_resident_bytes",
                        &[("kind", &kind.to_string()), ("sheet", name)],
                    )
                    .set(i64::try_from(bytes).unwrap_or(i64::MAX));
            }
            let mut health = SheetHealth {
                sheet: name.clone(),
                health: Health::Healthy,
                cause: None,
                since_ms: None,
            };
            if let Some((cause, since_ms)) = engine.storage_failed_info() {
                health.health = Health::Degraded;
                health.cause = Some(cause);
                health.since_ms = (since_ms > 0).then_some(since_ms);
            }
            drop(engine);
            sheets.push(health);
            if shard.wal.is_some() {
                let wal_obs = WalObs::new(registry, name);
                total_appends += wal_obs.appends.get();
                total_fsyncs += wal_obs.fsyncs.get();
            }
        }
        if let Some(per_fsync) = total_appends.checked_div(total_fsyncs) {
            self.inner
                .ops_per_fsync
                .set(i64::try_from(per_fsync).unwrap_or(i64::MAX));
        }
        let mut snap = registry.snapshot();
        snap.sheets = sheets;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::time::{Duration, Instant};

    /// The real filesystem, except that the first open of a file under
    /// `sheet_dir` sleeps `stall`: a slow recovery of that one sheet,
    /// after its placeholder shard is published.
    struct StallingFs {
        inner: Arc<dyn StorageFs>,
        sheet_dir: PathBuf,
        stall: Duration,
        stalled: AtomicBool,
    }

    impl StallingFs {
        fn config(dir: &Path, sheet: &str, stall: Duration) -> WorkspaceConfig {
            let fs = StallingFs {
                inner: dataspread_relstore::real_fs(),
                sheet_dir: dir.join(sheet),
                stall,
                stalled: AtomicBool::new(false),
            };
            WorkspaceConfig {
                storage_fs: Some(Arc::new(fs)),
                ..Default::default()
            }
        }
    }

    impl StorageFs for StallingFs {
        fn open(
            &self,
            path: &Path,
            mode: dataspread_relstore::OpenMode,
        ) -> std::io::Result<Box<dyn dataspread_relstore::VfsFile>> {
            if path.starts_with(&self.sheet_dir) && !self.stalled.swap(true, Ordering::SeqCst) {
                std::thread::sleep(self.stall);
            }
            self.inner.open(path, mode)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.inner.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            self.inner.remove_file(path)
        }
        fn sync_dir(&self, path: &Path) -> std::io::Result<()> {
            self.inner.sync_dir(path)
        }
        fn exists(&self, path: &Path) -> bool {
            self.inner.exists(path)
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dataspread-workspace-{name}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn set(row: u32, col: u32, input: &str) -> Edit {
        Edit::Set {
            row,
            col,
            input: input.to_string(),
        }
    }

    #[test]
    fn sessions_are_send_and_cheap() {
        fn assert_send<T: Send + Clone>() {}
        assert_send::<Session>();
    }

    #[test]
    fn in_memory_roundtrip() {
        let ws = Workspace::in_memory();
        let s = ws.session();
        s.open_sheet("alpha").unwrap();
        let r = s.apply_edit("alpha", set(0, 0, "41")).unwrap();
        assert!(!r.durable);
        s.apply_edit("alpha", set(0, 1, "=A1+1")).unwrap();
        assert_eq!(
            s.value("alpha", CellAddr::new(0, 1)).unwrap(),
            CellValue::Number(42.0)
        );
        let window = s.fetch_window("alpha", Rect::new(0, 0, 10, 10)).unwrap();
        assert_eq!(window.filled_count(), 2);
        // The patch carries the formula overlay alongside the computed
        // value.
        let cells = window.cells();
        let (_, cell) = cells
            .iter()
            .find(|(at, _)| *at == CellAddr::new(0, 1))
            .unwrap();
        assert_eq!(cell.value, CellValue::Number(42.0));
        assert_eq!(cell.formula.as_deref(), Some("A1+1"));
        assert!(s.checkpoint("alpha").unwrap().is_none());
        assert_eq!(s.durable_ticket("alpha").unwrap(), 0);
    }

    #[test]
    fn unknown_sheet_and_bad_names_are_rejected() {
        let ws = Workspace::in_memory();
        let s = ws.session();
        assert!(matches!(
            s.fetch_window("nope", Rect::new(0, 0, 1, 1)),
            Err(WorkspaceError::NoSuchSheet(_))
        ));
        for bad in ["", "a/b", "..", "a b", "x\u{0}"] {
            assert!(
                matches!(s.open_sheet(bad), Err(WorkspaceError::BadSheetName(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn durable_group_commit_roundtrip() {
        let dir = temp_dir("group-roundtrip");
        {
            let ws = Workspace::open(&dir).unwrap();
            let s = ws.session();
            s.open_sheet("ledger").unwrap();
            let r1 = s.apply_edit("ledger", set(0, 0, "100")).unwrap();
            let r2 = s.apply_edit("ledger", set(1, 0, "=A1*2")).unwrap();
            assert!(r1.durable && r2.durable);
            assert!(r2.ticket > r1.ticket, "tickets order the edit history");
            assert!(
                s.durable_ticket("ledger").unwrap() >= r2.ticket,
                "acknowledged edits are at or below the durable horizon"
            );
        }
        // Reopen: both committed edits must recover (no explicit save —
        // the group commit itself was the fsync-point).
        let ws = Workspace::open(&dir).unwrap();
        let s = ws.session();
        s.open_sheet("ledger").unwrap();
        assert_eq!(
            s.value("ledger", CellAddr::new(1, 0)).unwrap(),
            CellValue::Number(200.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn staged_edits_commit_on_await() {
        let dir = temp_dir("stage-await");
        {
            let ws = Workspace::open(&dir).unwrap();
            let s = ws.session();
            s.open_sheet("p").unwrap();
            // Stage a window of edits; none is individually awaited.
            let mut last = 0;
            for i in 0..6u32 {
                let r = s.stage_edit("p", set(i, 0, &i.to_string())).unwrap();
                assert!(!r.durable, "group staging must not block on fsync");
                assert!(r.ticket > last);
                last = r.ticket;
            }
            // Awaiting the last ticket commits the whole window.
            s.await_commit("p", last).unwrap();
            assert!(s.durable_ticket("p").unwrap() >= last);
        }
        let ws = Workspace::open(&dir).unwrap();
        let s = ws.session();
        s.open_sheet("p").unwrap();
        for i in 0..6u32 {
            assert_eq!(
                s.value("p", CellAddr::new(i, 0)).unwrap(),
                CellValue::Number(i as f64),
                "staged edit {i} must have committed"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn await_of_an_unissued_ticket_is_refused() {
        let dir = temp_dir("unissued");
        let ws = Workspace::open(&dir).unwrap();
        let s = ws.session();
        s.open_sheet("p").unwrap();
        s.apply_edit("p", set(0, 0, "1")).unwrap();
        let last = s.apply_edit("p", set(1, 0, "2")).unwrap().ticket;
        // Await on a thread so a hang fails the test instead of wedging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let awaiter = s.clone();
        std::thread::spawn(move || tx.send(awaiter.await_commit("p", last + 1000)).unwrap());
        let err = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("await_commit of an unissued ticket must not block")
            .unwrap_err();
        assert_eq!(err.code(), codes::STORE_LIMIT_EXCEEDED, "got {err:?}");
        assert!(err.to_string().contains("never issued"), "got {err}");
        // A refusal is not a storage failure: the sheet stays writable and
        // issued tickets still commit.
        assert!(s.storage_failed("p").unwrap().is_none());
        s.await_commit("p", last).unwrap();
        assert!(s.apply_edit("p", set(2, 0, "3")).unwrap().durable);
        // In-memory sheets issue no tickets and have nothing to await.
        let mem = Workspace::in_memory().session();
        mem.open_sheet("p").unwrap();
        mem.await_commit("p", 1000).unwrap();
        drop(ws);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsyncs_never_exceed_commit_waits() {
        let fsyncs = |ws: &Workspace| {
            ws.metrics_registry()
                .snapshot()
                .counter("wal_fsyncs{sheet=\"p\"}")
                .unwrap_or(0)
        };
        // Synchronous: every apply_edit is a commit with nothing else to
        // cover, so each pays exactly one fsync.
        let dir = temp_dir("fsyncs-sync");
        {
            let ws = Workspace::open(&dir).unwrap();
            let s = ws.session();
            s.open_sheet("p").unwrap();
            let before = fsyncs(&ws);
            for i in 0..50u32 {
                s.apply_edit("p", set(i, 0, &i.to_string())).unwrap();
            }
            assert_eq!(fsyncs(&ws) - before, 50);
        }
        std::fs::remove_dir_all(&dir).ok();

        // Pipelined: 8 writers x 25 windows of 4 staged edits + 1 await.
        // Only an await fsyncs, and at most once, so 800 ops cost at most
        // 200 fsyncs.
        let dir = temp_dir("fsyncs-pipelined");
        {
            let ws = Workspace::open(&dir).unwrap();
            let s = ws.session();
            s.open_sheet("p").unwrap();
            let before = fsyncs(&ws);
            std::thread::scope(|scope| {
                for w in 0..8u32 {
                    let s = s.clone();
                    scope.spawn(move || {
                        for window in 0..25u32 {
                            let mut last = 0;
                            for k in 0..4u32 {
                                let row = window * 4 + k;
                                let input = (w * 1000 + row).to_string();
                                last = s.stage_edit("p", set(row, w, &input)).unwrap().ticket;
                            }
                            s.await_commit("p", last).unwrap();
                        }
                    });
                }
            });
            let spent = fsyncs(&ws) - before;
            assert!(spent <= 200, "{spent} fsyncs for 800 ops");
        }
        let ws = Workspace::open(&dir).unwrap();
        let s = ws.session();
        s.open_sheet("p").unwrap();
        for w in 0..8u32 {
            for row in 0..100u32 {
                assert_eq!(
                    s.value("p", CellAddr::new(row, w)).unwrap(),
                    CellValue::Number((w * 1000 + row) as f64),
                    "edit ({row}, {w}) must recover"
                );
            }
        }
        drop(ws);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sheets_are_independent() {
        let ws = Workspace::in_memory();
        let s = ws.session();
        s.open_sheet("a").unwrap();
        s.open_sheet("b").unwrap();
        s.apply_edit("a", set(0, 0, "1")).unwrap();
        s.apply_edit("b", set(0, 0, "2")).unwrap();
        assert_eq!(
            s.value("a", CellAddr::new(0, 0)).unwrap(),
            CellValue::Number(1.0)
        );
        assert_eq!(
            s.value("b", CellAddr::new(0, 0)).unwrap(),
            CellValue::Number(2.0)
        );
        assert_eq!(ws.sheet_names(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn import_rows_commits_and_serves_windows() {
        let dir = temp_dir("import");
        for ws in [Workspace::open(&dir).unwrap(), Workspace::in_memory()] {
            let s = ws.session();
            s.open_sheet("data").unwrap();
            let rect = s
                .import_rows(
                    "data",
                    CellAddr::new(2, 1),
                    3,
                    (0..4)
                        .map(|r| {
                            (0..3)
                                .map(|c| CellValue::Number((r * 3 + c) as f64))
                                .collect()
                        })
                        .collect(),
                )
                .unwrap();
            assert_eq!(rect, Rect::new(2, 1, 5, 3));
            let window = s.fetch_window("data", rect).unwrap();
            assert_eq!(window.filled_count(), 12);
            let imported: Vec<_> = rect
                .iter()
                .zip(0..)
                .map(|(addr, i)| (addr, dataspread_grid::Cell::value(f64::from(i))))
                .collect();
            assert_eq!(window.cells(), imported, "the window holds the import");
            let stats = s.stats("data").unwrap();
            assert_eq!(stats.regions, 1);
            let shard = s.shard("data").unwrap();
            let resident = s.read_engine(&shard).storage().resident_bytes();
            assert!(resident > 0);
            assert_eq!(
                stats.resident_bytes, resident,
                "stats must carry the resident total (persistent: {})",
                stats.persistent
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_snapshot_captures_session_and_wal_activity() {
        let dir = temp_dir("metrics-snapshot");
        let ws = Workspace::open(&dir).unwrap();
        let s = ws.session();
        s.open_sheet("m").unwrap();
        for i in 0..4u32 {
            s.apply_edit("m", set(i, 0, "1")).unwrap();
        }
        s.fetch_window("m", Rect::new(0, 0, 3, 3)).unwrap();
        let snap = s.metrics();
        assert_eq!(
            snap.counter("session_ops{op=\"apply_edit\"}").unwrap(),
            4,
            "the op counter is exact"
        );
        let apply = snap.histogram("session_op_ns{op=\"apply_edit\"}").unwrap();
        assert_eq!(
            apply.count(),
            1,
            "hot ops sample latency 1-in-128, first op always"
        );
        assert!(apply.p99() > 0);
        assert_eq!(snap.counter("session_ops{op=\"fetch_window\"}").unwrap(), 1);
        assert_eq!(
            snap.histogram("session_op_ns{op=\"fetch_window\"}")
                .unwrap()
                .count(),
            1,
            "fetch_window times every call"
        );
        assert!(snap.counter("wal_fsyncs{sheet=\"m\"}").unwrap() > 0);
        assert!(
            snap.histogram("wal_fsync_ns{sheet=\"m\"}").unwrap().count() > 0,
            "fsync latency must be sampled"
        );
        assert!(snap.counter("wal_appends{sheet=\"m\"}").unwrap() >= 4);
        assert_eq!(
            snap.sheet_health("m").unwrap().health,
            Health::Healthy,
            "healthy sheet reports healthy"
        );
        let st = s.stats("m").unwrap();
        assert!(st.persistent);
        assert_eq!(st.health, Health::Healthy);
        assert!(st.degraded_cause.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_are_a_view_of_the_metrics_snapshot() {
        let dir = temp_dir("stats-view");
        let ws = Workspace::open(&dir).unwrap();
        let s = ws.session();
        s.open_sheet("v").unwrap();
        let rows = (0..6)
            .map(|r| {
                (0..3)
                    .map(|c| CellValue::Number(f64::from(r * 3 + c)))
                    .collect()
            })
            .collect();
        s.import_rows("v", CellAddr::new(0, 0), 3, rows).unwrap();
        s.apply_edit("v", set(10, 5, "=SUM(A1:C6)")).unwrap();
        s.checkpoint("v")
            .unwrap()
            .expect("durable sheets checkpoint");
        s.apply_edit("v", set(11, 5, "x")).unwrap();

        let st = s.stats("v").unwrap();
        let shard = s.shard("v").unwrap();
        let engine = s.read_engine(&shard);
        let storage = engine.storage();
        let p = engine.persistence_stats().unwrap();
        assert!(st.persistent);
        assert_eq!(st.filled_cells, storage.filled_count());
        assert_eq!(st.regions, storage.region_count() as u64);
        assert_eq!(st.resident_bytes, storage.resident_bytes());
        assert_eq!(st.wal_bytes, p.wal_bytes);
        assert_eq!(st.ops_since_checkpoint, p.ops_since_checkpoint);
        assert_eq!(st.image_pages, p.image_pages);
        assert_eq!(st.image_regions, p.image_regions);
        assert_eq!(st.pager_pages_read, p.pages_read);
        assert_eq!(st.pager_pages_written, p.pages_written);
        assert_eq!(
            st.checkpoints, 1,
            "the recovery checkpoint at open is not counted"
        );
        assert_eq!(st.health, Health::Healthy);
        assert!(st.regions > 0 && st.ops_since_checkpoint > 0 && st.image_pages > 0);
        drop(engine);

        let mem = Workspace::in_memory().session();
        mem.open_sheet("v").unwrap();
        mem.apply_edit("v", set(0, 0, "1")).unwrap();
        let st = mem.stats("v").unwrap();
        assert!(!st.persistent);
        assert_eq!((st.filled_cells, st.wal_bytes, st.checkpoints), (1, 0, 0));
        assert!(matches!(
            mem.stats("nope"),
            Err(WorkspaceError::NoSuchSheet(_))
        ));
        drop(ws);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_storage_failure_inside_checkpoint_degrades_the_sheet_at_once() {
        use dataspread_sim::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};
        let dir = temp_dir("checkpoint-degrade");
        let plan = FaultPlan::new();
        let ws = Workspace::open_with(
            &dir,
            WorkspaceConfig {
                storage_fs: Some(FaultFs::new(Arc::clone(&plan))),
                ..Default::default()
            },
        )
        .unwrap();
        let s = ws.session();
        s.open_sheet("d").unwrap();
        s.apply_edit("d", set(0, 0, "1")).unwrap();
        plan.push(
            FaultRule::new(FaultOp::Sync, 0, FaultKind::Io)
                .sticky()
                .on_path("wal"),
        );
        let degraded = |s: &Session| {
            s.metrics()
                .events
                .iter()
                .filter(|e| e.kind == "degraded" && e.sheet == "d")
                .count()
        };
        let err = s.checkpoint("d").unwrap_err();
        assert_eq!(err.code(), codes::STORAGE_FAILED, "got {err:?}");
        assert_eq!(degraded(&s), 1, "the failing checkpoint notes the degrade");
        let err = s.apply_edit("d", set(1, 0, "2")).unwrap_err();
        assert!(matches!(err, WorkspaceError::Degraded(_)), "got {err:?}");
        assert_eq!(degraded(&s), 1, "one transition, one event");
        drop(ws);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hot_ops_sample_latency_one_in_128() {
        let ws = Workspace::in_memory();
        let s = ws.session();
        s.open_sheet("h").unwrap();
        for i in 0..257u32 {
            s.apply_edit("h", set(i, 0, "1")).unwrap();
            s.stage_edit("h", set(i, 1, "2")).unwrap();
        }
        let snap = s.metrics();
        for op in ["apply_edit", "stage_edit"] {
            let key = format!("{{op=\"{op}\"}}");
            assert_eq!(
                snap.counter(&format!("session_ops{key}")),
                Some(257),
                "{op}: the op counter is exact"
            );
            assert_eq!(
                snap.histogram(&format!("session_op_ns{key}"))
                    .unwrap()
                    .count(),
                3,
                "{op}: ops 1, 129 and 257 are timed"
            );
        }
    }

    #[test]
    fn region_gauges_are_one_series_per_layout() {
        let ws = Workspace::in_memory();
        let s = ws.session();
        s.open_sheet("g").unwrap();
        let rows = (0..8)
            .map(|r| {
                (0..4)
                    .map(|c| CellValue::Number((r * 4 + c) as f64))
                    .collect()
            })
            .collect();
        s.import_rows("g", CellAddr::new(10, 0), 4, rows).unwrap();
        let series = |snap: &RegistrySnapshot| -> Vec<(String, i64)> {
            snap.gauges
                .iter()
                .filter(|(k, _)| k.starts_with("region_resident_bytes{"))
                .cloned()
                .collect()
        };
        let first = series(&s.metrics());
        for _ in 0..3 {
            s.apply_edit("g", Edit::InsertRows { at: 0, n: 1 }).unwrap();
            assert_eq!(
                series(&s.metrics()),
                first,
                "moving a region must not mint a new series"
            );
        }
        let kinds: Vec<&str> = first
            .iter()
            .map(|(k, _)| {
                k.strip_prefix("region_resident_bytes{kind=\"")
                    .and_then(|k| k.strip_suffix("\",sheet=\"g\"}"))
                    .unwrap()
            })
            .collect();
        assert_eq!(kinds, ["COL", "COM", "RCV", "ROM", "TOM"]);
        for (key, bytes) in &first {
            if key.contains("ROM") {
                assert!(*bytes > 0, "the imported block is resident");
            } else {
                assert_eq!(*bytes, 0, "{key}: no region of that layout");
            }
        }
    }

    #[test]
    fn slow_ops_land_in_the_event_ring() {
        let dir = temp_dir("slow-ops");
        let ws = Workspace::open_with(
            &dir,
            WorkspaceConfig {
                slow_op_ns: Some(0), // every op is "slow"
                ..Default::default()
            },
        )
        .unwrap();
        let s = ws.session();
        s.open_sheet("r").unwrap();
        s.apply_edit("r", set(0, 0, "1")).unwrap();
        let snap = s.metrics();
        assert!(
            snap.events
                .iter()
                .any(|e| e.kind == "slow_op" && e.sheet == "r" && e.op == "apply_edit"),
            "threshold 0 must ring-buffer the op: {:?}",
            snap.events
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_codes_are_distinct_and_pinned() {
        // The literals are wire contract: a client branches on them.
        let pinned: Vec<(WorkspaceError, u16, &str)> = vec![
            (WorkspaceError::NoSuchSheet("ledger".into()), 1, "ledger"),
            (WorkspaceError::BadSheetName("a/b".into()), 2, "a/b"),
            (
                WorkspaceError::Busy("32 in flight".into()),
                3,
                "32 in flight",
            ),
            (
                WorkspaceError::Degraded("fsync: EIO".into()),
                6,
                "fsync: EIO",
            ),
            (WorkspaceError::StorageFailed("ENOSPC".into()), 7, "ENOSPC"),
            (
                WorkspaceError::Engine(EngineError::Unsupported("structural edit".into())),
                0x101,
                "structural edit",
            ),
            (
                WorkspaceError::Engine(EngineError::BadLink("overlap".into())),
                0x102,
                "overlap",
            ),
            (
                WorkspaceError::Store(StoreError::NoSuchTable("t".into())),
                0x200,
                "t",
            ),
            (WorkspaceError::Store(StoreError::BadTupleId), 0x203, ""),
            (
                WorkspaceError::Store(StoreError::Corrupt("torn".into())),
                0x205,
                "torn",
            ),
            (
                WorkspaceError::Store(StoreError::Io("disk full".into())),
                0x208,
                "disk full",
            ),
            (
                WorkspaceError::Store(StoreError::StorageFailed("fsync: EIO".into())),
                0x209,
                "fsync: EIO",
            ),
        ];
        for (e, code, detail) in &pinned {
            assert_eq!(e.to_wire(), WireError::new(*code, *detail), "{e:?}");
        }
        let mut codes: Vec<u16> = pinned.iter().map(|(e, ..)| e.to_wire().code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(
            codes.len(),
            pinned.len(),
            "distinct variants get distinct codes"
        );
    }

    #[test]
    fn parser_level_errors_keep_their_code_class() {
        // A formula parse error crosses the wire as its code and message
        // only; the code must still say "engine-level, formula".
        let ws = Workspace::in_memory();
        let s = ws.session();
        s.open_sheet("f").unwrap();
        let err = s.apply_edit("f", set(0, 0, "=SUM((")).unwrap_err();
        assert!(matches!(
            err,
            WorkspaceError::Engine(EngineError::Formula(_))
        ));
        let wire = err.to_wire();
        assert_eq!(wire.code, dataspread_proto::codes::ENGINE_FORMULA);
        assert_eq!(wire.code & 0xff00, 0x0100, "engine-level class");
        assert!(!wire.detail.is_empty());
    }

    #[test]
    fn failed_open_unlinks_the_slot_for_retry() {
        let dir = temp_dir("failed-open");
        let ws = Workspace::open(&dir).unwrap();
        let s = ws.session();
        // Make the sheet's directory path unusable: a *file* where the
        // sheet directory must go.
        std::fs::write(dir.join("jam"), b"not a directory").unwrap();
        assert!(s.open_sheet("jam").is_err());
        assert!(
            ws.sheet_names().is_empty(),
            "failed open must not leave a slot behind"
        );
        // Clearing the obstruction lets a retry succeed.
        std::fs::remove_file(dir.join("jam")).unwrap();
        s.open_sheet("jam").unwrap();
        s.apply_edit("jam", set(0, 0, "1")).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slow_recovery_does_not_stall_other_sheets() {
        let dir = temp_dir("slow-open");
        let stall = Duration::from_millis(400);
        let ws = Workspace::open_with(&dir, StallingFs::config(&dir, "glacier", stall)).unwrap();
        let slow = ws.session();
        let fast = ws.session();
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            let slow_done = scope.spawn(move || {
                slow.open_sheet("glacier").unwrap();
                Instant::now()
            });
            // Give the slow opener time to publish its placeholder and
            // enter recovery.
            std::thread::sleep(Duration::from_millis(50));
            let fast_done = scope.spawn(move || {
                let mut max_op = Duration::ZERO;
                for i in 0..20u32 {
                    let t = Instant::now();
                    fast.open_sheet("quick").unwrap();
                    fast.apply_edit("quick", set(i, 0, "1")).unwrap();
                    max_op = max_op.max(t.elapsed());
                }
                (Instant::now(), max_op)
            });
            let (fast_end, max_op) = fast_done.join().unwrap();
            let slow_end = slow_done.join().unwrap();
            assert!(
                fast_end < slow_end,
                "operations on another sheet finished before the stalled recovery"
            );
            assert!(
                max_op < stall / 4,
                "no single op on another sheet may wait out the recovery \
                 (max {max_op:?} vs stall {stall:?})"
            );
        });
        assert!(t0.elapsed() >= stall, "the stall hook must have engaged");
        // The stalled sheet is fully usable afterwards.
        let s = ws.session();
        s.apply_edit("glacier", set(0, 0, "5")).unwrap();
        assert_eq!(
            s.value("glacier", CellAddr::new(0, 0)).unwrap(),
            CellValue::Number(5.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_opens_of_a_stalled_sheet_share_one_shard() {
        let dir = temp_dir("shared-open");
        let stall = Duration::from_millis(150);
        let ws = Workspace::open_with(&dir, StallingFs::config(&dir, "shared", stall)).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = ws.session();
                scope.spawn(move || {
                    s.open_sheet("shared").unwrap();
                    s.apply_edit("shared", set(0, 0, "1")).unwrap();
                });
            }
        });
        let s = ws.session();
        assert_eq!(
            s.value("shared", CellAddr::new(0, 0)).unwrap(),
            CellValue::Number(1.0)
        );
        assert_eq!(ws.sheet_names(), vec!["shared".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
