//! `SheetEngine`: the full DataSpread stack over one sheet (paper Figure
//! 12) — storage (hybrid translators), execution (formula parsing,
//! dependency graph, evaluator), and the spreadsheet- and
//! database-oriented operations of §III.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::RwLock;

use dataspread_formula::ast::Expr;
use dataspread_formula::batch::{batch_eval_sliding, detect_sliding, SlidingSpec};
use dataspread_formula::refs::{collect_ranges, rewrite, Shift};
use dataspread_formula::{parse, DependencyGraph, Evaluator, WavePlan};
use dataspread_grid::value::CellError;
use dataspread_grid::{codec, Cell, CellAddr, CellValue, Rect, SparseSheet};
use dataspread_hybrid::{
    incremental_agg, optimize_agg, optimize_dp, optimize_greedy, CostModel, Decomposition,
    GridView, IncrementalOptions, OptimizerOptions,
};
use dataspread_rel::{execute_sql, Relation};
use dataspread_relstore::{ColumnDef, DataType, Database, Datum, Schema, StorageFs};

use crate::durable::{CheckpointReport, DurableStore, LoggedOp, PersistenceStats};
use crate::error::EngineError;
use crate::hybrid::{HybridSheet, StorageReader};
use crate::rom::RomTranslator;
use crate::tom::TomTranslator;
use crate::translator::value_to_datum;

/// Which hybrid optimizer to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizeAlgorithm {
    /// Optimal recursive-decomposition DP (slow, exact).
    Dp,
    /// Greedy (fastest).
    Greedy,
    /// Aggressive greedy (the paper's sweet spot).
    Agg,
    /// Incremental aggressive greedy with migration factor η.
    IncrementalAgg { eta: f64 },
}

/// Result of a storage re-optimization.
#[derive(Debug, Clone)]
pub struct OptimizeReport {
    pub decomposition: Decomposition,
    /// Cells actually moved: those written into the stores
    /// [`HybridSheet::reorganize`] rebuilt. A region the decomposition
    /// lists unchanged is kept as it is and contributes none, so
    /// re-optimizing a sheet already in its chosen layout reports 0.
    pub migrated_cells: u64,
    pub storage_before: u64,
    pub storage_after: u64,
}

/// A registered formula: the parsed AST, the user's source text exactly as
/// entered (never re-serialized back from the AST), and the fill-down
/// shape detected once at registration so recomputation can batch runs of
/// the same formula filled to different cells.
struct FormulaInfo {
    expr: Expr,
    /// Verbatim source text (without the leading `=`).
    source: String,
    /// The vectorizable sliding-aggregate shape, when the formula is one.
    sliding: Option<SlidingSpec>,
}

/// A spreadsheet with database-backed storage.
pub struct SheetEngine {
    sheet: HybridSheet,
    db: Arc<RwLock<Database>>,
    deps: DependencyGraph,
    parsed: HashMap<CellAddr, FormulaInfo>,
    composites: HashMap<CellAddr, Relation>,
    evaluator: Evaluator,
    /// WAL + paged image; `None` for an in-memory engine.
    durable: Option<DurableStore>,
    /// Cells recomputed since the engine was created (includes cells
    /// marked `#CIRC!`); lets tests and benches observe recompute scope.
    cells_recomputed: u64,
    /// Force the sequential per-cell recompute path, the reference the
    /// wave pipeline is checked against (`tests/recompute_par.rs`).
    scalar_recompute: bool,
    /// Metric handles, when the owner attached a registry.
    obs: Option<crate::obs::EngineObs>,
}

impl Default for SheetEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Minimum members in one fill-down run before the vectorized sweep is
/// used instead of per-cell evaluation. A narrower wave skips grouping:
/// chains degenerate into thousands of single-cell waves.
const BATCH_MIN: usize = 16;

impl SheetEngine {
    pub fn new() -> Self {
        SheetEngine {
            sheet: HybridSheet::new(),
            db: Arc::new(RwLock::new(Database::new())),
            deps: DependencyGraph::new(),
            parsed: HashMap::new(),
            composites: HashMap::new(),
            evaluator: Evaluator::new(),
            durable: None,
            cells_recomputed: 0,
            scalar_recompute: false,
            obs: None,
        }
    }

    /// Attach metric handles (checkpoint, recompute-wave, eval-split
    /// counters); every later operation records through them. Idempotent
    /// (last attach wins).
    pub fn set_obs(&mut self, obs: crate::obs::EngineObs) {
        self.obs = Some(obs);
    }

    /// The permanent storage-failure record with its first-observed
    /// timestamp (ms since the Unix epoch); `None` for healthy or
    /// in-memory engines.
    pub fn storage_failed_info(&self) -> Option<(String, u64)> {
        self.durable.as_ref().and_then(|s| s.storage_failed_info())
    }

    /// Cells recomputed since this engine was created (including cells
    /// marked `#CIRC!`).
    pub fn cells_recomputed(&self) -> u64 {
        self.cells_recomputed
    }

    /// Force the sequential per-cell recompute path, the differential
    /// oracle for the wave pipeline.
    #[doc(hidden)]
    pub fn set_scalar_recompute(&mut self, on: bool) {
        self.scalar_recompute = on;
    }

    // ------------------------------------------------------ persistence --

    /// Open (or create) a durable sheet stored in directory `dir`.
    ///
    /// Recovery runs first: an interrupted checkpoint is rolled back, the
    /// checkpoint image is loaded (CRC-verified), and every committed
    /// logical op in the WAL is replayed; the recovered state is then
    /// checkpointed so the image is current and the WAL starts empty.
    /// Subsequent `update_cell` / insert / delete row-col ops are logged
    /// automatically; [`SheetEngine::save`] is the fsync-point and
    /// [`SheetEngine::checkpoint`] folds the log into the image.
    pub fn open(dir: impl AsRef<Path>) -> Result<SheetEngine, EngineError> {
        Self::open_on(dataspread_relstore::real_fs(), dir)
    }

    /// [`SheetEngine::open`] with every file op routed through `fs` — the
    /// hook fault-injection tests use to script storage failures.
    pub fn open_on(
        fs: Arc<dyn StorageFs>,
        dir: impl AsRef<Path>,
    ) -> Result<SheetEngine, EngineError> {
        let (store, recovered) = DurableStore::open_on(fs, dir)?;
        let mut engine = Self::new();
        // 1. Rebuild the region layout from the image: each payload is
        //    visited straight into its region's builder (batched, so the
        //    routing index builds once for the whole image), then the
        //    catch-all likewise.
        let mut formulas = engine.sheet.restore_regions(
            recovered
                .regions
                .into_iter()
                .map(|r| (r.id, r.kind, r.rect, r.payload)),
        )?;
        if let Some(payload) = &recovered.catchall {
            formulas.extend(engine.sheet.restore_catchall(payload)?);
        }
        // 2. Re-register the formulas met on the way so later edits
        //    recompute dependents; the stored values are already the
        //    computed ones, so no recompute.
        for (addr, src) in formulas {
            if let Ok(expr) = parse(&src) {
                engine.register_formula(addr, expr, src);
            }
        }
        // 3. The restored state matches the image byte-for-byte (a fresh
        //    store has no image and stays all-dirty).
        if recovered.has_image {
            engine.sheet.clear_dirty();
        }
        // 4. Replay the committed op tail through the normal op paths
        //    (each op marks the regions it touches dirty again).
        for op in recovered.ops {
            engine.apply_logged(op)?;
        }
        // 5. Fold the replayed state into the image and reset the WAL.
        engine.durable = Some(store);
        engine.checkpoint()?;
        Ok(engine)
    }

    /// The permanent storage-failure state of the underlying store:
    /// `Some(cause)` once an fsync failed or a checkpoint died mid-write.
    /// In-memory engines (and healthy stores) return `None`. A failed
    /// engine keeps serving reads from memory but refuses durable
    /// mutations; reopening the directory is the only recovery.
    pub fn storage_failed(&self) -> Option<String> {
        self.durable.as_ref().and_then(|s| s.storage_failed())
    }

    /// The restart-reconciliation pair `(incarnation, horizon)` of the
    /// backing store, `(0, 0)` for in-memory engines. See
    /// [`DurableStore::recovery_horizon`].
    pub fn recovery_horizon(&self) -> (u64, u64) {
        self.durable
            .as_ref()
            .map_or((0, 0), DurableStore::recovery_horizon)
    }

    /// The fsync-point: force every logged op to stable storage. The WAL
    /// write happens inside each op; this makes those writes crash-proof.
    /// No-op for in-memory engines.
    pub fn save(&mut self) -> Result<(), EngineError> {
        match self.durable.as_mut() {
            Some(store) => store.sync(),
            None => Ok(()),
        }
    }

    /// Fold the regions touched since the last checkpoint into the paged
    /// image and truncate the WAL. Clean regions are neither re-serialized
    /// nor rewritten — a single-cell edit checkpoints in O(dirty regions),
    /// not O(sheet). Returns `None` for in-memory engines.
    pub fn checkpoint(&mut self) -> Result<Option<CheckpointReport>, EngineError> {
        if self.durable.is_none() {
            return Ok(None);
        }
        let images = self.sheet.region_images();
        let store = self.durable.as_mut().expect("checked above");
        let t0 = Instant::now();
        let report = match store.checkpoint(images) {
            Ok(report) => report,
            Err(e) => {
                // The undo journal rolls the torn image back at the next
                // open; record the rollback for operators.
                if let Some(obs) = &self.obs {
                    obs.note_checkpoint_rollback(&e.to_string());
                }
                return Err(e);
            }
        };
        if let Some(obs) = &self.obs {
            obs.checkpoint_ns.record_ns(t0.elapsed().as_nanos() as u64);
            obs.checkpoint_pages.add(report.pages_written);
        }
        self.sheet.clear_dirty();
        Ok(Some(report))
    }

    /// Persistence counters (WAL size, image pages read and written);
    /// `None` for in-memory engines.
    pub fn persistence_stats(&self) -> Option<PersistenceStats> {
        self.durable.as_ref().map(DurableStore::stats)
    }

    /// Shared handle to this engine's WAL for group commit (`None` for
    /// in-memory engines). Sessions commit their op's ticket through it
    /// after releasing the engine, so one fsync covers every op logged
    /// before it instead of one fsync per op.
    pub fn commit_wal(&self) -> Option<std::sync::Arc<dataspread_relstore::SharedWal>> {
        self.durable.as_ref().map(DurableStore::commit_wal)
    }

    /// Commit ticket of the most recently logged op (0 when nothing was
    /// logged or the engine is in-memory). The op is crash-durable once
    /// `SharedWal::commit(ticket)` returns — the decoupling that lets
    /// commit acknowledgement trail logging.
    pub fn last_commit_ticket(&self) -> u64 {
        self.durable.as_ref().map_or(0, DurableStore::last_ticket)
    }

    /// Append `op` to the WAL (when durable).
    fn log_op(&mut self, op: LoggedOp) -> Result<(), EngineError> {
        match self.durable.as_mut() {
            Some(store) => store.log(&op),
            None => Ok(()),
        }
    }

    /// Replay one recovered op through the normal op paths, before the
    /// store is attached: nothing is logged again.
    fn apply_logged(&mut self, op: LoggedOp) -> Result<(), EngineError> {
        match op {
            LoggedOp::SetCell { row, col, input } => {
                self.update_cell_impl(CellAddr::new(row, col), &input)
            }
            LoggedOp::SetValue { row, col, value } => {
                self.set_value_impl(CellAddr::new(row, col), value)
            }
            LoggedOp::Shift(shift) => self.shift_impl(shift),
            LoggedOp::ImportRows {
                row,
                col,
                width,
                rows,
                block,
            } => self
                .import_block(CellAddr::new(row, col), width, rows, block)
                .map(|_| ()),
        }
    }

    /// Handle to the backing database (for SQL clients and tests).
    pub fn database(&self) -> Arc<RwLock<Database>> {
        Arc::clone(&self.db)
    }

    /// Direct access to the hybrid storage layer.
    pub fn storage(&self) -> &HybridSheet {
        &self.sheet
    }

    pub fn storage_mut(&mut self) -> &mut HybridSheet {
        &mut self.sheet
    }

    // ------------------------------------------ spreadsheet operations --

    /// `getCells(range)`.
    pub fn get_cells(&self, rect: Rect) -> Vec<(CellAddr, Cell)> {
        self.sheet.get_cells(rect)
    }

    /// A single cell's computed value.
    pub fn value(&self, addr: CellAddr) -> CellValue {
        self.sheet
            .get_cell(addr)
            .map(|c| c.value)
            .unwrap_or(CellValue::Empty)
    }

    /// `updateCell(row, column, value)`: interprets `input` the way a
    /// spreadsheet UI does — `=…` is a formula, numeric text is a number,
    /// TRUE/FALSE are booleans, an empty string clears the cell.
    ///
    /// On a durable engine the op is appended to the WAL after it applies.
    pub fn update_cell(&mut self, addr: CellAddr, input: &str) -> Result<(), EngineError> {
        self.update_cell_impl(addr, input)?;
        self.log_op(LoggedOp::SetCell {
            row: addr.row,
            col: addr.col,
            input: input.to_string(),
        })
    }

    fn update_cell_impl(&mut self, addr: CellAddr, input: &str) -> Result<(), EngineError> {
        if let Some(src) = input.strip_prefix('=') {
            let expr = parse(src)?;
            self.register_formula(addr, expr, src.to_string());
            self.sheet.set_cell(addr, Cell::formula(src))?;
            self.recompute(&[addr])?;
            return Ok(());
        }
        // Literal input: drop any previous formula.
        if self.parsed.remove(&addr).is_some() {
            self.deps.remove(addr);
        }
        let trimmed = input.trim();
        if trimmed.is_empty() {
            self.sheet.clear_cell(addr)?;
        } else {
            let value = parse_literal(trimmed);
            self.sheet.set_cell(addr, Cell::value(value))?;
        }
        self.recompute(&[addr])?;
        Ok(())
    }

    /// [`SheetEngine::update_cell`] with an A1 address.
    pub fn update_cell_a1(&mut self, a1: &str, input: &str) -> Result<(), EngineError> {
        self.update_cell(CellAddr::parse_a1(a1)?, input)
    }

    /// `insertRowAfter(row)`: inserts `n` rows so the first new row sits at
    /// index `at`. Logged to the WAL on durable engines (as are the other
    /// three structural edits below).
    pub fn insert_rows(&mut self, at: u32, n: u32) -> Result<(), EngineError> {
        self.shift(Shift::InsertRows { at, n })
    }

    pub fn delete_rows(&mut self, at: u32, n: u32) -> Result<(), EngineError> {
        self.shift(Shift::DeleteRows { at, n })
    }

    pub fn insert_cols(&mut self, at: u32, n: u32) -> Result<(), EngineError> {
        self.shift(Shift::InsertCols { at, n })
    }

    pub fn delete_cols(&mut self, at: u32, n: u32) -> Result<(), EngineError> {
        self.shift(Shift::DeleteCols { at, n })
    }

    fn shift(&mut self, shift: Shift) -> Result<(), EngineError> {
        self.shift_impl(shift)?;
        self.log_op(LoggedOp::Shift(shift))
    }

    /// Live edits and WAL replay both pass here, so a delete's count is
    /// clamped once: it cannot reach past the last addressable row or
    /// column, and `at + n` below this point never overflows.
    fn shift_impl(&mut self, shift: Shift) -> Result<(), EngineError> {
        let shift = match shift {
            Shift::DeleteRows { at, n } => Shift::DeleteRows {
                at,
                n: n.min(u32::MAX - at),
            },
            Shift::DeleteCols { at, n } => Shift::DeleteCols {
                at,
                n: n.min(u32::MAX - at),
            },
            insert => insert,
        };
        match shift {
            Shift::InsertRows { at, n } => self.sheet.insert_rows(at, n)?,
            Shift::DeleteRows { at, n } => self.sheet.delete_rows(at, n)?,
            Shift::InsertCols { at, n } => self.sheet.insert_cols(at, n)?,
            Shift::DeleteCols { at, n } => self.sheet.delete_cols(at, n)?,
        }
        self.apply_shift(shift)
    }

    /// Write a concrete value (bypassing literal inference) and recompute
    /// dependents — the replay path for [`LoggedOp::SetValue`].
    fn set_value_impl(&mut self, addr: CellAddr, value: CellValue) -> Result<(), EngineError> {
        if self.parsed.remove(&addr).is_some() {
            self.deps.remove(addr);
        }
        self.sheet.set_cell(addr, Cell::value(value))?;
        self.recompute(&[addr])
    }

    /// Bulk-import rows of values starting at `top_left` as a dedicated ROM
    /// region (the VCF import path: O(N) bulk-loaded positional maps): the
    /// rows' cell block ([`codec::encode_block`]) through
    /// [`SheetEngine::import_block`], the one way an import is built.
    ///
    /// On a durable engine the whole import is one bulk WAL record —
    /// committed at the next [`SheetEngine::save`] like any other op and
    /// replayed from its cell block on recovery (no forced checkpoint).
    pub fn import_rows(
        &mut self,
        top_left: CellAddr,
        width: u32,
        rows: impl IntoIterator<Item = Vec<CellValue>>,
    ) -> Result<Rect, EngineError> {
        let rows: Vec<Vec<CellValue>> = rows.into_iter().collect();
        let block = codec::encode_block(width, &rows);
        // A count past `u32` is refused by `import_block`'s position cap.
        let n_rows = u32::try_from(rows.len()).unwrap_or(u32::MAX);
        // Freed before the build, whose tuples can then reuse the memory.
        drop(rows);
        self.import_block(top_left, width, n_rows, block)
    }

    /// [`SheetEngine::import_rows`] of a cell block `rows` rows tall
    /// ([`codec::encode_block`]), as the wire and the WAL carry it: the
    /// block is visited into the region, which is placed at `top_left`,
    /// then logged as it came. A bad block, an empty region, or one
    /// reaching off the sheet or onto a region is refused before anything
    /// is cleared.
    pub fn import_block(
        &mut self,
        top_left: CellAddr,
        width: u32,
        rows: u32,
        block: Vec<u8>,
    ) -> Result<Rect, EngineError> {
        let rom = RomTranslator::from_block(width, rows, &block)?;
        if width == 0 {
            return Err(EngineError::BadLink("import of zero columns".into()));
        }
        if rows == 0 {
            return Err(EngineError::BadLink("import of zero rows".into()));
        }
        let (Some(r2), Some(c2)) = (
            top_left.row.checked_add(rows - 1),
            top_left.col.checked_add(width - 1),
        ) else {
            return Err(EngineError::Unsupported(format!(
                "importing {rows}x{width} at ({}, {}) would reach past the last row or column",
                top_left.row, top_left.col
            )));
        };
        let rect = Rect::new(top_left.row, top_left.col, r2, c2);
        // Check overlap up front so a rejected import leaves the sheet
        // untouched, then clear whatever occupied the target rectangle —
        // an import *overwrites* the block it lands on (otherwise
        // `add_region` would absorb the old cells over the imported ones).
        if self.sheet.layout().iter().any(|(r, _)| r.intersects(&rect)) {
            return Err(EngineError::BadLink(format!(
                "import target {rect} overlaps an existing region"
            )));
        }
        self.clear_rect(rect)?;
        self.sheet.add_region(rect, Box::new(rom))?;
        self.recompute_readers_of(rect)?;
        let op = LoggedOp::ImportRows {
            row: top_left.row,
            col: top_left.col,
            width,
            rows,
            block,
        };
        match self.log_op(op) {
            // An import too large for one WAL record (the store refuses
            // it before touching the log) is captured by an immediate
            // checkpoint instead.
            Err(EngineError::Store(dataspread_relstore::StoreError::LimitExceeded(_))) => {
                self.checkpoint()?;
            }
            logged => logged?,
        }
        Ok(rect)
    }

    /// Blank every cell of `rect`: the addresses come off the scan, so no
    /// cell is cloned to be thrown away. Formula registrations under the
    /// block are dead too — left in place, the next edit or structural
    /// shift would resurrect the old formula cells over the new contents.
    fn clear_rect(&mut self, rect: Rect) -> Result<(), EngineError> {
        let mut filled = Vec::new();
        self.sheet
            .scan(rect, |row, col, _, _| filled.push(CellAddr::new(row, col)));
        for addr in filled {
            self.sheet.clear_cell(addr)?;
        }
        let doomed: Vec<CellAddr> = self
            .parsed
            .keys()
            .filter(|addr| rect.contains(**addr))
            .copied()
            .collect();
        for addr in doomed {
            self.parsed.remove(&addr);
            self.deps.remove(addr);
        }
        Ok(())
    }

    /// Recompute every formula reading a cell of `rect`, after a bulk
    /// operation replaced the block's contents without per-cell edits.
    fn recompute_readers_of(&mut self, rect: Rect) -> Result<(), EngineError> {
        let seeds: Vec<CellAddr> = self
            .deps
            .formulas()
            .filter(|(_, ranges)| ranges.iter().any(|r| r.intersects(&rect)))
            .map(|(addr, _)| addr)
            .collect();
        self.recompute(&seeds)
    }

    // --------------------------------------------- database operations --

    /// `linkTable(range, tableName)` (paper §III): if the table exists the
    /// region becomes a live view of it; otherwise the region's data (first
    /// row = column names) is turned into a new table and then linked.
    pub fn link_table(&mut self, rect: Rect, name: &str) -> Result<Rect, EngineError> {
        let exists = self.db.read().contains(name);
        if !exists {
            self.create_table_from_region(rect, name)?;
            // The region's cells now live in the table; remove them from
            // sheet storage.
            self.clear_rect(rect)?;
        }
        let (rows, cols) = {
            let db = self.db.read();
            let t = db.table(name)?;
            (t.row_count() as u32, t.schema().len() as u32)
        };
        let link_rect = Rect::new(
            rect.r1,
            rect.c1,
            rect.r1 + rows.max(1) - 1,
            rect.c1 + cols.max(1) - 1,
        );
        let tom = TomTranslator::new(Arc::clone(&self.db), name);
        self.sheet.add_region(link_rect, Box::new(tom))?;
        self.recompute_readers_of(rect.bbox_union(&link_rect))?;
        // Linked-table contents are captured as plain cells at checkpoint
        // time (the table link itself is not yet persisted; see README).
        self.checkpoint()?;
        Ok(link_rect)
    }

    fn create_table_from_region(&mut self, rect: Rect, name: &str) -> Result<(), EngineError> {
        let (headers, rows, cells) = headers_and_rows(&self.sheet, rect);
        if cells == 0 {
            return Err(EngineError::BadLink(format!(
                "region {rect} is empty; nothing to create"
            )));
        }
        let columns = headers
            .into_iter()
            .map(|h| ColumnDef::new(h, DataType::Any))
            .collect();
        let mut db = self.db.write();
        let table = db.create_table(name, Schema::new(columns))?;
        for row in &rows {
            table.insert(row)?;
        }
        Ok(())
    }

    /// The `sql(query, params…)` spreadsheet function.
    pub fn sql(&self, query: &str, params: &[Datum]) -> Result<Relation, EngineError> {
        Ok(execute_sql(&*self.db.read(), query, params)?)
    }

    /// Materialize a sheet range as a relation (first row = headers).
    pub fn range_to_relation(&self, rect: Rect) -> Relation {
        let (columns, rows, _) = headers_and_rows(&self.sheet, rect);
        Relation::new(columns, rows)
    }

    /// Store a composite table value at `addr` (what the relational
    /// spreadsheet functions return).
    pub fn place_composite(&mut self, addr: CellAddr, relation: Relation) {
        self.composites.insert(addr, relation);
    }

    pub fn composite(&self, addr: CellAddr) -> Option<&Relation> {
        self.composites.get(&addr)
    }

    /// The `index(cell, i, j)` function: dereference the composite value at
    /// `src` and place the `(i, j)` entry (1-based) at `dst`.
    pub fn index_composite(
        &mut self,
        src: CellAddr,
        i: usize,
        j: usize,
        dst: CellAddr,
    ) -> Result<(), EngineError> {
        let value = self
            .composites
            .get(&src)
            .and_then(|rel| rel.index(i, j))
            .cloned()
            .ok_or_else(|| {
                EngineError::BadLink(format!("no composite value entry ({i},{j}) at {src}"))
            })?;
        let cell_value = crate::translator::datum_to_value(&value);
        // Route through the SetValue replay path so live and recovered
        // engines behave identically (it also drops any stale formula
        // registration at dst).
        self.set_value_impl(dst, cell_value.clone())?;
        self.log_op(LoggedOp::SetValue {
            row: dst.row,
            col: dst.col,
            value: cell_value,
        })
    }

    // ------------------------------------------------------- optimizer --

    /// Run the hybrid optimizer over the current sheet and migrate storage
    /// to the chosen decomposition.
    pub fn optimize(
        &mut self,
        cm: &CostModel,
        algorithm: OptimizeAlgorithm,
        opts: &OptimizerOptions,
    ) -> Result<OptimizeReport, EngineError> {
        // Every algorithm reads occupancy only, and storage reports that
        // off its scan: no cell is cloned, no in-memory sheet built.
        let occupancy = self.sheet.occupancy(false);
        // Relation-width caps must survive band collapse (Theorem 8).
        let band_cap = cm.max_table_cols.map(|cap| (u32::MAX, cap as u32));
        let view = GridView::from_occupancy(&occupancy, &[], &[], band_cap);
        let decomposition = match algorithm {
            OptimizeAlgorithm::Dp => {
                optimize_dp(&view, cm, opts).map_err(|e| EngineError::Unsupported(e.to_string()))?
            }
            OptimizeAlgorithm::Greedy => optimize_greedy(&view, cm, opts),
            OptimizeAlgorithm::Agg => optimize_agg(&view, cm, opts),
            OptimizeAlgorithm::IncrementalAgg { eta } => {
                let old = Decomposition::new(
                    self.sheet
                        .layout()
                        .into_iter()
                        .filter(|(_, kind)| *kind != crate::ModelKind::Tom)
                        .map(|(rect, kind)| dataspread_hybrid::Region { rect, kind })
                        .collect(),
                );
                let (d, _) = incremental_agg(
                    &occupancy,
                    &old,
                    cm,
                    &IncrementalOptions {
                        eta,
                        base: opts.clone(),
                    },
                );
                d
            }
        };
        let storage_before = self.sheet.storage_bytes();
        let migrated_cells = self.sheet.reorganize(&decomposition)?;
        Ok(OptimizeReport {
            decomposition,
            migrated_cells,
            storage_before,
            storage_after: self.sheet.storage_bytes(),
        })
    }

    /// Migrate one region (index into `storage().layout()`) to a different
    /// physical model in place — e.g. a hot read-mostly ROM region to
    /// [`ModelKind::Columnar`]. Cell content is preserved exactly; like
    /// [`SheetEngine::optimize`], the new layout persists at the next
    /// checkpoint.
    pub fn migrate_region(
        &mut self,
        slot: usize,
        kind: crate::ModelKind,
    ) -> Result<(), EngineError> {
        self.sheet.migrate_region(slot, kind)
    }

    /// Accounted storage bytes.
    pub fn storage_bytes(&self) -> u64 {
        self.sheet.storage_bytes()
    }

    /// In-memory copy of the sheet (analysis, tests).
    pub fn snapshot(&self) -> SparseSheet {
        self.sheet.snapshot(true)
    }

    // -------------------------------------------------------- formulas --

    /// Register (or replace) a formula: dependency ranges, parsed AST, the
    /// verbatim source text, and the fill-down shape (detected once, here,
    /// so recomputation can batch runs without re-inspecting ASTs).
    fn register_formula(&mut self, addr: CellAddr, expr: Expr, source: String) {
        self.deps.set_formula(addr, collect_ranges(&expr));
        let sliding = detect_sliding(&expr, addr);
        self.parsed.insert(
            addr,
            FormulaInfo {
                expr,
                source,
                sliding,
            },
        );
    }

    /// Re-evaluate the given seeds' dependents: in topological waves, each
    /// evaluated in place on the calling thread with same-shape fill-down
    /// runs batch-evaluated. Output is identical to the sequential
    /// per-cell walk ([`SheetEngine::set_scalar_recompute`] retains that
    /// walk as the differential oracle).
    fn recompute(&mut self, seeds: &[CellAddr]) -> Result<(), EngineError> {
        if self.scalar_recompute {
            return self.recompute_scalar(seeds);
        }
        let plan = self.deps.recompute_waves(seeds);
        self.run_wave_plan(plan)
    }

    fn run_wave_plan(&mut self, plan: WavePlan) -> Result<(), EngineError> {
        let timed = self
            .obs
            .as_ref()
            .filter(|_| !plan.waves.is_empty())
            .map(|_| Instant::now());
        for wave in &plan.waves {
            if let Some(obs) = &self.obs {
                obs.waves.inc();
                obs.wave_width.record(wave.len() as u64);
            }
            self.eval_wave(wave)?;
        }
        if let (Some(obs), Some(t0)) = (&self.obs, timed) {
            obs.recompute_ns.record_ns(t0.elapsed().as_nanos() as u64);
        }
        for addr in plan.cyclic {
            self.write_computed(addr, CellValue::Error(CellError::Circular))?;
        }
        Ok(())
    }

    /// The retained sequential tree walk over the Kahn order.
    fn recompute_scalar(&mut self, seeds: &[CellAddr]) -> Result<(), EngineError> {
        let plan = self.deps.recompute_plan(seeds);
        if let Some(obs) = &self.obs {
            obs.scalar_evals.add(plan.order.len() as u64);
        }
        for addr in plan.order {
            let Some(info) = self.parsed.get(&addr) else {
                continue;
            };
            let value = {
                let reader = StorageReader(&self.sheet);
                self.evaluator.eval(&info.expr, &reader)
            };
            self.write_computed(addr, value)?;
        }
        for addr in plan.cyclic {
            self.write_computed(addr, CellValue::Error(CellError::Circular))?;
        }
        Ok(())
    }

    /// Recompute every registered formula (bulk loads, benches). The wave
    /// path plans with [`DependencyGraph::full_waves`]: when the affected
    /// set is the whole graph there is nothing to discover, so the
    /// per-cell spatial probes of the seeded planner are skipped entirely.
    pub fn recompute_all(&mut self) -> Result<(), EngineError> {
        if self.scalar_recompute {
            let seeds: Vec<CellAddr> = self.parsed.keys().copied().collect();
            return self.recompute_scalar(&seeds);
        }
        let plan = self.deps.full_waves();
        self.run_wave_plan(plan)
    }

    /// Evaluate one wave and write each member back in wave order, on the
    /// calling thread. Members of a wave never read each other (the wave
    /// invariant), so writing a member before evaluating the next cannot
    /// change a value. A wave of at least [`BATCH_MIN`] members first
    /// sweeps its fill-down runs: same sliding-aggregate shape, same
    /// column, one bulk fetch per run.
    fn eval_wave(&mut self, wave: &[CellAddr]) -> Result<(), EngineError> {
        // The swept values, by wave position.
        let mut batched: Vec<Option<CellValue>> = Vec::new();
        if wave.len() >= BATCH_MIN {
            batched.resize(wave.len(), None);
            let mut runs: HashMap<(SlidingSpec, u32), Vec<usize>> = HashMap::new();
            for (i, &addr) in wave.iter().enumerate() {
                if let Some(spec) = self.parsed.get(&addr).and_then(|info| info.sliding) {
                    runs.entry((spec, addr.col)).or_default().push(i);
                }
            }
            for ((spec, _), idxs) in runs {
                if idxs.len() < BATCH_MIN {
                    continue;
                }
                let members: Vec<CellAddr> = idxs.iter().map(|&i| wave[i]).collect();
                let reader = StorageReader(&self.sheet);
                // `None` (window off-sheet, union too large) leaves the run
                // to the per-cell walk below.
                if let Some(values) = batch_eval_sliding(spec, &members, &reader) {
                    for (&i, v) in idxs.iter().zip(values) {
                        batched[i] = Some(v);
                    }
                }
            }
        }
        let (mut batch, mut scalar) = (0u64, 0u64);
        for (i, &addr) in wave.iter().enumerate() {
            let value = match batched.get_mut(i).and_then(Option::take) {
                Some(value) => {
                    batch += 1;
                    value
                }
                None => {
                    let Some(info) = self.parsed.get(&addr) else {
                        continue;
                    };
                    scalar += 1;
                    self.evaluator.eval(&info.expr, &StorageReader(&self.sheet))
                }
            };
            self.write_computed(addr, value)?;
        }
        if let Some(obs) = &self.obs {
            obs.batch_evals.add(batch);
            obs.scalar_evals.add(scalar);
        }
        Ok(())
    }

    fn write_computed(&mut self, addr: CellAddr, value: CellValue) -> Result<(), EngineError> {
        // The registry owns the verbatim source text. Re-deriving it from
        // the stored cell cost a full-`Cell` clone per plan step, and
        // falling back to the re-serialized AST silently rewrote the
        // user's formula into canonical form.
        let formula = self.parsed.get(&addr).map(|info| info.source.clone());
        self.sheet.set_cell(addr, Cell { value, formula })?;
        self.cells_recomputed += 1;
        Ok(())
    }

    /// Rewrite formulas (and their registry addresses) for a structural
    /// edit, then recompute the formulas whose values can actually change.
    ///
    /// A formula's value survives a structural edit whenever its windows
    /// move rigidly with the data they read — only windows *intersecting
    /// the shift band* (a deleted band's cells disappear; an insertion
    /// strictly inside a range changes the range's geometry) and formulas
    /// whose references were destroyed can change value. Everything else
    /// keeps its stored value.
    fn apply_shift(&mut self, shift: Shift) -> Result<(), EngineError> {
        let mut entries: Vec<(CellAddr, FormulaInfo)> = self.parsed.drain().collect();
        self.deps = DependencyGraph::new();
        let mut seeds = Vec::new();
        for (addr, info) in entries.drain(..) {
            // The formula cell itself may have moved or died. Readers of a
            // dead formula's cell necessarily read the deleted band, so
            // they reseed through their own band intersection.
            let Some(new_addr) = shift.apply(addr) else {
                continue;
            };
            match rewrite(&info.expr, shift) {
                Some(new_expr) => {
                    let needs_recompute = collect_ranges(&info.expr).iter().any(|r| shift.hits(r));
                    let source = if new_expr == info.expr {
                        // Pure translation (or untouched): the sheet moved
                        // the cell with its verbatim text; keep it.
                        info.source
                    } else {
                        // The reference set genuinely changed shape; the
                        // stored text must be refreshed from the AST.
                        let source = new_expr.to_string();
                        let value = self
                            .sheet
                            .get_cell(new_addr)
                            .map(|c| c.value)
                            .unwrap_or(CellValue::Empty);
                        self.sheet.set_cell(
                            new_addr,
                            Cell {
                                value,
                                formula: Some(source.clone()),
                            },
                        )?;
                        source
                    };
                    self.register_formula(new_addr, new_expr, source);
                    if needs_recompute {
                        seeds.push(new_addr);
                    }
                }
                None => {
                    // A referenced cell was destroyed: #REF!. Seed the
                    // address so formulas reading *this* cell recompute
                    // against the error even when their own windows miss
                    // the band entirely.
                    self.sheet.set_cell(
                        new_addr,
                        Cell {
                            value: CellValue::Error(CellError::Ref),
                            formula: None,
                        },
                    )?;
                    seeds.push(new_addr);
                }
            }
        }
        self.recompute(&seeds)
    }
}

/// Read `rect` as header names (first row; a blank header is `colN`) and
/// data rows (a blank cell is `Datum::Null`), plus the number of cells
/// met, in one pass over the storage scan: each cell lands at its offset
/// within the rect, so no cell list is fetched or sorted.
fn headers_and_rows(sheet: &HybridSheet, rect: Rect) -> (Vec<String>, Vec<Vec<Datum>>, usize) {
    let width = (rect.c2 - rect.c1 + 1) as usize;
    let mut headers: Vec<String> = (1..=width).map(|i| format!("col{i}")).collect();
    let mut rows = vec![vec![Datum::Null; width]; (rect.r2 - rect.r1) as usize];
    let mut cells = 0;
    sheet.scan_stores(rect, true, &mut |row, col, value, _| {
        cells += 1;
        let c = (col - rect.c1) as usize;
        if row == rect.r1 {
            let text = value.to_value().as_text();
            if !text.is_empty() {
                headers[c] = text;
            }
        } else {
            rows[(row - rect.r1 - 1) as usize][c] = value_to_datum(&value.to_value());
        }
    });
    (headers, rows, cells)
}

/// Interpret user input the way a spreadsheet UI does.
fn parse_literal(s: &str) -> CellValue {
    if let Ok(n) = s.parse::<f64>() {
        return CellValue::Number(n);
    }
    match s.to_ascii_uppercase().as_str() {
        "TRUE" => CellValue::Bool(true),
        "FALSE" => CellValue::Bool(false),
        _ => CellValue::Text(s.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse_a1(s).unwrap()
    }

    #[test]
    fn figure7_example() {
        // The paper's running example: F2 = AVERAGE(B2:C2)+D2+E2 = 85.
        let mut e = SheetEngine::new();
        e.update_cell_a1("B2", "10").unwrap();
        e.update_cell_a1("C2", "20").unwrap();
        e.update_cell_a1("D2", "30").unwrap();
        e.update_cell_a1("E2", "40").unwrap();
        e.update_cell_a1("F2", "=AVERAGE(B2:C2)+D2+E2").unwrap();
        assert_eq!(e.value(a("F2")), CellValue::Number(85.0));
        // Editing a precedent triggers recomputation.
        e.update_cell_a1("B2", "30").unwrap();
        assert_eq!(e.value(a("F2")), CellValue::Number(95.0));
    }

    #[test]
    fn formula_chains_recompute_in_order() {
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "1").unwrap();
        e.update_cell_a1("B1", "=A1*2").unwrap();
        e.update_cell_a1("C1", "=B1*2").unwrap();
        e.update_cell_a1("D1", "=B1+C1").unwrap();
        assert_eq!(e.value(a("D1")), CellValue::Number(6.0));
        e.update_cell_a1("A1", "10").unwrap();
        assert_eq!(e.value(a("B1")), CellValue::Number(20.0));
        assert_eq!(e.value(a("C1")), CellValue::Number(40.0));
        assert_eq!(e.value(a("D1")), CellValue::Number(60.0));
    }

    #[test]
    fn cycles_marked_circular() {
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "=B1+1").unwrap();
        e.update_cell_a1("B1", "=A1+1").unwrap();
        assert_eq!(e.value(a("A1")), CellValue::Error(CellError::Circular));
        assert_eq!(e.value(a("B1")), CellValue::Error(CellError::Circular));
        // Breaking the cycle heals both.
        e.update_cell_a1("B1", "5").unwrap();
        assert_eq!(e.value(a("A1")), CellValue::Number(6.0));
    }

    #[test]
    fn literal_parsing() {
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "3.5").unwrap();
        e.update_cell_a1("A2", "true").unwrap();
        e.update_cell_a1("A3", "hello").unwrap();
        assert_eq!(e.value(a("A1")), CellValue::Number(3.5));
        assert_eq!(e.value(a("A2")), CellValue::Bool(true));
        assert_eq!(e.value(a("A3")), CellValue::Text("hello".into()));
        e.update_cell_a1("A3", "").unwrap();
        assert_eq!(e.value(a("A3")), CellValue::Empty);
    }

    #[test]
    fn insert_rows_shifts_formulas() {
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "1").unwrap();
        e.update_cell_a1("A2", "2").unwrap();
        e.update_cell_a1("A3", "=SUM(A1:A2)").unwrap();
        e.insert_rows(1, 2).unwrap(); // new rows at index 1 (above A2)
                                      // The formula moved to A5 and now sums A1:A4.
        let moved = e.sheet.get_cell(a("A5")).expect("formula moved");
        assert_eq!(moved.formula.as_deref(), Some("SUM(A1:A4)"));
        assert_eq!(e.value(a("A5")), CellValue::Number(3.0));
        // Filling a inserted row updates the (grown) range.
        e.update_cell_a1("A2", "10").unwrap();
        assert_eq!(e.value(a("A5")), CellValue::Number(13.0));
    }

    #[test]
    fn delete_rows_produces_ref_errors() {
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "1").unwrap();
        e.update_cell_a1("B2", "=A1").unwrap();
        e.delete_rows(0, 1).unwrap();
        // B2 moved to B1; its referenced cell died.
        assert_eq!(e.value(a("B1")), CellValue::Error(CellError::Ref));
    }

    #[test]
    fn recompute_never_rewrites_formula_source() {
        // The stored source must stay byte-for-byte what the user typed —
        // recomputation and structural edits that only translate a formula
        // must not re-serialize the AST into canonical form.
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "1").unwrap();
        e.update_cell_a1("A2", "2").unwrap();
        e.update_cell_a1("B1", "=sum( A1 : A2 )").unwrap();
        assert_eq!(e.value(a("B1")), CellValue::Number(3.0));
        fn stored(e: &SheetEngine) -> Option<String> {
            e.sheet.get_cell(CellAddr::parse_a1("B1").unwrap())?.formula
        }
        assert_eq!(stored(&e).as_deref(), Some("sum( A1 : A2 )"));
        // A precedent edit recomputes B1; the text must survive.
        e.update_cell_a1("A1", "10").unwrap();
        assert_eq!(e.value(a("B1")), CellValue::Number(12.0));
        assert_eq!(stored(&e).as_deref(), Some("sum( A1 : A2 )"));
        // A structural edit below every reference translates B1's AST to
        // itself — verbatim text must survive that too.
        e.insert_rows(5, 3).unwrap();
        assert_eq!(stored(&e).as_deref(), Some("sum( A1 : A2 )"));
        assert_eq!(e.value(a("B1")), CellValue::Number(12.0));
    }

    #[test]
    fn dependents_of_destroyed_cells_recompute() {
        // C1 reads B1 reads A5. Deleting row 5 destroys B1's reference;
        // B1 becomes #REF! and C1 — whose own range never touches the
        // deleted band — must still recompute against the new error.
        let mut e = SheetEngine::new();
        e.update_cell_a1("A5", "7").unwrap();
        e.update_cell_a1("B1", "=A5").unwrap();
        e.update_cell_a1("C1", "=B1+1").unwrap();
        assert_eq!(e.value(a("C1")), CellValue::Number(8.0));
        e.delete_rows(4, 1).unwrap();
        assert_eq!(e.value(a("B1")), CellValue::Error(CellError::Ref));
        assert_eq!(e.value(a("C1")), CellValue::Error(CellError::Ref));
    }

    #[test]
    fn shift_recomputes_only_band_intersecting_formulas() {
        // Formulas whose windows sit entirely above an edit keep their
        // values without re-evaluation; only band-intersecting ones rerun.
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "1").unwrap();
        e.update_cell_a1("A2", "2").unwrap();
        e.update_cell_a1("B1", "=SUM(A1:A2)").unwrap();
        e.update_cell_a1("A10", "5").unwrap();
        e.update_cell_a1("B10", "=A10*2").unwrap();
        e.update_cell_a1("C1", "=SUM(A1:A12)").unwrap();
        let before = e.cells_recomputed();
        // Insert inside C1's window but below B1's and above B10's.
        e.insert_rows(5, 2).unwrap();
        // Only C1 intersects the band: one re-evaluation.
        assert_eq!(e.cells_recomputed() - before, 1);
        assert_eq!(e.value(a("B1")), CellValue::Number(3.0));
        assert_eq!(e.value(a("B12")), CellValue::Number(10.0));
        assert_eq!(e.value(a("C1")), CellValue::Number(8.0));
    }

    #[test]
    fn link_table_creates_and_syncs() {
        let mut e = SheetEngine::new();
        // Header + two rows.
        e.update_cell_a1("A1", "id").unwrap();
        e.update_cell_a1("B1", "amount").unwrap();
        e.update_cell_a1("A2", "1").unwrap();
        e.update_cell_a1("B2", "100").unwrap();
        e.update_cell_a1("A3", "2").unwrap();
        e.update_cell_a1("B3", "250").unwrap();
        let rect = e
            .link_table(Rect::parse_a1("A1:B3").unwrap(), "inv")
            .unwrap();
        assert!(e.database().read().contains("inv"));
        // The linked region now reads through from the table.
        let cells = e.get_cells(rect);
        assert!(!cells.is_empty());
        // Editing through the sheet updates the table.
        let first_data = CellAddr::new(rect.r1, rect.c1 + 1);
        e.storage_mut()
            .set_cell(first_data, Cell::value(999i64))
            .unwrap();
        let r = e
            .sql("SELECT amount FROM inv ORDER BY amount DESC LIMIT 1", &[])
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Float(999.0));
    }

    #[test]
    fn link_table_drops_the_formulas_it_clears() {
        let mut e = SheetEngine::new();
        for (addr, input) in [
            ("A1", "h1"),
            ("B1", "h2"),
            ("A2", "1"),
            ("B2", "2"),
            ("A3", "3"),
            ("B3", "=A3*2"),
            ("D1", "=SUM(A3:B3)"),
        ] {
            e.update_cell_a1(addr, input).unwrap();
        }
        assert_eq!(e.value(a("D1")), CellValue::Number(9.0));
        let linked = e.link_table(Rect::parse_a1("A1:B3").unwrap(), "t").unwrap();
        assert_eq!(linked, Rect::parse_a1("A1:B2").unwrap());
        assert_eq!(
            e.value(a("D1")),
            CellValue::Number(0.0),
            "A3:B3 is empty after the link, so its readers recompute"
        );
        e.update_cell_a1("A3", "10").unwrap();
        assert_eq!(e.value(a("B3")), CellValue::Empty, "B3's formula is gone");
        assert_eq!(e.value(a("D1")), CellValue::Number(10.0));
    }

    #[test]
    fn sql_and_composites() {
        let mut e = SheetEngine::new();
        {
            let db = e.database();
            let mut guard = db.write();
            let t = guard
                .create_table(
                    "t",
                    Schema::new(vec![
                        ColumnDef::new("x", DataType::Int),
                        ColumnDef::new("y", DataType::Int),
                    ]),
                )
                .unwrap();
            t.insert(&[Datum::Int(1), Datum::Int(10)]).unwrap();
            t.insert(&[Datum::Int(2), Datum::Int(20)]).unwrap();
        }
        let rel = e
            .sql("SELECT x, y FROM t WHERE y > ?", &[Datum::Int(15)])
            .unwrap();
        assert_eq!(rel.len(), 1);
        e.place_composite(a("A8"), rel);
        e.index_composite(a("A8"), 1, 2, a("A9")).unwrap();
        assert_eq!(e.value(a("A9")), CellValue::Number(20.0));
        assert!(e.index_composite(a("A8"), 5, 5, a("A10")).is_err());
    }

    #[test]
    fn optimize_reorganizes_storage() {
        let mut e = SheetEngine::new();
        for r in 0..20 {
            for c in 0..5 {
                e.update_cell(CellAddr::new(r, c), &format!("{}", r * 5 + c))
                    .unwrap();
            }
        }
        e.update_cell_a1("AZ99", "7").unwrap();
        let before = e.snapshot();
        let report = e
            .optimize(
                &CostModel::postgres(),
                OptimizeAlgorithm::Agg,
                &OptimizerOptions::default(),
            )
            .unwrap();
        assert!(report.decomposition.table_count() >= 1);
        assert_eq!(e.snapshot(), before, "optimization must not lose cells");
        // Values still readable and formulas still work after migration.
        assert_eq!(e.value(a("A1")), CellValue::Number(0.0));
    }

    fn temp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dataspread-sheet-durable-{name}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn durable_roundtrip_without_checkpoint() {
        let dir = temp_dir("wal-only");
        {
            let mut e = SheetEngine::open(&dir).unwrap();
            e.update_cell_a1("A1", "10").unwrap();
            e.update_cell_a1("A2", "=A1*4").unwrap();
            e.update_cell_a1("B1", "hello").unwrap();
            e.insert_rows(0, 1).unwrap();
            e.save().unwrap();
            // No checkpoint: state must come back from the WAL alone.
            assert!(e.persistence_stats().unwrap().ops_since_checkpoint >= 4);
        }
        let e = SheetEngine::open(&dir).unwrap();
        assert_eq!(e.value(a("A2")), CellValue::Number(10.0));
        assert_eq!(e.value(a("A3")), CellValue::Number(40.0));
        assert_eq!(e.value(a("B2")), CellValue::Text("hello".into()));
        // Recovery folded the WAL into the image.
        assert_eq!(e.persistence_stats().unwrap().ops_since_checkpoint, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_checkpoint_then_more_ops() {
        let dir = temp_dir("ckpt-tail");
        {
            let mut e = SheetEngine::open(&dir).unwrap();
            e.update_cell_a1("A1", "1").unwrap();
            e.checkpoint().unwrap();
            e.update_cell_a1("A1", "2").unwrap();
            e.update_cell_a1("C3", "=A1+1").unwrap();
            e.save().unwrap();
        }
        let mut e = SheetEngine::open(&dir).unwrap();
        assert_eq!(e.value(a("A1")), CellValue::Number(2.0));
        assert_eq!(e.value(a("C3")), CellValue::Number(3.0));
        // Recovered formulas stay live: editing the precedent recomputes.
        e.update_cell_a1("A1", "10").unwrap();
        assert_eq!(e.value(a("C3")), CellValue::Number(11.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_engine_save_and_checkpoint_are_noops() {
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "1").unwrap();
        e.save().unwrap();
        assert!(e.checkpoint().unwrap().is_none());
        assert!(e.persistence_stats().is_none());
    }

    #[test]
    fn import_overwrites_and_recomputes_dependents() {
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "stale").unwrap();
        e.update_cell_a1("B1", "=A1+1").unwrap();
        assert_eq!(e.value(a("B1")), CellValue::Error(CellError::Value));
        // Import a block over A1:A2: the old cell is overwritten and the
        // dependent formula must recompute against the imported value.
        e.import_rows(
            a("A1"),
            1,
            vec![vec![CellValue::Number(5.0)], vec![CellValue::Number(6.0)]],
        )
        .unwrap();
        assert_eq!(e.value(a("A1")), CellValue::Number(5.0));
        assert_eq!(e.value(a("B1")), CellValue::Number(6.0));
        // Edits through the region keep recomputing as usual.
        e.update_cell_a1("A1", "10").unwrap();
        assert_eq!(e.value(a("B1")), CellValue::Number(11.0));
    }

    /// An import of zero columns, or one whose block would reach past the
    /// last column or row, is refused before any cell is cleared or any
    /// record logged — in memory, durably, and after a reopen.
    #[test]
    fn refused_imports_leave_the_sheet_untouched() {
        let dir = temp_dir("refused-import");
        let neighbours = Rect::new(0, 0, 6, 6);
        let rows = |n: usize, width: usize| vec![vec![CellValue::Number(9.0); width]; n];
        let mut before = None;
        for mut e in [SheetEngine::new(), SheetEngine::open(&dir).unwrap()] {
            e.update_cell(CellAddr::new(5, 2), "left").unwrap();
            e.update_cell(CellAddr::new(0, 5), "top").unwrap();
            e.import_rows(CellAddr::new(3, 0), 1, rows(1, 1)).unwrap();
            e.save().unwrap();
            let state = (e.get_cells(neighbours), e.storage().layout());

            let err = e
                .import_rows(CellAddr::new(5, 3), 0, rows(1, 1))
                .unwrap_err();
            assert!(matches!(err, EngineError::BadLink(_)), "{err}");
            for (at, n, width) in [((0, u32::MAX - 1), 1, 4), ((u32::MAX, 0), 2, 1)] {
                let err = e
                    .import_rows(CellAddr::new(at.0, at.1), width as u32, rows(n, width))
                    .unwrap_err();
                assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
            }
            assert_eq!((e.get_cells(neighbours), e.storage().layout()), state);
            e.save().unwrap();
            before = Some(state);
        }
        let e = SheetEngine::open(&dir).unwrap();
        let after = (e.get_cells(neighbours), e.storage().layout());
        assert_eq!(Some(after), before, "after a reopen");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn engines_are_send_and_sync() {
        // The concurrent workspace moves engines between session threads
        // and serves `&self` reads (window fetches) from several at once;
        // every layer (translators, posmaps, durable store) must be
        // Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SheetEngine>();
        assert_send_sync::<crate::HybridSheet>();
        assert_send_sync::<DurableStore>();
    }

    #[test]
    fn astronomical_row_edit_errors_fast_instead_of_hanging() {
        // Regression (ROADMAP PR 4 follow-up): updateCell at row ~4e9 made
        // the RCV catch-all materialize O(row) positional entries and hang.
        // The engine must surface a clean error immediately and stay
        // usable.
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "1").unwrap();
        let err = e
            .update_cell(CellAddr::new(4_000_000_000, 0), "42")
            .unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "{err}");
        // The failed edit must not have corrupted anything.
        e.update_cell_a1("A2", "=A1+1").unwrap();
        assert_eq!(e.value(a("A2")), CellValue::Number(2.0));
        assert_eq!(e.value(CellAddr::new(4_000_000_000, 0)), CellValue::Empty);
    }

    #[test]
    fn range_to_relation_uses_headers() {
        let mut e = SheetEngine::new();
        e.update_cell_a1("A1", "name").unwrap();
        e.update_cell_a1("B1", "score").unwrap();
        e.update_cell_a1("A2", "ada").unwrap();
        e.update_cell_a1("B2", "92").unwrap();
        let rel = e.range_to_relation(Rect::parse_a1("A1:B2").unwrap());
        assert_eq!(rel.columns, vec!["name".to_string(), "score".to_string()]);
        assert_eq!(rel.rows[0][1], Datum::Float(92.0));
        // Blank header, a blank row and blank interior cells: `colN`,
        // NULLs, and every value still under its own column.
        e.update_cell_a1("D1", "k").unwrap();
        e.update_cell_a1("F1", "v").unwrap();
        e.update_cell_a1("D3", "x").unwrap();
        e.update_cell_a1("F3", "7").unwrap();
        let rel = e.range_to_relation(Rect::parse_a1("D1:F3").unwrap());
        assert_eq!(rel.columns, vec!["k", "col2", "v"]);
        assert_eq!(
            rel.rows,
            vec![
                vec![Datum::Null; 3],
                vec![Datum::Text("x".into()), Datum::Null, Datum::Float(7.0)],
            ]
        );
    }
}
