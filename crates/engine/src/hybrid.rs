//! The hybrid translator (paper §VI): routes sheet regions to per-region
//! translators, with an RCV catch-all for cells outside every region.
//!
//! "The hybrid translator is responsible for mapping the different regions
//! on a spreadsheet to corresponding data models … services getCells by
//! identifying the responsible data model and delegating the call to it."
//! Sheet-level structural edits update region metadata (rectangles) and
//! forward to the translators whose regions they cross — never a cascading
//! renumber.

use std::collections::{BTreeMap, HashSet};

use dataspread_formula::RangeAgg;
use dataspread_grid::{Cell, CellAddr, Rect, ScanValue, SparseSheet};
use dataspread_hybrid::{Decomposition, ModelKind, Occupancy, Region};
use dataspread_posmap::MAX_POSITIONS;
use dataspread_relstore::StoreError;

use crate::columnar::{ColumnarBuilder, ColumnarTranslator};
use crate::com::ComBuilder;
use crate::durable::{visit_payload, PayloadEncoder};
use crate::error::EngineError;
use crate::rcv::{RcvBuilder, RcvTranslator};
use crate::rom::RomBuilder;
use crate::translator::{CellVisitor, Translator, WHOLE};

/// Region id of the catch-all pseudo-region in checkpoint images (real
/// regions are numbered from 1).
pub const CATCHALL_REGION_ID: u64 = 0;

/// One region of the sheet and its translator.
struct RegionSlot {
    /// Stable identity for region-granular persistence: survives rect
    /// shifts and reopen, so a checkpoint can key page allocations by it.
    id: u64,
    rect: Rect,
    translator: Box<dyn Translator>,
    /// Set by every mutator that changes this region's *cells* (not by
    /// pure rect translations); cleared after a successful checkpoint.
    dirty: bool,
    /// The translator's [`Translator::change_stamp`] at the last
    /// checkpoint. For translators whose backing store can change without
    /// a sheet mutator (TOM: direct SQL on the linked table), a stamp
    /// mismatch means "dirty" even though `dirty` is false; `None` for
    /// self-contained translators, where the flag is exhaustive.
    clean_stamp: Option<u64>,
}

impl RegionSlot {
    /// The part of `rect` this region serves, if any.
    fn share_of(&self, rect: &Rect) -> Option<StoreRect<'_>> {
        let hit = rect.intersection(&self.rect)?;
        Some(StoreRect {
            store: self.translator.as_ref(),
            origin: (self.rect.r1, self.rect.c1),
            local: hit.translate(-(self.rect.r1 as i64), -(self.rect.c1 as i64)),
        })
    }
}

/// One store's share of a sheet rectangle: `local` is the rectangle in the
/// store's own coordinates, `origin` the store's top-left on the sheet.
struct StoreRect<'a> {
    store: &'a dyn Translator,
    origin: (u32, u32),
    local: Rect,
}

impl StoreRect<'_> {
    /// The store's scan of its share, in sheet coordinates. Generic over
    /// the visitor, and the only place that asks
    /// [`Translator::as_columnar`] for the monomorphic walk: with a `dyn`
    /// call both into the store and out to the visitor, columnar window
    /// fetches measured 8 % slower.
    fn scan(&self, mut f: impl FnMut(u32, u32, ScanValue<'_>, Option<&str>)) {
        let (r0, c0) = self.origin;
        match self.store.as_columnar() {
            Some(t) => t.scan_filled(self.local, |row, col, value, formula| {
                f(row + r0, col + c0, value, formula)
            }),
            None => self
                .store
                .scan(self.local, &mut |row, col, value, formula| {
                    f(row + r0, col + c0, value, formula)
                }),
        }
    }
}

/// The one way a region's storage is built: cells are pushed in local
/// coordinates in strictly increasing row-major order — a *run*, what
/// [`Translator::scan`] and a checkpoint payload deliver; anything else is
/// refused, never mis-built — into the model's bulk builder: one tuple per
/// row (ROM), per column (COM) or per cell (RCV, which also stands in for
/// TOM: linked tables are created by `linkTable` only), or one typed run
/// store per column (columnar). Values arrive as borrows, so a scan, a
/// payload or a cell list all feed it without an intermediate
/// `Vec<(CellAddr, Cell)>`. The result reports the `rows()`, `cols()`,
/// `filled_count()` and `storage_bytes()` a translator fed the same cells
/// one `set_cell` at a time would.
pub(crate) struct RegionBuilder {
    model: ModelBuilder,
    last: Option<(u32, u32)>,
}

enum ModelBuilder {
    Rom(RomBuilder),
    Com(ComBuilder),
    Rcv(RcvBuilder),
    Columnar(ColumnarBuilder),
}

impl RegionBuilder {
    /// `rows` x `cols` is the region's extent, which only the fixed-extent
    /// columnar layout records; the others grow with their cells.
    pub(crate) fn new(kind: ModelKind, rows: u32, cols: u32) -> Self {
        RegionBuilder {
            model: match kind {
                ModelKind::Rom => ModelBuilder::Rom(RomBuilder::new()),
                ModelKind::Com => ModelBuilder::Com(ComBuilder::default()),
                ModelKind::Rcv | ModelKind::Tom => ModelBuilder::Rcv(RcvBuilder::new()),
                ModelKind::Columnar => ModelBuilder::Columnar(ColumnarBuilder::new(rows, cols)),
            },
            last: None,
        }
    }

    pub(crate) fn push(
        &mut self,
        row: u32,
        col: u32,
        value: ScanValue<'_>,
        formula: Option<&str>,
    ) -> Result<(), EngineError> {
        if let Some((r, c)) = self.last.filter(|&last| last >= (row, col)) {
            return Err(EngineError::Unsupported(format!(
                "bulk build: cell run is not strictly row-major at {} then {}",
                CellAddr::new(r, c),
                CellAddr::new(row, col)
            )));
        }
        self.last = Some((row, col));
        match &mut self.model {
            ModelBuilder::Rom(b) => b.push(row, col, value, formula),
            ModelBuilder::Com(b) => {
                b.push(row, col, value, formula);
                Ok(())
            }
            ModelBuilder::Rcv(b) => b.push(row, col, value, formula),
            ModelBuilder::Columnar(b) => b.push(row, col, value, formula),
        }
    }

    /// Push every cell of `source`, ending at the first refusal.
    fn push_scan(&mut self, source: &dyn Translator) -> Result<(), EngineError> {
        let mut pushed = Ok(());
        source.scan(WHOLE, &mut |row, col, value, formula| {
            if pushed.is_ok() {
                pushed = self.push(row, col, value, formula);
            }
        });
        pushed
    }

    pub(crate) fn finish(self) -> Result<Box<dyn Translator>, EngineError> {
        Ok(match self.model {
            ModelBuilder::Rom(b) => Box::new(b.finish()?),
            ModelBuilder::Com(b) => Box::new(b.finish()?),
            ModelBuilder::Rcv(b) => Box::new(b.finish()),
            ModelBuilder::Columnar(b) => Box::new(b.finish()),
        })
    }
}

/// [`RegionBuilder`] over a cell list: `cells` must be a run.
pub fn build_translator(
    kind: ModelKind,
    rows: u32,
    cols: u32,
    cells: impl IntoIterator<Item = (CellAddr, Cell)>,
) -> Result<Box<dyn Translator>, EngineError> {
    let mut b = RegionBuilder::new(kind, rows, cols);
    for (addr, cell) in cells {
        b.push(
            addr.row,
            addr.col,
            ScanValue::of(&cell.value),
            cell.formula.as_deref(),
        )?;
    }
    b.finish()
}

/// A store's checkpoint payload, encoded straight off its scan.
fn encode_store(store: &dyn Translator) -> Vec<u8> {
    let mut enc = PayloadEncoder::default();
    store.scan(WHOLE, &mut |row, col, value, formula| {
        enc.push(row, col, value, formula)
    });
    enc.finish()
}

/// A store's cells as an owned list in sheet coordinates (`origin` is the
/// store's top-left) — for `reorganize`, which re-sorts and re-splits them.
fn gather(store: &dyn Translator, origin: (u32, u32), out: &mut Vec<(CellAddr, Cell)>) {
    store.scan(WHOLE, &mut |row, col, value, formula| {
        out.push((
            CellAddr::new(row + origin.0, col + origin.1),
            value.to_cell(formula),
        ));
    });
}

/// Row-interval routing index over the (pairwise disjoint) region
/// rectangles, so point routing and window fetches stop scanning the whole
/// region list — O(log R) instead of O(R) per `get_cell`/`set_cell`.
///
/// The row axis is cut at every region boundary into *elementary bands*:
/// each region listed in a band covers the band's full row span, which
/// makes the per-band column ranges pairwise disjoint (two regions sharing
/// rows with overlapping columns would intersect). Routing is therefore two
/// binary searches: band by row, then column entry within the band.
///
/// A pure function of the region rects: [`RoutingIndex::build`] is its
/// only writer, and every [`HybridSheet`] method that changes a rect or a
/// slot position ends by rebuilding it.
#[derive(Debug, Default, Clone)]
struct RoutingIndex {
    /// Sorted, disjoint row bands (only bands with at least one region are
    /// stored; rows outside every band route to the catch-all).
    bands: Vec<RowBand>,
}

#[derive(Debug, Clone)]
struct RowBand {
    r1: u32,
    r2: u32,
    /// `(c1, c2, region slot index)` sorted by `c1`; disjoint, so `c2` is
    /// strictly increasing as well.
    cols: Vec<(u32, u32, usize)>,
}

impl RoutingIndex {
    /// Sweep-build over pairwise disjoint region rectangles, indexed by
    /// their position in `rects`: O(R log R) plus the band-region
    /// incidence count (O(R) for the typical band layout).
    fn build(rects: &[Rect]) -> RoutingIndex {
        if rects.is_empty() {
            return RoutingIndex::default();
        }
        let mut cuts: Vec<u32> = Vec::with_capacity(rects.len() * 2);
        for r in rects {
            cuts.push(r.r1);
            if let Some(next) = r.r2.checked_add(1) {
                cuts.push(next);
            }
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut by_start: Vec<usize> = (0..rects.len()).collect();
        by_start.sort_unstable_by_key(|&i| rects[i].r1);
        let mut by_end: Vec<usize> = (0..rects.len()).collect();
        by_end.sort_unstable_by_key(|&i| rects[i].r2);
        // Every active region covers the current cut row, so the active
        // column ranges are pairwise disjoint: keying by c1 keeps them
        // sorted for the band snapshots.
        let mut active: BTreeMap<u32, (u32, usize)> = BTreeMap::new();
        let (mut si, mut ei) = (0, 0);
        let mut bands = Vec::new();
        for (ci, &cut) in cuts.iter().enumerate() {
            while ei < by_end.len() && rects[by_end[ei]].r2 < cut {
                let gone = active.remove(&rects[by_end[ei]].c1);
                debug_assert_eq!(gone.map(|(_, idx)| idx), Some(by_end[ei]));
                ei += 1;
            }
            while si < by_start.len() && rects[by_start[si]].r1 <= cut {
                let rect = rects[by_start[si]];
                active.insert(rect.c1, (rect.c2, by_start[si]));
                si += 1;
            }
            if active.is_empty() {
                continue;
            }
            let r2 = cuts.get(ci + 1).map(|&next| next - 1).unwrap_or(u32::MAX);
            bands.push(RowBand {
                r1: cut,
                r2,
                cols: active
                    .iter()
                    .map(|(&c1, &(c2, idx))| (c1, c2, idx))
                    .collect(),
            });
        }
        RoutingIndex { bands }
    }

    /// The slot index of the region containing `addr`, if any.
    fn route(&self, addr: CellAddr) -> Option<usize> {
        let bi = self.bands.partition_point(|b| b.r2 < addr.row);
        let band = self.bands.get(bi)?;
        if band.r1 > addr.row {
            return None;
        }
        let ci = band.cols.partition_point(|&(c1, _, _)| c1 <= addr.col);
        let &(c1, c2, idx) = band.cols.get(ci.checked_sub(1)?)?;
        (addr.col >= c1 && addr.col <= c2).then_some(idx)
    }

    /// Slot indices of all regions intersecting `rect`, ascending and
    /// deduplicated (a region spans every band its rows cut through).
    fn regions_intersecting(&self, rect: &Rect) -> Vec<usize> {
        let mut out = Vec::new();
        let start = self.bands.partition_point(|b| b.r2 < rect.r1);
        for band in &self.bands[start..] {
            if band.r1 > rect.r2 {
                break;
            }
            // Entries sorted by c1 with c2 increasing: binary-search the
            // first whose c2 reaches the window, walk until c1 passes it.
            let ci = band.cols.partition_point(|&(_, c2, _)| c2 < rect.c1);
            for &(c1, _, idx) in &band.cols[ci..] {
                if c1 > rect.c2 {
                    break;
                }
                out.push(idx);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl std::fmt::Debug for RegionSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegionSlot")
            .field("id", &self.id)
            .field("rect", &self.rect.to_a1())
            .field("kind", &self.translator.kind())
            .field("dirty", &self.dirty)
            .finish()
    }
}

/// One region's contribution to a checkpoint: identity + layout metadata
/// always, the actual payload only when the region is dirty (that is the
/// whole point of region-granular persistence — clean regions are never
/// re-serialized).
pub struct RegionImage {
    pub id: u64,
    pub kind: ModelKind,
    /// Sheet-coordinate rectangle (meaningless for the catch-all).
    pub rect: Rect,
    /// `Some(bytes)` iff dirty: the canonical cell payload (region cells in
    /// *local* coordinates, catch-all cells in sheet coordinates, both
    /// row-major), or a translator's native encoding
    /// ([`Translator::encoded_image`]) — columnar regions checkpoint their
    /// compressed pages directly, so image size tracks the compressed, not
    /// the logical, footprint.
    pub payload: Option<Vec<u8>>,
}

/// A sheet stored as a hybrid data model.
#[derive(Debug)]
pub struct HybridSheet {
    regions: Vec<RegionSlot>,
    /// Row-interval index over `regions` for sub-linear routing, rebuilt
    /// from the rects by every method that changes one or moves a slot.
    routing: RoutingIndex,
    /// RCV over the whole sheet's coordinate space for stray cells.
    catchall: Box<dyn Translator>,
    catchall_dirty: bool,
    next_region_id: u64,
}

impl Default for HybridSheet {
    fn default() -> Self {
        Self::new()
    }
}

impl HybridSheet {
    pub fn new() -> Self {
        HybridSheet {
            regions: Vec::new(),
            routing: RoutingIndex::default(),
            catchall: Box::new(RcvTranslator::new()),
            // A brand-new sheet has never been serialized: the first
            // checkpoint must write the (empty) catch-all image.
            catchall_dirty: true,
            next_region_id: CATCHALL_REGION_ID + 1,
        }
    }

    /// Current region layout (rect, model) — the hybrid metadata.
    pub fn layout(&self) -> Vec<(Rect, ModelKind)> {
        self.regions
            .iter()
            .map(|r| (r.rect, r.translator.kind()))
            .collect()
    }

    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    fn rebuild_routing(&mut self) {
        let rects: Vec<Rect> = self.regions.iter().map(|r| r.rect).collect();
        self.routing = RoutingIndex::build(&rects);
    }

    /// Register a region. Fails when it overlaps an existing region.
    ///
    /// Catch-all cells inside the new region move into it a row run at a
    /// time ([`Translator::set_cells_in_row`]), and the catch-all gives
    /// them up only once the region holds them all — a refused row leaves
    /// the sheet as it was.
    pub fn add_region(
        &mut self,
        rect: Rect,
        mut translator: Box<dyn Translator>,
    ) -> Result<(), EngineError> {
        if self.regions.iter().any(|r| r.rect.intersects(&rect)) {
            return Err(EngineError::BadLink(format!(
                "region {rect} overlaps an existing region"
            )));
        }
        let mut strays = self.catchall.get_range(rect).into_iter().peekable();
        let mut absorbed = Vec::new();
        while let Some(row) = strays.peek().map(|(a, _)| a.row) {
            let mut run = Vec::new();
            while let Some((addr, cell)) = strays.next_if(|(a, _)| a.row == row) {
                absorbed.push(addr);
                run.push((addr.col - rect.c1, cell));
            }
            translator.set_cells_in_row(row - rect.r1, run)?;
        }
        for addr in absorbed {
            self.catchall.clear_cell(addr.row, addr.col)?;
            self.catchall_dirty = true;
        }
        let id = self.next_region_id;
        self.next_region_id += 1;
        self.regions.push(RegionSlot {
            id,
            rect,
            translator,
            dirty: true,
            clean_stamp: None,
        });
        self.rebuild_routing();
        Ok(())
    }

    /// Restore a whole image's regions with a single routing-index rebuild
    /// (the cold-open path: per-region rebuilds would make opening a
    /// many-region sheet quadratic). Each slot keeps its persisted id. A
    /// cell payload is visited straight into the region's
    /// [`RegionBuilder`] — never decoded into a cell list — and a columnar
    /// region loads from its native encoding; TOM regions come back as RCV
    /// holding the captured values (the table link itself is not
    /// persisted; see the README). Returns the formula cells met on the
    /// way, in sheet coordinates, for the caller to re-register.
    pub fn restore_regions(
        &mut self,
        regions: impl IntoIterator<Item = (u64, ModelKind, Rect, Vec<u8>)>,
    ) -> Result<Vec<(CellAddr, String)>, EngineError> {
        let mut formulas = Vec::new();
        let mut result = Ok(());
        for (id, kind, rect, payload) in regions {
            match self.restored_translator(id, kind, rect, &payload, &mut formulas) {
                Ok(translator) => {
                    self.regions.push(RegionSlot {
                        id,
                        rect,
                        translator,
                        dirty: true,
                        clean_stamp: None,
                    });
                    self.next_region_id = self.next_region_id.max(id + 1);
                }
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        // Rebuild even on error: the slots pushed before the failure are
        // live and the index must cover them.
        self.rebuild_routing();
        result.map(|()| formulas)
    }

    fn restored_translator(
        &self,
        id: u64,
        kind: ModelKind,
        rect: Rect,
        payload: &[u8],
        formulas: &mut Vec<(CellAddr, String)>,
    ) -> Result<Box<dyn Translator>, EngineError> {
        if id == CATCHALL_REGION_ID || self.regions.iter().any(|r| r.id == id) {
            return Err(EngineError::BadLink(format!(
                "restore of duplicate region id {id}"
            )));
        }
        // A CRC-valid payload can still reach past its region's rect: a
        // cell's sheet address would overflow, and a builder would
        // materialize every row up to it. Refuse it before anything is
        // pushed.
        let within = |rows: u64, cols: u64| {
            if rows <= rect.rows() && cols <= rect.cols() {
                return Ok(());
            }
            Err(EngineError::Store(StoreError::Corrupt(format!(
                "image: region {id} reaches {rows}x{cols} cells, its rect holds {}x{}",
                rect.rows(),
                rect.cols()
            ))))
        };
        let mut formula_at = |row: u32, col: u32, src: &str| {
            formulas.push((CellAddr::new(row + rect.r1, col + rect.c1), src.to_string()));
        };
        if kind == ModelKind::Columnar {
            let t = ColumnarTranslator::from_bytes(payload)?;
            within(t.rows().into(), t.cols().into())?;
            t.for_each_formula(&mut formula_at);
            return Ok(Box::new(t));
        }
        let mut b = RegionBuilder::new(kind, rect.rows() as u32, rect.cols() as u32);
        visit_payload(payload, |row, col, value, formula| {
            within(u64::from(row) + 1, u64::from(col) + 1)?;
            if let Some(src) = formula {
                formula_at(row, col, src);
            }
            b.push(row, col, value, formula)
        })?;
        b.finish()
    }

    /// Restore the catch-all from its checkpoint payload (sheet
    /// coordinates), after [`HybridSheet::restore_regions`]: a stored
    /// stray inside a restored region could never be read back, so it is
    /// refused as corruption. Returns the catch-all's formula cells.
    pub fn restore_catchall(
        &mut self,
        payload: &[u8],
    ) -> Result<Vec<(CellAddr, String)>, EngineError> {
        let mut formulas = Vec::new();
        let mut b = RegionBuilder::new(ModelKind::Rcv, 0, 0);
        visit_payload(payload, |row, col, value, formula| {
            let addr = CellAddr::new(row, col);
            if self.region_at(addr).is_some() {
                return Err(EngineError::Store(StoreError::Corrupt(format!(
                    "image: catch-all cell {addr} lies inside a region"
                ))));
            }
            if let Some(src) = formula {
                formulas.push((addr, src.to_string()));
            }
            b.push(row, col, value, formula)
        })?;
        self.catchall = b.finish()?;
        self.catchall_dirty = true;
        Ok(formulas)
    }

    // -------------------------------------------------- dirty tracking --

    /// Per-region checkpoint images: identity + layout for every region
    /// (catch-all first as [`CATCHALL_REGION_ID`]), cells only for the
    /// dirty ones. TOM regions — whose content lives in the database and
    /// can change without any sheet mutator running — are dirty whenever
    /// the database's change counter moved since the last checkpoint
    /// ([`Translator::change_stamp`]); a quiet database lets a checkpoint
    /// skip re-serializing them entirely (and the persistence layer still
    /// skips the page writes when serialized bytes come out unchanged).
    pub fn region_images(&mut self) -> Vec<RegionImage> {
        let mut out = Vec::with_capacity(1 + self.regions.len());
        out.push(RegionImage {
            id: CATCHALL_REGION_ID,
            kind: ModelKind::Rcv,
            rect: Rect::new(0, 0, 0, 0),
            payload: self
                .catchall_dirty
                .then(|| encode_store(self.catchall.as_ref())),
        });
        for r in &mut self.regions {
            let dirty = r.dirty || r.translator.change_stamp() != r.clean_stamp;
            out.push(RegionImage {
                id: r.id,
                kind: r.translator.kind(),
                rect: r.rect,
                payload: dirty.then(|| {
                    r.translator
                        .encoded_image()
                        .unwrap_or_else(|| encode_store(r.translator.as_ref()))
                }),
            });
        }
        out.sort_by_key(|r| r.id);
        out
    }

    /// Mark every region (and the catch-all) clean — called after a
    /// successful checkpoint, and after restoring from a current image.
    pub fn clear_dirty(&mut self) {
        self.catchall_dirty = false;
        for r in &mut self.regions {
            r.dirty = false;
            r.clean_stamp = r.translator.change_stamp();
        }
    }

    /// The slot index of the region containing `addr`, off the routing
    /// index — the lookup behind every point read and write.
    pub fn region_at(&self, addr: CellAddr) -> Option<usize> {
        self.routing.route(addr)
    }

    pub fn get_cell(&self, addr: CellAddr) -> Option<Cell> {
        match self.region_at(addr) {
            Some(i) => {
                let r = &self.regions[i];
                r.translator
                    .get_cell(addr.row - r.rect.r1, addr.col - r.rect.c1)
            }
            None => self.catchall.get_cell(addr.row, addr.col),
        }
    }

    pub fn set_cell(&mut self, addr: CellAddr, cell: Cell) -> Result<(), EngineError> {
        match self.region_at(addr) {
            Some(i) => {
                let r = &mut self.regions[i];
                r.dirty = true;
                r.translator
                    .set_cell(addr.row - r.rect.r1, addr.col - r.rect.c1, cell)
            }
            None => {
                self.catchall_dirty = true;
                self.catchall.set_cell(addr.row, addr.col, cell)
            }
        }
    }

    /// Batched update of several cells in one sheet row (the interactive
    /// "paste a row" / range-update path of Figure 22). Consumes the batch:
    /// cells *move* into their owning translator — no clones while
    /// grouping, and no per-region scratch allocation proportional to the
    /// region count.
    pub fn set_cells_in_row(
        &mut self,
        row: u32,
        cells: Vec<(u32, Cell)>,
    ) -> Result<(), EngineError> {
        // Group the columns by owning region so row-oriented translators
        // rewrite each row tuple once. A single row crosses few regions,
        // so a first-encounter list beats a map.
        let mut remaining: Vec<(u32, Cell)> = Vec::new();
        let mut groups: Vec<(usize, Vec<(u32, Cell)>)> = Vec::new();
        for (col, cell) in cells {
            match self.region_at(CellAddr::new(row, col)) {
                Some(i) => match groups.iter_mut().find(|(slot, _)| *slot == i) {
                    Some((_, group)) => group.push((col, cell)),
                    None => groups.push((i, vec![(col, cell)])),
                },
                None => remaining.push((col, cell)),
            }
        }
        for (i, group) in groups {
            let rect = self.regions[i].rect;
            let local: Vec<(u32, Cell)> =
                group.into_iter().map(|(c, v)| (c - rect.c1, v)).collect();
            self.regions[i].dirty = true;
            self.regions[i]
                .translator
                .set_cells_in_row(row - rect.r1, local)?;
        }
        if remaining.is_empty() {
            return Ok(());
        }
        self.catchall_dirty = true;
        self.catchall.set_cells_in_row(row, remaining)
    }

    pub fn clear_cell(&mut self, addr: CellAddr) -> Result<(), EngineError> {
        match self.region_at(addr) {
            Some(i) => {
                let r = &mut self.regions[i];
                r.dirty = true;
                r.translator
                    .clear_cell(addr.row - r.rect.r1, addr.col - r.rect.c1)
            }
            None => {
                self.catchall_dirty = true;
                self.catchall.clear_cell(addr.row, addr.col)
            }
        }
    }

    /// The one *ordered* read of the sheet: visit every non-blank cell of
    /// `rect` in sheet coordinates, in strictly increasing row-major order
    /// across stores, values and formula sources as borrows. Window
    /// fetches, [`HybridSheet::get_cells`] and the evaluator's range reads
    /// are folds over it.
    ///
    /// When one store holds every cell of `rect` — or several that share
    /// no row, stacked imports under a tall window — the stores'
    /// [`Translator::scan`]s are handed straight through, one after the
    /// other; otherwise their cells are gathered once, sorted once and
    /// replayed.
    pub fn scan(&self, rect: Rect, mut f: impl FnMut(u32, u32, ScanValue<'_>, Option<&str>)) {
        let Some(stores) = self.stores_in_row_order(&rect) else {
            for (addr, cell) in &self.gathered(rect) {
                f(
                    addr.row,
                    addr.col,
                    ScanValue::of(&cell.value),
                    cell.formula.as_deref(),
                );
            }
            return;
        };
        for store in stores {
            store.scan(&mut f);
        }
    }

    /// `getCells(range)`: the ordered scan, collected.
    pub fn get_cells(&self, rect: Rect) -> Vec<(CellAddr, Cell)> {
        let Some(stores) = self.stores_in_row_order(&rect) else {
            return self.gathered(rect);
        };
        let mut out = Vec::new();
        for store in stores {
            store.scan(|row, col, value, formula| {
                out.push((CellAddr::new(row, col), value.to_cell(formula)));
            });
        }
        out
    }

    /// The stores holding `rect`'s cells, ordered so that their scans run
    /// back to back are row-major — `None` when two of them share a row.
    /// The catch-all spans every row of `rect`, so it is either alone or in
    /// the way, unless it cannot contribute: it has no cell, its extent
    /// ends before `rect`, or one region contains `rect` (any cell there
    /// would have routed into the region).
    fn stores_in_row_order(&self, rect: &Rect) -> Option<Vec<StoreRect<'_>>> {
        let hits = self.routing.regions_intersecting(rect);
        if hits.is_empty() {
            return Some(vec![StoreRect {
                store: self.catchall.as_ref(),
                origin: (0, 0),
                local: *rect,
            }]);
        }
        let contained =
            matches!(hits[..], [slot] if self.regions[slot].rect.intersection(rect) == Some(*rect));
        let strays = self.catchall.filled_count() > 0
            && rect.r1 < self.catchall.rows()
            && rect.c1 < self.catchall.cols();
        if strays && !contained {
            return None;
        }
        let mut stores: Vec<StoreRect<'_>> = hits
            .iter()
            .filter_map(|&slot| self.regions[slot].share_of(rect))
            .collect();
        stores.sort_unstable_by_key(|s| s.origin.0 + s.local.r1);
        stores
            .windows(2)
            .all(|w| w[0].origin.0 + w[0].local.r2 < w[1].origin.0 + w[1].local.r1)
            .then_some(stores)
    }

    /// Every store's cells inside `rect` as one row-major list.
    fn gathered(&self, rect: Rect) -> Vec<(CellAddr, Cell)> {
        let mut cells = Vec::new();
        self.scan_stores(rect, true, &mut |row, col, value, formula| {
            cells.push((CellAddr::new(row, col), value.to_cell(formula)));
        });
        // Each cell lives in exactly one store, so no two keys are equal.
        cells.sort_unstable_by_key(|(a, _)| (a.row, a.col));
        cells
    }

    /// Sheet-level `insertRowAfter`-style edit: rows at `at` and below
    /// shift down by `n`.
    ///
    /// Regions entirely below the edit only *translate* — their local
    /// cells are untouched, so they stay clean for the next checkpoint
    /// (the rect change lands in the page-map, not in region payloads).
    pub fn insert_rows(&mut self, at: u32, n: u32) -> Result<(), EngineError> {
        self.refuse_insert(at, n, |r| (r.r1, r.r2))?;
        if self.catchall.rows() > at {
            self.catchall.insert_rows(at, n)?;
            self.catchall_dirty = true;
        }
        for region in &mut self.regions {
            if at <= region.rect.r1 {
                region.rect = region.rect.translate(n as i64, 0);
            } else if at <= region.rect.r2 {
                region.translator.insert_rows(at - region.rect.r1, n)?;
                region.rect.r2 += n;
                region.dirty = true;
            }
        }
        self.rebuild_routing();
        Ok(())
    }

    /// Refuse, before anything moves, an insert of `n` at `at` that some
    /// region (its `span` along the insert's axis) cannot take: one that
    /// would push the region past the last row or column — Excel's "would
    /// push non-empty cells off the worksheet" — or that lands inside it
    /// and would stretch it past [`MAX_POSITIONS`], which no positional
    /// map materializes, or that lands inside a linked table, which has no
    /// middle to insert a row into and a fixed schema. The catch-all
    /// refuses an insert reaching the same cap on its own, before any
    /// region moves, so a refusal from either leaves the sheet untouched.
    fn refuse_insert(
        &self,
        at: u32,
        n: u32,
        span: impl Fn(&Rect) -> (u32, u32),
    ) -> Result<(), EngineError> {
        for region in &self.regions {
            let (first, last) = span(&region.rect);
            if at > last {
                continue;
            }
            let Some(end) = last.checked_add(n) else {
                return Err(EngineError::Unsupported(format!(
                    "inserting {n} at {at} would push the region at {first}..={last} off the sheet"
                )));
            };
            if first < at && end - first >= MAX_POSITIONS {
                return Err(EngineError::Unsupported(format!(
                    "inserting {n} at {at} would stretch the region at {first}..={last} \
                     past {MAX_POSITIONS} positions"
                )));
            }
            if first < at && region.translator.kind() == ModelKind::Tom {
                return Err(EngineError::Unsupported(format!(
                    "inserting at {at} lands inside the linked table at {first}..={last}"
                )));
            }
        }
        Ok(())
    }

    pub fn delete_rows(&mut self, at: u32, n: u32) -> Result<(), EngineError> {
        if self.catchall.rows() > at {
            self.catchall.delete_rows(at, n)?;
            self.catchall_dirty = true;
        }
        let end = at.saturating_add(n); // exclusive
        let mut doomed = Vec::new();
        for (i, region) in self.regions.iter_mut().enumerate() {
            if region.rect.r1 >= end {
                // Entirely below: shift up.
                region.rect = region.rect.translate(-(n as i64), 0);
            } else if region.rect.r2 < at {
                // Entirely above: untouched.
            } else {
                // Overlap: delete the covered local rows.
                let first = at.max(region.rect.r1);
                let last = (end - 1).min(region.rect.r2);
                let k = last - first + 1;
                if k as u64 >= region.rect.rows() {
                    doomed.push(i);
                    continue;
                }
                region.dirty = true;
                region.translator.delete_rows(first - region.rect.r1, k)?;
                // Deleted rows strictly above the region shift it up; the
                // k rows removed inside shrink it.
                let deleted_above = region.rect.r1.saturating_sub(at);
                region.rect.r1 -= deleted_above;
                region.rect.r2 -= deleted_above + k;
            }
        }
        for i in doomed.into_iter().rev() {
            self.regions.remove(i);
        }
        self.rebuild_routing();
        Ok(())
    }

    pub fn insert_cols(&mut self, at: u32, n: u32) -> Result<(), EngineError> {
        self.refuse_insert(at, n, |r| (r.c1, r.c2))?;
        if self.catchall.cols() > at {
            self.catchall.insert_cols(at, n)?;
            self.catchall_dirty = true;
        }
        for region in &mut self.regions {
            if at <= region.rect.c1 {
                region.rect = region.rect.translate(0, n as i64);
            } else if at <= region.rect.c2 {
                region.translator.insert_cols(at - region.rect.c1, n)?;
                region.rect.c2 += n;
                region.dirty = true;
            }
        }
        self.rebuild_routing();
        Ok(())
    }

    pub fn delete_cols(&mut self, at: u32, n: u32) -> Result<(), EngineError> {
        let end = at.saturating_add(n);
        // A linked table has a fixed schema: refuse, before anything moves,
        // a delete taking some of its columns but not all.
        let crossed = self.regions.iter().find(|region| {
            let Rect { c1, c2, .. } = region.rect;
            region.translator.kind() == ModelKind::Tom
                && at <= c2
                && end > c1
                && (at > c1 || end <= c2)
        });
        if let Some(region) = crossed {
            return Err(EngineError::Unsupported(format!(
                "deleting columns {at}..{end} crosses the linked table at {}",
                region.rect
            )));
        }
        if self.catchall.cols() > at {
            self.catchall.delete_cols(at, n)?;
            self.catchall_dirty = true;
        }
        let mut doomed = Vec::new();
        for (i, region) in self.regions.iter_mut().enumerate() {
            if region.rect.c1 >= end {
                region.rect = region.rect.translate(0, -(n as i64));
            } else if region.rect.c2 < at {
                // untouched
            } else {
                let first = at.max(region.rect.c1);
                let last = (end - 1).min(region.rect.c2);
                let k = last - first + 1;
                if k as u64 >= region.rect.cols() {
                    doomed.push(i);
                    continue;
                }
                region.dirty = true;
                region.translator.delete_cols(first - region.rect.c1, k)?;
                let deleted_left = region.rect.c1.saturating_sub(at);
                region.rect.c1 -= deleted_left;
                region.rect.c2 -= deleted_left + k;
            }
        }
        for i in doomed.into_iter().rev() {
            self.regions.remove(i);
        }
        self.rebuild_routing();
        Ok(())
    }

    /// Visit every non-blank cell of `rect` in sheet coordinates, store by
    /// store: the catch-all, then each region crossing `rect` — each store
    /// in row-major order ([`Translator::scan`]), the whole not, so this is
    /// for consumers that place a cell by its address
    /// ([`HybridSheet::scan`] is the ordered read). Linked tables are
    /// skipped unless `include_tom`.
    pub fn scan_stores(&self, rect: Rect, include_tom: bool, f: &mut CellVisitor<'_>) {
        self.catchall.scan(rect, f);
        for i in self.routing.regions_intersecting(&rect) {
            let region = &self.regions[i];
            if !include_tom && region.translator.kind() == ModelKind::Tom {
                continue;
            }
            if let Some(share) = region.share_of(&rect) {
                share.scan(&mut *f);
            }
        }
    }

    /// All non-blank cells as an in-memory sheet. `include_tom` controls
    /// whether linked-table regions are materialized. Each cell is cloned
    /// once, off the scan, into the list the sheet is bulk-built from.
    pub fn snapshot(&self, include_tom: bool) -> SparseSheet {
        let mut cells = Vec::with_capacity(self.filled_count() as usize);
        self.scan_stores(WHOLE, include_tom, &mut |row, col, value, formula| {
            cells.push(((row, col), value.to_cell(formula)));
        });
        SparseSheet::from_filled(cells)
    }

    /// Which positions hold a cell — all the hybrid optimizers read of a
    /// sheet — straight off the scan: no cell is cloned and no sheet built.
    /// `include_tom` as in [`HybridSheet::snapshot`] (the optimizer
    /// excludes linked tables: they are not re-representable).
    pub fn occupancy(&self, include_tom: bool) -> Occupancy {
        Occupancy::from_visits(|fill| {
            self.scan_stores(WHOLE, include_tom, &mut |row, col, _, _| fill(row, col));
        })
    }

    /// Reorganize storage to a new decomposition (the hybrid optimizer's
    /// output).
    ///
    /// A region whose `(rect, kind)` the decomposition lists unchanged is
    /// *kept* — same slot id, same translator, same dirty flag — as are
    /// linked tables and a catch-all no cell enters or leaves; the
    /// migration paid is the one `hybrid::incremental` prices. Everything
    /// else is gathered as one row-major run, split by target region once,
    /// and bulk-built ([`build_translator`]) *beside* the live sheet: the
    /// new stores are swapped in only when every one of them was built, so
    /// an error (a row wider than a tuple's arity header, a rect over a
    /// linked table) leaves the sheet exactly as it was.
    ///
    /// Returns the number of cells written into rebuilt stores; kept
    /// stores contribute none.
    pub fn reorganize(&mut self, decomp: &Decomposition) -> Result<u64, EngineError> {
        // TOM regions are created by linkTable only.
        let wanted: HashSet<(Rect, ModelKind)> = decomp
            .regions
            .iter()
            .filter(|r| r.kind != ModelKind::Tom)
            .map(|r| (r.rect, r.kind))
            .collect();
        let kept: Vec<bool> = self
            .regions
            .iter()
            .map(|r| {
                let kind = r.translator.kind();
                kind == ModelKind::Tom || wanted.contains(&(r.rect, kind))
            })
            .collect();
        let kept_slots: Vec<(Rect, ModelKind)> = self
            .regions
            .iter()
            .zip(&kept)
            .filter(|(_, &k)| k)
            .map(|(r, _)| (r.rect, r.translator.kind()))
            .collect();
        let mut fresh: Vec<Region> = Vec::new();
        for region in &decomp.regions {
            if region.kind == ModelKind::Tom || kept_slots.contains(&(region.rect, region.kind)) {
                continue;
            }
            let taken = kept_slots
                .iter()
                .map(|(rect, _)| rect)
                .chain(fresh.iter().map(|f| &f.rect));
            if let Some(other) = taken.into_iter().find(|r| r.intersects(&region.rect)) {
                return Err(EngineError::BadLink(format!(
                    "region {} overlaps region {other}",
                    region.rect
                )));
            }
            fresh.push(*region);
        }
        if fresh.is_empty() && kept.iter().all(|&k| k) {
            return Ok(0);
        }

        // Gather what must be re-homed, and split it by target region.
        let fresh_rects: Vec<Rect> = fresh.iter().map(|r| r.rect).collect();
        let targets = RoutingIndex::build(&fresh_rects);
        let mut cells = Vec::new();
        gather(self.catchall.as_ref(), (0, 0), &mut cells);
        let catchall_cells = cells.len();
        let leaving = cells
            .iter()
            .filter(|(a, _)| targets.route(*a).is_some())
            .count();
        for (region, _) in self.regions.iter().zip(&kept).filter(|(_, &k)| !k) {
            gather(
                region.translator.as_ref(),
                (region.rect.r1, region.rect.c1),
                &mut cells,
            );
        }
        // Each source is a row-major run, so this is a merge.
        cells.sort_by_key(|(a, _)| (a.row, a.col));
        let mut parts: Vec<Vec<(CellAddr, Cell)>> = fresh.iter().map(|_| Vec::new()).collect();
        let mut strays = Vec::new();
        for (addr, cell) in cells {
            match targets.route(addr) {
                Some(i) => {
                    let rect = fresh_rects[i];
                    parts[i].push((addr.offset(-(rect.r1 as i64), -(rect.c1 as i64)), cell));
                }
                None => strays.push((addr, cell)),
            }
        }
        let arriving = strays.len() - (catchall_cells - leaving);

        // Build beside the live sheet; nothing below this block can fail.
        let mut migrated = 0u64;
        let mut built = Vec::with_capacity(fresh.len());
        for (region, part) in fresh.iter().zip(parts) {
            migrated += part.len() as u64;
            built.push(build_translator(
                region.kind,
                region.rect.rows() as u32,
                region.rect.cols() as u32,
                part,
            )?);
        }
        let catchall = if leaving == 0 && arriving == 0 {
            None
        } else {
            migrated += strays.len() as u64;
            Some(build_translator(ModelKind::Rcv, 0, 0, strays)?)
        };

        let mut kept = kept.into_iter();
        self.regions
            .retain(|_| kept.next().expect("one flag per slot"));
        for (region, translator) in fresh.iter().zip(built) {
            let id = self.next_region_id;
            self.next_region_id += 1;
            self.regions.push(RegionSlot {
                id,
                rect: region.rect,
                translator,
                dirty: true,
                clean_stamp: None,
            });
        }
        if let Some(catchall) = catchall {
            self.catchall = catchall;
            self.catchall_dirty = true;
        }
        self.rebuild_routing();
        Ok(migrated)
    }

    /// Rebuild one region's storage in place under a different model,
    /// keeping its identity and rectangle (the hot-region migration path:
    /// a large read-mostly ROM region converts to columnar without a
    /// whole-sheet reorganization). TOM regions are linked tables and
    /// cannot convert either way. The new store is built first and
    /// replaces the old one only on success.
    pub fn migrate_region(&mut self, slot: usize, kind: ModelKind) -> Result<(), EngineError> {
        let region = self
            .regions
            .get_mut(slot)
            .ok_or_else(|| EngineError::BadLink(format!("no region slot {slot}")))?;
        let from = region.translator.kind();
        if from == kind {
            return Ok(());
        }
        if from == ModelKind::Tom || kind == ModelKind::Tom {
            return Err(EngineError::BadLink(
                "TOM regions are created by linkTable and cannot be migrated".into(),
            ));
        }
        // The source walks its store in order and the target's builder
        // takes the cells as borrows: no cell list in between.
        let mut b = RegionBuilder::new(kind, region.rect.rows() as u32, region.rect.cols() as u32);
        b.push_scan(region.translator.as_ref())?;
        region.translator = b.finish()?;
        region.dirty = true;
        region.clean_stamp = None;
        Ok(())
    }

    /// The aggregate push-down: when `rect` is a single-column range inside
    /// one columnar region, fold that column's typed runs
    /// ([`ColumnarTranslator::column_agg`]) instead of streaming its cells.
    /// `None` everywhere else — the evaluator folds [`HybridSheet::scan`]
    /// itself, which is all a fold over any other layout would do.
    pub fn range_agg(&self, rect: Rect) -> Option<RangeAgg> {
        if rect.c1 != rect.c2 || rect.r1 > rect.r2 {
            return None;
        }
        let region = self.sole_region(&rect)?;
        let t = region.translator.as_columnar()?;
        let local = rect.translate(-(region.rect.r1 as i64), -(region.rect.c1 as i64));
        Some(t.column_agg(local.c1, local.r1, local.r2))
    }

    /// The former columnar-only window path: when `rect` is served entirely
    /// by one columnar region, stream its values (including empty
    /// positions, row-major) through `f` as `(sheet row, sheet col, value,
    /// formula)`; `false` — emitting nothing — otherwise. Superseded by
    /// [`HybridSheet::scan`]: it has no caller under `crates/` outside
    /// tests and stays only because `bench_e2e` (frozen for this change)
    /// still calls it; the next benchmark change re-points that call at
    /// [`HybridSheet::scan`] and deletes this.
    pub fn scan_columnar_window(
        &self,
        rect: Rect,
        mut f: impl FnMut(u32, u32, ScanValue<'_>, Option<&str>),
    ) -> bool {
        let Some(region) = self.sole_region(&rect) else {
            return false;
        };
        let Some(t) = region.translator.as_columnar() else {
            return false;
        };
        let local = rect.translate(-(region.rect.r1 as i64), -(region.rect.c1 as i64));
        t.scan_rect(local, |row, col, v, formula| {
            f(row + region.rect.r1, col + region.rect.c1, v, formula)
        });
        true
    }

    /// The region serving *all* of `rect`. Full containment also proves
    /// the catch-all is empty inside `rect`: any cell there would have
    /// routed into the region.
    fn sole_region(&self, rect: &Rect) -> Option<&RegionSlot> {
        let hits = self.routing.regions_intersecting(rect);
        let [slot] = hits[..] else {
            return None;
        };
        let region = &self.regions[slot];
        (region.rect.intersection(rect) == Some(*rect)).then_some(region)
    }

    /// Accounted storage bytes across regions and the catch-all.
    pub fn storage_bytes(&self) -> u64 {
        self.catchall.storage_bytes()
            + self
                .regions
                .iter()
                .map(|r| r.translator.storage_bytes())
                .sum::<u64>()
    }

    pub fn filled_count(&self) -> u64 {
        self.catchall.filled_count()
            + self
                .regions
                .iter()
                .map(|r| r.translator.filled_count())
                .sum::<u64>()
    }

    /// Estimated resident (in-memory) bytes across regions and the
    /// catch-all ([`Translator::resident_bytes`]); differs from
    /// [`HybridSheet::storage_bytes`] for compressed layouts.
    pub fn resident_bytes(&self) -> u64 {
        self.catchall.resident_bytes()
            + self
                .regions
                .iter()
                .map(|r| r.translator.resident_bytes())
                .sum::<u64>()
    }

    /// Per-region resident-byte accounting: `(rect, kind, resident bytes)`
    /// for every region, the catch-all excluded.
    pub fn region_resident_bytes(&self) -> Vec<(Rect, ModelKind, u64)> {
        self.regions
            .iter()
            .map(|r| (r.rect, r.translator.kind(), r.translator.resident_bytes()))
            .collect()
    }
}

/// The [`CellReader`](dataspread_formula::eval::CellReader) over hybrid
/// storage: what recomputation reads through, and what benchmarks use to
/// measure raw formula access cost against different data models
/// (Figure 15b / 17b).
pub struct StorageReader<'a>(pub &'a HybridSheet);

impl dataspread_formula::eval::CellReader for StorageReader<'_> {
    fn value(&self, addr: CellAddr) -> dataspread_grid::CellValue {
        self.0
            .get_cell(addr)
            .map(|c| c.value)
            .unwrap_or(dataspread_grid::CellValue::Empty)
    }

    fn for_each_value(&self, rect: Rect, f: &mut dyn FnMut(CellAddr, ScanValue<'_>)) {
        self.0.scan(rect, |row, col, value, _| {
            if !matches!(value, ScanValue::Empty) {
                f(CellAddr::new(row, col), value);
            }
        });
    }

    fn range_agg(&self, rect: Rect) -> Option<RangeAgg> {
        self.0.range_agg(rect)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::com::ComTranslator;
    use crate::rom::RomTranslator;
    use dataspread_grid::CellValue;

    /// Regions currently flagged dirty (catch-all included; stamp-based
    /// dirtiness of TOM regions is not counted — it is only known at
    /// image-capture time).
    fn dirty_region_count(hs: &HybridSheet) -> usize {
        hs.regions.iter().filter(|r| r.dirty).count() + usize::from(hs.catchall_dirty)
    }

    fn addr(r: u32, c: u32) -> CellAddr {
        CellAddr::new(r, c)
    }

    fn sheet_with_rom_region() -> HybridSheet {
        let mut hs = HybridSheet::new();
        let rom = Box::new(RomTranslator::new());
        hs.add_region(Rect::new(10, 10, 19, 14), rom).unwrap();
        hs
    }

    /// The O(log regions) routing claim as a count: over 2 048 row bands
    /// of 10 × 8 cells with 2-row gaps, the index lists each region in
    /// at most two elementary bands, so its size is O(regions) and a
    /// route is two binary searches over it.
    #[test]
    fn band_layout_routing_index_stays_linear() {
        const REGIONS: u32 = 2048;
        let rects: Vec<Rect> = (0..REGIONS)
            .map(|i| Rect::new(i * 12, 0, i * 12 + 9, 7))
            .collect();
        let index = RoutingIndex::build(&rects);
        let incidence: usize = index.bands.iter().map(|b| b.cols.len()).sum();
        assert!(
            incidence <= 2 * REGIONS as usize,
            "{incidence} band-region entries for {REGIONS} regions"
        );
        assert_eq!(index.route(addr(7 * 12 + 3, 5)), Some(7));
        assert_eq!(index.route(addr(7 * 12 + 10, 5)), None);
    }

    #[test]
    fn routing_region_vs_catchall() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(10, 10), Cell::value(1i64)).unwrap();
        hs.set_cell(addr(0, 0), Cell::value(2i64)).unwrap();
        assert_eq!(
            hs.get_cell(addr(10, 10)).unwrap().value,
            CellValue::Number(1.0)
        );
        assert_eq!(
            hs.get_cell(addr(0, 0)).unwrap().value,
            CellValue::Number(2.0)
        );
        assert_eq!(hs.layout().len(), 1);
        assert_eq!(hs.filled_count(), 2);
    }

    #[test]
    fn add_region_absorbs_strays_and_rejects_overlap() {
        let mut hs = HybridSheet::new();
        hs.set_cell(addr(5, 5), Cell::value(7i64)).unwrap();
        let rom = Box::new(RomTranslator::new());
        hs.add_region(Rect::new(0, 0, 9, 9), rom).unwrap();
        // The stray moved out of the catch-all into the region.
        assert_eq!(hs.catchall.filled_count(), 0);
        assert_eq!(
            hs.get_cell(addr(5, 5)).unwrap().value,
            CellValue::Number(7.0)
        );
        let rom2 = Box::new(RomTranslator::new());
        assert!(hs.add_region(Rect::new(9, 9, 12, 12), rom2).is_err());
    }

    #[test]
    fn get_cells_merges_regions_and_catchall() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(1i64)).unwrap();
        hs.set_cell(addr(5, 12), Cell::value(2i64)).unwrap();
        let cells = hs.get_cells(Rect::new(0, 0, 30, 30));
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].0, addr(5, 12), "row-major merge");
        assert_eq!(cells[1].0, addr(12, 12));
    }

    #[test]
    fn sheet_row_insert_shifts_regions_below() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(1i64)).unwrap();
        hs.insert_rows(0, 5).unwrap();
        assert_eq!(hs.layout()[0].0, Rect::new(15, 10, 24, 14));
        assert_eq!(
            hs.get_cell(addr(17, 12)).unwrap().value,
            CellValue::Number(1.0)
        );
        assert_eq!(hs.get_cell(addr(12, 12)), None);
    }

    #[test]
    fn sheet_row_insert_inside_region_grows_it() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(1i64)).unwrap();
        hs.insert_rows(11, 2).unwrap();
        assert_eq!(hs.layout()[0].0, Rect::new(10, 10, 21, 14));
        assert_eq!(
            hs.get_cell(addr(14, 12)).unwrap().value,
            CellValue::Number(1.0)
        );
    }

    #[test]
    fn delete_rows_across_regions() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(1i64)).unwrap();
        hs.set_cell(addr(19, 10), Cell::value(2i64)).unwrap();
        // Delete rows 11..13 (2 rows, one above the value at 12? no: 11,12).
        hs.delete_rows(11, 2).unwrap();
        assert_eq!(hs.layout()[0].0, Rect::new(10, 10, 17, 14));
        assert_eq!(hs.get_cell(addr(12, 12)), None, "row 12 was deleted");
        assert_eq!(
            hs.get_cell(addr(17, 10)).unwrap().value,
            CellValue::Number(2.0)
        );
    }

    #[test]
    fn delete_covering_whole_region_drops_it() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(1i64)).unwrap();
        hs.delete_rows(5, 30).unwrap();
        assert_eq!(hs.region_count(), 0);
        assert_eq!(hs.filled_count(), 0);
    }

    #[test]
    fn column_edits_mirror_row_edits() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(1i64)).unwrap();
        hs.insert_cols(0, 3).unwrap();
        assert_eq!(hs.layout()[0].0, Rect::new(10, 13, 19, 17));
        assert_eq!(
            hs.get_cell(addr(12, 15)).unwrap().value,
            CellValue::Number(1.0)
        );
        hs.delete_cols(13, 1).unwrap();
        assert_eq!(hs.layout()[0].0, Rect::new(10, 13, 19, 16));
        assert_eq!(
            hs.get_cell(addr(12, 14)).unwrap().value,
            CellValue::Number(1.0)
        );
    }

    #[test]
    fn snapshot_and_reorganize_roundtrip() {
        let mut hs = HybridSheet::new();
        for r in 0..8 {
            for c in 0..4 {
                hs.set_cell(addr(r, c), Cell::value((r * 4 + c) as i64))
                    .unwrap();
            }
        }
        hs.set_cell(addr(50, 50), Cell::value(99i64)).unwrap();
        let before = hs.snapshot(true);
        let decomp = Decomposition::new(vec![
            Region {
                rect: Rect::new(0, 0, 7, 3),
                kind: ModelKind::Rom,
            },
            Region {
                rect: Rect::new(50, 50, 50, 50),
                kind: ModelKind::Rcv,
            },
        ]);
        let migrated = hs.reorganize(&decomp).unwrap();
        assert_eq!(migrated, 33);
        assert_eq!(hs.region_count(), 2);
        assert_eq!(hs.snapshot(true), before, "reorganization preserves cells");
        assert_eq!(
            hs.get_cell(addr(3, 2)).unwrap().value,
            CellValue::Number(14.0)
        );
    }

    /// Two cells 40 000 columns apart as one ROM region need a tuple wider
    /// than its `u16` arity header: the rebuild must fail *beside* the
    /// sheet, not inside it. A 3 000-cell column as one COM region — one
    /// long tuple — builds.
    #[test]
    fn failed_reorganize_leaves_the_sheet_untouched() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(5i64)).unwrap();
        for r in 0..3000 {
            hs.set_cell(addr(r, 0), Cell::value(r as i64)).unwrap();
        }
        hs.set_cell(addr(0, 40_000), Cell::value(-1i64)).unwrap();
        hs.clear_dirty();
        let before = (hs.snapshot(true), hs.layout(), hs.filled_count());
        let ids: Vec<u64> = hs.regions.iter().map(|r| r.id).collect();

        let too_wide = Decomposition::new(vec![Region {
            rect: Rect::new(0, 0, 0, 40_000),
            kind: ModelKind::Rom,
        }]);
        let err = hs.reorganize(&too_wide).unwrap_err();
        assert!(
            matches!(err, EngineError::Store(StoreError::LimitExceeded(_))),
            "{err}"
        );
        let overlapping = Decomposition::new(vec![
            Region {
                rect: Rect::new(0, 0, 99, 0),
                kind: ModelKind::Rom,
            },
            Region {
                rect: Rect::new(50, 0, 2999, 0),
                kind: ModelKind::Rom,
            },
        ]);
        assert!(matches!(
            hs.reorganize(&overlapping),
            Err(EngineError::BadLink(_))
        ));

        assert_eq!((hs.snapshot(true), hs.layout(), hs.filled_count()), before);
        assert_eq!(hs.regions.iter().map(|r| r.id).collect::<Vec<_>>(), ids);
        assert_eq!(dirty_region_count(&hs), 0, "nothing was rewritten");
        assert_eq!(hs.region_at(addr(12, 12)), Some(0), "routing still serves");

        let long_com = Decomposition::new(vec![Region {
            rect: Rect::new(0, 0, 2999, 0),
            kind: ModelKind::Com,
        }]);
        hs.reorganize(&long_com).unwrap();
        assert_eq!(
            hs.layout(),
            vec![(Rect::new(0, 0, 2999, 0), ModelKind::Com)]
        );
        assert_eq!((hs.snapshot(true), hs.filled_count()), (before.0, before.2));
    }

    #[test]
    fn reorganize_keeps_regions_the_decomposition_leaves_alone() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(5i64)).unwrap();
        for r in 30..34 {
            hs.set_cell(addr(r, 1), Cell::value(r as i64)).unwrap();
        }
        hs.set_cell(addr(90, 90), Cell::value(9i64)).unwrap();
        hs.clear_dirty();
        let rom_id = hs.regions[0].id;
        let before = hs.snapshot(true);

        // Same ROM region, plus a new home for four of the five strays.
        let decomp = Decomposition::new(vec![
            Region {
                rect: Rect::new(30, 1, 33, 1),
                kind: ModelKind::Rcv,
            },
            Region {
                rect: Rect::new(10, 10, 19, 14),
                kind: ModelKind::Rom,
            },
        ]);
        let migrated = hs.reorganize(&decomp).unwrap();
        assert_eq!(
            migrated, 5,
            "four cells moved, one rewritten with the catch-all"
        );
        assert_eq!(hs.snapshot(true), before);
        assert_eq!(
            hs.layout(),
            vec![
                (Rect::new(10, 10, 19, 14), ModelKind::Rom),
                (Rect::new(30, 1, 33, 1), ModelKind::Rcv),
            ]
        );
        assert_eq!(hs.regions[0].id, rom_id, "kept slot keeps its identity");
        assert!(!hs.regions[0].dirty, "and its clean flag");
        assert!(hs.regions[1].dirty && hs.catchall_dirty);
        assert_eq!(hs.catchall.filled_count(), 1);

        // Nothing left to move: the same decomposition is now a no-op.
        hs.clear_dirty();
        assert_eq!(hs.reorganize(&decomp).unwrap(), 0);
        assert_eq!(dirty_region_count(&hs), 0);
        // A kind change rebuilds that region alone; the catch-all, which
        // no cell enters or leaves, stays clean.
        let as_com = Decomposition::new(vec![
            Region {
                rect: Rect::new(30, 1, 33, 1),
                kind: ModelKind::Com,
            },
            Region {
                rect: Rect::new(10, 10, 19, 14),
                kind: ModelKind::Rom,
            },
        ]);
        assert_eq!(hs.reorganize(&as_com).unwrap(), 4);
        assert_eq!(dirty_region_count(&hs), 1);
        assert_eq!(hs.regions[0].id, rom_id);
        assert_eq!(hs.snapshot(true), before);
    }

    #[test]
    fn dissolved_region_cells_fall_back_to_the_catchall() {
        let mut hs = sheet_with_rom_region();
        hs.set_cell(addr(12, 12), Cell::value(5i64)).unwrap();
        hs.set_cell(addr(0, 0), Cell::value(1i64)).unwrap();
        let before = hs.snapshot(true);
        let migrated = hs.reorganize(&Decomposition::default()).unwrap();
        assert_eq!(migrated, 2);
        assert_eq!(hs.region_count(), 0);
        assert_eq!(hs.catchall.filled_count(), 2);
        assert_eq!(hs.snapshot(true), before);
    }

    #[test]
    fn failed_add_region_leaves_the_strays_in_the_catchall() {
        let mut hs = HybridSheet::new();
        for r in 0..3000 {
            hs.set_cell(addr(r, 0), Cell::value(r as i64)).unwrap();
        }
        hs.set_cell(addr(0, 40_000), Cell::value(-1i64)).unwrap();
        let before = hs.snapshot(true);
        let rom = Box::new(RomTranslator::new());
        assert!(matches!(
            hs.add_region(Rect::new(0, 0, 0, 40_000), rom),
            Err(EngineError::Store(StoreError::LimitExceeded(_)))
        ));
        assert_eq!(hs.region_count(), 0);
        assert_eq!(hs.snapshot(true), before);
        assert_eq!(hs.catchall.filled_count(), 3001);

        // One COM tuple for the whole 3 000-row column fits.
        let com = Box::new(ComTranslator::new());
        hs.add_region(Rect::new(0, 0, 2999, 0), com).unwrap();
        assert_eq!(hs.region_count(), 1);
        assert_eq!(hs.catchall.filled_count(), 1);
        assert_eq!(hs.snapshot(true), before);
    }

    // ---------------------------------------- streamed image equivalence --

    use crate::durable::{decode_cells, encode_cells};
    use dataspread_grid::value::CellError;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const BUILT_KINDS: [ModelKind; 4] = [
        ModelKind::Rom,
        ModelKind::Com,
        ModelKind::Rcv,
        ModelKind::Tom,
    ];

    fn random_cell(rng: &mut StdRng) -> Cell {
        let value = match rng.gen_range(0u32..10) {
            0..=2 => CellValue::Number(rng.gen_range(-1000..1000) as f64 / 8.0),
            3 => CellValue::Bool(rng.gen_bool(0.5)),
            4..=5 => CellValue::Text(["red", "", "héllo"][rng.gen_range(0..3)].into()),
            6 => CellValue::Text("x".repeat(rng.gen_range(40..90))),
            7 => CellValue::Error([CellError::Div0, CellError::Circular][rng.gen_range(0..2)]),
            _ => CellValue::Empty,
        };
        let formula = rng
            .gen_bool(0.2)
            .then(|| format!("A{}+1", rng.gen_range(1..50)));
        Cell { value, formula }
    }

    /// A random sparse run of non-blank cells: blank leading, interior and
    /// trailing rows, ragged widths.
    fn random_run(rng: &mut StdRng, rows: u32, cols: u32) -> Vec<(CellAddr, Cell)> {
        let mut cells = Vec::new();
        for r in rng.gen_range(0..rows)..rows {
            if rng.gen_bool(0.25) {
                continue;
            }
            for c in 0..rng.gen_range(1..=cols) {
                let cell = random_cell(rng);
                if rng.gen_bool(0.7) && !cell.is_blank() {
                    cells.push((addr(r, c), cell));
                }
            }
        }
        cells
    }

    fn linked_table(rows: i64) -> Box<dyn Translator> {
        use dataspread_relstore::{ColumnDef, DataType, Database, Datum, Schema};
        let db = std::sync::Arc::new(parking_lot::RwLock::new(Database::new()));
        {
            let mut guard = db.write();
            let schema = Schema::new(vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Text),
            ]);
            let t = guard.create_table("t", schema).unwrap();
            for i in 0..rows {
                let name = if i % 3 == 0 {
                    Datum::Null
                } else {
                    Datum::Text(format!("n{i}"))
                };
                t.insert(&[Datum::Int(i), name]).unwrap();
            }
        }
        Box::new(crate::tom::TomTranslator::new(db, "t"))
    }

    /// (a) What `region_images` streams off each store's scan is byte for
    /// byte what the list encoder made of the store's sorted cell list —
    /// for every layout and for the catch-all.
    #[test]
    fn streamed_payloads_equal_the_list_encoder_for_every_layout() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(0x1A6E + seed);
            let mut hs = HybridSheet::new();
            for (i, kind) in [ModelKind::Rom, ModelKind::Com, ModelKind::Rcv]
                .into_iter()
                .enumerate()
            {
                let run = random_run(&mut rng, 24, 6);
                let t = build_translator(kind, 24, 6, run).unwrap();
                hs.add_region(Rect::new(i as u32 * 30, 2, i as u32 * 30 + 23, 7), t)
                    .unwrap();
            }
            hs.add_region(Rect::new(90, 0, 98, 1), linked_table(9))
                .unwrap();
            let columnar = {
                let run = random_run(&mut rng, 24, 6);
                build_translator(ModelKind::Columnar, 24, 6, run).unwrap()
            };
            hs.add_region(Rect::new(100, 2, 123, 7), columnar).unwrap();
            for _ in 0..60 {
                let at = addr(rng.gen_range(0..130), rng.gen_range(0..12));
                // Linked tables refuse writes past their rows.
                let _ = hs.set_cell(at, random_cell(&mut rng));
            }

            let images = hs.region_images();
            assert_eq!(images.len(), 6);
            assert_eq!(
                images[0].payload.as_deref(),
                Some(&encode_cells(&hs.catchall.all_cells())[..]),
                "seed {seed}: catch-all"
            );
            assert!(hs.catchall.filled_count() > 0);
            for (image, region) in images[1..].iter().zip(&hs.regions) {
                assert_eq!(image.id, region.id);
                let mut cells = region.translator.all_cells();
                cells.sort_by_key(|(a, _)| (a.row, a.col));
                let want = match region.translator.as_columnar() {
                    Some(t) => build_translator(ModelKind::Columnar, t.rows(), t.cols(), cells)
                        .unwrap()
                        .encoded_image()
                        .unwrap(),
                    None => encode_cells(&cells),
                };
                assert_eq!(
                    image.payload.as_ref(),
                    Some(&want),
                    "seed {seed}: {:?} region",
                    image.kind
                );
            }
        }
    }

    /// What `build_translator` replaced, for (b): one `set_cell` per cell.
    fn per_cell(kind: ModelKind, cells: &[(CellAddr, Cell)]) -> Box<dyn Translator> {
        let mut t: Box<dyn Translator> = match kind {
            ModelKind::Rom => Box::new(RomTranslator::new()),
            ModelKind::Com => Box::new(ComTranslator::new()),
            _ => Box::new(RcvTranslator::new()),
        };
        for (a, c) in cells {
            t.set_cell(a.row, a.col, c.clone()).unwrap();
        }
        t
    }

    /// (b) A payload visited into the region's builder yields the region
    /// the decoded cell list built — bulk or one `set_cell` at a time —
    /// and the formula cells met on the way, in sheet coordinates.
    #[test]
    fn a_visited_payload_builds_what_the_decoded_list_built() {
        for seed in 0..12u64 {
            for kind in BUILT_KINDS {
                let mut rng = StdRng::seed_from_u64(0xB1D + seed * 8 + kind as u64);
                let run = random_run(&mut rng, 20, 7);
                let payload = encode_cells(&run);
                let rect = Rect::new(5, 3, 24, 9);
                let ctx = format!("{kind:?} seed {seed}");

                let mut hs = HybridSheet::new();
                let formulas = hs
                    .restore_regions([(7, kind, rect, payload.clone())])
                    .unwrap();
                let restored = &hs.regions[0];
                assert_eq!((restored.id, restored.rect), (7, rect), "{ctx}");

                let decoded = decode_cells(&payload).unwrap();
                assert_eq!(decoded, run, "{ctx}");
                let listed = build_translator(kind, 20, 7, decoded).unwrap();
                for (what, oracle) in [("list-built", listed), ("set_cell", per_cell(kind, &run))] {
                    let t = &restored.translator;
                    assert_eq!(t.kind(), oracle.kind(), "{ctx} vs {what}");
                    assert_eq!(
                        (t.rows(), t.cols(), t.filled_count(), t.storage_bytes()),
                        (
                            oracle.rows(),
                            oracle.cols(),
                            oracle.filled_count(),
                            oracle.storage_bytes()
                        ),
                        "{ctx} vs {what}"
                    );
                    assert_eq!(t.all_cells(), oracle.all_cells(), "{ctx} vs {what}");
                }
                let want: Vec<(CellAddr, String)> = run
                    .iter()
                    .filter_map(|(a, c)| Some((a.offset(5, 3), c.formula.clone()?)))
                    .collect();
                assert_eq!(formulas, want, "{ctx}: formulas to re-register");

                // The catch-all takes the same payload in sheet coordinates.
                let mut hs = HybridSheet::new();
                let formulas = hs.restore_catchall(&payload).unwrap();
                assert_eq!(hs.catchall.all_cells(), run, "{ctx}: catch-all");
                assert_eq!(formulas.len(), want.len(), "{ctx}: catch-all formulas");
            }
        }
    }

    /// (c) Every malformed payload is rejected by the streamed path, with
    /// no region installed and the catch-all left as it was. A run out of
    /// order or with an address twice cannot be written at all (gaps are
    /// unsigned); what stands in for it is a gap past `u32::MAX`, an empty
    /// row and a varint that is not in its shortest form.
    #[test]
    fn a_rejected_payload_installs_nothing() {
        let run = vec![
            (addr(0, 0), Cell::value(1.5)),
            (
                addr(0, 2),
                Cell {
                    value: CellValue::Text("héllo".into()),
                    formula: Some("A1&\"x\"".into()),
                },
            ),
            (addr(3, 1), Cell::value(true)),
            (addr(3, 4), Cell::value(CellValue::Error(CellError::Na))),
            (
                addr(9, 0),
                Cell {
                    value: CellValue::Empty,
                    formula: Some("B2".into()),
                },
            ),
        ];
        let good = encode_cells(&run);
        let mut bad: Vec<(String, Vec<u8>)> = (0..good.len())
            .map(|cut| (format!("truncated at byte {cut}"), good[..cut].to_vec()))
            .collect();
        let mut trailing = good.clone();
        trailing.push(0);
        bad.push(("trailing byte".into(), trailing));
        // One cell at (0,0): 1 row, row gap 0, 1 cell in a dense row, first
        // column 0, then the tag at byte 4 and its body from byte 5.
        let one = |cell: Cell| encode_cells(&[(addr(0, 0), cell)]);
        let patched = |mut bytes: Vec<u8>, at: usize, to: u8| {
            bytes[at] = to;
            bytes
        };
        let one_true = [1, 0, 3, 0, 5];
        assert_eq!(one(Cell::value(true)), one_true);
        let raw = |parts: &[&[u8]]| parts.concat();
        let past_2_53 = {
            let mut z = Vec::new();
            dataspread_grid::codec::put_uvarint(&mut z, ((1u64 << 53) + 1) << 1);
            z
        };
        bad.extend([
            ("unknown kind 7".into(), patched(one_true.to_vec(), 4, 7)),
            (
                "modifier on a bool".into(),
                patched(one_true.to_vec(), 4, 0x15),
            ),
            (
                "blank cell without a formula".into(),
                patched(one_true.to_vec(), 4, 0),
            ),
            (
                "unknown error code".into(),
                patched(one(Cell::value(CellValue::Error(CellError::Na))), 5, 200),
            ),
            (
                "value text not UTF-8".into(),
                patched(one(Cell::value("ab")), 6, 0xFF),
            ),
            (
                "formula source not UTF-8".into(),
                patched(one(Cell::formula("A1")), 6, 0xFF),
            ),
            // Kind 2 (Float) holding 1.0, which only Int may hold.
            (
                "integral float".into(),
                raw(&[&[1, 0, 3, 0, 2], &1.0f64.to_le_bytes()]),
            ),
            (
                "integer past 2^53".into(),
                raw(&[&[1, 0, 3, 0, 1], &past_2_53]),
            ),
            (
                "row gap past u32::MAX".into(),
                raw(&[&[1], &[0x80, 0x80, 0x80, 0x80, 0x10], &[3, 0, 5]]),
            ),
            // Row 0, then a row gap of u32::MAX.
            (
                "second row past u32::MAX".into(),
                raw(&[
                    &[2, 0, 3, 0, 5],
                    &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
                    &[3, 0, 5],
                ]),
            ),
            // Column 0, then a column gap of u32::MAX.
            (
                "second column past u32::MAX".into(),
                raw(&[&[1, 0, 4, 0, 5], &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F], &[5]]),
            ),
            // A dense row of two cells from column u32::MAX.
            (
                "dense row past u32::MAX".into(),
                raw(&[&[1, 0, 5], &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F], &[5, 5]]),
            ),
            (
                "consecutive columns in a sparse row".into(),
                vec![1, 0, 4, 0, 5, 0, 5],
            ),
            (
                "text code not yet written".into(),
                vec![1, 0, 3, 0, 0x13, 0],
            ),
            (
                "literal repeating an earlier text".into(),
                vec![1, 0, 5, 0, 3, 1, b'a', 3, 1, b'a'],
            ),
            ("empty row".into(), vec![1, 0, 0]),
            (
                "overlong row count".into(),
                raw(&[&[0x81, 0], &one_true[1..]]),
            ),
            ("overlong row gap".into(), vec![1, 0x80, 0, 3, 0, 5]),
            ("overlong cell count".into(), vec![1, 0, 0x83, 0, 0, 5]),
            ("overlong first column".into(), vec![1, 0, 3, 0x80, 0, 5]),
            (
                "overlong text length".into(),
                vec![1, 0, 3, 0, 3, 0x81, 0, b'a'],
            ),
            ("overlong integer".into(), vec![1, 0, 3, 0, 1, 0x82, 0]),
        ]);
        for (what, payload) in &bad {
            assert!(
                decode_cells(payload).is_err(),
                "{what}: the decoder rejects"
            );
        }
        let cell = |r, c| (addr(r, c), Cell::value(1.0));

        for (what, payload) in &bad {
            for kind in BUILT_KINDS {
                let mut hs = HybridSheet::new();
                let result =
                    hs.restore_regions([(1, kind, Rect::new(0, 0, 9, 4), payload.clone())]);
                assert!(result.is_err(), "{kind:?}: {what} must be refused");
                assert_eq!(hs.region_count(), 0, "{kind:?}: {what}");
                assert_eq!(hs.region_at(addr(0, 0)), None, "{kind:?}: {what}");
            }
            let mut hs = HybridSheet::new();
            hs.set_cell(addr(50, 50), Cell::value(7.0)).unwrap();
            assert!(hs.restore_catchall(payload).is_err(), "catch-all: {what}");
            assert_eq!(
                hs.catchall.all_cells(),
                vec![(addr(50, 50), Cell::value(7.0))]
            );
        }
        // A region ahead of the bad one stays live and routed; the bad one
        // and everything after it is not installed.
        let mut hs = HybridSheet::new();
        let result = hs.restore_regions([
            (1, ModelKind::Rom, Rect::new(0, 0, 9, 4), good.clone()),
            (2, ModelKind::Rom, Rect::new(20, 0, 29, 4), bad[3].1.clone()),
            (3, ModelKind::Rom, Rect::new(40, 0, 49, 4), good.clone()),
        ]);
        assert!(result.is_err());
        assert_eq!(hs.region_count(), 1);
        assert_eq!(hs.region_at(addr(3, 1)), Some(0));
        assert_eq!(hs.region_at(addr(23, 1)), None);
        // A catch-all cell under a restored region is corruption.
        assert!(matches!(
            hs.restore_catchall(&encode_cells(&[cell(3, 3)])),
            Err(EngineError::Store(StoreError::Corrupt(_)))
        ));
    }
}
