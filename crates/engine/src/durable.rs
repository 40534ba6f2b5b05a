//! Durable paged persistence for [`SheetEngine`](crate::SheetEngine).
//!
//! A durable sheet lives in a directory of two files, an image and a WAL:
//!
//! * `pages.db` — the *image*: the last checkpointed logical sheet state,
//!   stored **region-granularly** in 8 KB pages, read and written by
//!   positional I/O through a [`VfsFile`] — open reads each extent once,
//!   a checkpoint writes the pages it changes. Page 0 is the header (format
//!   version and the extent of the map); the bytes after it are one data
//!   area, in which the map gives each
//!   [`HybridSheet`](crate::HybridSheet) region — plus the RCV catch-all
//!   as pseudo-region 0 — one byte *extent* `(offset, len)`. Extents
//!   follow each other across page boundaries, so small payloads share
//!   pages. A checkpoint re-serializes and rewrites **only the regions
//!   touched since the last one** (the per-region dirty flags maintained
//!   by the hybrid layer's mutators);
//! * `wal.log` — a [`Wal`] of CRC-framed records, whose header also
//!   carries the WAL epoch and the commit-ticket base, so ticket numbering
//!   continues across restarts.
//!
//! Three record kinds share the log:
//!
//! | tag | record | written by |
//! |---|---|---|
//! | 0 | [`LoggedOp`] — a logical sheet mutation | every engine op |
//! | 1 | checkpoint-begin (old page count) | [`DurableStore::checkpoint`] |
//! | 2 | undo page image (page no + old bytes) | [`DurableStore::checkpoint`] |
//!
//! **Commit protocol.** Each engine mutation appends a [`LoggedOp`] before
//! returning; `save()` fsyncs the log (the fsync-point = the commit point).
//! A bulk import is one [`LoggedOp::ImportRows`] record, replayed like any
//! other op; its cells are a cell block, a region's payload (below)
//! without formulas. A log of format version 3, whose imports held tagged
//! rows, is refused untouched.
//! **Checkpoint protocol.** The extents of the old map and of every
//! rewritten or dropped region are freed (free ranges coalesce), then the
//! dirty regions, in ascending id, and the new map are placed by
//! lowest-offset first fit — the map first when its length (set by the
//! region count) is unchanged, so a region that outgrows its extent moves
//! past the map rather than the map past it. Each touched page is
//! assembled from its old bytes: freed ranges are zeroed and the new
//! extents laid over the result. The pre-images of the pages whose bytes
//! change — a page a clean region shares with a rewritten one included —
//! are journaled to the WAL (tag 1 + 2 records) and fsynced, *then* the
//! changed pages are written in place and fsynced, *then* the WAL is
//! truncated. Clean
//! regions keep their bytes untouched — after a single-cell edit the
//! checkpoint cost is O(dirty regions), not O(sheet).
//! **Recovery.** On open, if the WAL ends in an unfinished checkpoint
//! journal, the undo pages are written back first (rolling the image to
//! its pre-checkpoint bytes); the image is then loaded (each region's
//! payload CRC-verified) and the logged ops are replayed. A crash at *any*
//! byte therefore yields the state as of some logged-op prefix — never a
//! torn cell — which is exactly what the byte-boundary recovery suite
//! asserts. An image of any other format version, or naming any positional
//! map but the hierarchical one (`posmap=2`), is refused as corrupt.
//!
//! On-disk layout of the version-6 image:
//!
//! ```text
//! page 0      magic "DSIM" | version=6 u32 | posmap=2 u8 |
//!             map_len u64 | map_crc u32 | map_off u64, then zeros
//! data area   every byte from offset 8192 (page 1) on; the map and each
//!             region payload is one extent in it, crossing page
//!             boundaries freely
//! map         region_count u32, then per region (ascending id):
//!             id u64 | kind u8 | rect u32×4 |
//!             offset u64 | len u64 | crc u32
//! payload     a columnar region's own encoding, which ends in a cell
//!             payload of its formula sources, or the cell payload below
//! ```
//!
//! A zero-length payload sits at offset 8192. The map is outside input:
//! open refuses, before reading any payload, an extent that starts inside
//! the header page, ends past the file, or overlaps another region's or
//! the map's extent.
//!
//! Every other store — ROM, COM, RCV, a linked table's cells and the
//! catch-all — checkpoints as one *cell payload*: its non-blank cells as a
//! [`codec::CellsEncoder`] cell block (row runs of varint gaps, dense rows,
//! decimals as scaled integers, repeated texts by code; the grammar and
//! each value's one byte form are documented there), in which every
//! formula cell's source field holds its formula:
//!
//! ```text
//! source  := len << 1, then len bytes of UTF-8 (a literal source) |
//!            code << 1 | 1 (the source of template `code`, rendered at
//!            this cell)
//! ```
//!
//! A formula source is stored relative to its cell: its
//! [`refs::template`] at the payload's own coordinates (local to a
//! region, sheet coordinates in the catch-all) keeps every canonically
//! spelled reference as an offset pair plus `$` flags and every other byte
//! verbatim, so the sources of a fill-down run share one template. The
//! first source of each template in the payload is a literal; every later
//! one is the template's code — a second code space, numbering the
//! literal sources in order of appearance — and reads back as the
//! template [`refs::render`]ed at its cell, the exact text stored. A
//! literal whose template was written before, a code not yet written, and
//! a code whose references would render off the sheet are refused.
//!
//! Free bytes are zero: a checkpoint zeroes every range it frees, so an
//! image's bytes are a function of its header, map and live extents
//! alone, and two stores that place the same payloads hold the same file —
//! the recovery suite compares images byte-for-byte.

use std::borrow::Cow;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};

use dataspread_formula::refs::{self, Template};
use dataspread_grid::codec::{self, put_rect, put_value, read_rect, read_value, Reader};
#[cfg(test)]
use dataspread_grid::{Cell, CellError};
use dataspread_grid::{CellAddr, CellValue, Rect, ScanValue, Shift};
use dataspread_hybrid::ModelKind;
use dataspread_relstore::wal::crc32;
use dataspread_relstore::{real_fs, OpenMode, SharedWal, StorageFs, StoreError, VfsFile, Wal};
use std::sync::Arc;

use crate::error::EngineError;
use crate::hybrid::{RegionImage, CATCHALL_REGION_ID};

/// File name of the checkpoint image inside a durable sheet directory.
pub const IMAGE_FILE: &str = "pages.db";
/// File name of the write-ahead log inside a durable sheet directory.
pub const WAL_FILE: &str = "wal.log";
/// Largest op record the store will log (safely under the WAL's hard
/// record cap, framing included). A bulk import can exceed this; the
/// engine then captures it via an immediate checkpoint instead of a log
/// record.
const MAX_LOGGED_OP_BYTES: usize = 48 << 20;

const IMAGE_MAGIC: &[u8; 4] = b"DSIM";
const IMAGE_VERSION: u32 = 6;
/// The header's positional-map byte, part of the image layout: always 2,
/// the hierarchical map; an image holding any other value is refused.
const IMAGE_POSMAP: u8 = 2;
/// The image's page size in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Page size as a byte offset.
const PAGE_BYTES: u64 = PAGE_SIZE as u64;
/// First byte of the data area: everything after the header page.
const DATA_START: u64 = PAGE_BYTES;

// WAL payload kind tags.
const REC_OP: u8 = 0;
const REC_CKPT_BEGIN: u8 = 1;
const REC_UNDO_PAGE: u8 = 2;

// Region kind tags in the image map.
const KIND_ROM: u8 = 0;
const KIND_COM: u8 = 1;
const KIND_RCV: u8 = 2;
const KIND_TOM: u8 = 3;
const KIND_CATCHALL: u8 = 4;
/// Columnar regions store their native compressed columns as their
/// payload, followed by their formula sources as a cell payload.
const KIND_COLUMNAR: u8 = 5;

/// Path of the image file for a durable sheet directory.
pub fn image_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(IMAGE_FILE)
}

/// Path of the WAL file for a durable sheet directory.
pub fn wal_path(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(WAL_FILE)
}

/// A logical sheet mutation, as logged to the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum LoggedOp {
    /// `updateCell(row, col, input)` — the raw user input (formula, literal,
    /// or empty-string clear), replayed through the same interpretation
    /// path on recovery.
    SetCell { row: u32, col: u32, input: String },
    /// A computed value written directly (e.g. `index()` dereferencing a
    /// composite), logged as the exact [`CellValue`] to avoid re-parsing
    /// text through literal inference.
    SetValue {
        row: u32,
        col: u32,
        value: CellValue,
    },
    /// A row or column insert or delete, as the engine applies it.
    Shift(Shift),
    /// A bulk import of `rows` x `width` at `(row, col)`: its cells are one
    /// [`codec::encode_block`] cell block in rect-local coordinates, logged
    /// behind a `u32` length and replayed straight into a ROM region.
    ImportRows {
        row: u32,
        col: u32,
        width: u32,
        rows: u32,
        block: Vec<u8>,
    },
}

// ------------------------------------------------------------ encoding --

fn corrupt(msg: &str) -> EngineError {
    EngineError::Store(StoreError::Corrupt(msg.to_string()))
}

fn model_code(id: u64, kind: ModelKind) -> u8 {
    if id == CATCHALL_REGION_ID {
        return KIND_CATCHALL;
    }
    match kind {
        ModelKind::Rom => KIND_ROM,
        ModelKind::Com => KIND_COM,
        ModelKind::Rcv => KIND_RCV,
        ModelKind::Tom => KIND_TOM,
        ModelKind::Columnar => KIND_COLUMNAR,
    }
}

fn code_model(c: u8) -> Result<ModelKind, EngineError> {
    Ok(match c {
        KIND_ROM => ModelKind::Rom,
        KIND_COM => ModelKind::Com,
        KIND_RCV | KIND_CATCHALL => ModelKind::Rcv,
        KIND_TOM => ModelKind::Tom,
        KIND_COLUMNAR => ModelKind::Columnar,
        t => return Err(corrupt(&format!("unknown region kind {t}"))),
    })
}

impl LoggedOp {
    /// Encode as a WAL payload (including the record-kind tag).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = vec![REC_OP];
        match self {
            LoggedOp::SetCell { row, col, input } => {
                codec::put_u8(&mut out, 0);
                codec::put_u32(&mut out, *row);
                codec::put_u32(&mut out, *col);
                codec::put_str(&mut out, input);
            }
            LoggedOp::SetValue { row, col, value } => {
                codec::put_u8(&mut out, 1);
                codec::put_u32(&mut out, *row);
                codec::put_u32(&mut out, *col);
                put_value(&mut out, ScanValue::of(value));
            }
            LoggedOp::Shift(shift) => {
                let (tag, at, n) = match *shift {
                    Shift::InsertRows { at, n } => (2, at, n),
                    Shift::DeleteRows { at, n } => (3, at, n),
                    Shift::InsertCols { at, n } => (4, at, n),
                    Shift::DeleteCols { at, n } => (5, at, n),
                };
                codec::put_u8(&mut out, tag);
                codec::put_u32(&mut out, at);
                codec::put_u32(&mut out, n);
            }
            LoggedOp::ImportRows {
                row,
                col,
                width,
                rows,
                block,
            } => {
                codec::put_u8(&mut out, 6);
                codec::put_u32(&mut out, *row);
                codec::put_u32(&mut out, *col);
                codec::put_u32(&mut out, *width);
                codec::put_u32(&mut out, *rows);
                codec::put_u32(&mut out, block.len() as u32);
                out.extend_from_slice(block);
            }
        }
        out
    }

    /// Decode the body of a `REC_OP` payload (tag byte already consumed).
    fn decode(cur: &mut Reader<'_>) -> Result<LoggedOp, EngineError> {
        let op = match cur.u8()? {
            0 => LoggedOp::SetCell {
                row: cur.u32()?,
                col: cur.u32()?,
                input: cur.str()?,
            },
            1 => LoggedOp::SetValue {
                row: cur.u32()?,
                col: cur.u32()?,
                value: read_value(cur)?.to_value(),
            },
            tag @ 2..=5 => {
                let (at, n) = (cur.u32()?, cur.u32()?);
                LoggedOp::Shift(match tag {
                    2 => Shift::InsertRows { at, n },
                    3 => Shift::DeleteRows { at, n },
                    4 => Shift::InsertCols { at, n },
                    _ => Shift::DeleteCols { at, n },
                })
            }
            6 => LoggedOp::ImportRows {
                row: cur.u32()?,
                col: cur.u32()?,
                width: cur.u32()?,
                rows: cur.u32()?,
                block: {
                    let len = cur.u32()?;
                    cur.take(len as usize)?.to_vec()
                },
            },
            t => return Err(corrupt(&format!("unknown op tag {t}"))),
        };
        cur.expect_done("op")?;
        Ok(op)
    }
}

/// Streams one store's cells, straight off its
/// [`Translator::scan`](crate::Translator::scan), into its checkpoint cell
/// payload: a [`codec::CellsEncoder`] block plus each formula's source.
#[derive(Default)]
pub struct PayloadEncoder {
    cells: codec::CellsEncoder,
    /// The template of every formula source written as a literal so far,
    /// by its code.
    templates: HashMap<Template, u32>,
}

impl PayloadEncoder {
    pub fn push(&mut self, row: u32, col: u32, value: ScanValue<'_>, formula: Option<&str>) {
        let out = self.cells.push(row, col, value, formula.is_some());
        if let Some(src) = formula {
            let t = refs::template(src, CellAddr::new(row, col));
            match self.templates.get(&t) {
                Some(&code) => codec::put_uvarint(out, u64::from(code) << 1 | 1),
                None => {
                    self.templates.insert(t, self.templates.len() as u32);
                    codec::put_uvarint(out, (src.len() as u64) << 1);
                    out.extend_from_slice(src.as_bytes());
                }
            }
        }
    }

    pub fn finish(self) -> Vec<u8> {
        self.cells.finish()
    }
}

/// The formula templates of a payload read so far: by code, and as a set.
#[derive(Default)]
struct Templates {
    by_code: Vec<Template>,
    seen: HashSet<Template>,
}

/// A formula source field at cell `at`: a literal source, refused when
/// its template was written before, or the code of an earlier template,
/// rendered at `at` — refused when not yet written or when it renders off
/// the sheet.
fn read_source<'a>(
    cur: &mut Reader<'a>,
    templates: &mut Templates,
    at: CellAddr,
) -> Result<Cow<'a, str>, EngineError> {
    let field = cur.uvarint()?;
    if field & 1 == 0 {
        let len = field >> 1;
        if len > codec::MAX_STR_LEN as u64 {
            return Err(corrupt(&format!(
                "cells: formula of {len} bytes exceeds bound"
            )));
        }
        let src = std::str::from_utf8(cur.take(len as usize)?)
            .map_err(|_| corrupt("cells: invalid utf-8 formula"))?;
        let t = refs::template(src, at);
        if !templates.seen.insert(t.clone()) {
            return Err(corrupt(&format!(
                "cells: formula at {at} repeats an earlier template"
            )));
        }
        templates.by_code.push(t);
        return Ok(Cow::Borrowed(src));
    }
    let code = field >> 1;
    let t = usize::try_from(code)
        .ok()
        .and_then(|c| templates.by_code.get(c))
        .ok_or_else(|| corrupt(&format!("cells: formula code {code} not yet written")))?;
    let src = refs::render(t, at).ok_or_else(|| {
        corrupt(&format!(
            "cells: formula code {code} renders off the sheet at {at}"
        ))
    })?;
    Ok(Cow::Owned(src))
}

/// [`codec::visit_cells`] of a payload written by [`PayloadEncoder`], each
/// formula source read back ([`read_source`]): every refusal is
/// [`StoreError::Corrupt`], and every accepted payload re-encodes to
/// itself.
pub fn visit_payload(
    payload: &[u8],
    mut f: impl FnMut(u32, u32, ScanValue<'_>, Option<&str>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let mut templates = Templates::default();
    codec::visit_cells(payload, |row, col, value, source| {
        let at = CellAddr::new(row, col);
        let formula = source.map(|cur| read_source(cur, &mut templates, at));
        f(row, col, value, formula.transpose()?.as_deref())
    })
}

/// [`PayloadEncoder`] over a cell list (sorted, non-blank).
#[cfg(test)]
pub(crate) fn encode_cells(cells: &[(CellAddr, Cell)]) -> Vec<u8> {
    let mut enc = PayloadEncoder::default();
    for (addr, cell) in cells {
        enc.push(
            addr.row,
            addr.col,
            ScanValue::of(&cell.value),
            cell.formula.as_deref(),
        );
    }
    enc.finish()
}

/// [`visit_payload`] collected into a cell list.
#[cfg(test)]
pub(crate) fn decode_cells(payload: &[u8]) -> Result<Vec<(CellAddr, Cell)>, EngineError> {
    let mut cells = Vec::new();
    visit_payload(payload, |row, col, value, formula| {
        cells.push((CellAddr::new(row, col), value.to_cell(formula)));
        Ok(())
    })?;
    Ok(cells)
}

// ------------------------------------------------- image map and extents --

/// A payload's bytes in the image: `len` bytes from byte `off` of the
/// file, crossing page boundaries freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    off: u64,
    len: u64,
}

impl Extent {
    /// Where a payload of no bytes sits.
    const EMPTY: Extent = Extent {
        off: DATA_START,
        len: 0,
    };

    /// One past the last byte. Every extent here was either placed by a
    /// checkpoint or passed [`check_bounds`], so this cannot overflow.
    fn end(self) -> u64 {
        self.off + self.len
    }

    /// The pages holding the extent's bytes.
    fn pages(self) -> Range<u64> {
        self.off / PAGE_BYTES..self.end().div_ceil(PAGE_BYTES)
    }

    /// The part of page `p` the extent covers, as a range within the page
    /// and the matching range within the payload.
    fn on_page(self, p: u64) -> (Range<usize>, Range<usize>) {
        let base = p * PAGE_BYTES;
        let (start, end) = (self.off.max(base), self.end().min(base + PAGE_BYTES));
        (
            (start - base) as usize..(end - base) as usize,
            (start - self.off) as usize..(end - self.off) as usize,
        )
    }
}

/// One region's entry in the image map.
#[derive(Debug, Clone, PartialEq, Eq)]
struct StoredRegion {
    kind: u8,
    rect: Rect,
    extent: Extent,
    crc: u32,
}

/// Bytes of an image map of `regions` entries: a count, then per region
/// id 8 | kind 1 | rect 16 | offset 8 | len 8 | crc 4.
fn map_len(regions: usize) -> u64 {
    4 + 45 * regions as u64
}

fn encode_map(map: &BTreeMap<u64, StoredRegion>) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_u32(&mut out, map.len() as u32);
    for (id, sr) in map {
        codec::put_u64(&mut out, *id);
        codec::put_u8(&mut out, sr.kind);
        put_rect(&mut out, sr.rect);
        codec::put_u64(&mut out, sr.extent.off);
        codec::put_u64(&mut out, sr.extent.len);
        codec::put_u32(&mut out, sr.crc);
    }
    out
}

fn decode_map(bytes: &[u8]) -> Result<BTreeMap<u64, StoredRegion>, EngineError> {
    let mut cur = Reader::new(bytes);
    let count = cur.u32()?;
    let mut map = BTreeMap::new();
    for _ in 0..count {
        let id = cur.u64()?;
        let region = StoredRegion {
            kind: cur.u8()?,
            rect: read_rect(&mut cur)?,
            extent: Extent {
                off: cur.u64()?,
                len: cur.u64()?,
            },
            crc: cur.u32()?,
        };
        if map.insert(id, region).is_some() {
            return Err(corrupt(&format!("duplicate region id {id} in image map")));
        }
    }
    cur.expect_done("image map")?;
    Ok(map)
}

fn encode_header(map: Extent, map_crc: u32) -> Vec<u8> {
    let mut page = Vec::with_capacity(PAGE_SIZE);
    page.extend_from_slice(IMAGE_MAGIC);
    codec::put_u32(&mut page, IMAGE_VERSION);
    codec::put_u8(&mut page, IMAGE_POSMAP);
    codec::put_u64(&mut page, map.len);
    codec::put_u32(&mut page, map_crc);
    codec::put_u64(&mut page, map.off);
    page.resize(PAGE_SIZE, 0);
    page
}

/// Refuse an extent that starts inside the header page or ends past the
/// file's `file_bytes` (`offset + len` overflowing included). Checked
/// before anything is allocated: the header page carries no CRC, and one
/// flipped bit of its map length would otherwise ask for a terabyte.
fn check_bounds(ext: Extent, file_bytes: u64, what: &str) -> Result<(), EngineError> {
    if ext.off < DATA_START {
        return Err(corrupt(&format!("image: {what} starts inside the header")));
    }
    match ext.off.checked_add(ext.len) {
        Some(end) if end <= file_bytes => Ok(()),
        _ => Err(corrupt(&format!("image: {what} ends past the file"))),
    }
}

/// Refuse a map (already CRC-verified) unless every region's extent is in
/// bounds and no two of the map's and the regions' extents overlap: the
/// next checkpoint that rewrote one of two overlapping extents would zero
/// or overwrite bytes the other still claims.
fn check_map(
    map_extent: Extent,
    map: &BTreeMap<u64, StoredRegion>,
    file_bytes: u64,
) -> Result<(), EngineError> {
    let name =
        |id: Option<u64>| id.map_or_else(|| "the image map".into(), |id| format!("region {id}"));
    let mut extents = vec![(map_extent, None)];
    for (id, sr) in map {
        check_bounds(sr.extent, file_bytes, &name(Some(*id)))?;
        extents.push((sr.extent, Some(*id)));
    }
    extents.retain(|(ext, _)| ext.len > 0);
    extents.sort_by_key(|(ext, _)| ext.off);
    for pair in extents.windows(2) {
        let ((a, a_id), (b, b_id)) = (pair[0], pair[1]);
        if a.end() > b.off {
            return Err(corrupt(&format!(
                "image: {} overlaps {}",
                name(a_id),
                name(b_id)
            )));
        }
    }
    Ok(())
}

/// The image file, read and written by positional I/O. Its length in
/// whole pages is the image: a partial trailing page (a torn grow-write)
/// is ignored, and the next write of the image truncates it away.
struct ImageFile {
    file: Box<dyn VfsFile>,
    page_count: u64,
    pages_read: u64,
    pages_written: u64,
}

impl ImageFile {
    fn open(fs: &dyn StorageFs, path: &Path) -> Result<ImageFile, StoreError> {
        let file = fs.open(path, OpenMode::Open)?;
        let page_count = file.len()? / PAGE_BYTES;
        Ok(ImageFile {
            file,
            page_count,
            pages_read: 0,
            pages_written: 0,
        })
    }

    /// Read the bytes of `ext`, which lies inside the image (see
    /// [`check_bounds`]). A read that comes back short is corruption.
    fn read(&mut self, ext: Extent) -> Result<Vec<u8>, StoreError> {
        let mut out = vec![0; ext.len as usize];
        let mut filled = 0;
        while filled < out.len() {
            match self
                .file
                .read_at(ext.off + filled as u64, &mut out[filled..])
            {
                Ok(0) => {
                    return Err(StoreError::Corrupt(format!(
                        "image: read of {} bytes at offset {} came back short",
                        ext.len, ext.off
                    )))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        let pages = ext.pages();
        self.pages_read += pages.end - pages.start;
        Ok(out)
    }

    fn read_page(&mut self, p: u64) -> Result<Vec<u8>, StoreError> {
        self.read(Extent {
            off: p * PAGE_BYTES,
            len: PAGE_BYTES,
        })
    }

    /// Write `pages` (ascending page number, each `PAGE_SIZE` bytes), set
    /// the file to exactly `page_count` pages and fsync it.
    fn write_pages(&mut self, pages: &[(u64, Vec<u8>)], page_count: u64) -> Result<(), StoreError> {
        for (p, bytes) in pages {
            self.file.write_at(p * PAGE_BYTES, bytes)?;
            self.pages_written += 1;
        }
        self.file.set_len(page_count * PAGE_BYTES)?;
        self.file.sync_data()?;
        self.page_count = page_count;
        Ok(())
    }
}

/// The data area's free byte ranges, lowest first: the gaps between the
/// extents a checkpoint keeps (which the free ranges are therefore
/// already coalesced around), and everything past the last of them.
struct FreeSpace(Vec<Range<u64>>);

impl FreeSpace {
    fn around(kept: impl Iterator<Item = Extent>) -> FreeSpace {
        let mut kept: Vec<Extent> = kept.filter(|ext| ext.len > 0).collect();
        kept.sort_by_key(|ext| ext.off);
        let mut free = Vec::new();
        let mut at = DATA_START;
        for ext in kept {
            if ext.off > at {
                free.push(at..ext.off);
            }
            at = at.max(ext.end());
        }
        free.push(at..u64::MAX);
        FreeSpace(free)
    }

    /// Place `len` bytes at the lowest offset they fit. Deterministic: the
    /// same kept extents and demands always yield the same placement
    /// (checkpoint images are compared byte-for-byte by the recovery
    /// suite).
    fn alloc(&mut self, len: u64) -> Extent {
        if len == 0 {
            return Extent::EMPTY;
        }
        let i = self
            .0
            .iter()
            .position(|r| r.end - r.start >= len)
            .expect("the last free range is unbounded");
        let off = self.0[i].start;
        self.0[i].start += len;
        if self.0[i].is_empty() {
            self.0.remove(i);
        }
        Extent { off, len }
    }
}

// ------------------------------------------------------- durable store --

/// One region recovered from the checkpoint image: its CRC-verified
/// payload as stored — the cell payload of [`PayloadEncoder`] in local
/// coordinates, or a columnar region's native encoding — which the hybrid
/// layer visits straight into the region's builder.
#[derive(Debug)]
pub struct RecoveredRegionImage {
    pub id: u64,
    pub kind: ModelKind,
    pub rect: Rect,
    pub payload: Vec<u8>,
}

/// What [`DurableStore::open`] found on disk.
#[derive(Debug)]
pub struct RecoveredState {
    /// Whether an image was found; `false` for a fresh store.
    pub has_image: bool,
    /// Catch-all cell payload of the last durable checkpoint (sheet
    /// coordinates); `None` for a fresh store.
    pub catchall: Option<Vec<u8>>,
    /// Region images of the last durable checkpoint.
    pub regions: Vec<RecoveredRegionImage>,
    /// Committed logical ops appended after that checkpoint, oldest first.
    pub ops: Vec<LoggedOp>,
    /// Whether an interrupted checkpoint had to be rolled back.
    pub rolled_back_checkpoint: bool,
}

/// Outcome of one checkpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Pages whose bytes changed and were rewritten: the header, and the
    /// pages of placed and freed extents (map and region payloads).
    pub pages_written: u64,
    /// Pre-images journaled to the WAL before the overwrite.
    pub undo_pages: u64,
    /// Image size after the checkpoint, in pages.
    pub page_count: u64,
    /// Serialized payload bytes of the regions submitted dirty.
    pub payload_bytes: u64,
    /// Regions in the image after the checkpoint (catch-all included).
    pub regions_total: u64,
    /// Regions submitted dirty (re-serialized this checkpoint).
    pub regions_dirty: u64,
    /// Dirty regions whose bytes actually changed and were rewritten.
    pub regions_written: u64,
}

/// Counters describing the persistence layer (for benches and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistenceStats {
    /// Valid WAL bytes on disk (header included).
    pub wal_bytes: u64,
    /// Ops logged since the last checkpoint.
    pub ops_since_checkpoint: u64,
    /// Image size in pages.
    pub image_pages: u64,
    /// Regions tracked by the image's map.
    pub image_regions: u64,
    /// Image pages read through this handle (an extent counts every page
    /// it touches).
    pub pages_read: u64,
    /// Image pages written through this handle.
    pub pages_written: u64,
}

/// The engine-facing persistence handle: one WAL + one region-paged image.
///
/// The WAL is held behind a thread-shareable [`SharedWal`]: ops append
/// commit tickets, and the workspace's sessions commit those tickets
/// through [`DurableStore::commit_wal`] — one fsync covering every op
/// logged before it — while the engine itself stays single-writer.
/// Commit acknowledgement is thereby decoupled from logging: `log`
/// returns as soon as the record is framed, and the ticket tells its
/// committer when an fsync covered it.
pub struct DurableStore {
    dir: PathBuf,
    wal: Arc<SharedWal>,
    image: ImageFile,
    /// The region map of the on-disk image.
    map: BTreeMap<u64, StoredRegion>,
    /// Where the serialized map itself lies ([`Extent::EMPTY`] before the
    /// first checkpoint).
    map_extent: Extent,
    ops_since_checkpoint: u64,
    /// Commit ticket of the most recently logged op (0 = none yet;
    /// seeded with the recovered ticket horizon so numbering continues
    /// across restarts).
    last_ticket: u64,
    /// Monotone id of this open of the directory (the WAL epoch observed
    /// at open). Strictly increases across successful engine opens — the
    /// recovery checkpoint always bumps the epoch — so a client that sees
    /// it change knows the server restarted.
    incarnation: u64,
    /// Frozen at open: the highest pre-restart commit ticket proven
    /// durable (image + recovered WAL records). Tickets above it were
    /// lost in the restart and must be re-staged by their issuers.
    recovered_horizon: u64,
    /// Set when a WAL append failed mid-op: the on-disk tape has a hole, so
    /// further logging is refused until a successful checkpoint
    /// re-serializes the dirty state and truncates the log.
    poisoned: Option<String>,
    /// Set on a *permanent* storage failure: a failed fsync, or a
    /// checkpoint that died after it started mutating disk. Unlike
    /// `poisoned` this is never cleared — the image may be torn (the undo
    /// journal is what makes that recoverable), so this handle refuses
    /// every further mutation and the only way back is reopening the
    /// directory, which rolls back and replays what actually reached disk.
    failed: Option<String>,
    /// When `failed` was first set (ms since the Unix epoch), for the
    /// operator-facing degrade record.
    failed_at_ms: Option<u64>,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("image_pages", &self.image.page_count)
            .field("image_regions", &self.map.len())
            .field("ops_since_checkpoint", &self.ops_since_checkpoint)
            .finish()
    }
}

impl DurableStore {
    /// Open (or create) the durable directory, running crash recovery:
    /// undo any interrupted checkpoint, load and verify the image, and
    /// return the committed op tail for the caller to replay.
    pub fn open(dir: impl AsRef<Path>) -> Result<(DurableStore, RecoveredState), EngineError> {
        Self::open_on(real_fs(), dir)
    }

    /// [`DurableStore::open`] with every file op routed through `fs` —
    /// the hook fault-injection tests use to script storage failures.
    pub fn open_on(
        fs: Arc<dyn StorageFs>,
        dir: impl AsRef<Path>,
    ) -> Result<(DurableStore, RecoveredState), EngineError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(StoreError::from)?;
        let mut wal = Wal::open_on(Arc::clone(&fs), wal_path(&dir))?;
        // Recovery below consumes the committed records before the log is
        // wrapped for shared use.
        let mut image = ImageFile::open(fs.as_ref(), &image_path(&dir))?;
        // Pin the directory entries for the files we may just have
        // created; without this a machine crash could drop the whole WAL.
        // Best effort: not every platform can open a directory for sync.
        fs.sync_dir(&dir).ok();

        // Every WAL record consumed one ticket (ops and checkpoint journal
        // records alike), so the header's ticket base plus the records
        // recovered is exactly the ticket horizon the disk proves.
        let records = wal.take_recovered();
        let horizon = wal.tickets();
        let incarnation = wal.epoch();

        // Partition the committed records: logical ops, then (optionally)
        // an unfinished checkpoint journal.
        let mut ops = Vec::new();
        let mut ckpt_old_count: Option<u64> = None;
        let mut undo: Vec<(u64, Vec<u8>)> = Vec::new();
        for record in records {
            let mut cur = Reader::new(&record);
            match cur.u8()? {
                REC_OP => {
                    let op = LoggedOp::decode(&mut cur)?;
                    if ckpt_old_count.is_none() {
                        ops.push(op);
                    }
                    // Ops after a checkpoint-begin cannot occur (the writer
                    // blocks inside checkpoint); tolerate by ignoring.
                }
                REC_CKPT_BEGIN => {
                    ckpt_old_count = Some(cur.u64()?);
                }
                REC_UNDO_PAGE => {
                    let page_no = cur.u64()?;
                    let bytes = cur.take(PAGE_SIZE)?.to_vec();
                    undo.push((page_no, bytes));
                }
                t => return Err(corrupt(&format!("unknown wal record kind {t}"))),
            }
        }

        // Roll back an interrupted checkpoint: restore pre-images, shrink
        // back to the pre-checkpoint page count.
        let rolled_back = ckpt_old_count.is_some();
        if let Some(old_count) = ckpt_old_count {
            image.write_pages(&undo, old_count)?;
        }

        // Load the image.
        let mut catchall = None;
        let mut regions = Vec::new();
        let has_image = image.page_count > 0;
        let mut map = BTreeMap::new();
        let mut map_extent = Extent::EMPTY;
        if has_image {
            let file_bytes = image.page_count * PAGE_BYTES;
            let header = image.read_page(0)?;
            let mut cur = Reader::new(&header);
            if cur.take(4)? != IMAGE_MAGIC {
                return Err(corrupt("image: bad magic"));
            }
            let version = cur.u32()?;
            if version != IMAGE_VERSION {
                return Err(corrupt(&format!("image: unsupported version {version}")));
            }
            let posmap = cur.u8()?;
            if posmap != IMAGE_POSMAP {
                return Err(corrupt(&format!("image: unknown positional map {posmap}")));
            }
            let map_len = cur.u64()?;
            let map_crc = cur.u32()?;
            map_extent = Extent {
                off: cur.u64()?,
                len: map_len,
            };
            check_bounds(map_extent, file_bytes, "the image map")?;
            let map_bytes = image.read(map_extent)?;
            if crc32(&map_bytes) != map_crc {
                return Err(corrupt("image: image map checksum mismatch"));
            }
            map = decode_map(&map_bytes)?;
            check_map(map_extent, &map, file_bytes)?;
            for (id, sr) in &map {
                let payload = image.read(sr.extent)?;
                if crc32(&payload) != sr.crc {
                    return Err(corrupt(&format!(
                        "image: region {id} payload checksum mismatch"
                    )));
                }
                if *id == CATCHALL_REGION_ID {
                    catchall = Some(payload);
                } else {
                    regions.push(RecoveredRegionImage {
                        id: *id,
                        kind: code_model(sr.kind)?,
                        rect: sr.rect,
                        payload,
                    });
                }
            }
        }

        Ok((
            DurableStore {
                dir,
                wal: Arc::new(SharedWal::new(wal)),
                image,
                map,
                map_extent,
                ops_since_checkpoint: ops.len() as u64,
                last_ticket: horizon,
                incarnation,
                recovered_horizon: horizon,
                poisoned: None,
                failed: None,
                failed_at_ms: None,
            },
            RecoveredState {
                has_image,
                catchall,
                regions,
                ops,
                rolled_back_checkpoint: rolled_back,
            },
        ))
    }

    /// Append a logical op to the WAL. The op is committed at the next
    /// [`DurableStore::sync`] (or checkpoint).
    ///
    /// A failed append poisons the store: the caller has already applied
    /// the op in memory, so the on-disk tape now has a hole. Accepting
    /// later appends would make recovery silently skip the missing op, so
    /// every subsequent `log` fails until a checkpoint re-serializes the
    /// affected state and truncates the log.
    ///
    /// Exception: an op over `MAX_LOGGED_OP_BYTES` is rejected with
    /// [`StoreError::LimitExceeded`] *before* anything reaches the log —
    /// the tape stays whole, nothing is poisoned, and the caller should
    /// capture the oversized op via [`DurableStore::checkpoint`] instead.
    pub fn log(&mut self, op: &LoggedOp) -> Result<(), EngineError> {
        if let Some(cause) = self.storage_failed() {
            self.note_failed(&cause);
            return Err(EngineError::Store(StoreError::StorageFailed(cause)));
        }
        if let Some(cause) = &self.poisoned {
            return Err(EngineError::Store(StoreError::Io(format!(
                "durable log disabled by an earlier append failure ({cause}); \
                 call checkpoint() to restore durability"
            ))));
        }
        let bytes = op.encode();
        if bytes.len() > MAX_LOGGED_OP_BYTES {
            return Err(EngineError::Store(StoreError::LimitExceeded(format!(
                "logged op of {} bytes exceeds the {MAX_LOGGED_OP_BYTES}-byte \
                 record limit; checkpoint instead",
                bytes.len()
            ))));
        }
        match self.wal.append(&bytes) {
            Ok(ticket) => self.last_ticket = ticket,
            Err(StoreError::StorageFailed(cause)) => {
                self.note_failed(&cause);
                return Err(EngineError::Store(StoreError::StorageFailed(cause)));
            }
            Err(e) => {
                self.poisoned = Some(e.to_string());
                return Err(e.into());
            }
        }
        self.ops_since_checkpoint += 1;
        Ok(())
    }

    /// Shared handle to this store's WAL for group commit: sessions commit
    /// their tickets through it while engine ops keep appending.
    pub fn commit_wal(&self) -> Arc<SharedWal> {
        Arc::clone(&self.wal)
    }

    /// Commit ticket of the most recently logged op (0 when nothing was
    /// logged); pass it to [`SharedWal::commit`] to block until the op is
    /// crash-durable.
    pub fn last_ticket(&self) -> u64 {
        self.last_ticket
    }

    /// The fsync-point: make every logged op crash-durable.
    pub fn sync(&mut self) -> Result<(), EngineError> {
        if let Some(cause) = &self.failed {
            return Err(EngineError::Store(StoreError::StorageFailed(cause.clone())));
        }
        match self.wal.sync() {
            Ok(_) => Ok(()),
            Err(StoreError::StorageFailed(cause)) => {
                self.note_failed(&cause);
                Err(EngineError::Store(StoreError::StorageFailed(cause)))
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The restart-reconciliation pair `(incarnation, horizon)`, both
    /// frozen at open:
    ///
    /// * `incarnation` strictly increases across (successful) opens of
    ///   the directory, so a client comparing it against a remembered
    ///   value detects a server restart — as opposed to a dropped
    ///   connection to a still-running server, after which *nothing* was
    ///   lost and re-staging would double-apply.
    /// * `horizon` is the highest pre-restart commit ticket the disk
    ///   proved durable. After a detected restart, a client re-stages
    ///   exactly its staged ops with tickets above the horizon.
    pub fn recovery_horizon(&self) -> (u64, u64) {
        (self.incarnation, self.recovered_horizon)
    }

    /// The permanent-failure state of this store: `Some(cause)` once an
    /// fsync failed or a checkpoint died after it started mutating disk.
    /// A failed store refuses every further mutation (in-memory reads
    /// still serve); the only recovery is reopening the directory, which
    /// rolls back the torn image and replays what actually reached disk.
    pub fn storage_failed(&self) -> Option<String> {
        self.failed.clone().or_else(|| self.wal.poisoned())
    }

    /// [`DurableStore::storage_failed`] plus when the failure was first
    /// recorded (ms since the Unix epoch) — the operator-facing degrade
    /// record surfaced through stats and metrics snapshots.
    pub fn storage_failed_info(&self) -> Option<(String, u64)> {
        match (&self.failed, self.failed_at_ms) {
            (Some(cause), at) => Some((cause.clone(), at.unwrap_or(0))),
            (None, _) => self.wal.poisoned_info(),
        }
    }

    /// Record a permanent failure, stamping the first occurrence.
    fn note_failed(&mut self, cause: &str) {
        if self.failed.is_none() {
            self.failed_at_ms = Some(
                self.wal
                    .poisoned_info()
                    .map(|(_, at)| at)
                    .filter(|&at| at > 0)
                    .unwrap_or_else(dataspread_obs::now_ms),
            );
        }
        self.failed = Some(cause.to_string());
    }

    /// Record a mid-checkpoint failure and normalize the error to
    /// [`StoreError::StorageFailed`]: once the apply phase has begun, any
    /// error leaves the image possibly torn with (part of) the undo
    /// journal on disk, so the handle is disabled for good.
    fn storage_fail(&mut self, e: impl Into<EngineError>) -> EngineError {
        let cause = match e.into() {
            EngineError::Store(StoreError::StorageFailed(m)) => m,
            other => other.to_string(),
        };
        self.note_failed(&cause);
        EngineError::Store(StoreError::StorageFailed(cause))
    }

    /// Checkpoint: fold the submitted region images into the paged image
    /// and truncate the WAL.
    ///
    /// `regions` must describe *every* current region (catch-all
    /// included): entries with a payload are written into freshly
    /// placed extents (the payloads are taken by value — no copy is made
    /// of them), unless their bytes equal the stored ones; entries without
    /// one are clean and keep their extents untouched; map entries for ids
    /// that no longer appear are dropped and their extents freed (and
    /// zeroed). Only pages whose bytes changed are written; their
    /// pre-images are journaled first so a crash mid-checkpoint rolls back
    /// cleanly on the next open.
    pub fn checkpoint(
        &mut self,
        regions: Vec<RegionImage>,
    ) -> Result<CheckpointReport, EngineError> {
        // A permanently failed store cannot checkpoint its way back: the
        // WAL can no longer prove durability (or the image is already
        // torn), so the only recovery is a reopen.
        if let Some(cause) = self.storage_failed() {
            self.note_failed(&cause);
            return Err(EngineError::Store(StoreError::StorageFailed(cause)));
        }
        // A failed append may have left garbage bytes past the valid
        // prefix; drop them so the journal below lands in a clean log.
        if self.poisoned.is_some() {
            self.wal.with(|w| w.truncate_to_valid())?;
        }
        let old_count = self.image.page_count;

        // Partition the input: clean entries carry their stored extents
        // over; dirty entries are serialized (and clean-ified when the
        // bytes come out identical to what is already stored).
        let mut new_map: BTreeMap<u64, StoredRegion> = BTreeMap::new();
        let mut dirty: Vec<(u64, u8, Rect, Vec<u8>, u32)> = Vec::new();
        let mut regions_dirty = 0u64;
        let mut payload_bytes = 0u64;
        for r in regions {
            let kind_tag = model_code(r.id, r.kind);
            match r.payload {
                Some(payload) => {
                    regions_dirty += 1;
                    payload_bytes += payload.len() as u64;
                    let crc = crc32(&payload);
                    let stored = self.map.get(&r.id).and_then(|old| {
                        (old.extent.len == payload.len() as u64 && old.crc == crc)
                            .then_some(old.extent)
                    });
                    let unchanged = match stored {
                        Some(extent) => self.stored_payload_equals(extent, &payload)?,
                        None => false,
                    };
                    if unchanged {
                        let old = self.map.get(&r.id).expect("matched above");
                        new_map.insert(
                            r.id,
                            StoredRegion {
                                kind: kind_tag,
                                rect: r.rect,
                                ..old.clone()
                            },
                        );
                    } else {
                        dirty.push((r.id, kind_tag, r.rect, payload, crc));
                    }
                }
                None => {
                    let Some(old) = self.map.get(&r.id) else {
                        return Err(corrupt(&format!(
                            "region {} reported clean but has no stored image",
                            r.id
                        )));
                    };
                    new_map.insert(
                        r.id,
                        StoredRegion {
                            kind: kind_tag,
                            rect: r.rect,
                            ..old.clone()
                        },
                    );
                }
            }
        }

        // Free the old map's extent and those of the regions being
        // rewritten or dropped. Every id in new_map so far kept its extent
        // (clean or byte-identical), so the free ranges are exactly the
        // gaps around those kept extents, already coalesced.
        let mut freed = vec![self.map_extent];
        freed.extend(
            self.map
                .iter()
                .filter(|(id, _)| !new_map.contains_key(id))
                .map(|(_, sr)| sr.extent),
        );
        let mut free = FreeSpace::around(new_map.values().map(|sr| sr.extent));

        // Place the rewritten regions (ascending id) and the map, each at
        // the lowest offset it fits. A map whose length is unchanged (it
        // depends only on the region count) is placed first: it keeps its
        // extent unless a lower hole holds it, and a region that outgrows
        // its own extent moves past the map instead of pushing the whole
        // map further along the file. Any other map is placed last. This
        // is self-stabilizing: a checkpoint with no changes re-derives the
        // same placement and writes nothing.
        let regions_written = dirty.len() as u64;
        let map_len = map_len(new_map.len() + dirty.len());
        let kept_map = (map_len == self.map_extent.len).then(|| free.alloc(map_len));
        dirty.sort_by_key(|(id, ..)| *id);
        let mut placed: Vec<(Extent, Vec<u8>)> = Vec::with_capacity(dirty.len() + 1);
        for (id, kind, rect, payload, crc) in dirty {
            let extent = free.alloc(payload.len() as u64);
            new_map.insert(
                id,
                StoredRegion {
                    kind,
                    rect,
                    extent,
                    crc,
                },
            );
            placed.push((extent, payload));
        }
        let map_extent = kept_map.unwrap_or_else(|| free.alloc(map_len));
        let map_bytes = encode_map(&new_map);
        debug_assert_eq!(map_bytes.len() as u64, map_extent.len);
        let header = encode_header(map_extent, crc32(&map_bytes));
        placed.push((map_extent, map_bytes));
        let new_count = new_map
            .values()
            .map(|sr| sr.extent.end())
            .fold(map_extent.end(), u64::max)
            .div_ceil(PAGE_BYTES);

        // Every page a freed or placed extent touches, as (old bytes —
        // `None` past the old end —, new bytes). The new bytes start as the
        // old ones; freed ranges are zeroed, then the placed extents laid
        // over the result, so free bytes stay zero.
        let mut pages: BTreeMap<u64, (Option<Vec<u8>>, Vec<u8>)> = BTreeMap::new();
        for ext in freed.iter().chain(placed.iter().map(|(ext, _)| ext)) {
            for p in ext.pages() {
                if let Entry::Vacant(slot) = pages.entry(p) {
                    let old = if p < old_count {
                        Some(self.image.read_page(p)?)
                    } else {
                        None
                    };
                    let new = old.clone().unwrap_or_else(|| vec![0; PAGE_SIZE]);
                    slot.insert((old, new));
                }
            }
        }
        for ext in &freed {
            for p in ext.pages() {
                let (in_page, _) = ext.on_page(p);
                pages.get_mut(&p).expect("collected above").1[in_page].fill(0);
            }
        }
        for (ext, bytes) in &placed {
            for p in ext.pages() {
                let (in_page, in_payload) = ext.on_page(p);
                pages.get_mut(&p).expect("collected above").1[in_page]
                    .copy_from_slice(&bytes[in_payload]);
            }
        }
        let old_header = if old_count > 0 {
            Some(self.image.read_page(0)?)
        } else {
            None
        };
        pages.insert(0, (old_header, header));

        // Diff against the old image: journal the pre-image of every page
        // whose bytes change, and write only those. Pages past the new end
        // are dropped by the truncate below; the ones that held freed bytes
        // are journaled so a rollback can restore them (every other page
        // there is free, hence zero, and re-grows as zero).
        let mut changed: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut undo: Vec<(u64, Vec<u8>)> = Vec::new();
        for (p, (old, new)) in pages {
            if p < new_count && old.as_ref() == Some(&new) {
                continue;
            }
            if let Some(old) = old {
                undo.push((p, old));
            }
            if p < new_count {
                changed.push((p, new));
            }
        }

        let report = CheckpointReport {
            pages_written: changed.len() as u64,
            undo_pages: undo.len() as u64,
            page_count: new_count,
            payload_bytes,
            regions_total: new_map.len() as u64,
            regions_dirty,
            regions_written,
        };

        if changed.is_empty() && new_count == old_count {
            // Image already current — just fold the op tail away. A
            // failed reset leaves the old log whole but poisons it (its
            // fsync is a commit point), so the store hard-fails with it.
            if let Err(e) = self.wal.truncate() {
                return Err(self.storage_fail(e));
            }
            self.commit_map(new_map, map_extent);
            return Ok(report);
        }

        if let Err(e) = self.checkpoint_apply(old_count, &undo, &changed, new_count) {
            return Err(self.storage_fail(e));
        }
        self.commit_map(new_map, map_extent);
        Ok(report)
    }

    /// The mutating tail of a checkpoint. Every write here is covered by
    /// the undo journal written (and fsynced) first, so the caller maps
    /// any error to a permanent failure: the in-process image may be torn,
    /// and reopening the directory rolls it back byte-for-byte.
    fn checkpoint_apply(
        &mut self,
        old_count: u64,
        undo: &[(u64, Vec<u8>)],
        changed: &[(u64, Vec<u8>)],
        new_count: u64,
    ) -> Result<(), StoreError> {
        // 1. Journal pre-images, durably.
        let mut begin = vec![REC_CKPT_BEGIN];
        codec::put_u64(&mut begin, old_count);
        self.wal.append(&begin)?;
        for (page_no, old) in undo {
            let mut rec = Vec::with_capacity(1 + 8 + PAGE_SIZE);
            rec.push(REC_UNDO_PAGE);
            codec::put_u64(&mut rec, *page_no);
            rec.extend_from_slice(old);
            self.wal.append(&rec)?;
        }
        self.wal.sync()?;
        // 2. Overwrite in place, durably.
        self.image.write_pages(changed, new_count)?;
        // 3. The checkpoint is now the truth; drop the log.
        self.wal.truncate()?;
        Ok(())
    }

    fn commit_map(&mut self, map: BTreeMap<u64, StoredRegion>, map_extent: Extent) {
        self.map = map;
        self.map_extent = map_extent;
        self.ops_since_checkpoint = 0;
        self.poisoned = None;
    }

    /// Byte-compare a stored payload (crc/len already matched) against a
    /// freshly serialized one, so a dirty-flagged region whose content is
    /// actually unchanged keeps its extent.
    fn stored_payload_equals(
        &mut self,
        extent: Extent,
        payload: &[u8],
    ) -> Result<bool, EngineError> {
        Ok(self.image.read(extent)? == payload)
    }

    pub fn stats(&self) -> PersistenceStats {
        PersistenceStats {
            wal_bytes: self.wal.with(|w| w.len_bytes()),
            ops_since_checkpoint: self.ops_since_checkpoint,
            image_pages: self.image.page_count,
            image_regions: self.map.len() as u64,
            pages_read: self.image.pages_read,
            pages_written: self.image.pages_written,
        }
    }

    /// The durable directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dataspread-durable-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn cell(v: f64) -> Cell {
        Cell::value(v)
    }

    /// The catch-all as a checkpoint image (`dirty` controls whether the
    /// cells are submitted for serialization).
    fn catchall_image(cells: &[(CellAddr, Cell)], dirty: bool) -> RegionImage {
        RegionImage {
            id: CATCHALL_REGION_ID,
            kind: ModelKind::Rcv,
            rect: Rect::new(0, 0, 0, 0),
            payload: dirty.then(|| encode_cells(cells)),
        }
    }

    fn recovered_catchall(recovered: &RecoveredState) -> Vec<(CellAddr, Cell)> {
        decode_cells(recovered.catchall.as_ref().expect("an image was stored")).unwrap()
    }

    fn region_image(id: u64, rect: Rect, cells: Option<Vec<(CellAddr, Cell)>>) -> RegionImage {
        RegionImage {
            id,
            kind: ModelKind::Rom,
            rect,
            payload: cells.map(|cells| encode_cells(&cells)),
        }
    }

    /// Every WAL op kind round-trips, and encodes to its pinned bytes (as
    /// hex). The import record's were re-pinned when its rows became a cell
    /// block (WAL format 4): after the top-left and width come the row
    /// count 3 and the block's length 15; the block holds 2 stored rows:
    /// row 0 dense with 3 cells from col 0 — Float at scale 1 zigzag 15,
    /// Text literal "a", True; row gap 1, dense with 1 cell at col 1 —
    /// Error #N/A. The others date from before the value and rect codecs
    /// moved into `dataspread_grid::codec`.
    #[test]
    fn op_codec_roundtrip() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let rows = vec![
            vec![
                CellValue::Number(1.5),
                CellValue::Text("a".into()),
                CellValue::Bool(true),
            ],
            Vec::new(),
            vec![CellValue::Empty, CellValue::Error(CellError::Na)],
        ];
        let block = codec::encode_block(3, &rows);
        let set_value = |value| LoggedOp::SetValue {
            row: 3,
            col: 4,
            value,
        };
        let ops = [
            (
                LoggedOp::SetCell {
                    row: 1,
                    col: 2,
                    input: "=A1+1".into(),
                },
                "00000100000002000000050000003d41312b31",
            ),
            (set_value(CellValue::Empty), "0001030000000400000000"),
            (
                set_value(CellValue::Number(-2.5)),
                "000103000000040000000100000000000004c0",
            ),
            (
                set_value(CellValue::Text("héllo".into())),
                "00010300000004000000020600000068c3a96c6c6f",
            ),
            (set_value(CellValue::Bool(true)), "000103000000040000000301"),
            (
                set_value(CellValue::Error(CellError::Circular)),
                "000103000000040000000406",
            ),
            (
                LoggedOp::Shift(Shift::InsertRows { at: 4, n: 2 }),
                "00020400000002000000",
            ),
            (
                LoggedOp::Shift(Shift::DeleteRows { at: 5, n: u32::MAX }),
                "000305000000ffffffff",
            ),
            (
                LoggedOp::Shift(Shift::InsertCols { at: 6, n: 3 }),
                "00040600000003000000",
            ),
            (
                LoggedOp::Shift(Shift::DeleteCols { at: 7, n: 1 }),
                "00050700000001000000",
            ),
            (
                LoggedOp::ImportRows {
                    row: 10,
                    col: 2,
                    width: 3,
                    rows: 3,
                    block,
                },
                "00060a0000000200000003000000030000000f00000002000700121e030161050103010604",
            ),
        ];
        let mut changed = Vec::new();
        for (op, want) in &ops {
            let bytes = op.encode();
            if hex(&bytes) != *want {
                changed.push(format!("{op:?}: \"{}\"", hex(&bytes)));
            }
            let mut cur = Reader::new(&bytes[1..]);
            assert_eq!(&LoggedOp::decode(&mut cur).unwrap(), op);
        }
        assert!(changed.is_empty(), "bytes changed:\n{}", changed.join("\n"));
    }

    /// The checkpoint cell payload and the image map, pinned like
    /// [`op_codec_roundtrip`]'s records. The cell payload reads, byte group
    /// by byte group: 4 rows; row 0 sparse with 2 cells — col gap 0 Int
    /// zigzag 2, col gap 4 Text literal+formula "x" / `B1&"x"`; row gap 8
    /// dense with 2 cells from col 1 — Empty+formula `ZZ9`, Error+formula
    /// #DIV/0! / `1/0`; row gap 0 dense with 3 cells from col 3 — Float at
    /// scale 2 zigzag 2467 (-12.34), raw Float 0.1+0.2, Text reference to
    /// code 0 ("x"); row gap 4294967284 dense with 1 cell at col u32::MAX —
    /// False.
    #[test]
    fn cell_payloads_and_page_maps_encode_to_the_pinned_bytes() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        let mut changed = Vec::new();
        let mut cells = PayloadEncoder::default();
        cells.push(0, 0, ScanValue::Number(1.0), None);
        cells.push(0, 5, ScanValue::Text("x"), Some("B1&\"x\""));
        cells.push(9, 1, ScanValue::Empty, Some("ZZ9"));
        cells.push(9, 2, ScanValue::Error(CellError::Div0), Some("1/0"));
        cells.push(10, 3, ScanValue::Number(-12.34), None);
        cells.push(10, 4, ScanValue::Number(0.1 + 0.2), None);
        cells.push(10, 5, ScanValue::Text("x"), None);
        cells.push(u32::MAX, u32::MAX, ScanValue::Bool(false), None);
        let want = concat!(
            "04",
            "0004",
            "000102",
            "040b01780c423126227822",
            "080501",
            "08065a5a39",
            "0e0006312f30",
            "000703",
            "22a313",
            "02343333333333d33f",
            "1300",
            "f4ffffff0f03ffffffff0f",
            "04",
        );
        let bytes = cells.finish();
        if hex(&bytes) != want {
            changed.push(format!("cells: \"{}\"", hex(&bytes)));
        }
        assert_eq!(
            decode_cells(&bytes).unwrap(),
            [
                (0, 0, Cell::value(1.0)),
                (0, 5, Cell::formula("B1&\"x\"").with_value("x")),
                (9, 1, Cell::formula("ZZ9")),
                (
                    9,
                    2,
                    Cell::formula("1/0").with_value(CellValue::Error(CellError::Div0))
                ),
                (10, 3, Cell::value(-12.34)),
                (10, 4, Cell::value(0.1 + 0.2)),
                (10, 5, Cell::value("x")),
                (u32::MAX, u32::MAX, Cell::value(false)),
            ]
            .map(|(r, c, cell)| (CellAddr::new(r, c), cell))
        );

        // The map: 2 regions, then per region id | kind | rect (top, left,
        // bottom, right) | offset | len | crc. The catch-all's 20 bytes
        // open the data area at 8192; region 7's 9000 follow at 8212,
        // across the boundary of pages 1 and 2.
        let mut map = BTreeMap::new();
        map.insert(
            CATCHALL_REGION_ID,
            StoredRegion {
                kind: KIND_CATCHALL,
                rect: Rect::new(0, 0, 0, 0),
                extent: Extent { off: 8192, len: 20 },
                crc: 0xDEAD_BEEF,
            },
        );
        map.insert(
            7,
            StoredRegion {
                kind: KIND_COLUMNAR,
                rect: Rect::new(20, 1, 4000, u32::MAX),
                extent: Extent {
                    off: 8212,
                    len: 9000,
                },
                crc: 17,
            },
        );
        let want = concat!(
            "02000000",
            "0000000000000000",
            "04",
            "00000000000000000000000000000000",
            "0020000000000000",
            "1400000000000000",
            "efbeadde",
            "0700000000000000",
            "05",
            "1400000001000000a00f0000ffffffff",
            "1420000000000000",
            "2823000000000000",
            "11000000",
        );
        let bytes = encode_map(&map);
        if hex(&bytes) != want {
            changed.push(format!("map: \"{}\"", hex(&bytes)));
        }
        assert_eq!(decode_map(&bytes).unwrap(), map);
        assert!(changed.is_empty(), "bytes changed:\n{}", changed.join("\n"));
    }

    #[test]
    fn cells_codec_roundtrip() {
        let cells = vec![
            (CellAddr::new(0, 0), cell(1.5)),
            (
                CellAddr::new(2, 3),
                Cell {
                    value: CellValue::Number(42.0),
                    formula: Some("A1*2".into()),
                },
            ),
            (CellAddr::new(4, 4), Cell::value(true)),
            (
                CellAddr::new(5, 5),
                Cell {
                    value: CellValue::Error(CellError::Circular),
                    formula: Some("A6".into()),
                },
            ),
            (CellAddr::new(9, 9), Cell::value("text")),
        ];
        let enc = encode_cells(&cells);
        assert_eq!(decode_cells(&enc).unwrap(), cells);
    }

    #[test]
    fn fresh_open_then_log_then_recover() {
        let dir = temp_dir("log-recover");
        {
            let (mut store, recovered) = DurableStore::open(&dir).unwrap();
            assert!(!recovered.has_image);
            assert!(recovered.catchall.is_none() && recovered.ops.is_empty());
            assert!(recovered.regions.is_empty());
            store
                .log(&LoggedOp::SetCell {
                    row: 1,
                    col: 1,
                    input: "7".into(),
                })
                .unwrap();
            store
                .log(&LoggedOp::Shift(Shift::InsertRows { at: 0, n: 2 }))
                .unwrap();
            store.sync().unwrap();
        }
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.ops.len(), 2);
        assert_eq!(
            recovered.ops[0],
            LoggedOp::SetCell {
                row: 1,
                col: 1,
                input: "7".into()
            }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_persists_cells_and_truncates_wal() {
        let dir = temp_dir("ckpt");
        let cells = vec![
            (CellAddr::new(0, 0), cell(1.0)),
            (CellAddr::new(1, 0), cell(2.0)),
        ];
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .log(&LoggedOp::SetCell {
                    row: 0,
                    col: 0,
                    input: "1".into(),
                })
                .unwrap();
            let report = store
                .checkpoint(vec![catchall_image(&cells, true)])
                .unwrap();
            // Header + 1 data page: the 11-byte payload and the 49-byte map
            // share it.
            assert_eq!(report.page_count, 2);
            assert!(report.pages_written >= 1);
            assert_eq!(report.regions_total, 1);
            assert_eq!(report.regions_written, 1);
            assert_eq!(store.stats().ops_since_checkpoint, 0);
        }
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.has_image);
        assert_eq!(recovered_catchall(&recovered), cells);
        assert!(recovered.ops.is_empty());
        assert!(!recovered.rolled_back_checkpoint);
        // The same header + shared data page, read back.
        assert_eq!(store.stats().image_pages, 2);
        assert_eq!(store.stats().image_regions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unchanged_checkpoint_writes_no_pages() {
        let dir = temp_dir("ckpt-noop");
        let cells = vec![(CellAddr::new(0, 0), cell(5.0))];
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        store
            .checkpoint(vec![catchall_image(&cells, true)])
            .unwrap();
        // Clean submission: nothing re-serialized, nothing written.
        let second = store
            .checkpoint(vec![catchall_image(&cells, false)])
            .unwrap();
        assert_eq!(second.pages_written, 0);
        assert_eq!(second.undo_pages, 0);
        assert_eq!(second.regions_dirty, 0);
        // Dirty-flagged but byte-identical: the extent is kept, not
        // rewritten.
        let third = store
            .checkpoint(vec![catchall_image(&cells, true)])
            .unwrap();
        assert_eq!(third.pages_written, 0);
        assert_eq!(third.regions_dirty, 1);
        assert_eq!(third.regions_written, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn only_dirty_regions_are_rewritten() {
        let dir = temp_dir("ckpt-regions");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        let band = |id: u64| -> Vec<(CellAddr, Cell)> {
            (0..400u32)
                .map(|i| (CellAddr::new(i, 0), cell((id * 1000 + i as u64) as f64)))
                .collect()
        };
        let full = store
            .checkpoint(vec![
                catchall_image(&[], true),
                region_image(1, Rect::new(0, 0, 399, 0), Some(band(1))),
                region_image(2, Rect::new(500, 0, 899, 0), Some(band(2))),
            ])
            .unwrap();
        assert_eq!(full.regions_total, 3);
        assert_eq!(full.regions_written, 3);
        // Both 2 402-byte bands, the catch-all and the 139-byte map share
        // data page 1.
        assert_eq!(full.page_count, 2);
        // Touch only region 2.
        let mut changed = band(2);
        changed[7].1 = cell(-1.0);
        let incr = store
            .checkpoint(vec![
                catchall_image(&[], false),
                region_image(1, Rect::new(0, 0, 399, 0), None),
                region_image(2, Rect::new(500, 0, 899, 0), Some(changed.clone())),
            ])
            .unwrap();
        assert_eq!(incr.regions_dirty, 1);
        assert_eq!(incr.regions_written, 1);
        // Region 2 (one byte shorter) and the map are rewritten in place
        // on the data page they share with region 1: that page and the
        // header are the whole checkpoint, and region 1's bytes on the
        // shared page survive (read back below).
        assert_eq!(
            incr.pages_written, 2,
            "incremental checkpoint rewrote too much: {incr:?}"
        );
        drop(store);
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.regions.len(), 2);
        let r2 = recovered.regions.iter().find(|r| r.id == 2).unwrap();
        assert_eq!(decode_cells(&r2.payload).unwrap(), changed);
        assert_eq!(r2.rect, Rect::new(500, 0, 899, 0));
        let r1 = recovered.regions.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(decode_cells(&r1.payload).unwrap(), band(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A region that outgrows its extent moves past a map whose length is
    /// unchanged: the map keeps its offset, and the checkpoint rewrites
    /// the header and the one data page, not a relocated map.
    #[test]
    fn a_grown_region_moves_past_the_map() {
        let dir = temp_dir("ckpt-grown");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        let one = |id: u64, v: f64| {
            let rect = Rect::new(id as u32 * 10, 0, id as u32 * 10, 0);
            region_image(id, rect, Some(vec![(CellAddr::new(0, 0), cell(v))]))
        };
        let mut regions = vec![catchall_image(&[], true)];
        regions.extend((1..=5).map(|id| one(id, 1.0)));
        store.checkpoint(regions).unwrap();
        let map = store.map_extent;
        let mut regions = vec![catchall_image(&[], false), one(1, 1e6)];
        regions.extend((2..=5).map(|id| {
            let rect = Rect::new(id as u32 * 10, 0, id as u32 * 10, 0);
            region_image(id, rect, None)
        }));
        let incr = store.checkpoint(regions).unwrap();
        assert_eq!(store.map_extent, map, "the map keeps its extent");
        assert_eq!(
            store.map[&1].extent.off,
            map.end(),
            "region 1 moves past it"
        );
        assert_eq!(incr.pages_written, 2, "{incr:?}");
        drop(store);
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        let r1 = recovered.regions.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(
            decode_cells(&r1.payload).unwrap(),
            [(CellAddr::new(0, 0), cell(1e6))]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deleted_region_pages_are_freed_and_zeroed() {
        let dir = temp_dir("ckpt-delete");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        let cells: Vec<(CellAddr, Cell)> = (0..600u32)
            .map(|i| (CellAddr::new(i, 0), Cell::value(format!("row-{i}"))))
            .collect();
        store
            .checkpoint(vec![
                catchall_image(&[], true),
                region_image(1, Rect::new(0, 0, 599, 0), Some(cells)),
            ])
            .unwrap();
        let after = store.checkpoint(vec![catchall_image(&[], false)]).unwrap();
        assert_eq!(after.regions_total, 1);
        drop(store);
        let (store, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.regions.is_empty());
        // The image shrank back to the header and one data page: the
        // dropped region's bytes are truncated away or zeroed, never left
        // holding stale payload bytes.
        assert_eq!(store.stats().image_pages, 2);
        let image = std::fs::read(image_path(&dir)).unwrap();
        let map_end = (DATA_START + 1 + 49) as usize;
        assert!(image[map_end..].iter().all(|b| *b == 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_region_checkpoint_rolls_back() {
        let dir = temp_dir("ckpt-undo");
        let region_cells = vec![(CellAddr::new(0, 0), cell(1.0))];
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            store
                .checkpoint(vec![
                    catchall_image(&[(CellAddr::new(90, 9), cell(9.0))], true),
                    region_image(1, Rect::new(0, 0, 9, 0), Some(region_cells.clone())),
                ])
                .unwrap();
            store
                .log(&LoggedOp::SetCell {
                    row: 0,
                    col: 0,
                    input: "2".into(),
                })
                .unwrap();
            store.sync().unwrap();
        }
        // Simulate a crash *inside* the next region checkpoint: the undo
        // journal is durable, the header page is torn, the WAL was never
        // truncated.
        let mut image = std::fs::read(image_path(&dir)).unwrap();
        {
            let (store, _) = DurableStore::open(&dir).unwrap();
            let mut begin = vec![REC_CKPT_BEGIN];
            codec::put_u64(&mut begin, store.stats().image_pages);
            store.wal.append(&begin).unwrap();
            let mut rec = vec![REC_UNDO_PAGE];
            codec::put_u64(&mut rec, 0);
            rec.extend_from_slice(&image[..PAGE_SIZE]);
            store.wal.append(&rec).unwrap();
            store.wal.sync().unwrap();
        }
        // Tear: clobber the header page, never truncate the WAL.
        image[..PAGE_SIZE].fill(0xAB);
        std::fs::write(image_path(&dir), &image).unwrap();
        // Recovery must roll the header back and replay the logged op.
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.rolled_back_checkpoint);
        assert_eq!(recovered.regions.len(), 1);
        assert_eq!(
            decode_cells(&recovered.regions[0].payload).unwrap(),
            region_cells
        );
        assert_eq!(
            recovered_catchall(&recovered),
            vec![(CellAddr::new(90, 9), cell(9.0))]
        );
        assert_eq!(recovered.ops.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn image_shrinks_when_cells_shrink() {
        let dir = temp_dir("shrink");
        let big: Vec<(CellAddr, Cell)> = (0..2000u32)
            .map(|i| (CellAddr::new(i, 0), Cell::value(format!("row-{i}"))))
            .collect();
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        let r1 = store.checkpoint(vec![catchall_image(&big, true)]).unwrap();
        assert!(r1.page_count > 3);
        let small = vec![(CellAddr::new(0, 0), cell(1.0))];
        let r2 = store
            .checkpoint(vec![catchall_image(&small, true)])
            .unwrap();
        assert_eq!(
            r2.page_count, 2,
            "header + one data page shared by the payload and the map"
        );
        assert!(r2.undo_pages >= r1.page_count - r2.page_count);
        drop(store);
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered_catchall(&recovered), small);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_op_is_refused_without_poisoning_the_log() {
        let dir = temp_dir("oversized-op");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        // An import encoding past the record limit must be rejected before
        // anything reaches the log (the caller checkpoints instead)...
        let huge = LoggedOp::ImportRows {
            row: 0,
            col: 0,
            width: 1,
            rows: 1,
            block: codec::encode_block(
                1,
                &[vec![CellValue::Text("x".repeat(MAX_LOGGED_OP_BYTES))]],
            ),
        };
        let err = store.log(&huge).unwrap_err();
        assert!(matches!(
            err,
            EngineError::Store(StoreError::LimitExceeded(_))
        ));
        // ...and the tape stays whole: later ops log and recover fine.
        store
            .log(&LoggedOp::SetCell {
                row: 0,
                col: 0,
                input: "1".into(),
            })
            .unwrap();
        store.sync().unwrap();
        drop(store);
        let (_, recovered) = DurableStore::open(&dir).unwrap();
        assert_eq!(recovered.ops.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_region_without_stored_image_is_rejected() {
        let dir = temp_dir("clean-missing");
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        let err = store
            .checkpoint(vec![catchall_image(&[], false)])
            .unwrap_err();
        assert!(matches!(err, EngineError::Store(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
