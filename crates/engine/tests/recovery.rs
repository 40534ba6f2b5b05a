//! Crash-recovery suite for the durable engine.
//!
//! The crash model under test: the process stops at an arbitrary byte of
//! the WAL — after some op appends, before the next checkpoint. Recovery
//! must always reconstruct the state as of some *op prefix* (a cut inside
//! a record yields the pre-op state, a cut at a record boundary the
//! post-op state) and must never surface a torn cell.
//!
//! `wal_cut_at_every_byte_boundary` literalizes that: it commits a tape,
//! then for every prefix length of the WAL file reopens a cloned store and
//! compares against an in-memory engine that replayed exactly the ops
//! whose records are fully contained in the prefix.

#[path = "common/cells.rs"]
mod cells;
mod common;

use cells::StoreCells;
use std::path::{Path, PathBuf};

use common::{apply, tape};

use dataspread_engine::durable::{image_path, wal_path, IMAGE_FILE, WAL_FILE};
use dataspread_engine::{EngineError, SheetEngine};
use dataspread_grid::CellAddr;
use dataspread_relstore::StoreError;

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dataspread-recovery-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Clone a durable sheet directory — the "crash image" of a live store.
/// Copies every file so a future addition to the store layout cannot
/// silently diverge from what a real crash would preserve.
fn clone_store(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Record end-offsets in a WAL file, parsed from the framing alone (the
/// header, then `len u32 | crc u32 | payload` records).
fn record_ends(wal_bytes: &[u8]) -> Vec<usize> {
    use dataspread_relstore::wal::{WAL_HEADER_LEN, WAL_RECORD_OVERHEAD};
    let mut ends = Vec::new();
    let mut off = WAL_HEADER_LEN as usize;
    while off + WAL_RECORD_OVERHEAD as usize <= wal_bytes.len() {
        let len = u32::from_le_bytes(wal_bytes[off..off + 4].try_into().unwrap()) as usize;
        let end = off + WAL_RECORD_OVERHEAD as usize + len;
        if end > wal_bytes.len() {
            break;
        }
        ends.push(end);
        off = end;
    }
    ends
}

/// Cut the committed WAL at every byte and check each cut recovers exactly
/// the ops whose records are fully contained in the prefix.
fn assert_every_cut_recovers_a_prefix(base: &Path, applied_ops: &[common::TapeOp], label: &str) {
    let image_bytes = std::fs::read(image_path(base)).unwrap();
    let wal_bytes = std::fs::read(wal_path(base)).unwrap();
    let ends = record_ends(&wal_bytes);
    assert_eq!(
        ends.len(),
        applied_ops.len(),
        "{label}: one WAL record per applied op"
    );

    // Expected states are engine states after each op prefix; advance the
    // in-memory reference engine lazily as cuts cross record boundaries.
    let mut reference = SheetEngine::new();
    let mut applied = 0usize;
    let cut_dir = temp_dir(&format!("cuts-work-{label}"));
    for cut in 0..=wal_bytes.len() {
        let committed = ends.iter().take_while(|e| **e <= cut).count();
        while applied < committed {
            apply(&mut reference, &applied_ops[applied]);
            applied += 1;
        }
        std::fs::remove_dir_all(&cut_dir).ok();
        std::fs::create_dir_all(&cut_dir).unwrap();
        std::fs::write(image_path(&cut_dir), &image_bytes).unwrap();
        std::fs::write(wal_path(&cut_dir), &wal_bytes[..cut]).unwrap();
        let recovered = SheetEngine::open(&cut_dir)
            .unwrap_or_else(|e| panic!("{label}: open failed at cut {cut}: {e}"));
        assert_eq!(
            recovered.snapshot(),
            reference.snapshot(),
            "{label}: cut at byte {cut} must recover exactly {committed} ops"
        );
    }
    std::fs::remove_dir_all(&cut_dir).ok();
}

#[test]
fn wal_cut_at_every_byte_boundary_recovers_an_op_prefix() {
    let ops = tape(20_260_731, 40);
    let base = temp_dir("cuts-base");
    let mut applied_ops = Vec::new();
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        for op in &ops {
            // Rejected imports (overlap) log nothing; track what applied.
            if apply(&mut engine, op) {
                applied_ops.push(op.clone());
            }
        }
        engine.save().unwrap();
    }
    assert_every_cut_recovers_a_prefix(&base, &applied_ops, "random-tape");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn bulk_import_record_cut_at_every_byte_recovers_a_prefix() {
    use common::TapeOp;
    // A tape with a guaranteed large import: cuts landing *inside* the
    // bulk record must yield the pre-import state, cuts at its boundary
    // the post-import state — the import is atomic under crash.
    let ops = vec![
        TapeOp::Set {
            row: 0,
            col: 0,
            input: "before".into(),
        },
        TapeOp::Import {
            row: 40,
            col: 2,
            width: 5,
            n_rows: 20,
        },
        TapeOp::Set {
            row: 1,
            col: 0,
            input: "after".into(),
        },
        TapeOp::DeleteRows { at: 45, n: 3 },
    ];
    let base = temp_dir("import-cuts-base");
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        for op in &ops {
            assert!(apply(&mut engine, op), "scripted tape must apply fully");
        }
        engine.save().unwrap();
    }
    assert_every_cut_recovers_a_prefix(&base, &ops, "bulk-import");
    std::fs::remove_dir_all(&base).ok();
}

/// Ops in the large committed tape (the ISSUE's acceptance bar is ≥100k
/// committed cell updates surviving a pre-checkpoint crash; debug builds
/// run a scaled-down tape to keep tier-1 `cargo test` fast, CI runs this
/// suite in `--release`).
const LARGE_OPS: usize = if cfg!(debug_assertions) {
    2_000
} else {
    100_000
};

#[test]
fn large_committed_tape_survives_crash_before_checkpoint() {
    let base = temp_dir("large-base");
    let crash = temp_dir("large-crash");
    let mut engine = SheetEngine::open(&base).unwrap();
    for i in 0..LARGE_OPS as u32 {
        let addr = CellAddr::new(i % 1009, i / 1009);
        let input = if i % 997 == 0 {
            "=SUM(1,2,3)".to_string()
        } else {
            format!("{}", (i as i64) * 3 - 1)
        };
        engine.update_cell(addr, &input).unwrap();
    }
    engine.save().unwrap(); // fsync-point: the tape is committed
    let stats = engine.persistence_stats().unwrap();
    assert_eq!(stats.ops_since_checkpoint, LARGE_OPS as u64);

    // Simulated crash: freeze the on-disk state while the engine is still
    // live (stops after WAL append, before any checkpoint).
    clone_store(&base, &crash);
    let mut recovered = SheetEngine::open(&crash).unwrap();
    assert_eq!(
        recovered.snapshot(),
        engine.snapshot(),
        "recovered logical state must match the pre-crash engine"
    );

    // "Byte-identical": checkpointing both engines must produce identical
    // image files (the image serialization is canonical).
    engine.checkpoint().unwrap();
    recovered.checkpoint().unwrap();
    assert_eq!(
        std::fs::read(image_path(&base)).unwrap(),
        std::fs::read(image_path(&crash)).unwrap(),
        "canonical checkpoint images must be byte-identical"
    );
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&crash).ok();
}

#[test]
fn recovery_is_idempotent() {
    let base = temp_dir("idem-base");
    let crash = temp_dir("idem-crash");
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        for op in &tape(7, 60) {
            apply(&mut engine, op);
        }
        engine.save().unwrap();
        clone_store(&base, &crash);
    }
    let first = SheetEngine::open(&crash).unwrap().snapshot();
    // The first open folded the WAL into the image; a second open must see
    // the identical state (now from the image instead of replay).
    let second = SheetEngine::open(&crash).unwrap();
    assert_eq!(second.snapshot(), first);
    assert_eq!(second.persistence_stats().unwrap().ops_since_checkpoint, 0);
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&crash).ok();
}

#[test]
fn structural_tape_survives_crash() {
    // Row/col splices interleaved with updates: recovery must replay them
    // in order.
    for seed in [99, 100, 101] {
        let base = temp_dir(&format!("struct-{seed}"));
        let crash = temp_dir(&format!("struct-crash-{seed}"));
        let ops = tape(seed, 150);
        let mut engine = SheetEngine::open(&base).unwrap();
        let mut reference = SheetEngine::new();
        for op in &ops {
            apply(&mut engine, op);
            apply(&mut reference, op);
        }
        engine.save().unwrap();
        clone_store(&base, &crash);
        let recovered = SheetEngine::open(&crash).unwrap();
        assert_eq!(recovered.snapshot(), reference.snapshot(), "seed={seed}");
        std::fs::remove_dir_all(&base).ok();
        std::fs::remove_dir_all(&crash).ok();
    }
}

#[test]
fn garbage_wal_tail_is_ignored_but_garbage_image_is_rejected() {
    let base = temp_dir("garbage");
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        engine.update_cell_a1("A1", "42").unwrap();
        engine.save().unwrap();
    }
    // Append garbage to the WAL: recovery keeps the committed prefix.
    let mut wal = std::fs::read(wal_path(&base)).unwrap();
    wal.extend_from_slice(b"\xDE\xAD\xBE\xEF garbage tail");
    std::fs::write(wal_path(&base), &wal).unwrap();
    let engine = SheetEngine::open(&base).unwrap();
    assert_eq!(
        engine.value(CellAddr::parse_a1("A1").unwrap()),
        dataspread_grid::CellValue::Number(42.0)
    );
    drop(engine);
    // Corrupt a region payload in the image: recovery must refuse, not
    // hallucinate. Byte 4 of page 1 is the value tag in the catch-all's
    // CRC-covered payload (1 row, row gap 0, 1 cell, column gap 0, then
    // tag Int and 42).
    let mut image = std::fs::read(image_path(&base)).unwrap();
    image[8192 + 4] ^= 0xFF;
    std::fs::write(image_path(&base), &image).unwrap();
    assert!(SheetEngine::open(&base).is_err());
    std::fs::remove_dir_all(&base).ok();
}

/// A torn grow-write leaves a partial page after the image's last whole
/// page. The image is its whole pages alone: open serves the same sheet,
/// and the next checkpoint cuts the tail away.
#[test]
fn a_torn_trailing_page_is_ignored_and_cut_by_the_next_checkpoint() {
    let base = temp_dir("torn-tail");
    let snapshot = {
        let mut engine = SheetEngine::open(&base).unwrap();
        for op in &tape(11, 60) {
            apply(&mut engine, op);
        }
        engine.checkpoint().unwrap();
        engine.snapshot()
    };
    let mut image = std::fs::read(image_path(&base)).unwrap();
    assert_eq!(image.len() % 8192, 0);
    image.extend_from_slice(&[0x5A; 17]);
    std::fs::write(image_path(&base), &image).unwrap();
    let mut engine = SheetEngine::open(&base).unwrap();
    assert_eq!(engine.snapshot(), snapshot);
    engine.update_cell(CellAddr::new(0, 0), "7").unwrap();
    engine.checkpoint().unwrap();
    assert_eq!(std::fs::read(image_path(&base)).unwrap().len() % 8192, 0);
    drop(engine);
    let engine = SheetEngine::open(&base).unwrap();
    assert_eq!(
        engine.value(CellAddr::new(0, 0)),
        dataspread_grid::CellValue::Number(7.0)
    );
    std::fs::remove_dir_all(&base).ok();
}

// ----------------------------------------------------- v1 rejection --

/// Hand-built PR 2-era (format version 1) image: one header page (magic,
/// version, posmap, payload length, payload CRC), then the whole-sheet
/// cell payload chunked into pages 1.. .
fn v1_image_bytes(cells: &[(u32, u32, f64)]) -> Vec<u8> {
    const PAGE: usize = 8192;
    let mut payload = Vec::new();
    payload.extend_from_slice(&(cells.len() as u64).to_le_bytes());
    for (row, col, value) in cells {
        payload.extend_from_slice(&row.to_le_bytes());
        payload.extend_from_slice(&col.to_le_bytes());
        payload.push(0); // no formula
        payload.push(1); // value tag: number
        payload.extend_from_slice(&value.to_le_bytes());
    }
    let mut image = Vec::new();
    image.extend_from_slice(b"DSIM");
    image.extend_from_slice(&1u32.to_le_bytes()); // version 1
    image.push(2); // posmap: hierarchical
    image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    image.extend_from_slice(&dataspread_relstore::crc32(&payload).to_le_bytes());
    image.resize(PAGE, 0);
    image.extend_from_slice(&payload);
    image.resize(PAGE * (1 + payload.len().div_ceil(PAGE)), 0);
    image
}

/// Hand-built v1 WAL (8-byte header) holding one SetCell logged op.
fn v1_wal_bytes(row: u32, col: u32, input: &str) -> Vec<u8> {
    let mut op = vec![0u8, 0u8]; // record kind REC_OP, op tag SetCell
    op.extend_from_slice(&row.to_le_bytes());
    op.extend_from_slice(&col.to_le_bytes());
    op.extend_from_slice(&(input.len() as u32).to_le_bytes());
    op.extend_from_slice(input.as_bytes());
    let mut wal = Vec::new();
    wal.extend_from_slice(b"DSWL");
    wal.extend_from_slice(&1u32.to_le_bytes()); // version 1
    wal.extend_from_slice(&(op.len() as u32).to_le_bytes());
    wal.extend_from_slice(&dataspread_relstore::crc32(&op).to_le_bytes());
    wal.extend_from_slice(&op);
    wal
}

/// Format version 1 has no reader any more: a v1 image and a v1 WAL are
/// each refused with a `Corrupt` error naming the version, and the refused
/// file keeps its bytes.
#[test]
fn v1_image_and_v1_wal_are_refused_untouched() {
    let image = v1_image_bytes(&[(0, 0, 11.0), (3, 2, 7.5), (100, 0, -4.0)]);
    let wal = v1_wal_bytes(1, 0, "42");
    for (name, file, bytes) in [("v1-image", IMAGE_FILE, &image), ("v1-wal", WAL_FILE, &wal)] {
        let dir = temp_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(file);
        std::fs::write(&path, bytes).unwrap();
        match SheetEngine::open(&dir) {
            Err(EngineError::Store(StoreError::Corrupt(msg))) => {
                assert!(msg.ends_with("unsupported version 1"), "{name}: {msg}")
            }
            other => panic!("{name}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
        assert_eq!(&std::fs::read(&path).unwrap(), bytes, "{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Hand-built WAL of format version 2 (magic, version, epoch, segment
/// index) holding one SetCell logged op.
fn v2_wal_bytes(row: u32, col: u32, input: &str) -> Vec<u8> {
    let v1 = v1_wal_bytes(row, col, input);
    let mut wal = Vec::new();
    wal.extend_from_slice(b"DSWL");
    wal.extend_from_slice(&2u32.to_le_bytes()); // version 2
    wal.extend_from_slice(&5u64.to_le_bytes()); // epoch
    wal.extend_from_slice(&0u64.to_le_bytes()); // segment index
    wal.extend_from_slice(&v1[8..]); // the framed record
    wal
}

/// WAL format version 2 has no reader either: it chained rotated segment
/// files and kept the ticket base in a side file, and version 3 keeps the
/// ticket base in its one file's header. A v2 WAL is refused with a
/// `Corrupt` error naming the version, and the file keeps its bytes.
#[test]
fn v2_wal_is_refused_untouched() {
    let wal = v2_wal_bytes(1, 0, "42");
    let dir = temp_dir("v2-wal");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(wal_path(&dir), &wal).unwrap();
    match SheetEngine::open(&dir) {
        Err(EngineError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.ends_with("unsupported version 2"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), wal);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-built WAL of format version 3 (magic, version, epoch, ticket base,
/// header CRC) holding one import record of that format: its rows as
/// tagged values (a `u32` row count, per row a `u32` value count, per
/// value a tag byte and a raw `f64`).
fn v3_wal_bytes() -> Vec<u8> {
    let mut op = vec![0u8, 6u8]; // record kind REC_OP, op tag ImportRows
    for field in [4u32, 1, 2, 1, 2] {
        // row, col, width, then the row count and the first row's length
        op.extend_from_slice(&field.to_le_bytes());
    }
    for n in [1.5f64, -2.0] {
        op.push(1); // Number
        op.extend_from_slice(&n.to_le_bytes());
    }
    let crc = dataspread_relstore::crc32;
    let mut wal = Vec::new();
    wal.extend_from_slice(b"DSWL");
    wal.extend_from_slice(&3u32.to_le_bytes()); // version 3
    let mut tail = Vec::new();
    tail.extend_from_slice(&1u64.to_le_bytes()); // epoch
    tail.extend_from_slice(&7u64.to_le_bytes()); // ticket base
    wal.extend_from_slice(&tail);
    wal.extend_from_slice(&crc(&tail).to_le_bytes());
    wal.extend_from_slice(&(op.len() as u32).to_le_bytes());
    wal.extend_from_slice(&crc(&op).to_le_bytes());
    wal.extend_from_slice(&op);
    wal
}

/// WAL format version 4 logs an import's cells as a cell block; a
/// version-3 log, whose import records hold tagged rows, is refused with a
/// `Corrupt` error naming the version, and neither the log nor the image
/// beside it changes a byte.
#[test]
fn v3_wal_is_refused_untouched() {
    let dir = temp_dir("v3-wal");
    {
        let mut engine = SheetEngine::open(&dir).unwrap();
        engine.update_cell(CellAddr::new(0, 0), "kept").unwrap();
        engine.checkpoint().unwrap();
    }
    let wal = v3_wal_bytes();
    std::fs::write(wal_path(&dir), &wal).unwrap();
    let image = std::fs::read(image_path(&dir)).unwrap();
    match SheetEngine::open(&dir) {
        Err(EngineError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.ends_with("unsupported version 3"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), wal);
    assert_eq!(std::fs::read(image_path(&dir)).unwrap(), image);
    std::fs::remove_dir_all(&dir).ok();
}

/// The WAL header carries the epoch and the ticket base under a CRC, so
/// no single flipped bit can open the log as another generation or with
/// another ticket horizon: each of the header's 224 flips is refused as
/// corrupt, with the log left byte-identical.
#[test]
fn a_flipped_bit_in_the_wal_header_is_refused_untouched() {
    use dataspread_relstore::wal::WAL_HEADER_LEN;
    let base = temp_dir("wal-header-bits");
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        engine.update_cell_a1("B2", "7").unwrap();
        engine.save().unwrap();
    }
    let wal = std::fs::read(wal_path(&base)).unwrap();
    assert!(
        wal.len() > WAL_HEADER_LEN as usize,
        "the log holds a record"
    );
    let dir = temp_dir("wal-header-bit");
    for bit in 0..WAL_HEADER_LEN as usize * 8 {
        clone_store(&base, &dir);
        let mut flipped = wal.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(wal_path(&dir), &flipped).unwrap();
        match SheetEngine::open(&dir) {
            Err(EngineError::Store(StoreError::Corrupt(_))) => {}
            other => panic!(
                "bit {bit}: expected Corrupt, got {:?}",
                other.map(|e| e.recovery_horizon())
            ),
        }
        assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), flipped, "bit {bit}");
    }
    // The untouched log still opens, with the cell it logged.
    let reopened = SheetEngine::open(&base).unwrap();
    assert_eq!(
        reopened.value(CellAddr::new(1, 1)),
        dataspread_grid::CellValue::Number(7.0)
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&base).ok();
}

/// Hand-built PR 3-era (format version 2) image of one catch-all cell:
/// header page, the catch-all's v2 cell payload (`u64` count, then per
/// cell `row u32 | col u32 | formula flag | value tag | f64`) on page 1,
/// the page-allocation map on page 2.
fn v2_image_bytes(row: u32, col: u32, value: f64) -> Vec<u8> {
    const PAGE: usize = 8192;
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&row.to_le_bytes());
    payload.extend_from_slice(&col.to_le_bytes());
    payload.push(0); // no formula
    payload.push(1); // value tag: number
    payload.extend_from_slice(&value.to_le_bytes());
    let mut map = Vec::new();
    map.extend_from_slice(&1u32.to_le_bytes()); // one region
    map.extend_from_slice(&0u64.to_le_bytes()); // id 0: the catch-all
    map.push(4); // kind: catch-all
    map.extend_from_slice(&[0u8; 16]); // rect (0,0)..(0,0)
    map.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    map.extend_from_slice(&dataspread_relstore::crc32(&payload).to_le_bytes());
    map.extend_from_slice(&1u32.to_le_bytes());
    map.extend_from_slice(&1u64.to_le_bytes()); // on page 1
    let mut image = Vec::new();
    image.extend_from_slice(b"DSIM");
    image.extend_from_slice(&2u32.to_le_bytes()); // version 2
    image.push(2); // posmap: hierarchical
    image.extend_from_slice(&(map.len() as u64).to_le_bytes());
    image.extend_from_slice(&dataspread_relstore::crc32(&map).to_le_bytes());
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(&2u64.to_le_bytes()); // map on page 2
    for (page, bytes) in [(1, &payload), (2, &map)] {
        image.resize(PAGE * page, 0);
        image.extend_from_slice(bytes);
    }
    image.resize(PAGE * 3, 0);
    image
}

/// Format version 2 has no reader either: its cell payload spent 8 bytes
/// on every address and 8 on every integer, and version 3 replaced it.
/// A v2 image is refused with a `Corrupt` error naming the version, and
/// the file keeps its bytes.
#[test]
fn v2_image_is_refused_untouched() {
    let image = v2_image_bytes(3, 2, 11.0);
    let dir = temp_dir("v2-image");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(image_path(&dir), &image).unwrap();
    match SheetEngine::open(&dir) {
        Err(EngineError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.ends_with("unsupported version 2"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    assert_eq!(std::fs::read(image_path(&dir)).unwrap(), image);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-built format-version-3 image of one catch-all cell:
/// the header (magic, version, posmap, map length and CRC, then the map's
/// page list), the cell payload on page 1 — 1 row, row gap 3, 1 cell,
/// column gap 2, tag Int, zigzag 22 — and the page-allocation map on page
/// 2, whose entry gives the catch-all's length, CRC and page list.
fn v3_image_bytes() -> Vec<u8> {
    const PAGE: usize = 8192;
    let payload = [0x01, 0x03, 0x01, 0x02, 0x01, 0x16];
    let mut map = Vec::new();
    map.extend_from_slice(&1u32.to_le_bytes()); // one region
    map.extend_from_slice(&0u64.to_le_bytes()); // id 0: the catch-all
    map.push(4); // kind: catch-all
    map.extend_from_slice(&[0u8; 16]); // rect (0,0)..(0,0)
    map.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    map.extend_from_slice(&dataspread_relstore::crc32(&payload).to_le_bytes());
    map.extend_from_slice(&1u32.to_le_bytes());
    map.extend_from_slice(&1u64.to_le_bytes()); // on page 1
    let mut image = Vec::new();
    image.extend_from_slice(b"DSIM");
    image.extend_from_slice(&3u32.to_le_bytes()); // version 3
    image.push(2); // posmap: hierarchical
    image.extend_from_slice(&(map.len() as u64).to_le_bytes());
    image.extend_from_slice(&dataspread_relstore::crc32(&map).to_le_bytes());
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(&2u64.to_le_bytes()); // map on page 2
    for (page, bytes) in [(1, &payload[..]), (2, &map)] {
        image.resize(PAGE * page, 0);
        image.extend_from_slice(bytes);
    }
    image.resize(PAGE * 3, 0);
    image
}

/// Format version 3 has no reader either: it gave every region its own
/// run of pages, and version 4 packs payloads into byte extents instead. A
/// v3 image is refused with a `Corrupt` error naming the version, and the
/// file keeps its bytes.
#[test]
fn v3_image_is_refused_untouched() {
    let image = v3_image_bytes();
    let dir = temp_dir("v3-image");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(image_path(&dir), &image).unwrap();
    match SheetEngine::open(&dir) {
        Err(EngineError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.ends_with("unsupported version 3"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    assert_eq!(std::fs::read(image_path(&dir)).unwrap(), image);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-built format-version-4 image of one catch-all cell: the header
/// (magic, version, posmap, map length and CRC, map offset), the cell
/// payload at byte 8192 — 1 row, row gap 3, 1 cell, column gap 2, tag
/// Int, zigzag 22 — and the map right after it, whose one entry gives the
/// catch-all's offset, length and CRC.
fn v4_image_bytes() -> Vec<u8> {
    let payload = [0x01, 0x03, 0x01, 0x02, 0x01, 0x16];
    let mut map = Vec::new();
    map.extend_from_slice(&1u32.to_le_bytes()); // one region
    map.extend_from_slice(&0u64.to_le_bytes()); // id 0: the catch-all
    map.push(4); // kind: catch-all
    map.extend_from_slice(&[0u8; 16]); // rect (0,0)..(0,0)
    map.extend_from_slice(&8192u64.to_le_bytes());
    map.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    map.extend_from_slice(&dataspread_relstore::crc32(&payload).to_le_bytes());
    let mut image = Vec::new();
    image.extend_from_slice(b"DSIM");
    image.extend_from_slice(&4u32.to_le_bytes()); // version 4
    image.push(2); // posmap: hierarchical
    image.extend_from_slice(&(map.len() as u64).to_le_bytes());
    image.extend_from_slice(&dataspread_relstore::crc32(&map).to_le_bytes());
    image.extend_from_slice(&(8192 + payload.len() as u64).to_le_bytes());
    image.resize(8192, 0);
    image.extend_from_slice(&payload);
    image.extend_from_slice(&map);
    image.resize(2 * 8192, 0);
    image
}

/// Format version 4 has no reader either: its cell payload spelled every
/// decimal as 8 raw bytes, every repeated text in full and a column gap
/// before every cell, and version 5 replaced it. A v4 image is refused
/// with a `Corrupt` error naming the version, and the file keeps its
/// bytes.
#[test]
fn v4_image_is_refused_untouched() {
    let image = v4_image_bytes();
    let dir = temp_dir("v4-image");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(image_path(&dir), &image).unwrap();
    match SheetEngine::open(&dir) {
        Err(EngineError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.ends_with("unsupported version 4"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    assert_eq!(std::fs::read(image_path(&dir)).unwrap(), image);
    std::fs::remove_dir_all(&dir).ok();
}

/// Hand-built format-version-5 image of one catch-all formula cell: the
/// header (magic, version, posmap, map length and CRC, map offset), the
/// cell payload at byte 8192 — 1 row, row gap 3, 1 cell dense from column
/// 2, tag Int + formula, zigzag 22, then the source `A1` behind its
/// length — and the map right after it.
fn v5_image_bytes() -> Vec<u8> {
    let payload = [0x01, 0x03, 0x03, 0x02, 0x09, 0x16, 0x02, b'A', b'1'];
    let mut map = Vec::new();
    map.extend_from_slice(&1u32.to_le_bytes()); // one region
    map.extend_from_slice(&0u64.to_le_bytes()); // id 0: the catch-all
    map.push(4); // kind: catch-all
    map.extend_from_slice(&[0u8; 16]); // rect (0,0)..(0,0)
    map.extend_from_slice(&8192u64.to_le_bytes());
    map.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    map.extend_from_slice(&dataspread_relstore::crc32(&payload).to_le_bytes());
    let mut image = Vec::new();
    image.extend_from_slice(b"DSIM");
    image.extend_from_slice(&5u32.to_le_bytes()); // version 5
    image.push(2); // posmap: hierarchical
    image.extend_from_slice(&(map.len() as u64).to_le_bytes());
    image.extend_from_slice(&dataspread_relstore::crc32(&map).to_le_bytes());
    image.extend_from_slice(&(8192 + payload.len() as u64).to_le_bytes());
    image.resize(8192, 0);
    image.extend_from_slice(&payload);
    image.extend_from_slice(&map);
    image.resize(2 * 8192, 0);
    image
}

/// Format version 5 has no reader either: it spelled every formula source
/// in full, and version 6 writes each source's relative template once per
/// payload. A v5 image is refused with a `Corrupt` error naming the
/// version, and the file keeps its bytes.
#[test]
fn v5_image_is_refused_untouched() {
    let image = v5_image_bytes();
    let dir = temp_dir("v5-image");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(image_path(&dir), &image).unwrap();
    match SheetEngine::open(&dir) {
        Err(EngineError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.ends_with("unsupported version 5"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    assert_eq!(std::fs::read(image_path(&dir)).unwrap(), image);
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------- hostile v6 image maps --

/// A hand-built v6 map entry: `(id, kind, offset, len, crc)`; the rect is
/// `(0,0)..(0,0)`.
type MapEntry = (u64, u8, u64, u64, u32);

/// Kind tags of the image map.
const KIND_ROM: u8 = 0;
const KIND_CATCHALL: u8 = 4;

/// A hand-built format-version-6 image of `pages` zeroed pages: the header
/// (magic, version, posmap, map length and CRC, map offset), the map of
/// `entries` at byte `map_off`, and each `(offset, bytes)` of `payloads`.
/// The map's CRC is always right, so only the extents it lists can be
/// wrong.
fn v6_image_bytes(
    pages: usize,
    map_off: usize,
    entries: &[MapEntry],
    payloads: &[(usize, &[u8])],
) -> Vec<u8> {
    let mut map = Vec::new();
    map.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for &(id, kind, offset, len, crc) in entries {
        map.extend_from_slice(&id.to_le_bytes());
        map.push(kind);
        map.extend_from_slice(&[0u8; 16]);
        map.extend_from_slice(&offset.to_le_bytes());
        map.extend_from_slice(&len.to_le_bytes());
        map.extend_from_slice(&crc.to_le_bytes());
    }
    let mut header = Vec::new();
    header.extend_from_slice(b"DSIM");
    header.extend_from_slice(&6u32.to_le_bytes()); // version 6
    header.push(2); // posmap: hierarchical
    header.extend_from_slice(&(map.len() as u64).to_le_bytes());
    header.extend_from_slice(&dataspread_relstore::crc32(&map).to_le_bytes());
    header.extend_from_slice(&(map_off as u64).to_le_bytes());
    let mut image = vec![0u8; 8192 * pages];
    for (at, bytes) in [(0, &header[..]), (map_off, &map[..])]
        .into_iter()
        .chain(payloads.iter().copied())
    {
        image[at..at + bytes.len()].copy_from_slice(bytes);
    }
    image
}

/// Open each named image and expect `Corrupt`, with `pages.db` left
/// byte-identical.
fn assert_refused_untouched(cases: &[(&str, Vec<u8>)]) {
    for (name, image) in cases {
        let dir = temp_dir(name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(image_path(&dir), image).unwrap();
        match SheetEngine::open(&dir) {
            Err(EngineError::Store(StoreError::Corrupt(_))) => {}
            other => panic!("{name}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
        assert_eq!(&std::fs::read(image_path(&dir)).unwrap(), image, "{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The empty cell payload (no rows), and its CRC.
const NO_CELLS: [u8; 1] = [0];

fn no_cells_crc() -> u32 {
    dataspread_relstore::crc32(&NO_CELLS)
}

/// The hostile maps below differ from this one only in their extents: a
/// hand-built v6 image with the empty catch-all at 8192 and the map after
/// it opens to an empty sheet.
#[test]
fn a_hand_built_v6_image_opens() {
    let catchall = (0, KIND_CATCHALL, 8192, 1, no_cells_crc());
    let image = v6_image_bytes(2, 8192 + 1, &[catchall], &[(8192, &NO_CELLS)]);
    let dir = temp_dir("v6-image");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(image_path(&dir), &image).unwrap();
    let engine = SheetEngine::open(&dir).unwrap();
    assert_eq!(engine.storage().filled_count(), 0);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// An extent may not start inside the header page. The header's bytes end
/// at 29 and the rest of the page is zero, so an extent of one byte at 29
/// reads the empty cell payload and passes its CRC: the map is refused for
/// where the extent lies, not for what it holds.
#[test]
fn an_extent_inside_the_header_page_is_refused_untouched() {
    let image = v6_image_bytes(2, 8192, &[(0, KIND_CATCHALL, 29, 1, no_cells_crc())], &[]);
    assert_refused_untouched(&[("extent-in-header", image)]);
}

/// An extent must end inside the file, `offset + len` computed without
/// overflow: `len = u64::MAX` used to be the size of the buffer asked for,
/// and a length one byte too long reads past the last page.
#[test]
fn an_extent_past_the_end_of_the_file_is_refused_untouched() {
    let catchall = (0, KIND_CATCHALL, 8192, 1, no_cells_crc());
    let cases = [
        ("extent-len-max", u64::MAX),
        ("extent-one-past-end", 8192 - 100 + 1),
    ]
    .map(|(name, len)| {
        let region = (1, KIND_ROM, 8192 + 100, len, no_cells_crc());
        let image = v6_image_bytes(2, 8192 + 1, &[catchall, region], &[(8192, &NO_CELLS)]);
        (name, image)
    });
    assert_refused_untouched(&cases);
}

/// No extent may overlap another region's or the map's. Each image is
/// CRC-valid throughout: two regions naming the same byte of the same
/// empty payload, and a region naming the map's second byte, which is the
/// zero high byte of its region count and so reads as the empty payload
/// too. Accepting either would let a later checkpoint that rewrites one
/// extent zero or overwrite the bytes the other still claims.
#[test]
fn overlapping_extents_are_refused_untouched() {
    let catchall = (0, KIND_CATCHALL, 8192, 1, no_cells_crc());
    let map_off = 8192 + 1;
    let cases = [
        ("extents-same-offset", 8192),
        ("extent-in-the-map", map_off as u64 + 1),
    ]
    .map(|(name, offset)| {
        let region = (1, KIND_ROM, offset, 1, no_cells_crc());
        let image = v6_image_bytes(2, map_off, &[catchall, region], &[(8192, &NO_CELLS)]);
        (name, image)
    });
    assert_refused_untouched(&cases);
}

/// The header page carries no CRC, so the map's extent is checked against
/// the file's length before anything is allocated: a flipped
/// high bit used to request a terabyte and abort the process. Each flip
/// is refused as corrupt, with the image left byte-identical.
#[test]
fn a_flipped_bit_in_the_header_map_length_is_refused_untouched() {
    let base = temp_dir("header-bits");
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        engine.update_cell_a1("B2", "7").unwrap();
        engine.checkpoint().unwrap();
    }
    let image = std::fs::read(image_path(&base)).unwrap();
    // magic 4 | version 4 | posmap 1 | map_len u64 at byte 9.
    const MAP_LEN_AT: usize = 9;
    for bit in [40usize, 62, 63] {
        let dir = temp_dir(&format!("header-bit-{bit}"));
        clone_store(&base, &dir);
        let mut flipped = image.clone();
        flipped[MAP_LEN_AT + bit / 8] ^= 1 << (bit % 8);
        std::fs::write(image_path(&dir), &flipped).unwrap();
        match SheetEngine::open(&dir) {
            Err(EngineError::Store(StoreError::Corrupt(_))) => {}
            other => panic!("bit {bit}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
        assert_eq!(
            std::fs::read(image_path(&dir)).unwrap(),
            flipped,
            "bit {bit}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The header's positional-map byte names the hierarchical map (2), the
/// only one there is. An image naming another — the position-as-is (0) and
/// monotonic (1) codes older images could carry, or an unknown 3 — is
/// refused as corrupt, with the image left byte-identical.
#[test]
fn an_image_naming_another_positional_map_is_refused_untouched() {
    let base = temp_dir("posmap-byte");
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        engine.update_cell_a1("B2", "7").unwrap();
        engine.checkpoint().unwrap();
    }
    let image = std::fs::read(image_path(&base)).unwrap();
    // magic 4 | version 4 | posmap u8 at byte 8.
    const POSMAP_AT: usize = 8;
    assert_eq!(image[POSMAP_AT], 2, "the hierarchical map is written as 2");
    for code in [0u8, 1, 3] {
        let dir = temp_dir(&format!("posmap-byte-{code}"));
        clone_store(&base, &dir);
        let mut renamed = image.clone();
        renamed[POSMAP_AT] = code;
        std::fs::write(image_path(&dir), &renamed).unwrap();
        match SheetEngine::open(&dir) {
            Err(EngineError::Store(StoreError::Corrupt(_))) => {}
            other => panic!("code {code}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
        assert_eq!(
            std::fs::read(image_path(&dir)).unwrap(),
            renamed,
            "code {code}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    // The untouched image still opens.
    let reopened = SheetEngine::open(&base).unwrap();
    assert_eq!(
        reopened.value(CellAddr::new(1, 1)),
        dataspread_grid::CellValue::Number(7.0)
    );
    drop(reopened);
    std::fs::remove_dir_all(&base).ok();
}

/// A region's payload is checked against the region's rect before a
/// single cell is built. Four CRC-valid images are refused as corrupt
/// with `pages.db` byte-identical: a cell exactly one row past the rect
/// (the builder used to grow the region to hold it), a formula cell at
/// local row `u32::MAX - 1` (its sheet row used to overflow), a
/// columnar region one row taller than its rect, and a 13-byte columnar
/// payload of `u32::MAX` rows announcing `u32::MAX` runs (its decoder,
/// which runs before the rect check, used to reserve 64 GiB for them and
/// abort).
#[test]
fn a_region_cell_outside_its_rect_is_refused_untouched() {
    use dataspread_engine::durable::{DurableStore, PayloadEncoder};
    use dataspread_engine::{
        ColumnarTranslator, ModelKind, RegionImage, ScanValue, CATCHALL_REGION_ID,
    };
    use dataspread_grid::{Cell, Rect};
    let rect = Rect::new(2, 0, 5, 2);
    let cells = |row: u32, col: u32, formula: Option<&str>| {
        let mut cells = PayloadEncoder::default();
        cells.push(0, 0, ScanValue::Number(1.0), None);
        cells.push(row, col, ScanValue::Number(2.0), formula);
        cells.finish()
    };
    let mut columnar = ColumnarTranslator::new(rect.rows() as u32 + 1, 3);
    columnar.put_cell(4, 1, Cell::formula("1+1")).unwrap();
    // Version 3 | u32::MAX rows | one column | u32::MAX runs.
    let run_count = [&[3u8][..], &[0xFF; 4], &1u32.to_le_bytes(), &[0xFF; 4]].concat();
    let cases = [
        (
            "rect-rows",
            ModelKind::Rom,
            cells(rect.rows() as u32, 0, None),
        ),
        (
            "formula-near-max",
            ModelKind::Rom,
            cells(u32::MAX - 1, 1, Some("1+1")),
        ),
        ("columnar-rows", ModelKind::Columnar, columnar.to_bytes()),
        ("columnar-run-count", ModelKind::Columnar, run_count),
    ];
    for (name, kind, payload) in cases {
        let dir = temp_dir(name);
        {
            let (mut store, _) = DurableStore::open(&dir).unwrap();
            let regions = vec![
                RegionImage {
                    id: CATCHALL_REGION_ID,
                    kind: ModelKind::Rcv,
                    rect: Rect::new(0, 0, 0, 0),
                    payload: Some(PayloadEncoder::default().finish()),
                },
                RegionImage {
                    id: 1,
                    kind,
                    rect,
                    payload: Some(payload),
                },
            ];
            store.checkpoint(regions).unwrap();
        }
        let image = std::fs::read(image_path(&dir)).unwrap();
        match SheetEngine::open(&dir) {
            Err(EngineError::Store(StoreError::Corrupt(_))) => {}
            other => panic!("{name}: expected Corrupt, got {:?}", other.map(|_| ())),
        }
        assert_eq!(std::fs::read(image_path(&dir)).unwrap(), image, "{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Columnar payload version 2 has no reader: it wrote the write overlay
/// and every formula source verbatim, and version 3 writes the region's
/// fresh build with its sources in a cell payload. A v6 image holding a
/// v2 columnar payload — one row, one column holding the number 7 — is
/// refused with a `Corrupt` error naming the version, and `pages.db` and
/// `wal.log` keep their bytes.
#[test]
fn columnar_v2_payload_is_refused_untouched() {
    use dataspread_engine::durable::{DurableStore, PayloadEncoder};
    use dataspread_engine::{ModelKind, RegionImage, CATCHALL_REGION_ID};
    use dataspread_grid::Rect;
    let mut v2 = vec![2u8]; // encoding version
    v2.extend(1u32.to_le_bytes()); // rows
    v2.extend(1u32.to_le_bytes()); // columns
    v2.extend(1u32.to_le_bytes()); // one run
    v2.push(1); // of numbers
    v2.extend(1u32.to_le_bytes()); // one row long
    v2.push(1); // packed numbers: min 7, scale 0, width 0, one value
    v2.extend(7u64.to_le_bytes());
    v2.extend([0, 0]);
    v2.extend(1u32.to_le_bytes());
    v2.extend(0u32.to_le_bytes()); // no bools
    v2.extend(0u32.to_le_bytes()); // an empty dictionary
    v2.push(0); // plain codes
    v2.extend(0u32.to_le_bytes()); // none of them
    for _ in 0..3 {
        v2.extend(0u32.to_le_bytes()); // no errors, formulas, overlay
    }
    let dir = temp_dir("columnar-v2");
    {
        let (mut store, _) = DurableStore::open(&dir).unwrap();
        let regions = vec![
            RegionImage {
                id: CATCHALL_REGION_ID,
                kind: ModelKind::Rcv,
                rect: Rect::new(0, 0, 0, 0),
                payload: Some(PayloadEncoder::default().finish()),
            },
            RegionImage {
                id: 1,
                kind: ModelKind::Columnar,
                rect: Rect::new(2, 0, 2, 0),
                payload: Some(v2),
            },
        ];
        store.checkpoint(regions).unwrap();
    }
    let image = std::fs::read(image_path(&dir)).unwrap();
    let wal = std::fs::read(wal_path(&dir)).unwrap();
    match SheetEngine::open(&dir) {
        Err(EngineError::Store(StoreError::Corrupt(msg))) => {
            assert!(msg.ends_with("unknown columnar payload version 2"), "{msg}")
        }
        other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
    }
    assert_eq!(std::fs::read(image_path(&dir)).unwrap(), image);
    assert_eq!(std::fs::read(wal_path(&dir)).unwrap(), wal);
    std::fs::remove_dir_all(&dir).ok();
}

// ------------------------------------------- region-granular recovery --

/// A sheet with many imported regions must survive a crash and come back
/// with its region layout (not flattened into the catch-all).
#[test]
fn imported_regions_survive_crash_with_layout() {
    let base = temp_dir("regions-base");
    let crash = temp_dir("regions-crash");
    let mut engine = SheetEngine::open(&base).unwrap();
    for band in 0..12u32 {
        engine
            .import_rows(
                CellAddr::new(band * 10, 0),
                4,
                (0..5u32).map(|r| {
                    (0..4u32)
                        .map(|c| {
                            dataspread_grid::CellValue::Number((band * 100 + r * 4 + c) as f64)
                        })
                        .collect()
                }),
            )
            .unwrap();
    }
    engine.checkpoint().unwrap();
    engine
        .update_cell(CellAddr::new(0, 0), "overwritten")
        .unwrap();
    engine.save().unwrap();
    clone_store(&base, &crash);
    let recovered = SheetEngine::open(&crash).unwrap();
    assert_eq!(recovered.snapshot(), engine.snapshot());
    assert_eq!(
        recovered.storage().region_count(),
        engine.storage().region_count(),
        "region layout must survive reopen"
    );
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&crash).ok();
}

/// A ROM region as the bulk builder sees it after a crash: ragged rows,
/// whole blank rows (leading, interior, trailing), formulas and texts.
/// Reopening rebuilds it from its cell run; the rebuilt region must
/// serialize to the very bytes it was read from.
#[test]
fn ragged_rom_region_reopens_to_a_byte_identical_image() {
    use dataspread_engine::durable::DurableStore;
    use dataspread_engine::{HybridSheet, CATCHALL_REGION_ID};
    use dataspread_grid::CellValue;
    let base = temp_dir("ragged-rom");
    let empty = || CellValue::Empty;
    let num = |n: f64| CellValue::Number(n);
    let rows: Vec<Vec<CellValue>> = vec![
        vec![empty(), empty(), empty(), empty(), empty()],
        vec![num(1.0), num(2.0), num(3.0), num(4.0), num(5.0)],
        vec![num(6.0), empty(), empty(), empty(), empty()],
        vec![empty(), empty(), empty(), empty(), empty()],
        vec![
            empty(),
            CellValue::Text(String::new()),
            num(7.5),
            empty(),
            empty(),
        ],
        vec![
            CellValue::Text("wide ".repeat(40)),
            empty(),
            empty(),
            empty(),
            num(8.0),
        ],
        vec![empty(), empty(), empty(), empty(), empty()],
        vec![empty(), empty(), empty(), empty(), empty()],
    ];
    let image = {
        let mut engine = SheetEngine::open(&base).unwrap();
        engine.import_rows(CellAddr::new(3, 2), 5, rows).unwrap();
        engine.update_cell(CellAddr::new(5, 4), "=C5+D5").unwrap();
        engine.update_cell(CellAddr::new(7, 3), "=1/0").unwrap();
        engine.update_cell(CellAddr::new(0, 0), "stray").unwrap();
        engine.checkpoint().unwrap();
        std::fs::read(image_path(&base)).unwrap()
    };
    {
        // Rebuild the region and the catch-all from the stored payloads
        // into a fresh sheet: each must serialize to the bytes it was
        // read from.
        let (_store, recovered) = DurableStore::open(&base).unwrap();
        let mut rebuilt = HybridSheet::new();
        rebuilt
            .restore_regions(
                recovered
                    .regions
                    .iter()
                    .map(|r| (r.id, r.kind, r.rect, r.payload.clone())),
            )
            .unwrap();
        let catchall = recovered.catchall.expect("a stored catch-all");
        rebuilt.restore_catchall(&catchall).unwrap();
        let images = rebuilt.region_images();
        assert_eq!(images.len(), 2);
        for image in images {
            let stored = match image.id {
                CATCHALL_REGION_ID => &catchall,
                id => {
                    &recovered
                        .regions
                        .iter()
                        .find(|r| r.id == id)
                        .unwrap()
                        .payload
                }
            };
            assert_eq!(
                image.payload.as_ref(),
                Some(stored),
                "region {}: the rebuilt region re-serialized to different bytes",
                image.id
            );
        }
    }
    let mut reopened = SheetEngine::open(&base).unwrap();
    assert_eq!(
        reopened.storage().layout(),
        vec![(
            dataspread_grid::Rect::new(3, 2, 10, 6),
            dataspread_engine::ModelKind::Rom
        )]
    );
    assert_eq!(std::fs::read(image_path(&base)).unwrap(), image);
    // The rebuilt region keeps serving edits on rows the image never held.
    reopened.update_cell(CellAddr::new(10, 6), "9").unwrap();
    reopened.update_cell(CellAddr::new(4, 2), "10").unwrap();
    assert_eq!(reopened.value(CellAddr::new(5, 4)), CellValue::Number(12.0));
    std::fs::remove_dir_all(&base).ok();
}

/// A reorganization that cannot be executed (one ROM tuple wider than its
/// `u16` arity header) must not cost a durable engine anything: the error
/// comes back, and the checkpoint after it persists the sheet that was
/// there before. One COM tuple for the 3 000-row column does build.
#[test]
fn failed_reorganize_then_checkpoint_loses_nothing() {
    use dataspread_grid::{CellValue, Rect};
    use dataspread_hybrid::{Decomposition, ModelKind, Region};
    let base = temp_dir("failed-reorg");
    let before = {
        let mut engine = SheetEngine::open(&base).unwrap();
        engine
            .import_rows(
                CellAddr::new(0, 0),
                1,
                (0..3000u32).map(|r| vec![CellValue::Number(f64::from(r))]),
            )
            .unwrap();
        engine
            .update_cell(CellAddr::new(0, 2), "=SUM(A1:A3000)")
            .unwrap();
        engine.update_cell(CellAddr::new(0, 40_000), "-1").unwrap();
        engine.checkpoint().unwrap();
        let before = engine.snapshot();
        let layout = engine.storage().layout();

        let err = engine
            .storage_mut()
            .reorganize(&Decomposition::new(vec![Region {
                rect: Rect::new(0, 0, 0, 40_000),
                kind: ModelKind::Rom,
            }]))
            .unwrap_err();
        assert!(
            matches!(err, EngineError::Store(StoreError::LimitExceeded(_))),
            "{err}"
        );
        assert_eq!(engine.snapshot(), before);
        assert_eq!(engine.storage().layout(), layout);
        assert_eq!(engine.storage().filled_count(), 3002);
        engine.checkpoint().unwrap();
        before
    };
    let mut reopened = SheetEngine::open(&base).unwrap();
    assert_eq!(reopened.snapshot(), before, "nothing lost");
    assert_eq!(reopened.storage().filled_count(), 3002);
    // The formula is still registered: an edit under it recomputes it.
    let sum = f64::from(2999 * 3000 / 2);
    assert_eq!(reopened.value(CellAddr::new(0, 2)), CellValue::Number(sum));
    reopened.update_cell(CellAddr::new(0, 0), "1000").unwrap();
    assert_eq!(
        reopened.value(CellAddr::new(0, 2)),
        CellValue::Number(sum + 1000.0)
    );

    let long_com = Decomposition::new(vec![Region {
        rect: Rect::new(0, 0, 2999, 0),
        kind: ModelKind::Com,
    }]);
    let edited = reopened.snapshot();
    reopened.storage_mut().reorganize(&long_com).unwrap();
    assert_eq!(reopened.snapshot(), edited);
    reopened.checkpoint().unwrap();
    drop(reopened);
    let again = SheetEngine::open(&base).unwrap();
    assert_eq!(again.snapshot(), edited);
    assert_eq!(
        again.storage().layout(),
        vec![(Rect::new(0, 0, 2999, 0), ModelKind::Com)]
    );
    std::fs::remove_dir_all(&base).ok();
}

/// A text cell far past the old 8 KB tuple limit, in a ROM region and in
/// the RCV catch-all, round-trips through an edit, a checkpoint, a logged
/// edit after it, and a reopen.
#[test]
fn a_64_kb_text_cell_survives_an_edit_a_checkpoint_and_a_reopen() {
    use dataspread_grid::CellValue;
    let base = temp_dir("big-text");
    let text: String = (0..64 * 1024)
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect();
    let in_region = CellAddr::new(1, 1);
    let in_catchall = CellAddr::new(50, 7);
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        engine
            .import_rows(
                CellAddr::new(0, 0),
                2,
                (0..3u32).map(|r| vec![CellValue::Number(f64::from(r)); 2]),
            )
            .unwrap();
        assert_eq!(engine.storage().region_count(), 1);
        engine.update_cell(in_region, &text).unwrap();
        engine.checkpoint().unwrap();
        engine
            .update_cell(in_catchall, &format!("{text}!"))
            .unwrap();
    }
    let mut reopened = SheetEngine::open(&base).unwrap();
    assert_eq!(reopened.value(in_region), CellValue::Text(text.clone()));
    assert_eq!(
        reopened.value(in_catchall),
        CellValue::Text(format!("{text}!"))
    );
    assert_eq!(reopened.value(CellAddr::new(2, 1)), CellValue::Number(2.0));
    reopened.checkpoint().unwrap();
    drop(reopened);
    let again = SheetEngine::open(&base).unwrap();
    assert_eq!(
        again.value(in_catchall),
        CellValue::Text(format!("{text}!"))
    );
    std::fs::remove_dir_all(&base).ok();
}

/// `optimize` on a sheet already laid out the way the optimizer wants it
/// keeps every region: no cell moves, nothing turns dirty, and the next
/// checkpoint has no region payload to write.
#[test]
fn second_optimize_on_an_unchanged_sheet_moves_and_writes_nothing() {
    use dataspread_engine::OptimizeAlgorithm;
    use dataspread_grid::CellValue;
    use dataspread_hybrid::{CostModel, OptimizerOptions};
    let base = temp_dir("reoptimize");
    let mut engine = SheetEngine::open(&base).unwrap();
    engine
        .import_rows(
            CellAddr::new(0, 0),
            6,
            (0..200u32).map(|r| {
                (0..6)
                    .map(|c| CellValue::Number(f64::from(r * 6 + c)))
                    .collect()
            }),
        )
        .unwrap();
    for c in 0..6u32 {
        let col = char::from(b'A' + c as u8);
        engine
            .update_cell(CellAddr::new(210, c), &format!("=SUM({col}1:{col}200)"))
            .unwrap();
    }
    engine
        .update_cell(CellAddr::new(400, 40), "far away")
        .unwrap();
    let optimize = |engine: &mut SheetEngine| {
        engine
            .optimize(
                &CostModel::postgres(),
                OptimizeAlgorithm::Agg,
                &OptimizerOptions::default(),
            )
            .unwrap()
    };
    let first = optimize(&mut engine);
    assert!(first.migrated_cells > 0, "the strays found a home");
    engine.checkpoint().unwrap();
    let layout = engine.storage().layout();
    let snapshot = engine.snapshot();

    let second = optimize(&mut engine);
    assert_eq!(second.decomposition, first.decomposition);
    assert_eq!(second.migrated_cells, 0);
    assert_eq!(second.storage_before, second.storage_after);
    assert_eq!(engine.storage().layout(), layout);
    assert_eq!(engine.snapshot(), snapshot);
    let report = engine.checkpoint().unwrap().unwrap();
    assert_eq!(report.regions_dirty, 0);
    assert_eq!(report.payload_bytes, 0);
    assert_eq!(report.pages_written, 0);
    std::fs::remove_dir_all(&base).ok();
}

/// Every formula source of `engine`, by cell.
fn formula_sources(engine: &SheetEngine) -> Vec<(CellAddr, String)> {
    engine
        .snapshot()
        .iter()
        .filter_map(|(addr, cell)| Some((addr, cell.formula.clone()?)))
        .collect()
}

/// The image stores a formula source relative to its cell, and a reopen
/// renders it back: every source must come back byte for byte as typed.
/// Two fill-down runs — one inside an imported ROM region, whose payload
/// holds local coordinates, one in the catch-all, which holds sheet
/// coordinates — mix canonical sources with lowercase, spaced and
/// function-named variants. They go through checkpoint → reopen → a row
/// insert through both runs → checkpoint → reopen, and every stored
/// source must equal a non-durable engine's that replays the same ops.
#[test]
fn formula_sources_survive_the_image_byte_for_byte() {
    use dataspread_grid::CellValue;
    let base = temp_dir("formula-sources");
    let source = |r: u32, col: &str| {
        let (a, b) = (r + 1, r + 3);
        match r % 6 {
            0 => format!("=sum(a{a}:a{b})*$c$1"),
            1 => format!("= SUM( A{a} : A{b} ) * $C$1"),
            2 => format!("=LOG10(A{a}+1)+{col}$1"),
            3 => format!("=A{a}+\"A{a}\"&A0{a}"),
            _ => format!("=SUM(A{a}:A{b})*$C$1"),
        }
    };
    let mut reference = SheetEngine::new();
    let rows = || (0..60u32).map(|r| vec![CellValue::Number(f64::from(r)), CellValue::Empty]);
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        for e in [&mut engine, &mut reference] {
            e.import_rows(CellAddr::new(0, 0), 2, rows()).unwrap();
            e.update_cell(CellAddr::new(0, 2), "3").unwrap();
            for r in 0..60 {
                e.update_cell(CellAddr::new(r, 1), &source(r, "B")).unwrap();
                e.update_cell(CellAddr::new(r, 4), &source(r, "E")).unwrap();
            }
        }
        assert_eq!(engine.storage().region_count(), 1);
        engine.checkpoint().unwrap();
    }
    let want = formula_sources(&reference);
    assert_eq!(want.len(), 120);
    assert_eq!(want[0].1, "sum(a1:a3)*$c$1");
    let mut reopened = SheetEngine::open(&base).unwrap();
    assert_eq!(formula_sources(&reopened), want, "after the first reopen");
    for e in [&mut reopened, &mut reference] {
        e.insert_rows(30, 4).unwrap();
    }
    reopened.checkpoint().unwrap();
    drop(reopened);
    let again = SheetEngine::open(&base).unwrap();
    assert_eq!(formula_sources(&again), formula_sources(&reference));
    assert_eq!(again.snapshot(), reference.snapshot());
    std::fs::remove_dir_all(&base).ok();
}
