//! Differential suite for the columnar physical layout.
//!
//! The ROM translator (and the engine stack over it) is already pinned
//! against a naive dense model by `differential.rs`; this suite pins the
//! columnar layout **cell-identical to that oracle** in three tiers:
//!
//! 1. translator-level: a `ColumnarTranslator` compacted every few ops
//!    against a `RomTranslator` under random local op tapes,
//! 2. engine-level: a `SheetEngine` whose imported region was migrated to
//!    columnar against an untouched ROM twin under the shared random op
//!    tapes *plus* single-column aggregate formulas (which take the
//!    column-scan fast path on one engine and the sparse walk on the
//!    other),
//! 3. durability: checkpoint/recover round-trips of columnar regions
//!    (the encoding is the region's extent in the image) and every-byte
//!    WAL crash cuts over a columnar-resident base image.

#[path = "common/cells.rs"]
mod cells;
mod common;

use cells::StoreCells;
use std::path::{Path, PathBuf};

use common::{apply, tape, TapeOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::durable::{image_path, wal_path, DurableStore};
use dataspread_engine::rom::RomTranslator;
use dataspread_engine::{ColumnarTranslator, ModelKind, SheetEngine, Translator};
use dataspread_grid::value::CellError;
use dataspread_grid::{Cell, CellAddr, CellValue, Rect, Shift};

const TAPE_LEN: usize = if cfg!(debug_assertions) { 120 } else { 400 };
const SEEDS: std::ops::Range<u64> = if cfg!(debug_assertions) { 0..3 } else { 0..12 };

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dataspread-columnar-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

// ------------------------------------------------- translator level --

/// A random cell for the local-translator tape: every value shape the
/// columnar stores distinguish (f64, packable ints, bools, dictionary
/// texts, errors, formulas, blanks).
fn random_cell(rng: &mut StdRng) -> Cell {
    let value = match rng.gen_range(0u32..12) {
        0..=2 => CellValue::Number(rng.gen_range(-1000..1000) as f64), // packable
        3..=4 => CellValue::Number(rng.gen_range(-10.0..10.0)),        // raw f64
        5 => CellValue::Number(-0.0),                                  // not packable
        6 => CellValue::Bool(rng.gen_bool(0.5)),
        7..=9 => CellValue::Text(["red", "green", "blue", "violet"][rng.gen_range(0..4)].into()),
        10 => CellValue::Error([CellError::Div0, CellError::Na][rng.gen_range(0..2)]),
        _ => CellValue::Empty,
    };
    let formula = rng
        .gen_bool(0.15)
        .then(|| format!("SUM({},2)", rng.gen_range(0..9)));
    Cell { value, formula }
}

/// Translator-level differential: columnar (compacted every few ops) vs
/// ROM under random set/clear/splice tapes.
#[test]
fn columnar_translator_matches_rom_under_random_ops() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(0xC01 + seed);
        let mut col = ColumnarTranslator::new(16, 6);
        let mut rom = RomTranslator::new();
        // ROM starts empty; match extents through the ops themselves.
        for i in 0..TAPE_LEN {
            let ctx = |op: &str| format!("seed={seed} op#{i} {op}");
            match rng.gen_range(0u32..100) {
                0..=69 => {
                    let (r, c) = (rng.gen_range(0..24), rng.gen_range(0..8));
                    let cell = random_cell(&mut rng);
                    col.put_cell(r, c, cell.clone()).expect("columnar set");
                    rom.put_cell(r, c, cell).expect("rom set");
                }
                70..=79 => {
                    let (r, c) = (rng.gen_range(0..24), rng.gen_range(0..8));
                    col.clear_cell(r, c).expect("columnar clear");
                    rom.clear_cell(r, c).expect("rom clear");
                }
                80..=84 => {
                    let (at, n) = (rng.gen_range(0..20), rng.gen_range(1..3));
                    col.shift(Shift::InsertRows { at, n })
                        .unwrap_or_else(|e| panic!("{}: {e}", ctx("insert rows")));
                    rom.shift(Shift::InsertRows { at, n })
                        .unwrap_or_else(|e| panic!("{}: {e}", ctx("insert rows")));
                }
                85..=89 => {
                    let (at, n) = (rng.gen_range(0..20), rng.gen_range(1..3));
                    col.shift(Shift::DeleteRows { at, n })
                        .unwrap_or_else(|e| panic!("{}: {e}", ctx("delete rows")));
                    rom.shift(Shift::DeleteRows { at, n })
                        .unwrap_or_else(|e| panic!("{}: {e}", ctx("delete rows")));
                }
                90..=94 => {
                    let (at, n) = (rng.gen_range(0..6), rng.gen_range(1..3));
                    col.shift(Shift::InsertCols { at, n })
                        .unwrap_or_else(|e| panic!("{}: {e}", ctx("insert cols")));
                    rom.shift(Shift::InsertCols { at, n })
                        .unwrap_or_else(|e| panic!("{}: {e}", ctx("insert cols")));
                }
                _ => {
                    let (at, n) = (rng.gen_range(0..6), 1);
                    col.shift(Shift::DeleteCols { at, n })
                        .unwrap_or_else(|e| panic!("{}: {e}", ctx("delete cols")));
                    rom.shift(Shift::DeleteCols { at, n })
                        .unwrap_or_else(|e| panic!("{}: {e}", ctx("delete cols")));
                }
            }
            if i % 5 == 4 {
                col.compact();
            }
            assert_eq!(col.all_cells(), rom.all_cells(), "{}", ctx("state"));
            assert_eq!(
                col.filled_count(),
                rom.filled_count(),
                "{}",
                ctx("filled_count")
            );
            // Random sub-rectangle scans agree too (get_range is the
            // read path the engine serves windows from).
            let (r1, c1) = (rng.gen_range(0..20), rng.gen_range(0..6));
            let rect = Rect::new(r1, c1, r1 + rng.gen_range(0..8), c1 + rng.gen_range(0..4));
            assert_eq!(col.get_range(rect), rom.get_range(rect), "{}", ctx("range"));
        }
        // Byte round-trip of the final state: encode → decode → re-encode
        // must be byte-identical, and the decoded translator cell-equal.
        let bytes = col.to_bytes();
        let mut back = ColumnarTranslator::from_bytes(&bytes).expect("decode");
        assert_eq!(back.to_bytes(), bytes, "seed={seed}: canonical encoding");
        assert_eq!(back.all_cells(), col.all_cells(), "seed={seed}");
    }
}

// ---------------------------------------------------- engine level --

/// The block every engine-level test imports and (on one twin) migrates
/// to columnar.
const BLOCK_ROWS: u32 = 20;
const BLOCK_COLS: u32 = 6;

fn import_block(engine: &mut SheetEngine) {
    engine
        .import_rows(
            CellAddr::new(0, 0),
            BLOCK_COLS,
            (0..BLOCK_ROWS).map(|r| {
                (0..BLOCK_COLS)
                    .map(|c| match c % 3 {
                        0 => CellValue::Number((r * 7 + c) as f64),
                        1 => CellValue::Text(["ok", "warn"][(r % 2) as usize].into()),
                        _ => CellValue::Number(r as f64 * 0.5),
                    })
                    .collect()
            }),
        )
        .expect("block import");
}

/// Migrate the engine's sole ROM region to columnar; returns its slot.
fn migrate_block(engine: &mut SheetEngine) -> usize {
    let slot = engine
        .storage()
        .layout()
        .iter()
        .position(|(_, kind)| *kind == ModelKind::Rom)
        .expect("imported ROM region");
    engine.migrate_region(slot, ModelKind::Columnar).unwrap();
    slot
}

/// Single-column aggregate formulas: on the columnar twin these hit the
/// column-scan fast path, on the ROM twin the sparse range walk — the
/// results must be bit-identical.
fn agg_formula(rng: &mut StdRng) -> String {
    let func = ["SUM", "COUNT", "COUNTA", "AVERAGE"][rng.gen_range(0..4)];
    let col = (b'A' + rng.gen_range(0..BLOCK_COLS) as u8) as char;
    let r1 = rng.gen_range(1..=10);
    let r2 = rng.gen_range(r1..=BLOCK_ROWS);
    format!("={func}({col}{r1}:{col}{r2})")
}

#[test]
fn migrated_engine_matches_rom_twin_under_random_tapes() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(0xE9E + seed);
        let mut columnar = SheetEngine::new();
        let mut rom = SheetEngine::new();
        import_block(&mut columnar);
        import_block(&mut rom);
        migrate_block(&mut columnar);
        assert_eq!(
            columnar.snapshot(),
            rom.snapshot(),
            "seed={seed}: migration must preserve content exactly"
        );

        let ops = tape(seed, TAPE_LEN);
        for (i, op) in ops.iter().enumerate() {
            // Interleave single-column aggregates over the block: the
            // twins must agree with and without the fast path.
            let op = if rng.gen_bool(0.2) {
                TapeOp::Set {
                    row: rng.gen_range(25..30),
                    col: rng.gen_range(0..12),
                    input: agg_formula(&mut rng),
                }
            } else {
                op.clone()
            };
            let a = apply(&mut columnar, &op);
            let b = apply(&mut rom, &op);
            assert_eq!(a, b, "seed={seed} op#{i} {op:?}: acceptance diverged");
            assert_eq!(
                columnar.snapshot(),
                rom.snapshot(),
                "seed={seed} op#{i} {op:?}"
            );
        }
    }
}

#[test]
fn columnar_resident_bytes_shrink_and_reach_stats() {
    let dir = temp_dir("resident");
    let mut engine = SheetEngine::open(&dir).unwrap();
    import_block(&mut engine);
    let before = engine.storage().resident_bytes();
    let slot = migrate_block(&mut engine);
    let after = engine.storage().resident_bytes();
    assert!(
        after < before,
        "columnar region must shrink resident bytes ({after} vs {before})"
    );
    let per_region = engine.storage().region_resident_bytes();
    assert_eq!(per_region[slot].1, ModelKind::Columnar);
    // The per-region breakdown sums (with the catch-all) to the total.
    assert!(per_region.iter().map(|(_, _, b)| b).sum::<u64>() <= after);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// The columnar window scan must emit exactly what `get_cells` returns —
/// same cells, same row-major order — plus the in-between blanks.
#[test]
fn columnar_window_scan_matches_get_cells() {
    let mut engine = SheetEngine::new();
    import_block(&mut engine);
    migrate_block(&mut engine);
    // Punch in some overlay edits so the scan crosses base + overlay.
    engine.update_cell(CellAddr::new(3, 2), "patched").unwrap();
    engine.update_cell(CellAddr::new(5, 0), "").unwrap();
    engine
        .update_cell(CellAddr::new(7, 1), "=SUM(A1:A5)")
        .unwrap();

    let rect = Rect::new(1, 0, 12, BLOCK_COLS - 1);
    let mut scanned: Vec<(CellAddr, Cell)> = Vec::new();
    let mut positions = 0u64;
    let served = engine.storage().scan_columnar_window(rect, |r, c, v, f| {
        positions += 1;
        let cell = Cell {
            value: v.to_value(),
            formula: f.map(str::to_string),
        };
        if !cell.is_blank() {
            scanned.push((CellAddr::new(r, c), cell));
        }
    });
    assert!(served, "window inside the columnar region must be served");
    assert_eq!(positions, rect.rows() * rect.cols(), "one call per slot");
    assert_eq!(scanned, engine.get_cells(rect));
    let mut ordered: Vec<(CellAddr, Cell)> = Vec::new();
    engine.storage().scan(rect, |r, c, v, f| {
        ordered.push((CellAddr::new(r, c), v.to_cell(f)));
    });
    assert_eq!(scanned, ordered, "the ordered scan serves the same cells");

    // A window poking outside the region falls back (fast path refused).
    let outside = Rect::new(0, 0, 40, 3);
    assert!(!engine
        .storage()
        .scan_columnar_window(outside, |_, _, _, _| {}));
}

// -------------------------------------------- migration of a block --

/// Invoice lines shaped like the retail corpus's `invoice` table joined
/// with its name columns: integer ids, low-cardinality customer, city and
/// supplier texts, two-decimal amounts, day offsets and a paid flag.
fn retail_rows(n_rows: usize, seed: u64) -> impl Iterator<Item = Vec<CellValue>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let customers = ["wilde", "poe", "woolf", "kafka", "borges", "morrison"];
    let cities = ["Champaign", "Urbana", "Savoy", "Mahomet"];
    let supps = ["acme", "globex", "initech", "umbrella"];
    (0..n_rows).map(move |i| {
        let c = rng.gen_range(0..customers.len());
        vec![
            CellValue::Number(i as f64 + 1.0),
            CellValue::Text(customers[c].to_string()),
            CellValue::Text(cities[c % cities.len()].to_string()),
            CellValue::Text(supps[rng.gen_range(0..supps.len())].to_string()),
            CellValue::Number((rng.gen_range(10.0..5_000.0f64) * 100.0).round() / 100.0),
            CellValue::Number(rng.gen_range(-30i64..60) as f64),
            CellValue::Bool(rng.gen_bool(0.7)),
        ]
    })
}

/// Window patches, as the workspace serves them, over scattered
/// viewport-sized windows of a VCF-shaped block are the same before and
/// after the block migrates from ROM to columnar, and so are aggregates
/// over its `QUAL` and `CHROM` columns.
#[test]
fn window_patches_survive_migration_of_a_vcf_block() {
    use dataspread_corpus::vcf::vcf_rows;
    use dataspread_workspace::window_patch;

    let mut engine = SheetEngine::new();
    let rect = engine
        .import_rows(CellAddr::new(0, 0), 25, vcf_rows(2_000, 16, 42))
        .unwrap();
    let aggs: Vec<CellAddr> = ["=SUM(F1:F2000)", "=AVERAGE(F1:F2000)", "=COUNTA(A1:A2000)"]
        .iter()
        .zip(0..)
        .map(|(src, c)| {
            let addr = CellAddr::new(rect.r2 + 2, c);
            engine.update_cell(addr, src).unwrap();
            addr
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(0x51DE);
    let mut windows: Vec<Rect> = (0..24)
        .map(|_| {
            let r1 = rng.gen_range(0..rect.r2 - 49);
            let c1 = rng.gen_range(0..16);
            Rect::new(r1, c1, r1 + 49, c1 + 9)
        })
        .collect();
    // A window over the block's last rows and the aggregates below it.
    windows.push(Rect::new(rect.r2 - 30, 0, rect.r2 + 5, 24));
    let patches = |e: &SheetEngine| -> Vec<_> {
        windows
            .iter()
            .map(|&w| window_patch(e.storage(), w))
            .collect()
    };
    let values = |e: &SheetEngine| -> Vec<CellValue> { aggs.iter().map(|&a| e.value(a)).collect() };
    let (rom_patches, rom_values) = (patches(&engine), values(&engine));
    migrate_block(&mut engine);
    engine.recompute_all().unwrap();
    assert_eq!(patches(&engine), rom_patches, "window patches diverged");
    assert_eq!(values(&engine), rom_values, "aggregates diverged");
}

/// Import `rows` as one ROM region, migrate it to columnar, and check the
/// layout's two claims as counts: the columnar region's resident bytes are
/// at least `min_ratio` times smaller than the ROM region's, and every
/// column answers an aggregate by push-down, where ROM leaves the fold to
/// the evaluator.
fn assert_columnar_shrinks_and_pushes_down(
    name: &str,
    width: u32,
    rows: impl Iterator<Item = Vec<CellValue>>,
    min_ratio: f64,
) {
    let region_bytes = |e: &SheetEngine, kind: ModelKind| -> u64 {
        let per_region = e.storage().region_resident_bytes();
        let [(_, k, bytes)] = per_region[..] else {
            panic!("{name}: one region expected: {per_region:?}");
        };
        assert_eq!(k, kind, "{name}");
        bytes
    };
    let mut engine = SheetEngine::new();
    let rect = engine
        .import_rows(CellAddr::new(0, 0), width, rows)
        .unwrap();
    let column = |c: u32| Rect::new(rect.r1, c, rect.r2, c);
    let rom = region_bytes(&engine, ModelKind::Rom);
    assert!(engine.storage().range_agg(column(0)).is_none(), "{name}");
    migrate_block(&mut engine);
    let columnar = region_bytes(&engine, ModelKind::Columnar);
    assert!(
        rom as f64 >= min_ratio * columnar as f64,
        "{name}: ROM {rom} B vs columnar {columnar} B"
    );
    for c in rect.c1..=rect.c2 {
        assert!(
            engine.storage().range_agg(column(c)).is_some(),
            "{name}: column {c} not pushed down"
        );
    }
}

/// On 20 000-row blocks the columnar region is 18.9× (retail) and 6.6×
/// (VCF, 16 samples) smaller than the ROM one; the bounds leave a margin
/// below those counts, which repeat exactly for these seeds.
#[test]
fn columnar_blocks_shrink_and_push_aggregates_down() {
    use dataspread_corpus::vcf::vcf_rows;

    const ROWS: usize = 20_000;
    assert_columnar_shrinks_and_pushes_down("retail", 7, retail_rows(ROWS, 42), 15.0);
    assert_columnar_shrinks_and_pushes_down("vcf", 25, vcf_rows(ROWS, 16, 42), 6.0);
}

// ------------------------------------------------------- durability --

fn clone_store(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

#[test]
fn columnar_region_round_trips_through_checkpoint() {
    let dir = temp_dir("roundtrip");
    let mut engine = SheetEngine::open(&dir).unwrap();
    import_block(&mut engine);
    migrate_block(&mut engine);
    engine.update_cell(CellAddr::new(2, 2), "overlaid").unwrap();
    engine.checkpoint().unwrap();
    let snapshot = engine.snapshot();
    let layout = engine.storage().layout();
    drop(engine);

    let mut reopened = SheetEngine::open(&dir).unwrap();
    assert_eq!(reopened.snapshot(), snapshot);
    assert_eq!(
        reopened.storage().layout(),
        layout,
        "columnar region must restore as columnar, not decay to cells"
    );
    // Restored formulas stay live: editing a precedent recomputes.
    reopened
        .update_cell(CellAddr::new(25, 0), "=SUM(C1:C20)")
        .unwrap();
    let expected = reopened.value(CellAddr::new(25, 0));
    reopened.update_cell(CellAddr::new(0, 2), "100.5").unwrap();
    assert_ne!(
        reopened.value(CellAddr::new(25, 0)),
        expected,
        "dependents over the restored columnar region must recompute"
    );
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint leaves a columnar region as its image decodes: after 200
/// point edits the region holds exactly the resident bytes of the payload
/// it wrote, so the write overlay does not outlive the checkpoint.
#[test]
fn checkpoint_leaves_a_columnar_region_compacted() {
    let dir = temp_dir("compacted");
    let mut engine = SheetEngine::open(&dir).unwrap();
    import_block(&mut engine);
    let slot = migrate_block(&mut engine);
    engine.checkpoint().unwrap();
    for i in 0..200u32 {
        let at = CellAddr::new(i * 7 % BLOCK_ROWS, i % BLOCK_COLS);
        engine.update_cell(at, &format!("{}", i % 13)).unwrap();
    }
    engine.checkpoint().unwrap();
    let (rect, kind, resident) = engine.storage().region_resident_bytes()[slot];
    assert_eq!(kind, ModelKind::Columnar);
    drop(engine);

    let (_store, recovered) = DurableStore::open(&dir).unwrap();
    let image = recovered
        .regions
        .iter()
        .find(|r| r.rect == rect)
        .expect("the columnar region is in the image");
    let decoded = ColumnarTranslator::from_bytes(&image.payload).unwrap();
    assert_eq!(resident, decoded.resident_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_images_are_deterministic_across_recovery() {
    // Same logical state → byte-identical image, whether reached directly
    // or through crash recovery (pins the canonical columnar encoding and
    // the deterministic placement of extents in the image).
    let base = temp_dir("determ-base");
    let crash = temp_dir("determ-crash");
    let mut engine = SheetEngine::open(&base).unwrap();
    import_block(&mut engine);
    migrate_block(&mut engine);
    engine.checkpoint().unwrap();
    for op in &tape(41, 60) {
        apply(&mut engine, op);
    }
    engine.save().unwrap();
    clone_store(&base, &crash);
    let mut recovered = SheetEngine::open(&crash).unwrap();
    assert_eq!(recovered.snapshot(), engine.snapshot());
    engine.checkpoint().unwrap();
    recovered.checkpoint().unwrap();
    assert_eq!(
        std::fs::read(image_path(&base)).unwrap(),
        std::fs::read(image_path(&crash)).unwrap(),
        "canonical images must be byte-identical"
    );
    std::fs::remove_dir_all(&base).ok();
    std::fs::remove_dir_all(&crash).ok();
}

/// Record end-offsets in a WAL file (header, then `len u32 | crc u32 |
/// payload` records).
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

#[test]
fn wal_cut_at_every_byte_over_a_columnar_image_recovers_a_prefix() {
    // The base image holds an *encoded* columnar region; ops then pile
    // into the WAL. Every byte-cut of that WAL must recover the columnar
    // base plus exactly the committed op prefix.
    let base = temp_dir("cuts-base");
    let ops = tape(0xC0, 30);
    let mut applied_ops = Vec::new();
    {
        let mut engine = SheetEngine::open(&base).unwrap();
        import_block(&mut engine);
        migrate_block(&mut engine);
        engine.checkpoint().unwrap(); // columnar region enters the image
        for op in &ops {
            if apply(&mut engine, op) {
                applied_ops.push(op.clone());
            }
        }
        engine.save().unwrap();
    }
    let image_bytes = std::fs::read(image_path(&base)).unwrap();
    let wal_bytes = std::fs::read(wal_path(&base)).unwrap();
    let ends = record_ends(&wal_bytes);
    assert_eq!(ends.len(), applied_ops.len(), "one WAL record per op");

    // The reference starts from the checkpointed columnar state.
    let mut reference = SheetEngine::new();
    import_block(&mut reference);
    migrate_block(&mut reference);
    let mut applied = 0usize;
    let cut_dir = temp_dir("cuts-work");
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
        let recovered =
            SheetEngine::open(&cut_dir).unwrap_or_else(|e| panic!("open failed at cut {cut}: {e}"));
        assert_eq!(
            recovered.snapshot(),
            reference.snapshot(),
            "cut at byte {cut} must recover exactly {committed} ops"
        );
    }
    std::fs::remove_dir_all(&cut_dir).ok();
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn corrupt_columnar_payload_is_rejected_on_open() {
    const PAGE: usize = 8192;
    let dir = temp_dir("corrupt");
    let snapshot = {
        let mut engine = SheetEngine::open(&dir).unwrap();
        import_block(&mut engine);
        migrate_block(&mut engine);
        engine.checkpoint().unwrap();
        engine.snapshot()
    };
    // Flip one byte in each page (separately): live pages hold the region
    // map or CRC-covered payloads, so open must refuse — never
    // hallucinate cells; a flip in a free page changes nothing. The
    // columnar region's encoded pages are live, so at least one flip must
    // be rejected.
    let image = std::fs::read(image_path(&dir)).unwrap();
    let work = temp_dir("corrupt-work");
    let mut rejections = 0;
    for page in 1..image.len() / PAGE {
        let mut mutated = image.clone();
        mutated[page * PAGE + 16] ^= 0xFF;
        std::fs::remove_dir_all(&work).ok();
        std::fs::create_dir_all(&work).unwrap();
        std::fs::write(image_path(&work), &mutated).unwrap();
        match SheetEngine::open(&work) {
            Err(_) => rejections += 1,
            Ok(engine) => assert_eq!(
                engine.snapshot(),
                snapshot,
                "page {page}: corruption neither rejected nor harmless"
            ),
        }
    }
    assert!(rejections > 0, "no page flip was detected");
    std::fs::remove_dir_all(&work).ok();
    std::fs::remove_dir_all(&dir).ok();
}
