//! Property tests for the checkpoint image's byte-extent allocator
//! (`durable::DurableStore::checkpoint`).
//!
//! Random checkpoint sequences add, drop, grow, shrink and replace
//! regions, and submit others clean or dirty with identical bytes, with
//! payloads from 1 byte to several pages. After every checkpoint:
//!
//! * a reopen returns exactly the submitted payloads;
//! * every image byte outside the header fields, the map and the live
//!   extents is zero;
//! * only the header, the old and new map's pages and the pages of the
//!   written and freed extents change, and `pages_written` counts exactly
//!   the pages whose bytes changed (plus those the image grew by);
//! * resubmitting with nothing dirty writes 0 pages.
//!
//! The image is parsed here by hand from the documented version-6 layout,
//! independently of the engine's reader. The last tests guard the engine's
//! checkpoint claims: a `structural`-shaped sheet's image is no larger
//! than the header plus its payloads and map laid end to end; a one-cell
//! edit rewrites one region in the same few pages whatever the sheet's
//! size; and a linked table is rewritten only when its own table changes.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::path::{Path, PathBuf};

use dataspread_engine::durable::{image_path, DurableStore, RecoveredState, PAGE_SIZE};
use dataspread_engine::{
    CheckpointReport, ModelKind, OptimizeAlgorithm, RegionImage, SheetEngine, CATCHALL_REGION_ID,
};
use dataspread_grid::addr::col_to_letters;
use dataspread_grid::{CellAddr, CellValue, Rect};
use dataspread_hybrid::{CostModel, OptimizerOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PAGE: u64 = PAGE_SIZE as u64;
/// magic 4 | version 4 | posmap 1 | map_len 8 | map_crc 4 | map_off 8.
const HEADER_LEN: usize = 29;
/// id 8 | kind 1 | rect 16 | offset 8 | len 8 | crc 4.
const ENTRY_LEN: usize = 45;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-image-extents-{name}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A byte extent `off..off + len` of the image file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Extent {
    off: u64,
    len: u64,
}

impl Extent {
    fn bytes(self) -> Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }

    fn pages(self) -> Range<u64> {
        self.off / PAGE..(self.off + self.len).div_ceil(PAGE)
    }
}

/// The header's map extent and the map's `id → (extent, crc)` entries.
#[derive(Debug, Default)]
struct Layout {
    map: Option<Extent>,
    regions: BTreeMap<u64, (Extent, u32)>,
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Parse the header and map of a version-6 image (empty for no image).
fn layout(image: &[u8]) -> Layout {
    if image.is_empty() {
        return Layout::default();
    }
    assert_eq!(&image[..4], b"DSIM");
    assert_eq!(u32::from_le_bytes(image[4..8].try_into().unwrap()), 6);
    let map = Extent {
        off: u64_at(image, 21),
        len: u64_at(image, 9),
    };
    let bytes = &image[map.bytes()];
    let count = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize;
    assert_eq!(bytes.len(), 4 + count * ENTRY_LEN, "map length");
    let regions = (0..count)
        .map(|i| {
            let e = 4 + i * ENTRY_LEN;
            let extent = Extent {
                off: u64_at(bytes, e + 25),
                len: u64_at(bytes, e + 33),
            };
            let crc = u32::from_le_bytes(bytes[e + 41..e + 45].try_into().unwrap());
            (u64_at(bytes, e), (extent, crc))
        })
        .collect();
    Layout {
        map: Some(map),
        regions,
    }
}

fn read_image(dir: &Path) -> Vec<u8> {
    std::fs::read(image_path(dir)).unwrap_or_default()
}

/// Every byte outside the header fields, the map and the live extents.
fn assert_free_bytes_are_zero(image: &[u8], layout: &Layout, label: &str) {
    let mut live = vec![false; image.len()];
    live[..HEADER_LEN].fill(true);
    let extents = layout
        .map
        .iter()
        .chain(layout.regions.values().map(|(e, _)| e));
    for ext in extents {
        live[ext.bytes()].fill(true);
    }
    let stray = (0..image.len()).find(|&i| !live[i] && image[i] != 0);
    assert_eq!(stray, None, "{label}: a free byte is not zero");
}

/// The regions a reopen recovered, catch-all included, as `id → payload`.
fn recovered_payloads(recovered: RecoveredState) -> BTreeMap<u64, Vec<u8>> {
    let mut out: BTreeMap<u64, Vec<u8>> = recovered
        .regions
        .into_iter()
        .map(|r| (r.id, r.payload))
        .collect();
    if let Some(catchall) = recovered.catchall {
        out.insert(CATCHALL_REGION_ID, catchall);
    }
    out
}

fn random_payload(rng: &mut StdRng) -> Vec<u8> {
    // Mostly small payloads that share pages, some spanning several.
    let len = match rng.gen_range(0..10) {
        0..=3 => rng.gen_range(1..=64),
        4..=7 => rng.gen_range(65..=3_000),
        _ => rng.gen_range(3_001..=3 * PAGE_SIZE + 777),
    };
    (0..len).map(|_| rng.gen_range(1u8..=255)).collect()
}

fn image_of(id: u64, payload: Option<Vec<u8>>) -> RegionImage {
    RegionImage {
        id,
        kind: if id == CATCHALL_REGION_ID {
            ModelKind::Rcv
        } else {
            ModelKind::Rom
        },
        rect: Rect::new(id as u32, 0, id as u32, 0),
        payload,
    }
}

/// One random checkpoint submission over `model`, which it updates to the
/// payloads the store must hold afterwards.
fn random_submission(
    rng: &mut StdRng,
    model: &mut BTreeMap<u64, Vec<u8>>,
    next_id: &mut u64,
) -> Vec<RegionImage> {
    let mut images = Vec::new();
    let ids: Vec<u64> = model.keys().copied().collect();
    for id in ids {
        let payload = model.get_mut(&id).unwrap();
        match rng.gen_range(0..12) {
            // Dropped (the catch-all never is).
            0 if id != CATCHALL_REGION_ID => {
                model.remove(&id);
            }
            // Grown.
            1 | 2 => {
                let more = rng.gen_range(1..=600);
                payload.extend((0..more).map(|_| rng.gen_range(1u8..=255)));
                images.push(image_of(id, Some(payload.clone())));
            }
            // Shrunk.
            3 | 4 if payload.len() > 1 => {
                payload.truncate(rng.gen_range(1..payload.len()));
                images.push(image_of(id, Some(payload.clone())));
            }
            // Replaced.
            5 => {
                *payload = random_payload(rng);
                images.push(image_of(id, Some(payload.clone())));
            }
            // Dirty with identical bytes.
            6 | 7 => images.push(image_of(id, Some(payload.clone()))),
            // Clean.
            _ => images.push(image_of(id, None)),
        }
    }
    for _ in 0..rng.gen_range(0..=3) {
        let payload = random_payload(rng);
        images.push(image_of(*next_id, Some(payload.clone())));
        model.insert(*next_id, payload);
        *next_id += 1;
    }
    images
}

/// Check one checkpoint's effect on the image file against its report.
fn assert_checkpoint_touched_only_its_pages(
    before: &[u8],
    after: &[u8],
    pages_written: u64,
    label: &str,
) {
    let (old, new) = (layout(before), layout(after));
    // Pages the checkpoint may change: the header, both maps, and the
    // extents of regions written (new or moved or refilled) and freed.
    let mut allowed: BTreeSet<u64> = BTreeSet::from([0]);
    for map in [old.map, new.map].into_iter().flatten() {
        allowed.extend(map.pages());
    }
    for (id, entry) in &new.regions {
        if old.regions.get(id) != Some(entry) {
            allowed.extend(entry.0.pages());
            allowed.extend(old.regions.get(id).into_iter().flat_map(|e| e.0.pages()));
        }
    }
    for (id, entry) in &old.regions {
        if !new.regions.contains_key(id) {
            allowed.extend(entry.0.pages());
        }
    }
    let page = |image: &[u8], p: u64| {
        let at = (p * PAGE) as usize;
        image.get(at..at + PAGE_SIZE).map(<[u8]>::to_vec)
    };
    let old_count = (before.len() / PAGE_SIZE) as u64;
    let new_count = (after.len() / PAGE_SIZE) as u64;
    let changed: Vec<u64> = (0..new_count)
        .filter(|&p| p >= old_count || page(before, p) != page(after, p))
        .collect();
    for p in &changed {
        assert!(
            allowed.contains(p),
            "{label}: page {p} changed but no written or freed extent touches it"
        );
    }
    // With the subset check above, this bounds `pages_written` by the
    // header, the maps' pages and the written and freed extents' pages.
    assert_eq!(
        pages_written,
        changed.len() as u64,
        "{label}: pages_written must count exactly the changed pages"
    );
}

fn run_sequence(seed: u64, steps: usize) {
    let dir = temp_dir(&format!("seq-{seed}"));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut model: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    model.insert(CATCHALL_REGION_ID, random_payload(&mut rng));
    let mut images = vec![image_of(
        CATCHALL_REGION_ID,
        model.get(&CATCHALL_REGION_ID).cloned(),
    )];
    let mut next_id = 1;
    let (mut store, _) = DurableStore::open(&dir).unwrap();
    for step in 0..steps {
        let label = format!("seed {seed} step {step}");
        let before = read_image(&dir);
        let report = store.checkpoint(images).unwrap();
        let after = read_image(&dir);
        assert_checkpoint_touched_only_its_pages(&before, &after, report.pages_written, &label);
        let after_layout = layout(&after);
        assert_free_bytes_are_zero(&after, &after_layout, &label);
        assert_eq!(
            after_layout.regions.keys().copied().collect::<Vec<_>>(),
            model.keys().copied().collect::<Vec<_>>(),
            "{label}: map ids"
        );

        // Nothing dirty: nothing written.
        let clean: Vec<RegionImage> = model.keys().map(|id| image_of(*id, None)).collect();
        let resubmit = store.checkpoint(clean).unwrap();
        assert_eq!(resubmit.pages_written, 0, "{label}: clean resubmission");
        assert_eq!(read_image(&dir), after, "{label}: clean resubmission");

        // A reopen returns exactly the submitted payloads, and the store
        // it returns carries on from the image it read.
        drop(store);
        let (reopened, recovered) = DurableStore::open(&dir).unwrap();
        assert!(recovered.has_image);
        assert!(
            recovered_payloads(recovered) == model,
            "{label}: reopened payloads differ from the submitted ones"
        );
        store = reopened;
        images = random_submission(&mut rng, &mut model, &mut next_id);
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn random_checkpoint_sequences_reopen_exactly_zero_free_bytes_and_write_minimal_pages() {
    let steps = if cfg!(debug_assertions) { 40 } else { 200 };
    for seed in [1, 2, 3, 0xE7E7] {
        run_sequence(seed, steps);
    }
}

/// Tables of 48×8 integers on a grid of 56×10 slots, each with a `SUM`
/// totals row, optimized under the ideal cost model so every table keeps
/// its own region — the shape of `bench_e2e`'s `structural` workload.
#[test]
fn a_structural_sheet_packs_its_payloads_into_shared_pages() {
    const TABLES: u32 = 64;
    let dir = temp_dir("structural");
    let mut engine = SheetEngine::open(&dir).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    for t in 0..TABLES {
        let (r0, c0) = ((t / 8) * 56, (t % 8) * 10);
        let rows = (0..48)
            .map(|_| {
                (0..8)
                    .map(|_| CellValue::Number(f64::from(rng.gen_range(0u32..1_000_000))))
                    .collect()
            })
            .collect::<Vec<_>>();
        engine.import_rows(CellAddr::new(r0, c0), 8, rows).unwrap();
        for c in c0..c0 + 8 {
            let col = col_to_letters(c);
            engine
                .update_cell(
                    CellAddr::new(r0 + 48, c),
                    &format!("=SUM({col}{}:{col}{})", r0 + 1, r0 + 48),
                )
                .unwrap();
        }
    }
    engine
        .optimize(
            &CostModel::ideal(),
            OptimizeAlgorithm::Agg,
            &OptimizerOptions::default(),
        )
        .unwrap();
    assert!(engine.storage().region_count() >= TABLES as usize);
    let report = engine.checkpoint().unwrap().unwrap();
    let image = read_image(&dir);
    let layout = layout(&image);
    let payload_bytes: u64 = layout.regions.values().map(|(e, _)| e.len).sum();
    let map_len = layout.map.unwrap().len;
    let packed = 1 + (payload_bytes + map_len).div_ceil(PAGE);
    assert!(
        report.page_count <= packed,
        "{} pages for {payload_bytes} payload bytes and a {map_len}-byte map (packed: {packed})",
        report.page_count
    );
    assert_eq!(image.len() as u64, report.page_count * PAGE);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// A sheet of `bands` ROM regions of 50 × 8 numbers, one every 60 rows,
/// after a full checkpoint and a one-cell edit in the fourth band:
/// returns the full and the incremental checkpoint reports.
fn one_cell_checkpoint(bands: u32) -> (CheckpointReport, CheckpointReport) {
    let dir = temp_dir(&format!("bands-{bands}"));
    let mut engine = SheetEngine::open(&dir).unwrap();
    for band in 0..bands {
        let rows = (0..50u32).map(|r| {
            (0..8u32)
                .map(|c| CellValue::Number(f64::from(band * 1000 + r * 8 + c)))
                .collect()
        });
        engine
            .import_rows(CellAddr::new(band * 60, 0), 8, rows)
            .unwrap();
    }
    engine.save().unwrap();
    let full = engine.checkpoint().unwrap().unwrap();
    engine
        .update_cell(CellAddr::new(3 * 60 + 7, 2), "424242")
        .unwrap();
    let incremental = engine.checkpoint().unwrap().unwrap();
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
    (full, incremental)
}

/// A one-cell edit re-serializes exactly its region, and the pages the
/// checkpoint writes (payload, map and header) do not grow with the
/// number of regions on the sheet.
#[test]
fn a_one_cell_edit_checkpoints_one_region_at_any_sheet_size() {
    let mut pages = Vec::new();
    for bands in [120, 240] {
        let (full, incr) = one_cell_checkpoint(bands);
        assert_eq!(incr.regions_dirty, 1, "{bands} bands");
        assert_eq!(incr.regions_written, 1, "{bands} bands");
        assert!(incr.pages_written <= 8, "{bands} bands: {incr:?}");
        assert!(
            incr.payload_bytes * 10 <= full.payload_bytes,
            "{bands} bands: {} of {} payload bytes",
            incr.payload_bytes,
            full.payload_bytes
        );
        pages.push(incr.pages_written);
    }
    assert_eq!(pages[0], pages[1], "pages written grew with the sheet");
}

/// A linked table's region is re-serialized only when its own table
/// changes: a quiet checkpoint writes nothing, a row inserted into the
/// table through the database dirties exactly that region, and churn on
/// an unrelated table dirties nothing.
#[test]
fn a_linked_table_checkpoints_only_when_its_table_changes() {
    use dataspread_relstore::{ColumnDef, DataType, Datum, Schema};

    let dir = temp_dir("linked");
    let mut engine = SheetEngine::open(&dir).unwrap();
    engine.update_cell(CellAddr::new(0, 0), "id").unwrap();
    engine.update_cell(CellAddr::new(0, 1), "amount").unwrap();
    for r in 1..=40u32 {
        engine
            .update_cell(CellAddr::new(r, 0), &r.to_string())
            .unwrap();
        engine
            .update_cell(CellAddr::new(r, 1), &(r * 10).to_string())
            .unwrap();
    }
    engine.link_table(Rect::new(0, 0, 40, 1), "inv").unwrap();
    engine.save().unwrap();
    let quiet = engine.checkpoint().unwrap().unwrap();
    assert_eq!(quiet.regions_dirty, 0, "a quiet table was re-serialized");

    let db = engine.database();
    db.write()
        .table_mut("inv")
        .unwrap()
        .insert(&[Datum::Int(999), Datum::Float(9990.0)])
        .unwrap();
    let mutated = engine.checkpoint().unwrap().unwrap();
    assert_eq!(mutated.regions_dirty, 1);
    assert_eq!(mutated.regions_written, 1);

    {
        let mut guard = db.write();
        let schema = Schema::new(vec![ColumnDef::new("x", DataType::Int)]);
        guard.create_table("other", schema).unwrap();
        for i in 0..50 {
            guard
                .table_mut("other")
                .unwrap()
                .insert(&[Datum::Int(i)])
                .unwrap();
        }
    }
    let unrelated = engine.checkpoint().unwrap().unwrap();
    assert_eq!(
        unrelated.regions_dirty, 0,
        "unrelated churn dirtied a region"
    );
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}
