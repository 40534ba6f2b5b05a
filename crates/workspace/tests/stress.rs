//! Concurrent differential stress suite: random sessions hammer a shared
//! workspace from many threads, and the result must be *exactly* what a
//! single-threaded engine produces when it replays the edits in the order
//! they serialized (commit-ticket order).
//!
//! The tickets are the linchpin: every logged op gets a monotone ticket
//! under its sheet's write lock, so sorting the concurrently-recorded
//! `(ticket, op)` pairs reconstructs the actual serialization. The oracle
//! replays that sequence on a fresh single-threaded [`SheetEngine`]; the
//! workspace state (live, and recovered from disk after a simulated
//! crash) must match cell-for-cell — and, for the no-mid-checkpoint
//! variant, the final checkpoint images must match **byte-for-byte**.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::{EngineError, SheetEngine};
use dataspread_grid::{Cell, CellAddr, CellValue, Rect, SparseSheet};
use dataspread_workspace::{Edit, Session, Workspace, WorkspaceConfig, WorkspaceError};

const MAX_ROW: u32 = 40;
const MAX_COL: u32 = 10;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-ws-stress-{name}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn clone_store(src: &Path, dst: &Path) {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// Deterministic, position-independent inputs (formulas reference no
/// cells, so the oracle's values survive structural edits).
fn random_edit(rng: &mut StdRng, tag: u32) -> Edit {
    let roll = rng.gen_range(0u32..100);
    if roll < 70 {
        let inputs = [
            format!("{tag}"),
            format!("{}.5", tag % 97),
            "TRUE".to_string(),
            format!("text-{tag}"),
            String::new(),
            "=SUM(1,2,3)".to_string(),
            "=1/0".to_string(),
        ];
        Edit::Set {
            row: rng.gen_range(0..MAX_ROW),
            col: rng.gen_range(0..MAX_COL),
            input: inputs[rng.gen_range(0..inputs.len())].clone(),
        }
    } else {
        let at = rng.gen_range(0..MAX_ROW);
        let n = rng.gen_range(1u32..=2);
        match roll % 4 {
            0 => Edit::InsertRows { at, n },
            1 => Edit::DeleteRows { at, n },
            2 => Edit::InsertCols {
                at: at % MAX_COL,
                n,
            },
            _ => Edit::DeleteCols {
                at: at % MAX_COL,
                n,
            },
        }
    }
}

fn apply_to_oracle(oracle: &mut SheetEngine, edit: &Edit) {
    match edit {
        Edit::Set { row, col, input } => oracle
            .update_cell(CellAddr::new(*row, *col), input)
            .expect("oracle set"),
        Edit::InsertRows { at, n } => oracle.insert_rows(*at, *n).expect("oracle ins rows"),
        Edit::DeleteRows { at, n } => oracle.delete_rows(*at, *n).expect("oracle del rows"),
        Edit::InsertCols { at, n } => oracle.insert_cols(*at, *n).expect("oracle ins cols"),
        Edit::DeleteCols { at, n } => oracle.delete_cols(*at, *n).expect("oracle del cols"),
    }
}

/// Sorted cell list — the canonical byte-comparable form of a sheet state.
fn canonical_cells(snapshot: &SparseSheet) -> Vec<(CellAddr, Cell)> {
    let mut cells: Vec<(CellAddr, Cell)> = snapshot.iter().map(|(a, c)| (a, c.clone())).collect();
    cells.sort_by_key(|(a, _)| (a.row, a.col));
    cells
}

/// Drive `writers` threads of random edits/fetches (plus optional random
/// checkpoints) against `sheets` shared sheets; return the per-sheet
/// serialized edit logs, sorted by commit ticket.
/// Per-sheet logs of `(commit ticket, edit)` pairs.
type EditLog = Arc<Mutex<Vec<(u64, Edit)>>>;

fn run_stress(
    session: &Session,
    sheets: &[String],
    writers: usize,
    ops_per_writer: usize,
    checkpoints: bool,
    seed: u64,
) -> Vec<Vec<(u64, Edit)>> {
    let logs: Vec<EditLog> = sheets
        .iter()
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let window_hits = Arc::new(AtomicU32::new(0));
    std::thread::scope(|scope| {
        for w in 0..writers {
            let session = session.clone();
            let logs = logs.clone();
            let window_hits = Arc::clone(&window_hits);
            let sheets = sheets.to_vec();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((w as u64 + 1) * 0x9E37_79B9));
                for i in 0..ops_per_writer {
                    let si = rng.gen_range(0..sheets.len());
                    let sheet = &sheets[si];
                    let roll = rng.gen_range(0u32..100);
                    if roll < 60 {
                        let edit = random_edit(&mut rng, (w * ops_per_writer + i) as u32);
                        let receipt = session.apply_edit(sheet, edit.clone()).expect("edit");
                        logs[si].lock().unwrap().push((receipt.ticket, edit));
                    } else if roll < 90 {
                        // Concurrent positional window fetch (shared lock).
                        let r1 = rng.gen_range(0..MAX_ROW);
                        let window = session
                            .fetch_window(sheet, Rect::new(r1, 0, r1 + 10, MAX_COL))
                            .expect("window");
                        window_hits.fetch_add(window.filled_count() as u32, Ordering::Relaxed);
                    } else if checkpoints && roll < 95 {
                        session.checkpoint(sheet).expect("checkpoint");
                    } else {
                        let _ = session.value(
                            sheet,
                            CellAddr::new(rng.gen_range(0..MAX_ROW), rng.gen_range(0..MAX_COL)),
                        );
                    }
                }
            });
        }
    });
    logs.into_iter()
        .map(|log| {
            let mut log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
            log.sort_by_key(|(ticket, _)| *ticket);
            // Tickets are per-sheet unique: each logged op appended exactly
            // one record under the sheet's write lock.
            for pair in log.windows(2) {
                assert!(pair[0].0 < pair[1].0, "duplicate ticket {pair:?}");
            }
            log
        })
        .collect()
}

/// The full pipeline: concurrent run → ticket-ordered oracle replay →
/// crash-clone recovery → state comparison. With `checkpoints` the run
/// also interleaves random checkpoints (exercising truncation under
/// concurrency); without them the final images are additionally compared
/// byte-for-byte.
fn stress_roundtrip(name: &str, checkpoints: bool, seed: u64) {
    let dir = temp_dir(name);
    let sheets: Vec<String> = (0..3).map(|i| format!("sheet{i}")).collect();
    let (logs, live_states) = {
        let ws = Workspace::open_with(&dir, WorkspaceConfig::default()).unwrap();
        let session = ws.session();
        for s in &sheets {
            session.open_sheet(s).unwrap();
        }
        let writers = 4;
        let ops = if cfg!(debug_assertions) { 60 } else { 250 };
        let logs = run_stress(&session, &sheets, writers, ops, checkpoints, seed);
        let live: Vec<SparseSheet> = sheets
            .iter()
            .map(|s| session.snapshot(s).unwrap())
            .collect();
        (logs, live)
        // Workspace drops here; the files stay as a crash image (group
        // commit means every acknowledged edit is durable without any
        // explicit save).
    };

    for (si, sheet) in sheets.iter().enumerate() {
        // Oracle: single-threaded replay in serialization order.
        let mut oracle = SheetEngine::new();
        for (_, edit) in &logs[si] {
            apply_to_oracle(&mut oracle, edit);
        }
        assert_eq!(
            canonical_cells(&live_states[si]),
            canonical_cells(&oracle.snapshot()),
            "{name}/{sheet}: live state must equal the ticket-ordered replay"
        );

        // Crash: recover the sheet directory and compare again.
        let crash = temp_dir(&format!("{name}-crash-{sheet}"));
        clone_store(&dir.join(sheet), &crash);
        let mut recovered = SheetEngine::open(&crash).unwrap();
        assert_eq!(
            canonical_cells(&recovered.snapshot()),
            canonical_cells(&oracle.snapshot()),
            "{name}/{sheet}: recovered state must equal the oracle"
        );

        if !checkpoints {
            // Identical checkpoint histories (one empty checkpoint at
            // open, one full fold now) ⇒ the canonical image bytes must
            // agree exactly.
            let oracle_dir = temp_dir(&format!("{name}-oracle-{sheet}"));
            let mut durable_oracle = SheetEngine::open(&oracle_dir).unwrap();
            for (_, edit) in &logs[si] {
                apply_to_oracle(&mut durable_oracle, edit);
            }
            durable_oracle.checkpoint().unwrap();
            recovered.checkpoint().unwrap();
            assert_eq!(
                std::fs::read(crash.join("pages.db")).unwrap(),
                std::fs::read(oracle_dir.join("pages.db")).unwrap(),
                "{name}/{sheet}: recovered image must match the \
                 single-threaded oracle byte-for-byte"
            );
            std::fs::remove_dir_all(&oracle_dir).ok();
        }
        std::fs::remove_dir_all(&crash).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_edits_match_ticket_ordered_oracle_byte_for_byte() {
    stress_roundtrip("no-ckpt", false, 0x5EED_0001);
}

#[test]
fn concurrent_edits_with_interleaved_checkpoints_match_oracle() {
    stress_roundtrip("with-ckpt", true, 0x5EED_0002);
}

#[test]
fn concurrent_readers_see_consistent_windows_during_writes() {
    // Readers share the sheet lock with each other; every window they see
    // must be *some* serialized state — in particular fetch_window must
    // never observe a torn structural edit (panic/overlap inside the
    // hybrid layer would fail the fetch).
    let ws = Workspace::in_memory();
    let session = ws.session();
    session.open_sheet("s").unwrap();
    std::thread::scope(|scope| {
        for w in 0..2 {
            let session = session.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(77 + w);
                for i in 0..300u32 {
                    let edit = random_edit(&mut rng, i);
                    session.apply_edit("s", edit).unwrap();
                }
            });
        }
        for r in 0..3 {
            let session = session.clone();
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + r);
                for _ in 0..400 {
                    let r1 = rng.gen_range(0..MAX_ROW);
                    let cells = session
                        .fetch_window("s", Rect::new(r1, 0, r1 + 8, MAX_COL))
                        .expect("window fetch during writes")
                        .cells();
                    // Row-major order is part of the contract.
                    for pair in cells.windows(2) {
                        assert!(
                            (pair[0].0.row, pair[0].0.col) < (pair[1].0.row, pair[1].0.col),
                            "window not row-major: {pair:?}"
                        );
                    }
                }
            });
        }
    });
}

/// The wire's `DeleteRows { at, n }` is applied as sent: a count reaching
/// past the last row deletes to the end of the sheet (it used to overflow
/// `at + n` under the sheet's write lock), live and after recovery.
#[test]
fn a_delete_count_past_the_last_row_deletes_to_the_end() {
    let dir = temp_dir("delete-overflow");
    let window = Rect::new(0, 0, 60, MAX_COL);
    let live = {
        let ws = Workspace::open_with(&dir, WorkspaceConfig::default()).unwrap();
        let session = ws.session();
        session.open_sheet("s").unwrap();
        for row in 0..12u32 {
            let set = Edit::Set {
                row,
                col: 0,
                input: format!("{row}"),
            };
            session.apply_edit("s", set).unwrap();
        }
        let block = vec![vec![dataspread_grid::CellValue::Number(7.0); 2]; 5];
        session
            .import_rows("s", CellAddr::new(20, 0), 2, block)
            .unwrap();
        let delete = Edit::DeleteRows { at: 5, n: u32::MAX };
        session.apply_edit("s", delete).unwrap();
        let cells = session.fetch_window("s", window).unwrap().cells();
        let want: Vec<(CellAddr, Cell)> = (0..5u32)
            .map(|row| (CellAddr::new(row, 0), Cell::value(f64::from(row))))
            .collect();
        assert_eq!(cells, want, "rows 0..5 and nothing else");
        assert_eq!(session.snapshot("s").unwrap().filled_count(), 5);
        cells
    };
    let ws = Workspace::open_with(&dir, WorkspaceConfig::default()).unwrap();
    let session = ws.session();
    session.open_sheet("s").unwrap();
    assert_eq!(
        session.fetch_window("s", window).unwrap().cells(),
        live,
        "recovered from the WAL"
    );
    drop(ws);
    std::fs::remove_dir_all(&dir).ok();
}

/// The wire's `InsertRows { at, n }` with an `n` that would push an
/// imported region past the last row is refused before anything moves (it
/// used to overflow under the sheet's write lock, or wrap the region onto
/// rows above it), and nothing is logged for recovery to replay.
#[test]
fn an_insert_count_pushing_a_region_off_the_sheet_is_refused() {
    let dir = temp_dir("insert-overflow");
    let window = Rect::new(0, 0, 60, MAX_COL);
    let live = {
        let ws = Workspace::open_with(&dir, WorkspaceConfig::default()).unwrap();
        let session = ws.session();
        session.open_sheet("s").unwrap();
        // Nothing loose at or below the cut: only the region is pushed.
        for row in 0..5u32 {
            let set = Edit::Set {
                row,
                col: 0,
                input: format!("{row}"),
            };
            session.apply_edit("s", set).unwrap();
        }
        let block = vec![vec![dataspread_grid::CellValue::Number(7.0); 2]; 5];
        session
            .import_rows("s", CellAddr::new(20, 0), 2, block)
            .unwrap();
        let before = session.fetch_window("s", window).unwrap();
        let insert = Edit::InsertRows { at: 5, n: u32::MAX };
        match session.apply_edit("s", insert) {
            Err(WorkspaceError::Engine(EngineError::Unsupported(_))) => {}
            other => panic!("expected a refusal, got {other:?}"),
        }
        let after = session.fetch_window("s", window).unwrap();
        assert_eq!(after, before, "nothing moved");
        assert_eq!(after.filled_count(), 15);
        after
    };
    let ws = Workspace::open_with(&dir, WorkspaceConfig::default()).unwrap();
    let session = ws.session();
    session.open_sheet("s").unwrap();
    assert_eq!(
        session.fetch_window("s", window).unwrap(),
        live,
        "recovered from the WAL"
    );
    drop(ws);
    std::fs::remove_dir_all(&dir).ok();
}

/// An `Edit::Set` of a formula the store refuses (past the catch-all's
/// positional cap) is refused whole: the formula is not left registered,
/// so editing the cell it reads succeeds and recomputes that cell's other
/// readers, live and after recovery.
#[test]
fn a_formula_the_store_refuses_is_not_registered() {
    let dir = temp_dir("refused-formula");
    let set = |row: u32, input: &str| Edit::Set {
        row,
        col: 0,
        input: input.to_string(),
    };
    let a2 = CellAddr::new(1, 0);
    {
        let ws = Workspace::open_with(&dir, WorkspaceConfig::default()).unwrap();
        let session = ws.session();
        session.open_sheet("s").unwrap();
        session.apply_edit("s", set(0, "1")).unwrap();
        session.apply_edit("s", set(1, "=A1*2")).unwrap();
        match session.apply_edit("s", set(100_000_000, "=A1+1")) {
            Err(WorkspaceError::Engine(EngineError::Unsupported(_))) => {}
            other => panic!("expected a refusal, got {other:?}"),
        }
        session.apply_edit("s", set(0, "2")).unwrap();
        assert_eq!(session.value("s", a2).unwrap(), CellValue::Number(4.0));
        session.checkpoint("s").unwrap();
        session.apply_edit("s", set(0, "3")).unwrap();
        assert_eq!(session.value("s", a2).unwrap(), CellValue::Number(6.0));
    }
    let ws = Workspace::open_with(&dir, WorkspaceConfig::default()).unwrap();
    let session = ws.session();
    session.open_sheet("s").unwrap();
    assert_eq!(session.value("s", a2).unwrap(), CellValue::Number(6.0));
    session.apply_edit("s", set(0, "4")).unwrap();
    assert_eq!(session.value("s", a2).unwrap(), CellValue::Number(8.0));
    drop(ws);
    std::fs::remove_dir_all(&dir).ok();
}
