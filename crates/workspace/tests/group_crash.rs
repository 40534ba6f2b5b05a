//! Crash-mid-group-commit recovery: the every-byte-cut harness applied to
//! a WAL produced by *concurrent* writers under group commit.
//!
//! The crash model: the machine dies at an arbitrary byte of the sheet's
//! WAL — possibly in the middle of a batch a committing writer was about
//! to fsync. Recovery must reconstruct the state of some prefix of the
//! *serialized* edit order (commit-ticket order), never a torn record and
//! never a reordering; and every edit that was **acknowledged** (its
//! `apply_edit` returned) must survive a cut at the full length, because
//! acknowledgement only happens after the covering fsync.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dataspread_engine::durable::{image_path, wal_path};
use dataspread_engine::SheetEngine;
use dataspread_grid::CellAddr;
use dataspread_relstore::wal::{WAL_HEADER_LEN, WAL_RECORD_OVERHEAD};
use dataspread_workspace::{Edit, Workspace, WorkspaceConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dataspread-ws-crash-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Record end-offsets in a WAL file, parsed from the framing alone.
fn record_ends(wal_bytes: &[u8]) -> Vec<usize> {
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
fn crash_at_every_wal_byte_recovers_a_ticket_ordered_prefix() {
    let dir = temp_dir("every-byte");
    let sheet_dir = dir.join("grid");
    let log: Arc<Mutex<Vec<(u64, Edit)>>> = Arc::new(Mutex::new(Vec::new()));
    {
        let ws = Workspace::open_with(&dir, WorkspaceConfig::default()).unwrap();
        let session = ws.session();
        session.open_sheet("grid").unwrap();
        // 4 concurrent writers, every edit acknowledged through group
        // commit. Disjoint columns per writer keep the tape readable in
        // failures; the serialization order is still genuinely concurrent.
        std::thread::scope(|scope| {
            for w in 0..4u32 {
                let session = session.clone();
                let log = Arc::clone(&log);
                scope.spawn(move || {
                    for i in 0..30u32 {
                        let edit = Edit::Set {
                            row: i,
                            col: w * 2,
                            input: format!("w{w}v{i}"),
                        };
                        let receipt = session.apply_edit("grid", edit.clone()).expect("edit");
                        assert!(receipt.durable);
                        log.lock().unwrap().push((receipt.ticket, edit));
                    }
                });
            }
        });
    }
    let mut log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    log.sort_by_key(|(t, _)| *t);
    let ordered: Vec<Edit> = log.into_iter().map(|(_, e)| e).collect();

    let image_bytes = std::fs::read(image_path(&sheet_dir)).unwrap();
    let wal_bytes = std::fs::read(wal_path(&sheet_dir)).unwrap();
    let ends = record_ends(&wal_bytes);
    assert_eq!(
        ends.len(),
        ordered.len(),
        "one committed WAL record per acknowledged edit, in ticket order"
    );

    // Lazily-advanced oracle: state after each serialized-prefix length.
    let mut oracle = SheetEngine::new();
    let mut applied = 0usize;
    let cut_dir = temp_dir("every-byte-cut");
    for cut in 0..=wal_bytes.len() {
        let committed = ends.iter().take_while(|e| **e <= cut).count();
        while applied < committed {
            let Edit::Set { row, col, input } = &ordered[applied] else {
                unreachable!("tape is Set-only");
            };
            oracle
                .update_cell(CellAddr::new(*row, *col), input)
                .unwrap();
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
            oracle.snapshot(),
            "cut at byte {cut} must recover exactly the first {committed} \
             serialized edits"
        );
    }
    // The full-length "cut" is the no-crash case: every acknowledged edit
    // (all 120) is present.
    assert_eq!(applied, ordered.len());
    std::fs::remove_dir_all(&cut_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}
