//! Workspace-level chaos suite: random edit tapes crossed with random
//! storage fault schedules, driven through the public `Session` API.
//!
//! The contract under test is the acknowledgement boundary:
//!
//! * an edit whose `apply_edit` returned `Ok` (or whose staged ticket was
//!   successfully awaited) is **acknowledged** and must survive closing
//!   the faulty workspace and reopening the directory on a healthy
//!   filesystem — no matter which file operation failed, when;
//! * a sheet whose store failed goes **degraded**: reads keep serving the
//!   last acknowledged state, every durable mutation is refused with
//!   [`WorkspaceError::Degraded`], and only a reopen recovers.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_grid::{CellAddr, CellValue};
use dataspread_relstore::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};
use dataspread_workspace::{Edit, Workspace, WorkspaceConfig, WorkspaceError};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-ws-chaos-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

const OPS: &[FaultOp] = &[
    FaultOp::Write,
    FaultOp::Sync,
    FaultOp::OpenFile,
    FaultOp::Rename,
    FaultOp::SetLen,
    FaultOp::Remove,
];
const KINDS: &[FaultKind] = &[FaultKind::Io, FaultKind::Enospc, FaultKind::ShortWrite];

fn random_rule(rng: &mut StdRng) -> FaultRule {
    let rule = FaultRule::new(
        OPS[rng.gen_range(0..OPS.len())],
        rng.gen_range(0..150),
        KINDS[rng.gen_range(0..KINDS.len())],
    );
    if rng.gen_bool(0.5) {
        rule.sticky()
    } else {
        rule
    }
}

/// One chaos round: a random fault schedule against a random tape of
/// acknowledged edits (each edit targets a unique cell with a unique
/// value, so survival is checkable per edit regardless of which later
/// ops failed). Returns the edits that were acknowledged durable.
fn chaos_round(seed: u64, dir: &PathBuf) -> Vec<(CellAddr, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let plan = FaultPlan::new();
    for _ in 0..rng.gen_range(1..=3) {
        plan.push(random_rule(&mut rng));
    }
    let config = WorkspaceConfig {
        storage_fs: Some(FaultFs::new(Arc::clone(&plan))),
        ..WorkspaceConfig::default()
    };

    let mut acked = Vec::new();
    let Ok(ws) = Workspace::open_with(dir, config) else {
        return acked;
    };
    let session = ws.session();
    if session.open_sheet("grid").is_err() {
        // The fault hit recovery itself; nothing was acknowledged.
        return acked;
    }
    let mut staged: Vec<(u64, CellAddr, f64)> = Vec::new();
    for i in 0..rng.gen_range(20..60u32) {
        let addr = CellAddr::new(i, rng.gen_range(0..4));
        let value = f64::from(seed as u32 % 1000) * 1000.0 + f64::from(i);
        let edit = Edit::Set {
            row: addr.row,
            col: addr.col,
            input: format!("{value}"),
        };
        match rng.gen_range(0u32..10) {
            // Mostly synchronous edits: Ok = acknowledged durable.
            0..=5 => {
                if session.apply_edit("grid", edit).is_ok() {
                    acked.push((addr, value));
                }
            }
            // Pipelined edits: acknowledged once the ticket is awaited
            // (or immediately when the receipt already says durable).
            6..=8 => {
                if let Ok(receipt) = session.stage_edit("grid", edit) {
                    if receipt.durable {
                        acked.push((addr, value));
                    } else {
                        staged.push((receipt.ticket, addr, value));
                    }
                }
            }
            // Occasional explicit checkpoint, failure allowed.
            _ => {
                let _ = session.checkpoint("grid");
            }
        }
        // Periodically settle the staged window.
        if staged.len() >= 5 {
            for (ticket, addr, value) in staged.drain(..) {
                if session.await_commit("grid", ticket).is_ok() {
                    acked.push((addr, value));
                }
            }
        }
    }
    for (ticket, addr, value) in staged.drain(..) {
        if session.await_commit("grid", ticket).is_ok() {
            acked.push((addr, value));
        }
    }
    acked
}

/// Random fault schedules × random tapes: whatever failed, reopening on
/// a healthy filesystem must surface every acknowledged edit, report a
/// healthy store, and accept new durable work.
#[test]
fn chaos_acknowledged_edits_survive_reopen() {
    for seed in 0..24u64 {
        let dir = temp_dir("round");
        let acked = chaos_round(seed, &dir);

        let ws = Workspace::open(&dir)
            .unwrap_or_else(|e| panic!("seed {seed}: reopen on healthy fs: {e}"));
        let session = ws.session();
        session
            .open_sheet("grid")
            .unwrap_or_else(|e| panic!("seed {seed}: recovery must succeed: {e}"));
        assert_eq!(
            session.storage_failed("grid").unwrap(),
            None,
            "seed {seed}: reopened sheet must be healthy"
        );
        for (addr, value) in &acked {
            assert_eq!(
                session.value("grid", *addr).unwrap(),
                CellValue::Number(*value),
                "seed {seed}: acknowledged edit at {addr:?} lost in recovery \
                 ({} acked total)",
                acked.len()
            );
        }
        // The recovered workspace takes new durable writes.
        session
            .apply_edit(
                "grid",
                Edit::Set {
                    row: 10_000,
                    col: 0,
                    input: "post".into(),
                },
            )
            .unwrap_or_else(|e| panic!("seed {seed}: write after recovery: {e}"));
        drop(session);
        drop(ws);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Degraded mode end-to-end: after a failed WAL
/// fsync the sheet refuses durable mutations with
/// [`WorkspaceError::Degraded`], keeps serving reads of the last
/// acknowledged state, and a reopen restores full service.
#[test]
fn degraded_sheet_serves_reads_and_refuses_writes() {
    let dir = temp_dir("degraded");
    let plan = FaultPlan::new();
    {
        let config = WorkspaceConfig {
            storage_fs: Some(FaultFs::new(Arc::clone(&plan))),
            ..WorkspaceConfig::default()
        };
        let ws = Workspace::open_with(&dir, config).unwrap();
        let session = ws.session();
        session.open_sheet("grid").unwrap();
        session
            .apply_edit(
                "grid",
                Edit::Set {
                    row: 0,
                    col: 0,
                    input: "7".into(),
                },
            )
            .unwrap();

        // Every WAL fsync fails from here on.
        plan.push(
            FaultRule::new(FaultOp::Sync, 0, FaultKind::Io)
                .sticky()
                .on_path("wal"),
        );
        let err = session
            .apply_edit(
                "grid",
                Edit::Set {
                    row: 1,
                    col: 0,
                    input: "8".into(),
                },
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                WorkspaceError::Degraded(_)
                    | WorkspaceError::StorageFailed(_)
                    | WorkspaceError::Store(_)
                    | WorkspaceError::Engine(_)
            ),
            "unexpected failure shape: {err:?}"
        );
        assert!(
            session.storage_failed("grid").unwrap().is_some(),
            "failed fsync must degrade the sheet"
        );

        // Durable mutations now refuse with the coded degraded error...
        let err = session
            .apply_edit(
                "grid",
                Edit::Set {
                    row: 2,
                    col: 0,
                    input: "9".into(),
                },
            )
            .unwrap_err();
        assert!(
            matches!(err, WorkspaceError::Degraded(_)),
            "expected Degraded, got {err:?}"
        );
        let err = session
            .stage_edit(
                "grid",
                Edit::Set {
                    row: 2,
                    col: 0,
                    input: "9".into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, WorkspaceError::Degraded(_)));

        // ...while reads keep serving the acknowledged state.
        assert_eq!(
            session.value("grid", CellAddr::new(0, 0)).unwrap(),
            CellValue::Number(7.0),
            "degraded sheet must keep serving reads"
        );
    }
    plan.disarm();
    let ws = Workspace::open(&dir).unwrap();
    let session = ws.session();
    session.open_sheet("grid").unwrap();
    assert_eq!(session.storage_failed("grid").unwrap(), None);
    assert_eq!(
        session.value("grid", CellAddr::new(0, 0)).unwrap(),
        CellValue::Number(7.0)
    );
    session
        .apply_edit(
            "grid",
            Edit::Set {
                row: 1,
                col: 0,
                input: "8".into(),
            },
        )
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
