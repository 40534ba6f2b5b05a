//! Storage fault-injection suite for the durable engine.
//!
//! The model under test: every file operation the engine performs can
//! fail — generic I/O error, ENOSPC, short write, failed fsync — and no
//! matter which one does, reopening the directory on a healthy
//! filesystem must recover a state that (a) is a prefix of the ops the
//! engine actually applied and (b) contains everything acknowledged at
//! the last successful durability point (`save` or `checkpoint`).
//!
//! `every_fault_point_recovers` literalizes that: a probe run counts the
//! file ops a fixed workload performs per class, then the workload is
//! re-run once per (class, index, kind) with exactly that op failing.
//! `random_fault_schedules_never_lose_acked_edits` is the proptest
//! generalization: random op tapes crossed with random fault schedules.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dataspread_engine::durable::{IMAGE_FILE, WAL_FILE};
use dataspread_engine::{EngineError, SheetEngine};
use dataspread_grid::{CellAddr, CellValue};
use dataspread_relstore::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule, StorageFs};

/// Everything the assertions look at lives inside this window.
const PROBE_ROWS: u32 = 12;
const PROBE_COLS: u32 = 4;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-faultinj-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// One step of a workload tape. `Save` and `Checkpoint` are the
/// durability points: once one returns `Ok`, every prior op is
/// acknowledged and must survive any later fault.
#[derive(Debug, Clone)]
enum Step {
    Set(u32, u32, String),
    InsertRows(u32, u32),
    DeleteRows(u32, u32),
    Save,
    Checkpoint,
}

/// Fixed workload for the exhaustive per-fault-point sweep: covers cell
/// sets (literals and formulas), structural edits, and two full
/// checkpoint cycles, ending on a checkpoint so a fault-free run
/// acknowledges everything.
fn fixed_steps() -> Vec<Step> {
    use Step::*;
    vec![
        Set(0, 0, "1".into()),
        Set(1, 0, "2.5".into()),
        Set(2, 1, "=1+2*3".into()),
        Set(3, 2, "alpha".into()),
        Save,
        Checkpoint,
        Set(4, 0, "5".into()),
        InsertRows(1, 2),
        Set(0, 3, "=SUM(1,2,3)".into()),
        DeleteRows(3, 1),
        Save,
        Set(5, 1, "tail".into()),
        Checkpoint,
    ]
}

/// The probe window's values, in row-major order.
fn snapshot(engine: &SheetEngine) -> Vec<CellValue> {
    let mut vals = Vec::with_capacity((PROBE_ROWS * PROBE_COLS) as usize);
    for r in 0..PROBE_ROWS {
        for c in 0..PROBE_COLS {
            vals.push(engine.value(CellAddr::new(r, c)));
        }
    }
    vals
}

/// Outcome of driving a tape against a (possibly faulty) store.
struct RunResult {
    /// Probe-window snapshot after each applied op; `states[0]` is the
    /// empty sheet.
    states: Vec<Vec<CellValue>>,
    /// Index into `states` of the last acknowledged durability point.
    acked: usize,
    /// The first error surfaced, if any (the run stops there).
    err: Option<EngineError>,
}

/// Run `steps` against a fresh engine on `fs`, mirroring applied ops in
/// an in-memory engine so the snapshots are independent of the faulty
/// store's internal state. Stops at the first error: past that point the
/// store's in-memory state may legitimately diverge from what was logged
/// (ops mutate the sheet before the WAL append), so continuing would
/// make the prefix invariant unverifiable.
fn run_workload(fs: Arc<dyn StorageFs>, dir: &Path, steps: &[Step]) -> RunResult {
    let mut mirror = SheetEngine::new();
    let mut states = vec![snapshot(&mirror)];
    let mut acked = 0;
    let mut engine = match SheetEngine::open_on(fs, dir) {
        Ok(e) => e,
        Err(e) => {
            return RunResult {
                states,
                acked,
                err: Some(e),
            }
        }
    };
    for step in steps {
        let result = match step {
            Step::Set(r, c, input) => engine.update_cell(CellAddr::new(*r, *c), input),
            Step::InsertRows(at, n) => engine.insert_rows(*at, *n),
            Step::DeleteRows(at, n) => engine.delete_rows(*at, *n),
            Step::Save => engine.save(),
            Step::Checkpoint => engine.checkpoint().map(|_| ()),
        };
        if let Err(e) = result {
            return RunResult {
                states,
                acked,
                err: Some(e),
            };
        }
        match step {
            Step::Set(r, c, input) => {
                mirror.update_cell(CellAddr::new(*r, *c), input).unwrap();
                states.push(snapshot(&mirror));
            }
            Step::InsertRows(at, n) => {
                mirror.insert_rows(*at, *n).unwrap();
                states.push(snapshot(&mirror));
            }
            Step::DeleteRows(at, n) => {
                mirror.delete_rows(*at, *n).unwrap();
                states.push(snapshot(&mirror));
            }
            Step::Save | Step::Checkpoint => acked = states.len() - 1,
        }
    }
    RunResult {
        states,
        acked,
        err: None,
    }
}

/// Reopen `dir` on the real filesystem and assert the recovered state is
/// one of `run.states[run.acked..]` — i.e. a consistent op prefix that
/// includes every acknowledged edit. Also proves the reopened store is
/// healthy again (degraded mode ends at reopen).
fn assert_recovers(dir: &Path, run: &RunResult, label: &str) {
    let mut recovered = SheetEngine::open(dir)
        .unwrap_or_else(|e| panic!("{label}: recovery on a healthy fs must succeed: {e}"));
    assert_eq!(
        recovered.storage_failed(),
        None,
        "{label}: reopened store must not be degraded"
    );
    let snap = snapshot(&recovered);
    let matched = run.states[run.acked..].contains(&snap);
    assert!(
        matched,
        "{label}: recovered state is not an acknowledged-or-later op prefix \
         (acked index {}, {} applied states, err: {:?})",
        run.acked,
        run.states.len(),
        run.err
    );
    // The recovered store must accept new durable work.
    recovered
        .update_cell(CellAddr::new(PROBE_ROWS, 0), "post-recovery")
        .unwrap_or_else(|e| panic!("{label}: write after recovery: {e}"));
    recovered
        .save()
        .unwrap_or_else(|e| panic!("{label}: save after recovery: {e}"));
}

/// Fault kinds that make sense per op class (a short write is only
/// meaningful for writes; ENOSPC for space-consuming ops).
fn kinds_for(op: FaultOp) -> &'static [FaultKind] {
    match op {
        FaultOp::Write => &[FaultKind::Io, FaultKind::Enospc, FaultKind::ShortWrite],
        FaultOp::SetLen => &[FaultKind::Io, FaultKind::Enospc],
        _ => &[FaultKind::Io],
    }
}

const ALL_OPS: &[FaultOp] = &[
    FaultOp::Write,
    FaultOp::Sync,
    FaultOp::OpenFile,
    FaultOp::Rename,
    FaultOp::SetLen,
    FaultOp::Remove,
];

/// The exhaustive sweep: fail every single file operation the fixed
/// workload performs (every class × every index × every applicable
/// kind), and prove recovery holds for each. This is the checkpoint
/// undo-journal's trial by fire — checkpoint image writes, map rewrites
/// and WAL resets (temp-file write, fsync and rename) all get hit.
#[test]
fn every_fault_point_recovers() {
    // Probe run: count the ops per class on a clean FaultFs.
    let probe_plan = FaultPlan::new();
    let probe_dir = temp_dir("probe");
    let probe = run_workload(
        FaultFs::new(Arc::clone(&probe_plan)),
        &probe_dir,
        &fixed_steps(),
    );
    assert!(
        probe.err.is_none(),
        "probe run must be clean: {:?}",
        probe.err
    );
    assert_eq!(probe.acked, probe.states.len() - 1);
    std::fs::remove_dir_all(&probe_dir).ok();

    let mut fault_runs = 0u64;
    let mut injected_runs = 0u64;
    for &op in ALL_OPS {
        let count = probe_plan.op_count(op);
        // Cap the sweep so a write-heavy workload stays bounded; stride
        // keeps coverage spread across the whole run.
        let stride = (count / 48).max(1);
        let mut index = 0;
        while index < count {
            for &kind in kinds_for(op) {
                let plan = FaultPlan::new();
                plan.push(FaultRule::new(op, index, kind));
                let dir = temp_dir("sweep");
                let run = run_workload(FaultFs::new(Arc::clone(&plan)), &dir, &fixed_steps());
                fault_runs += 1;
                if plan.injected() > 0 {
                    injected_runs += 1;
                }
                assert_recovers(&dir, &run, &format!("{op:?}#{index}/{kind:?}"));
                std::fs::remove_dir_all(&dir).ok();
            }
            index += stride;
        }
    }
    // The sweep must have actually exercised faults, heavily.
    assert!(
        injected_runs >= 20,
        "sweep too shallow: {injected_runs}/{fault_runs} runs injected a fault"
    );
}

/// A WAL append failure poisons the log (the on-disk tape has a hole)
/// but a later successful checkpoint restores durability — and because
/// ops mutate the sheet before logging, the checkpoint captures the
/// "failed" op too. Nothing acknowledged afterwards may be lost.
#[test]
fn append_fault_poisons_until_checkpoint_restores() {
    let plan = FaultPlan::new();
    let dir = temp_dir("poison");
    {
        let mut engine = SheetEngine::open_on(FaultFs::new(Arc::clone(&plan)), &dir).unwrap();
        engine.update_cell(CellAddr::new(0, 0), "1").unwrap();
        engine.save().unwrap();

        // Fail the next WAL write only.
        plan.push(FaultRule::new(FaultOp::Write, 0, FaultKind::Io).on_path("wal"));
        let err = engine.update_cell(CellAddr::new(1, 0), "2").unwrap_err();
        assert!(err.to_string().contains("injected"), "unexpected: {err}");
        assert_eq!(plan.injected(), 1);

        // The log is poisoned: further appends are refused even though
        // the fault is spent.
        let err = engine.update_cell(CellAddr::new(2, 0), "3").unwrap_err();
        assert!(
            err.to_string().contains("checkpoint"),
            "poisoned log should point at checkpoint: {err}"
        );

        // A checkpoint re-serializes the in-memory state (hole included)
        // and restores durability.
        engine.checkpoint().unwrap();
        assert_eq!(engine.storage_failed(), None);
        engine.update_cell(CellAddr::new(3, 0), "4").unwrap();
        engine.save().unwrap();
    }
    let recovered = SheetEngine::open(&dir).unwrap();
    assert_eq!(recovered.value(CellAddr::new(0, 0)), CellValue::Number(1.0));
    // The op whose append failed had already mutated the sheet; the
    // checkpoint made it durable.
    assert_eq!(recovered.value(CellAddr::new(1, 0)), CellValue::Number(2.0));
    assert_eq!(recovered.value(CellAddr::new(3, 0)), CellValue::Number(4.0));
    std::fs::remove_dir_all(&dir).ok();
}

/// A failed fsync permanently fails the store — no retry can un-lose
/// writes the kernel already dropped (fsyncgate). Only reopening the
/// directory recovers, and everything synced before the failure is there.
#[test]
fn fsync_failure_is_permanent_until_reopen() {
    let plan = FaultPlan::new();
    let dir = temp_dir("fsyncgate");
    {
        let mut engine = SheetEngine::open_on(FaultFs::new(Arc::clone(&plan)), &dir).unwrap();
        engine.update_cell(CellAddr::new(0, 0), "keep").unwrap();
        engine.save().unwrap();

        plan.push(FaultRule::new(FaultOp::Sync, 0, FaultKind::Io).on_path("wal"));
        engine.update_cell(CellAddr::new(1, 0), "maybe").unwrap();
        assert!(engine.save().is_err(), "faulted fsync must surface");
        assert!(
            engine.storage_failed().is_some(),
            "failed fsync must fail the store permanently"
        );

        // Spent fault or not, the store stays failed: appends, syncs and
        // checkpoints are all refused.
        assert!(engine.update_cell(CellAddr::new(2, 0), "no").is_err());
        assert!(engine.save().is_err());
        assert!(engine.checkpoint().is_err());
    }
    let recovered = SheetEngine::open(&dir).unwrap();
    assert_eq!(recovered.storage_failed(), None);
    assert_eq!(
        recovered.value(CellAddr::new(0, 0)),
        CellValue::Text("keep".into())
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Ticket continuity across restarts
// ---------------------------------------------------------------------------

/// Commit tickets keep counting across restarts: the incarnation
/// strictly increases per open, and the recovered horizon covers every
/// ticket issued before the restart (so a client comparing its receipts
/// against the horizon never re-stages something that survived).
#[test]
fn ticket_horizon_survives_restart() {
    let dir = temp_dir("tickets");
    let (inc_a, hor_a) = {
        let mut engine = SheetEngine::open(&dir).unwrap();
        for i in 0..5 {
            engine
                .update_cell(CellAddr::new(i, 0), &format!("{i}"))
                .unwrap();
        }
        engine.save().unwrap();
        engine.recovery_horizon()
    };
    let (inc_b, hor_b) = {
        let mut engine = SheetEngine::open(&dir).unwrap();
        // Each of the five ops consumed a ticket; the horizon must cover
        // them all.
        assert!(
            engine.recovery_horizon().1 >= hor_a + 5,
            "horizon went backwards: {:?} after {:?}",
            engine.recovery_horizon(),
            (inc_a, hor_a)
        );
        for i in 0..3 {
            engine
                .update_cell(CellAddr::new(i, 1), &format!("{i}"))
                .unwrap();
        }
        engine.checkpoint().unwrap();
        engine.recovery_horizon()
    };
    assert!(inc_b > inc_a, "incarnation must increase per open");
    let engine = SheetEngine::open(&dir).unwrap();
    let (inc_c, hor_c) = engine.recovery_horizon();
    assert!(inc_c > inc_b);
    assert!(
        hor_c >= hor_b + 3,
        "checkpointed tickets must stay covered: {hor_c} vs {hor_b}+3"
    );
    for i in 0..5 {
        assert_eq!(
            engine.value(CellAddr::new(i, 0)),
            CellValue::Number(i as f64)
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The WAL reset that ends a checkpoint replaces the log atomically, so a
/// fault at any of its file ops leaves the old log whole. Reopened, the
/// sheet gets a new incarnation and a horizon covering every ticket issued
/// before the fault — an empty log would restart both at 0, and a client
/// would take the restart for a dropped connection and skip re-staging.
#[test]
fn an_interrupted_wal_reset_keeps_incarnation_and_horizon() {
    let classes = [
        FaultOp::Write,
        FaultOp::Sync,
        FaultOp::SetLen,
        FaultOp::OpenFile,
        FaultOp::Rename,
    ];
    let mut injected = 0;
    for op in classes {
        for index in 0.. {
            let dir = temp_dir("wal-reset");
            let plan = FaultPlan::new();
            let (before, ticket, snap) = {
                let mut engine =
                    SheetEngine::open_on(FaultFs::new(Arc::clone(&plan)), &dir).unwrap();
                for i in 0..5 {
                    engine
                        .update_cell(CellAddr::new(i, 0), &format!("{i}"))
                        .unwrap();
                }
                engine.save().unwrap();
                let before = engine.recovery_horizon();
                let ticket = engine.last_commit_ticket();
                let snap = snapshot(&engine);
                plan.push(FaultRule::new(op, index, FaultKind::Io).on_path(WAL_FILE));
                let result = engine.checkpoint();
                if plan.injected() == 0 {
                    result.unwrap();
                    std::fs::remove_dir_all(&dir).ok();
                    break; // every op of this class was hit
                }
                (before, ticket, snap)
            };
            injected += 1;
            let label = format!("{op:?}#{index}");
            let engine = SheetEngine::open(&dir).unwrap();
            let (incarnation, horizon) = engine.recovery_horizon();
            assert!(
                incarnation > before.0,
                "{label}: incarnation {incarnation} after {before:?}"
            );
            assert!(
                horizon >= ticket,
                "{label}: horizon {horizon} below issued ticket {ticket}"
            );
            assert_eq!(snapshot(&engine), snap, "{label}");
            let mut files: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            files.sort();
            assert_eq!(files, [IMAGE_FILE, WAL_FILE], "{label}");
            drop(engine);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    assert!(
        injected >= 4,
        "only {injected} faults hit wal.log during the checkpoint"
    );
}

// ---------------------------------------------------------------------------
// Randomized schedules (proptest)
// ---------------------------------------------------------------------------

/// A deterministic random tape: cell sets dominate, with structural
/// edits and durability points mixed in.
fn random_steps(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut steps = Vec::with_capacity(len);
    for _ in 0..len {
        let roll = rng.gen_range(0u32..100);
        let step = if roll < 60 {
            let inputs = ["0", "7", "-3.5", "TRUE", "alpha", "", "=1+2", "=SUM(1,2,3)"];
            Step::Set(
                rng.gen_range(0..PROBE_ROWS),
                rng.gen_range(0..PROBE_COLS),
                inputs[rng.gen_range(0..inputs.len())].to_string(),
            )
        } else if roll < 70 {
            Step::InsertRows(rng.gen_range(0..PROBE_ROWS), rng.gen_range(1..=2))
        } else if roll < 80 {
            Step::DeleteRows(rng.gen_range(0..PROBE_ROWS), rng.gen_range(1..=2))
        } else if roll < 92 {
            Step::Save
        } else {
            Step::Checkpoint
        };
        steps.push(step);
    }
    steps
}

fn arb_fault_rule() -> impl Strategy<Value = FaultRule> {
    let op = prop_oneof![
        Just(FaultOp::Write),
        Just(FaultOp::Sync),
        Just(FaultOp::OpenFile),
        Just(FaultOp::Rename),
        Just(FaultOp::SetLen),
        Just(FaultOp::Remove),
    ];
    let kind = prop_oneof![
        Just(FaultKind::Io),
        Just(FaultKind::Enospc),
        Just(FaultKind::ShortWrite),
    ];
    (op, 0u64..120, kind, any::<bool>()).prop_map(|(op, after, kind, sticky)| {
        let rule = FaultRule::new(op, after, kind);
        if sticky {
            rule.sticky()
        } else {
            rule
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Chaos differential: random op tapes × random fault schedules.
    /// Whatever fails, recovery on a healthy filesystem lands on an
    /// acknowledged-or-later op prefix and the store is healthy again.
    #[test]
    fn random_fault_schedules_never_lose_acked_edits(
        seed in any::<u64>(),
        rules in prop::collection::vec(arb_fault_rule(), 1..4),
    ) {
        let steps = random_steps(seed, 24);
        let plan = FaultPlan::new();
        for rule in rules.clone() {
            plan.push(rule);
        }
        let dir = temp_dir("chaos");
        let run = run_workload(FaultFs::new(Arc::clone(&plan)), &dir, &steps);
        assert_recovers(&dir, &run, &format!("seed {seed} rules {rules:?}"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
