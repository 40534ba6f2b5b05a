//! End-to-end observability: a live TCP server answering
//! `Request::Metrics` with the workspace's full registry snapshot — op
//! latency histograms, server request/byte counters, per-sheet health —
//! including a sheet degraded by an injected WAL fsync fault, whose
//! transition must be visible both in the snapshot's health list and as
//! a `degraded` record in the event ring. A sheet's stats are a view of
//! that same snapshot, so the remote and in-process stats agree.

use std::path::PathBuf;
use std::sync::Arc;

use dataspread_client::Client;
use dataspread_proto::codes;
use dataspread_relstore::{FaultFs, FaultKind, FaultOp, FaultPlan, FaultRule};
use dataspread_server::{metrics_exposition, serve, serve_with, ServerConfig};
use dataspread_workspace::{Edit, Health, Workspace, WorkspaceConfig, WorkspaceError};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ds-metrics-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn set(row: u32, input: &str) -> Edit {
    Edit::Set {
        row,
        col: 0,
        input: input.into(),
    }
}

#[test]
fn metrics_over_tcp_capture_ops_and_degrade() {
    let dir = temp_dir("degrade");
    let plan = FaultPlan::new();
    let ws = Workspace::open_with(
        &dir,
        WorkspaceConfig {
            storage_fs: Some(FaultFs::new(Arc::clone(&plan))),
            ..WorkspaceConfig::default()
        },
    )
    .unwrap();
    let local = ws.session();
    let handle = serve(ws, "127.0.0.1:0").unwrap();
    let client = Client::connect(handle.local_addr()).unwrap();
    let session = client.session();
    session.open_sheet("grid").unwrap();
    for i in 0..4 {
        session.apply_edit("grid", set(i, &i.to_string())).unwrap();
    }

    // Healthy snapshot: the four edits show up in the session op
    // histogram, the server-side counters saw this connection's frames,
    // and the sheet reports healthy.
    let snap = session.metrics().unwrap();
    assert!(snap.counter("session_ops{op=\"apply_edit\"}").unwrap_or(0) >= 4);
    let apply = snap
        .histogram("session_op_ns{op=\"apply_edit\"}")
        .expect("apply_edit histogram");
    assert!(apply.count() >= 1, "first op is always latency-sampled");
    assert!(apply.p99() > 0);
    assert!(
        snap.counter("server_requests{kind=\"apply_edit\"}")
            .unwrap_or(0)
            >= 4
    );
    assert!(
        snap.counter("server_requests{kind=\"open_sheet\"}")
            .unwrap_or(0)
            >= 1
    );
    assert!(snap.counter("server_frame_bytes_in").unwrap_or(0) > 0);
    assert!(snap.counter("server_frame_bytes_out").unwrap_or(0) > 0);
    assert!(snap.gauge("server_connections_in_flight").unwrap_or(0) >= 1);
    assert!(snap.counter("wal_fsyncs{sheet=\"grid\"}").unwrap_or(0) > 0);
    let health = snap.sheet_health("grid").expect("grid health");
    assert_eq!(health.health, Health::Healthy);

    // Every WAL fsync fails from here on: the next durable edits fail
    // and the sheet degrades.
    plan.push(
        FaultRule::new(FaultOp::Sync, 0, FaultKind::Io)
            .sticky()
            .on_path("wal"),
    );
    assert!(session.apply_edit("grid", set(10, "x")).is_err());
    assert!(session.apply_edit("grid", set(11, "y")).is_err());

    // The degrade is visible over the wire three ways: the stats view,
    // the snapshot's health list, and the event ring.
    let stats = session.stats("grid").unwrap();
    assert_eq!(stats.health, Health::Degraded);
    assert!(stats.degraded_cause.is_some(), "stats carries the cause");
    // Stats are one projection of one snapshot: remote equals in-process,
    // and an unknown sheet is refused on both sides.
    assert_eq!(stats, local.stats("grid").unwrap());
    assert_eq!(
        session.stats("never").unwrap_err().code,
        codes::NO_SUCH_SHEET
    );
    assert!(matches!(
        local.stats("never"),
        Err(WorkspaceError::NoSuchSheet(_))
    ));

    let snap = session.metrics().unwrap();
    let health = snap.sheet_health("grid").expect("grid health");
    assert_eq!(health.health, Health::Degraded);
    assert!(health.cause.is_some());
    let degraded: Vec<_> = snap
        .events
        .iter()
        .filter(|e| e.kind == "degraded" && e.sheet == "grid")
        .collect();
    assert_eq!(degraded.len(), 1, "one transition, one event: {degraded:?}");
    assert!(!degraded[0].outcome.is_empty(), "event carries the cause");

    // The error counters saw the degraded rejections.
    let errors: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("server_errors"))
        .map(|&(_, v)| v)
        .sum();
    assert!(errors >= 2, "got {errors}");

    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn busy_rejections_are_counted_and_ring_buffered() {
    // A zero-size admission window rejects every StageEdit; each
    // rejection must bump `server_errors{code=BUSY}` and land a
    // `busy_reject` record in the event ring.
    let handle = serve_with(
        Workspace::in_memory(),
        "127.0.0.1:0",
        ServerConfig {
            max_staged_per_conn: 0,
        },
    )
    .unwrap();
    let client = Client::connect(handle.local_addr()).unwrap();
    let session = client.session();
    session.open_sheet("s").unwrap();
    for _ in 0..3 {
        assert!(session.stage_edit("s", set(0, "1")).is_err());
    }
    let snap = session.metrics().unwrap();
    let key = format!("server_errors{{code=\"{}\"}}", codes::BUSY);
    assert_eq!(snap.counter(&key), Some(3));
    let busy = snap
        .events
        .iter()
        .filter(|e| e.kind == "busy_reject" && e.sheet == "s")
        .count();
    assert_eq!(busy, 3);
    drop(client);
    handle.shutdown();
}

#[test]
fn exposition_reopens_sheets_from_disk() {
    // Build a durable workspace, let it go, then render the exposition
    // from a cold open — the dump must rediscover the sheet directory
    // and report its recovered state.
    let dir = temp_dir("dump");
    {
        let ws = Workspace::open(&dir).unwrap();
        let session = ws.session();
        session.open_sheet("grid").unwrap();
        for i in 0..8 {
            session.apply_edit("grid", set(i, &i.to_string())).unwrap();
        }
    }
    let ws = Workspace::open(&dir).unwrap();
    let text = metrics_exposition(&ws, Some(&dir));
    assert!(
        text.contains("wal_bytes{sheet=\"grid\"}"),
        "recovered WAL size missing from:\n{text}"
    );
    assert!(
        text.contains("sheet_health{sheet=\"grid\"} 0"),
        "healthy sheet line missing from:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
