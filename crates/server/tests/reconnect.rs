//! Reconnecting-client end-to-end suite: one `Client` instance rides
//! across a server SIGKILL + restart on the same address.
//!
//! Two scenarios:
//!
//! * `same_client_survives_restart` — the plain restart: everything
//!   acknowledged was durable, so after the restart the *same* client
//!   object reconnects, reconciles (nothing to re-stage) and keeps
//!   working; every acknowledged edit is still served.
//! * `lost_tail_is_restaged_after_restart` — the machine-crash shape:
//!   after the kill the WAL's unsynced tail is truncated away (SIGKILL
//!   alone loses nothing — the page cache survives the process — so the
//!   test tears the file the way a power cut would). The restarted
//!   server's recovery horizon then sits below tickets the client holds
//!   staged receipts for, and the reconnect protocol must re-stage
//!   exactly those, so a later `await_commit` lands every one.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use dataspread_client::{Client, ClientConfig};
use dataspread_engine::durable::wal_path;
use dataspread_grid::{CellAddr, CellValue, Rect};
use dataspread_relstore::wal::{WAL_HEADER_LEN, WAL_RECORD_OVERHEAD};
use dataspread_workspace::Edit;

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawn the real binary and wait for its readiness line. `addr`
    /// `127.0.0.1:0` picks a free port; a concrete port restarts there.
    fn spawn_on(dir: &std::path::Path, addr: &str) -> std::io::Result<Server> {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dataspread-server"))
            .args(["--addr", addr, "--dir"])
            .arg(dir)
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        match line.trim().strip_prefix("listening on ") {
            Some(a) => Ok(Server {
                child,
                addr: a.parse().expect("addr parses"),
            }),
            None => {
                // Bind failed (port still in TIME_WAIT after the kill) —
                // reap and let the caller retry.
                child.kill().ok();
                child.wait().ok();
                Err(std::io::Error::other(format!(
                    "no readiness line: {line:?}"
                )))
            }
        }
    }

    /// Restart on the exact address a previous incarnation used,
    /// retrying while the OS releases the port.
    fn respawn(dir: &std::path::Path, addr: SocketAddr) -> Server {
        let mut last = None;
        for _ in 0..50 {
            match Self::spawn_on(dir, &addr.to_string()) {
                Ok(s) => return s,
                Err(e) => {
                    last = Some(e);
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        panic!("could not rebind {addr}: {last:?}");
    }

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
    }
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ds-reconnect-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A client that keeps retrying long enough to cover a restart window.
fn patient_client(addr: SocketAddr) -> Client {
    Client::connect_with(
        addr,
        ClientConfig {
            reconnect_retries: 40,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(250),
            ..ClientConfig::default()
        },
    )
    .expect("connect")
}

fn set(row: u32, col: u32, val: f64) -> Edit {
    Edit::Set {
        row,
        col,
        input: val.to_string(),
    }
}

fn assert_cells(session: &dataspread_client::RemoteSession, acked: &[(CellAddr, f64)]) {
    let window = session
        .fetch_window("grid", Rect::new(0, 0, 200, 8))
        .expect("verification window");
    let cells: std::collections::BTreeMap<_, _> = window.cells().into_iter().collect();
    for (addr, val) in acked {
        let cell = cells
            .get(addr)
            .unwrap_or_else(|| panic!("acknowledged cell {addr:?} lost"));
        assert_eq!(
            cell.value,
            CellValue::Number(*val),
            "acknowledged cell {addr:?} has the wrong value"
        );
    }
}

#[test]
fn same_client_survives_restart() {
    let dir = temp_dir("plain");
    let server = Server::spawn_on(&dir, "127.0.0.1:0").expect("first spawn");
    let addr = server.addr;

    let client = patient_client(addr);
    let session = client.session();
    session.open_sheet("grid").expect("open");
    let (inc_before, _) = session.durable_ticket("grid").expect("ticket");

    let mut acked: Vec<(CellAddr, f64)> = Vec::new();
    // Committed edits and an awaited staged window: all acknowledged.
    for i in 0..4u32 {
        let val = f64::from(100 + i);
        session.apply_edit("grid", set(i, 0, val)).expect("apply");
        acked.push((CellAddr::new(i, 0), val));
    }
    let mut last_ticket = 0;
    for i in 0..6u32 {
        let val = f64::from(200 + i);
        let receipt = session.stage_edit("grid", set(i, 1, val)).expect("stage");
        last_ticket = receipt.ticket;
        acked.push((CellAddr::new(i, 1), val));
    }
    session.await_commit("grid", last_ticket).expect("await");

    server.kill();
    let server = Server::respawn(&dir, addr);

    // The same client object reconnects under the hood; the incarnation
    // must have moved and nothing acknowledged may be missing.
    let (inc_after, _) = session
        .durable_ticket("grid")
        .expect("ticket after restart");
    assert!(
        inc_after > inc_before,
        "restart must bump the incarnation ({inc_before} -> {inc_after})"
    );
    assert_cells(&session, &acked);

    // And it keeps taking writes — synchronous and pipelined.
    for i in 0..3u32 {
        let val = f64::from(300 + i);
        session
            .apply_edit("grid", set(i, 2, val))
            .expect("apply after restart");
        acked.push((CellAddr::new(i, 2), val));
    }
    let receipt = session
        .stage_edit("grid", set(9, 2, 399.0))
        .expect("stage after restart");
    session
        .await_commit("grid", receipt.ticket)
        .expect("await after restart");
    acked.push((CellAddr::new(9, 2), 399.0));
    assert_cells(&session, &acked);

    server.kill();
    std::fs::remove_dir_all(&dir).ok();
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
fn lost_tail_is_restaged_after_restart() {
    let dir = temp_dir("restage");
    let server = Server::spawn_on(&dir, "127.0.0.1:0").expect("first spawn");
    let addr = server.addr;

    let client = patient_client(addr);
    let session = client.session();
    session.open_sheet("grid").expect("open");

    // One durably committed edit, then a staged window where only the
    // third ticket is awaited: tickets 4..=8 are held as staged receipts.
    session.apply_edit("grid", set(0, 0, 1.0)).expect("apply");
    let mut tickets = Vec::new();
    let mut staged_vals: Vec<(CellAddr, f64)> = Vec::new();
    for i in 0..8u32 {
        let val = f64::from(500 + i);
        let receipt = session.stage_edit("grid", set(i, 3, val)).expect("stage");
        tickets.push(receipt.ticket);
        staged_vals.push((CellAddr::new(i, 3), val));
    }
    session
        .await_commit("grid", tickets[2])
        .expect("await early");

    server.kill();

    // SIGKILL loses nothing (the kernel still holds the appended bytes),
    // so simulate the machine crash: tear the WAL after the last awaited
    // record. Everything awaited stays; later records vanish.
    let wal = wal_path(dir.join("grid"));
    let bytes = std::fs::read(&wal).expect("read wal");
    let ends = record_ends(&bytes);
    assert!(
        ends.len() >= 9,
        "expected at least 9 records (1 applied + 8 staged), got {}",
        ends.len()
    );
    // Keep the first awaited prefix (apply + 3 staged records), tear the
    // bytes of everything after plus a few bytes into the next record so
    // recovery also exercises the torn-record path.
    let keep = ends[3] + 3;
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal)
        .expect("open wal for truncate");
    file.set_len(keep as u64).expect("tear wal tail");
    drop(file);

    let server = Server::respawn(&dir, addr);

    // The restarted recovery horizon must sit below the lost tickets…
    let (_, horizon) = session.durable_ticket("grid").expect("horizon");
    assert!(
        horizon < *tickets.last().unwrap(),
        "horizon {horizon} unexpectedly covers lost ticket {}",
        tickets.last().unwrap()
    );

    // …and awaiting the last staged ticket must still succeed: the
    // reconnect re-staged the lost entries and remapped the ticket.
    session
        .await_commit("grid", *tickets.last().unwrap())
        .expect("await across restart re-stages the lost tail");

    // Every staged edit the client got a receipt for is served.
    assert_cells(&session, &staged_vals);
    assert_cells(&session, &[(CellAddr::new(0, 0), 1.0)]);

    server.kill();
    std::fs::remove_dir_all(&dir).ok();
}
