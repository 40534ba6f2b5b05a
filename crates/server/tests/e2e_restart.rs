//! End-to-end crash test against the real `dataspread-server` binary:
//! several concurrent TCP clients drive the full session API while the
//! server process is SIGKILLed mid-stream, then a restarted server over
//! the same directory must serve back every edit that was acknowledged
//! (durable receipt or successful `await_commit`) before the kill.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dataspread_client::Client;
use dataspread_grid::{CellAddr, CellValue, Rect};
use dataspread_workspace::Edit;

const CLIENTS: usize = 4;
/// Disjoint row band per client so verification is a window fetch.
const BAND: u32 = 10_000;

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawn the real binary on a fresh port and wait for its readiness
    /// line.
    fn spawn(dir: &std::path::Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dataspread-server"))
            .args(["--addr", "127.0.0.1:0", "--dir"])
            .arg(dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dataspread-server");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("readiness line");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"))
            .parse()
            .expect("addr parses");
        Server { child, addr }
    }

    fn kill(mut self) {
        self.child.kill().expect("SIGKILL server");
        self.child.wait().expect("reap server");
    }
}

/// One client's workload: loop over the full API surface — open, apply,
/// stage+await, fetch, checkpoint — recording each acknowledged cell,
/// until the server dies underneath it.
fn client_loop(id: usize, addr: SocketAddr, stop: &AtomicBool) -> Vec<(CellAddr, f64)> {
    let client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => return Vec::new(), // server died before we dialed in
    };
    let session = client.session();
    // All clients share one sheet: opens race, edits interleave.
    if session.open_sheet("grid").is_err() {
        return Vec::new();
    }
    let base = id as u32 * BAND;
    let mut acked: Vec<(CellAddr, f64)> = Vec::new();
    let mut i = 0u32;
    loop {
        if stop.load(Ordering::Relaxed) && i > 0 {
            // Keep at least one full iteration so "mid-stream" is real.
            return acked;
        }
        // A committed apply_edit: acknowledged iff the receipt is
        // durable.
        let addr_a = CellAddr::new(base + i * 2, 0);
        let val_a = f64::from(id as u32 * 7 + i);
        match session.apply_edit(
            "grid",
            Edit::Set {
                row: addr_a.row,
                col: 0,
                input: val_a.to_string(),
            },
        ) {
            Ok(r) if r.durable => acked.push((addr_a, val_a)),
            Ok(_) | Err(_) => return acked,
        }
        // A staged window: acknowledged only once await_commit returns.
        let mut staged: Vec<(CellAddr, f64)> = Vec::new();
        let mut last_ticket = 0;
        for k in 0..3u32 {
            let addr_s = CellAddr::new(base + i * 2 + 1, k + 1);
            let val_s = f64::from(i * 10 + k);
            match session.stage_edit(
                "grid",
                Edit::Set {
                    row: addr_s.row,
                    col: addr_s.col,
                    input: val_s.to_string(),
                },
            ) {
                Ok(r) => {
                    last_ticket = r.ticket;
                    staged.push((addr_s, val_s));
                }
                Err(_) => return acked, // staged-but-unawaited: NOT acked
            }
        }
        if session.await_commit("grid", last_ticket).is_err() {
            return acked;
        }
        acked.extend(staged);
        // Reads and maintenance exercise the rest of the surface; their
        // failures only mean the server is gone.
        if session
            .fetch_window("grid", Rect::new(base, 0, base + i * 2 + 1, 4))
            .is_err()
        {
            return acked;
        }
        if i % 8 == 7 && session.checkpoint("grid").is_err() {
            return acked;
        }
        i += 1;
    }
}

#[test]
fn concurrent_clients_survive_sigkill_and_restart() {
    let dir = std::env::temp_dir().join(format!("ds-e2e-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    let server = Server::spawn(&dir);
    let addr = server.addr;
    let stop = Arc::new(AtomicBool::new(false));

    let acked: Vec<(CellAddr, f64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let stop = Arc::clone(&stop);
                scope.spawn(move || client_loop(id, addr, &stop))
            })
            .collect();
        // Let the fleet build up real traffic, then pull the plug —
        // SIGKILL, no drain, while edits are in flight.
        std::thread::sleep(Duration::from_millis(600));
        server.kill();
        stop.store(true, Ordering::Relaxed);
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });

    assert!(
        acked.len() >= CLIENTS * 4,
        "too little acknowledged traffic before the kill ({} cells) — \
         the kill came too early to mean anything",
        acked.len()
    );

    // Restart over the same directory: recovery must surface every
    // acknowledged edit through fetch_window.
    let server = Server::spawn(&dir);
    let client = Client::connect(server.addr).expect("reconnect after restart");
    let session = client.session();
    session.open_sheet("grid").expect("reopen after restart");
    for band in 0..CLIENTS {
        let base = band as u32 * BAND;
        let window = session
            .fetch_window("grid", Rect::new(base, 0, base + BAND - 1, 4))
            .expect("window after restart");
        let cells: std::collections::BTreeMap<_, _> = window.cells().into_iter().collect();
        for (addr, val) in acked.iter().filter(|(a, _)| a.row / BAND == band as u32) {
            let cell = cells.get(addr).unwrap_or_else(|| {
                panic!("acknowledged cell {addr:?} lost across SIGKILL+restart")
            });
            assert_eq!(
                cell.value,
                CellValue::Number(*val),
                "acknowledged cell {addr:?} recovered with the wrong value"
            );
        }
    }
    server.kill();
    std::fs::remove_dir_all(&dir).ok();
}
