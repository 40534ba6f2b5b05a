//! Network-serving benchmark: sustained throughput and tail latency of
//! the TCP server under concurrent clients.
//!
//! For each client count K, an in-process `dataspread-server` hosts a
//! durable group-commit workspace on loopback; K OS threads each dial
//! their own connection and run the standard pipelined client shape —
//! stage a window of 8 edits, await the last ticket, fetch a positional
//! window every 16 ops — on a private sheet. Every staged edit's
//! request→receipt round trip is timed; awaits and fetches ride along in
//! the wall clock, so `ops_per_sec` is *acknowledged end-to-end edits
//! per second including their share of fsync waits and reads*, not raw
//! frame throughput.
//!
//! Results go to stdout and `BENCH_server.json` (override with
//! `DS_SERVER_OUT`). Sizes: `DS_SERVER_CLIENTS` (comma-separated client
//! counts, default `1,4,8`) and `DS_SERVER_OPS` (staged edits per
//! client, default 600).

use std::path::PathBuf;
use std::time::Instant;

use dataspread_client::Client;
use dataspread_grid::Rect;
use dataspread_proto::codes;
use dataspread_workspace::{Edit, Workspace};

const WINDOW: usize = 8;
const FETCH_EVERY: usize = 16;

fn clients_from_env() -> Vec<usize> {
    std::env::var("DS_SERVER_CLIENTS")
        .ok()
        .map(|s| {
            s.split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| vec![1, 4, 8])
}

fn ops_per_client() -> usize {
    std::env::var("DS_SERVER_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(600)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dataspread-exp-server-{tag}-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

struct Row {
    clients: usize,
    ops: usize,
    secs: f64,
    ops_per_sec: f64,
    p50_us: u128,
    p99_us: u128,
}

fn percentile(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// One client's run: returns per-stage-edit round-trip latencies (µs).
fn client_run(addr: std::net::SocketAddr, id: usize, ops: usize) -> Vec<u128> {
    let client = Client::connect(addr).expect("connect");
    let session = client.session();
    let sheet = format!("bench{id}");
    session.open_sheet(&sheet).expect("open");
    let mut latencies = Vec::with_capacity(ops);
    let mut last_ticket = 0;
    let mut in_window = 0usize;
    let mut i = 0usize;
    while i < ops {
        let edit = Edit::Set {
            row: (i / 64) as u32,
            col: (i % 64) as u32,
            input: (i as f64).to_string(),
        };
        let t = Instant::now();
        match session.stage_edit(&sheet, edit) {
            Ok(receipt) => {
                latencies.push(t.elapsed().as_micros());
                last_ticket = receipt.ticket;
                in_window += 1;
                i += 1;
            }
            Err(e) if e.code == codes::BUSY => {
                // Admission control: drain the window and retry.
                session.await_commit(&sheet, last_ticket).expect("await");
                in_window = 0;
                continue;
            }
            Err(e) => panic!("stage_edit failed: {e}"),
        }
        if in_window >= WINDOW {
            session.await_commit(&sheet, last_ticket).expect("await");
            in_window = 0;
        }
        if i.is_multiple_of(FETCH_EVERY) {
            let rect = Rect::new(0, 0, (i / 64) as u32, 63);
            session.fetch_window(&sheet, rect).expect("fetch");
        }
    }
    if in_window > 0 {
        session.await_commit(&sheet, last_ticket).expect("await");
    }
    latencies
}

fn run_scale(clients: usize, ops: usize) -> Row {
    let dir = temp_dir(&format!("c{clients}"));
    let ws = Workspace::open(&dir).expect("open workspace");
    let handle = dataspread_server::serve(ws, "127.0.0.1:0").expect("serve");
    let addr = handle.local_addr();
    let t = Instant::now();
    let mut latencies: Vec<u128> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|id| scope.spawn(move || client_run(addr, id, ops)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread"))
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    let total_ops = clients * ops;

    // Pull the server's own accounting over the wire and hold it against
    // what this harness just did: every staged edit must be counted and
    // timed server-side, and the durable path must have fsynced.
    {
        let client = Client::connect(addr).expect("metrics connect");
        let snap = client.session().metrics().expect("metrics");
        let staged = snap
            .counter("server_requests{kind=\"stage_edit\"}")
            .unwrap_or(0);
        assert!(
            staged >= total_ops as u64,
            "server counted {staged} stage_edits, harness sent >= {total_ops}"
        );
        assert!(
            snap.counter("session_ops{op=\"stage_edit\"}").unwrap_or(0) >= total_ops as u64,
            "session op counter disagrees with the ops issued"
        );
        let hist = snap
            .histogram("session_op_ns{op=\"stage_edit\"}")
            .expect("stage_edit histogram");
        assert!(
            hist.count() >= (total_ops / 128) as u64,
            "histogram holds {} samples, expected >= 1 in 128 of {total_ops}",
            hist.count()
        );
        let fsyncs: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("wal_fsyncs{"))
            .map(|&(_, v)| v)
            .sum();
        assert!(fsyncs > 0, "a durable run must have fsynced");
        if let Ok(path) = std::env::var("DS_SERVER_METRICS_OUT") {
            std::fs::write(&path, snap.render_text()).expect("write metrics exposition");
            println!("  wrote metrics exposition to {path}");
        }
    }

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    latencies.sort_unstable();
    Row {
        clients,
        ops: total_ops,
        secs,
        ops_per_sec: total_ops as f64 / secs,
        p50_us: percentile(&latencies, 0.50),
        p99_us: percentile(&latencies, 0.99),
    }
}

fn main() {
    let scales = clients_from_env();
    let ops = ops_per_client();
    let out_path =
        std::env::var("DS_SERVER_OUT").unwrap_or_else(|_| "BENCH_server.json".to_string());

    println!("server bench: {ops} staged edits/client, window {WINDOW}, clients {scales:?}");
    let mut rows = Vec::new();
    for &clients in &scales {
        let row = run_scale(clients, ops);
        println!(
            "  {:>2} clients: {:>9.0} ops/s  p50 {:>6} us  p99 {:>6} us  ({:.2}s)",
            row.clients, row.ops_per_sec, row.p50_us, row.p99_us, row.secs
        );
        rows.push(row);
    }

    let mut json = format!(
        "{{\n  \"experiment\": \"server\",\n  \"ops_per_client\": {ops},\n  \"pipeline_window\": {WINDOW},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"ops\": {}, \"secs\": {:.3}, \"ops_per_sec\": {:.1}, \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            r.clients,
            r.ops,
            r.secs,
            r.ops_per_sec,
            r.p50_us,
            r.p99_us,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
