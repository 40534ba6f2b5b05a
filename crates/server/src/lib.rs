//! The DataSpread network server: a [`Workspace`] behind a
//! length-prefixed binary TCP protocol.
//!
//! One accept loop hands each connection to its own reader thread plus a
//! small worker pool. The reader decodes frames into `(req_id,
//! Request)` pairs and queues them; workers execute against a shared
//! [`Session`] and write responses — tagged with the echoed request id —
//! under a shared writer lock, so responses may return out of order and
//! many logical sessions multiplex over one connection.
//!
//! Two properties the protocol work hinges on:
//!
//! * **Group-commit pipelining.** `StageEdit` returns its receipt without
//!   waiting for the fsync; `AwaitCommit` commits the ticket on the
//!   worker's thread. A client keeping a window of staged edits in flight
//!   thereby pays ~1 fsync for the whole window.
//! * **Admission control.** Each connection may hold at most
//!   [`ServerConfig::max_staged_per_conn`] staged-but-unacknowledged
//!   edits per sheet; the window is pruned against the sheet's durable
//!   horizon ([`Session::durable_ticket`]), and a client that overruns it
//!   gets a clean [`codes::BUSY`] rejection instead of unbounded
//!   server-side buffering.
//!
//! Malformed input never panics the server: undecodable frames and
//! unframeable streams are answered (best-effort) with a
//! [`codes::PROTOCOL`] error and the connection is closed.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;

use dataspread_obs::{now_ms, Counter, Event, Gauge, MetricsRegistry};
use dataspread_proto::{
    codes, read_frame, write_frame, CheckpointSummary, Request, Response, WireError,
    PROTOCOL_VERSION,
};
use dataspread_workspace::{Session, Workspace, WorkspaceError};

/// Worker threads per connection (concurrent requests in flight for one
/// connection; more lets reads overlap commit waits).
const WORKERS_PER_CONN: usize = 4;

/// Decoded requests buffered between a connection's reader and its
/// workers; a full queue stops the reader, pushing backpressure into TCP.
const QUEUE_DEPTH: usize = 128;

/// Per-connection serving knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Max staged-but-not-yet-durable edits per sheet per connection
    /// before `StageEdit` answers [`codes::BUSY`].
    pub max_staged_per_conn: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_staged_per_conn: 64,
        }
    }
}

/// Server-side instrumentation, shared across every connection. All
/// handles point into the workspace's own [`MetricsRegistry`], so the
/// server's counters ride the same snapshot [`Request::Metrics`] serves
/// and the same text exposition [`metrics_exposition`] renders.
struct ServerObs {
    registry: Arc<MetricsRegistry>,
    /// Frame bytes received (length prefix included).
    bytes_in: Arc<Counter>,
    /// Frame bytes written (length prefix included).
    bytes_out: Arc<Counter>,
    /// Established connections currently being served.
    in_flight: Arc<Gauge>,
}

impl ServerObs {
    fn new(registry: Arc<MetricsRegistry>) -> Arc<ServerObs> {
        Arc::new(ServerObs {
            bytes_in: registry.counter("server_frame_bytes_in", &[]),
            bytes_out: registry.counter("server_frame_bytes_out", &[]),
            in_flight: registry.gauge("server_connections_in_flight", &[]),
            registry,
        })
    }

    /// Count one decoded request by kind (`server_requests{kind=...}`).
    fn note_request(&self, kind: &'static str) {
        self.registry
            .counter("server_requests", &[("kind", kind)])
            .inc();
    }

    /// Count one error response by wire code (`server_errors{code=...}`).
    fn note_error(&self, code: u16) {
        self.registry
            .counter("server_errors", &[("code", &code.to_string())])
            .inc();
    }

    /// Ring-buffer a connection lifecycle event (`conn_open` /
    /// `conn_close`), with the peer address as the outcome.
    fn conn_event(&self, kind: &str, peer: &str) {
        self.registry.push_event(Event {
            ts_ms: now_ms(),
            kind: kind.to_string(),
            op: "conn".to_string(),
            outcome: peer.to_string(),
            ..Event::default()
        });
    }

    /// Ring-buffer an admission-control rejection.
    fn busy_reject(&self, sheet: &str) {
        self.registry.push_event(Event {
            ts_ms: now_ms(),
            kind: "busy_reject".to_string(),
            sheet: sheet.to_string(),
            op: "stage_edit".to_string(),
            outcome: "busy".to_string(),
            ..Event::default()
        });
    }
}

/// The metric label for one request variant.
fn request_kind(req: &Request) -> &'static str {
    match req {
        Request::Hello { .. } => "hello",
        Request::Ping => "ping",
        Request::OpenSheet { .. } => "open_sheet",
        Request::FetchWindow { .. } => "fetch_window",
        Request::Value { .. } => "value",
        Request::ApplyEdit { .. } => "apply_edit",
        Request::StageEdit { .. } => "stage_edit",
        Request::AwaitCommit { .. } => "await_commit",
        Request::ImportRows { .. } => "import_rows",
        Request::Checkpoint { .. } => "checkpoint",
        Request::DurableTicket { .. } => "durable_ticket",
        Request::Metrics => "metrics",
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (use `127.0.0.1:0` in tests and read the real
    /// port back from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, join the accept loop, and sever every established
    /// connection (their clients observe EOF / reset — the same thing a
    /// crashed server shows them).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for conn in self
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Serve `workspace` on `addr` with default [`ServerConfig`].
pub fn serve(workspace: Workspace, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
    serve_with(workspace, addr, ServerConfig::default())
}

/// Serve `workspace` on `addr`; returns once the listener is bound.
pub fn serve_with(
    workspace: Workspace,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(Mutex::new(Vec::new()));
    let obs = ServerObs::new(workspace.metrics_registry());
    let accept = {
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::spawn(move || accept_loop(&listener, &workspace, &config, &stop, &conns, &obs))
    };
    Ok(ServerHandle {
        addr,
        stop,
        conns,
        accept: Some(accept),
    })
}

/// Render the Prometheus-style text exposition for `workspace`.
///
/// When `dir` names the workspace root on disk, every sheet directory
/// under it is opened first so recovered per-sheet state (WAL sizes,
/// image page I/O, health) is represented even if no
/// client has touched the sheet yet. This is the engine behind the
/// binary's `--metrics-dump` flag and is directly callable from tests
/// and operational tooling.
pub fn metrics_exposition(workspace: &Workspace, dir: Option<&std::path::Path>) -> String {
    let session = workspace.session();
    if let Some(dir) = dir {
        if let Ok(entries) = std::fs::read_dir(dir) {
            let mut names: Vec<String> = entries
                .filter_map(Result::ok)
                .filter(|e| e.path().is_dir())
                .filter_map(|e| e.file_name().into_string().ok())
                .collect();
            names.sort();
            for name in names {
                // A directory that is not a recoverable sheet is skipped;
                // the dump reports whatever does open.
                let _ = session.open_sheet(&name);
            }
        }
    }
    session.metrics().render_text()
}

fn accept_loop(
    listener: &TcpListener,
    workspace: &Workspace,
    config: &ServerConfig,
    stop: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<TcpStream>>>,
    obs: &Arc<ServerObs>,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        if let Ok(tracked) = stream.try_clone() {
            conns
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(tracked);
        }
        let session = workspace.session();
        let config = config.clone();
        let obs = Arc::clone(obs);
        std::thread::spawn(move || serve_conn(stream, session, &config, &obs));
    }
}

/// Staged-edit window for one connection: per sheet, the tickets handed
/// out by `StageEdit` that are not yet known durable. Held (briefly)
/// across the stage itself so the admission bound is exact.
#[derive(Default)]
struct StagedWindow {
    per_sheet: HashMap<String, VecDeque<u64>>,
}

impl StagedWindow {
    /// Drop tickets at or below the sheet's durable horizon.
    fn prune(&mut self, sheet: &str, durable: u64) {
        if let Some(q) = self.per_sheet.get_mut(sheet) {
            while q.front().is_some_and(|&t| t <= durable) {
                q.pop_front();
            }
        }
    }

    fn len(&self, sheet: &str) -> usize {
        self.per_sheet.get(sheet).map_or(0, VecDeque::len)
    }

    fn push(&mut self, sheet: &str, ticket: u64) {
        self.per_sheet
            .entry(sheet.to_string())
            .or_default()
            .push_back(ticket);
    }
}

fn protocol_err(detail: impl Into<String>) -> Response {
    Response::Err(WireError::new(codes::PROTOCOL, detail))
}

/// Serialize one response frame and write it under the shared writer
/// lock. Returns `false` once the peer is unreachable (writers then stop
/// trying).
fn send(writer: &Mutex<TcpStream>, obs: &ServerObs, req_id: u64, resp: &Response) -> bool {
    let payload = resp.encode(req_id);
    let mut frame = Vec::with_capacity(4 + payload.len());
    write_frame(&mut frame, &payload).expect("vec write is infallible");
    obs.bytes_out.add(frame.len() as u64);
    let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
    w.write_all(&frame).and_then(|()| w.flush()).is_ok()
}

fn serve_conn(stream: TcpStream, session: Session, config: &ServerConfig, obs: &Arc<ServerObs>) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let peer = stream
        .peer_addr()
        .map_or_else(|_| "unknown".to_string(), |a| a.to_string());
    obs.in_flight.add(1);
    obs.conn_event("conn_open", &peer);
    let writer = Arc::new(Mutex::new(write_half));
    let staged = Arc::new(Mutex::new(StagedWindow::default()));
    let (tx, rx) = mpsc::sync_channel::<(u64, Request)>(QUEUE_DEPTH);
    let rx = Arc::new(Mutex::new(rx));

    let mut workers = Vec::with_capacity(WORKERS_PER_CONN);
    for _ in 0..WORKERS_PER_CONN {
        let rx = Arc::clone(&rx);
        let writer = Arc::clone(&writer);
        let staged = Arc::clone(&staged);
        let session = session.clone();
        let max_staged = config.max_staged_per_conn;
        let obs = Arc::clone(obs);
        workers.push(std::thread::spawn(move || loop {
            let next = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
            let Ok((req_id, req)) = next else { return };
            let resp = dispatch(&session, &staged, max_staged, &obs, req);
            if let Response::Err(e) = &resp {
                obs.note_error(e.code);
            }
            if !send(&writer, &obs, req_id, &resp) {
                return;
            }
        }));
    }

    read_loop(&stream, &writer, &tx, obs);

    // Reader done (EOF, protocol error, or I/O failure): close the queue
    // so workers drain what's left and exit, then shut the socket down.
    drop(tx);
    for w in workers {
        let _ = w.join();
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    obs.in_flight.add(-1);
    obs.conn_event("conn_close", &peer);
}

/// Frame → request loop. Enforces the hello handshake (first request must
/// be a version-matching `Hello`) and answers malformed input with a
/// best-effort [`codes::PROTOCOL`] error before closing.
fn read_loop(
    stream: &TcpStream,
    writer: &Mutex<TcpStream>,
    tx: &mpsc::SyncSender<(u64, Request)>,
    obs: &ServerObs,
) {
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut greeted = false;
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => return, // clean EOF
            Err(e) => {
                // Unframeable stream (bad length, truncation): the
                // connection cannot resync, so report and close.
                obs.note_error(codes::PROTOCOL);
                send(writer, obs, 0, &protocol_err(format!("bad frame: {e}")));
                return;
            }
        };
        obs.bytes_in.add(4 + payload.len() as u64);
        let (req_id, req) = match Request::decode(&payload) {
            Ok(pair) => pair,
            Err(e) => {
                // The request id is the first 8 bytes; echo it if the
                // frame got that far so the client can fail the right
                // call.
                let req_id = payload
                    .get(..8)
                    .map_or(0, |b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
                obs.note_error(codes::PROTOCOL);
                send(
                    writer,
                    obs,
                    req_id,
                    &protocol_err(format!("bad request: {e}")),
                );
                return;
            }
        };
        obs.note_request(request_kind(&req));
        if !greeted {
            let Request::Hello { version } = req else {
                obs.note_error(codes::PROTOCOL);
                send(
                    writer,
                    obs,
                    req_id,
                    &protocol_err("first request must be Hello"),
                );
                return;
            };
            if version != PROTOCOL_VERSION {
                let detail = format!(
                    "protocol version mismatch: client {version}, server {PROTOCOL_VERSION}"
                );
                obs.note_error(codes::PROTOCOL);
                send(writer, obs, req_id, &protocol_err(detail));
                return;
            }
            greeted = true;
            if !send(
                writer,
                obs,
                req_id,
                &Response::Hello {
                    version: PROTOCOL_VERSION,
                },
            ) {
                return;
            }
            continue;
        }
        if tx.send((req_id, req)).is_err() {
            return; // workers gone (writer died)
        }
    }
}

/// Execute one request against the session. Never panics; every error
/// becomes a coded [`Response::Err`].
fn dispatch(
    session: &Session,
    staged: &Mutex<StagedWindow>,
    max_staged: usize,
    obs: &ServerObs,
    req: Request,
) -> Response {
    let result: Result<Response, WorkspaceError> = match req {
        // A repeated Hello after the handshake is harmless plumbing.
        Request::Hello { .. } => Ok(Response::Hello {
            version: PROTOCOL_VERSION,
        }),
        Request::Ping => Ok(Response::Pong),
        Request::OpenSheet { sheet } => session.open_sheet(&sheet).map(|()| Response::Ok),
        Request::FetchWindow { sheet, rect } => {
            session.fetch_window(&sheet, rect).map(Response::Window)
        }
        Request::Value { sheet, addr } => session.value(&sheet, addr).map(Response::Value),
        Request::ApplyEdit { sheet, edit } => {
            session.apply_edit(&sheet, edit).map(Response::Receipt)
        }
        Request::StageEdit { sheet, edit } => {
            let resp = stage_with_admission(session, staged, max_staged, &sheet, edit);
            if matches!(resp, Err(WorkspaceError::Busy(_))) {
                obs.busy_reject(&sheet);
            }
            resp
        }
        Request::AwaitCommit { sheet, ticket } => session.await_commit(&sheet, ticket).map(|()| {
            staged
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .prune(&sheet, ticket);
            Response::Ok
        }),
        Request::ImportRows {
            sheet,
            top_left,
            width,
            rows,
            block,
        } => session
            .import_block(&sheet, top_left, width, rows, block)
            .map(Response::Imported),
        Request::Checkpoint { sheet } => session.checkpoint(&sheet).map(|report| {
            Response::Checkpoint(report.map(|r| CheckpointSummary {
                pages_written: r.pages_written,
                regions_total: r.regions_total,
                regions_dirty: r.regions_dirty,
                regions_written: r.regions_written,
            }))
        }),
        Request::Metrics => Ok(Response::Metrics(session.metrics())),
        Request::DurableTicket { sheet } => {
            session
                .recovery_horizon(&sheet)
                .map(|(incarnation, horizon)| Response::Ticket {
                    incarnation,
                    horizon,
                })
        }
    };
    result.unwrap_or_else(|e| Response::Err(e.to_wire()))
}

/// `StageEdit` behind the per-connection window bound. The window lock is
/// held across the stage so the bound is exact; contention is per
/// connection only and the staged path never fsyncs inline (group mode
/// returns immediately).
fn stage_with_admission(
    session: &Session,
    staged: &Mutex<StagedWindow>,
    max_staged: usize,
    sheet: &str,
    edit: dataspread_proto::Edit,
) -> Result<Response, WorkspaceError> {
    let mut window = staged.lock().unwrap_or_else(|e| e.into_inner());
    window.prune(sheet, session.durable_ticket(sheet)?);
    if window.len(sheet) >= max_staged {
        return Err(WorkspaceError::Busy(format!(
            "{max_staged} staged edits in flight on sheet {sheet}; await_commit to drain"
        )));
    }
    let receipt = session.stage_edit(sheet, edit)?;
    if !receipt.durable {
        window.push(sheet, receipt.ticket);
    }
    Ok(Response::Receipt(receipt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_grid::{CellAddr, CellValue, Rect};
    use dataspread_proto::{Edit, SheetStats};

    /// Minimal raw-socket client for exercising the server without the
    /// client crate (which has its own suite and depends on this one).
    struct Raw {
        stream: TcpStream,
        next_id: u64,
    }

    impl Raw {
        fn connect(addr: SocketAddr) -> Raw {
            let stream = TcpStream::connect(addr).unwrap();
            let mut raw = Raw { stream, next_id: 1 };
            let resp = raw.call(&Request::Hello {
                version: PROTOCOL_VERSION,
            });
            assert_eq!(
                resp,
                Response::Hello {
                    version: PROTOCOL_VERSION
                }
            );
            raw
        }

        fn call(&mut self, req: &Request) -> Response {
            let id = self.next_id;
            self.next_id += 1;
            write_frame(&mut self.stream, &req.encode(id)).unwrap();
            self.stream.flush().unwrap();
            let payload = read_frame(&mut self.stream).unwrap().expect("response");
            let (got_id, resp) = Response::decode(&payload).unwrap();
            assert_eq!(got_id, id);
            resp
        }
    }

    fn serve_in_memory() -> ServerHandle {
        serve(Workspace::in_memory(), "127.0.0.1:0").unwrap()
    }

    #[test]
    fn end_to_end_over_tcp() {
        let handle = serve_in_memory();
        let mut c = Raw::connect(handle.local_addr());
        assert_eq!(c.call(&Request::Ping), Response::Pong);
        assert_eq!(
            c.call(&Request::OpenSheet { sheet: "s".into() }),
            Response::Ok
        );
        c.call(&Request::ApplyEdit {
            sheet: "s".into(),
            edit: Edit::Set {
                row: 0,
                col: 0,
                input: "21".into(),
            },
        });
        c.call(&Request::ApplyEdit {
            sheet: "s".into(),
            edit: Edit::Set {
                row: 0,
                col: 1,
                input: "=A1*2".into(),
            },
        });
        assert_eq!(
            c.call(&Request::Value {
                sheet: "s".into(),
                addr: CellAddr::new(0, 1),
            }),
            Response::Value(CellValue::Number(42.0))
        );
        let Response::Window(patch) = c.call(&Request::FetchWindow {
            sheet: "s".into(),
            rect: Rect::new(0, 0, 5, 5),
        }) else {
            panic!("expected window");
        };
        assert_eq!(patch.filled_count(), 2);
        handle.shutdown();
    }

    #[test]
    fn errors_cross_the_wire_with_codes() {
        let handle = serve_in_memory();
        let mut c = Raw::connect(handle.local_addr());
        let resp = c.call(&Request::FetchWindow {
            sheet: "missing".into(),
            rect: Rect::new(0, 0, 1, 1),
        });
        let Response::Err(e) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(e.code, codes::NO_SUCH_SHEET);
        assert_eq!(e.detail, "missing");
        // The connection survives a request-level error.
        assert_eq!(c.call(&Request::Ping), Response::Pong);
        handle.shutdown();
    }

    #[test]
    fn hello_is_mandatory_and_version_checked() {
        let handle = serve_in_memory();

        // No hello: first real request is rejected and the connection
        // closes.
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        write_frame(&mut s, &Request::Ping.encode(5)).unwrap();
        let payload = read_frame(&mut s).unwrap().unwrap();
        let (id, resp) = Response::decode(&payload).unwrap();
        assert_eq!(id, 5);
        let Response::Err(e) = resp else {
            panic!("expected protocol error");
        };
        assert_eq!(e.code, codes::PROTOCOL);
        assert!(read_frame(&mut s).unwrap().is_none(), "server closed");

        // Wrong version, the previous one included: rejected.
        for version in [999, 4] {
            let mut s = TcpStream::connect(handle.local_addr()).unwrap();
            write_frame(&mut s, &Request::Hello { version }.encode(1)).unwrap();
            let payload = read_frame(&mut s).unwrap().unwrap();
            let (_, resp) = Response::decode(&payload).unwrap();
            let Response::Err(e) = resp else {
                panic!("expected protocol error for version {version}");
            };
            assert_eq!(e.code, codes::PROTOCOL);
        }
        handle.shutdown();
    }

    #[test]
    fn stage_admission_bounds_and_prunes_the_window() {
        let dir = std::env::temp_dir().join(format!("ds-server-adm-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ws = Workspace::open(&dir).unwrap();
        let session = ws.session();
        session.open_sheet("s").unwrap();

        // Fill the window with tickets far beyond any durable horizon —
        // as if 4 staged edits were in flight with nobody awaiting them.
        let staged = Mutex::new(StagedWindow::default());
        for i in 0..4u64 {
            staged.lock().unwrap().push("s", u64::MAX - 4 + i);
        }
        let err = stage_with_admission(
            &session,
            &staged,
            4,
            "s",
            Edit::Set {
                row: 0,
                col: 0,
                input: "1".into(),
            },
        )
        .unwrap_err();
        assert!(matches!(err, WorkspaceError::Busy(_)), "got {err:?}");
        assert_eq!(err.to_wire().code, codes::BUSY);

        // Once the horizon passes the staged tickets, pruning reopens
        // the window and staging proceeds.
        staged.lock().unwrap().prune("s", u64::MAX);
        let resp = stage_with_admission(
            &session,
            &staged,
            4,
            "s",
            Edit::Set {
                row: 0,
                col: 0,
                input: "1".into(),
            },
        )
        .unwrap();
        assert!(matches!(resp, Response::Receipt(_)));
        // Other sheets have their own windows: a full window on "s"
        // never throttles "t".
        session.open_sheet("t").unwrap();
        for i in 0..4u64 {
            staged.lock().unwrap().push("s", u64::MAX - 4 + i);
        }
        stage_with_admission(
            &session,
            &staged,
            4,
            "t",
            Edit::Set {
                row: 0,
                col: 0,
                input: "2".into(),
            },
        )
        .unwrap();
        drop(ws);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn busy_rejection_crosses_the_wire_and_connection_survives() {
        // A zero-size window rejects every StageEdit deterministically —
        // the end-to-end proof of the Busy path over TCP.
        let handle = serve_with(
            Workspace::in_memory(),
            "127.0.0.1:0",
            ServerConfig {
                max_staged_per_conn: 0,
            },
        )
        .unwrap();
        let mut c = Raw::connect(handle.local_addr());
        assert_eq!(
            c.call(&Request::OpenSheet { sheet: "s".into() }),
            Response::Ok
        );
        let resp = c.call(&Request::StageEdit {
            sheet: "s".into(),
            edit: Edit::Set {
                row: 0,
                col: 0,
                input: "1".into(),
            },
        });
        let Response::Err(e) = resp else {
            panic!("expected Busy, got {resp:?}");
        };
        assert_eq!(e.code, codes::BUSY);
        // Busy is a request-level rejection: the connection stays usable
        // and ApplyEdit (self-draining) still goes through.
        let resp = c.call(&Request::ApplyEdit {
            sheet: "s".into(),
            edit: Edit::Set {
                row: 0,
                col: 0,
                input: "7".into(),
            },
        });
        assert!(matches!(resp, Response::Receipt(_)), "got {resp:?}");
        handle.shutdown();
    }

    #[test]
    fn staged_pipeline_drains_with_await_commit() {
        let dir = std::env::temp_dir().join(format!("ds-server-bp-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let ws = Workspace::open(&dir).unwrap();
        let handle = serve_with(
            ws,
            "127.0.0.1:0",
            ServerConfig {
                max_staged_per_conn: 8,
            },
        )
        .unwrap();
        let mut c = Raw::connect(handle.local_addr());
        assert_eq!(
            c.call(&Request::OpenSheet { sheet: "s".into() }),
            Response::Ok
        );
        // Stage a long run with periodic drains; every response must be
        // a receipt or a clean Busy (drain + retry), never anything else.
        let mut last_ticket = 0;
        let mut staged_ok = 0u32;
        for i in 0..64u32 {
            let edit = Edit::Set {
                row: i,
                col: 0,
                input: i.to_string(),
            };
            match c.call(&Request::StageEdit {
                sheet: "s".into(),
                edit: edit.clone(),
            }) {
                Response::Receipt(r) => {
                    last_ticket = last_ticket.max(r.ticket);
                    staged_ok += 1;
                }
                Response::Err(e) => {
                    assert_eq!(e.code, codes::BUSY);
                    assert_eq!(
                        c.call(&Request::AwaitCommit {
                            sheet: "s".into(),
                            ticket: last_ticket,
                        }),
                        Response::Ok
                    );
                    let retried = c.call(&Request::StageEdit {
                        sheet: "s".into(),
                        edit,
                    });
                    assert!(matches!(retried, Response::Receipt(_)), "got {retried:?}");
                    staged_ok += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(staged_ok, 64);
        assert_eq!(
            c.call(&Request::AwaitCommit {
                sheet: "s".into(),
                ticket: last_ticket,
            }),
            Response::Ok
        );
        let Response::Metrics(snap) = c.call(&Request::Metrics) else {
            panic!("expected metrics");
        };
        let stats = SheetStats::from_snapshot(&snap, "s").expect("sheet s is open");
        assert_eq!(stats.filled_cells, 64);
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn many_sessions_multiplex_one_connection() {
        let handle = serve_in_memory();
        let mut c = Raw::connect(handle.local_addr());
        for sheet in ["a", "b", "c"] {
            assert_eq!(
                c.call(&Request::OpenSheet {
                    sheet: sheet.into()
                }),
                Response::Ok
            );
        }
        // Interleave requests across sheets on one socket; ids demux.
        for (i, sheet) in ["a", "b", "c", "a", "b", "c"].iter().enumerate() {
            c.call(&Request::ApplyEdit {
                sheet: (*sheet).to_string(),
                edit: Edit::Set {
                    row: i as u32,
                    col: 0,
                    input: i.to_string(),
                },
            });
        }
        let Response::Metrics(snap) = c.call(&Request::Metrics) else {
            panic!("expected metrics");
        };
        for sheet in ["a", "b", "c"] {
            let stats = SheetStats::from_snapshot(&snap, sheet).expect("sheet is open");
            assert_eq!(stats.filled_cells, 2, "sheet {sheet}");
        }
        handle.shutdown();
    }
}
