//! Blocking TCP client for the DataSpread server, with reconnection.
//!
//! [`Client::connect`] dials the server, runs the version handshake, and
//! starts a demultiplexing reader thread; [`Client::session`] then hands
//! out cheap [`RemoteSession`] handles whose methods mirror the in-process
//! `dataspread_workspace::Session` API one-to-one — same names, same
//! request/response types ([`Edit`], [`EditReceipt`], [`WindowPatch`]).
//! Every call fails with a [`WireError`]: for an error the server
//! reported, it equals `WorkspaceError::to_wire()` of the same call made
//! in-process; the client's own transport failures carry [`codes::IO`],
//! and handshake or unexpected-response failures [`codes::PROTOCOL`].
//! The client links only the grid and wire crates, never the storage
//! engine.
//!
//! Many sessions share one connection: every request carries a fresh id,
//! the reader thread routes each response frame to the caller parked on
//! that id, and callers on other sessions are never blocked behind a slow
//! request (e.g. an `await_commit` parked on a commit ticket).
//!
//! # Reconnection and the re-stage contract
//!
//! When the connection dies, the next call transparently redials (capped
//! exponential backoff, [`ClientConfig`]) and *reconciles*: every sheet
//! this client opened is re-opened, and its restart pair `(incarnation,
//! horizon)` is queried. An unchanged incarnation means the server never
//! restarted — everything staged is still held server-side and re-sending
//! would double-apply, so nothing is re-sent. A changed incarnation means
//! a restart: staged edits with tickets at or below the durable horizon
//! survived in the checkpoint image, and the rest are re-staged in order
//! under fresh tickets. Callers keep awaiting the tickets they originally
//! received; the client re-points them at their re-staged successors.
//!
//! What this guarantees: **an edit whose `stage_edit` receipt was
//! returned is never silently lost to a server restart** — it either
//! rides the recovered WAL/image or is re-staged on reconnect, and its
//! `await_commit` keeps meaning "durable" afterwards. What it does not
//! guarantee: a call that *errored* (connection died before the receipt
//! arrived) is in an unknown state — it is reported as an error, never
//! retried, and never re-staged; the caller decides. Likewise reads,
//! pings, and awaits are retried transparently (idempotent), while
//! `apply_edit` / `import_rows` / `checkpoint` surface transport errors
//! (the server may or may not have applied them).
//!
//! One honest caveat: reconciliation compares against the *latest*
//! incarnation. A client that stages edits, then makes no call at all
//! across **two or more** server restarts, may mis-classify tickets lost
//! in the first restart. In practice a client with staged-unacknowledged
//! edits is awaiting them, reconnects on the first restart, and
//! re-numbers its entries then.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dataspread_grid::{codec, CellAddr, CellValue, Rect};
use dataspread_proto::{
    codes, read_frame, write_frame, CheckpointSummary, Edit, EditReceipt, RegistrySnapshot,
    Request, Response, SheetStats, WindowPatch, WireError, PROTOCOL_VERSION,
};

fn io_err(context: &str, e: &std::io::Error) -> WireError {
    WireError::new(codes::IO, format!("{context}: {e}"))
}

fn protocol_err(detail: String) -> WireError {
    WireError::new(codes::PROTOCOL, detail)
}

/// Tunables for dialing and redialing the server.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Per-address TCP connect timeout.
    pub connect_timeout: Duration,
    /// How long a call waits for its response frame before giving up
    /// (`None` = wait forever). A timed-out call fails; the connection
    /// stays up (a late response is dropped by request id).
    pub call_timeout: Option<Duration>,
    /// Redial attempts after a dead connection before a call gives up
    /// (0 disables reconnection entirely).
    pub reconnect_retries: u32,
    /// Backoff before redial attempt *n* is `backoff_base × 2^(n-1)`,
    /// capped at `backoff_cap`. The first attempt is immediate.
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            call_timeout: Some(Duration::from_secs(30)),
            reconnect_retries: 5,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
        }
    }
}

/// Pending-call table: request id → slot the reader fills.
#[derive(Default)]
struct Pending {
    slots: HashMap<u64, Option<Response>>,
    /// Set once the connection dies; every pending and future call fails
    /// with a clone of this.
    dead: Option<WireError>,
}

/// Why a call failed, below the application level.
enum CallError {
    /// The connection is unusable (send failed, stream closed, bad
    /// frame). Redialing may help.
    Transport(WireError),
    /// The response did not arrive within the call timeout. The
    /// connection may be fine; redialing is not warranted.
    Timeout(WireError),
}

impl CallError {
    fn into_error(self) -> WireError {
        match self {
            CallError::Transport(e) | CallError::Timeout(e) => e,
        }
    }
}

/// One TCP connection: shared writer, demultiplexing reader thread.
struct Conn {
    writer: Mutex<TcpStream>,
    /// Kept for shutdown (unblocks the reader thread).
    stream: TcpStream,
    pending: Mutex<Pending>,
    arrived: Condvar,
    next_id: AtomicU64,
}

impl Conn {
    fn dial(addrs: &[SocketAddr], timeout: Duration) -> Result<Arc<Conn>, WireError> {
        let mut last: Option<std::io::Error> = None;
        let mut stream = None;
        for addr in addrs {
            match TcpStream::connect_timeout(addr, timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last = Some(e),
            }
        }
        let Some(stream) = stream else {
            let e = last.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no addresses")
            });
            return Err(io_err("connect", &e));
        };
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(|e| io_err("clone stream", &e))?;
        let reader = stream.try_clone().map_err(|e| io_err("clone stream", &e))?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(writer),
            stream,
            pending: Mutex::new(Pending::default()),
            arrived: Condvar::new(),
            next_id: AtomicU64::new(1),
        });
        {
            let conn = Arc::clone(&conn);
            std::thread::spawn(move || read_loop(&conn, &reader));
        }
        Ok(conn)
    }

    fn is_dead(&self) -> bool {
        self.pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .dead
            .is_some()
    }

    fn fail_all(&self, err: WireError) {
        let mut p = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        if p.dead.is_none() {
            p.dead = Some(err);
        }
        self.arrived.notify_all();
    }

    fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }

    /// Send `req` and park until its response arrives, the connection
    /// dies, or `timeout` elapses.
    fn call(&self, req: &Request, timeout: Option<Duration>) -> Result<Response, CallError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        {
            let mut p = self.pending.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(dead) = &p.dead {
                return Err(CallError::Transport(dead.clone()));
            }
            p.slots.insert(id, None);
        }
        let send_result = {
            let payload = req.encode(id);
            let mut frame = Vec::with_capacity(4 + payload.len());
            write_frame(&mut frame, &payload).expect("vec write is infallible");
            let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            w.write_all(&frame).and_then(|()| w.flush())
        };
        if let Err(e) = send_result {
            self.pending
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .slots
                .remove(&id);
            return Err(CallError::Transport(io_err("send", &e)));
        }
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut p = self.pending.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(Some(_)) = p.slots.get(&id) {
                return Ok(p.slots.remove(&id).flatten().expect("checked above"));
            }
            if let Some(dead) = &p.dead {
                let dead = dead.clone();
                p.slots.remove(&id);
                return Err(CallError::Transport(dead));
            }
            match deadline {
                None => p = self.arrived.wait(p).unwrap_or_else(|e| e.into_inner()),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        p.slots.remove(&id);
                        return Err(CallError::Timeout(WireError::new(
                            codes::IO,
                            format!(
                                "timed out after {:?} waiting for a response",
                                timeout.expect("deadline implies timeout")
                            ),
                        )));
                    }
                    let (guard, _) = self
                        .arrived
                        .wait_timeout(p, deadline - now)
                        .unwrap_or_else(|e| e.into_inner());
                    p = guard;
                }
            }
        }
    }
}

/// Reader thread: route each response frame to the caller parked on its
/// request id. Exits (failing all pending calls) when the stream ends.
fn read_loop(conn: &Conn, stream: &TcpStream) {
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(e) => {
            conn.fail_all(io_err("clone stream", &e));
            return;
        }
    });
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) => {
                conn.fail_all(WireError::new(codes::IO, "connection closed by server"));
                return;
            }
            Err(e) => {
                conn.fail_all(io_err("read", &e));
                return;
            }
        };
        let (req_id, resp) = match Response::decode(&payload) {
            Ok(pair) => pair,
            Err(e) => {
                conn.fail_all(protocol_err(format!("bad response frame: {e}")));
                return;
            }
        };
        let mut p = conn.pending.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = p.slots.get_mut(&req_id) {
            *slot = Some(resp);
            conn.arrived.notify_all();
        }
        // Unknown id: a response for a caller that already gave up —
        // drop it.
    }
}

/// What the client remembers about one sheet, for reconciliation.
#[derive(Default)]
struct SheetState {
    /// The server-side incarnation this client last reconciled against
    /// (`None` until the first `DurableTicket` answer).
    incarnation: Option<u64>,
    /// The durable horizon reported alongside that incarnation.
    horizon: u64,
    /// Staged edits whose receipts were returned but whose durability was
    /// not yet acknowledged, ascending by *current* ticket. Pruned by
    /// successful `await_commit`s; re-staged (with fresh tickets) after a
    /// detected restart.
    staged: Vec<(u64, Edit)>,
    /// Caller-held ticket → current ticket, for entries re-staged under
    /// a new number. Entries are dropped once awaited.
    remap: HashMap<u64, u64>,
}

struct ClientState {
    conn: Option<Arc<Conn>>,
    sheets: HashMap<String, SheetState>,
}

struct Shared {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    state: Mutex<ClientState>,
}

impl Shared {
    /// The current connection, redialing (with backoff) and reconciling
    /// when it is dead or absent. Holds the state lock across the redial
    /// so exactly one caller pays for it; the rest queue behind the lock
    /// and find a live connection.
    fn live_conn(&self) -> Result<Arc<Conn>, WireError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(conn) = &st.conn {
            if !conn.is_dead() {
                return Ok(Arc::clone(conn));
            }
            conn.shutdown();
            st.conn = None;
        }
        let mut last = WireError::new(codes::IO, "not connected");
        for attempt in 0..=self.config.reconnect_retries {
            if attempt > 0 {
                let exp = self
                    .config
                    .backoff_base
                    .saturating_mul(1u32 << (attempt - 1).min(16));
                std::thread::sleep(exp.min(self.config.backoff_cap));
            }
            match self.establish(&mut st) {
                Ok(conn) => {
                    st.conn = Some(Arc::clone(&conn));
                    return Ok(conn);
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Dial, handshake, reconcile. On any failure the half-built
    /// connection is torn down and the error returned for the redial
    /// loop to back off on.
    fn establish(&self, st: &mut ClientState) -> Result<Arc<Conn>, WireError> {
        let conn = Conn::dial(&self.addrs, self.config.connect_timeout)?;
        let result = self.handshake(&conn).and_then(|()| {
            let sheets: Vec<String> = st.sheets.keys().cloned().collect();
            for name in sheets {
                self.reconcile_sheet(&conn, st, &name)?;
            }
            Ok(())
        });
        match result {
            Ok(()) => Ok(conn),
            Err(e) => {
                conn.shutdown();
                Err(e)
            }
        }
    }

    fn handshake(&self, conn: &Conn) -> Result<(), WireError> {
        let req = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        match conn
            .call(&req, self.config.call_timeout)
            .map_err(CallError::into_error)?
        {
            Response::Hello { version } if version == PROTOCOL_VERSION => Ok(()),
            Response::Hello { version } => Err(protocol_err(format!(
                "server speaks protocol {version}, client speaks {PROTOCOL_VERSION}"
            ))),
            other => Err(unexpected("Hello", other)),
        }
    }

    /// Re-open `name` on a fresh connection and re-stage what the
    /// restart (if there was one) lost.
    fn reconcile_sheet(
        &self,
        conn: &Conn,
        st: &mut ClientState,
        name: &str,
    ) -> Result<(), WireError> {
        let timeout = self.config.call_timeout;
        match conn
            .call(
                &Request::OpenSheet {
                    sheet: name.to_string(),
                },
                timeout,
            )
            .map_err(CallError::into_error)?
        {
            Response::Ok => {}
            other => return Err(unexpected("OpenSheet", other)),
        }
        let (incarnation, horizon) = match conn
            .call(
                &Request::DurableTicket {
                    sheet: name.to_string(),
                },
                timeout,
            )
            .map_err(CallError::into_error)?
        {
            Response::Ticket {
                incarnation,
                horizon,
            } => (incarnation, horizon),
            other => return Err(unexpected("DurableTicket", other)),
        };
        let sheet = st.sheets.entry(name.to_string()).or_default();
        if sheet.incarnation == Some(incarnation) {
            return Ok(()); // same server process: nothing was lost
        }
        // Restart detected. Entries at or below the horizon rode the
        // recovered image and are dropped here — their old ticket numbers
        // stay awaitable, because the sequence continues across restarts
        // and they are already durable. Entries above it were lost —
        // re-stage them in order under fresh tickets.
        let lost: Vec<(u64, Edit)> = sheet
            .staged
            .iter()
            .filter(|(t, _)| *t > horizon)
            .cloned()
            .collect();
        let mut renumbered: HashMap<u64, u64> = HashMap::new();
        let mut staged: Vec<(u64, Edit)> = Vec::new();
        for (old_ticket, edit) in lost {
            let receipt = match conn
                .call(
                    &Request::StageEdit {
                        sheet: name.to_string(),
                        edit: edit.clone(),
                    },
                    timeout,
                )
                .map_err(CallError::into_error)?
            {
                Response::Receipt(r) => r,
                other => return Err(unexpected("StageEdit", other)),
            };
            renumbered.insert(old_ticket, receipt.ticket);
            if !receipt.durable {
                staged.push((receipt.ticket, edit));
            }
        }
        let sheet = st.sheets.get_mut(name).expect("inserted above");
        // Re-point caller-held tickets whose current number was just
        // renumbered, then record the fresh old→new pairs.
        for current in sheet.remap.values_mut() {
            if let Some(n) = renumbered.get(current) {
                *current = *n;
            }
        }
        sheet.remap.extend(renumbered);
        sheet.staged = staged;
        sheet.incarnation = Some(incarnation);
        sheet.horizon = horizon;
        Ok(())
    }

    /// Drop `conn` as the current connection (it proved dead).
    fn retire(&self, conn: &Arc<Conn>) {
        conn.shutdown();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(current) = &st.conn {
            if Arc::ptr_eq(current, conn) {
                st.conn = None;
            }
        }
    }

    /// One attempt: no transparent retry. Transport errors retire the
    /// connection (the next call redials) and surface to the caller —
    /// the request may or may not have been applied server-side.
    fn call_once(&self, req: &Request) -> Result<Response, WireError> {
        let conn = self.live_conn()?;
        match conn.call(req, self.config.call_timeout) {
            Ok(resp) => Ok(resp),
            Err(CallError::Timeout(e)) => Err(e),
            Err(CallError::Transport(e)) => {
                self.retire(&conn);
                Err(e)
            }
        }
    }

    /// Idempotent call: transparently redial and retry on transport
    /// errors, up to the configured attempt budget.
    fn call_retry(&self, req: &Request) -> Result<Response, WireError> {
        let mut last = WireError::new(codes::IO, "not connected");
        for _ in 0..=self.config.reconnect_retries {
            let conn = self.live_conn()?;
            match conn.call(req, self.config.call_timeout) {
                Ok(resp) => return Ok(resp),
                Err(CallError::Timeout(e)) => return Err(e),
                Err(CallError::Transport(e)) => {
                    self.retire(&conn);
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// Ensure `sheet` is tracked, learning its restart baseline on first
    /// contact (without a baseline a later reconnect could not tell a
    /// restart from a blip).
    fn ensure_sheet(&self, sheet: &str) -> Result<(), WireError> {
        {
            let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
            if st
                .sheets
                .get(sheet)
                .is_some_and(|s| s.incarnation.is_some())
            {
                return Ok(());
            }
        }
        let (incarnation, horizon) = match self.call_retry(&Request::DurableTicket {
            sheet: sheet.to_string(),
        })? {
            Response::Ticket {
                incarnation,
                horizon,
            } => (incarnation, horizon),
            other => return Err(unexpected("DurableTicket", other)),
        };
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let entry = st.sheets.entry(sheet.to_string()).or_default();
        if entry.incarnation.is_none() {
            entry.incarnation = Some(incarnation);
            entry.horizon = horizon;
        }
        Ok(())
    }
}

/// A connection to a DataSpread server. Cheap to clone is the *session*
/// ([`Client::session`]); the client owns the socket and reader thread
/// and closes both on drop.
pub struct Client {
    shared: Arc<Shared>,
}

impl Client {
    /// Dial `addr` and run the `Hello` version handshake with default
    /// [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, WireError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// [`Client::connect`] with explicit timeouts and redial policy.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<Client, WireError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| io_err("resolve", &e))?
            .collect();
        if addrs.is_empty() {
            return Err(WireError::new(codes::IO, "address resolved to nothing"));
        }
        let shared = Arc::new(Shared {
            addrs,
            config,
            state: Mutex::new(ClientState {
                conn: None,
                sheets: HashMap::new(),
            }),
        });
        // Fail fast on an unreachable or incompatible server: the first
        // connection (handshake included) is established eagerly.
        shared.live_conn()?;
        Ok(Client { shared })
    }

    /// A new session over this connection — the network twin of
    /// `Workspace::session()`. Sessions are cheap clonable handles; all
    /// of them multiplex over the one socket.
    pub fn session(&self) -> RemoteSession {
        RemoteSession {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Round-trip a ping (liveness check; redials a dead connection).
    pub fn ping(&self) -> Result<(), WireError> {
        match self.shared.call_retry(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Ping", other)),
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Unblocks the reader thread, which then fails any stragglers.
        let st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(conn) = &st.conn {
            conn.shutdown();
        }
    }
}

/// The error a call returns for a response it did not expect: the
/// server's own error as received, or a protocol error naming the stray.
fn unexpected(what: &str, resp: Response) -> WireError {
    match resp {
        Response::Err(e) => e,
        other => protocol_err(format!("unexpected response to {what}: {other:?}")),
    }
}

/// The session API over the wire, method-for-method compatible with
/// `dataspread_workspace::Session`. Outlives slow siblings: each call
/// parks only on its own request id.
#[derive(Clone)]
pub struct RemoteSession {
    shared: Arc<Shared>,
}

impl RemoteSession {
    pub fn open_sheet(&self, sheet: &str) -> Result<(), WireError> {
        match self.shared.call_retry(&Request::OpenSheet {
            sheet: sheet.to_string(),
        })? {
            Response::Ok => {}
            other => return Err(unexpected("OpenSheet", other)),
        }
        // Track the sheet (and its restart baseline) so a reconnect
        // re-opens it and can reconcile staged edits.
        self.shared.ensure_sheet(sheet)
    }

    pub fn fetch_window(&self, sheet: &str, rect: Rect) -> Result<WindowPatch, WireError> {
        match self.shared.call_retry(&Request::FetchWindow {
            sheet: sheet.to_string(),
            rect,
        })? {
            Response::Window(patch) => Ok(patch),
            other => Err(unexpected("FetchWindow", other)),
        }
    }

    pub fn value(&self, sheet: &str, addr: CellAddr) -> Result<CellValue, WireError> {
        match self.shared.call_retry(&Request::Value {
            sheet: sheet.to_string(),
            addr,
        })? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected("Value", other)),
        }
    }

    /// Apply and durably commit one edit. Not retried on transport
    /// errors: a died-mid-call edit may or may not have been applied,
    /// and the error says exactly that.
    pub fn apply_edit(&self, sheet: &str, edit: Edit) -> Result<EditReceipt, WireError> {
        match self.shared.call_once(&Request::ApplyEdit {
            sheet: sheet.to_string(),
            edit,
        })? {
            Response::Receipt(r) => Ok(r),
            other => Err(unexpected("ApplyEdit", other)),
        }
    }

    /// Stage an edit without waiting for its fsync; pair with
    /// [`RemoteSession::await_commit`]. The server bounds the number of
    /// staged-but-unacknowledged edits per connection — a
    /// [`codes::BUSY`] error means "await, then retry".
    ///
    /// A returned receipt is the client's re-stage obligation: if the
    /// server restarts before the edit is durable, the next reconnect
    /// re-sends it, and the receipt's ticket keeps working with
    /// [`RemoteSession::await_commit`]. An *errored* stage call carries
    /// no such promise — it is never re-sent.
    pub fn stage_edit(&self, sheet: &str, edit: Edit) -> Result<EditReceipt, WireError> {
        self.shared.ensure_sheet(sheet)?;
        // Snapshot the incarnation the stage will run against, to detect
        // the (rare) reconnect-plus-restart racing between the server's
        // reply and our bookkeeping below.
        let before = {
            let st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.sheets.get(sheet).and_then(|s| s.incarnation)
        };
        let receipt = match self.shared.call_once(&Request::StageEdit {
            sheet: sheet.to_string(),
            edit: edit.clone(),
        })? {
            Response::Receipt(r) => r,
            other => return Err(unexpected("StageEdit", other)),
        };
        if receipt.durable {
            return Ok(receipt); // per-op commit mode: already fsynced
        }
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let entry = st.sheets.entry(sheet.to_string()).or_default();
        if entry.incarnation == before {
            // Normal path: same incarnation as when we staged.
            let pos = entry.staged.partition_point(|(t, _)| *t < receipt.ticket);
            entry.staged.insert(pos, (receipt.ticket, edit));
            return Ok(receipt);
        }
        // A reconcile ran between the receipt and this bookkeeping. If
        // the restart kept our edit (ticket at or below the new horizon)
        // the receipt stands as durable state; otherwise re-stage it now
        // on the current connection and re-point the caller's ticket.
        if receipt.ticket <= entry.horizon {
            return Ok(receipt);
        }
        drop(st);
        let second = match self.shared.call_once(&Request::StageEdit {
            sheet: sheet.to_string(),
            edit: edit.clone(),
        })? {
            Response::Receipt(r) => r,
            other => return Err(unexpected("StageEdit", other)),
        };
        let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
        let entry = st.sheets.entry(sheet.to_string()).or_default();
        if !second.durable {
            let pos = entry.staged.partition_point(|(t, _)| *t < second.ticket);
            entry.staged.insert(pos, (second.ticket, edit));
            entry.remap.insert(receipt.ticket, second.ticket);
        }
        Ok(receipt)
    }

    /// Block until `ticket` (from [`RemoteSession::stage_edit`]) is
    /// crash-durable. Transparently redials and re-resolves the ticket
    /// through any restart re-staging, so the receipt a caller holds
    /// keeps meaning the same edit.
    pub fn await_commit(&self, sheet: &str, ticket: u64) -> Result<(), WireError> {
        let mut last = WireError::new(codes::IO, "not connected");
        for _ in 0..=self.shared.config.reconnect_retries {
            // Resolve *after* live_conn: a reconnect reconciles first,
            // so the remap is current for the connection we call on.
            let conn = self.shared.live_conn()?;
            let resolved = {
                let st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
                st.sheets
                    .get(sheet)
                    .and_then(|s| s.remap.get(&ticket).copied())
                    .unwrap_or(ticket)
            };
            let req = Request::AwaitCommit {
                sheet: sheet.to_string(),
                ticket: resolved,
            };
            match conn.call(&req, self.shared.config.call_timeout) {
                Ok(Response::Ok) => {
                    let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
                    if let Some(entry) = st.sheets.get_mut(sheet) {
                        entry.staged.retain(|(t, _)| *t > resolved);
                        entry.remap.remove(&ticket);
                    }
                    return Ok(());
                }
                Ok(other) => return Err(unexpected("AwaitCommit", other)),
                Err(CallError::Timeout(e)) => return Err(e),
                Err(CallError::Transport(e)) => {
                    self.shared.retire(&conn);
                    last = e;
                }
            }
        }
        Err(last)
    }

    /// Bulk-import rows, sent as one cell block (each row's first `width`
    /// values). Not retried on transport errors (see
    /// [`RemoteSession::apply_edit`]).
    pub fn import_rows(
        &self,
        sheet: &str,
        top_left: CellAddr,
        width: u32,
        rows: Vec<Vec<CellValue>>,
    ) -> Result<Rect, WireError> {
        match self.shared.call_once(&Request::ImportRows {
            sheet: sheet.to_string(),
            top_left,
            width,
            rows: rows.len() as u32,
            block: codec::encode_block(width, &rows),
        })? {
            Response::Imported(rect) => Ok(rect),
            other => Err(unexpected("ImportRows", other)),
        }
    }

    pub fn checkpoint(&self, sheet: &str) -> Result<Option<CheckpointSummary>, WireError> {
        match self.shared.call_once(&Request::Checkpoint {
            sheet: sheet.to_string(),
        })? {
            Response::Checkpoint(summary) => Ok(summary),
            other => Err(unexpected("Checkpoint", other)),
        }
    }

    /// The sheet's counters and health: its projection of
    /// [`RemoteSession::metrics`] ([`SheetStats::from_snapshot`]), equal to
    /// the in-process `Session::stats`. A sheet the server has not opened
    /// (or is still recovering) is refused with [`codes::NO_SUCH_SHEET`].
    pub fn stats(&self, sheet: &str) -> Result<SheetStats, WireError> {
        SheetStats::from_snapshot(&self.metrics()?, sheet)
            .ok_or_else(|| WireError::new(codes::NO_SUCH_SHEET, sheet))
    }

    /// A point-in-time [`RegistrySnapshot`] of the server's whole metrics
    /// registry: counters, gauges, latency histograms, the slow-op event
    /// ring, and per-sheet health. Idempotent, so transparently retried
    /// across reconnects. Render it with
    /// [`RegistrySnapshot::render_text`] for a Prometheus-style text
    /// exposition.
    pub fn metrics(&self) -> Result<RegistrySnapshot, WireError> {
        match self.shared.call_retry(&Request::Metrics)? {
            Response::Metrics(snap) => Ok(snap),
            other => Err(unexpected("Metrics", other)),
        }
    }

    /// The sheet's restart pair `(incarnation, horizon)` as the server
    /// reports it right now (see the crate docs for semantics).
    pub fn durable_ticket(&self, sheet: &str) -> Result<(u64, u64), WireError> {
        match self.shared.call_retry(&Request::DurableTicket {
            sheet: sheet.to_string(),
        })? {
            Response::Ticket {
                incarnation,
                horizon,
            } => Ok((incarnation, horizon)),
            other => Err(unexpected("DurableTicket", other)),
        }
    }
}
