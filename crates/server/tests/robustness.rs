//! Protocol robustness: the server must survive every malformed or
//! hostile byte stream a client can produce — answering with a coded
//! protocol error where possible, closing the connection, and never
//! taking the process (or other connections) down with it.

use std::io::Write;
use std::net::TcpStream;

use dataspread_proto::{codes, read_frame, write_frame, Request, Response, PROTOCOL_VERSION};
use dataspread_server::{serve, ServerHandle};
use dataspread_workspace::{Edit, Workspace};

fn hello(stream: &mut TcpStream) {
    write_frame(
        stream,
        &Request::Hello {
            version: PROTOCOL_VERSION,
        }
        .encode(1),
    )
    .unwrap();
    let payload = read_frame(stream).unwrap().unwrap();
    let (_, resp) = Response::decode(&payload).unwrap();
    assert!(matches!(resp, Response::Hello { .. }));
}

/// The server is still healthy: a fresh, well-behaved connection works.
fn assert_server_alive(handle: &ServerHandle) {
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    hello(&mut s);
    write_frame(&mut s, &Request::Ping.encode(2)).unwrap();
    let payload = read_frame(&mut s).unwrap().unwrap();
    assert_eq!(Response::decode(&payload).unwrap().1, Response::Pong);
}

#[test]
fn garbage_frame_gets_protocol_error_and_close() {
    let handle = serve(Workspace::in_memory(), "127.0.0.1:0").unwrap();
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    hello(&mut s);
    // A validly-framed payload of garbage: req id 77, nonsense tag.
    let mut payload = 77u64.to_le_bytes().to_vec();
    payload.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
    write_frame(&mut s, &payload).unwrap();
    let resp = read_frame(&mut s).unwrap().unwrap();
    let (id, resp) = Response::decode(&resp).unwrap();
    assert_eq!(id, 77, "the error is addressed to the bad request's id");
    let Response::Err(e) = resp else {
        panic!("expected protocol error, got {resp:?}");
    };
    assert_eq!(e.code, codes::PROTOCOL);
    assert!(
        read_frame(&mut s).unwrap().is_none(),
        "undecodable input closes the connection"
    );
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn oversized_frame_is_rejected() {
    let handle = serve(Workspace::in_memory(), "127.0.0.1:0").unwrap();
    let mut s = TcpStream::connect(handle.local_addr()).unwrap();
    hello(&mut s);
    // Declared length far beyond MAX_FRAME; the server must refuse to
    // allocate it and drop the connection.
    s.write_all(&u32::MAX.to_le_bytes()).unwrap();
    s.flush().unwrap();
    // Best-effort protocol error (id 0 — framing itself is broken), then
    // close; closing without the courtesy reply is also acceptable.
    if let Ok(Some(p)) = read_frame(&mut s) {
        let (_, resp) = Response::decode(&p).unwrap();
        let Response::Err(e) = resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(e.code, codes::PROTOCOL);
        assert!(read_frame(&mut s).unwrap().is_none());
    }
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn truncated_frame_then_drop_leaves_server_healthy() {
    let handle = serve(Workspace::in_memory(), "127.0.0.1:0").unwrap();
    {
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        hello(&mut s);
        // Claim a 1000-byte request, deliver 3 bytes, vanish.
        s.write_all(&1000u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        s.flush().unwrap();
        // Connection drops here (socket closed by scope exit).
    }
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn drop_mid_length_prefix_leaves_server_healthy() {
    let handle = serve(Workspace::in_memory(), "127.0.0.1:0").unwrap();
    {
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        hello(&mut s);
        s.write_all(&[9u8]).unwrap(); // one byte of a four-byte prefix
        s.flush().unwrap();
    }
    assert_server_alive(&handle);
    handle.shutdown();
}

#[test]
fn pending_calls_fail_cleanly_when_server_goes_away() {
    let handle = serve(Workspace::in_memory(), "127.0.0.1:0").unwrap();
    let client = dataspread_client::Client::connect(handle.local_addr()).unwrap();
    let session = client.session();
    session.open_sheet("s").unwrap();
    session
        .apply_edit(
            "s",
            Edit::Set {
                row: 0,
                col: 0,
                input: "1".into(),
            },
        )
        .unwrap();
    handle.shutdown();
    // The accept loop is gone; existing connection reads EOF soon. Every
    // further call must fail with a coded Io error, not hang or panic.
    let err = loop {
        match session.value("s", dataspread_grid::CellAddr::new(0, 0)) {
            Ok(_) => continue, // server thread still draining; retry
            Err(e) => break e,
        }
    };
    assert_eq!(err.code, codes::IO, "expected Io, got {err:?}");
}

#[test]
fn reconnect_after_server_restart_preserves_acknowledged_edits() {
    let dir = std::env::temp_dir().join(format!("ds-reconnect-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // Round 1: commit edits, stop the server (in-process "restart").
    let handle = serve(Workspace::open(&dir).unwrap(), "127.0.0.1:0").unwrap();
    let client = dataspread_client::Client::connect(handle.local_addr()).unwrap();
    let session = client.session();
    session.open_sheet("book").unwrap();
    let mut last = 0;
    for i in 0..20u32 {
        let r = session
            .stage_edit(
                "book",
                Edit::Set {
                    row: i,
                    col: 0,
                    input: i.to_string(),
                },
            )
            .unwrap();
        last = r.ticket;
    }
    session.await_commit("book", last).unwrap();
    drop(client);
    handle.shutdown();

    // Round 2: a new server over the same directory; a reconnecting
    // client must see every acknowledged edit.
    let handle = serve(Workspace::open(&dir).unwrap(), "127.0.0.1:0").unwrap();
    let client = dataspread_client::Client::connect(handle.local_addr()).unwrap();
    let session = client.session();
    session.open_sheet("book").unwrap();
    let window = session
        .fetch_window("book", dataspread_grid::Rect::new(0, 0, 19, 0))
        .unwrap();
    assert_eq!(window.filled_count(), 20);
    let cells: std::collections::BTreeMap<_, _> = window.cells().into_iter().collect();
    for i in 0..20u32 {
        let cell = cells
            .get(&dataspread_grid::CellAddr::new(i, 0))
            .unwrap_or_else(|| panic!("row {i} lost across restart"));
        assert_eq!(cell.value, dataspread_grid::CellValue::Number(f64::from(i)));
    }
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression: a window over the whole sheet (2^64 cells) was built and
/// sent fine, but the client's decoder overflowed computing its area — in
/// a debug build the demux thread panicked, in a release build it failed
/// every call and dropped the connection, taking every session
/// multiplexed on it along.
#[test]
fn a_full_sheet_window_crosses_the_wire() {
    let handle = serve(Workspace::in_memory(), "127.0.0.1:0").unwrap();
    let client = dataspread_client::Client::connect(handle.local_addr()).unwrap();
    let (fetcher, bystander) = (client.session(), client.session());
    fetcher.open_sheet("s").unwrap();
    for (row, col, input) in [(0, 0, "1"), (7, 3, "=A1+1")] {
        let set = Edit::Set {
            row,
            col,
            input: input.into(),
        };
        fetcher.apply_edit("s", set).unwrap();
    }
    let everything = dataspread_grid::Rect::new(0, 0, u32::MAX, u32::MAX);
    let window = fetcher.fetch_window("s", everything).unwrap();
    assert_eq!(window.filled_count(), 2);
    let d8 = dataspread_grid::CellAddr::new(7, 3);
    let cells: std::collections::BTreeMap<_, _> = window.cells().into_iter().collect();
    assert_eq!(cells[&d8].formula.as_deref(), Some("A1+1"));
    assert_eq!(
        bystander.value("s", d8).unwrap(),
        dataspread_grid::CellValue::Number(2.0),
        "the connection survives"
    );
    handle.shutdown();
}
