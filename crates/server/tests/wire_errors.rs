//! A remote error is the local error's wire form: the same failing call
//! made through an in-process `Session` and through a `RemoteSession` on
//! one served workspace fails with `remote == local.to_wire()` — code and
//! detail — because the client hands the server's `WireError` back
//! unchanged instead of rebuilding a `WorkspaceError` from it.

use dataspread_client::{Client, RemoteSession};
use dataspread_grid::{CellAddr, CellValue, Rect};
use dataspread_proto::{
    codes, read_frame, write_frame, Request, Response, WireError, PROTOCOL_VERSION,
};
use dataspread_server::serve;
use dataspread_workspace::{Edit, Session, Workspace, WorkspaceError};

/// Run `call` both ways and check the remote error against the local one.
fn same_error<T: std::fmt::Debug, U: std::fmt::Debug>(
    what: &str,
    local: &Session,
    remote: &RemoteSession,
    call_local: impl Fn(&Session) -> Result<T, WorkspaceError>,
    call_remote: impl Fn(&RemoteSession) -> Result<U, WireError>,
) -> WireError {
    let local_err = call_local(local).expect_err(what);
    let remote_err = call_remote(remote).expect_err(what);
    assert_eq!(remote_err, local_err.to_wire(), "{what}");
    remote_err
}

#[test]
fn remote_errors_equal_the_local_errors_wire_form() {
    let ws = Workspace::in_memory();
    let local = ws.session();
    let handle = serve(ws, "127.0.0.1:0").unwrap();
    let client = Client::connect(handle.local_addr()).unwrap();
    let remote = client.session();
    let window = Rect::new(0, 0, 3, 3);

    let e = same_error(
        "fetch from a sheet never opened",
        &local,
        &remote,
        |s| s.fetch_window("never", window),
        |s| s.fetch_window("never", window),
    );
    assert_eq!(e, WireError::new(codes::NO_SUCH_SHEET, "never"));

    let e = same_error(
        "open a sheet named a/b",
        &local,
        &remote,
        |s| s.open_sheet("a/b"),
        |s| s.open_sheet("a/b"),
    );
    assert_eq!(e, WireError::new(codes::BAD_SHEET_NAME, "a/b"));

    remote.open_sheet("s").unwrap();
    let bad_formula = Edit::Set {
        row: 0,
        col: 0,
        input: "=SUM((".into(),
    };
    let e = same_error(
        "=SUM((",
        &local,
        &remote,
        |s| s.apply_edit("s", bad_formula.clone()),
        |s| s.apply_edit("s", bad_formula.clone()),
    );
    assert_eq!(e.code, codes::ENGINE_FORMULA);

    // A region whose rows an insert would push past the last sheet row.
    let block = vec![vec![CellValue::Number(7.0); 2]; 5];
    remote
        .import_rows("s", CellAddr::new(20, 0), 2, block)
        .unwrap();
    // Neighbours a bad import's rect used to clear.
    for (row, col) in [(5, 2), (0, 3)] {
        let set = Edit::Set {
            row,
            col,
            input: "kept".into(),
        };
        remote.apply_edit("s", set).unwrap();
    }
    let before = remote.fetch_window("s", Rect::new(0, 0, 40, 3)).unwrap();
    let insert = Edit::InsertRows { at: 5, n: u32::MAX };
    let e = same_error(
        "an insert pushing a region past the last row",
        &local,
        &remote,
        |s| s.apply_edit("s", insert.clone()),
        |s| s.apply_edit("s", insert.clone()),
    );
    assert_eq!(e.code, codes::ENGINE_UNSUPPORTED);

    // An insert inside that region which would stretch it past the
    // positional maps' cap.
    let stretch = Edit::InsertRows {
        at: 22,
        n: 70_000_000,
    };
    let e = same_error(
        "an insert stretching a region past the position cap",
        &local,
        &remote,
        |s| s.apply_edit("s", stretch.clone()),
        |s| s.apply_edit("s", stretch.clone()),
    );
    assert_eq!(e.code, codes::ENGINE_UNSUPPORTED);
    assert_eq!(
        remote.fetch_window("s", Rect::new(0, 0, 40, 3)).unwrap(),
        before,
        "no refused insert moved anything"
    );

    // An import zero columns wide.
    let one = vec![vec![CellValue::Number(1.0)]];
    let e = same_error(
        "an import of zero columns",
        &local,
        &remote,
        |s| s.import_rows("s", CellAddr::new(5, 3), 0, one.clone()),
        |s| s.import_rows("s", CellAddr::new(5, 3), 0, one.clone()),
    );
    assert_eq!(e.code, codes::ENGINE_BAD_LINK);
    assert_eq!(
        remote.fetch_window("s", Rect::new(0, 0, 40, 3)).unwrap(),
        before,
        "the zero-width import cleared nothing"
    );

    // An import whose columns would run past the last sheet column.
    let four = vec![vec![CellValue::Number(1.0); 4]];
    let e = same_error(
        "an import past the last column",
        &local,
        &remote,
        |s| s.import_rows("s", CellAddr::new(0, u32::MAX - 1), 4, four.clone()),
        |s| s.import_rows("s", CellAddr::new(0, u32::MAX - 1), 4, four.clone()),
    );
    assert_eq!(e.code, codes::ENGINE_UNSUPPORTED);
    assert_eq!(
        remote.fetch_window("s", Rect::new(0, 0, 40, 3)).unwrap(),
        before,
        "the off-sheet import cleared nothing"
    );

    // Two rows imported twice onto the last two sheet rows: the refusal
    // renders the overlapped block, whose last row is row `u32::MAX`.
    let two = vec![vec![CellValue::Number(2.0); 2]; 2];
    let last = CellAddr::new(u32::MAX - 1, 0);
    remote.import_rows("s", last, 2, two.clone()).unwrap();
    let e = same_error(
        "an import over the last rows, twice",
        &local,
        &remote,
        |s| s.import_rows("s", last, 2, two.clone()),
        |s| s.import_rows("s", last, 2, two.clone()),
    );
    assert_eq!(e.code, codes::ENGINE_BAD_LINK);
    assert!(e.detail.contains("A4294967295:B4294967296"), "{e:?}");

    drop(client);
    handle.shutdown();
}

/// `AwaitCommit` on a ticket the sheet never issued is refused with
/// `STORE_LIMIT_EXCEEDED`, not parked: a connection's workers outnumbered
/// by such frames still answer everything queued behind them.
#[test]
fn await_of_an_unissued_ticket_is_refused_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("ds-wire-unissued-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let ws = Workspace::open(&dir).unwrap();
    let local = ws.session();
    let handle = serve(ws, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = stream.try_clone().unwrap();
        let mut writer = stream;
        let mut send = |id: u64, req: Request| write_frame(&mut writer, &req.encode(id)).unwrap();
        let mut recv = || {
            let payload = read_frame(&mut reader).unwrap().expect("response");
            Response::decode(&payload).unwrap()
        };
        // Workers run a connection's requests concurrently, so the setup
        // goes one request at a time.
        let mut call = |id: u64, req: Request| {
            send(id, req);
            let (got, resp) = recv();
            assert_eq!(got, id);
            resp
        };
        call(
            1,
            Request::Hello {
                version: PROTOCOL_VERSION,
            },
        );
        assert_eq!(
            call(2, Request::OpenSheet { sheet: "s".into() }),
            Response::Ok
        );
        let set = Edit::Set {
            row: 0,
            col: 0,
            input: "1".into(),
        };
        let Response::Receipt(receipt) = call(
            3,
            Request::ApplyEdit {
                sheet: "s".into(),
                edit: set,
            },
        ) else {
            panic!("ApplyEdit must answer with a receipt");
        };
        let last = receipt.ticket;
        // More unissued awaits than the connection has workers, then a
        // ping queued behind them.
        for id in 10..18 {
            send(
                id,
                Request::AwaitCommit {
                    sheet: "s".into(),
                    ticket: last + 1000,
                },
            );
        }
        send(18, Request::Ping);
        let replies: Vec<(u64, Response)> = (0..9).map(|_| recv()).collect();
        tx.send((last, replies)).unwrap();
    });
    let (last, replies) = rx
        .recv_timeout(std::time::Duration::from_secs(5))
        .expect("AwaitCommit of an unissued ticket must not wedge the connection");
    let local_err = local.await_commit("s", last + 1000).unwrap_err().to_wire();
    assert_eq!(local_err.code, codes::STORE_LIMIT_EXCEEDED);
    for (id, resp) in replies {
        match id {
            18 => assert_eq!(resp, Response::Pong),
            _ => assert_eq!(resp, Response::Err(local_err.clone()), "request {id}"),
        }
    }
    local.await_commit("s", last).unwrap();
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Hostile `ImportRows` frames — a cell past the width or past the row
/// count, a formula's source flag, a repeated text literal, trailing
/// bytes — are each refused as corrupt before anything is cleared or
/// logged: the window and the sheet's WAL keep every byte, and the
/// connection keeps serving.
#[test]
fn hostile_import_blocks_are_refused_before_anything_changes() {
    use dataspread_grid::codec::{encode_block, put_uvarint, CellsEncoder};
    use dataspread_grid::ScanValue;

    let dir = std::env::temp_dir().join(format!("ds-wire-import-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let handle = serve(Workspace::open(&dir).unwrap(), "127.0.0.1:0").unwrap();
    let stream = std::net::TcpStream::connect(handle.local_addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();
    let mut writer = stream;
    let mut next_id = 0;
    let mut call = |req: Request| {
        next_id += 1;
        write_frame(&mut writer, &req.encode(next_id)).unwrap();
        let (got, resp) = Response::decode(&read_frame(&mut reader).unwrap().unwrap()).unwrap();
        assert_eq!(got, next_id);
        resp
    };
    let sheet = || "s".to_string();
    call(Request::Hello {
        version: PROTOCOL_VERSION,
    });
    assert_eq!(call(Request::OpenSheet { sheet: sheet() }), Response::Ok);
    // Cells a bad import's rect would clear.
    for (row, col) in [(0, 0), (1, 1), (2, 2)] {
        let edit = Edit::Set {
            row,
            col,
            input: "kept".into(),
        };
        let resp = call(Request::ApplyEdit {
            sheet: sheet(),
            edit,
        });
        assert!(matches!(resp, Response::Receipt(_)), "{resp:?}");
    }
    let window = Rect::new(0, 0, 5, 5);
    let fetch = Request::FetchWindow {
        sheet: sheet(),
        rect: window,
    };
    let before = call(fetch.clone());
    let wal = dir.join("s").join("wal.log");
    let logged = std::fs::read(&wal).unwrap();

    let rows = |n: usize, width: usize| vec![vec![CellValue::Number(1.0); width]; n];
    let mut sourced = CellsEncoder::default();
    put_uvarint(sourced.push(0, 0, ScanValue::Number(1.0), true), 2 << 1);
    let mut sourced = sourced.finish();
    sourced.extend_from_slice(b"A1");
    // One row, dense, two cells from column 0: the text literal "x" twice.
    let repeated = vec![1, 0, 5, 0, 0x03, 1, b'x', 0x03, 1, b'x'];
    let mut trailing = encode_block(2, &rows(2, 2));
    trailing.push(0);
    let hostile = [
        ("a cell past the width", encode_block(3, &rows(2, 3))),
        ("a cell past the row count", encode_block(2, &rows(3, 2))),
        ("a formula's source flag", sourced),
        ("a repeated text literal", repeated),
        ("trailing bytes", trailing),
    ];
    for (what, block) in hostile {
        let resp = call(Request::ImportRows {
            sheet: sheet(),
            top_left: CellAddr::new(0, 0),
            width: 2,
            rows: 2,
            block,
        });
        match resp {
            Response::Err(e) => assert_eq!(e.code, codes::STORE_CORRUPT, "{what}: {e:?}"),
            other => panic!("{what}: accepted as {other:?}"),
        }
        assert_eq!(call(fetch.clone()), before, "{what}: the window changed");
        assert_eq!(
            std::fs::read(&wal).unwrap(),
            logged,
            "{what}: the WAL changed"
        );
    }
    // The same connection still imports a good block.
    let resp = call(Request::ImportRows {
        sheet: sheet(),
        top_left: CellAddr::new(0, 0),
        width: 2,
        rows: 2,
        block: encode_block(2, &rows(2, 2)),
    });
    assert_eq!(resp, Response::Imported(Rect::new(0, 0, 1, 1)));
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
