//! A structural edit of zero rows or columns is a no-op on the wire too:
//! sent over TCP into a region it is answered `Ok`, moves nothing, and the
//! connection keeps serving.

use dataspread_client::Client;
use dataspread_grid::{CellAddr, CellValue, Rect};
use dataspread_server::serve;
use dataspread_workspace::{Edit, Workspace};

#[test]
fn zero_count_edits_inside_a_region_are_answered_ok() {
    let handle = serve(Workspace::in_memory(), "127.0.0.1:0").unwrap();
    let client = Client::connect(handle.local_addr()).unwrap();
    let remote = client.session();
    remote.open_sheet("s").unwrap();
    let block = (0..10)
        .map(|r| {
            (0..3)
                .map(|c| CellValue::Number(f64::from(r * 3 + c)))
                .collect()
        })
        .collect();
    remote
        .import_rows("s", CellAddr::new(0, 0), 3, block)
        .unwrap();
    let window = Rect::new(0, 0, 12, 4);
    let before = remote.fetch_window("s", window).unwrap();

    for edit in [
        Edit::DeleteRows { at: 5, n: 0 },
        Edit::DeleteCols { at: 1, n: 0 },
        Edit::InsertRows { at: 5, n: 0 },
        Edit::InsertCols { at: 1, n: 0 },
    ] {
        remote
            .apply_edit("s", edit.clone())
            .unwrap_or_else(|e| panic!("{edit:?}: {e:?}"));
        client.ping().unwrap();
    }
    assert_eq!(remote.fetch_window("s", window).unwrap(), before);
    assert_eq!(
        remote.value("s", CellAddr::new(9, 2)).unwrap(),
        CellValue::Number(29.0)
    );
}
