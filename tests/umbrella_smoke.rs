//! Smoke tests for the umbrella crate's public re-exports: every workspace
//! crate must be reachable through `dataspread::...` paths, and the README
//! quickstart (`update_cell_a1` + `=SUM(...)`) must work end to end.

use dataspread::engine::SheetEngine;
use dataspread::grid::{CellAddr, CellValue};

#[test]
fn quickstart_sum_evaluates_through_reexports() {
    let mut sheet = SheetEngine::new();
    sheet.update_cell_a1("A1", "10").unwrap();
    sheet.update_cell_a1("A2", "32").unwrap();
    sheet.update_cell_a1("A3", "=SUM(A1:A2)").unwrap();
    assert_eq!(
        sheet.value(CellAddr::parse_a1("A3").unwrap()),
        CellValue::Number(42.0)
    );

    // Edits propagate through the dependency graph.
    sheet.update_cell_a1("A1", "8").unwrap();
    assert_eq!(
        sheet.value(CellAddr::parse_a1("A3").unwrap()),
        CellValue::Number(40.0)
    );
}

#[test]
fn every_reexported_crate_is_reachable() {
    // grid
    let addr = dataspread::grid::CellAddr::parse_a1("B2").unwrap();
    assert_eq!((addr.row, addr.col), (1, 1));

    // posmap
    use dataspread::posmap::PositionalMap;
    let mut pm = dataspread::posmap::HierarchicalPosMap::new();
    pm.push(7u32);
    pm.insert_at(0, 3);
    assert_eq!(pm.get(1), Some(&7));

    // relstore
    use dataspread::relstore::{ColumnDef, DataType, Datum, Schema, Table};
    let mut table = Table::new("t", Schema::new(vec![ColumnDef::new("x", DataType::Int)]));
    let tid = table.insert(&[Datum::Int(7)]).unwrap();
    assert_eq!(table.fetch(tid).unwrap(), vec![Datum::Int(7)]);

    // hybrid
    let cm = dataspread::hybrid::CostModel::postgres();
    assert!(cm.rom(10, 10) > 0.0);

    // formula
    let expr = dataspread::formula::parse("1+2*3").unwrap();
    assert_eq!(expr.to_string().replace(' ', ""), "(1+(2*3))");

    // rel + analysis + corpus: generate a sheet, analyze it.
    let sheets = dataspread::corpus::generate_corpus(
        dataspread::corpus::CorpusName::Internet,
        1,
        20_180_416,
    );
    let analysis = dataspread::analysis::analyze_sheet(
        &sheets[0],
        &dataspread::analysis::TabularConfig::default(),
    );
    assert_eq!(analysis.filled_cells, sheets[0].filled_count());

    // engine is exercised by the quickstart test above; rel via its Datum.
    let d = dataspread::relstore::Datum::Int(5);
    assert_eq!(d.as_i64(), Some(5));

    // workspace: the concurrent multi-sheet service facade.
    let ws = dataspread::workspace::Workspace::in_memory();
    let session = ws.session();
    session.open_sheet("smoke").unwrap();
    session
        .apply_edit(
            "smoke",
            dataspread::workspace::Edit::Set {
                row: 0,
                col: 0,
                input: "42".into(),
            },
        )
        .unwrap();
    assert_eq!(
        session
            .value("smoke", dataspread::grid::CellAddr::new(0, 0))
            .unwrap(),
        dataspread::grid::CellValue::Number(42.0)
    );

    // proto + server + client: the same session API over TCP.
    let handle = dataspread::server::serve(ws, "127.0.0.1:0").unwrap();
    let client = dataspread::client::Client::connect(handle.local_addr()).unwrap();
    let remote = client.session();
    let window = remote
        .fetch_window("smoke", dataspread::grid::Rect::new(0, 0, 3, 3))
        .unwrap();
    assert_eq!(window.filled_count(), 1);
    let cells = window.cells();
    assert_eq!(cells[0].0, dataspread::grid::CellAddr::new(0, 0));
    assert_eq!(cells[0].1.value, dataspread::grid::CellValue::Number(42.0));
    let err = remote.open_sheet("bad/name").unwrap_err();
    assert_eq!(
        err.code,
        dataspread::proto::codes::BAD_SHEET_NAME,
        "error codes cross the wire"
    );
    handle.shutdown();
}
