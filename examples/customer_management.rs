//! Customer-management use case (paper Example 2, §VII-D.b, Figure 19).
//!
//! A retail owner manages customers/suppliers/invoices/payments in a
//! database, but wants to manipulate them like a spreadsheet: `linkTable`
//! establishes two-way sync between sheet regions and tables, `sql()` runs
//! joins and aggregation, and `index()` spills composite results onto the
//! grid — no pre-programmed application, no SQL client.
//!
//! Run with: `cargo run --release --example customer_management`

use dataspread::corpus::retail::populate_retail;
use dataspread::engine::SheetEngine;
use dataspread::grid::{CellAddr, Rect};
use dataspread::rel::ops as relops;
use dataspread::rel::RowExpr;
use dataspread::relstore::Datum;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut sheet = SheetEngine::new();

    // The owner's existing MySQL-style database.
    {
        let db = sheet.database();
        let mut guard = db.write();
        populate_retail(&mut guard, 40, 7)?;
    }

    // --- linkTable: live views of invoice and supp on the sheet -------
    let inv_rect = sheet.link_table(Rect::parse_a1("A1:F40")?, "invoice")?;
    let supp_rect = sheet.link_table(Rect::parse_a1("J1:K4")?, "supp")?;
    println!("linked invoice at {inv_rect}, supp at {supp_rect}");

    // Direct manipulation: editing a linked cell updates the table.
    let first_amount = CellAddr::new(inv_rect.r1, inv_rect.c1 + 3);
    sheet.storage_mut().set_cell(
        first_amount,
        dataspread::grid::ScanValue::Number(123.45),
        None,
    )?;
    let check = sheet.sql(
        "SELECT COUNT(*) AS n FROM invoice WHERE amount = 123.45",
        &[],
    )?;
    println!(
        "edited one invoice amount through the sheet; table sees {} match(es)",
        check.rows[0][0]
    );

    // --- sql(): join + group + aggregate (Figure 19's A8 cell) --------
    let per_supplier = sheet.sql(
        "SELECT s.name, COUNT(*) AS invoices, SUM(i.amount) AS total \
         FROM invoice i JOIN supp s ON i.supp_id = s.id \
         GROUP BY s.name ORDER BY total DESC",
        &[],
    )?;
    println!(
        "\nper-supplier totals (sql function):\n{}",
        per_supplier.to_text()
    );

    // Spill the composite value onto the sheet via index().
    let at = CellAddr::parse_a1("A45")?;
    sheet.place_composite(at, per_supplier.clone());
    for i in 1..=per_supplier.len().min(3) {
        for j in 1..=per_supplier.arity() {
            sheet.index_composite(at, i, j, CellAddr::new(44 + i as u32, (j - 1) as u32))?;
        }
    }
    println!(
        "spilled top rows at A46:C48; A46 = {}",
        sheet.value(CellAddr::parse_a1("A46")?)
    );

    // --- prepared statements -------------------------------------------
    let overdue = sheet.sql(
        "SELECT id, amount, due_in_days FROM invoice \
         WHERE paid = FALSE AND due_in_days < ? ORDER BY due_in_days LIMIT 5",
        &[Datum::Int(0)],
    )?;
    println!(
        "overdue unpaid invoices (due_in_days < 0):\n{}",
        overdue.to_text()
    );

    // --- relational operators on sheet ranges --------------------------
    // Top supplier via project/filter on the composite result.
    let top = relops::project(&per_supplier, &["name"])?;
    println!("top supplier (project): {}", top.rows[0][0]);
    let big = relops::filter(
        &per_supplier,
        &RowExpr::Cmp(
            dataspread::rel::expr::CmpOp::Gt,
            Box::new(RowExpr::col("total")),
            Box::new(RowExpr::lit(10_000.0)),
        ),
    )?;
    println!("suppliers with > $10k total: {}", big.len());

    // Set ops: suppliers with invoices vs all suppliers.
    let with_inv = sheet.sql("SELECT DISTINCT supp_id FROM invoice", &[])?;
    let all = sheet.sql("SELECT id FROM supp", &[])?;
    let idle = relops::difference(&relops::rename(&all, "id", "supp_id")?, &with_inv)?;
    println!("suppliers without any invoice: {}", idle.len());
    Ok(())
}
