//! Pinned answers of the SQL engine, and provider equivalence.
//!
//! `sql_golden.txt` holds the answers — columns, rows and errors — to a
//! fixed battery of queries over seeded tables that mix every datum kind
//! (Int, Float with `-0.0` and NaN, Text, Bool, Null). Every query runs
//! against the same rows held twice: in a relstore `Database`, where some
//! tuples are stored short with `Table::insert_prefix`, and in a
//! `HashMap<String, Relation>`. Both must print the fixture exactly.
//! When they do not, the actual rendering is written to
//! `$CARGO_TARGET_TMPDIR/sql_golden.actual.txt` for diffing.

use std::collections::HashMap;
use std::fmt::Write as _;

use proptest::prelude::*;

use dataspread_rel::{execute_sql, Relation};
use dataspread_relstore::{ColumnDef, DataType, Database, Datum, Schema};

/// SplitMix64: a seeded, dependency-free source for the battery's tables.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A datum of any kind; numbers stay small so no sum overflows.
    fn datum(&mut self) -> Datum {
        match self.below(12) {
            0 => Datum::Null,
            1..=3 => Datum::Int(self.below(7) as i64 - 2),
            4 => Datum::Float(-0.0),
            5 => Datum::Float(0.0),
            6 => Datum::Float(f64::NAN),
            7 | 8 => Datum::Float((self.below(9) as f64 - 4.0) / 2.0),
            9 | 10 => Datum::Text(["x", "y", "", "b"][self.below(4) as usize].into()),
            _ => Datum::Bool(self.below(2) == 1),
        }
    }

    /// A small integer or, now and then, NULL.
    fn key(&mut self) -> Datum {
        match self.below(8) {
            0 => Datum::Null,
            _ => Datum::Int(self.below(4) as i64),
        }
    }
}

/// One named table: its columns, and rows the `Database` copy stores with
/// only the first `stored` datums (the rest read back as NULL).
struct Spec {
    name: &'static str,
    columns: Vec<&'static str>,
    rows: Vec<(Vec<Datum>, usize)>,
}

fn specs() -> Vec<Spec> {
    let mut mix = Mix(7);
    let mut t = Vec::new();
    for _ in 0..40 {
        let row = vec![mix.key(), mix.datum(), mix.datum(), mix.datum()];
        // One row in five is stored short: its trailing datums are NULL.
        let stored = if mix.below(5) == 0 {
            mix.below(4) as usize
        } else {
            4
        };
        t.push(pad(row, stored));
    }
    let mut u = Vec::new();
    for i in 0..8 {
        let k = match i {
            6 => Datum::Null,
            7 => Datum::Float(-0.0),
            _ => Datum::Int(mix.below(5) as i64 - 1),
        };
        let name = Datum::Text(["p", "q", "r"][mix.below(3) as usize].into());
        u.push((vec![k, name], 2));
    }
    let mut n = Vec::new();
    for _ in 0..30 {
        let g = Datum::Int(mix.below(4) as i64);
        let v = Datum::Int(mix.below(41) as i64 - 20);
        n.push((vec![g, v], 2));
    }
    // Equal numbers of different kinds and signs: MIN keeps the first of
    // equal minima, MAX the last of equal maxima, a group shows its first
    // row's key, and floats sum in row order.
    let z: Vec<(Vec<Datum>, usize)> = [
        (0, Datum::Int(0)),
        (0, Datum::Float(-0.0)),
        (0, Datum::Float(0.0)),
        (1, Datum::Float(2.0)),
        (1, Datum::Int(2)),
        (1, Datum::Float(2.0)),
        (2, Datum::Float(-0.0)),
        (2, Datum::Float(-0.0)),
        (3, Datum::Float(1e16)),
        (3, Datum::Float(1.0)),
        (3, Datum::Float(-1e16)),
        (3, Datum::Int(1)),
        (4, Datum::Text("tx".into())),
        (4, Datum::Bool(true)),
        (4, Datum::Int(3)),
        (5, Datum::Text("only".into())),
    ]
    .into_iter()
    .map(|(g, v)| (vec![Datum::Int(g), v], 2))
    .collect();
    vec![
        Spec {
            name: "t",
            columns: vec!["a", "b", "s", "f"],
            rows: t,
        },
        Spec {
            name: "u",
            columns: vec!["k", "name"],
            rows: u,
        },
        Spec {
            name: "n",
            columns: vec!["g", "v"],
            rows: n,
        },
        Spec {
            name: "z",
            columns: vec!["g", "v"],
            rows: z,
        },
        Spec {
            name: "e",
            columns: vec!["x", "y"],
            rows: Vec::new(),
        },
    ]
}

/// `row` as the `Database` stores it (its first `stored` datums) and as
/// it reads back (NULL-padded).
fn pad(mut row: Vec<Datum>, stored: usize) -> (Vec<Datum>, usize) {
    for d in &mut row[stored..] {
        *d = Datum::Null;
    }
    (row, stored)
}

fn database(specs: &[Spec]) -> Database {
    let mut db = Database::new();
    for spec in specs {
        let schema = Schema::new(
            spec.columns
                .iter()
                .map(|c| ColumnDef::new(*c, DataType::Any))
                .collect(),
        );
        let table = db.create_table(spec.name, schema).unwrap();
        for (row, stored) in &spec.rows {
            table.insert_prefix(&row[..*stored]).unwrap();
        }
    }
    db
}

fn relations(specs: &[Spec]) -> HashMap<String, Relation> {
    specs
        .iter()
        .map(|spec| {
            let columns = spec.columns.iter().map(|c| c.to_string()).collect();
            let rows = spec.rows.iter().map(|(row, _)| row.clone()).collect();
            (spec.name.to_string(), Relation::new(columns, rows))
        })
        .collect()
}

/// Columns and rows (or the error) as text. `Debug` keeps `-0.0`, NaN
/// and the Int/Float distinction apart, so equal text is an equal answer.
fn render(answer: &Result<Relation, dataspread_rel::RelError>) -> String {
    match answer {
        Ok(rel) => {
            let mut out = format!("columns {:?}\n", rel.columns);
            for row in &rel.rows {
                writeln!(out, "  {row:?}").unwrap();
            }
            out
        }
        Err(e) => format!("error {e:?}\n"),
    }
}

const BATTERY: &[(&str, &[Datum])] = &[
    // Plain scans, WHERE, projection, arithmetic.
    ("SELECT * FROM t", &[]),
    ("SELECT a, b FROM t WHERE a > 1", &[]),
    ("SELECT a, s FROM t WHERE s = 'x' OR a IS NULL", &[]),
    (
        "SELECT a, f FROM t WHERE NOT a IS NULL AND f IS NOT NULL",
        &[],
    ),
    ("SELECT b FROM t WHERE b <> 0 AND b <= 1", &[]),
    ("SELECT b FROM t WHERE b >= 'b'", &[]),
    ("SELECT s FROM t WHERE s", &[]),
    (
        "SELECT g, v, v * 2 AS dbl, v - g, v / 4, v + 0.5 FROM n",
        &[],
    ),
    ("SELECT -v, (g + 1) * (v - 1) FROM n WHERE v < 0", &[]),
    ("SELECT v FROM z WHERE v = 0", &[]),
    ("SELECT v FROM z WHERE v = 2", &[]),
    // `?` parameters.
    ("SELECT a, b FROM t WHERE b = ?", &[Datum::Float(0.0)]),
    (
        "SELECT g, v FROM n WHERE v >= ? AND g <> ? ORDER BY v",
        &[Datum::Int(5), Datum::Int(2)],
    ),
    (
        "SELECT a FROM t WHERE s = ? LIMIT 3",
        &[Datum::Text(String::new())],
    ),
    // DISTINCT, ORDER BY by name, by position, by a non-projected column.
    ("SELECT DISTINCT a FROM t ORDER BY a", &[]),
    ("SELECT DISTINCT s, a FROM t", &[]),
    ("SELECT DISTINCT b FROM t ORDER BY 1 DESC", &[]),
    ("SELECT a FROM t ORDER BY b DESC, a", &[]),
    ("SELECT s FROM t ORDER BY f, 1 LIMIT 7", &[]),
    ("SELECT a AS x FROM t ORDER BY x DESC LIMIT 3", &[]),
    ("SELECT v FROM n ORDER BY g, v DESC", &[]),
    ("SELECT g FROM n ORDER BY v LIMIT 0", &[]),
    ("SELECT b, f FROM t ORDER BY t.f DESC, s", &[]),
    // Aggregates and GROUP BY.
    (
        "SELECT a, COUNT(*), COUNT(b), SUM(b), AVG(b), MIN(b), MAX(b) FROM t GROUP BY a",
        &[],
    ),
    ("SELECT s, SUM(a), AVG(a) FROM t GROUP BY s ORDER BY 2", &[]),
    (
        "SELECT COUNT(*), SUM(b), MIN(s), MAX(s), AVG(f) FROM t",
        &[],
    ),
    (
        "SELECT COUNT(s), SUM(s), AVG(s), MIN(f), MAX(f) FROM t",
        &[],
    ),
    (
        "SELECT COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x), 1 FROM e",
        &[],
    ),
    ("SELECT COUNT(*) + 1, x FROM e", &[]),
    ("SELECT x, COUNT(*) FROM e GROUP BY x", &[]),
    (
        "SELECT g, SUM(v), AVG(v), MIN(v), MAX(v), COUNT(*) FROM n GROUP BY g",
        &[],
    ),
    (
        "SELECT g, SUM(v) + 1, COUNT(*) * 2, SUM(v) / COUNT(*) FROM n GROUP BY g",
        &[],
    ),
    (
        "SELECT g, SUM(v), MIN(v), MAX(v), AVG(v), COUNT(v) FROM z GROUP BY g",
        &[],
    ),
    ("SELECT v, COUNT(*) FROM z GROUP BY v", &[]),
    ("SELECT SUM(v), MIN(v), MAX(v) FROM z WHERE g = 2", &[]),
    ("SELECT a, s, COUNT(*) FROM t GROUP BY a, s", &[]),
    ("SELECT s, COUNT(*) FROM t GROUP BY a", &[]),
    ("SELECT v / 3, COUNT(*) FROM n GROUP BY v / 3", &[]),
    ("SELECT SUM(v * 2), MAX(v - g) FROM n", &[]),
    (
        "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY 2 DESC, 1",
        &[],
    ),
    ("SELECT DISTINCT COUNT(*) FROM t GROUP BY a", &[]),
    (
        "SELECT g, COUNT(*) AS c FROM n GROUP BY g ORDER BY c DESC LIMIT 2",
        &[],
    ),
    ("SELECT g FROM n GROUP BY g HAVING COUNT(*) > 7", &[]),
    (
        "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING COUNT(*) > 2 ORDER BY n DESC",
        &[],
    ),
    (
        "SELECT g, SUM(v) FROM n GROUP BY g HAVING COUNT(*) > 5 AND SUM(v) > ?",
        &[Datum::Int(0)],
    ),
    (
        "SELECT g FROM n GROUP BY g HAVING MIN(v) < -15 OR MAX(v) > 18",
        &[],
    ),
    ("SELECT g FROM n GROUP BY g HAVING COUNT(*)", &[]),
    ("SELECT COUNT(*) FROM n HAVING COUNT(*) > 100", &[]),
    (
        "SELECT g, COUNT(*) > 7, MIN(v) = -20 FROM n GROUP BY g",
        &[],
    ),
    // Joins.
    (
        "SELECT t.a, u.name FROM t JOIN u ON t.a = u.k ORDER BY 1, 2",
        &[],
    ),
    (
        "SELECT x.a, y.name FROM t x JOIN u y ON x.a = y.k WHERE y.name <> 'q'",
        &[],
    ),
    (
        "SELECT t.a, u.k FROM t JOIN u ON t.a < u.k AND u.k < 3",
        &[],
    ),
    ("SELECT COUNT(*) FROM t JOIN u", &[]),
    (
        "SELECT u.name, COUNT(*), SUM(t.b) FROM t JOIN u ON t.a = u.k GROUP BY u.name",
        &[],
    ),
    (
        "SELECT * FROM u JOIN n ON u.k = n.g ORDER BY v LIMIT 6",
        &[],
    ),
    (
        "SELECT name, v FROM u INNER JOIN n AS m ON m.g = u.k WHERE v > 10",
        &[],
    ),
    ("SELECT z.v, u.name FROM z JOIN u ON z.v = u.k", &[]),
    (
        "SELECT u.name, n.v FROM u JOIN n ON u.k = n.g JOIN z ON z.g = n.g WHERE z.v = 2",
        &[],
    ),
    (
        "SELECT a1.a, a2.k FROM t a1 JOIN u a2 ON a1.a = a2.k ORDER BY name",
        &[],
    ),
    // Errors.
    ("SELECT nope FROM t", &[]),
    ("SELECT a FROM t ORDER BY nope", &[]),
    ("SELECT DISTINCT a FROM t ORDER BY b", &[]),
    ("SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY b", &[]),
    ("SELECT a FROM t ORDER BY 9", &[]),
    (
        "SELECT k FROM u JOIN n ON u.k = n.g JOIN z ON z.g = u.k",
        &[],
    ),
    ("SELECT g FROM n JOIN z ON n.g = z.g", &[]),
    ("SELECT a FROM missing", &[]),
    ("SELECT a FROM t JOIN missing ON a = 1", &[]),
    ("SELECT a FROM t WHERE a = ? AND b = ?", &[Datum::Int(1)]),
    ("SELECT s + 1 FROM t", &[]),
    ("SELECT v / 0 FROM n", &[]),
    ("SELECT a FROM t WHERE SUM(a) > 1", &[]),
    ("SELECT NOT COUNT(*) FROM n", &[]),
    ("SELECT SUM(s * 2) FROM t", &[]),
    ("SELECT * FROM t WHERE", &[]),
    ("SELECT a FROM t LIMIT x", &[]),
];

fn battery(provider: &dyn dataspread_rel::TableProvider) -> String {
    let mut out = String::new();
    for (query, params) in BATTERY {
        writeln!(out, "## {query} {params:?}").unwrap();
        out.push_str(&render(&execute_sql(provider, query, params)));
    }
    out
}

#[test]
fn golden_battery_matches_fixture() {
    let specs = specs();
    let from_db = battery(&database(&specs));
    let from_relations = battery(&relations(&specs));
    let actual = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("sql_golden.actual.txt");
    std::fs::write(&actual, &from_db).unwrap();
    assert!(
        from_db == from_relations,
        "Database and Relation providers disagree"
    );
    assert!(
        from_db == include_str!("sql_golden.txt"),
        "answers differ from the fixture; see {}",
        actual.display()
    );
}

/// A datum for the provider property: every kind, small numbers.
fn any_datum() -> impl Strategy<Value = Datum> {
    prop_oneof![
        Just(Datum::Null),
        (-3i64..4).prop_map(Datum::Int),
        (-4i64..5).prop_map(|x| Datum::Float(x as f64 / 2.0)),
        Just(Datum::Float(-0.0)),
        Just(Datum::Float(f64::NAN)),
        (0usize..3).prop_map(|i| Datum::Text(["x", "y", ""][i].into())),
        any::<bool>().prop_map(Datum::Bool),
    ]
}

const PROVIDER_QUERIES: &[&str] = &[
    "SELECT * FROM t",
    "SELECT c, a FROM t WHERE b > 0 ORDER BY a, c DESC",
    "SELECT a FROM t ORDER BY c LIMIT 5",
    "SELECT DISTINCT b FROM t",
    "SELECT a, COUNT(*), COUNT(c), SUM(b), AVG(c), MIN(b), MAX(c) FROM t GROUP BY a",
    "SELECT COUNT(*), SUM(c), MIN(a), MAX(a) FROM t",
    "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 1",
    "SELECT l.a, r.c FROM t l JOIN t r ON l.a = r.b",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The same rows — some stored short with `insert_prefix` — answer
    /// every query alike from a `Database` and from a `Relation` map.
    #[test]
    fn database_and_relation_providers_agree(
        rows in prop::collection::vec(
            ((any_datum(), any_datum(), any_datum()), 0usize..4),
            0..24,
        ),
    ) {
        let spec = Spec {
            name: "t",
            columns: vec!["a", "b", "c"],
            rows: rows
                .into_iter()
                .map(|((a, b, c), stored)| pad(vec![a, b, c], stored))
                .collect(),
        };
        let specs = [spec];
        let db = database(&specs);
        let rels = relations(&specs);
        for query in PROVIDER_QUERIES {
            prop_assert_eq!(
                render(&execute_sql(&db, query, &[])),
                render(&execute_sql(&rels, query, &[])),
                "{}",
                query
            );
        }
    }
}
