//! Property tests for the SQL engine against hand-rolled oracles.

use std::collections::HashMap;

use proptest::prelude::*;

use dataspread_rel::relation::cmp_datum;
use dataspread_rel::{execute_sql, RelError, Relation};
use dataspread_relstore::Datum;

fn table(rows: &[(i64, i64, Option<&str>)]) -> Relation {
    Relation::new(
        vec!["a".into(), "b".into(), "s".into()],
        rows.iter()
            .map(|(a, b, s)| {
                vec![
                    Datum::Int(*a),
                    Datum::Int(*b),
                    match s {
                        Some(s) => Datum::Text(s.to_string()),
                        None => Datum::Null,
                    },
                ]
            })
            .collect(),
    )
}

fn provider(rel: Relation) -> HashMap<String, Relation> {
    let mut m = HashMap::new();
    m.insert("t".to_string(), rel);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn where_matches_manual_filter(
        rows in prop::collection::vec((any::<i16>(), any::<i16>()), 0..60),
        threshold in any::<i16>(),
    ) {
        let data: Vec<(i64, i64, Option<&str>)> = rows
            .iter()
            .map(|(a, b)| (*a as i64, *b as i64, None))
            .collect();
        let rel = table(&data);
        let got = execute_sql(
            &provider(rel.clone()),
            "SELECT a, b FROM t WHERE a > ? AND b <= a",
            &[Datum::Int(threshold as i64)],
        )
        .unwrap();
        let want: Vec<(i64, i64)> = data
            .iter()
            .filter(|(a, b, _)| *a > threshold as i64 && *b <= *a)
            .map(|(a, b, _)| (*a, *b))
            .collect();
        let got_rows: Vec<(i64, i64)> = got
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        prop_assert_eq!(got_rows, want);
    }

    #[test]
    fn order_by_really_sorts(rows in prop::collection::vec((any::<i16>(), any::<i16>()), 0..60)) {
        let data: Vec<(i64, i64, Option<&str>)> = rows
            .iter()
            .map(|(a, b)| (*a as i64, *b as i64, None))
            .collect();
        let got = execute_sql(
            &provider(table(&data)),
            "SELECT a, b FROM t ORDER BY a DESC, b ASC",
            &[],
        )
        .unwrap();
        prop_assert_eq!(got.len(), data.len());
        for w in got.rows.windows(2) {
            let (a1, b1) = (w[0][0].as_i64().unwrap(), w[0][1].as_i64().unwrap());
            let (a2, b2) = (w[1][0].as_i64().unwrap(), w[1][1].as_i64().unwrap());
            prop_assert!(a1 > a2 || (a1 == a2 && b1 <= b2), "({a1},{b1}) then ({a2},{b2})");
        }
    }

    #[test]
    fn group_by_sums_match_manual(rows in prop::collection::vec((0i64..6, any::<i16>()), 0..80)) {
        let data: Vec<(i64, i64, Option<&str>)> =
            rows.iter().map(|(a, b)| (*a, *b as i64, None)).collect();
        let got = execute_sql(
            &provider(table(&data)),
            "SELECT a, SUM(b) AS total, COUNT(*) AS n FROM t GROUP BY a ORDER BY a",
            &[],
        )
        .unwrap();
        let mut manual: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for (a, b, _) in &data {
            let e = manual.entry(*a).or_insert((0, 0));
            e.0 += b;
            e.1 += 1;
        }
        prop_assert_eq!(got.len(), manual.len());
        for (row, (key, (sum, n))) in got.rows.iter().zip(manual) {
            prop_assert_eq!(row[0].as_i64().unwrap(), key);
            prop_assert_eq!(row[1].as_i64().unwrap(), sum);
            prop_assert_eq!(row[2].as_i64().unwrap(), n);
        }
    }

    #[test]
    fn join_matches_nested_loop(
        left in prop::collection::vec((0i64..8, any::<i16>()), 0..30),
        right in prop::collection::vec((0i64..8, any::<i16>()), 0..30),
    ) {
        let mut m = HashMap::new();
        m.insert(
            "l".to_string(),
            Relation::new(
                vec!["k".into(), "v".into()],
                left.iter().map(|(k, v)| vec![Datum::Int(*k), Datum::Int(*v as i64)]).collect(),
            ),
        );
        m.insert(
            "r".to_string(),
            Relation::new(
                vec!["k".into(), "w".into()],
                right.iter().map(|(k, w)| vec![Datum::Int(*k), Datum::Int(*w as i64)]).collect(),
            ),
        );
        let got = execute_sql(&m, "SELECT l.v, r.w FROM l JOIN r ON l.k = r.k", &[]).unwrap();
        let mut want = Vec::new();
        for (lk, lv) in &left {
            for (rk, rw) in &right {
                if lk == rk {
                    want.push((*lv as i64, *rw as i64));
                }
            }
        }
        let mut got_rows: Vec<(i64, i64)> = got
            .rows
            .iter()
            .map(|r| (r[0].as_i64().unwrap(), r[1].as_i64().unwrap()))
            .collect();
        got_rows.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got_rows, want);
    }

    #[test]
    fn distinct_and_limit_invariants(
        rows in prop::collection::vec((0i64..5, 0i64..5), 0..60),
        limit in 0usize..20,
    ) {
        let data: Vec<(i64, i64, Option<&str>)> =
            rows.iter().map(|(a, b)| (*a, *b, None)).collect();
        let rel = table(&data);
        let got = execute_sql(
            &provider(rel),
            &format!("SELECT DISTINCT a, b FROM t LIMIT {limit}"),
            &[],
        )
        .unwrap();
        prop_assert!(got.len() <= limit);
        // No duplicates.
        let mut seen = std::collections::BTreeSet::new();
        for row in &got.rows {
            let key: Vec<String> = row.iter().map(|d| d.to_string()).collect();
            prop_assert!(seen.insert(key), "duplicate row under DISTINCT");
        }
    }

    #[test]
    fn null_comparisons_never_match(values in prop::collection::vec(any::<i16>(), 0..40)) {
        let data: Vec<(i64, i64, Option<&str>)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (*v as i64, i as i64, if i % 3 == 0 { None } else { Some("x") }))
            .collect();
        let rel = table(&data);
        let with_null = execute_sql(&provider(rel.clone()), "SELECT a FROM t WHERE s = 'x'", &[]).unwrap();
        let nulls = execute_sql(&provider(rel), "SELECT a FROM t WHERE s IS NULL", &[]).unwrap();
        let n_null = data.iter().filter(|(_, _, s)| s.is_none()).count();
        prop_assert_eq!(nulls.len(), n_null);
        prop_assert_eq!(with_null.len(), data.len() - n_null);
    }
}

#[test]
fn cmp_datum_is_total_order_on_mixed_types() {
    let values = [
        Datum::Null,
        Datum::Float(f64::NEG_INFINITY),
        Datum::Int(-5),
        Datum::Float(-0.0),
        Datum::Int(0),
        Datum::Float(2.5),
        Datum::Int(3),
        Datum::Int(i64::MIN),
        Datum::Float(-TWO_63),
        Datum::Float(-TWO_53),
        Datum::Int(-(1 << 53) - 1),
        Datum::Int(-(1 << 53)),
        Datum::Int(1 << 53),
        Datum::Float(TWO_53),
        Datum::Int((1 << 53) + 1),
        Datum::Float(TWO_53 + 2.0),
        Datum::Int(i64::MAX - 1),
        Datum::Int(i64::MAX),
        Datum::Float(TWO_63),
        Datum::Float(f64::NAN),
        Datum::Float(-f64::NAN),
        Datum::Text("a".into()),
        Datum::Text("b".into()),
        Datum::Bool(false),
        Datum::Bool(true),
    ];
    // Transitivity spot-check over all triples (a NaN equal to every
    // number used to break it).
    for a in &values {
        for b in &values {
            for c in &values {
                use std::cmp::Ordering::*;
                if cmp_datum(a, b) != Greater && cmp_datum(b, c) != Greater {
                    assert_ne!(cmp_datum(a, c), Greater, "{a:?} <= {b:?} <= {c:?}");
                }
            }
        }
        // Antisymmetric too.
        for b in &values {
            assert_eq!(cmp_datum(a, b), cmp_datum(b, a).reverse(), "{a:?} vs {b:?}");
        }
    }
    // Integers compare exactly, against floats too.
    use std::cmp::Ordering::*;
    let cmp = |a: Datum, b: Datum| cmp_datum(&a, &b);
    assert_eq!(cmp(Datum::Int((1 << 53) + 1), Datum::Int(1 << 53)), Greater);
    assert_eq!(
        cmp(Datum::Int((1 << 53) + 1), Datum::Float(TWO_53)),
        Greater
    );
    assert_eq!(cmp(Datum::Int(1 << 53), Datum::Float(TWO_53)), Equal);
    assert_eq!(cmp(Datum::Int(i64::MAX), Datum::Float(TWO_63)), Less);
    assert_eq!(cmp(Datum::Int(i64::MIN), Datum::Float(-TWO_63)), Equal);
    assert_eq!(
        cmp(Datum::Int(i64::MIN + 1), Datum::Float(-TWO_63)),
        Greater
    );
    assert_eq!(cmp(Datum::Float(-0.0), Datum::Int(0)), Equal);
    assert_eq!(cmp(Datum::Int(i64::MAX), Datum::Float(f64::NAN)), Less);
    assert_eq!(cmp(Datum::Int(i64::MIN), Datum::Float(-f64::NAN)), Greater);
}

const TWO_53: f64 = 9_007_199_254_740_992.0;
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

fn one_column(name: &str, values: Vec<Datum>) -> Relation {
    Relation::new(
        vec![name.into()],
        values.into_iter().map(|v| vec![v]).collect(),
    )
}

/// Integer `+ - * /` and SUM that leave `i64` give the float result, as
/// SQLite's arithmetic does, instead of wrapping (or panicking).
#[test]
fn integer_overflow_gives_the_float_result() {
    let mut m = HashMap::new();
    m.insert(
        "big".to_string(),
        one_column("a", vec![Datum::Int(i64::MAX), Datum::Int(1)]),
    );
    m.insert(
        "min".to_string(),
        one_column("a", vec![Datum::Int(i64::MIN)]),
    );
    let one = |q: &str| execute_sql(&m, q, &[]).unwrap().rows[0][0].clone();
    assert_eq!(one("SELECT SUM(a) FROM big"), Datum::Float(TWO_63));
    assert_eq!(one("SELECT a + 1 FROM big"), Datum::Float(TWO_63));
    assert_eq!(one("SELECT a / (0 - 1) FROM min"), Datum::Float(TWO_63));
    assert_eq!(one("SELECT a * 2 FROM min"), Datum::Float(-2.0 * TWO_63));
    assert_eq!(one("SELECT -a FROM min"), Datum::Float(TWO_63));
    // In range, all stay integral.
    assert_eq!(one("SELECT SUM(a) FROM min"), Datum::Int(i64::MIN));
    assert_eq!(one("SELECT a - 1 FROM big"), Datum::Int(i64::MAX - 1));
    assert_eq!(one("SELECT a / 1 FROM min"), Datum::Int(i64::MIN));
}

/// Regression: `=` compared integers through `f64`, so 2^53 and 2^53 + 1
/// were one value to WHERE, GROUP BY, DISTINCT and joins.
#[test]
fn distinct_large_integers_stay_distinct() {
    let big = vec![Datum::Int(1 << 53), Datum::Int((1 << 53) + 1)];
    let mut m = HashMap::new();
    m.insert("t".to_string(), one_column("a", big.clone()));
    m.insert(
        "u".to_string(),
        one_column("b", vec![Datum::Int((1 << 53) + 1)]),
    );
    let run = |q: &str, params: &[Datum]| execute_sql(&m, q, params).unwrap();
    let hit = run("SELECT a FROM t WHERE a = ?", &[Datum::Int((1 << 53) + 1)]);
    assert_eq!(hit.rows, vec![vec![Datum::Int((1 << 53) + 1)]]);
    let groups = run("SELECT a, COUNT(*) FROM t GROUP BY a", &[]);
    assert_eq!(
        groups.rows,
        vec![
            vec![big[0].clone(), Datum::Int(1)],
            vec![big[1].clone(), Datum::Int(1)]
        ]
    );
    assert_eq!(run("SELECT DISTINCT a FROM t", &[]).len(), 2);
    assert_eq!(run("SELECT a FROM t JOIN u ON t.a = u.b", &[]).len(), 1);
    assert_eq!(
        run("SELECT a FROM t JOIN u ON t.a = u.b AND 1 = 1", &[]).len(),
        1
    );
    // A float equal to 2^53 matches only the integer equal to it.
    let float = run("SELECT a FROM t WHERE a = ?", &[Datum::Float(TWO_53)]);
    assert_eq!(float.rows, vec![vec![Datum::Int(1 << 53)]]);
}

/// Columns resolve when the statement is planned, so a bad one fails even
/// when no row would ever be evaluated.
#[test]
fn unknown_and_ambiguous_columns_fail_before_any_row() {
    let mut m = HashMap::new();
    m.insert(
        "e".to_string(),
        Relation::empty(vec!["id".into(), "x".into()]),
    );
    m.insert(
        "f".to_string(),
        Relation::empty(vec!["id".into(), "y".into()]),
    );
    m.insert(
        "t".to_string(),
        one_column("a", vec![Datum::Int(1), Datum::Int(2)]),
    );
    let bad = |q: &str| matches!(execute_sql(&m, q, &[]), Err(RelError::BadColumn(_)));
    assert!(bad("SELECT nope FROM e"));
    assert!(bad("SELECT x FROM e WHERE zz > 1"));
    assert!(bad("SELECT a FROM t WHERE a > 5 AND zz > 1"));
    assert!(bad("SELECT id FROM e JOIN f ON e.id = f.id"));
    assert!(bad("SELECT x FROM e JOIN f ON zz = 1"));
    assert!(bad("SELECT COUNT(*) FROM e GROUP BY zz"));
    assert!(bad("SELECT x FROM e ORDER BY zz"));
    // A plain query still orders by a column it does not output.
    let mut w = HashMap::new();
    w.insert(
        "w".to_string(),
        Relation::new(
            vec!["name".into(), "age".into()],
            vec![
                vec![Datum::Text("old".into()), Datum::Int(70)],
                vec![Datum::Text("young".into()), Datum::Int(7)],
            ],
        ),
    );
    let r = execute_sql(&w, "SELECT name FROM w ORDER BY age", &[]).unwrap();
    assert_eq!(r.columns, vec!["name".to_string()]);
    assert_eq!(
        r.rows,
        vec![
            vec![Datum::Text("young".into())],
            vec![Datum::Text("old".into())]
        ]
    );
}

/// Regression: joins, GROUP BY and DISTINCT keyed rows by the bytes of
/// each number, so `0.0` and `-0.0` — equal under `=` — never joined on
/// the hash path, yet joined once the same predicate took the nested loop
/// (`AND 1 = 1`), and grouped and deduplicated as two values while
/// `WHERE x = 0` matched both. All four now use `=`'s equality.
#[test]
fn signed_zeros_are_one_value_to_join_group_and_distinct() {
    let one = |name: &str, values: &[f64]| {
        Relation::new(
            vec![name.into()],
            values.iter().map(|&v| vec![Datum::Float(v)]).collect(),
        )
    };
    let mut m = HashMap::new();
    m.insert("a".to_string(), one("x", &[0.0]));
    m.insert("b".to_string(), one("y", &[-0.0]));
    m.insert("t".to_string(), one("x", &[0.0, -0.0]));
    let rows = |q: &str| execute_sql(&m, q, &[]).unwrap().len();
    assert_eq!(rows("SELECT * FROM a JOIN b ON a.x = b.y"), 1);
    assert_eq!(rows("SELECT * FROM a JOIN b ON a.x = b.y AND 1 = 1"), 1);
    assert_eq!(rows("SELECT x FROM t WHERE x = 0"), 2);
    assert_eq!(rows("SELECT x, COUNT(*) FROM t GROUP BY x"), 1);
    assert_eq!(rows("SELECT DISTINCT x FROM t"), 1);
}

/// An all-digit literal that fits in an `i64` is that integer: past 2^53
/// a float would round it onto its neighbour. One past `i64::MAX` stays a
/// float instead of saturating.
#[test]
fn integer_literals_are_exact() {
    let mut m = HashMap::new();
    m.insert(
        "t".to_string(),
        one_column("a", vec![Datum::Int(1 << 53), Datum::Int((1 << 53) + 1)]),
    );
    let run = |q: &str| execute_sql(&m, q, &[]).unwrap().rows;
    assert_eq!(
        run("SELECT a FROM t WHERE a = 9007199254740993"),
        vec![vec![Datum::Int((1 << 53) + 1)]]
    );
    assert_eq!(
        run("SELECT 9223372036854775807 FROM t LIMIT 1"),
        vec![vec![Datum::Int(i64::MAX)]]
    );
    assert_eq!(
        run("SELECT 9223372036854775808 FROM t LIMIT 1"),
        vec![vec![Datum::Float(9_223_372_036_854_775_808.0)]]
    );
    assert_eq!(
        run("SELECT 99999999999999999999 FROM t LIMIT 1"),
        vec![vec![Datum::Float(1e20)]]
    );
}

fn groups_table() -> HashMap<String, Relation> {
    let rows = [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (2, 6)];
    let mut m = HashMap::new();
    m.insert(
        "n".to_string(),
        Relation::new(
            vec!["g".into(), "v".into()],
            rows.iter()
                .map(|&(g, v)| vec![Datum::Int(g), Datum::Int(v)])
                .collect(),
        ),
    );
    m.insert("e".to_string(), Relation::empty(vec!["x".into()]));
    m
}

/// HAVING and a group's AND, OR and NOT take the truth rule WHERE takes: a
/// non-zero number is true, not only `TRUE`.
#[test]
fn having_and_grouped_logic_use_the_where_truth_rule() {
    let m = groups_table();
    let run = |q: &str| execute_sql(&m, q, &[]).unwrap().rows;
    let g = |ids: &[i64]| ids.iter().map(|&i| vec![Datum::Int(i)]).collect::<Vec<_>>();
    assert_eq!(
        run("SELECT g FROM n GROUP BY g HAVING COUNT(*) - 1"),
        g(&[0, 2])
    );
    assert_eq!(run("SELECT g FROM n WHERE v - 3 GROUP BY g"), g(&[0, 2]));
    assert_eq!(
        run("SELECT g FROM n GROUP BY g HAVING COUNT(*) - 1 AND SUM(v) - 3"),
        g(&[2])
    );
    assert_eq!(
        run("SELECT g FROM n GROUP BY g HAVING COUNT(*) - 2 OR SUM(v) - 3"),
        g(&[1, 2])
    );
    assert_eq!(
        run("SELECT g, NOT COUNT(*) - 1 FROM n GROUP BY g"),
        vec![
            vec![Datum::Int(0), Datum::Bool(false)],
            vec![Datum::Int(1), Datum::Bool(true)],
            vec![Datum::Int(2), Datum::Bool(false)],
        ]
    );
}

/// A HAVING without GROUP BY or an aggregate item groups the query over
/// one group, as SQLite (3.39 on) does, instead of being dropped.
#[test]
fn having_without_group_by_is_one_group() {
    let m = groups_table();
    let run = |q: &str| execute_sql(&m, q, &[]).unwrap().rows;
    assert!(run("SELECT g FROM n HAVING COUNT(*) > 100").is_empty());
    assert_eq!(
        run("SELECT g FROM n HAVING COUNT(*) > 5"),
        vec![vec![Datum::Int(0)]]
    );
    assert!(run("SELECT x FROM e HAVING COUNT(*) > 0").is_empty());
    assert_eq!(
        run("SELECT 7 FROM e HAVING COUNT(*) = 0"),
        vec![vec![Datum::Int(7)]]
    );
}

/// Over no rows a grouped literal is itself: only a column reads the
/// (missing) first row and is NULL.
#[test]
fn grouped_literals_over_an_empty_table_are_themselves() {
    let m = groups_table();
    let run = |q: &str| execute_sql(&m, q, &[]).unwrap().rows;
    assert_eq!(run("SELECT COUNT(*) + 1 FROM e"), vec![vec![Datum::Int(1)]]);
    assert_eq!(
        run("SELECT COUNT(*), 1, x FROM e"),
        vec![vec![Datum::Int(0), Datum::Int(1), Datum::Null]]
    );
}
