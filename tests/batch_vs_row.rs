//! Differential suite: the batch pipeline vs a one-row reference
//! evaluator.
//!
//! The standing invariant of the engine is that every query result is
//! bit-identical regardless of batch size and DOP. This suite pins the
//! batch pipeline against a deliberately naive reference kept in this
//! file — decode one row, evaluate each expression with the row
//! interpreter ([`sqlarray_engine::expr::eval`]), fold aggregates and
//! UDAs in key order — across:
//!
//! * every construct the batch compiler turns into kernels (comparisons,
//!   wrapping integer arithmetic, float arithmetic, `AND`/`OR`
//!   short-circuit, `NOT`, unary minus, all five aggregates, `COUNT` over
//!   blob columns, blob projection through in-row and out-of-row storage,
//!   `TOP`);
//! * constructs that run through the per-row escape node: UDF calls
//!   (alone and under `AND`/`OR`, with `TOP`), `GROUP BY` with a UDA,
//!   string-literal comparisons, blob equality over in-row and LOB
//!   values, and NULL aggregate arguments;
//! * edge-case table sizes: empty, one row, exactly one batch, one batch
//!   plus one row;
//! * batch sizes {1, 7, 1024} × DOP {1, 2, 4, 8}, compared byte-for-byte
//!   (floats by `to_bits`).
//!
//! Error parity is checked too: a query the reference rejects must fail
//! in the engine (messages may legitimately differ in the order errors
//! are discovered, but Ok-vs-Err must agree).

use proptest::prelude::*;
use sqlarray::prelude::*;
use sqlarray_bench::rows_bit_identical;
use sqlarray_core::exact::ExactSum;
use sqlarray_core::rng::{RngCore, SeedableRng, StdRng};
use sqlarray_engine::expr::{compare, eval, AggFunc, EvalEnv, Expr, RowCtx};
use sqlarray_engine::tsql::{parse, SelectStmt, Stmt};
use sqlarray_engine::{UdaRegistry, UdaState};
use sqlarray_storage::{blob, row, BatchScanOpts};
use std::cmp::Ordering;
use std::collections::HashMap;

type Res<T> = std::result::Result<T, String>;

/// Rows whose `id % 97 == 3` carry an out-of-row LOB payload (> 8000
/// bytes); everything else keeps a short in-row blob.
const LOB_STRIDE: i64 = 97;

fn build_session(rows: i64, seed: u64) -> Session {
    let mut db = Database::new();
    db.create_table(
        "T",
        Schema::new(&[
            ("id", ColType::I64),
            ("a", ColType::I64),
            ("b", ColType::I32),
            ("c", ColType::F64),
            ("d", ColType::F32),
            ("v", ColType::Blob),
            ("w", ColType::Blob),
        ]),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..rows {
        let a = (rng.next_u64() % 2001) as i64 - 1000;
        let b = (rng.next_u64() % 2001) as i32 - 1000;
        let c = (rng.next_u64() % 10_000) as f64 / 64.0 - 70.0;
        let d = (rng.next_u64() % 10_000) as f32 / 128.0 - 30.0;
        let blob: Vec<u8> = if k % LOB_STRIDE == 3 {
            // Out-of-row payload: deterministic, > 8000 bytes.
            (0u64..9000)
                .map(|i| (i.wrapping_mul(31).wrapping_add(k as u64)) as u8)
                .collect()
        } else {
            (0..(rng.next_u64() % 24) as u8)
                .map(|i| i.wrapping_add(k as u8))
                .collect()
        };
        // A short float array, for the array UDFs and UDAs.
        let w = sqlarray_core::build::short_vector(&[c, d as f64])
            .unwrap()
            .into_blob();
        db.insert(
            "T",
            k,
            &[
                RowValue::I64(k),
                RowValue::I64(a),
                RowValue::I32(b),
                RowValue::F64(c),
                RowValue::F32(d),
                RowValue::Bytes(blob),
                RowValue::Bytes(w),
            ],
        )
        .unwrap();
    }
    Session::with_hosting(db, HostingModel::free())
}

/// Queries that must succeed and agree bit-for-bit on every configuration.
const QUERIES: &[&str] = &[
    "SELECT COUNT(*) FROM T",
    "SELECT COUNT(*), COUNT(a), COUNT(v) FROM T",
    "SELECT SUM(c), AVG(d), MIN(a), MAX(b) FROM T",
    "SELECT SUM(a + b), MIN(c * d), MAX(a % 7) FROM T WHERE a > 0",
    "SELECT id, a + b, c * 2.0, -d FROM T WHERE (a > 0 AND b <= 100) OR NOT (c < 0.0)",
    "SELECT TOP 13 id, c FROM T WHERE id % 3 = 1",
    "SELECT id, v FROM T WHERE id % 97 = 3",
    "SELECT a FROM T WHERE a > 100000",
    "SELECT SUM(c), COUNT(*) FROM T WHERE a > 100000",
    "SELECT id % 4, COUNT(*), SUM(c) FROM T GROUP BY id % 4",
    "SELECT MIN(b), MAX(d) FROM T WHERE NOT a = 0",
    "SELECT 1 + a, b - 2, c / 2.0, d FROM T WHERE a % 2 = 0 AND c > -100.0",
    // Escape-node constructs.
    "SELECT id % 5, FloatArray.VectorAvg(w), COUNT(*), MIN(floatarray.Item_1(w, 1)) \
     FROM T GROUP BY id % 5",
    "SELECT FloatArray.VectorAvg(w), SUM(floatarray.Item_1(w, 0)) FROM T WHERE a > 0",
    "SELECT id, floatarray.Item_1(w, 0) FROM T WHERE dbo.PanicIf(a, 100000) > 500 OR b < -900",
    "SELECT id FROM T WHERE a > 0 AND dbo.EmptyFunction(v, 0) = 0.0",
    "SELECT id, 'tag' FROM T WHERE 'abc' < 'abd' AND a > 800",
    "SELECT COUNT(*), MAX(v) FROM T WHERE v = v",
    "SELECT id, v FROM T WHERE v = v AND id % 50 = 3",
    "SELECT TOP 5 id, c FROM T WHERE dbo.PanicIf(a, 100000) > 100",
    "SELECT SUM(NULL), MIN(NULL), COUNT(NULL), COUNT(*) FROM T",
    "SELECT id % 3, SUM(NULL), MAX(NULL), MIN(v) FROM T GROUP BY id % 3",
];

/// Queries that must fail on nonempty tables: a zero divisor on the
/// first row, negation of a boolean, an unset variable.
const ERROR_QUERIES: &[&str] = &[
    "SELECT a / (a - a) FROM T",
    "SELECT SUM(a % (id - id)) FROM T",
    "SELECT -(a > 0) FROM T",
    "SELECT a + @unset FROM T",
];

const BATCH_SIZES: [usize; 3] = [1, 7, 1024];
const DOPS: [usize; 4] = [1, 2, 4, 8];

fn run(s: &mut Session, sql: &str) -> Res<Vec<Vec<Value>>> {
    s.query(sql).map(|r| r.rows).map_err(|e| e.to_string())
}

// --- The reference evaluator ------------------------------------------------

/// One accumulator of the reference fold.
enum RefAcc {
    Agg {
        func: AggFunc,
        arg: Option<Expr>,
        count: u64,
        sum: Box<ExactSum>,
        min: Option<Value>,
        max: Option<Value>,
    },
    Uda {
        args: Vec<Expr>,
        state: Box<dyn UdaState>,
    },
    Plain {
        expr: Expr,
        value: Option<Value>,
    },
}

/// Rewrites calls of registered UDAs into `UdaCall` nodes.
fn resolve_udas(e: &Expr, udas: &UdaRegistry) -> Expr {
    match e {
        Expr::Func { name, args } => {
            let args = args.iter().map(|a| resolve_udas(a, udas)).collect();
            if udas.contains(name) {
                Expr::UdaCall {
                    name: name.clone(),
                    args,
                }
            } else {
                Expr::Func {
                    name: name.clone(),
                    args,
                }
            }
        }
        Expr::Neg(x) => Expr::Neg(Box::new(resolve_udas(x, udas))),
        Expr::Not(x) => Expr::Not(Box::new(resolve_udas(x, udas))),
        Expr::Bin { op, left, right } => Expr::Bin {
            op: *op,
            left: Box::new(resolve_udas(left, udas)),
            right: Box::new(resolve_udas(right, udas)),
        },
        other => other.clone(),
    }
}

/// Reads a lazy LOB reference's bytes; other values pass through.
fn materialize(v: Value, env: &mut EvalEnv<'_>) -> Res<Value> {
    match v {
        Value::Lob { id, .. } => {
            let reader = env.lobs.as_deref_mut().ok_or("no LOB reader")?;
            Ok(Value::Bytes(
                blob::read_blob(reader, id).map_err(|e| e.to_string())?,
            ))
        }
        other => Ok(other),
    }
}

/// Keeps `cand` when it orders `want` against the current extreme.
fn keep(cur: &mut Option<Value>, cand: Value, want: Ordering) -> Res<()> {
    let replace = match cur {
        None => true,
        Some(c) => compare(&cand, c).map_err(|e| e.to_string())? == want,
    };
    if replace {
        *cur = Some(cand);
    }
    Ok(())
}

impl RefAcc {
    fn new(e: &Expr, udas: &UdaRegistry) -> RefAcc {
        match e {
            Expr::Agg { func, arg } => RefAcc::Agg {
                func: *func,
                arg: arg.as_deref().cloned(),
                count: 0,
                sum: Box::new(ExactSum::new()),
                min: None,
                max: None,
            },
            Expr::UdaCall { name, args } => RefAcc::Uda {
                args: args.clone(),
                state: udas.create(name).unwrap(),
            },
            other => RefAcc::Plain {
                expr: other.clone(),
                value: None,
            },
        }
    }

    fn feed(&mut self, row: &RowCtx<'_>, env: &mut EvalEnv<'_>) -> Res<()> {
        let ev =
            |e: &Expr, env: &mut EvalEnv<'_>| eval(e, Some(row), env).map_err(|e| e.to_string());
        match self {
            RefAcc::Agg {
                func,
                arg,
                count,
                sum,
                min,
                max,
            } => {
                let Some(e) = arg else {
                    *count += 1;
                    return Ok(());
                };
                let v = ev(e, env)?;
                if v.is_null() {
                    return Ok(());
                }
                *count += 1;
                if *func == AggFunc::Count {
                    return Ok(());
                }
                let v = materialize(v, env)?;
                match func {
                    AggFunc::Sum | AggFunc::Avg => sum.add(v.as_f64().map_err(|e| e.to_string())?),
                    AggFunc::Min => keep(min, v, Ordering::Less)?,
                    AggFunc::Max => keep(max, v, Ordering::Greater)?,
                    AggFunc::Count | AggFunc::CountStar => {}
                }
                Ok(())
            }
            RefAcc::Uda { args, state } => {
                let mut argv = Vec::new();
                for a in args.iter() {
                    let v = ev(a, env)?;
                    argv.push(materialize(v, env)?);
                }
                state.accumulate(&argv).map_err(|e| e.to_string())
            }
            RefAcc::Plain { expr, value } => {
                if value.is_none() {
                    let v = ev(expr, env)?;
                    *value = Some(materialize(v, env)?);
                }
                Ok(())
            }
        }
    }

    fn finish(self) -> Res<Value> {
        Ok(match self {
            RefAcc::Agg {
                func,
                count,
                sum,
                min,
                max,
                ..
            } => match func {
                AggFunc::CountStar | AggFunc::Count => Value::I64(count as i64),
                AggFunc::Sum if count > 0 => Value::F64(sum.value()),
                AggFunc::Avg if count > 0 => Value::F64(sum.value() / count as f64),
                AggFunc::Min => min.unwrap_or(Value::Null),
                AggFunc::Max => max.unwrap_or(Value::Null),
                AggFunc::Sum | AggFunc::Avg => Value::Null,
            },
            RefAcc::Uda { mut state, .. } => state.terminate().map_err(|e| e.to_string())?,
            RefAcc::Plain { value, .. } => value.unwrap_or(Value::Null),
        })
    }
}

/// Evaluates a single-table SELECT the naive way: a serial scan of
/// one-row batches of every column, the row interpreter per expression,
/// and a key-order fold — groups in first-appearance order.
fn reference(s: &Session, sql: &str) -> Res<Vec<Vec<Value>>> {
    let Some(Stmt::Select(sel)) = parse(sql).map_err(|e| e.to_string())?.pop() else {
        panic!("not a SELECT: {sql}");
    };
    let SelectStmt {
        top,
        items,
        from,
        where_clause,
        group_by,
    } = sel;
    let items: Vec<Expr> = items
        .iter()
        .map(|it| resolve_udas(&it.expr, s.udas()))
        .collect();
    let aggregate = !group_by.is_empty() || items.iter().any(Expr::contains_aggregate);
    let limit = top.unwrap_or(usize::MAX);

    let db = s.db();
    let table = db.table(&from.expect("FROM")).expect("table");
    let schema = table.schema().clone();
    let cols: Vec<usize> = (0..schema.columns.len()).collect();
    let parts = table.partition(&db.store, 1).unwrap();
    let scan = db.store.begin_scan();
    let mut reader = db.store.reader(&scan, 0);
    let mut batch = row::new_batch(&schema, &cols).unwrap();
    let mut hosting = HostingModel::free();
    let vars = HashMap::new();

    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut groups: Vec<(Vec<Value>, Vec<RefAcc>)> = Vec::new();
    if aggregate && group_by.is_empty() {
        groups.push((
            Vec::new(),
            items.iter().map(|e| RefAcc::new(e, s.udas())).collect(),
        ));
    }
    let mut failure: Option<String> = None;
    let opts = BatchScanOpts {
        cols: &cols,
        rows_cap: 1,
        leaf_aligned: false,
    };
    table
        .scan_partition_batches(&mut reader, &parts[0], opts, &mut batch, |reader, b| {
            let row = RowCtx {
                schema: &schema,
                cols: &cols,
                batch: b,
                row: 0,
            };
            let mut env = EvalEnv {
                udfs: s.udfs(),
                hosting: &mut hosting,
                vars: &vars,
                lobs: Some(reader),
            };
            let step = (|| -> Res<bool> {
                if let Some(w) = &where_clause {
                    if !eval(w, Some(&row), &mut env)
                        .map_err(|e| e.to_string())?
                        .is_true()
                    {
                        return Ok(true);
                    }
                }
                if aggregate {
                    let mut key = Vec::new();
                    for g in &group_by {
                        let v = eval(g, Some(&row), &mut env).map_err(|e| e.to_string())?;
                        key.push(materialize(v, &mut env)?);
                    }
                    let gi = match groups.iter().position(|(k, _)| *k == key) {
                        Some(gi) => gi,
                        None => {
                            let accs = items.iter().map(|e| RefAcc::new(e, s.udas())).collect();
                            groups.push((key, accs));
                            groups.len() - 1
                        }
                    };
                    for acc in groups[gi].1.iter_mut() {
                        acc.feed(&row, &mut env)?;
                    }
                    return Ok(true);
                }
                let mut out = Vec::new();
                for e in &items {
                    let v = eval(e, Some(&row), &mut env).map_err(|e| e.to_string())?;
                    out.push(materialize(v, &mut env)?);
                }
                rows.push(out);
                Ok(rows.len() < limit)
            })();
            match step {
                Ok(more) => Ok(more),
                Err(e) => {
                    failure = Some(e);
                    Ok(false)
                }
            }
        })
        .unwrap();
    let io = reader.finish();
    db.store.finish_scan([&io]);
    if let Some(e) = failure {
        return Err(e);
    }
    for (_, accs) in groups {
        rows.push(accs.into_iter().map(RefAcc::finish).collect::<Res<_>>()?);
    }
    Ok(rows)
}

// --- The differential checks ------------------------------------------------

/// Compares the engine under one configuration against the reference.
fn check(
    s: &mut Session,
    sql: &str,
    want: &Res<Vec<Vec<Value>>>,
    batch: usize,
    dop: usize,
) -> Res<()> {
    s.set_batch_rows(batch);
    s.set_dop(dop);
    match (want, &run(s, sql)) {
        (Ok(want), Ok(have)) if rows_bit_identical(want, have) => Ok(()),
        (Err(_), Err(_)) => Ok(()),
        (w, h) => Err(format!(
            "batch={batch} dop={dop} diverged for {sql:?}:\nreference: {w:?}\nengine:    {h:?}"
        )),
    }
}

/// Runs `sql` on the reference once — it must succeed — and on every
/// (batch, dop) configuration, asserting bit-identity.
fn assert_differential(s: &mut Session, sql: &str) {
    let want = reference(s, sql);
    assert!(want.is_ok(), "reference rejected {sql:?}: {want:?}");
    for &batch in &BATCH_SIZES {
        for &dop in &DOPS {
            if let Err(msg) = check(s, sql, &want, batch, dop) {
                panic!("{msg}");
            }
        }
    }
    // Leave the session back on defaults for the next query.
    s.set_batch_rows(sqlarray_core::batch::DEFAULT_BATCH_ROWS);
    s.set_dop(1);
}

#[test]
fn batch_matches_row_on_edge_case_table_sizes() {
    // Empty table, single row, exactly one default batch, one batch + 1.
    for (i, &rows) in [0i64, 1, 1024, 1025].iter().enumerate() {
        let mut s = build_session(rows, 0xBA7C4 + i as u64);
        for sql in QUERIES {
            assert_differential(&mut s, sql);
        }
    }
}

#[test]
fn error_queries_fail_on_both_paths() {
    let mut s = build_session(100, 0xE44);
    for sql in ERROR_QUERIES {
        assert!(reference(&s, sql).is_err(), "reference accepted {sql:?}");
        for &batch in &BATCH_SIZES {
            for &dop in &DOPS {
                s.set_batch_rows(batch);
                s.set_dop(dop);
                assert!(
                    run(&mut s, sql).is_err(),
                    "batch={batch} dop={dop} accepted {sql:?}"
                );
            }
        }
    }
}

#[test]
fn batch_stats_reflect_the_active_path() {
    let mut s = build_session(1025, 0x57A75);
    // Every FROM-scan runs on batches: kernels, escape nodes, GROUP BY,
    // and the match phase of UPDATE and DELETE alike.
    for sql in [
        "SELECT COUNT(*) FROM T",
        "SELECT id % 4, COUNT(*) FROM T GROUP BY id % 4",
        "SELECT SUM(floatarray.Item_1(w, 0)) FROM T",
        "UPDATE T SET a = a + 1 WHERE id % 2 = 0",
        "DELETE FROM T WHERE id % 5 = 0",
    ] {
        let r = s.execute(sql).unwrap().pop().unwrap();
        assert!(r.stats.batches > 0, "no batches for {sql:?}");
        assert!(
            r.stats.batch_fill > 0.0 && r.stats.batch_fill <= 1024.0,
            "implausible batch_fill {} for {sql:?}",
            r.stats.batch_fill
        );
    }
    // `batch_rows` is a size knob only: 0 means one-row batches.
    s.set_batch_rows(0);
    assert_eq!(s.batch_rows(), 1);
    let r = s.query("SELECT COUNT(*) FROM T").unwrap();
    assert_eq!(r.stats.batches, r.stats.rows_scanned);
    assert_eq!(r.stats.batch_fill, 1.0);
}

proptest! {
    /// Randomized differential check: arbitrary seed drives the table
    /// contents, the row count, the batch size (including the
    /// pathological size 1) and the DOP; every pool query must agree
    /// with the reference.
    #[test]
    fn batch_matches_row_for_arbitrary_tables(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = (rng.next_u64() % 300) as i64;
        let mut s = build_session(rows, rng.next_u64());
        let batch = 1 + (rng.next_u64() % 129) as usize;
        let dop = DOPS[(rng.next_u64() % DOPS.len() as u64) as usize];
        for sql in QUERIES {
            let want = reference(&s, sql);
            prop_assert!(want.is_ok(), "reference rejected {:?}: {:?}", sql, want);
            let got = check(&mut s, sql, &want, batch, dop);
            prop_assert!(got.is_ok(), "rows={}: {}", rows, got.unwrap_err());
        }
    }
}
