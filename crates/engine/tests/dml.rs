//! SQL-level DML: UPDATE/DELETE correctness, DOP-invariance of the WAL
//! byte stream, the `ArrayUpdate` bounded-write fast path, crash
//! recovery through the session's statement-level autocommit, a typed
//! error matrix, and a model-based differential property test.

use proptest::collection::vec;
use proptest::prelude::*;
use sqlarray_core::build;
use sqlarray_engine::{Database, EngineError, HostingModel, Session, Value};
use sqlarray_storage::{ColType, FailPlan, RowValue, Schema};
use std::collections::BTreeMap;

fn schema() -> Schema {
    Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ])
}

/// A session over table `T(id BIGINT, tag INT, v VARBINARY(MAX))` with
/// `rows` rows; row `k` carries a 5-element float vector seeded by `k`.
fn session(rows: i64) -> Session {
    let mut db = Database::new();
    db.create_table("T", schema()).unwrap();
    for k in 0..rows {
        let comps: Vec<f64> = (0..5).map(|i| k as f64 * 10.0 + i as f64).collect();
        let arr = build::short_vector(&comps).unwrap();
        db.insert(
            "T",
            k,
            &[
                RowValue::I64(k),
                RowValue::I32(k as i32),
                RowValue::Bytes(arr.into_blob()),
            ],
        )
        .unwrap();
    }
    db.commit();
    Session::with_hosting(db, HostingModel::free())
}

fn id_tag_rows(s: &mut Session) -> Vec<(i64, i32)> {
    let r = s.query("SELECT id, tag FROM T").unwrap();
    r.rows
        .iter()
        .map(|row| {
            let Value::I64(id) = row[0] else {
                panic!("id column must be BIGINT, got {:?}", row[0])
            };
            let Value::I32(tag) = row[1] else {
                panic!("tag column must be INT, got {:?}", row[1])
            };
            (id, tag)
        })
        .collect()
}

#[test]
fn update_and_delete_basic() {
    let mut s = session(10);
    let r = s
        .execute("UPDATE T SET tag = tag + 100 WHERE id < 4")
        .unwrap();
    assert_eq!(r.len(), 1);
    assert_eq!(r[0].stats.rows_affected, 4);
    assert!(r[0].rows.is_empty());

    let r = s.execute("DELETE FROM T WHERE id >= 7").unwrap();
    assert_eq!(r[0].stats.rows_affected, 3);

    assert_eq!(
        id_tag_rows(&mut s),
        vec![
            (0, 100),
            (1, 101),
            (2, 102),
            (3, 103),
            (4, 4),
            (5, 5),
            (6, 6)
        ]
    );

    // A WHERE that matches nothing affects nothing.
    let r = s.execute("UPDATE T SET tag = 0 WHERE id > 999").unwrap();
    assert_eq!(r[0].stats.rows_affected, 0);
    let r = s.execute("DELETE FROM T WHERE id > 999").unwrap();
    assert_eq!(r[0].stats.rows_affected, 0);

    // No WHERE touches every row.
    let r = s.execute("DELETE FROM T").unwrap();
    assert_eq!(r[0].stats.rows_affected, 7);
    assert!(id_tag_rows(&mut s).is_empty());
}

#[test]
fn update_can_read_other_columns_and_blobs() {
    let mut s = session(6);
    // SET references the row's own columns, including an array item.
    s.execute("UPDATE T SET tag = id * 2 + FloatArray.Item_1(v, 1) WHERE id % 2 = 0")
        .unwrap();
    assert_eq!(
        id_tag_rows(&mut s),
        vec![(0, 1), (1, 1), (2, 25), (3, 3), (4, 49), (5, 5)]
    );
}

#[test]
fn dml_wal_stream_is_dop_invariant() {
    // The same batch at DOP 1, 2, 4 and 8 must leave byte-identical
    // durable state: pages, checksums, free list and the WAL itself.
    let batch = "UPDATE T SET tag = tag + 1 WHERE id % 3 = 0;\
                 DELETE FROM T WHERE id % 7 = 2;\
                 UPDATE T SET v = FloatArray.Vector_2(id, tag) WHERE id < 40";
    let mut base = session(120);
    base.set_dop(1);
    base.execute(batch).unwrap();
    let want_rows = id_tag_rows(&mut base);
    let want_image = base.db().store.crash_image();
    for dop in [2usize, 4, 8] {
        let mut s = session(120);
        s.set_dop(dop);
        s.execute(batch).unwrap();
        assert_eq!(id_tag_rows(&mut s), want_rows, "rows differ at dop {dop}");
        let img = s.db().store.crash_image();
        assert_eq!(img.wal, want_image.wal, "WAL bytes differ at dop {dop}");
        assert_eq!(img, want_image, "disk image differs at dop {dop}");
    }
}

#[test]
fn array_update_rewrites_only_touched_chunks() {
    // The paper's ArrayUpdate path: patching a 0.78% slice of a 16 MiB
    // stored array must rewrite only the intersecting LOB chunk pages,
    // not the 2000+ pages of the whole chain.
    const N: usize = 2 * 1024 * 1024; // 16 MiB of f64
    const REPL: usize = N / 128; // 16384 elements = 128 KiB
    const OFF: usize = 524_288;
    let data: Vec<f64> = (0..N).map(|i| i as f64).collect();
    let mut db = Database::new();
    db.create_table("T", schema()).unwrap();
    let arr = build::max_vector(&data).unwrap();
    db.insert(
        "T",
        0,
        &[
            RowValue::I64(0),
            RowValue::I32(0),
            RowValue::Bytes(arr.into_blob()),
        ],
    )
    .unwrap();
    db.commit();
    let mut s = Session::with_hosting(db, HostingModel::free());

    let stored_before = s.db().table("T").unwrap().clone();
    let before = stored_before
        .get(&mut s.db_mut().store, 0)
        .unwrap()
        .unwrap();
    let RowValue::LobRef(id_before, len_before) = before[2] else {
        panic!(
            "a 16 MiB array must spill to a LOB chain, got {:?}",
            before[2]
        )
    };

    let repl: Vec<f64> = (0..REPL).map(|i| -(i as f64)).collect();
    s.set_var(
        "r",
        Value::Bytes(build::max_vector(&repl).unwrap().into_blob()),
    );
    let r = s
        .execute(&format!(
            "UPDATE T SET v = FloatArrayMax.ArrayUpdate(v, IntArray.Vector_1({OFF}), @r) \
             WHERE id = 0"
        ))
        .unwrap();
    assert_eq!(r[0].stats.rows_affected, 1);

    // 128 KiB spans ceil(131072 / 8176) = 17 chunks, 18 when the slice
    // straddles a boundary. Allow a little headroom, but nothing close
    // to the ~2052 pages a full rewrite takes.
    let written = r[0].stats.io.pages_written;
    assert!(
        (1..=24).contains(&written),
        "expected a bounded chunk rewrite, wrote {written} pages"
    );

    // The chain was patched in place: same LOB reference, same length.
    // (Two statements: chaining `s.db()` into `s.db_mut()` would hold the
    // read guard while taking the write lock — self-deadlock.)
    let stored_after = s.db().table("T").unwrap().clone();
    let after = stored_after.get(&mut s.db_mut().store, 0).unwrap().unwrap();
    assert_eq!(after[2], RowValue::LobRef(id_before, len_before));

    // Spot-check contents through SQL on both sides of the patch.
    for (idx, want) in [
        (0usize, 0.0),
        (OFF - 1, (OFF - 1) as f64),
        (OFF, 0.0),
        (OFF + 5, -5.0),
        (OFF + REPL - 1, -((REPL - 1) as f64)),
        (OFF + REPL, (OFF + REPL) as f64),
        (N - 1, (N - 1) as f64),
    ] {
        let got = s
            .query_scalar(&format!("SELECT FloatArrayMax.Item_1(v, {idx}) FROM T"))
            .unwrap();
        assert_eq!(got, Value::F64(want), "element {idx}");
    }
}

#[test]
fn array_update_fallback_path_matches() {
    // Small arrays stay inline (no LOB chain), so the in-place patch
    // can't apply and the executor falls back to the registered UDF —
    // results must be identical in kind.
    let mut s = session(3);
    s.execute("UPDATE T SET v = FloatArray.ArrayUpdate(v, IntArray.Vector_1(2), FloatArray.Vector_2(77.0, 88.0)) WHERE id = 1")
        .unwrap();
    let r = s
        .query("SELECT FloatArray.Item_1(v, 1), FloatArray.Item_1(v, 2), FloatArray.Item_1(v, 3), FloatArray.Item_1(v, 4) FROM T WHERE id = 1")
        .unwrap();
    assert_eq!(
        r.rows[0],
        vec![
            Value::F64(11.0),
            Value::F64(77.0),
            Value::F64(88.0),
            Value::F64(14.0)
        ]
    );
    // Out-of-bounds patches surface the UDF's typed error.
    let err = s
        .execute("UPDATE T SET v = FloatArray.ArrayUpdate(v, IntArray.Vector_1(4), FloatArray.Vector_2(1.0, 2.0)) WHERE id = 1")
        .unwrap_err();
    assert!(matches!(err, EngineError::Array(_)), "got {err:?}");
}

#[test]
fn dml_crash_recovery_through_sql() {
    // Statement-level autocommit: a crash mid-UPDATE rolls back to the
    // state before the statement; a crash after it keeps it.
    let mut s = session(20);
    let pre = id_tag_rows(&mut s);
    let pre_image = s.db().store.crash_image();

    // Crash with only part of the UPDATE's log durable.
    s.db_mut().store.arm_fail(FailPlan {
        allow_writes: 3,
        torn_bytes: 0,
    });
    s.execute("UPDATE T SET tag = tag + 500 WHERE id < 10")
        .unwrap();
    let crashed = s.db().store.crash_image();
    let db = Database::recover(&crashed).unwrap();
    let mut rec = Session::with_hosting(db, HostingModel::free());
    assert_eq!(
        id_tag_rows(&mut rec),
        pre,
        "partial statement must roll back"
    );

    // Replay the same statement without a crash: it persists.
    let db = Database::recover(&pre_image).unwrap();
    let mut s2 = Session::with_hosting(db, HostingModel::free());
    s2.execute("UPDATE T SET tag = tag + 500 WHERE id < 10")
        .unwrap();
    let post = id_tag_rows(&mut s2);
    assert_ne!(post, pre);
    let db = Database::recover(&s2.db().store.crash_image()).unwrap();
    let mut rec = Session::with_hosting(db, HostingModel::free());
    assert_eq!(
        id_tag_rows(&mut rec),
        post,
        "committed statement must survive"
    );
}

#[test]
fn dml_error_matrix() {
    let mut s = session(5);
    // Unknown table.
    let err = s.execute("UPDATE nope SET tag = 1").unwrap_err();
    assert!(matches!(err, EngineError::Unknown(_)), "got {err:?}");
    let err = s.execute("DELETE FROM nope").unwrap_err();
    assert!(matches!(err, EngineError::Unknown(_)), "got {err:?}");
    // Unknown SET column.
    let err = s.execute("UPDATE T SET nocol = 1").unwrap_err();
    assert!(matches!(err, EngineError::Unknown(_)), "got {err:?}");
    // Non-boolean WHERE.
    let err = s.execute("DELETE FROM T WHERE tag").unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "got {err:?}");
    let err = s.execute("UPDATE T SET tag = 0 WHERE id + 1").unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "got {err:?}");
    // A column set twice.
    let err = s.execute("UPDATE T SET tag = 1, tag = 2").unwrap_err();
    assert!(matches!(err, EngineError::Unsupported(_)), "got {err:?}");
    // INT overflow from a BIGINT expression.
    let err = s.execute("UPDATE T SET tag = 3000000000").unwrap_err();
    assert!(matches!(err, EngineError::Type(_)), "got {err:?}");
    // A failed statement must leave the table untouched.
    assert_eq!(
        id_tag_rows(&mut s),
        vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]
    );
}

// --- Model-based differential test ---------------------------------------

#[derive(Debug, Clone)]
enum Op {
    /// Insert key `k` (skipped when present).
    Insert(i64),
    /// `UPDATE T SET tag = <val> WHERE id = <k>`
    Point(i64, i32),
    /// `UPDATE T SET tag = tag + <val> WHERE id % 3 = <k % 3>`
    Sweep(i64, i32),
    /// `DELETE FROM T WHERE id = <k>`
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0i64..24, -1000i32..1000).prop_map(|(kind, k, val)| match kind {
        0 => Op::Insert(k),
        1 => Op::Point(k, val),
        2 => Op::Sweep(k, val),
        _ => Op::Delete(k),
    })
}

fn apply_sql(s: &mut Session, op: &Op) -> u64 {
    match op {
        Op::Insert(k) => {
            let mut db = s.db_mut();
            if let Some(t) = db.table("T") {
                let t = t.clone();
                if t.get(&mut db.store, *k).unwrap().is_some() {
                    return 0;
                }
            }
            let arr = build::short_vector(&[*k as f64]).unwrap();
            db.insert(
                "T",
                *k,
                &[
                    RowValue::I64(*k),
                    RowValue::I32(*k as i32),
                    RowValue::Bytes(arr.into_blob()),
                ],
            )
            .unwrap();
            db.commit();
            1
        }
        Op::Point(k, val) => {
            let r = s
                .execute(&format!("UPDATE T SET tag = {val} WHERE id = {k}"))
                .unwrap();
            r[0].stats.rows_affected
        }
        Op::Sweep(k, val) => {
            let r = s
                .execute(&format!(
                    "UPDATE T SET tag = tag + {val} WHERE id % 3 = {}",
                    k.rem_euclid(3)
                ))
                .unwrap();
            r[0].stats.rows_affected
        }
        Op::Delete(k) => {
            let r = s.execute(&format!("DELETE FROM T WHERE id = {k}")).unwrap();
            r[0].stats.rows_affected
        }
    }
}

fn apply_model(m: &mut BTreeMap<i64, i32>, op: &Op) -> u64 {
    match op {
        Op::Insert(k) => {
            if m.contains_key(k) {
                0
            } else {
                m.insert(*k, *k as i32);
                1
            }
        }
        Op::Point(k, val) => {
            if let Some(t) = m.get_mut(k) {
                *t = *val;
                1
            } else {
                0
            }
        }
        Op::Sweep(k, val) => {
            let mut n = 0;
            for (id, t) in m.iter_mut() {
                if id.rem_euclid(3) == k.rem_euclid(3) {
                    *t = t.wrapping_add(*val);
                    n += 1;
                }
            }
            n
        }
        Op::Delete(k) => u64::from(m.remove(k).is_some()),
    }
}

proptest! {
    #[test]
    fn dml_matches_in_memory_model(
        ops in vec(op_strategy(), 1..16),
        dop_pick in any::<u8>(),
    ) {
        let dop = [1usize, 2, 4, 8][(dop_pick % 4) as usize];
        let mut s = session(8);
        s.set_dop(dop);
        let mut model: BTreeMap<i64, i32> = (0..8).map(|k| (k, k as i32)).collect();
        for op in &ops {
            let got = apply_sql(&mut s, op);
            let want = apply_model(&mut model, op);
            prop_assert!(
                got == want,
                "rows_affected {} != model {} for {:?} at dop {}",
                got, want, op, dop
            );
            let rows = id_tag_rows(&mut s);
            let expect: Vec<(i64, i32)> = model.iter().map(|(&k, &t)| (k, t)).collect();
            prop_assert!(
                rows == expect,
                "table {:?} != model {:?} after {:?} at dop {}",
                rows, expect, op, dop
            );
        }
        // The final durable image round-trips through recovery.
        let db = Database::recover(&s.db().store.crash_image()).unwrap();
        let mut rec = Session::with_hosting(db, HostingModel::free());
        let rows = id_tag_rows(&mut rec);
        let expect: Vec<(i64, i32)> = model.iter().map(|(&k, &t)| (k, t)).collect();
        prop_assert!(rows == expect, "recovered {rows:?} != model {expect:?}");
    }
}
