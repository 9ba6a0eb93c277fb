//! `table1_scan`: the paper's own evaluation as a closed loop.
//!
//! One session at DOP = `nproc` runs rounds of nine statements over the
//! §6.2 tables (`Tscalar`, `Tvector`, ≈ 1 M rows each, ≈ 4.5× the 32 MB
//! buffer pool): the five Table 1 queries, the two batch-pipeline queries,
//! a scalar `GROUP BY` and a `VectorAvg` UDA `GROUP BY`. Every answer must
//! be bit-identical to a DOP-1 reference computed during set-up.
//!
//! The tables come from the shared `sqlarray-bench` fixture, whose values
//! are fixed; the seed picks the row count (1 000 000 + seed mod 1000),
//! the `GROUP BY` modulus and the statement order of every round.

use std::time::Instant;

use crate::layers::{publish_engine, publish_overhead, scan_raw_probe, Counters, CpuWall};
use crate::measure::{median, publish_slices, rng, shuffle, Outcome, Slice};
use crate::trace::SpanLog;
use crate::{span, Config, TraceData};
use sqlarray_bench::{
    build_table1_db_with_dop, rows_bit_identical, IngestReport, BATCH_QUERIES, TABLE1_QUERIES,
};
use sqlarray_core::batch::DEFAULT_BATCH_ROWS;
use sqlarray_engine::{HostingModel, QueryResult, Session, Value};
use sqlarray_storage::PAGE_SIZE;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// One statement of the round.
struct Stmt {
    kind: &'static str,
    sql: String,
    /// The table it scans (`exec.self_ms` subtracts its raw scan time).
    table: &'static str,
    /// `SELECT COUNT(*)`: the answer must equal the row count.
    counts_rows: bool,
}

fn statements(seed: u64) -> Vec<Stmt> {
    let m = 8 + seed % 8;
    let stmt = |kind, sql: &str, table, counts_rows| Stmt {
        kind,
        sql: sql.to_string(),
        table,
        counts_rows,
    };
    vec![
        stmt("q1_count_scalar", TABLE1_QUERIES[0], "Tscalar", true),
        stmt("q2_count_vector", TABLE1_QUERIES[1], "Tvector", true),
        stmt("q3_sum_scalar", TABLE1_QUERIES[2], "Tscalar", false),
        stmt("q4_item_udf", TABLE1_QUERIES[3], "Tvector", false),
        stmt("q5_empty_udf", TABLE1_QUERIES[4], "Tvector", false),
        stmt("batch_filter_heavy", BATCH_QUERIES[0].1, "Tscalar", false),
        stmt(
            "batch_aggregate_heavy",
            BATCH_QUERIES[1].1,
            "Tscalar",
            false,
        ),
        stmt(
            "group_by_scalar",
            &format!(
                "SELECT id % {m}, COUNT(*), SUM(v1), MAX(v2) FROM Tscalar WITH (NOLOCK) \
                 GROUP BY id % {m}"
            ),
            "Tscalar",
            false,
        ),
        stmt(
            "group_by_uda",
            &format!(
                "SELECT id % {m}, FloatArrayMax.VectorAvg(v) FROM Tvector WITH (NOLOCK) \
                 GROUP BY id % {m}"
            ),
            "Tvector",
            false,
        ),
    ]
}

/// A loaded database plus the DOP-1 reference answers.
struct Fixture {
    session: Session,
    rows: i64,
    reference: Vec<Vec<Vec<Value>>>,
    ingest: IngestReport,
    user_bytes: f64,
}

impl Fixture {
    fn correct(&self, stmts: &[Stmt], i: usize, r: &QueryResult) -> bool {
        rows_bit_identical(&r.rows, &self.reference[i])
            && (!stmts[i].counts_rows || r.rows == vec![vec![Value::I64(self.rows)]])
    }
}

/// Generated payload bytes of the two tables: `Tscalar` rows are an
/// `i64` key and five `f64`s; `Tvector` rows an `i64` key and a short
/// 5-vector blob.
fn user_bytes(rows: i64) -> f64 {
    let blob = sqlarray_core::build::short_vector(&[0.0f64; 5])
        .expect("5-vector fits a short array")
        .into_blob()
        .len();
    rows as f64 * ((8 + 5 * 8) + (8 + blob)) as f64
}

/// Load, reference answers at DOP 1, one warm-up round at DOP `nproc`.
fn setup(cfg: &Config, stmts: &[Stmt], rows: i64, out: &mut Outcome) -> Fixture {
    let (mut session, ingest) = build_table1_db_with_dop(rows, HostingModel::free(), cfg.nproc);
    session.set_batch_rows(DEFAULT_BATCH_ROWS);
    session.set_statement_timeout_ms(None);
    session.set_dop(1);
    let reference = stmts
        .iter()
        .map(|s| session.query(&s.sql).expect("reference query").rows)
        .collect();
    session.set_dop(cfg.nproc);
    let mut fx = Fixture {
        session,
        rows,
        reference,
        ingest,
        user_bytes: user_bytes(rows),
    };
    for i in 0..stmts.len() {
        let r = fx.session.query(&stmts[i].sql);
        let ok = r.as_ref().is_ok_and(|r| fx.correct(stmts, i, r));
        out.check(ok, || format!("warm-up {}: {r:?}", stmts[i].kind));
    }
    fx
}

/// What one measured window produced; each round is a slice.
#[derive(Default)]
struct Window {
    rounds: usize,
    wall_s: f64,
    slices: Vec<Slice>,
    cpu: CpuWall,
    /// Per statement: wall milliseconds of each execution.
    wall_ms: Vec<Vec<f64>>,
}

impl Window {
    fn new(statements: usize) -> Window {
        Window {
            wall_ms: vec![Vec::new(); statements],
            ..Window::default()
        }
    }
}

/// Runs round number `idx` (its statement order is seeded by the seed and
/// `idx`) and adds it to `w`.
fn round(
    fx: &mut Fixture,
    stmts: &[Stmt],
    seed: u64,
    idx: u64,
    log: &mut SpanLog,
    w: &mut Window,
    out: &mut Outcome,
) {
    let mut order: Vec<usize> = (0..stmts.len()).collect();
    shuffle(&mut rng(seed, 1000 + idx), &mut order);
    let mut slice = Slice::default();
    let start = Instant::now();
    for i in order {
        let req = log.enter(span::REQUEST);
        let t0 = Instant::now();
        let r = log.leaf(span::QUERY, || fx.session.query(&stmts[i].sql));
        let secs = t0.elapsed().as_secs_f64();
        let chk = log.enter(span::CHECK);
        let ok = r.as_ref().is_ok_and(|r| fx.correct(stmts, i, r));
        out.check(ok, || format!("{}: {r:?}", stmts[i].kind));
        log.exit(chk);
        log.exit(req);
        if let Ok(r) = &r {
            slice.push(stmts[i].kind, secs, r.stats.rows_scanned);
            w.cpu.add(&r.stats);
            w.wall_ms[i].push(secs * 1e3);
        }
    }
    slice.wall_s = start.elapsed().as_secs_f64();
    w.wall_s += slice.wall_s;
    w.slices.push(slice);
    w.rounds += 1;
}

/// One round in statement order from a cold pool: the unit whose counters
/// must repeat exactly.
fn count_unit(fx: &mut Fixture, stmts: &[Stmt], out: &mut Outcome) -> Counters {
    let mut c = Counters::default();
    fx.session.db().store.clear_cache();
    let io0 = fx.session.db().store.stats();
    let hits0 = fx.session.engine().stats().plans.hits;
    for (i, s) in stmts.iter().enumerate() {
        let r = fx.session.query(&s.sql);
        let ok = r.as_ref().is_ok_and(|r| fx.correct(stmts, i, r));
        out.check(ok, || format!("count unit {}: {r:?}", s.kind));
        if let Ok(r) = r {
            c.add(&r.stats);
        }
    }
    c.io = fx.session.db().store.stats().since(&io0);
    c.plan_hits = fx.session.engine().stats().plans.hits - hits0;
    c
}

/// Runs the workload.
pub fn run(cfg: &Config) -> (Outcome, TraceData) {
    let mut out = Outcome::default();
    let stmts = statements(cfg.seed);
    let rows = 1_000_000 + (cfg.seed % 1000) as i64;

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut loads = Vec::with_capacity(SETUPS);
    let mut fx = None;
    for _ in 0..SETUPS {
        drop(fx.take());
        let t0 = Instant::now();
        let f = setup(cfg, &stmts, rows, &mut out);
        setup_s.push(t0.elapsed().as_secs_f64());
        loads.push(f.ingest.wall_seconds);
        fx = Some(f);
    }
    let mut fx = fx.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.note(format!(
        "set-ups (s): {setup_s:.3?}; loads (s): {loads:.3?}"
    ));
    out.set("write_p50_ms", median(&loads) * 1e3);
    out.set(
        "ingest_rows_per_s",
        median(
            &loads
                .iter()
                .map(|s| 2.0 * rows as f64 / s)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "wal_bytes_per_user_byte",
        fx.ingest.io.wal_bytes as f64 / fx.user_bytes,
    );
    out.set(
        "store_bytes_per_user_byte",
        (fx.ingest.page_count * PAGE_SIZE as u64) as f64 / fx.user_bytes,
    );

    let mut traced = TraceData::default();
    if !cfg.trace {
        let mut quiet = SpanLog::new(false, cfg.epoch, 0);
        let mut w = Window::new(stmts.len());
        let start = Instant::now();
        while w.rounds == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
            let idx = w.rounds as u64;
            round(&mut fx, &stmts, cfg.seed, idx, &mut quiet, &mut w, &mut out);
        }
        out.note(format!("{} rounds in {:.3} s", w.rounds, w.wall_s));
        publish_slices(&w.slices, &[], &mut out);
        return (out, traced);
    }

    // Traced run: every round runs both untraced and traced, alternating
    // which goes first, so the two see the same work and the same drift.
    let mut quiet = SpanLog::new(false, cfg.epoch, 0);
    let mut log = SpanLog::new(true, cfg.epoch, 0);
    let (mut plain, mut w) = (Window::new(stmts.len()), Window::new(stmts.len()));
    let e0 = fx.session.engine().stats();
    let start = Instant::now();
    while w.rounds == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let idx = w.rounds as u64;
        let odd = idx & 1 == 1;
        for traced in [odd, !odd] {
            let (l, win) = if traced {
                (&mut log, &mut w)
            } else {
                (&mut quiet, &mut plain)
            };
            round(&mut fx, &stmts, cfg.seed, idx, l, win, &mut out);
        }
    }
    let e1 = fx.session.engine().stats();
    publish_engine(&e0, &e1, &mut out);
    publish_overhead(plain.wall_s, w.wall_s, &mut out);
    out.note(format!("traced window: {} rounds", w.rounds));
    out.set("exec.parallel_efficiency", w.cpu.efficiency());

    let a = count_unit(&mut fx, &stmts, &mut out);
    let b = count_unit(&mut fx, &stmts, &mut out);
    a.publish(&b, &mut out);

    // Probes: raw storage scans, direct UDF calls, prepare.
    let probe = log.enter(span::PROBE);
    let scan_ms = ["Tscalar", "Tvector"].map(|t| {
        let engine = fx.session.engine();
        (
            t,
            scan_raw_probe(engine, t, fx.rows as u64, 3, &mut log, &mut out),
        )
    });
    log.exit(probe);
    out.note(format!("scan_raw medians (ms): {scan_ms:.3?}"));
    out.set(
        "storage.scan_raw_ms",
        scan_ms.iter().map(|(_, ms)| ms).sum(),
    );
    let self_ms: Vec<f64> = stmts
        .iter()
        .zip(&w.wall_ms)
        .map(|(s, wall)| {
            let scan = scan_ms
                .iter()
                .find(|(t, _)| *t == s.table)
                .map_or(0.0, |x| x.1);
            // Negative when the statement's parallel scan beats the
            // one-thread raw scan.
            let own = median(wall) - scan;
            out.note(format!("exec self {:<22} {own:>9.3} ms", s.kind));
            own
        })
        .collect();
    out.set(
        "exec.self_ms",
        self_ms.iter().sum::<f64>() / self_ms.len() as f64,
    );
    udf_probe(&mut fx, &mut log, &mut out);
    let prep = log.enter(span::PROBE);
    let mut prepare_us = Vec::new();
    for _ in 0..50 {
        for s in &stmts {
            let t0 = Instant::now();
            let p = log.leaf(span::PREPARE, || fx.session.prepare(&s.sql));
            prepare_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.check(p.is_ok(), || format!("prepare {}", s.kind));
        }
    }
    log.exit(prep);
    out.set("tsql.prepare_us", median(&prepare_us));

    out.set("table.bulk_load_ms", median(&loads) * 1e3);
    out.idle("store.commit_ms", "the fixture load does not commit");
    out.idle(
        "blob.pages_per_cutout",
        "no LOB column: Tvector arrays are in-row",
    );
    out.idle(
        "blob.useful_byte_ratio",
        "no LOB column: Tvector arrays are in-row",
    );
    out.idle("core.subarray_us", "no subarray in the statements");
    out.idle("fft.power_spectrum_us", "no FFT in the statements");
    out.idle("linalg.gesvd_us", "no SVD in the statements");

    log.drain_into(&mut traced.spans);
    traced.window_ns = (w.wall_s * 1e9) as u64;
    traced.roots = vec![span::REQUEST];
    (out, traced)
}

/// Direct `UdfRegistry::call` on `Tvector` blobs: `Item_1` (Q4's
/// function) against `EmptyFunction` (Q5's), so item extraction is their
/// difference per call, free of scan and hosting cost.
fn udf_probe(fx: &mut Fixture, log: &mut SpanLog, out: &mut Outcome) {
    let blobs: Vec<[Value; 2]> = fx
        .session
        .query("SELECT v FROM Tvector WHERE id < 20000")
        .expect("blob sample")
        .rows
        .into_iter()
        .map(|mut r| [r.swap_remove(0), Value::I64(0)])
        .collect();
    let want: Vec<Value> = blobs
        .iter()
        .map(|[b, _]| {
            let a = b.as_array().expect("stored 5-vector");
            Value::F64(a.item_as::<f64>(&[0]).expect("element 0"))
        })
        .collect();
    let udfs = fx.session.udfs();
    let mut hosting = HostingModel::free();
    let probe = log.enter(span::PROBE);
    let (mut item_ns, mut empty_ns) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        for (name, samples) in [
            ("FloatArray.Item_1", &mut item_ns),
            ("dbo.EmptyFunction", &mut empty_ns),
        ] {
            let t0 = Instant::now();
            let got: Vec<_> = log.leaf(span::UDF_CALL, || {
                blobs
                    .iter()
                    .map(|args| udfs.call(name, args, &mut hosting))
                    .collect()
            });
            samples.push(t0.elapsed().as_secs_f64() * 1e9 / blobs.len() as f64);
            let ok = got.iter().zip(&want).all(|(g, w)| match g {
                Ok(v) if name.starts_with("dbo") => *v == Value::F64(0.0),
                Ok(v) => v == w,
                Err(_) => false,
            });
            out.check(ok && !got.is_empty(), || format!("direct {name} calls"));
        }
    }
    log.exit(probe);
    let (item, empty) = (median(&item_ns), median(&empty_ns));
    out.set("udf.item_call_ns", item);
    out.set("udf.empty_call_ns", empty);
    out.set("udf.item_extract_ns", item - empty);
}
