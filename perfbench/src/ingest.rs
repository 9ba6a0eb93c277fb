//! `ingest_dml`: the write path as a closed loop.
//!
//! One session repeats a cycle: bulk-load a fresh database (`Tscalar` and
//! `Tvector`, 200 k rows each, at DOP = `nproc`) and commit; then run
//! seeded `UPDATE … WHERE id % 100 = k` and `DELETE … WHERE id % 100 = k'`
//! statements, each followed by a verifying aggregate. Every generated
//! value is a small integer stored as `f64`, so every `COUNT`/`SUM` has an
//! exact closed form at any DOP. Once per run, after the window, a crash
//! image of the last cycle is recovered and must give the same answers.

use std::time::Instant;

use crate::layers::{fresh_db, publish_engine, scan_raw_probe, Counters, CpuWall};
use crate::measure::{median, publish_slices, rng, shuffle, Outcome, Slice};
use crate::trace::SpanLog;
use crate::{span, Config, TraceData};
use sqlarray_core::rng::{Rng as _, StdRng};
use sqlarray_engine::{Database, HostingModel, QueryResult, Session, Value};
use sqlarray_storage::{ColType, IoStats, RowValue, Schema};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const ROWS: i64 = 200_000;
/// DML predicates select one residue class of `id % MODULUS`.
const MODULUS: usize = 100;

/// Generated rows plus the per-residue sums the checks need.
struct Data {
    scalar: Vec<(i64, Vec<RowValue>)>,
    vector: Vec<(i64, Vec<RowValue>)>,
    /// Rows per residue class.
    count: [i64; MODULUS],
    /// Σ `v1` (= `Tvector` element 0) per residue class.
    sum_v1: [i64; MODULUS],
    user_bytes: f64,
}

fn generate(seed: u64) -> Data {
    let mut rng = rng(seed, 20);
    let mut count = [0i64; MODULUS];
    let mut sum_v1 = [0i64; MODULUS];
    let mut scalar = Vec::with_capacity(ROWS as usize);
    let mut vector = Vec::with_capacity(ROWS as usize);
    let mut user_bytes = 0usize;
    for k in 0..ROWS {
        let comps: [f64; 5] = std::array::from_fn(|_| rng.gen_range(0..1000u32) as f64);
        let r = k as usize % MODULUS;
        count[r] += 1;
        sum_v1[r] += comps[0] as i64;
        let mut row = Vec::with_capacity(6);
        row.push(RowValue::I64(k));
        row.extend(comps.iter().map(|&c| RowValue::F64(c)));
        scalar.push((k, row));
        let blob = sqlarray_core::build::short_vector(&comps)
            .expect("5-vector fits a short array")
            .into_blob();
        user_bytes += (8 + 5 * 8) + (8 + blob.len());
        vector.push((k, vec![RowValue::I64(k), RowValue::Bytes(blob)]));
    }
    Data {
        scalar,
        vector,
        count,
        sum_v1,
        user_bytes: user_bytes as f64,
    }
}

/// The answers a cycle's database must give, kept in step with its DML.
#[derive(Clone)]
struct Expected {
    scalar_alive: [bool; MODULUS],
    vector_alive: [bool; MODULUS],
    /// Net amount added to `v1` per residue class.
    v1_delta: [i64; MODULUS],
}

impl Expected {
    fn new() -> Expected {
        Expected {
            scalar_alive: [true; MODULUS],
            vector_alive: [true; MODULUS],
            v1_delta: [0; MODULUS],
        }
    }

    /// Rows `table` holds.
    fn rows(&self, table: &str, d: &Data) -> u64 {
        let alive = if table == "Tscalar" {
            &self.scalar_alive
        } else {
            &self.vector_alive
        };
        (0..MODULUS)
            .filter(|&r| alive[r])
            .map(|r| d.count[r] as u64)
            .sum()
    }

    fn scalar(&self, d: &Data) -> Vec<Vec<Value>> {
        let (mut n, mut sum) = (0i64, 0i64);
        for r in (0..MODULUS).filter(|&r| self.scalar_alive[r]) {
            n += d.count[r];
            sum += d.sum_v1[r] + self.v1_delta[r] * d.count[r];
        }
        vec![vec![Value::I64(n), Value::F64(sum as f64)]]
    }

    fn vector(&self, d: &Data) -> Vec<Vec<Value>> {
        let (mut n, mut sum) = (0i64, 0i64);
        for r in (0..MODULUS).filter(|&r| self.vector_alive[r]) {
            n += d.count[r];
            sum += d.sum_v1[r];
        }
        vec![vec![Value::I64(n), Value::F64(sum as f64)]]
    }
}

const CHECK_SCALAR: &str = "SELECT COUNT(*), SUM(v1) FROM Tscalar";
const CHECK_VECTOR: &str = "SELECT COUNT(*), SUM(FloatArray.Item_1(v, 0)) FROM Tvector";

/// One DML statement of a cycle.
#[derive(Debug, Clone, Copy)]
enum Dml {
    /// `UPDATE Tscalar SET v1 = v1 + delta WHERE id % 100 = r`.
    Update { r: usize, delta: i64 },
    /// `DELETE FROM Tscalar WHERE id % 100 = r`.
    DeleteScalar { r: usize },
    /// `DELETE FROM Tvector WHERE id % 100 = r`.
    DeleteVector { r: usize },
}

impl Dml {
    fn sql(self) -> String {
        match self {
            Dml::Update { r, delta } => {
                format!("UPDATE Tscalar SET v1 = v1 + {delta} WHERE id % {MODULUS} = {r}")
            }
            Dml::DeleteScalar { r } => format!("DELETE FROM Tscalar WHERE id % {MODULUS} = {r}"),
            Dml::DeleteVector { r } => format!("DELETE FROM Tvector WHERE id % {MODULUS} = {r}"),
        }
    }

    fn kind(self) -> &'static str {
        match self {
            Dml::Update { .. } => "update",
            Dml::DeleteScalar { .. } | Dml::DeleteVector { .. } => "delete",
        }
    }

    fn apply(self, e: &mut Expected) {
        match self {
            Dml::Update { r, delta } => e.v1_delta[r] += delta,
            Dml::DeleteScalar { r } => e.scalar_alive[r] = false,
            Dml::DeleteVector { r } => e.vector_alive[r] = false,
        }
    }

    /// The table the statement scans and changes.
    fn table(self) -> &'static str {
        match self {
            Dml::DeleteVector { .. } => "Tvector",
            Dml::Update { .. } | Dml::DeleteScalar { .. } => "Tscalar",
        }
    }
}

/// Four DML statements on four distinct residue classes.
fn cycle_dml(rng: &mut StdRng) -> [Dml; 4] {
    let mut classes: Vec<usize> = (0..MODULUS).collect();
    shuffle(rng, &mut classes);
    [
        Dml::Update {
            r: classes[0],
            delta: rng.gen_range(1..=9),
        },
        Dml::DeleteScalar { r: classes[1] },
        Dml::DeleteVector { r: classes[2] },
        Dml::Update {
            r: classes[3],
            delta: -rng.gen_range(1..=9i64),
        },
    ]
}

/// What one cycle measured.
struct Cycle {
    session: Session,
    expected: Expected,
    load_s: f64,
    commit_s: f64,
    load_io: IoStats,
    file_bytes: u64,
}

/// Accumulates a window's statements; each cycle is a slice.
#[derive(Default)]
struct Tally {
    slices: Vec<Slice>,
    cpu: CpuWall,
    /// `(table, wall ms)` of every DML statement.
    dml_ms: Vec<(&'static str, f64)>,
    counters: Counters,
}

impl Tally {
    fn add(&mut self, kind: &'static str, secs: f64, r: &QueryResult) {
        self.slices
            .last_mut()
            .expect("a cycle opened a slice")
            .push(kind, secs, r.stats.rows_scanned);
        self.cpu.add(&r.stats);
        self.counters.add(&r.stats);
    }
}

/// Runs one cycle: load, commit, DML with verifying aggregates.
fn cycle(
    d: &Data,
    cfg: &Config,
    rng: &mut StdRng,
    log: &mut SpanLog,
    tally: &mut Tally,
    out: &mut Outcome,
) -> Cycle {
    let root = log.enter(span::CYCLE);
    let start = Instant::now();
    tally.slices.push(Slice::default());
    let mut db = fresh_db();
    for (name, schema) in [
        (
            "Tscalar",
            Schema::new(&[
                ("id", ColType::I64),
                ("v1", ColType::F64),
                ("v2", ColType::F64),
                ("v3", ColType::F64),
                ("v4", ColType::F64),
                ("v5", ColType::F64),
            ]),
        ),
        (
            "Tvector",
            Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]),
        ),
    ] {
        db.create_table(name, schema).expect("fresh database");
    }
    let t0 = Instant::now();
    for (name, rows) in [("Tscalar", &d.scalar), ("Tvector", &d.vector)] {
        let r = log.leaf(span::BULK_INSERT, || {
            db.bulk_insert_with_dop(name, rows, cfg.nproc)
        });
        out.check(r.is_ok(), || format!("bulk load {name}: {r:?}"));
    }
    let load_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    log.leaf(span::COMMIT, || db.commit());
    let commit_s = t0.elapsed().as_secs_f64();
    let load_io = db.store.stats();
    let file_bytes = db.store.file_bytes();

    let mut session = Session::with_hosting(db, HostingModel::free());
    session.set_dop(cfg.nproc);
    session.set_statement_timeout_ms(None);
    let mut expected = Expected::new();
    for dml in cycle_dml(rng) {
        let sql = dml.sql();
        let t0 = Instant::now();
        let r = log.leaf(span::EXECUTE, || session.execute(&sql));
        let secs = t0.elapsed().as_secs_f64();
        let r = r.map(|mut v| v.swap_remove(0));
        dml.apply(&mut expected);
        let want_rows = match dml {
            Dml::Update { r, .. } | Dml::DeleteScalar { r } | Dml::DeleteVector { r } => {
                d.count[r] as u64
            }
        };
        let ok = r.as_ref().is_ok_and(|r| r.stats.rows_affected == want_rows);
        out.check(ok, || format!("{sql}: {r:?}"));
        if let Ok(r) = &r {
            tally.add(dml.kind(), secs, r);
            tally.dml_ms.push((dml.table(), secs * 1e3));
        }

        let (check_sql, kind, want) = if dml.table() == "Tscalar" {
            (CHECK_SCALAR, "aggregate_scalar", expected.scalar(d))
        } else {
            (CHECK_VECTOR, "aggregate_vector", expected.vector(d))
        };
        let t0 = Instant::now();
        let r = log.leaf(span::QUERY, || session.query(check_sql));
        let secs = t0.elapsed().as_secs_f64();
        let chk = log.enter(span::CHECK);
        let ok = r.as_ref().is_ok_and(|r| r.rows == want);
        log.exit(chk);
        out.check(ok, || {
            format!("{check_sql} after {sql}: {r:?}, want {want:?}")
        });
        if let Ok(r) = &r {
            tally.add(kind, secs, r);
        }
    }
    log.exit(root);
    if let Some(s) = tally.slices.last_mut() {
        s.wall_s = start.elapsed().as_secs_f64();
    }
    Cycle {
        session,
        expected,
        load_s,
        commit_s,
        load_io,
        file_bytes,
    }
}

/// What a window of cycles produced.
#[derive(Default)]
struct Window {
    cycles: usize,
    wall_s: f64,
    tally: Tally,
    loads_s: Vec<f64>,
    commits_s: Vec<f64>,
    last: Option<Cycle>,
}

impl Window {
    /// Runs cycle number `idx` (its DML is seeded by the seed and `idx`)
    /// and adds it to the window, keeping the cycle's database as `last`.
    fn cycle(&mut self, d: &Data, cfg: &Config, idx: u64, log: &mut SpanLog, out: &mut Outcome) {
        drop(self.last.take());
        let t0 = Instant::now();
        let c = cycle(
            d,
            cfg,
            &mut rng(cfg.seed, 1000 + idx),
            log,
            &mut self.tally,
            out,
        );
        self.wall_s += t0.elapsed().as_secs_f64();
        self.cycles += 1;
        self.loads_s.push(c.load_s);
        self.commits_s.push(c.commit_s);
        self.last = Some(c);
    }
}

/// Crash image of `c` → `Database::recover` → the same answers.
fn recover_check(d: &Data, c: &Cycle, log: &mut SpanLog, out: &mut Outcome) {
    let r = log.leaf(span::RECOVER, || {
        let image = c.session.db().store.crash_image();
        Database::recover(&image)
    });
    let Ok(db) = r else {
        out.check(false, || format!("recover: {:?}", r.err()));
        return;
    };
    let mut s = Session::with_hosting(db, HostingModel::free());
    for (sql, want) in [
        (CHECK_SCALAR, c.expected.scalar(d)),
        (CHECK_VECTOR, c.expected.vector(d)),
    ] {
        let got = s.query(sql);
        let ok = got.as_ref().is_ok_and(|g| g.rows == want);
        out.check(ok, || {
            format!("after recovery {sql}: {got:?}, want {want:?}")
        });
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> (Outcome, TraceData) {
    let mut out = Outcome::default();
    let mut traced = TraceData::default();
    let mut quiet = SpanLog::new(false, cfg.epoch, 0);

    let mut setup_s = Vec::new();
    let mut data = None;
    for _ in 0..SETUPS {
        drop(data.take());
        let t0 = Instant::now();
        let d = generate(cfg.seed);
        let mut warm = Tally::default();
        let c = cycle(
            &d,
            cfg,
            &mut rng(cfg.seed, 2),
            &mut quiet,
            &mut warm,
            &mut out,
        );
        drop(c);
        setup_s.push(t0.elapsed().as_secs_f64());
        data = Some(d);
    }
    let d = data.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));
    out.note(format!("set-ups (s): {setup_s:.3?}"));

    // A traced run runs every cycle both untraced and traced, alternating
    // which goes first, so the two see the same work and the same drift.
    let mut log = SpanLog::new(cfg.trace, cfg.epoch, 0);
    let (mut plain, mut w) = (Window::default(), Window::default());
    let start = Instant::now();
    while w.cycles == 0 || start.elapsed().as_secs_f64() < cfg.seconds {
        let idx = w.cycles as u64;
        let odd = idx & 1 == 1;
        if cfg.trace && !odd {
            plain.cycle(&d, cfg, idx, &mut quiet, &mut out);
        }
        w.cycle(&d, cfg, idx, &mut log, &mut out);
        if cfg.trace && odd {
            plain.cycle(&d, cfg, idx, &mut quiet, &mut out);
        }
    }
    if cfg.trace {
        crate::layers::publish_overhead(plain.wall_s, w.wall_s, &mut out);
    }
    let last = w.last.as_ref().expect("at least one cycle");

    let t = &w.tally;
    let loads: Vec<f64> = w
        .loads_s
        .iter()
        .zip(&w.commits_s)
        .map(|(l, c)| l + c)
        .collect();
    out.note(format!("{} cycles in {:.3} s", w.cycles, w.wall_s));
    publish_slices(&t.slices, &["update", "delete"], &mut out);
    out.set(
        "ingest_rows_per_s",
        median(
            &loads
                .iter()
                .map(|s| 2.0 * ROWS as f64 / s)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "wal_bytes_per_user_byte",
        last.load_io.wal_bytes as f64 / d.user_bytes,
    );
    out.set(
        "store_bytes_per_user_byte",
        last.file_bytes as f64 / d.user_bytes,
    );
    out.note(format!("bulk load + commit (s): {loads:.3?}"));

    let probe = log.enter(span::PROBE);
    recover_check(&d, last, &mut log, &mut out);
    log.exit(probe);
    if !cfg.trace {
        return (out, traced);
    }

    out.set("exec.parallel_efficiency", t.cpu.efficiency());
    out.set("table.bulk_load_ms", median(&w.loads_s) * 1e3);
    out.set("store.commit_ms", median(&w.commits_s) * 1e3);
    // Counter repeatability: the first cycle of the stream, twice.
    let unit = |out: &mut Outcome| {
        let mut tally = Tally::default();
        let mut quiet = SpanLog::new(false, cfg.epoch, 0);
        let c = cycle(
            &d,
            cfg,
            &mut rng(cfg.seed, 1000),
            &mut quiet,
            &mut tally,
            out,
        );
        let mut counters = tally.counters;
        counters.io = c.session.db().store.stats();
        counters.plan_hits = c.session.engine().stats().plans.hits;
        counters
    };
    let a = unit(&mut out);
    let b = unit(&mut out);
    a.publish(&b, &mut out);

    let (expected, last) = (&last.expected, &last.session);
    let e0 = sqlarray_engine::EngineStats::default();
    publish_engine(&e0, &last.engine().stats(), &mut out);
    out.note("plan cache and scheduler: the last cycle's engine (each cycle has its own)");
    let probe = log.enter(span::PROBE);
    let scan_ms = ["Tscalar", "Tvector"].map(|t| {
        let rows = expected.rows(t, &d);
        (
            t,
            scan_raw_probe(last.engine(), t, rows, 5, &mut log, &mut out),
        )
    });
    out.note(format!("scan_raw medians (ms): {scan_ms:.3?}"));
    out.set(
        "storage.scan_raw_ms",
        scan_ms.iter().map(|(_, ms)| ms).sum(),
    );
    let own: Vec<f64> = t
        .dml_ms
        .iter()
        .map(|(table, ms)| {
            let scan = scan_ms
                .iter()
                .find(|(s, _)| s == table)
                .map_or(0.0, |x| x.1);
            ms - scan
        })
        .collect();
    out.set("exec.self_ms", median(&own));

    let mut rng = rng(cfg.seed, 23);
    let mut us = Vec::new();
    for _ in 0..100 {
        for dml in cycle_dml(&mut rng) {
            let sql = dml.sql();
            let t0 = Instant::now();
            let r = log.leaf(span::PREPARE, || last.prepare(&sql));
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.check(r.is_ok(), || format!("prepare {sql}"));
        }
    }
    out.set("tsql.prepare_us", median(&us));
    log.exit(probe);

    for (name, why) in [
        ("udf.item_call_ns", "measured on table1_scan"),
        ("udf.empty_call_ns", "measured on table1_scan"),
        ("udf.item_extract_ns", "measured on table1_scan"),
        (
            "blob.pages_per_cutout",
            "no LOB column: Tvector arrays are in-row",
        ),
        (
            "blob.useful_byte_ratio",
            "no LOB column: Tvector arrays are in-row",
        ),
        ("core.subarray_us", "no subarray in the statements"),
        ("fft.power_spectrum_us", "no FFT in the statements"),
        ("linalg.gesvd_us", "no SVD in the statements"),
    ] {
        out.idle(name, why);
    }
    log.drain_into(&mut traced.spans);
    traced.window_ns = (w.wall_s * 1e9) as u64;
    traced.roots = vec![span::CYCLE];
    (out, traced)
}
