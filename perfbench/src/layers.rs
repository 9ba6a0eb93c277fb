//! Per-layer bookkeeping shared by the workloads: the database they all
//! build on, counter sums over a fixed unit of work, the raw-scan probe,
//! and the span analysis every traced run ends with.

use std::time::Instant;

use crate::measure::{median, ratio, Outcome};
use crate::trace::SpanLog;
use crate::{span, TraceData};
use sqlarray_engine::{Database, Engine, EngineStats, QueryStats};
use sqlarray_storage::{DiskProfile, IoStats, PageStore};

/// Buffer-pool pages of every database the workloads build (the fixture
/// default: 32 MB).
pub const POOL_PAGES: usize = 4096;

/// An empty database on a store with the fixture buffer pool.
pub fn fresh_db() -> Database {
    Database::with_store(PageStore::with_pool(POOL_PAGES, DiskProfile::default()))
}

/// Median of `passes` full `Table::scan_raw` passes over `table`, in ms.
/// Each pass holds the engine's write guard (the scan needs the store
/// exclusively) and must visit exactly `rows` rows.
pub fn scan_raw_probe(
    engine: &Engine,
    table: &str,
    rows: u64,
    passes: usize,
    log: &mut SpanLog,
    out: &mut Outcome,
) -> f64 {
    let t = engine.db().table(table).expect("probed table").clone();
    let mut ms = Vec::with_capacity(passes);
    for _ in 0..passes {
        let mut db = engine.db_mut();
        let mut n = 0u64;
        let t0 = Instant::now();
        let r = log.leaf(span::SCAN_RAW, || {
            t.scan_raw(&mut db.store, |_, _| {
                n += 1;
                Ok(true)
            })
        });
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.check(r.is_ok() && n == rows, || {
            format!("scan_raw {table}: {n} rows, want {rows}")
        });
    }
    median(&ms)
}

/// Counters summed over the statements of one unit of work. Everything
/// here except the CPU/wall seconds repeats exactly for one seed at one
/// DOP, and is compared across two executions of the unit.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    /// Statements executed.
    pub statements: u64,
    /// `QueryStats::rows_scanned`, summed.
    pub rows_scanned: u64,
    /// Rows scanned by statements that ran on the batch path.
    pub batch_rows: u64,
    /// `QueryStats::batches`, summed.
    pub batches: u64,
    /// `QueryStats::udf_calls`, summed.
    pub udf_calls: u64,
    /// `QueryStats::rows_affected`, summed.
    pub rows_changed: u64,
    /// Page-store counter delta over the unit.
    pub io: IoStats,
    /// Plan-cache hits over the unit.
    pub plan_hits: u64,
}

impl Counters {
    /// Folds one statement's stats in.
    pub fn add(&mut self, s: &QueryStats) {
        self.statements += 1;
        self.rows_scanned += s.rows_scanned;
        if s.batches > 0 {
            self.batch_rows += s.rows_scanned;
        }
        self.batches += s.batches;
        self.udf_calls += s.udf_calls;
        self.rows_changed += s.rows_affected;
    }

    /// The report line for the repeatability check.
    pub fn describe(&self) -> String {
        format!(
            "statements {} rows_scanned {} batches {} udf_calls {} rows_changed {} \
             pages_read {} pool_hits {} pages_written {} wal_records {} wal_bytes {} plan_hits {}",
            self.statements,
            self.rows_scanned,
            self.batches,
            self.udf_calls,
            self.rows_changed,
            self.io.pages_read,
            self.io.cache_hits,
            self.io.pages_written,
            self.io.wal_records,
            self.io.wal_bytes,
            self.plan_hits
        )
    }

    /// Sets the counter metrics of the unit and checks that a second
    /// execution (`again`) produced identical counts.
    pub fn publish(&self, again: &Counters, out: &mut Outcome) {
        out.note(format!("count unit: {}", self.describe()));
        let same = self == again;
        if !same {
            out.note(format!("count unit again: {}", again.describe()));
        }
        out.require(same, "deterministic counters differ between two executions");
        out.set("counters.repeat_ok", f64::from(u8::from(same)));
        out.set("exec.rows_scanned", self.rows_scanned as f64);
        out.set("batch.batches", self.batches as f64);
        out.set(
            "batch.row_share",
            ratio(self.batch_rows as f64, self.rows_scanned as f64),
        );
        out.set(
            "batch.fill",
            ratio(self.batch_rows as f64, self.batches as f64),
        );
        out.set("udf.calls", self.udf_calls as f64);
        out.set("pool.hit_ratio", self.io.hit_ratio());
        out.set("pool.hits", self.io.cache_hits as f64);
        out.set("store.pages_read", self.io.pages_read as f64);
        out.set(
            "store.random_read_share",
            ratio(self.io.random_reads as f64, self.io.pages_read as f64),
        );
        out.set(
            "store.sim_io_s",
            DiskProfile::default().io_seconds(&self.io),
        );
        out.set("store.pages_written", self.io.pages_written as f64);
        out.set("wal.records", self.io.wal_records as f64);
        out.set("wal.bytes", self.io.wal_bytes as f64);
        if self.rows_changed > 0 {
            out.set(
                "wal.bytes_per_row_changed",
                self.io.wal_bytes as f64 / self.rows_changed as f64,
            );
        } else {
            out.idle("wal.bytes_per_row_changed", "the workload changes no rows");
        }
    }
}

/// CPU and wall seconds of measured statements, for parallel efficiency.
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuWall {
    /// Σ `cpu_seconds`.
    pub cpu_s: f64,
    /// Σ `wall_seconds × dop`.
    pub capacity_s: f64,
}

impl CpuWall {
    /// Folds one statement in.
    pub fn add(&mut self, s: &QueryStats) {
        self.cpu_s += s.cpu_seconds;
        self.capacity_s += s.wall_seconds * s.dop.max(1) as f64;
    }

    /// `cpu_seconds ÷ (wall_seconds × dop)`.
    pub fn efficiency(&self) -> f64 {
        ratio(self.cpu_s, self.capacity_s)
    }
}

/// Sets the plan-cache and scheduler metrics from two engine snapshots
/// taken around the measured window.
pub fn publish_engine(before: &EngineStats, after: &EngineStats, out: &mut Outcome) {
    let hits = after.plans.hits - before.plans.hits;
    let misses = after.plans.misses - before.plans.misses;
    out.set(
        "plancache.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
    );
    out.set(
        "plancache.evictions",
        (after.plans.evictions - before.plans.evictions) as f64,
    );
    let admitted = after.sched.admitted - before.sched.admitted;
    out.set(
        "sched.queued_ratio",
        ratio(
            (after.sched.queued - before.sched.queued) as f64,
            admitted as f64,
        ),
    );
    out.set(
        "sched.wait_us_per_stmt",
        ratio(
            (after.sched.wait_nanos - before.sched.wait_nanos) as f64 / 1e3,
            admitted as f64,
        ),
    );
    out.note(format!(
        "window: plan hits {hits} misses {misses}; admitted {admitted}, queued {}",
        after.sched.queued - before.sched.queued
    ));
}

/// Sets the tracing-overhead metrics from the untraced and traced wall
/// times of the same work.
pub fn publish_overhead(plain_s: f64, traced_s: f64, out: &mut Outcome) {
    out.note(format!(
        "same work untraced {plain_s:.4} s, traced {traced_s:.4} s"
    ));
    out.set("trace.overhead_ms", (traced_s - plain_s) * 1e3);
    out.set("trace.overhead_share", ratio(traced_s - plain_s, plain_s));
}

/// Ends a traced run: per-layer self times, span coverage of the window.
pub fn finish(out: &mut Outcome, traced: &TraceData) {
    let times = crate::trace::layer_times(&traced.spans);
    let self_ms = |name: &str| times.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    for (name, metric) in PER_LAYER_SELF {
        out.set(metric, self_ms(name));
    }
    out.set(
        "self_ms.bench.client",
        self_ms(span::REQUEST) + self_ms(span::CYCLE),
    );
    for (name, t) in &times {
        out.note(format!(
            "span {name:<40} n {:>7}  busy {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.busy_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    out.set(
        "trace.span_coverage",
        crate::trace::coverage(&traced.spans, &traced.roots, traced.window_ns),
    );
}

/// Layer span name → its self-time metric.
const PER_LAYER_SELF: [(&str, &str); 11] = [
    (span::QUERY, "self_ms.engine.session.query"),
    (span::EXECUTE, "self_ms.engine.session.execute"),
    (span::PREPARE, "self_ms.engine.session.prepare"),
    (
        span::EXECUTE_PREPARED,
        "self_ms.engine.session.execute_prepared",
    ),
    (span::SCAN_RAW, "self_ms.storage.table.scan_raw"),
    (span::UDF_CALL, "self_ms.engine.udf.call"),
    (span::SUBARRAY, "self_ms.core.ops.subarray"),
    (
        span::POWER_SPECTRUM,
        "self_ms.engine.mathfn.power_spectrum_array",
    ),
    (span::GESVD, "self_ms.engine.mathfn.gesvd_array"),
    (
        span::BULK_INSERT,
        "self_ms.engine.database.bulk_insert_with_dop",
    ),
    (span::COMMIT, "self_ms.engine.database.commit"),
];
