//! The query executor: partitioned clustered-index scans with filters,
//! projections, built-in aggregates, GROUP BY and user-defined aggregates,
//! fanned out over a configurable degree of parallelism.
//!
//! ## The parallel pipeline
//!
//! Every `FROM` statement — SELECT and the match phase of UPDATE/DELETE —
//! runs the same batch scan (the `batch` module) regardless of DOP:
//!
//! 1. [`Table::partition`] splits the clustered index into at most
//!    `ExecCtx::dop` contiguous leaf-page ranges (key order preserved);
//! 2. each partition is scanned by a worker — inline on the calling thread
//!    for one partition, on [`std::thread::scope`] threads otherwise —
//!    holding its own [`sqlarray_storage::PartitionReader`], a
//!    [`HostingModel`] fork, and private accumulators; every worker read
//!    touches the **live** sharded buffer pool immediately, while the
//!    simulated I/O classifies against the start-of-scan residency
//!    snapshot in [`sqlarray_storage::ScanCtx`];
//! 3. worker partials merge **in partition order**: projection rows
//!    and DML matches concatenate (projections truncate to `TOP`), groups
//!    combine accumulator by accumulator (exact-sum merge for `SUM`/`AVG`,
//!    `Merge()`-style state merge for UDAs), and per-worker
//!    [`IoStats`]/hosting counters fold back through
//!    [`sqlarray_storage::PageStore::finish_scan`], which stitches the
//!    sequential/random classification across partition
//!    boundaries and advances the simulated disk head to the scan's last
//!    *physical* read.
//!
//! Results are **bit-identical at every DOP**: partitions cover the scan in
//! key order, `SUM`/`AVG` accumulate in an order-independent exact
//! accumulator ([`sqlarray_core::exact::ExactSum`]), and order-sensitive
//! UDA state merges in partition order.

use crate::aggregate::{UdaMode, UdaRegistry, UdaState};
use crate::batch::{BExpr, BItem, BVal, BatchPlan, Cx};
use crate::expr::{eval, AggFunc, EvalEnv, Expr};
use crate::hosting::HostingModel;
use crate::tsql::{DeleteStmt, SelectItem, SelectStmt, UpdateStmt};
use crate::udf::UdfRegistry;
use crate::value::{EngineError, Result, Value};
use sqlarray_core::batch::ColVec;
use sqlarray_core::exact::ExactSum;
use sqlarray_core::parallel::scoped_map_ranges;
use sqlarray_core::stream::ArrayReader;
use sqlarray_core::{ElementType, StorageClass};
use sqlarray_storage::{
    BlobStream, ColType, Column, IoStats, PageStore, RowValue, ScanCtx, ScanIo, ScanPartition,
    Schema, Table,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::time::Instant;

/// Default cap on rows returned by a projection without `TOP`.
pub const DEFAULT_ROW_LIMIT: usize = 100_000;

/// Per-query measurements — the raw numbers behind a Table 1 row.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Rows the scan visited (before WHERE), summed over workers; a whole
    /// batch counts when it is handed to the filter. Under `TOP`-style
    /// early termination this can differ between DOPs and batch sizes
    /// (each worker stops independently); result rows never do.
    pub rows_scanned: u64,
    /// Column batches the scan produced, summed over workers. Every
    /// `FROM` scan — SELECT, UPDATE and DELETE alike — runs on batches;
    /// 0 only for a statement without a scan.
    pub batches: u64,
    /// Mean rows per batch (`rows_scanned / batches`); 0 when no batches
    /// ran. Full batches (≈ the configured batch size) mean the scan
    /// amortized per-row decode well; low fill means leaf-aligned flushes
    /// (blob plans) or a small table.
    pub batch_fill: f64,
    /// Managed UDF invocations during the query, summed over workers.
    /// A non-aggregate select item inside an aggregate query evaluates
    /// once per worker (each worker primes its own partial, the merge
    /// keeps the first), so its UDF calls — unlike result rows — can
    /// scale with DOP.
    pub udf_calls: u64,
    /// Hosting overhead charged, nanoseconds, summed over workers.
    pub udf_overhead_ns: u64,
    /// Total CPU-busy seconds: the sum of every worker's busy time plus
    /// the coordinator's non-overlapped setup/merge time. At DOP 1 this
    /// equals [`wall_seconds`](Self::wall_seconds); at DOP > 1 it exceeds
    /// the wall clock by (roughly) the parallel speedup factor.
    pub cpu_seconds: f64,
    /// Measured wall-clock seconds for the whole execution.
    pub wall_seconds: f64,
    /// Workers the scan actually used (≤ the session DOP; 1 when the
    /// table was too small to split or there was no scan).
    pub dop: usize,
    /// Page-level I/O performed (partitioning reads + all workers).
    pub io: IoStats,
    /// Seconds the simulated disk needs for that I/O.
    pub sim_io_seconds: f64,
    /// Rows an UPDATE/DELETE statement changed (0 for SELECT).
    pub rows_affected: u64,
}

impl QueryStats {
    /// Execution time under the overlap model.
    ///
    /// The engine computes in memory, so real wall time contains no disk
    /// component; the simulated disk runs as a concurrent pipeline that
    /// prefetches ahead of the scan, exactly like the read-ahead of the
    /// paper's testbed. The slower pipeline bounds the query:
    /// `max(wall_seconds, sim_io_seconds)`. Before DOP > 1 this was
    /// equivalently `max(cpu, io)`; now that CPU work is spread over
    /// workers, the *wall* clock — not the summed CPU — is what overlaps
    /// with the disk.
    pub fn exec_seconds(&self) -> f64 {
        self.wall_seconds.max(self.sim_io_seconds)
    }

    /// CPU utilization in percent of total core capacity (`dop` cores over
    /// the execution time), as Table 1 reports it. 100 % means every
    /// worker was busy for the whole query.
    pub fn cpu_percent(&self) -> f64 {
        let capacity = self.dop.max(1) as f64 * self.exec_seconds();
        if capacity == 0.0 {
            0.0
        } else {
            (100.0 * self.cpu_seconds / capacity).min(100.0)
        }
    }

    /// Effective I/O rate in MB/s over the execution time.
    pub fn io_mb_per_sec(&self) -> f64 {
        if self.exec_seconds() == 0.0 {
            0.0
        } else {
            self.io.bytes_read() as f64 / (1024.0 * 1024.0) / self.exec_seconds()
        }
    }

    /// Measured parallel speedup of the CPU portion: total CPU work done
    /// per second of wall clock (`cpu_seconds / wall_seconds`). ≈ 1 at
    /// DOP 1; approaches `dop` for a CPU-bound query that scales.
    pub fn measured_speedup(&self) -> f64 {
        if self.wall_seconds == 0.0 {
            1.0
        } else {
            self.cpu_seconds / self.wall_seconds
        }
    }
}

/// A query result: column names, rows, measurements.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Vec<Value>>,
    /// Measurements.
    pub stats: QueryStats,
    /// `@var = expr` assignments produced by the select list.
    pub assignments: Vec<(String, Value)>,
}

impl QueryResult {
    /// The single value of a one-row, one-column result.
    pub fn scalar(&self) -> Result<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Ok(&self.rows[0][0])
        } else {
            Err(EngineError::Type(format!(
                "expected a scalar result, got {}x{}",
                self.rows.len(),
                self.rows.first().map(|r| r.len()).unwrap_or(0)
            )))
        }
    }
}

/// Everything `exec_select` needs besides the statement.
///
/// SELECT is read-only, so the context holds the store and catalog by
/// shared reference — which is what lets many sessions run their SELECTs
/// concurrently under one [`std::sync::RwLock`] read guard. Mutating
/// statements use [`DmlCtx`] instead.
pub struct ExecCtx<'a> {
    /// The page store (shared: concurrent readers classify their I/O
    /// against per-scan snapshots and fold counters back through
    /// [`PageStore::finish_scan`]).
    pub store: &'a PageStore,
    /// Tables by lowercase name.
    pub tables: &'a HashMap<String, Table>,
    /// Scalar UDFs.
    pub udfs: &'a UdfRegistry,
    /// User-defined aggregates.
    pub udas: &'a UdaRegistry,
    /// Hosting model (mutated; per-session, not shared).
    pub hosting: &'a mut HostingModel,
    /// Session variables.
    pub vars: &'a HashMap<String, Value>,
    /// UDA state-maintenance mode.
    pub uda_mode: UdaMode,
    /// Row cap for projections without TOP.
    pub row_limit: usize,
    /// Maximum degree of parallelism for scans (≥ 1).
    pub dop: usize,
    /// Target rows per column batch (0 is treated as 1). A size knob
    /// only: every value runs the same pipeline.
    pub batch_rows: usize,
    /// This statement's compiled-plan slot in the engine's plan cache,
    /// when the statement came through it. `None` (ad-hoc execution)
    /// compiles fresh.
    pub cached: Option<&'a crate::plancache::SelectSlot>,
    /// The statement's lifecycle context: cancellation, deadline, memory
    /// budget. Stamped into the scan context so every worker's reader
    /// polls it.
    pub query: sqlarray_core::QueryCtx,
    /// Where the executor deposits the statement's measurements when it
    /// aborts (cancel/timeout/budget/panic): the counters of the work
    /// actually performed, which the happy path would have returned
    /// inside [`QueryResult`].
    pub partial: &'a mut Option<QueryStats>,
}

/// Everything UPDATE/DELETE need besides the statement.
///
/// DML mutates the store, the B-tree geometry, and the catalog entry, so
/// it borrows them exclusively — the caller holds the engine's write
/// guard, making the statement the single writer.
pub struct DmlCtx<'a> {
    /// The page store (exclusive: the apply phase writes pages and WAL).
    pub store: &'a mut PageStore,
    /// Tables by lowercase name (mutable so the changed B-tree geometry
    /// can be written back).
    pub tables: &'a mut HashMap<String, Table>,
    /// Scalar UDFs.
    pub udfs: &'a UdfRegistry,
    /// Hosting model (mutated; per-session, not shared).
    pub hosting: &'a mut HostingModel,
    /// Session variables.
    pub vars: &'a HashMap<String, Value>,
    /// Maximum degree of parallelism for the match-phase scan (≥ 1).
    pub dop: usize,
    /// Target rows per column batch of the match-phase scan (0 is
    /// treated as 1).
    pub batch_rows: usize,
    /// The statement's lifecycle context. Polled throughout the parallel
    /// match phase; the serial apply phase deliberately ignores it — once
    /// the first page mutates, the statement runs to its commit, so an
    /// abort can never leave a half-applied update behind.
    pub query: sqlarray_core::QueryCtx,
    /// Measurements of an aborted match phase (see [`ExecCtx::partial`]).
    pub partial: &'a mut Option<QueryStats>,
}

/// Rewrites scalar-function calls that name a registered UDA into
/// [`Expr::UdaCall`] nodes.
fn resolve_udas(expr: &Expr, udas: &UdaRegistry) -> Expr {
    match expr {
        Expr::Func { name, args } if udas.contains(name) => Expr::UdaCall {
            name: name.clone(),
            args: args.iter().map(|a| resolve_udas(a, udas)).collect(),
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(|a| resolve_udas(a, udas)).collect(),
        },
        Expr::Neg(e) => Expr::Neg(Box::new(resolve_udas(e, udas))),
        Expr::Not(e) => Expr::Not(Box::new(resolve_udas(e, udas))),
        Expr::Bin { op, left, right } => Expr::Bin {
            op: *op,
            left: Box::new(resolve_udas(left, udas)),
            right: Box::new(resolve_udas(right, udas)),
        },
        other => other.clone(),
    }
}

/// A typed, byte-encoded GROUP BY key: one tag byte per value followed by
/// that value's canonical little-endian payload.
///
/// Replaces the old `format!("{v:?}|")` string keys — no per-row
/// formatting allocations in the hot scan loop, and no `Debug`-collision
/// ambiguity (the string `"1"` and the integer `1` now encode
/// differently; floats key by bit pattern, consistent with the
/// bit-identity contract).
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default)]
struct GroupKey(Vec<u8>);

impl GroupKey {
    fn push(&mut self, v: &Value) -> Result<()> {
        let buf = &mut self.0;
        match v {
            Value::Null => buf.push(0),
            Value::I64(x) => {
                buf.push(1);
                buf.extend_from_slice(&x.to_le_bytes());
            }
            Value::I32(x) => {
                buf.push(2);
                buf.extend_from_slice(&x.to_le_bytes());
            }
            Value::F64(x) => {
                buf.push(3);
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::F32(x) => {
                buf.push(4);
                buf.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            Value::Bytes(b) => {
                buf.push(5);
                buf.extend_from_slice(&(b.len() as u64).to_le_bytes());
                buf.extend_from_slice(b);
            }
            Value::Str(s) => {
                buf.push(6);
                buf.extend_from_slice(&(s.len() as u64).to_le_bytes());
                buf.extend_from_slice(s.as_bytes());
            }
            Value::Bool(b) => {
                buf.push(7);
                buf.push(*b as u8);
            }
            // Group-key expressions resolve LOBs before encoding; an
            // unresolved reference reaching this point is a bug upstream,
            // surfaced as the typed error rather than a silent key.
            Value::Lob { id, len } => {
                return Err(EngineError::UnresolvedLob { id: *id, len: *len })
            }
        }
        Ok(())
    }
}

/// One select-list accumulator — the partial state a single worker
/// maintains for one item of one group.
// The `Agg` variant carries an inline `ExactSum` register (~0.3 kB);
// boxing it would cost a pointer chase on every accumulated row for a
// structure that only exists once per (group × select item).
#[allow(clippy::large_enum_variant)]
enum ItemAcc {
    Agg {
        func: AggFunc,
        count: u64,
        /// `SUM`/`AVG` accumulate exactly so that partials combine without
        /// rounding: any partitioning of the rows yields the same result.
        sum: ExactSum,
        min: Option<Value>,
        max: Option<Value>,
    },
    Uda(Box<dyn UdaState>),
    /// A non-aggregate item: the value at the group's first row.
    Plain(Option<Value>),
}

/// One fresh accumulator row for a new group.
fn make_accs(items: &[SelectItem], udas: &UdaRegistry) -> Result<Vec<ItemAcc>> {
    items
        .iter()
        .map(|it| {
            Ok(match &it.expr {
                Expr::Agg { func, .. } => ItemAcc::Agg {
                    func: *func,
                    count: 0,
                    sum: ExactSum::new(),
                    min: None,
                    max: None,
                },
                Expr::UdaCall { name, .. } => ItemAcc::Uda(udas.create(name)?),
                _ => ItemAcc::Plain(None),
            })
        })
        .collect()
}

/// Keeps `cand` in `cur` when `cur` is empty or `cand` orders `want`
/// against it (`Less` for MIN, `Greater` for MAX).
fn keep_extreme(cur: &mut Option<Value>, cand: Value, want: Ordering) -> Result<()> {
    let replace = match cur {
        None => true,
        Some(c) => crate::expr::compare(&cand, c)? == want,
    };
    if replace {
        *cur = Some(cand);
    }
    Ok(())
}

impl ItemAcc {
    /// Folds the partial state of a *later* partition into this one. Both
    /// sides were built by [`make_accs`] from the same select list, so the
    /// variants always line up.
    fn combine(&mut self, other: ItemAcc) -> Result<()> {
        match (self, other) {
            (
                ItemAcc::Agg {
                    count,
                    sum,
                    min,
                    max,
                    ..
                },
                ItemAcc::Agg {
                    count: oc,
                    sum: os,
                    min: omin,
                    max: omax,
                    ..
                },
            ) => {
                *count += oc;
                sum.merge(&os);
                if let Some(ov) = omin {
                    keep_extreme(min, ov, Ordering::Less)?;
                }
                if let Some(ov) = omax {
                    keep_extreme(max, ov, Ordering::Greater)?;
                }
                Ok(())
            }
            (ItemAcc::Uda(state), ItemAcc::Uda(os)) => state.merge_state(&os.serialize_state()),
            (ItemAcc::Plain(value), ItemAcc::Plain(ov)) => {
                // The serial semantics keep the first row's value; partials
                // merge in partition (scan) order, so an earlier Some wins.
                if value.is_none() {
                    *value = ov;
                }
                Ok(())
            }
            _ => Err(EngineError::Type(
                "mismatched accumulator kinds in parallel combine".into(),
            )),
        }
    }

    fn finish(&mut self) -> Result<Value> {
        match self {
            ItemAcc::Agg {
                func,
                count,
                sum,
                min,
                max,
            } => Ok(match func {
                AggFunc::CountStar | AggFunc::Count => Value::I64(*count as i64),
                AggFunc::Sum => {
                    if *count == 0 {
                        Value::Null
                    } else {
                        Value::F64(sum.value())
                    }
                }
                AggFunc::Avg => {
                    if *count == 0 {
                        Value::Null
                    } else {
                        Value::F64(sum.value() / *count as f64)
                    }
                }
                AggFunc::Min => min.take().unwrap_or(Value::Null),
                AggFunc::Max => max.take().unwrap_or(Value::Null),
            }),
            ItemAcc::Uda(state) => state.terminate(),
            ItemAcc::Plain(value) => Ok(value.take().unwrap_or(Value::Null)),
        }
    }
}

/// Aggregation state: groups in first-appearance order, with their
/// encoded keys. A worker builds one per partition; the coordinator
/// merges them in partition order.
#[derive(Default)]
struct Groups {
    index: HashMap<GroupKey, usize>,
    keys: Vec<GroupKey>,
    accs: Vec<Vec<ItemAcc>>,
}

impl Groups {
    fn insert(&mut self, key: GroupKey, accs: Vec<ItemAcc>) -> usize {
        let i = self.accs.len();
        self.index.insert(key.clone(), i);
        self.keys.push(key);
        self.accs.push(accs);
        i
    }

    /// Folds the groups of a *later* partition into this state.
    fn absorb(&mut self, other: Groups) -> Result<()> {
        for (key, theirs) in other.keys.into_iter().zip(other.accs) {
            match self.index.get(&key) {
                Some(&i) => {
                    for (mine, t) in self.accs[i].iter_mut().zip(theirs) {
                        mine.combine(t)?;
                    }
                }
                None => {
                    self.insert(key, theirs);
                }
            }
        }
        Ok(())
    }
}

/// The groups one batch touched, in first-touch order, each with its
/// selected rows in row order. Buffers are reused across batches.
#[derive(Default)]
struct Touched {
    /// `slot[g]`: position of group `g` in `groups`, or `usize::MAX`.
    slot: Vec<usize>,
    groups: Vec<usize>,
    rows: Vec<Vec<u32>>,
}

impl Touched {
    fn clear(&mut self) {
        for &g in &self.groups {
            self.slot[g] = usize::MAX;
        }
        self.groups.clear();
    }

    fn push(&mut self, g: usize, row: u32) {
        if g >= self.slot.len() {
            self.slot.resize(g + 1, usize::MAX);
        }
        if self.slot[g] == usize::MAX {
            let s = self.groups.len();
            if self.rows.len() == s {
                self.rows.push(Vec::new());
            }
            self.rows[s].clear();
            self.slot[g] = s;
            self.groups.push(g);
        }
        self.rows[self.slot[g]].push(row);
    }
}

fn item_name(item: &SelectItem, index: usize) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match &item.expr {
        Expr::Col(name) => name.clone(),
        Expr::Agg { func, .. } => format!("{func:?}").to_ascii_lowercase(),
        _ => format!("col{index}"),
    }
}

/// What one scan worker hands back to the coordinator. Counters are
/// unconditional (the worker's reads are already in the live pool); a
/// query-level failure rides in `out`.
struct WorkerScan {
    rows_scanned: u64,
    batches: u64,
    scan_io: ScanIo,
    calls: u64,
    charged_ns: u64,
    busy_seconds: f64,
    out: Result<WorkerOut>,
}

enum WorkerOut {
    /// Projection rows, in key order, capped at the limit.
    Rows(Vec<Vec<Value>>),
    /// Aggregate groups.
    Groups(Groups),
    /// DML matches: clustered key and SET values, in key order.
    Matched(Vec<(i64, Vec<SetValue>)>),
}

/// What a scan does with the rows its filter passes.
enum Sink<'a> {
    /// Projection, capped at `limit` rows.
    Project { limit: usize },
    /// Aggregation into [`Groups`].
    Aggregate(AggSpec<'a>),
    /// The match phase of a DML statement; `kind` names the statement in
    /// the strict-WHERE error.
    Match {
        kind: &'static str,
        sets: &'a [SetItem],
    },
}

/// Immutable scan context shared by all workers of one statement.
struct ScanJob<'a> {
    table: &'a Table,
    plan: &'a BatchPlan,
    /// Target rows per batch (≥ 1).
    batch_rows: usize,
    udfs: &'a UdfRegistry,
    vars: &'a HashMap<String, Value>,
    sink: Sink<'a>,
}

/// Renders a caught panic payload for [`EngineError::WorkerPanicked`].
/// `panic!` with a literal carries `&str`, with a format string carries
/// `String`; anything else (a `panic_any` payload) gets a fixed label.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    }
}

/// Counters of one fanned-out scan, folded over its workers.
#[derive(Default)]
struct ScanTotals {
    rows_scanned: u64,
    batches: u64,
    /// Summed worker busy time.
    cpu_seconds: f64,
    /// The longest worker's busy time.
    max_busy: f64,
    /// Workers used (1 for a statement without a scan).
    dop: usize,
}

/// Runs `job` over the partitions — one worker per partition, inline on
/// the calling thread for one — and folds every worker's counters back,
/// including those of a worker whose body errored: the reads it performed
/// are already in the live pool, so they must be in the counters too.
/// Outputs come back in partition (key) order, or the first error.
fn run_scan(
    store: &PageStore,
    hosting: &mut HostingModel,
    query: &sqlarray_core::QueryCtx,
    parts: &[ScanPartition],
    job: &ScanJob<'_>,
) -> (ScanTotals, Result<Vec<WorkerOut>>) {
    let scan = store.begin_scan_for(query.clone());
    // Singleton ranges through the workspace helper: with a single
    // partition it runs inline, so the serial plan is literally the
    // parallel plan at width 1 and both sides of the determinism
    // guarantee share this code.
    let parent: &HostingModel = hosting;
    let scan_ref = &scan;
    let workers: Vec<WorkerScan> = scoped_map_ranges(parts.len(), parts.len(), |r| {
        r.map(|pi| scan_worker(job, store, scan_ref, &parts[pi], pi as u32, parent.fork()))
            .collect::<Vec<WorkerScan>>()
    })
    .into_iter()
    .flatten()
    .collect();
    drop(scan);

    let mut totals = ScanTotals {
        dop: parts.len(),
        ..ScanTotals::default()
    };
    let mut scan_ios: Vec<ScanIo> = Vec::with_capacity(workers.len());
    let mut outs: Result<Vec<WorkerOut>> = Ok(Vec::with_capacity(workers.len()));
    for w in workers {
        totals.rows_scanned += w.rows_scanned;
        totals.batches += w.batches;
        scan_ios.push(w.scan_io);
        hosting.absorb(w.calls, w.charged_ns);
        // lint:allow(L002, reason = "wall-clock diagnostics, not query results; timing is inherently non-deterministic and outside the bit-identity contract")
        totals.cpu_seconds += w.busy_seconds;
        totals.max_busy = totals.max_busy.max(w.busy_seconds);
        match (w.out, &mut outs) {
            (Ok(out), Ok(all)) => all.push(out),
            (Err(e), Ok(_)) => outs = Err(e),
            (_, Err(_)) => {}
        }
    }
    // The live pool already saw every worker touch; this merges the
    // counters (with cross-partition classification stitching) and
    // advances the simulated head to the last physical read.
    store.finish_scan(scan_ios.iter());
    (totals, outs)
}

/// A statement's measurements from its scan counters.
fn query_stats(
    store: &PageStore,
    io_before: &IoStats,
    hosting: &HostingModel,
    scan: &ScanTotals,
    cpu_seconds: f64,
    wall_seconds: f64,
    rows_affected: u64,
) -> QueryStats {
    let io = store.stats().since(io_before);
    QueryStats {
        rows_scanned: scan.rows_scanned,
        batches: scan.batches,
        batch_fill: if scan.batches > 0 {
            scan.rows_scanned as f64 / scan.batches as f64
        } else {
            0.0
        },
        udf_calls: hosting.calls(),
        udf_overhead_ns: hosting.charged_ns(),
        cpu_seconds,
        wall_seconds,
        dop: scan.dop,
        sim_io_seconds: store.profile().io_seconds(&io),
        io,
        rows_affected,
    }
}

/// Runs one partition to completion on the current thread. Workers share
/// nothing mutable: each owns its reader, hosting fork, and accumulators.
/// The body runs under [`sqlarray_core::parallel::with_serial_kernels`]:
/// a worker is already one lane of the query's fan-out, so any chunked
/// array kernels its expressions call — elementwise ops, `fftn`, and the
/// dense linalg kernels (`gemm`, SVD, PCA) alike — must not fan out
/// again.
///
/// Always returns a [`WorkerScan`], even when the partition body errors:
/// the worker's reads already landed in the live buffer pool, so its
/// counters must be handed back unconditionally — otherwise a failed
/// query would leave the pool warmer than the session's [`IoStats`]
/// admit. The query-level error rides in [`WorkerScan::out`].
fn scan_worker(
    job: &ScanJob<'_>,
    store: &PageStore,
    scan: &ScanCtx,
    part: &ScanPartition,
    partition_index: u32,
    mut hosting: HostingModel,
) -> WorkerScan {
    sqlarray_core::parallel::with_serial_kernels(|| {
        let t0 = Instant::now();
        let mut reader = store.reader(scan, partition_index);
        let mut rows_scanned = 0u64;
        let mut batches = 0u64;
        // The panic boundary wraps only the body, not the reader: a worker
        // that panics mid-batch still folds its I/O counters back through
        // `reader.finish()` below, so the pool and the session's
        // accounting stay consistent — and the unwind never crosses a lock
        // guard (the coordinator holds them), so no lock is poisoned by a
        // buggy UDF. A DML match phase is read-only, so a contained panic
        // aborts the statement before any page or WAL byte changes.
        let out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scan_worker_body(
                job,
                part,
                &mut reader,
                &mut hosting,
                &mut rows_scanned,
                &mut batches,
            )
        })) {
            Ok(out) => out,
            Err(p) => Err(EngineError::WorkerPanicked(panic_message(p.as_ref()))),
        };
        WorkerScan {
            rows_scanned,
            batches,
            scan_io: reader.finish(),
            calls: hosting.calls(),
            charged_ns: hosting.charged_ns(),
            busy_seconds: t0.elapsed().as_secs_f64(),
            out,
        }
    })
}

/// The worker body: decode a leaf range into column batches, filter into
/// a selection vector, then hand the selected rows to the job's sink —
/// touching the allocator once per batch for kernel expressions, and
/// running escape nodes once per selected row.
fn scan_worker_body(
    job: &ScanJob<'_>,
    part: &ScanPartition,
    reader: &mut sqlarray_storage::PartitionReader<'_>,
    hosting: &mut HostingModel,
    rows_scanned: &mut u64,
    batches: &mut u64,
) -> Result<WorkerOut> {
    let plan = job.plan;
    let schema = job.table.schema();
    let query = reader.query().clone();
    let (mut out, limit, strict) = match &job.sink {
        Sink::Project { limit } => (WorkerOut::Rows(Vec::new()), *limit, None),
        Sink::Aggregate(agg) => {
            let mut groups = Groups::default();
            // Without GROUP BY the single global group exists before the
            // first row: an empty scan still yields one row of aggregates.
            if plan.group_by.is_empty() {
                groups.insert(GroupKey::default(), make_accs(agg.items, agg.udas)?);
            }
            (WorkerOut::Groups(groups), usize::MAX, None)
        }
        Sink::Match { kind, .. } => (WorkerOut::Matched(Vec::new()), usize::MAX, Some(*kind)),
    };
    let projected = |out: &WorkerOut| match out {
        WorkerOut::Rows(rows) => rows.len(),
        _ => 0,
    };
    let mut batch = sqlarray_storage::row::new_batch(schema, &plan.cols)?;
    let mut sel: Vec<u32> = Vec::new();
    let mut scratch: Vec<u32> = Vec::new();
    let mut touched = Touched::default();
    // Batch lanes are reused across flushes, so the budget charge is the
    // high-water mark of the decoded batch, not its size times flushes:
    // only growth beyond what this worker already charged costs budget.
    let mut charged_batch_bytes = 0u64;
    let mut inner_err: Option<EngineError> = None;
    job.table.scan_partition_batches(
        reader,
        part,
        sqlarray_storage::BatchScanOpts {
            cols: &plan.cols,
            // A projection never needs more than `limit` output rows per
            // worker, so a small `TOP` shrinks the batch: the scan stops
            // within one cap of the limit instead of decoding a full batch.
            rows_cap: job.batch_rows.min(limit.max(1)),
            leaf_aligned: plan.leaf_aligned,
        },
        &mut batch,
        |reader, b| {
            reader.check_interrupt()?;
            *rows_scanned += b.len() as u64;
            *batches += 1;
            if projected(&out) >= limit {
                return Ok(false);
            }
            let mut env = EvalEnv {
                udfs: job.udfs,
                hosting: &mut *hosting,
                vars: job.vars,
                lobs: Some(reader),
            };
            let mut cx = Cx {
                schema,
                cols: &plan.cols,
                batch: b,
                env: &mut env,
            };
            let step = (|| -> Result<()> {
                let size = b.byte_size();
                if size > charged_batch_bytes {
                    query.charge(size - charged_batch_bytes)?;
                    charged_batch_bytes = size;
                }
                sqlarray_core::batch::identity_selection(&mut sel, b.len());
                if let Some(f) = &plan.filter {
                    crate::batch::apply_filter(f, &mut cx, &mut sel, &mut scratch, strict)?;
                }
                if sel.is_empty() {
                    return Ok(());
                }
                match (&job.sink, &mut out) {
                    (Sink::Project { limit }, WorkerOut::Rows(rows)) => {
                        batch_project(plan, &mut cx, &sel, *limit, rows)
                    }
                    (Sink::Aggregate(spec), WorkerOut::Groups(groups)) => {
                        feed_groups(groups, &mut touched, spec, &query, plan, &mut cx, &sel)
                    }
                    (Sink::Match { sets, .. }, WorkerOut::Matched(matched)) => {
                        batch_match(plan, sets, &mut cx, &sel, matched)
                    }
                    _ => Err(plan_error("sink/output mismatch")),
                }
            })();
            match step {
                Ok(()) => Ok(projected(&out) < limit),
                Err(e) => {
                    inner_err = Some(e);
                    Ok(false)
                }
            }
        },
    )?;
    match inner_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

fn plan_error(what: &str) -> EngineError {
    EngineError::Type(format!("batch plan error: {what}"))
}

/// The select list an aggregating scan accumulates.
struct AggSpec<'a> {
    items: &'a [SelectItem],
    udas: &'a UdaRegistry,
    uda_mode: UdaMode,
}

/// Feeds one filtered batch into a worker's groups: each selected row
/// joins its group (created on first appearance, its state charged to
/// the statement's memory budget), then every touched group's
/// accumulators consume that group's rows, in row order.
fn feed_groups(
    groups: &mut Groups,
    touched: &mut Touched,
    agg: &AggSpec<'_>,
    query: &sqlarray_core::QueryCtx,
    plan: &BatchPlan,
    cx: &mut Cx<'_, '_>,
    sel: &[u32],
) -> Result<()> {
    if plan.group_by.is_empty() {
        for (acc, item) in groups.accs[0].iter_mut().zip(&plan.items) {
            feed_acc_batch(acc, item, cx, sel, agg.uda_mode)?;
        }
        return Ok(());
    }
    let mut key_cols = plan
        .group_by
        .iter()
        .map(|g| crate::batch::eval(g, cx, sel))
        .collect::<Result<Vec<_>>>()?;
    touched.clear();
    // Key-encoding scratch, re-filled per row; cloned only when a new
    // group is inserted.
    let mut key = GroupKey::default();
    for (i, &row) in sel.iter().enumerate() {
        key.0.clear();
        for col in key_cols.iter_mut() {
            let mut v = col.take(i);
            // Grouping by a LOB column groups by its bytes, like any
            // other binary value.
            crate::pushdown::resolve_lob_in_place(&mut v, cx.env)?;
            key.push(&v)?;
        }
        let g = match groups.index.get(&key) {
            Some(&g) => g,
            None => {
                // Aggregation state is the memory a grouped scan actually
                // accumulates: charge each new group's key (stored twice —
                // order list and index) plus its accumulator row.
                query.charge(
                    (2 * key.0.len() + agg.items.len() * std::mem::size_of::<ItemAcc>()) as u64,
                )?;
                groups.insert(key.clone(), make_accs(agg.items, agg.udas)?)
            }
        };
        touched.push(g, row);
    }
    for (t, &g) in touched.groups.iter().enumerate() {
        for (acc, item) in groups.accs[g].iter_mut().zip(&plan.items) {
            feed_acc_batch(acc, item, cx, &touched.rows[t], agg.uda_mode)?;
        }
    }
    Ok(())
}

/// Feeds the selected rows of one batch into one accumulator, in row
/// order. NULLs (only escape nodes produce them) are skipped, as in SQL.
fn feed_acc_batch(
    acc: &mut ItemAcc,
    item: &BItem,
    cx: &mut Cx<'_, '_>,
    sel: &[u32],
    uda_mode: UdaMode,
) -> Result<()> {
    use crate::batch::{eval, BAggArg, BVal};
    use crate::pushdown::resolve_lob_in_place;
    match (acc, item) {
        (
            ItemAcc::Agg {
                count,
                sum,
                min,
                max,
                ..
            },
            BItem::Agg { func, arg },
        ) => match (func, arg) {
            // COUNT over a blob column counts rows without reading the
            // blobs: stored columns are never NULL.
            (AggFunc::CountStar, _) | (AggFunc::Count, Some(BAggArg::Blob)) => {
                *count += sel.len() as u64;
                Ok(())
            }
            (_, Some(BAggArg::Scalar(e))) => {
                let mut vals = eval(e, cx, sel)?;
                let lanes = !matches!(vals, BVal::Values(_));
                if lanes && matches!(func, AggFunc::Count | AggFunc::Sum | AggFunc::Avg) {
                    // Kernel lanes hold no NULLs and no LOB references.
                    // COUNT still evaluates its argument, for error parity
                    // (a zero divisor in it must fail); the exact sum
                    // keeps any batch/partition split bit-identical.
                    *count += vals.len() as u64;
                    if *func != AggFunc::Count {
                        sqlarray_core::batch::sum_f64(&vals.into_f64()?, sum);
                    }
                    return Ok(());
                }
                for i in 0..vals.len() {
                    let mut v = vals.take(i);
                    if v.is_null() {
                        continue;
                    }
                    // MIN/MAX order blobs bytewise and SUM/AVG need a
                    // numeric view, so a lazy LOB argument behaves exactly
                    // like its inline counterpart: materialize it. COUNT
                    // only needs null-ness — skip the read there.
                    if *func != AggFunc::Count {
                        resolve_lob_in_place(&mut v, cx.env)?;
                    }
                    *count += 1;
                    match func {
                        AggFunc::Sum | AggFunc::Avg => sum.add(v.as_f64()?),
                        AggFunc::Min => keep_extreme(min, v, Ordering::Less)?,
                        AggFunc::Max => keep_extreme(max, v, Ordering::Greater)?,
                        AggFunc::Count | AggFunc::CountStar => {}
                    }
                }
                Ok(())
            }
            _ => Err(plan_error("aggregate shape mismatch")),
        },
        (ItemAcc::Uda(state), BItem::Uda(args)) => {
            let mut cols = args
                .iter()
                .map(|a| eval(a, cx, sel))
                .collect::<Result<Vec<_>>>()?;
            let mut argv = Vec::with_capacity(cols.len());
            for i in 0..sel.len() {
                argv.clear();
                for col in cols.iter_mut() {
                    let mut v = col.take(i);
                    // UDA accumulate bodies take bytes, not references:
                    // materialize lazy LOB arguments here.
                    resolve_lob_in_place(&mut v, cx.env)?;
                    argv.push(v);
                }
                if uda_mode == UdaMode::StreamSerialized {
                    let buf = state.serialize_state();
                    state.load_state(&buf)?;
                }
                // Each UDA row hop is a managed call, like the CLR
                // aggregate interface.
                cx.env.hosting.charge_call();
                state.accumulate(&argv)?;
            }
            Ok(())
        }
        (ItemAcc::Plain(value), BItem::Plain(e)) => {
            if value.is_none() && !sel.is_empty() {
                let mut v = eval(e, cx, &sel[..1])?.take(0);
                // The value outlives the batch: materialize lazy LOB
                // references while the worker's reader is live.
                resolve_lob_in_place(&mut v, cx.env)?;
                *value = Some(v);
            }
            Ok(())
        }
        _ => Err(plan_error("accumulator shape mismatch")),
    }
}

/// The selected rows' values of each projection item, one column each.
/// Scalar items evaluate column-at-a-time, escape nodes row by row.
fn eval_items(plan: &BatchPlan, cx: &mut Cx<'_, '_>, sel: &[u32]) -> Result<Vec<BVal>> {
    plan.items
        .iter()
        .map(|item| match item {
            BItem::Proj(e) => crate::batch::eval(e, cx, sel),
            BItem::ProjBlob(pos) => {
                let ColVec::Blob { bytes, lob } = &cx.batch.cols[*pos] else {
                    return Err(plan_error("blob projection over a scalar column"));
                };
                Ok(BVal::Values(
                    sel.iter()
                        .map(|&r| crate::expr::blob_value(bytes, lob, r as usize))
                        .collect(),
                ))
            }
            _ => Err(plan_error("aggregate item in a projection")),
        })
        .collect()
}

/// Materializes the selected rows of one batch as projection output, up
/// to `limit` rows in total: only rows that fit are evaluated. Values
/// resolve in row-major order, so LOB page reads interleave per row (the
/// plan is leaf-aligned whenever blobs appear).
fn batch_project(
    plan: &BatchPlan,
    cx: &mut Cx<'_, '_>,
    sel: &[u32],
    limit: usize,
    rows: &mut Vec<Vec<Value>>,
) -> Result<()> {
    let sel = &sel[..sel.len().min(limit.saturating_sub(rows.len()))];
    let mut cols = eval_items(plan, cx, sel)?;
    for r in 0..sel.len() {
        let mut out = Vec::with_capacity(cols.len());
        for col in cols.iter_mut() {
            let mut v = col.take(r);
            // The projection boundary is blob-aware: a bare `SELECT v` of
            // a LOB column returns the array bytes (one ranged read), not
            // a placeholder.
            crate::pushdown::resolve_lob_in_place(&mut v, cx.env)?;
            out.push(v);
        }
        rows.push(out);
    }
    Ok(())
}

/// Executes one SELECT.
pub fn exec_select(ctx: &mut ExecCtx<'_>, stmt: &SelectStmt) -> Result<QueryResult> {
    let io_before = ctx.store.stats();
    ctx.hosting.reset();
    let t0 = Instant::now();

    let items: Vec<SelectItem> = stmt
        .items
        .iter()
        .map(|it| SelectItem {
            expr: resolve_udas(&it.expr, ctx.udas),
            alias: it.alias.clone(),
            assign: it.assign.clone(),
        })
        .collect();
    let columns: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, it)| item_name(it, i))
        .collect();

    let has_aggregate =
        items.iter().any(|it| it.expr.contains_aggregate()) || !stmt.group_by.is_empty();

    let mut rows: Vec<Vec<Value>> = Vec::new();
    let mut totals = ScanTotals {
        dop: 1,
        ..ScanTotals::default()
    };
    let mut cpu_seconds = 0.0f64;

    match &stmt.from {
        None => {
            // The store is shared here, so LOB-typed variables resolve
            // through a single-partition scan reader — the same live-pool
            // handle scan workers use — and its I/O folds back like any
            // one-worker scan. Counters fold even when evaluation errors,
            // so the pool and the stats stay consistent with each other.
            let scan = ctx.store.begin_scan_for(ctx.query.clone());
            let mut r = ctx.store.reader(&scan, 0);
            let evaluated = (|| -> Result<Vec<Value>> {
                let mut env = EvalEnv {
                    udfs: ctx.udfs,
                    hosting: ctx.hosting,
                    vars: ctx.vars,
                    lobs: Some(&mut r),
                };
                let mut row = Vec::with_capacity(items.len());
                for it in &items {
                    row.push(eval(&it.expr, None, &mut env)?);
                }
                Ok(row)
            })();
            let io = r.finish();
            ctx.store.finish_scan([&io]);
            rows.push(evaluated?);
        }
        Some(table_name) => {
            let table = ctx
                .tables
                .get(&table_name.to_ascii_lowercase())
                .cloned()
                .ok_or_else(|| EngineError::Unknown(format!("table `{table_name}`")))?;
            let schema = table.schema().clone();
            let parts = table.partition(ctx.store, ctx.dop.max(1))?;
            let limit = stmt.top.unwrap_or(ctx.row_limit);
            // When the statement came through the plan cache, its slot
            // answers for var-free statements without recompiling.
            let compile = || {
                crate::batch::plan_select(
                    &schema,
                    &items,
                    stmt.where_clause.as_ref(),
                    &stmt.group_by,
                    has_aggregate,
                    ctx.vars,
                )
            };
            let plan = match ctx.cached {
                Some(slot) => slot.plan_for(&schema, compile),
                None => std::sync::Arc::new(compile()),
            };
            let job = ScanJob {
                table: &table,
                plan: &plan,
                batch_rows: ctx.batch_rows.max(1),
                udfs: ctx.udfs,
                vars: ctx.vars,
                sink: if has_aggregate {
                    Sink::Aggregate(AggSpec {
                        items: &items,
                        udas: ctx.udas,
                        uda_mode: ctx.uda_mode,
                    })
                } else {
                    Sink::Project { limit }
                },
            };
            let (scanned, outs) = run_scan(ctx.store, ctx.hosting, &ctx.query, &parts, &job);
            totals = scanned;
            let outs = match outs {
                Ok(outs) => outs,
                Err(e) => {
                    // Every counter already folded (the pool saw the
                    // reads), so an aborted statement still reports what
                    // it did before the abort: the partial-stats contract
                    // for cancel/timeout/budget/panic.
                    *ctx.partial = Some(query_stats(
                        ctx.store,
                        &io_before,
                        ctx.hosting,
                        &totals,
                        totals.cpu_seconds,
                        t0.elapsed().as_secs_f64(),
                        0,
                    ));
                    return Err(e);
                }
            };

            // Merge partials in partition (key) order.
            let mut groups = Groups::default();
            for out in outs {
                match out {
                    WorkerOut::Rows(mut r) => {
                        r.truncate(limit.saturating_sub(rows.len()));
                        rows.extend(r);
                    }
                    WorkerOut::Groups(g) => groups.absorb(g)?,
                    WorkerOut::Matched(_) => return Err(plan_error("DML matches from a SELECT")),
                }
            }
            for mut accs in groups.accs {
                rows.push(
                    accs.iter_mut()
                        .map(ItemAcc::finish)
                        .collect::<Result<_>>()?,
                );
            }
            // Coordinator time not overlapped with the longest worker
            // (planning, fan-out, merge) is serial CPU work too.
            // lint:allow(L002, reason = "wall-clock diagnostics, not query results; timing is inherently non-deterministic and outside the bit-identity contract")
            cpu_seconds =
                totals.cpu_seconds + (t0.elapsed().as_secs_f64() - totals.max_busy).max(0.0);
        }
    }

    let wall_seconds = t0.elapsed().as_secs_f64();
    if stmt.from.is_none() {
        cpu_seconds = wall_seconds;
    }

    let assignments: Vec<(String, Value)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| {
            it.assign.as_ref().map(|name| {
                let v = rows
                    .last()
                    .and_then(|r| r.get(i))
                    .cloned()
                    .unwrap_or(Value::Null);
                (name.clone(), v)
            })
        })
        .collect();

    Ok(QueryResult {
        columns,
        rows,
        stats: query_stats(
            ctx.store,
            &io_before,
            ctx.hosting,
            &totals,
            cpu_seconds,
            wall_seconds,
            0,
        ),
        assignments,
    })
}

// ---------------------------------------------------------------------------
// UPDATE / DELETE
// ---------------------------------------------------------------------------
//
// DML runs in two phases so that the WAL byte stream is identical at every
// DOP:
//
// 1. **Match** (parallel, read-only): the same partitioned scan SELECT uses
//    evaluates the WHERE clause — strictly boolean for DML — and, for
//    UPDATE, every SET expression against each matching row. Workers hand
//    back `(clustered key, evaluated values)` in partition order, which is
//    key order.
// 2. **Apply** (serial, mutating): rows change through [`Table::update`] /
//    [`Table::delete`] in key order. Scans never write log records, so all
//    WAL appends happen here, in a DOP-independent order.
//
// `SET v = Schema.ArrayUpdate(v, @offset, @replacement)` on a stored LOB
// column is the paper's partial-update path: the apply phase patches only
// the chunk pages the replacement intersects ([`Table::update_col_blob_range`])
// instead of rewriting the whole chain. Anything the in-place conditions
// don't cover falls back to the registered `ArrayUpdate` UDF plus a
// full-row update, so both paths agree on semantics and on errors.

/// One planned SET item: target column index plus how to produce its value.
struct SetItem {
    col: usize,
    plan: SetPlan,
    /// Batch position of the target column's lane, when a SET value may
    /// be a stored LOB reference that must be checked against the row's
    /// own chain.
    own_lane: Option<usize>,
}

enum SetPlan {
    /// Evaluate the expression per matched row during the match phase.
    Eval(Expr),
    /// `SET col = Schema.ArrayUpdate(col, offset, replacement)` with the
    /// target column as its own first argument: only `offset` and
    /// `replacement` are evaluated in the match phase; the stored array is
    /// never materialized unless the in-place patch conditions fail.
    ArrayPatch {
        name: String,
        elem: ElementType,
        class: StorageClass,
        offset: Expr,
        replacement: Expr,
    },
}

/// One SET item's evaluated value for one matched row.
enum SetValue {
    Plain(Value),
    Patch { offset: Value, replacement: Value },
}

fn value_kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "NULL",
        Value::I64(_) => "BIGINT",
        Value::I32(_) => "INT",
        Value::F64(_) => "FLOAT",
        Value::F32(_) => "REAL",
        Value::Bytes(_) => "VARBINARY",
        Value::Str(_) => "VARCHAR",
        Value::Bool(_) => "BIT",
        Value::Lob { .. } => "VARBINARY(MAX)",
    }
}

/// DML predicates are strict: unlike SELECT's truthiness coercion, a
/// WHERE clause that does not evaluate to a boolean is a typed error —
/// silently coercing would make `WHERE id` delete every non-zero row.
pub(crate) fn strict_bool(v: Value, kind: &str) -> Result<bool> {
    match v {
        Value::Bool(b) => Ok(b),
        other => Err(EngineError::Type(format!(
            "{kind} WHERE clause must evaluate to a boolean, got {}",
            value_kind(&other)
        ))),
    }
}

/// Converts an evaluated SET value into the storage representation the
/// column holds.
fn to_row_value(col: &Column, v: Value) -> Result<RowValue> {
    Ok(match col.ctype {
        ColType::I64 => RowValue::I64(v.as_i64()?),
        ColType::I32 => {
            let x = v.as_i64()?;
            RowValue::I32(i32::try_from(x).map_err(|_| {
                EngineError::Type(format!(
                    "value {x} out of range for INT column `{}`",
                    col.name
                ))
            })?)
        }
        ColType::F64 => RowValue::F64(v.as_f64()?),
        ColType::F32 => RowValue::F32(v.as_f64()? as f32),
        ColType::Blob => match v {
            Value::Bytes(b) => RowValue::Bytes(b),
            // A lazy reference that survived the match phase aliases the
            // row's own stored chain (`SET v = v`): keep the reference so
            // `Table::update` keeps the chain.
            Value::Lob { id, len } => RowValue::LobRef(id, len),
            other => {
                return Err(EngineError::Type(format!(
                    "cannot store {} into binary column `{}`",
                    value_kind(&other),
                    col.name
                )))
            }
        },
    })
}

/// Recognizes the in-place candidate shape of a SET expression. Anything
/// else — including an `ArrayUpdate` whose first argument is *not* the
/// target column itself — evaluates as an ordinary expression.
fn plan_set_item(col_name: &str, expr: &Expr) -> SetPlan {
    if let Expr::Func { name, args } = expr {
        if args.len() == 3 {
            if let Some((schema_part, func)) = name.rsplit_once('.') {
                if func.eq_ignore_ascii_case("ArrayUpdate") {
                    if let Some((elem, class)) = crate::arraybind::parse_schema(schema_part) {
                        if let Expr::Col(c) = &args[0] {
                            if c.eq_ignore_ascii_case(col_name) {
                                return SetPlan::ArrayPatch {
                                    name: name.clone(),
                                    elem,
                                    class,
                                    offset: args[1].clone(),
                                    replacement: args[2].clone(),
                                };
                            }
                        }
                    }
                }
            }
        }
    }
    SetPlan::Eval(expr.clone())
}

/// Checks the in-place patch conditions for one `ArrayUpdate` against the
/// stored value and, when they hold, returns the blob byte offset and raw
/// payload to splice. `None` means "use the UDF fallback" — every
/// condition here is also enforced by the fallback, so the two paths
/// accept and reject the same calls.
fn try_in_place(
    store: &mut PageStore,
    stored: &RowValue,
    elem: ElementType,
    class: StorageClass,
    offset: &Value,
    replacement: &Value,
) -> Result<Option<(usize, Vec<u8>)>> {
    // Only out-of-page chains benefit; in-row blobs re-encode cheaply.
    let &RowValue::LobRef(id, _) = stored else {
        return Ok(None);
    };
    let Ok(off) = crate::arraybind::index_vector(offset) else {
        return Ok(None);
    };
    let Ok(repl) = replacement.as_array() else {
        return Ok(None);
    };
    // One header-prefix read — the stored payload is never touched.
    let header = {
        let stream = BlobStream::open(&mut *store, id)?;
        ArrayReader::open(stream)?.header().clone()
    };
    if header.elem != elem || header.class != class {
        return Ok(None);
    }
    if repl.elem() != elem || repl.class() != class {
        return Ok(None);
    }
    // Rank 1 keeps the byte range contiguous regardless of layout order;
    // higher ranks go through the odometer fallback.
    if header.shape.rank() != 1 || off.len() != 1 || repl.rank() != 1 {
        return Ok(None);
    }
    let extent = header.shape.dims()[0];
    let Some(end) = off[0].checked_add(repl.count()) else {
        return Ok(None);
    };
    if end > extent {
        return Ok(None);
    }
    let byte_off = header.header_len() + off[0] * elem.size();
    Ok(Some((byte_off, sqlarray_core::ops::cast::raw(&repl))))
}

/// Materializes a stored value for a UDF-fallback argument.
fn materialize(store: &mut PageStore, v: RowValue) -> Result<Value> {
    match v {
        RowValue::LobRef(id, _) => Ok(Value::Bytes(sqlarray_storage::blob::read_blob(
            &mut *store,
            id,
        )?)),
        other => Ok(Value::from(other)),
    }
}

/// Executes one UPDATE. The caller holds exclusive access to the
/// database (the engine's write guard) for the whole statement.
pub fn exec_update(ctx: &mut DmlCtx<'_>, stmt: &UpdateStmt) -> Result<QueryResult> {
    let lower = stmt.table.to_ascii_lowercase();
    let table = ctx
        .tables
        .get(&lower)
        .cloned()
        .ok_or_else(|| EngineError::Unknown(format!("table `{}`", stmt.table)))?;
    let schema = table.schema().clone();
    let mut sets: Vec<SetItem> = Vec::with_capacity(stmt.sets.len());
    for (col_name, expr) in &stmt.sets {
        let col = schema
            .col_index(col_name)
            .ok_or_else(|| EngineError::Unknown(format!("column `{col_name}`")))?;
        if sets.iter().any(|s| s.col == col) {
            return Err(EngineError::Unsupported(format!(
                "column `{col_name}` is set more than once"
            )));
        }
        sets.push(SetItem {
            col,
            plan: plan_set_item(col_name, expr),
            own_lane: None,
        });
    }
    exec_dml(
        ctx,
        lower,
        table,
        schema,
        stmt.where_clause.as_ref(),
        sets,
        "UPDATE",
    )
}

/// Executes one DELETE. The caller holds exclusive access to the
/// database (the engine's write guard) for the whole statement.
pub fn exec_delete(ctx: &mut DmlCtx<'_>, stmt: &DeleteStmt) -> Result<QueryResult> {
    let lower = stmt.table.to_ascii_lowercase();
    let table = ctx
        .tables
        .get(&lower)
        .cloned()
        .ok_or_else(|| EngineError::Unknown(format!("table `{}`", stmt.table)))?;
    let schema = table.schema().clone();
    exec_dml(
        ctx,
        lower,
        table,
        schema,
        stmt.where_clause.as_ref(),
        Vec::new(),
        "DELETE",
    )
}

/// The shared two-phase DML driver: parallel match, serial apply.
fn exec_dml(
    ctx: &mut DmlCtx<'_>,
    lower_name: String,
    mut table: Table,
    schema: Schema,
    where_clause: Option<&Expr>,
    mut sets: Vec<SetItem>,
    kind: &'static str,
) -> Result<QueryResult> {
    let io_before = ctx.store.stats();
    ctx.hosting.reset();
    let t0 = Instant::now();

    // --- Match phase (parallel, read-only) -----------------------------
    // The same batch scan SELECT runs, with a strictly boolean filter. SET
    // items compile to one projection each (two for an in-place
    // `ArrayUpdate`: offset and replacement).
    let mut c = crate::batch::Compiler::new(&schema, ctx.vars);
    let filter = where_clause.map(|w| c.expr(w));
    let mut items = Vec::new();
    for set in sets.iter_mut() {
        match &set.plan {
            SetPlan::Eval(e) => {
                let value = c.expr(e);
                // Only the escape node can yield a stored LOB reference;
                // the own-chain check reads the target column's lane.
                if matches!(value, BExpr::Row(_)) && schema.columns[set.col].ctype == ColType::Blob
                {
                    set.own_lane = Some(c.col_pos(set.col));
                }
                items.push(BItem::Proj(value));
            }
            SetPlan::ArrayPatch {
                offset,
                replacement,
                ..
            } => {
                items.push(BItem::Proj(c.expr(offset)));
                items.push(BItem::Proj(c.expr(replacement)));
            }
        }
    }
    let plan = c.finish(filter, Vec::new(), items);
    let parts = table.partition(ctx.store, ctx.dop.max(1))?;
    let job = ScanJob {
        table: &table,
        plan: &plan,
        batch_rows: ctx.batch_rows.max(1),
        udfs: ctx.udfs,
        vars: ctx.vars,
        sink: Sink::Match { kind, sets: &sets },
    };
    let (totals, outs) = run_scan(ctx.store, ctx.hosting, &ctx.query, &parts, &job);
    // Concatenating in partition order yields matches in clustered-key
    // order, so the apply phase — and with it the WAL record stream — is
    // identical at every DOP.
    let mut matched: Vec<(i64, Vec<SetValue>)> = Vec::new();
    match outs {
        Ok(outs) => {
            for out in outs {
                match out {
                    WorkerOut::Matched(m) => matched.extend(m),
                    _ => return Err(plan_error("SELECT output from a DML match")),
                }
            }
        }
        Err(e) => {
            // A match-phase abort reports its partial measurements like an
            // aborted SELECT. No page or WAL byte has changed yet, so
            // `rows_affected` is honestly zero.
            *ctx.partial = Some(query_stats(
                ctx.store,
                &io_before,
                ctx.hosting,
                &totals,
                totals.cpu_seconds,
                t0.elapsed().as_secs_f64(),
                0,
            ));
            return Err(e);
        }
    }

    // --- Apply phase (serial, key order) -------------------------------
    let mut rows_affected = 0u64;
    if kind == "DELETE" {
        for (key, _) in matched {
            rows_affected += u64::from(table.delete(ctx.store, key)?);
        }
    } else {
        for (key, vals) in matched {
            let Some(old) = table.get(ctx.store, key)? else {
                continue;
            };
            let mut new = old.clone();
            let mut changed_row = false;
            let mut patches: Vec<(usize, usize, Vec<u8>)> = Vec::new();
            for (item, sv) in sets.iter().zip(vals) {
                match sv {
                    SetValue::Plain(v) => {
                        new[item.col] = to_row_value(&schema.columns[item.col], v)?;
                        changed_row = true;
                    }
                    SetValue::Patch {
                        offset,
                        replacement,
                    } => {
                        let SetPlan::ArrayPatch {
                            name, elem, class, ..
                        } = &item.plan
                        else {
                            unreachable!("Patch values only come from ArrayPatch plans");
                        };
                        match try_in_place(
                            ctx.store,
                            &old[item.col],
                            *elem,
                            *class,
                            &offset,
                            &replacement,
                        )? {
                            Some((byte_off, payload)) => {
                                patches.push((item.col, byte_off, payload));
                            }
                            None => {
                                let cur = materialize(ctx.store, old[item.col].clone())?;
                                let v = ctx.udfs.call(
                                    name,
                                    &[cur, offset, replacement],
                                    ctx.hosting,
                                )?;
                                new[item.col] = to_row_value(&schema.columns[item.col], v)?;
                                changed_row = true;
                            }
                        }
                    }
                }
            }
            // The full-row update goes first: untouched LOB columns pass
            // their references through, so a subsequent patch addresses
            // the same chain.
            if changed_row {
                table.update(ctx.store, key, &new)?;
            }
            for (col, byte_off, payload) in patches {
                table.update_col_blob_range(ctx.store, key, col, byte_off, &payload)?;
            }
            rows_affected += 1;
        }
    }
    // The tree geometry (root, leaf chain, row count) changed: publish the
    // mutated handle back into the catalog map.
    ctx.tables.insert(lower_name, table);

    let wall_seconds = t0.elapsed().as_secs_f64();
    // lint:allow(L002, reason = "wall-clock diagnostics, not query results; timing is inherently non-deterministic and outside the bit-identity contract")
    let cpu_seconds = totals.cpu_seconds + (wall_seconds - totals.max_busy).max(0.0);
    Ok(QueryResult {
        columns: Vec::new(),
        rows: Vec::new(),
        stats: query_stats(
            ctx.store,
            &io_before,
            ctx.hosting,
            &totals,
            cpu_seconds,
            wall_seconds,
            rows_affected,
        ),
        assignments: Vec::new(),
    })
}

/// Collects `(key, SET values)` for every selected row of one batch, in
/// row order.
fn batch_match(
    plan: &BatchPlan,
    sets: &[SetItem],
    cx: &mut Cx<'_, '_>,
    sel: &[u32],
    matched: &mut Vec<(i64, Vec<SetValue>)>,
) -> Result<()> {
    use crate::pushdown::resolve_lob_in_place;
    let mut cols = eval_items(plan, cx, sel)?;
    for (r, &row) in sel.iter().enumerate() {
        // Items line up with SET items: one per `Eval`, two per patch.
        let mut lanes = cols.iter_mut().map(|c| c.take(r));
        let mut next = || lanes.next().ok_or_else(|| plan_error("SET arity mismatch"));
        let mut vals = Vec::with_capacity(sets.len());
        for set in sets {
            match &set.plan {
                SetPlan::Eval(_) => {
                    let mut v = next()?;
                    if let Value::Lob { id, .. } = v {
                        // A reference to the target column's own chain
                        // passes through (the apply phase keeps it); a
                        // reference to any *other* chain is copied here,
                        // while the worker's reader is live — two rows
                        // must never share a chain, or freeing one
                        // corrupts the other.
                        let own = set.own_lane.is_some_and(|pos| {
                            matches!(&cx.batch.cols[pos], ColVec::Blob { lob, .. }
                                if matches!(lob[row as usize], Some((cid, _)) if cid == id))
                        });
                        if !own {
                            resolve_lob_in_place(&mut v, cx.env)?;
                        }
                    }
                    vals.push(SetValue::Plain(v));
                }
                SetPlan::ArrayPatch { .. } => {
                    let mut offset = next()?;
                    resolve_lob_in_place(&mut offset, cx.env)?;
                    let mut replacement = next()?;
                    resolve_lob_in_place(&mut replacement, cx.env)?;
                    vals.push(SetValue::Patch {
                        offset,
                        replacement,
                    });
                }
            }
        }
        matched.push((cx.batch.keys[row as usize], vals));
    }
    Ok(())
}
