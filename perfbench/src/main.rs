//! `sqlarray-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1_scan|cutout_service|ingest_dml \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds a seeded workload against the public engine and storage API,
//! measures it for `--seconds`, checks every answer, prints a human report
//! on standard error and, as the last line of standard output, one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones ([`END_TO_END`]); with
//! `--trace 1` the run records spans around every call into a layer and
//! reports the per-layer ones ([`PER_LAYER`]), writing the spans to
//! `perfbench/traces/<workload>-<seed>.jsonl`. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod cutout;
mod ingest;
mod layers;
mod measure;
mod table1;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use measure::Outcome;
use trace::Span;

/// End-to-end metrics, `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("query_geomean_ms", "ms"),
    ("scan_rows_per_s", "rows/s"),
    ("write_p50_ms", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("wal_bytes_per_user_byte", "ratio"),
    ("store_bytes_per_user_byte", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Span names: the layer boundaries the benchmark wraps, plus its own
/// request/cycle/probe brackets (`bench.*`).
pub mod span {
    /// `Session::query`.
    pub const QUERY: &str = "engine.session.query";
    /// `Session::execute`.
    pub const EXECUTE: &str = "engine.session.execute";
    /// `Session::prepare`.
    pub const PREPARE: &str = "engine.session.prepare";
    /// `Session::execute_prepared`.
    pub const EXECUTE_PREPARED: &str = "engine.session.execute_prepared";
    /// `Table::scan_raw`.
    pub const SCAN_RAW: &str = "storage.table.scan_raw";
    /// `UdfRegistry::call`.
    pub const UDF_CALL: &str = "engine.udf.call";
    /// `sqlarray_core::ops::subarray::subarray`.
    pub const SUBARRAY: &str = "core.ops.subarray";
    /// `power_spectrum_array` (FFT).
    pub const POWER_SPECTRUM: &str = "engine.mathfn.power_spectrum_array";
    /// `gesvd_array` (dense SVD).
    pub const GESVD: &str = "engine.mathfn.gesvd_array";
    /// `Database::bulk_insert_with_dop`.
    pub const BULK_INSERT: &str = "engine.database.bulk_insert_with_dop";
    /// `Database::commit`.
    pub const COMMIT: &str = "engine.database.commit";
    /// `PageStore::crash_image` + `Database::recover`.
    pub const RECOVER: &str = "engine.database.recover";
    /// One request or statement of the measured window (root).
    pub const REQUEST: &str = "bench.request";
    /// One ingest cycle of the measured window (root).
    pub const CYCLE: &str = "bench.cycle";
    /// Answer checking inside a request or cycle.
    pub const CHECK: &str = "bench.check";
    /// A direct layer probe after the window (root).
    pub const PROBE: &str = "bench.probe";
}

/// Per-layer metrics, `(name, unit)`, printed by every traced run.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("plancache.hit_ratio", "ratio"),
    ("plancache.evictions", "count"),
    ("tsql.prepare_us", "us"),
    ("sched.queued_ratio", "ratio"),
    ("sched.wait_us_per_stmt", "us"),
    ("exec.rows_scanned", "count"),
    ("batch.row_share", "ratio"),
    ("batch.fill", "rows"),
    ("batch.batches", "count"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.self_ms", "ms"),
    ("udf.calls", "count"),
    ("udf.item_call_ns", "ns"),
    ("udf.empty_call_ns", "ns"),
    ("udf.item_extract_ns", "ns"),
    ("blob.pages_per_cutout", "pages"),
    ("blob.useful_byte_ratio", "ratio"),
    ("pool.hit_ratio", "ratio"),
    ("pool.hits", "count"),
    ("store.pages_read", "count"),
    ("store.random_read_share", "ratio"),
    ("store.sim_io_s", "s"),
    ("storage.scan_raw_ms", "ms"),
    ("core.subarray_us", "us"),
    ("fft.power_spectrum_us", "us"),
    ("linalg.gesvd_us", "us"),
    ("wal.records", "count"),
    ("wal.bytes", "bytes"),
    ("wal.bytes_per_row_changed", "bytes"),
    ("table.bulk_load_ms", "ms"),
    ("store.commit_ms", "ms"),
    ("store.pages_written", "count"),
    ("trace.span_coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("counters.repeat_ok", "count"),
    ("self_ms.engine.session.query", "ms"),
    ("self_ms.engine.session.execute", "ms"),
    ("self_ms.engine.session.prepare", "ms"),
    ("self_ms.engine.session.execute_prepared", "ms"),
    ("self_ms.storage.table.scan_raw", "ms"),
    ("self_ms.engine.udf.call", "ms"),
    ("self_ms.core.ops.subarray", "ms"),
    ("self_ms.engine.mathfn.power_spectrum_array", "ms"),
    ("self_ms.engine.mathfn.gesvd_array", "ms"),
    ("self_ms.engine.database.bulk_insert_with_dop", "ms"),
    ("self_ms.engine.database.commit", "ms"),
    ("self_ms.bench.client", "ms"),
];

/// Run settings shared by every workload.
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// Measured window length.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Threads, sessions and DOP the workloads use.
    pub nproc: usize,
    /// Common clock origin for every span log.
    pub epoch: Instant,
}

/// What a traced workload hands back besides its [`Outcome`]: the spans
/// and the wall time of its measured window, summed over threads.
#[derive(Default)]
pub struct TraceData {
    /// Every recorded span.
    pub spans: Vec<Span>,
    /// Window wall time summed over the window's threads, nanoseconds.
    pub window_ns: u64,
    /// Names of the window's root spans.
    pub roots: Vec<&'static str>,
}

const WORKLOADS: [&str; 3] = ["table1_scan", "cutout_service", "ingest_dml"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: sqlarray-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Removes every `SQLARRAY_*` variable from this process's environment
/// before any engine code reads one, so the engine runs on its built-in
/// defaults whatever the caller's environment holds: DOP and worker budget
/// = `nproc`, the default batch size and admission queue, no statement
/// timeout and no memory budget. Returns the names removed.
fn clear_engine_env() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SQLARRAY_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

fn main() -> ExitCode {
    let ignored = clear_engine_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds as f64,
        trace: args.trace,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        epoch: Instant::now(),
    };
    eprintln!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        args.workload, cfg.seed, args.seconds, cfg.trace as u8, cfg.nproc
    );
    if !ignored.is_empty() {
        eprintln!("ignoring engine settings from the environment: {ignored:?}");
    }
    let (mut out, traced) = match args.workload.as_str() {
        "table1_scan" => table1::run(&cfg),
        "cutout_service" => cutout::run(&cfg),
        _ => ingest::run(&cfg),
    };
    out.set("peak_rss_mb", measure::peak_rss_mb());

    let declared: &[(&str, &str)] = if cfg.trace {
        layers::finish(&mut out, &traced);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-{}.jsonl", args.workload, cfg.seed));
        match trace::write_jsonl(&path, &traced.spans) {
            Ok(()) => out.note(format!(
                "wrote {} spans to {}",
                traced.spans.len(),
                path.display()
            )),
            Err(e) => out.require(false, format!("writing {}: {e}", path.display())),
        }
        &PER_LAYER
    } else {
        &END_TO_END
    };

    report(&out, declared);
    match out.json(declared) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark bug: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The human report on standard error.
fn report(out: &Outcome, declared: &[(&str, &str)]) {
    for n in &out.notes {
        eprintln!("  {n}");
    }
    for (name, unit) in declared {
        let v = out.values.get(name).copied().unwrap_or(f64::NAN);
        match out.idle.get(name) {
            Some(why) => eprintln!("  {name:<46} {:>14} {unit:<6} (idle: {why})", "-"),
            None => eprintln!("  {name:<46} {v:>14.4} {unit}"),
        }
    }
    eprintln!(
        "  checked {} operations, {} failed (error_rate {:.6})",
        out.attempted,
        out.failed,
        measure::ratio(out.failed as f64, out.attempted as f64)
    );
    for b in &out.broken {
        eprintln!("  BROKEN: {b}");
    }
}
