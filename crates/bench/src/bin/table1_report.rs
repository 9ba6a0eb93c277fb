//! Reproduces **Table 1** of the paper plus the §7.1 overhead
//! decomposition and the §6.2 storage comparison.
//!
//! ```text
//! cargo run --release -p sqlarray-bench --bin table1_report
//! SQLARRAY_ROWS=2000000 cargo run --release -p sqlarray-bench --bin table1_report
//! ```

use sqlarray_bench::{
    build_table1_db_with_dop, rows_from_env, run_batch_report, run_concurrency_report,
    run_lifecycle_report, run_linalg_report, run_subarray_report, run_table1, storage_overhead,
    CONCURRENCY_QUERY, TABLE1_QUERIES, TESTBED_DOP,
};
use sqlarray_engine::HostingModel;

fn main() {
    let rows = rows_from_env();
    println!("== sqlarray-rs: Table 1 reproduction ==");
    println!(
        "rows per table: {rows} (paper: 357M); hosting model: 2 us per CLR call; \
         modelled DOP: {TESTBED_DOP}; disk: 1150 MB/s sequential"
    );
    println!();

    // --- parallel bulk ingest ----------------------------------------
    // Load the two tables twice, cold: once serial, once at the
    // configured DOP. The simulated accounting must be identical — only
    // the wall clock may differ.
    eprintln!("bulk-loading Tscalar and Tvector ({rows} rows each), serial then parallel...");
    let (_, serial_ingest) = build_table1_db_with_dop(rows, HostingModel::paper_clr(), 1);
    let (mut session, par_ingest) = build_table1_db_with_dop(
        rows,
        HostingModel::paper_clr(),
        sqlarray_core::parallel::configured_dop(),
    );
    assert_eq!(
        (
            serial_ingest.io,
            serial_ingest.page_count,
            serial_ingest.seek_position
        ),
        (
            par_ingest.io,
            par_ingest.page_count,
            par_ingest.seek_position
        ),
        "parallel ingest accounting diverged from serial"
    );
    println!(
        "ingest: 2x{rows} rows bulk-loaded in {:.3} s serial vs {:.3} s at DOP {} \
         ({:.2}x); {} pages written, IoStats/layout/seek identical",
        serial_ingest.wall_seconds,
        par_ingest.wall_seconds,
        par_ingest.dop,
        serial_ingest.wall_seconds / par_ingest.wall_seconds.max(1e-9),
        par_ingest.io.pages_written,
    );
    let io = &par_ingest.io;
    println!(
        "wal: {:.3} MB logged across {} records, {:.1} MB forced in place ({} pages) \
         of {:.1} MB of page writes",
        io.wal_bytes as f64 / 1e6,
        io.wal_records,
        io.forced_bytes() as f64 / 1e6,
        io.forced_pages,
        io.bytes_written() as f64 / 1e6,
    );
    println!();

    let dop = session.dop();
    println!(
        "measured columns: each query runs cold twice, serial (DOP 1) and \
         parallel (DOP {dop}, from SQLARRAY_DOP/cores);"
    );
    println!("the harness asserts both runs return bit-identical results.");
    println!();

    println!(
        "{:<3} {:>13} {:>8} {:>11} | {:>11} {:>11} {:>4} {:>8}   statement",
        "Q", "model exec[s]", "CPU [%]", "I/O [MB/s]", "serial [s]", "par [s]", "DOP", "speedup",
    );
    println!("{}", "-".repeat(132));
    let table = run_table1(&mut session);
    for row in &table {
        println!(
            "{:<3} {:>13.3} {:>8.0} {:>11.0} | {:>11.3} {:>11.3} {:>4} {:>7.2}x   {}",
            row.query,
            row.exec_seconds,
            row.cpu_percent,
            row.io_mb_per_sec,
            row.wall_serial_seconds,
            row.wall_parallel_seconds,
            row.measured_dop,
            row.measured_speedup,
            TABLE1_QUERIES[row.query - 1]
        );
    }
    let best = table
        .iter()
        .max_by(|a, b| a.measured_speedup.total_cmp(&b.measured_speedup))
        .expect("five rows");
    println!();
    println!(
        "best measured parallel speedup: {:.2}x on Q{} at DOP {} \
         (modelled projection divides CPU by {TESTBED_DOP})",
        best.measured_speedup, best.query, best.measured_dop
    );

    println!();
    println!("== paper reference (357M rows, Dell PowerVault, SQL Server 2008) ==");
    println!("1: 18 s, 45 % CPU, 1150 MB/s    4: 133 s, 98 % CPU, 215 MB/s");
    println!("2: 25 s, 38 % CPU, 1150 MB/s    5: 109 s, 99 % CPU, 265 MB/s");
    println!("3: 18 s, 90 % CPU, 1150 MB/s");

    // --- §7.1: overhead decomposition --------------------------------
    println!();
    println!("== Sec. 7.1 derived metrics ==");
    let q1 = &table[0];
    let q3 = &table[2];
    let q4 = &table[3];
    let q5 = &table[4];
    let empty_call_cost = (q5.cpu_seconds - q3.cpu_seconds).max(0.0) / q5.udf_calls.max(1) as f64;
    println!(
        "cost per empty CLR call: {:.2} us (paper: ~2 us)",
        empty_call_cost * 1e6
    );
    let item_extra = (q4.cpu_seconds - q5.cpu_seconds) / q5.cpu_seconds * 100.0;
    println!(
        "item extraction adds {:.0} % over the empty call (paper: 22 %)",
        item_extra
    );
    let udf_share = (q5.cpu_seconds - q1.cpu_seconds).max(0.0) / q5.cpu_seconds * 100.0;
    println!(
        "UDF-call share of Q5 CPU: {:.0} % (paper: at least 38 % even when empty)",
        udf_share
    );
    println!(
        "Q2/Q1 execution-time ratio: {:.2} (paper: 25/18 = 1.39)",
        table[1].exec_seconds / q1.exec_seconds
    );

    // --- linalg kernels: serial vs blocked vs parallel ---------------
    println!();
    println!("== linalg kernels (PCA/spectral path, Sec. 2.2) ==");
    let lr = run_linalg_report(sqlarray_core::parallel::configured_dop());
    println!(
        "gemm {n}x{n}: naive {naive:.3} s, blocked {blocked:.3} s ({bx:.2}x), \
         blocked+parallel {par:.3} s at DOP {dop} ({px:.2}x); results bit-identical",
        n = lr.gemm_n,
        naive = lr.gemm_naive_seconds,
        blocked = lr.gemm_blocked_seconds,
        bx = lr.gemm_naive_seconds / lr.gemm_blocked_seconds.max(1e-9),
        par = lr.gemm_parallel_seconds,
        dop = lr.dop,
        px = lr.gemm_naive_seconds / lr.gemm_parallel_seconds.max(1e-9),
    );
    println!(
        "pca fit {s}x{f} k={k}: serial {ser:.3} s, parallel {par:.3} s at DOP {dop} \
         ({x:.2}x); basis bit-identical",
        s = lr.pca_shape.0,
        f = lr.pca_shape.1,
        k = lr.pca_shape.2,
        ser = lr.pca_serial_seconds,
        par = lr.pca_parallel_seconds,
        dop = lr.dop,
        x = lr.pca_serial_seconds / lr.pca_parallel_seconds.max(1e-9),
    );

    // --- §3.3: subarray pushdown over LOB arrays ---------------------
    println!();
    println!("== Subarray pushdown (lazy LOB values, page-ranged reads, Sec. 3.3) ==");
    for r in run_subarray_report() {
        println!(
            "{:>3} MB array, {:.2}% slice: pushdown {} pages / {:.4} s vs full \
             {} pages / {:.4} s  ({:.0}x fewer pages, {:.1}x faster); results bit-identical",
            r.mb,
            r.slice_percent,
            r.pushdown_pages,
            r.pushdown_seconds,
            r.full_pages,
            r.full_seconds,
            r.page_factor(),
            r.full_seconds / r.pushdown_seconds.max(1e-9),
        );
    }

    // --- vectorized batch execution ----------------------------------
    println!();
    println!("== Vectorized batch execution (default-size vs one-row batches) ==");
    println!("each query warm, serial, best of three; bit-identity asserted at DOP 1/2/4/8 first");
    for r in run_batch_report(&mut session) {
        println!(
            "{:<16} 1-row {:.3} s vs batch {:.3} s  ({:.2}x); {} batches, \
             mean fill {:.0} rows   {}",
            r.label,
            r.one_row_seconds,
            r.batch_seconds,
            r.speedup(),
            r.batches,
            r.batch_fill,
            r.sql,
        );
    }

    // --- shared-engine concurrency -----------------------------------
    println!();
    println!("== Shared-engine concurrency (N sessions over one engine) ==");
    println!(
        "fixed batch of 12 x Q3 ({CONCURRENCY_QUERY}), each session at DOP 1, warm; \
         bit-identity vs a single session asserted first"
    );
    let conc = run_concurrency_report(&mut session, 12);
    let single_qps = conc.first().map(|r| r.qps()).unwrap_or(0.0);
    for r in &conc {
        println!(
            "{} session(s): {:.3} s wall, {:>6.1} q/s ({:.2}x vs single), \
             {} plan-cache hits",
            r.sessions,
            r.wall_seconds,
            r.qps(),
            r.qps() / single_qps.max(1e-9),
            r.plan_hits,
        );
    }

    // --- query lifecycle under synthetic overload --------------------
    println!();
    println!("== Query lifecycle (admission control under synthetic overload) ==");
    println!(
        "worker budget 1, queue cap 2, 25 ms statement deadline; demand \
         exceeds capacity by construction, every completion asserted \
         bit-identical to an uncontended baseline"
    );
    let lr = run_lifecycle_report(8, 6);
    println!(
        "{} clients x {} statements: {} completed, {} rejected (Overloaded), \
         {} deadline-shed (AdmissionTimeout/Timeout); mean admission wait \
         {:.1} ms",
        lr.clients,
        lr.attempted / lr.clients,
        lr.completed,
        lr.rejected_overload,
        lr.admission_timeouts,
        lr.mean_wait_ms,
    );

    // --- §6.2: storage sizes -----------------------------------------
    println!();
    println!("== Sec. 6.2 storage comparison ==");
    let (s, v, ratio) = storage_overhead(&mut session);
    println!("Tscalar: {s:.1} bytes/row   Tvector: {v:.1} bytes/row");
    println!(
        "Tvector is {:.0} % bigger (paper: 43 % from the 24-byte array headers)",
        (ratio - 1.0) * 100.0
    );
}
