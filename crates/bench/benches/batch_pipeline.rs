//! One-row batches vs default-size batches of the columnar pipeline.
//!
//! Times the two `BATCH_QUERIES` workload shapes (filter-heavy and
//! aggregate-heavy) over `Tscalar` at three batch sizes: one row (the
//! pipeline's per-row cost, `set_batch_rows(1)`), 1 K rows (the default),
//! and 4 K rows. Before any timing, each query is checked bit-identical
//! between one-row batches and the larger sizes at DOP 1/2/4/8 — the
//! bench run itself fails on a divergence. Warm cache and DOP 1
//! throughout, so the comparison isolates per-batch amortization.

use criterion::{criterion_group, criterion_main, Criterion};
use sqlarray_bench::{build_table1_db_with, rows_bit_identical, BATCH_QUERIES};
use sqlarray_engine::HostingModel;

const ROWS: i64 = 100_000;

fn bench_batch_pipeline(c: &mut Criterion) {
    let mut session = build_table1_db_with(ROWS, HostingModel::free());
    session.set_dop(1);

    // Correctness gate: the configurations being compared must agree.
    for (label, sql) in BATCH_QUERIES {
        session.set_batch_rows(1);
        let base = session.query(sql).expect("one-row-batch query");
        for dop in [1usize, 2, 4, 8] {
            for batch in [1024usize, 4096] {
                session.set_batch_rows(batch);
                session.set_dop(dop);
                let got = session.query(sql).expect("batch-path query");
                assert!(
                    rows_bit_identical(&base.rows, &got.rows),
                    "{label}: batch={batch} dop={dop} diverged from one-row batches"
                );
            }
        }
        session.set_dop(1);
    }

    let mut group = c.benchmark_group("batch_pipeline");
    for (label, sql) in BATCH_QUERIES {
        session.set_batch_rows(1);
        group.bench_function(format!("{label}/batch1"), |b| {
            b.iter(|| session.query(sql).expect("one-row-batch query"))
        });
        for batch in [1024usize, 4096] {
            session.set_batch_rows(batch);
            group.bench_function(format!("{label}/batch{batch}"), |b| {
                b.iter(|| session.query(sql).expect("batch-path query"))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batch_pipeline);
criterion_main!(benches);
