//! WAL cost of the ingest path: a minimally logged bulk load (fresh pages
//! forced, one `Bulk` record per range) and its commit, the
//! `ArrayUpdate`-style blob-range patch, and recovery replay from a
//! crashed disk image. Complements the `wal` line in `table1_report`,
//! which reports logged and forced bytes for the full Table 1 load.

use criterion::{criterion_group, criterion_main, Criterion};
use sqlarray_storage::{ColType, PageStore, RowValue, Schema, Table};

fn schema() -> Schema {
    Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ])
}

/// Mixed inline/LOB rows, the same shape the crash matrix exercises.
fn rows(n: i64) -> Vec<(i64, Vec<RowValue>)> {
    (0..n)
        .map(|k| {
            let len = match k % 4 {
                0 => 64,
                1 => 2000,
                2 => 7000,
                _ => 12_000,
            };
            let blob: Vec<u8> = (0..len).map(|i| (i as u64 ^ k as u64) as u8).collect();
            (
                k,
                vec![
                    RowValue::I64(k),
                    RowValue::I32(k as i32),
                    RowValue::Bytes(blob),
                ],
            )
        })
        .collect()
}

fn bench_wal_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_ingest");
    group.sample_size(10);

    let data = rows(8_000);
    group.bench_function("bulk_load_logged_8k_rows", |b| {
        b.iter(|| {
            let mut store = PageStore::new();
            let mut t = Table::create(&mut store, "T", schema()).unwrap();
            t.bulk_load(&mut store, &data, 4).unwrap();
            store.commit(&[]);
            (store.page_count(), store.stats().wal_bytes)
        })
    });

    // A committed store to patch and to recover from.
    let mut store = PageStore::new();
    let mut t = Table::create(&mut store, "T", schema()).unwrap();
    t.bulk_load(&mut store, &data, 4).unwrap();
    store.commit(&[]);

    let patch: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
    group.bench_function("blob_range_patch_3k", |b| {
        b.iter(|| {
            // Key 3 carries a 12 kB LOB; patch a 3 kB range across its
            // first chunk boundary, then commit the statement.
            let n = t
                .update_col_blob_range(&mut store, 3, 2, 5000, &patch)
                .unwrap();
            store.commit(&[]);
            n
        })
    });

    let image = store.crash_image();
    group.bench_function("recover_replay", |b| {
        b.iter(|| {
            let rec = PageStore::open(&image).unwrap();
            (rec.applied_records, rec.store.page_count())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_wal_ingest);
criterion_main!(benches);
