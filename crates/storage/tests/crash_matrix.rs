//! The crash matrix: every mutation path (bulk load, UPDATE-style row and
//! blob-range maintenance, DELETE) is killed at **every** durable-write
//! injection point — each WAL append and each forced bulk page, with clean
//! and torn cuts — and recovery must land byte-for-byte on the last
//! complete commit: base pages, checksums, free list, catalog, and every
//! decodable row and LOB chain.
//!
//! Injection points are enumerated from one clean run of the victim
//! ([`IoStats::durable_writes`] counts every append and forced page,
//! durable or not), so the matrix is exhaustive by construction: a new WAL
//! record type or an extra logged or forced write in some code path
//! automatically widens the matrix. For a minimally logged bulk load that
//! includes cuts mid-force, between the force and its `Bulk` record, and
//! between `Bulk` and `Commit`.
//!
//! The property-based suite generalizes the fixed victims: random
//! insert/update/patch/delete interleavings with a commit after every
//! statement, crashed at a random record allowance, must recover exactly
//! the prefix covered by the last surviving commit.

use proptest::prelude::*;
use sqlarray_storage::fail::{corrupt_forced_byte, tear_forced_page, tear_wal, FailStore};
use sqlarray_storage::{
    wal, ColType, DiskImage, IoStats, PageStore, RowValue, Schema, StorageError, Table,
};

const CHUNK_DATA: usize = 8176; // PAGE_SIZE - 16, the blob chunk payload

fn schema() -> Schema {
    Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ])
}

/// Deterministic blob payload: `len` bytes seeded by `seed`.
fn pattern(seed: i64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(31).wrapping_add(seed as u64) as u8)
        .collect()
}

fn row(k: i64, tag: i32, blob_len: usize) -> (i64, Vec<RowValue>) {
    (
        k,
        vec![
            RowValue::I64(k),
            RowValue::I32(tag),
            RowValue::Bytes(pattern(k, blob_len)),
        ],
    )
}

/// Commits with the table's tree geometry as the catalog payload, the
/// way an engine-level commit carries its table map.
fn commit(store: &mut PageStore, t: &Table) {
    let (root, first_leaf, rows, depth) = t.tree_parts();
    let mut cat = Vec::new();
    cat.extend_from_slice(&root.to_le_bytes());
    cat.extend_from_slice(&first_leaf.to_le_bytes());
    cat.extend_from_slice(&rows.to_le_bytes());
    cat.extend_from_slice(&depth.to_le_bytes());
    store.commit(&cat);
}

fn parse_catalog(cat: &[u8]) -> (u64, u64, u64, u32) {
    assert_eq!(cat.len(), 28, "catalog payload has the committed shape");
    let u64_at = |o: usize| u64::from_le_bytes(cat[o..o + 8].try_into().unwrap());
    (
        u64_at(0),
        u64_at(8),
        u64_at(16),
        u32::from_le_bytes(cat[24..28].try_into().unwrap()),
    )
}

/// Everything recovery promises, in comparable form: the canonical
/// (checkpointed) disk image, the committed catalog, and every row the
/// catalog's tree can decode — LOB chains read back to bytes.
#[derive(PartialEq, Debug)]
struct RecoveredState {
    pages: Vec<Box<[u8]>>,
    sums: Vec<u32>,
    free: Vec<u64>,
    catalog: Option<Vec<u8>>,
    rows: Vec<(i64, i64, i32, Vec<u8>)>,
}

/// Reboots from `image` and materializes the full recovered state. Panics
/// on any recovery or decode failure: inside the matrix, every crash
/// point must yield a *readable* store, not just an openable one.
fn recover(image: &DiskImage) -> RecoveredState {
    let rec = PageStore::open(image).expect("recovery accepts the crashed image");
    let mut store = rec.store;
    let mut rows = Vec::new();
    if let Some(cat) = &rec.catalog {
        let t = Table::from_parts("T".into(), schema(), parse_catalog(cat));
        let n = t.tree_parts().2 as i64;
        // Keys are drawn from 0..64 in every workload here; probing the
        // whole range exercises both present and absent keys.
        let mut seen = 0i64;
        for k in 0..64 {
            if let Some(vals) = t.get(&mut store, k).expect("recovered leaf decodes") {
                seen += 1;
                let RowValue::I64(id) = vals[0] else {
                    panic!("id column decodes as I64")
                };
                let RowValue::I32(tag) = vals[1] else {
                    panic!("tag column decodes as I32")
                };
                let bytes = match &vals[2] {
                    RowValue::Bytes(b) => b.clone(),
                    &RowValue::LobRef(id, len) => {
                        let b = sqlarray_storage::blob::read_blob(&mut store, id)
                            .expect("recovered LOB chain reads back");
                        assert_eq!(b.len(), len as usize, "LOB length matches its ref");
                        b
                    }
                    other => panic!("blob column decodes as bytes, got {other:?}"),
                };
                rows.push((k, id, tag, bytes));
            }
        }
        assert_eq!(seen, n, "row count in catalog matches decodable rows");
    }
    let canon = store.crash_image();
    assert!(
        canon.wal.is_empty(),
        "recovery checkpoints: log starts empty"
    );
    RecoveredState {
        pages: canon.pages,
        sums: canon.sums,
        free: canon.free,
        catalog: rec.catalog,
        rows,
    }
}

/// Kills `victim` at every durable-write injection point (clean cut and a
/// 17-byte torn prefix of the first lost record or forced page), asserting
/// recovery is byte-identical to the pre-victim commit for every
/// incomplete cut, and to the post-victim commit when everything reached
/// the disk. `victim` must end with exactly one commit (its last append).
/// Returns the clean run's I/O counters.
fn run_matrix(
    setup: &dyn Fn() -> (PageStore, Table),
    victim: &dyn Fn(&mut PageStore, &mut Table),
) -> IoStats {
    // Clean run: enumerate the injection points, capture both anchors.
    let (mut store, mut t) = setup();
    let pre = recover(&store.crash_image());
    let before = store.stats();
    victim(&mut store, &mut t);
    let io = store.stats().since(&before);
    let n_writes = io.durable_writes();
    assert!(n_writes > 1, "victim must write, then commit");
    let post = recover(&store.crash_image());
    assert_ne!(pre.rows, post.rows, "victim must change visible state");

    for allow in 0..=n_writes {
        for torn in [0usize, 17] {
            let (store, mut t) = setup();
            let mut f = FailStore::new(store);
            f.kill_at_write(allow, torn);
            victim(&mut f, &mut t);
            let got = recover(&f.crash());
            // The victim's last write is its commit record: any cut that
            // loses a write loses the commit, so recovery must roll the
            // whole victim back; only the full log carries it forward.
            let want = if allow < n_writes { &pre } else { &post };
            assert_eq!(
                &got, want,
                "crash at write {allow}/{n_writes} (torn {torn}) must recover \
                 the last complete commit"
            );
        }
    }
    io
}

/// Rows mixing inline blobs, a 2-chunk LOB, and a 3-chunk LOB, so leaf
/// records, root pages, chunk chains and the free list all participate.
fn mixed_rows(n: i64) -> Vec<(i64, Vec<RowValue>)> {
    (0..n)
        .map(|k| match k % 4 {
            0 => row(k, k as i32, 64),            // inline
            1 => row(k, -k as i32, 7000),         // inline, near the limit
            2 => row(k, 2 * k as i32, 12_000),    // 2-chunk LOB
            _ => row(k, -(2 * k) as i32, 20_000), // 3-chunk LOB
        })
        .collect()
}

fn empty_committed() -> (PageStore, Table) {
    let mut store = PageStore::new();
    let t = Table::create(&mut store, "T", schema()).unwrap();
    commit(&mut store, &t);
    (store, t)
}

fn loaded_committed() -> (PageStore, Table) {
    let (mut store, mut t) = empty_committed();
    t.bulk_load(&mut store, &mixed_rows(12), 1).unwrap();
    commit(&mut store, &t);
    (store, t)
}

#[test]
fn bulk_load_crash_matrix_at_every_dop() {
    for dop in [1usize, 2, 4, 8] {
        let io = run_matrix(&empty_committed, &move |store, t| {
            t.bulk_load(store, &mixed_rows(12), dop).unwrap();
            commit(store, t);
        });
        // The fresh leaves are forced, so the matrix cuts mid-force too.
        assert!(io.forced_pages > 1, "dop {dop}: {io:?}");
    }
}

#[test]
fn bulk_load_wal_stream_is_dop_invariant() {
    // The matrix above re-proves recovery per DOP; this pins the stronger
    // fact it rests on: the *durable bytes themselves* — base pages, forced
    // extent and log — are identical, so every crash point at DOP 8 is the
    // same disk state as at DOP 1.
    let image_at = |dop: usize| {
        let (mut store, mut t) = empty_committed();
        t.bulk_load(&mut store, &mixed_rows(24), dop).unwrap();
        commit(&mut store, &t);
        store.crash_image()
    };
    let serial = image_at(1);
    assert!(!serial.forced.is_empty());
    for dop in [2usize, 4, 8] {
        assert_eq!(image_at(dop), serial, "disk image differs at dop {dop}");
    }
}

/// A bulk load's crash image with its commit intact, or with the log cut
/// just before the commit record (the `Bulk` records survive, the commit
/// does not).
fn bulk_image(dop: usize, committed: bool) -> DiskImage {
    let (mut store, mut t) = empty_committed();
    t.bulk_load(&mut store, &mixed_rows(24), dop).unwrap();
    let before_commit = store.crash_image().wal.len();
    commit(&mut store, &t);
    let mut image = store.crash_image();
    if !committed {
        tear_wal(&mut image, before_commit);
    }
    image
}

#[test]
fn damaged_forced_page_is_typed_with_a_commit_and_ignored_without() {
    let (store, _) = empty_committed();
    let pre = recover(&store.crash_image());
    for dop in [1usize, 2, 4, 8] {
        let n_forced = bulk_image(dop, true).forced.len();
        for idx in [0, n_forced / 2, n_forced - 1] {
            type Damage = fn(&mut DiskImage, usize);
            let damages: [(&str, Damage); 2] = [
                ("torn", |img, idx| tear_forced_page(img, idx, 100)),
                ("flipped", |img, idx| corrupt_forced_byte(img, idx, 4000)),
            ];
            for (what, damage) in damages {
                // A committed Bulk names the page: replay refuses it.
                let mut image = bulk_image(dop, true);
                let page = image.forced[idx].0;
                damage(&mut image, idx);
                let err = PageStore::open(&image).unwrap_err();
                assert!(
                    matches!(err, StorageError::PageCorrupt { page: p, .. } if p == page),
                    "dop {dop}: {what} forced page {page}: got {err:?}"
                );
                // No commit covers it: the allocation is discarded unread
                // and recovery lands on the pre-load commit.
                let mut image = bulk_image(dop, false);
                damage(&mut image, idx);
                assert_eq!(recover(&image), pre, "dop {dop}: {what} page {page}");
            }
        }
    }
}

#[test]
fn bulk_load_logs_ranges_not_page_images() {
    let (mut store, mut t) = empty_committed();
    let before = store.stats();
    t.bulk_load(&mut store, &mixed_rows(64), 2).unwrap();
    let io = store.stats().since(&before);
    // Every fresh leaf and internal page is forced; only the recycled
    // root leaf and the LOB spill are logged page by page.
    let leaf_pages = t.data_pages(&mut store).unwrap();
    assert!(io.forced_pages >= leaf_pages - 1, "{io:?}");
    let log = store.crash_image().wal;
    let recs = wal::scan_strict(&log).unwrap();
    let bulk: Vec<(u64, u64)> = recs
        .iter()
        .filter_map(|(_, r)| match *r {
            wal::WalRecord::Bulk { first, count } => Some((first, count)),
            _ => None,
        })
        .collect();
    assert_eq!(bulk.iter().map(|b| b.1).sum::<u64>(), io.forced_pages);
    assert!(recs.iter().all(|(_, r)| match r {
        wal::WalRecord::Write { page, .. } => !bulk
            .iter()
            .any(|&(first, count)| (first..first + count).contains(page)),
        _ => true,
    }));
}

#[test]
fn stale_frame_after_a_commit_is_discarded() {
    // A checksum-valid frame whose LSN does not continue the log (here a
    // copy of the setup's own commit) must not be taken for a newer
    // commit: the scan ends at the LSN break and the tail is discarded.
    let (mut store, mut t) = empty_committed();
    let stale_commit = store.crash_image().wal;
    t.bulk_load(&mut store, &mixed_rows(12), 2).unwrap();
    commit(&mut store, &t);
    let want = recover(&store.crash_image());
    let mut image = store.crash_image();
    image.wal.extend_from_slice(&stale_commit);
    let rec = PageStore::open(&image).unwrap();
    assert_eq!(rec.discarded_bytes, stale_commit.len());
    assert_eq!(recover(&image), want);
}

#[test]
fn update_crash_matrix() {
    run_matrix(&loaded_committed, &|store, t| {
        // Replace a LOB chain (free + rewrite), grow an inline value out
        // of page, shrink a LOB back inline, and touch a scalar column.
        t.update(store, 2, &row(2, 99, 15_000).1).unwrap();
        t.update(store, 0, &row(0, 7, 11_000).1).unwrap();
        t.update(store, 3, &row(3, -7, 80).1).unwrap();
        t.update(store, 1, &row(1, 1000, 7000).1).unwrap();
        commit(store, t);
    });
}

#[test]
fn blob_range_update_crash_matrix() {
    run_matrix(&loaded_committed, &|store, t| {
        // The ArrayUpdate path: splice bytes across a chunk boundary of a
        // stored chain, and splice inside an inline blob.
        t.update_col_blob_range(store, 7, 2, CHUNK_DATA - 50, &pattern(77, 300))
            .unwrap();
        t.update_col_blob_range(store, 1, 2, 100, &pattern(78, 64))
            .unwrap();
        commit(store, t);
    });
}

#[test]
fn delete_crash_matrix() {
    run_matrix(&loaded_committed, &|store, t| {
        // Inline rows and both LOB shapes, including a whole leaf's worth.
        for k in [0i64, 2, 3, 5, 7, 11] {
            assert!(t.delete(store, k).unwrap());
        }
        commit(store, t);
    });
}

#[test]
fn torn_wal_tail_is_typed_and_recovery_discards_it() {
    let (mut store, mut t) = loaded_committed();
    t.update(&mut store, 2, &row(2, 5, 9_000).1).unwrap();
    commit(&mut store, &t);
    let mut image = store.crash_image();
    let full = image.wal.len();
    tear_wal(&mut image, full - 5);
    // The strict scanner names the torn frame's offset…
    let err = wal::scan_strict(&image.wal).unwrap_err();
    assert!(
        matches!(err, StorageError::WalTorn { offset } if offset < full - 5),
        "got {err:?}"
    );
    // …while recovery treats the same tail as a crash artifact: replay
    // stops at the last complete commit and reports the discarded bytes.
    let rec = PageStore::open(&image).unwrap();
    assert!(rec.discarded_bytes > 0);
    assert!(rec.catalog.is_some());
}

#[test]
fn short_leaf_record_is_a_typed_row_error() {
    // A leaf record cut short (here: a row claiming an inline blob longer
    // than its bytes) surfaces as RowCorrupt, not a panic or a wrong row.
    let schema = schema();
    let (_, vals) = row(9, 9, 64);
    let full = sqlarray_storage::row::encode_row(&mut PageStore::new(), &schema, &vals).unwrap();
    let short = &full[..full.len() - 10];
    let err = sqlarray_storage::row::decode_row(&schema, short).unwrap_err();
    assert!(matches!(err, StorageError::RowCorrupt(_)), "got {err:?}");
}

// ---------------------------------------------------------------------------
// Property-based generalization
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Upsert(i64, usize),
    Patch(i64, usize, usize),
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0i64..8, 0usize..20_000, 1usize..600).prop_map(|(kind, k, a, b)| match kind {
        0 => Op::Upsert(k, a),
        1 => Op::Patch(k, a, b),
        _ => Op::Delete(k),
    })
}

/// Applies one op; every generated op is valid against the current state
/// by construction (bounds are clamped against the stored value).
fn apply(store: &mut PageStore, t: &mut Table, op: &Op, step: i64) {
    match *op {
        Op::Upsert(k, len) => {
            let vals = row(k, (step + 1) as i32, len).1;
            if t.get(store, k).unwrap().is_some() {
                assert!(t.update(store, k, &vals).unwrap());
            } else {
                t.insert(store, k, &vals).unwrap();
            }
        }
        Op::Patch(k, off, len) => {
            let Some(vals) = t.get(store, k).unwrap() else {
                return;
            };
            let total = match &vals[2] {
                RowValue::Bytes(b) => b.len(),
                &RowValue::LobRef(_, l) => l as usize,
                _ => unreachable!(),
            };
            if total == 0 {
                return;
            }
            let off = off % total;
            let len = len.min(total - off);
            t.update_col_blob_range(store, k, 2, off, &pattern(step, len))
                .unwrap();
        }
        Op::Delete(k) => {
            t.delete(store, k).unwrap();
        }
    }
}

proptest! {
    /// Statement-level autocommit under a random crash: with a commit
    /// after every op, recovery must produce exactly the state of the
    /// longest op prefix whose commit reached the log — never a blend.
    #[test]
    fn random_dml_crashes_recover_the_last_committed_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..10),
        crash_pick in any::<u32>(),
        torn_pick in any::<u8>(),
    ) {
        // Clean run: per-prefix cumulative record counts and states.
        let (mut store, mut t) = loaded_committed();
        let base_records = store.stats().durable_writes();
        let mut cut_records = vec![0u64]; // writes consumed by prefix i
        let mut states = vec![recover(&store.crash_image())];
        for (i, op) in ops.iter().enumerate() {
            apply(&mut store, &mut t, op, i as i64);
            commit(&mut store, &t);
            cut_records.push(store.stats().durable_writes() - base_records);
            states.push(recover(&store.crash_image()));
        }
        let total = *cut_records.last().unwrap();

        // Armed run at a derived crash point.
        let allow = u64::from(crash_pick) % (total + 1);
        let torn = [0usize, 1, 17][usize::from(torn_pick) % 3];
        let (store, mut t) = loaded_committed();
        let mut f = FailStore::new(store);
        f.kill_at_write(allow, torn);
        for (i, op) in ops.iter().enumerate() {
            apply(&mut f, &mut t, op, i as i64);
            commit(&mut f, &t);
        }
        let got = recover(&f.crash());
        // Expected: the longest prefix whose commit record survived.
        let covered = cut_records.iter().rposition(|&c| c <= allow).unwrap();
        prop_assert!(
            got == states[covered],
            "crash at {}/{} (torn {}) must recover prefix {}",
            allow, total, torn, covered
        );
    }
}
