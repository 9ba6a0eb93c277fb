//! Clustered tables: schema + B-tree + blob store, with storage accounting.

use crate::blob;
use crate::btree::BTree;
use crate::errors::{Result, StorageError};
use crate::page::{page_type, PageId, SlottedRead};
use crate::row::{self, RowValue, Schema, INLINE_BLOB_LIMIT};
use crate::store::{PageStore, PartitionReader};
use std::collections::HashMap;

/// One contiguous chunk of a clustered-index scan: a run of leaf pages in
/// key order, produced by [`Table::partition`] and consumed by
/// [`Table::scan_partition`]. Partitions of one table are disjoint and
/// concatenate (in production order) to the full leaf chain, so scanning
/// them in order — serially or on parallel workers — visits exactly the
/// rows of a full scan, in the same order.
#[derive(Debug, Clone)]
pub struct ScanPartition {
    leaves: Vec<PageId>,
}

impl ScanPartition {
    /// The leaf pages of this partition, in key order.
    pub fn leaves(&self) -> &[PageId] {
        &self.leaves
    }

    /// True when the partition covers no pages (empty table).
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }
}

/// Options for [`Table::scan_partition_batches`].
#[derive(Debug, Clone, Copy)]
pub struct BatchScanOpts<'a> {
    /// Schema column indices to decode, in batch-column order.
    pub cols: &'a [usize],
    /// Flush the batch to the callback once it holds this many rows
    /// (clamped to ≥ 1), even mid-leaf.
    pub rows_cap: usize,
    /// Additionally flush at every leaf-page boundary, so callers that
    /// resolve out-of-row LOB values per batch keep the page-read
    /// interleaving identical to the row-at-a-time scan.
    pub leaf_aligned: bool,
}

/// A clustered table. Rows are stored in the leaf level of a B+tree in key
/// order; blob columns spill to the LOB store past the in-row limit.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    tree: BTree,
}

impl Table {
    /// Creates an empty table.
    pub fn create(store: &mut PageStore, name: &str, schema: Schema) -> Result<Table> {
        Ok(Table {
            name: name.to_string(),
            schema,
            tree: BTree::create(store)?,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> u64 {
        self.tree.len()
    }

    /// Inserts a row under the clustered key.
    pub fn insert(&mut self, store: &mut PageStore, key: i64, values: &[RowValue]) -> Result<()> {
        let bytes = row::encode_row(store, &self.schema, values)?;
        self.tree.insert(store, key, &bytes)
    }

    /// Bulk-loads an **empty** table from rows sorted by strictly
    /// increasing key — the parallel ingest path.
    ///
    /// The pipeline has four stages:
    /// 1. *LOB pre-pass* (serial): blob values over the in-row limit are
    ///    spilled to the LOB store in row order, exactly as row-at-a-time
    ///    inserts would have written them;
    /// 2. *row encoding* (parallel, `dop` lanes): each worker encodes a
    ///    contiguous row range with [`row::encode_row_inline`] — pure CPU,
    ///    no store access;
    /// 3. *leaf building* (parallel): [`BTree::bulk_build`] packs the
    ///    encoded rows into leaf page images and checksums them on worker
    ///    threads;
    /// 4. *append + index build* (serial): images land in the file in page
    ///    order and the internal levels are assembled on top — minimally
    ///    logged: fresh pages are forced with
    ///    [`PageStore::append_forced`](crate::PageStore::append_forced)
    ///    and logged as one `Bulk` range record each, while the LOB spill
    ///    and the recycled root leaf keep physiological logging.
    ///
    /// Stages 2–3 are the hot part of an ingest and scale with `dop`;
    /// stages 1 and 4 mutate the store and stay serial, so the resulting
    /// layout, pool state, durable image and [`crate::IoStats`] are
    /// identical at every `dop`.
    pub fn bulk_load(
        &mut self,
        store: &mut PageStore,
        rows: &[(i64, Vec<RowValue>)],
        dop: usize,
    ) -> Result<()> {
        if !self.tree.is_empty() {
            return Err(StorageError::BulkLoad(format!(
                "table `{}` is not empty ({} rows)",
                self.name,
                self.tree.len()
            )));
        }
        if rows.is_empty() {
            return Ok(()); // keep the existing (empty) root leaf
        }
        // Pre-flight validation, before anything touches the store: a
        // rejected load must not leave orphaned LOB pages, a warmed pool,
        // or drifted I/O counters behind. Key order, arity, column types,
        // and the post-spill record size are all checkable without
        // encoding a byte.
        crate::btree::validate_bulk_key_order(rows.iter().map(|(k, _)| *k))?;
        for (_, values) in rows {
            let len = row::encoded_len(&self.schema, values)?;
            if len > crate::btree::MAX_PAYLOAD {
                return Err(StorageError::RecordTooLarge {
                    bytes: len,
                    limit: crate::btree::MAX_PAYLOAD,
                });
            }
        }

        // Stage 1: spill oversized blobs serially (store mutation), so the
        // parallel encoders never need the store.
        let oversized =
            |v: &RowValue| matches!(v, RowValue::Bytes(b) if b.len() > INLINE_BLOB_LIMIT);
        let mut spilled: HashMap<usize, Vec<RowValue>> = HashMap::new();
        for (i, (_, values)) in rows.iter().enumerate() {
            if values.iter().any(oversized) {
                let mut replaced = values.clone();
                for v in replaced.iter_mut() {
                    if oversized(v) {
                        let RowValue::Bytes(b) = &*v else {
                            unreachable!()
                        };
                        let len = b.len() as u64;
                        let id = blob::write_blob(store, b)?;
                        *v = RowValue::LobRef(id, len);
                    }
                }
                spilled.insert(i, replaced);
            }
        }

        // Stage 2: encode rows in parallel.
        let schema = &self.schema;
        let encode = |i: usize| -> Result<Vec<u8>> {
            let values = spilled.get(&i).map(Vec::as_slice).unwrap_or(&rows[i].1);
            row::encode_row_inline(schema, values)
        };
        let chunks = sqlarray_core::parallel::scoped_map_ranges(rows.len(), dop.max(1), |r| {
            r.map(encode).collect::<Result<Vec<_>>>()
        });
        let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(rows.len());
        for chunk in chunks {
            payloads.extend(chunk?);
        }

        // Stages 3–4: build the clustered index, recycling the empty
        // table's root leaf as the first data leaf so no page is orphaned.
        // Keys were validated above, before the LOB pre-pass.
        let entries: Vec<(i64, Vec<u8>)> = rows.iter().map(|(k, _)| *k).zip(payloads).collect();
        self.tree =
            BTree::bulk_build_prevalidated(store, &entries, dop, Some(self.tree.root_page()))?;
        Ok(())
    }

    /// Replaces the row at `key` with `values`, freeing any out-of-page
    /// LOB chains the new row no longer references. Returns `false` when
    /// the key does not exist (nothing is written, no blob is spilled).
    ///
    /// New oversized blob values spill through the same LOB writer as
    /// inserts; the pages of the replaced value come back through
    /// [`blob::free_blob`], so repeated UPDATEs recycle pages instead of
    /// growing the file.
    pub fn update(&mut self, store: &mut PageStore, key: i64, values: &[RowValue]) -> Result<bool> {
        let Some(old) = self.tree.get(store, key)? else {
            return Ok(false);
        };
        // Collect LOB ids from the encoded images directly — decoding the
        // full rows here would copy every inline blob payload twice per
        // updated row just to throw the bytes away.
        let mut old_ids: Vec<blob::BlobId> = Vec::new();
        row::lob_refs(&self.schema, &old, &mut old_ids)?;
        let bytes = row::encode_row(store, &self.schema, values)?;
        self.tree.update(store, key, &bytes)?;
        // Free LOB chains the new row stopped referencing (a pass-through
        // `LobRef` keeps its chain — the engine's in-place array-update
        // path relies on that).
        let mut kept: Vec<blob::BlobId> = Vec::new();
        row::lob_refs(&self.schema, &bytes, &mut kept)?;
        for id in old_ids {
            if !kept.contains(&id) {
                blob::free_blob(store, id)?;
            }
        }
        Ok(true)
    }

    /// Deletes the row at `key`, freeing its out-of-page LOB chains.
    /// Returns `false` when the key does not exist.
    pub fn delete(&mut self, store: &mut PageStore, key: i64) -> Result<bool> {
        let old = match self.tree.delete(store, key) {
            Ok(bytes) => bytes,
            Err(StorageError::KeyNotFound { .. }) => return Ok(false),
            Err(e) => return Err(e),
        };
        let mut ids: Vec<blob::BlobId> = Vec::new();
        row::lob_refs(&self.schema, &old, &mut ids)?;
        for id in ids {
            blob::free_blob(store, id)?;
        }
        Ok(true)
    }

    /// Overwrites `data.len()` bytes of the blob column `col` of row `key`
    /// starting at byte `offset` — the storage path of the paper's
    /// `ArrayUpdate`. For an out-of-page value only the intersecting chunk
    /// pages are rewritten (the leaf row is untouched: id and length are
    /// unchanged); an in-row value is spliced and the row re-stored.
    /// Returns the number of pages written.
    pub fn update_col_blob_range(
        &mut self,
        store: &mut PageStore,
        key: i64,
        col: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<u64> {
        let Some(bytes) = self.tree.get(store, key)? else {
            return Err(StorageError::KeyNotFound { key });
        };
        match row::decode_col(&self.schema, &bytes, col)? {
            RowValue::LobRef(id, _) => blob::update_blob_range(store, id, offset, data),
            RowValue::Bytes(mut b) => {
                // checked_add: a wrapping `offset + len` must not pass.
                let end = offset
                    .checked_add(data.len())
                    .filter(|&end| end <= b.len())
                    .ok_or(StorageError::BlobRangeOutOfBounds {
                        offset,
                        len: data.len(),
                        total: b.len(),
                    })?;
                b[offset..end].copy_from_slice(data);
                let mut vals = row::decode_row(&self.schema, &bytes)?;
                vals[col] = RowValue::Bytes(b);
                let enc = row::encode_row(store, &self.schema, &vals)?;
                self.tree.update(store, key, &enc)?;
                Ok(1)
            }
            other => Err(StorageError::SchemaMismatch(format!(
                "column {col} of table `{}` holds {other:?}, not a blob",
                self.name
            ))),
        }
    }

    /// The tree geometry needed to re-open this table from a catalog:
    /// `(root, first leaf, row count, depth)`.
    pub fn tree_parts(&self) -> (PageId, PageId, u64, u32) {
        self.tree.parts()
    }

    /// Reconstructs a table from its catalog entry — the inverse of
    /// ([`Self::name`], [`Self::schema`], [`Self::tree_parts`]).
    pub fn from_parts(name: String, schema: Schema, parts: (PageId, PageId, u64, u32)) -> Table {
        Table {
            name,
            schema,
            tree: BTree::from_parts(parts.0, parts.1, parts.2, parts.3),
        }
    }

    /// Point lookup by clustered key, decoding the full row.
    pub fn get(&self, store: &mut PageStore, key: i64) -> Result<Option<Vec<RowValue>>> {
        match self.tree.get(store, key)? {
            Some(bytes) => Ok(Some(row::decode_row(&self.schema, &bytes)?)),
            None => Ok(None),
        }
    }

    /// Point lookup of one column.
    pub fn get_col(&self, store: &mut PageStore, key: i64, col: usize) -> Result<Option<RowValue>> {
        match self.tree.get(store, key)? {
            Some(bytes) => Ok(Some(row::decode_col(&self.schema, &bytes, col)?)),
            None => Ok(None),
        }
    }

    /// Clustered index scan: `f` receives the key and the *encoded* row and
    /// returns `true` to keep scanning. Decoding is the caller's choice —
    /// the engine's projections decode only the columns an expression
    /// touches, like a real scan operator.
    pub fn scan_raw(
        &self,
        store: &mut PageStore,
        f: impl FnMut(i64, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        self.tree.scan(store, f)
    }

    /// Splits the clustered index into at most `dop` contiguous
    /// [`ScanPartition`]s of near-equal page count, in key order. The leaf
    /// list comes from the index upper levels (cheap — no leaf reads); the
    /// same `dop` always produces the same boundaries, and any `dop`
    /// produces partitions that concatenate to the full scan. There is
    /// always at least one partition (an empty table yields one partition
    /// holding the empty root leaf).
    ///
    /// Takes `&PageStore`: the internal-level walk runs through its own
    /// one-partition scan (snapshot-classified [`PartitionReader`], folded
    /// back via `finish_scan`), which produces byte-identical accounting
    /// to the old serial `&mut` path while letting concurrent sessions
    /// partition the same table under a shared read lock.
    pub fn partition(&self, store: &PageStore, dop: usize) -> Result<Vec<ScanPartition>> {
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let leaves = self.tree.leaf_page_ids(&mut r)?;
        let io = r.finish();
        store.finish_scan([&io]);
        // A tree always has at least one leaf (possibly empty), so this
        // always yields at least one partition.
        let ranges = sqlarray_core::parallel::partition_ranges(leaves.len(), dop.max(1));
        Ok(ranges
            .into_iter()
            .map(|r| ScanPartition {
                leaves: leaves[r].to_vec(),
            })
            .collect())
    }

    /// Scans one partition through a worker's [`PartitionReader`]. `f`
    /// sees `(reader, key, encoded row)` in key order, exactly like
    /// [`scan_raw`](Self::scan_raw) restricted to the partition, and
    /// returns `true` to keep scanning.
    ///
    /// The reader is handed *into* the callback (leaf-page bytes borrow
    /// the page file, not the reader) so a row visitor can resolve the
    /// row's out-of-row LOB values through the same live-pool, snapshot-
    /// classified read path as the leaf pages — interleaved exactly as a
    /// serial scan would interleave them.
    pub fn scan_partition(
        &self,
        reader: &mut PartitionReader<'_>,
        part: &ScanPartition,
        mut f: impl FnMut(&mut PartitionReader<'_>, i64, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        for &pid in &part.leaves {
            let bytes = reader.read(pid)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, pid)?;
            for i in 0..v.slot_count() {
                let rec = v.record(i)?;
                if rec.len() < 8 {
                    return Err(StorageError::RowCorrupt(format!(
                        "leaf record on page {pid} shorter than its 8-byte key"
                    )));
                }
                let key = sqlarray_core::le::i64_at(rec, 0);
                if !f(reader, key, &rec[8..])? {
                    return Ok(());
                }
            }
        }
        Ok(())
    }

    /// Batch variant of [`scan_partition`](Self::scan_partition): decodes
    /// leaf records straight into the column vectors of `batch` (only the
    /// schema columns named by `cols`, in that order) and hands the filled
    /// batch to `f`, which returns `true` to keep scanning.
    ///
    /// Batching amortizes the per-row schema walk and LE decoding and
    /// replaces the per-row callback with one call per ~`rows_cap` rows.
    /// The batch flushes as soon as it reaches `rows_cap` rows — even in
    /// the middle of a leaf, so a caller that stops early (`TOP`) never
    /// decodes more than one cap past its limit — and additionally at
    /// *every* leaf boundary when `leaf_aligned` is set, which callers
    /// that resolve out-of-row LOB values per batch use to keep the
    /// page-read interleaving (leaf, then that leaf's LOB pages)
    /// identical to the row-at-a-time scan at any DOP. (A mid-leaf flush
    /// preserves that order too: the leaf page is already read, and the
    /// flushed rows resolve in row order.) The same `batch` is reused
    /// across flushes, so column buffers are allocated once per
    /// partition, not per batch.
    pub fn scan_partition_batches(
        &self,
        reader: &mut PartitionReader<'_>,
        part: &ScanPartition,
        opts: BatchScanOpts<'_>,
        batch: &mut sqlarray_core::batch::Batch,
        mut f: impl FnMut(&mut PartitionReader<'_>, &sqlarray_core::batch::Batch) -> Result<bool>,
    ) -> Result<()> {
        let BatchScanOpts {
            cols,
            rows_cap,
            leaf_aligned,
        } = opts;
        let dec = row::BatchDecoder::new(&self.schema, cols)?;
        let rows_cap = rows_cap.max(1);
        batch.clear();
        for &pid in &part.leaves {
            let bytes = reader.read(pid)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, pid)?;
            for i in 0..v.slot_count() {
                let rec = v.record(i)?;
                if rec.len() < 8 {
                    return Err(StorageError::RowCorrupt(format!(
                        "leaf record on page {pid} shorter than its 8-byte key"
                    )));
                }
                batch.keys.push(sqlarray_core::le::i64_at(rec, 0));
                dec.decode_row_into(&self.schema, &rec[8..], &mut batch.cols)?;
                if batch.len() >= rows_cap {
                    let keep_going = f(reader, batch)?;
                    batch.clear();
                    if !keep_going {
                        return Ok(());
                    }
                }
            }
            if leaf_aligned && !batch.is_empty() {
                let keep_going = f(reader, batch)?;
                batch.clear();
                if !keep_going {
                    return Ok(());
                }
            }
        }
        if !batch.is_empty() {
            f(reader, batch)?;
            batch.clear();
        }
        Ok(())
    }

    /// Range scan over `[lo, hi]` (inclusive) with encoded rows.
    pub fn scan_range_raw(
        &self,
        store: &mut PageStore,
        lo: i64,
        hi: i64,
        f: impl FnMut(i64, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        self.tree.scan_range(store, lo, hi, f)
    }

    /// Convenience scan with fully decoded rows.
    pub fn scan(
        &self,
        store: &mut PageStore,
        mut f: impl FnMut(i64, Vec<RowValue>) -> Result<bool>,
    ) -> Result<()> {
        let schema = self.schema.clone();
        self.tree.scan(store, |key, bytes| {
            let values = row::decode_row(&schema, bytes)?;
            f(key, values)
        })
    }

    /// Number of leaf (data) pages.
    pub fn data_pages(&self, store: &mut PageStore) -> Result<u64> {
        self.tree.leaf_pages(store)
    }

    /// Data size in bytes (leaf pages × page size) — what a clustered index
    /// scan must read. LOB pages are *not* included, matching how the
    /// paper's Table 1 scans touch only in-row data.
    pub fn data_bytes(&self, store: &mut PageStore) -> Result<u64> {
        Ok(self.data_pages(store)? * crate::page::PAGE_SIZE as u64)
    }

    /// Average stored bytes per row, including page overheads.
    pub fn bytes_per_row(&self, store: &mut PageStore) -> Result<f64> {
        if self.row_count() == 0 {
            return Ok(0.0);
        }
        Ok(self.data_bytes(store)? as f64 / self.row_count() as f64)
    }

    /// B-tree depth, for diagnostics.
    pub fn index_depth(&self, store: &mut PageStore) -> Result<u32> {
        self.tree.depth(store)
    }

    /// Looks up a column index by name, with a schema-style error.
    pub fn require_col(&self, name: &str) -> Result<usize> {
        self.schema.col_index(name).ok_or_else(|| {
            StorageError::SchemaMismatch(format!("table `{}` has no column `{name}`", self.name))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::ColType;

    fn vector_table(store: &mut PageStore, rows: i64, dim: usize) -> Table {
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(store, "Tvector", schema).unwrap();
        for k in 0..rows {
            let data: Vec<f64> = (0..dim).map(|i| (k as f64) + i as f64 * 0.1).collect();
            let arr = sqlarray_core::build::short_vector(&data).unwrap();
            t.insert(
                store,
                k,
                &[RowValue::I64(k), RowValue::Bytes(arr.into_blob())],
            )
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_get_scan() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        for k in 0..100 {
            t.insert(
                &mut store,
                k,
                &[RowValue::I64(k), RowValue::F64(k as f64 * 0.5)],
            )
            .unwrap();
        }
        assert_eq!(t.row_count(), 100);
        let row = t.get(&mut store, 7).unwrap().unwrap();
        assert_eq!(row, vec![RowValue::I64(7), RowValue::F64(3.5)]);
        assert_eq!(t.get(&mut store, 100).unwrap(), None);

        let mut sum = 0.0;
        t.scan(&mut store, |_, vals| {
            if let RowValue::F64(x) = vals[1] {
                sum += x;
            }
            Ok(true)
        })
        .unwrap();
        assert_eq!(sum, (0..100).map(|k| k as f64 * 0.5).sum::<f64>());
    }

    #[test]
    fn array_blob_column_round_trip() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 50, 5);
        let row = t.get(&mut store, 10).unwrap().unwrap();
        let blob = row[1].blob_bytes(&mut store).unwrap();
        let arr = sqlarray_core::SqlArray::from_blob(blob).unwrap();
        assert_eq!(arr.dims(), &[5]);
        assert_eq!(arr.item(&[0]).unwrap(), sqlarray_core::Scalar::F64(10.0));
    }

    #[test]
    fn get_col_matches_full_decode() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 20, 3);
        let full = t.get(&mut store, 5).unwrap().unwrap();
        let col = t.get_col(&mut store, 5, 1).unwrap().unwrap();
        assert_eq!(full[1], col);
    }

    #[test]
    fn storage_accounting_tracks_growth() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 2000, 5);
        let pages = t.data_pages(&mut store).unwrap();
        assert!(pages > 10);
        let bpr = t.bytes_per_row(&mut store).unwrap();
        // Row: 8 key + 8 id + (1 + 2 + 64) blob = 83 bytes + 4 slot ≈ 87;
        // plus page slack. Must be in a sane band.
        assert!((83.0..140.0).contains(&bpr), "bytes/row = {bpr}");
    }

    #[test]
    fn vector_table_is_wider_than_scalar_table() {
        // The §6.2 storage comparison: the 24-byte array header makes
        // Tvector ~43 % bigger than Tscalar.
        let mut store = PageStore::new();
        let scalar_schema = Schema::new(&[
            ("id", ColType::I64),
            ("v1", ColType::F64),
            ("v2", ColType::F64),
            ("v3", ColType::F64),
            ("v4", ColType::F64),
            ("v5", ColType::F64),
        ]);
        let mut ts = Table::create(&mut store, "Tscalar", scalar_schema).unwrap();
        for k in 0..5000 {
            let v: Vec<RowValue> = std::iter::once(RowValue::I64(k))
                .chain((0..5).map(|i| RowValue::F64(k as f64 + i as f64)))
                .collect();
            ts.insert(&mut store, k, &v).unwrap();
        }
        let tv = vector_table(&mut store, 5000, 5);
        let scalar_bpr = ts.bytes_per_row(&mut store).unwrap();
        let vector_bpr = tv.bytes_per_row(&mut store).unwrap();
        let ratio = vector_bpr / scalar_bpr;
        assert!(
            (1.2..1.7).contains(&ratio),
            "vector/scalar storage ratio {ratio:.2} outside the expected band"
        );
    }

    #[test]
    fn big_blobs_leave_thin_rows() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "Tlob", schema).unwrap();
        let big = vec![0xAB; 100_000];
        for k in 0..20 {
            t.insert(
                &mut store,
                k,
                &[RowValue::I64(k), RowValue::Bytes(big.clone())],
            )
            .unwrap();
        }
        // 20 rows of ~33 bytes each fit in a single data page; the
        // megabytes live in LOB pages.
        assert_eq!(t.data_pages(&mut store).unwrap(), 1);
        let row = t.get(&mut store, 3).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), big);
    }

    #[test]
    fn require_col_errors_on_missing() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 1, 2);
        assert_eq!(t.require_col("V").unwrap(), 1);
        assert!(t.require_col("w").is_err());
    }

    #[test]
    fn partitions_concatenate_to_the_full_scan() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 3000, 5);
        let mut full = Vec::new();
        t.scan_raw(&mut store, |k, _| {
            full.push(k);
            Ok(true)
        })
        .unwrap();
        for dop in [1usize, 2, 3, 7, 64] {
            let parts = t.partition(&store, dop).unwrap();
            assert!(!parts.is_empty() && parts.len() <= dop);
            let scan = store.begin_scan();
            let mut seen = Vec::new();
            for (pi, p) in parts.iter().enumerate() {
                let mut r = store.reader(&scan, pi as u32);
                t.scan_partition(&mut r, p, |_, k, _| {
                    seen.push(k);
                    Ok(true)
                })
                .unwrap();
            }
            assert_eq!(seen, full, "dop {dop}");
        }
    }

    #[test]
    fn batch_scan_matches_row_scan() {
        use sqlarray_core::batch::ColVec;
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 3000, 5);
        let mut row_keys = Vec::new();
        let mut row_blobs: Vec<RowValue> = Vec::new();
        t.scan_raw(&mut store, |k, bytes| {
            row_keys.push(k);
            row_blobs.push(row::decode_col(t.schema(), bytes, 1)?);
            Ok(true)
        })
        .unwrap();
        for (dop, cap, aligned) in [(1usize, 1024usize, false), (3, 7, false), (2, 256, true)] {
            let parts = t.partition(&store, dop).unwrap();
            let scan = store.begin_scan();
            let mut keys = Vec::new();
            let mut blobs: Vec<RowValue> = Vec::new();
            let mut per_part_fills = Vec::new();
            for (pi, p) in parts.iter().enumerate() {
                let mut r = store.reader(&scan, pi as u32);
                let mut batch = row::new_batch(t.schema(), &[1]).unwrap();
                let mut fills = Vec::new();
                t.scan_partition_batches(
                    &mut r,
                    p,
                    BatchScanOpts {
                        cols: &[1],
                        rows_cap: cap,
                        leaf_aligned: aligned,
                    },
                    &mut batch,
                    |_, b| {
                        fills.push(b.len());
                        keys.extend_from_slice(&b.keys);
                        let ColVec::Blob { bytes, lob } = &b.cols[0] else {
                            panic!("expected blob column");
                        };
                        for (i, l) in lob.iter().enumerate() {
                            blobs.push(match *l {
                                Some((id, len)) => RowValue::LobRef(id, len),
                                None => RowValue::Bytes(bytes.get(i).to_vec()),
                            });
                        }
                        Ok(true)
                    },
                )
                .unwrap();
                per_part_fills.push(fills);
            }
            assert_eq!(keys, row_keys, "dop {dop} cap {cap}");
            assert_eq!(blobs, row_blobs, "dop {dop} cap {cap}");
            for fills in &per_part_fills {
                assert!(fills.iter().all(|&n| n > 0));
                if !aligned {
                    // Within a partition, every flush except the last is
                    // exactly `cap` rows (mid-leaf flushing); only the
                    // remainder runs short.
                    assert!(fills[..fills.len() - 1].iter().all(|&n| n == cap));
                }
            }
        }
    }

    #[test]
    fn batch_scan_early_stop_and_empty_table() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 500, 5);
        let parts = t.partition(&store, 1).unwrap();
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let mut batch = row::new_batch(t.schema(), &[0]).unwrap();
        let mut calls = 0;
        t.scan_partition_batches(
            &mut r,
            &parts[0],
            BatchScanOpts {
                cols: &[0],
                rows_cap: 64,
                leaf_aligned: false,
            },
            &mut batch,
            |_, _| {
                calls += 1;
                Ok(false)
            },
        )
        .unwrap();
        assert_eq!(calls, 1, "early stop halts after the first batch");
        assert!(batch.is_empty(), "batch is left cleared");
        drop(r);
        drop(scan);

        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let empty = Table::create(&mut store, "E2", schema).unwrap();
        let parts = empty.partition(&store, 4).unwrap();
        let scan = store.begin_scan();
        let mut r = store.reader(&scan, 0);
        let mut batch = row::new_batch(empty.schema(), &[1]).unwrap();
        let mut calls = 0;
        empty
            .scan_partition_batches(
                &mut r,
                &parts[0],
                BatchScanOpts {
                    cols: &[1],
                    rows_cap: 64,
                    leaf_aligned: false,
                },
                &mut batch,
                |_, _| {
                    calls += 1;
                    Ok(true)
                },
            )
            .unwrap();
        assert_eq!(calls, 0, "empty table produces no batches");
    }

    #[test]
    fn partition_workers_scan_concurrently() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 5000, 5);
        store.clear_cache();
        let parts = t.partition(&store, 4).unwrap();
        assert_eq!(parts.len(), 4);
        let scan = store.begin_scan();
        let shared = &store;
        let table = &t;
        let scan_ref = &scan;
        let mut results: Vec<(Vec<i64>, crate::store::ScanIo)> = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .enumerate()
                .map(|(pi, p)| {
                    s.spawn(move || {
                        let mut r = shared.reader(scan_ref, pi as u32);
                        let mut keys = Vec::new();
                        table
                            .scan_partition(&mut r, p, |_, k, _| {
                                keys.push(k);
                                Ok(true)
                            })
                            .unwrap();
                        (keys, r.finish())
                    })
                })
                .collect();
            results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        });
        let merged: Vec<i64> = results.iter().flat_map(|(k, _)| k.clone()).collect();
        assert_eq!(merged, (0..5000).collect::<Vec<_>>());
        // Per-worker I/O merges to the cold full-scan cost: every leaf
        // page read exactly once, almost all sequentially.
        drop(scan);
        let ios: Vec<crate::store::ScanIo> = results.iter().map(|(_, io)| *io).collect();
        let io = store.finish_scan(ios.iter());
        assert_eq!(io.pages_read, t.data_pages(&mut store).unwrap());
        assert_eq!(io.cache_hits, 0);
        // The boundary stitching in `finish_scan` removes the per-worker
        // seeks; only genuine chain gaps remain.
        assert!(
            io.sequential_reads as f64 >= 0.85 * io.pages_read as f64,
            "parallel scan was not sequential: {io:?}"
        );
    }

    #[test]
    fn live_pool_is_warm_after_a_parallel_scan() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 2000, 5);
        store.clear_cache();
        let parts = t.partition(&store, 3).unwrap();
        let scan = store.begin_scan();
        let mut ios = Vec::new();
        for (pi, p) in parts.iter().enumerate() {
            let mut r = store.reader(&scan, pi as u32);
            t.scan_partition(&mut r, p, |_, _, _| Ok(true)).unwrap();
            ios.push(r.finish());
        }
        drop(scan);
        store.finish_scan(ios.iter());
        // Workers touched the live pool as they read — no replay step —
        // so a second pass over the same partitions is fully cached.
        let scan = store.begin_scan();
        let mut rescan = crate::stats::IoStats::default();
        for (pi, p) in parts.iter().enumerate() {
            let mut r = store.reader(&scan, pi as u32);
            t.scan_partition(&mut r, p, |_, _, _| Ok(true)).unwrap();
            rescan.merge(&r.finish().io);
        }
        assert_eq!(rescan.pages_read, 0);
        assert!(rescan.cache_hits > 0);
    }

    #[test]
    fn empty_and_tiny_tables_partition_sanely() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let empty = Table::create(&mut store, "E", schema.clone()).unwrap();
        let parts = empty.partition(&store, 8).unwrap();
        assert_eq!(parts.len(), 1);
        let scan = store.begin_scan();
        let mut n = 0;
        let mut r = store.reader(&scan, 0);
        empty
            .scan_partition(&mut r, &parts[0], |_, _, _| {
                n += 1;
                Ok(true)
            })
            .unwrap();
        assert_eq!(n, 0);
        drop(r);
        drop(scan);

        let mut one = Table::create(&mut store, "O", schema).unwrap();
        one.insert(&mut store, 42, &[RowValue::I64(42), RowValue::F64(1.0)])
            .unwrap();
        let parts = one.partition(&store, 8).unwrap();
        assert_eq!(parts.len(), 1, "1 row < DOP collapses to one partition");
        let scan = store.begin_scan();
        let mut keys = Vec::new();
        let mut r = store.reader(&scan, 0);
        one.scan_partition(&mut r, &parts[0], |_, k, _| {
            keys.push(k);
            Ok(true)
        })
        .unwrap();
        assert_eq!(keys, vec![42]);
    }

    fn sample_rows(n: i64, dim: usize) -> Vec<(i64, Vec<RowValue>)> {
        (0..n)
            .map(|k| {
                let data: Vec<f64> = (0..dim).map(|i| (k as f64) + i as f64 * 0.1).collect();
                let arr = sqlarray_core::build::short_vector(&data).unwrap();
                (k, vec![RowValue::I64(k), RowValue::Bytes(arr.into_blob())])
            })
            .collect()
    }

    #[test]
    fn bulk_load_matches_row_at_a_time_inserts() {
        let rows = sample_rows(3000, 5);
        let mut store_a = PageStore::new();
        let inserted = vector_table(&mut store_a, 3000, 5);

        let mut store_b = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut bulk = Table::create(&mut store_b, "Tvector", schema).unwrap();
        bulk.bulk_load(&mut store_b, &rows, 3).unwrap();

        assert_eq!(bulk.row_count(), inserted.row_count());
        // The greedy bulk packing equals the append-optimized insert
        // packing: same leaf count, hence same bytes/row.
        assert_eq!(
            bulk.data_pages(&mut store_b).unwrap(),
            inserted.data_pages(&mut store_a).unwrap()
        );
        let mut a = Vec::new();
        inserted
            .scan_raw(&mut store_a, |k, bytes| {
                a.push((k, bytes.to_vec()));
                Ok(true)
            })
            .unwrap();
        let mut b = Vec::new();
        bulk.scan_raw(&mut store_b, |k, bytes| {
            b.push((k, bytes.to_vec()));
            Ok(true)
        })
        .unwrap();
        assert_eq!(a, b);
        // Point lookups work through the bulk-built internal levels.
        for k in [0i64, 1, 1499, 2999] {
            assert_eq!(
                bulk.get(&mut store_b, k).unwrap(),
                inserted.get(&mut store_a, k).unwrap()
            );
        }
        assert_eq!(bulk.get(&mut store_b, 3000).unwrap(), None);
    }

    #[test]
    fn bulk_load_layout_and_io_are_dop_invariant() {
        let rows = sample_rows(4000, 5);
        let build = |dop: usize| {
            let mut store = PageStore::new();
            let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
            let mut t = Table::create(&mut store, "T", schema).unwrap();
            t.bulk_load(&mut store, &rows, dop).unwrap();
            let pages = t.data_pages(&mut store).unwrap();
            let depth = t.index_depth(&mut store).unwrap();
            (
                store.page_count(),
                pages,
                depth,
                store.stats(),
                store.seek_position(),
                store.pool().keys_mru_order(),
            )
        };
        let serial = build(1);
        for dop in [2usize, 4, 8] {
            assert_eq!(build(dop), serial, "dop {dop}");
        }
    }

    #[test]
    fn bulk_load_spills_oversized_blobs() {
        let big = vec![0xCD; 50_000];
        let rows: Vec<(i64, Vec<RowValue>)> = (0..30)
            .map(|k| (k, vec![RowValue::I64(k), RowValue::Bytes(big.clone())]))
            .collect();
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "Tlob", schema).unwrap();
        t.bulk_load(&mut store, &rows, 4).unwrap();
        assert_eq!(t.data_pages(&mut store).unwrap(), 1);
        let row = t.get(&mut store, 7).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), big);
    }

    #[test]
    fn bulk_load_rejects_bad_inputs() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let unsorted = vec![
            (2i64, vec![RowValue::I64(2), RowValue::F64(0.0)]),
            (1i64, vec![RowValue::I64(1), RowValue::F64(0.0)]),
        ];
        assert!(matches!(
            t.bulk_load(&mut store, &unsorted, 2),
            Err(StorageError::BulkLoad(_))
        ));
        // Loading into a non-empty table is refused.
        t.insert(&mut store, 9, &[RowValue::I64(9), RowValue::F64(1.0)])
            .unwrap();
        let sorted = vec![(10i64, vec![RowValue::I64(10), RowValue::F64(0.0)])];
        assert!(matches!(
            t.bulk_load(&mut store, &sorted, 2),
            Err(StorageError::BulkLoad(_))
        ));
    }

    #[test]
    fn rejected_bulk_load_leaves_the_store_untouched() {
        // A batch mixing a LOB-spilling row with a later row whose inline
        // encoding exceeds the leaf-record limit must fail *before* the
        // spill pre-pass writes anything: no orphan LOB pages, no counter
        // drift.
        let mut store = PageStore::new();
        let schema = Schema::new(&[
            ("id", ColType::I64),
            ("a", ColType::Blob),
            ("b", ColType::Blob),
        ]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let spilling = vec![
            RowValue::I64(0),
            RowValue::Bytes(vec![1; 50_000]), // > inline limit: would spill
            RowValue::Bytes(vec![2; 8]),
        ];
        let oversized_inline = vec![
            RowValue::I64(1),
            // Both blobs inline (≤ 8000) but together past MAX_PAYLOAD.
            RowValue::Bytes(vec![3; 8000]),
            RowValue::Bytes(vec![4; 8000]),
        ];
        let rows = vec![(0i64, spilling), (1i64, oversized_inline)];
        let pages_before = store.page_count();
        let stats_before = store.stats();
        assert!(matches!(
            t.bulk_load(&mut store, &rows, 2),
            Err(StorageError::RecordTooLarge { .. })
        ));
        assert_eq!(store.page_count(), pages_before);
        assert_eq!(store.stats(), stats_before);
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn bulk_load_empty_rows_is_a_noop() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("x", ColType::F64)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        t.bulk_load(&mut store, &[], 4).unwrap();
        assert_eq!(t.row_count(), 0);
        let mut n = 0;
        t.scan_raw(&mut store, |_, _| {
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn delete_removes_rows_and_frees_lob_chains() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let big = vec![0xEE; 60_000];
        for k in 0..10 {
            t.insert(
                &mut store,
                k,
                &[RowValue::I64(k), RowValue::Bytes(big.clone())],
            )
            .unwrap();
        }
        assert!(store.free_pages().is_empty());
        assert!(t.delete(&mut store, 4).unwrap());
        assert_eq!(t.row_count(), 9);
        assert_eq!(t.get(&mut store, 4).unwrap(), None);
        // The deleted row's LOB chain (root + 8 chunks) is on the free list.
        assert_eq!(store.free_pages().len(), 9);
        // Deleting a missing key reports false and frees nothing.
        assert!(!t.delete(&mut store, 4).unwrap());
        assert_eq!(store.free_pages().len(), 9);
        // Remaining rows are intact.
        let row = t.get(&mut store, 5).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), big);
    }

    #[test]
    fn update_recycles_lob_pages() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let big = vec![0x11; 60_000];
        t.insert(&mut store, 1, &[RowValue::I64(1), RowValue::Bytes(big)])
            .unwrap();
        // Replace the LOB with a same-size value. The new chain is written
        // before the old one is freed (crash safety), so the first UPDATE
        // grows the file by one chain — and every later one recycles it.
        let newer = vec![0x22; 60_000];
        assert!(t
            .update(
                &mut store,
                1,
                &[RowValue::I64(1), RowValue::Bytes(newer.clone())]
            )
            .unwrap());
        let steady = store.page_count();
        for _ in 0..3 {
            assert!(t
                .update(
                    &mut store,
                    1,
                    &[RowValue::I64(1), RowValue::Bytes(newer.clone())]
                )
                .unwrap());
        }
        assert_eq!(store.page_count(), steady);
        let row = t.get(&mut store, 1).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), newer);
        // Updating a missing key writes nothing.
        assert!(!t
            .update(
                &mut store,
                2,
                &[RowValue::I64(2), RowValue::Bytes(vec![1; 9000])]
            )
            .unwrap());
        assert_eq!(store.page_count(), steady);
    }

    #[test]
    fn update_shrinks_lob_to_inline_and_back() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        t.insert(
            &mut store,
            1,
            &[RowValue::I64(1), RowValue::Bytes(vec![9; 40_000])],
        )
        .unwrap();
        // LOB → inline: the chain is freed.
        let small = vec![5u8; 100];
        assert!(t
            .update(
                &mut store,
                1,
                &[RowValue::I64(1), RowValue::Bytes(small.clone())]
            )
            .unwrap());
        assert!(!store.free_pages().is_empty());
        assert_eq!(
            t.get(&mut store, 1).unwrap().unwrap()[1],
            RowValue::Bytes(small)
        );
        // Inline → LOB again: freed pages are recycled.
        let grown = vec![6u8; 40_000];
        let pages = store.page_count();
        assert!(t
            .update(
                &mut store,
                1,
                &[RowValue::I64(1), RowValue::Bytes(grown.clone())]
            )
            .unwrap());
        assert_eq!(store.page_count(), pages);
        let row = t.get(&mut store, 1).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), grown);
    }

    #[test]
    fn blob_range_update_touches_only_intersecting_pages() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let mut big: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
        t.insert(
            &mut store,
            1,
            &[RowValue::I64(1), RowValue::Bytes(big.clone())],
        )
        .unwrap();
        let before = store.stats();
        let patch = vec![0xF0u8; 1000];
        let touched = t
            .update_col_blob_range(&mut store, 1, 1, 10_000, &patch)
            .unwrap();
        assert!(touched <= 2, "1000-byte patch touched {touched} pages");
        assert_eq!(store.stats().since(&before).pages_written, touched);
        big[10_000..11_000].copy_from_slice(&patch);
        let row = t.get(&mut store, 1).unwrap().unwrap();
        assert_eq!(row[1].blob_bytes(&mut store).unwrap(), big);
        // The leaf row is untouched: same LobRef id and length.
        assert!(matches!(row[1], RowValue::LobRef(_, 200_000)));
    }

    #[test]
    fn blob_range_update_splices_inline_values() {
        let mut store = PageStore::new();
        let schema = Schema::new(&[("id", ColType::I64), ("v", ColType::Blob)]);
        let mut t = Table::create(&mut store, "T", schema).unwrap();
        let mut small = vec![1u8; 500];
        t.insert(
            &mut store,
            1,
            &[RowValue::I64(1), RowValue::Bytes(small.clone())],
        )
        .unwrap();
        t.update_col_blob_range(&mut store, 1, 1, 100, &[9u8; 50])
            .unwrap();
        small[100..150].copy_from_slice(&[9u8; 50]);
        assert_eq!(
            t.get(&mut store, 1).unwrap().unwrap()[1],
            RowValue::Bytes(small.clone())
        );
        // Out-of-bounds and type errors are typed.
        assert!(matches!(
            t.update_col_blob_range(&mut store, 1, 1, 499, &[0; 2]),
            Err(StorageError::BlobRangeOutOfBounds { .. })
        ));
        assert!(matches!(
            t.update_col_blob_range(&mut store, 1, 0, 0, &[0; 2]),
            Err(StorageError::SchemaMismatch(_))
        ));
        assert!(matches!(
            t.update_col_blob_range(&mut store, 99, 1, 0, &[0; 2]),
            Err(StorageError::KeyNotFound { key: 99 })
        ));
    }

    #[test]
    fn table_from_parts_reopens_the_tree() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 500, 4);
        let reopened = Table::from_parts(t.name().to_string(), t.schema().clone(), t.tree_parts());
        assert_eq!(reopened.row_count(), 500);
        assert_eq!(
            reopened.get(&mut store, 123).unwrap(),
            t.get(&mut store, 123).unwrap()
        );
        let mut keys = Vec::new();
        reopened
            .scan_raw(&mut store, |k, _| {
                keys.push(k);
                Ok(true)
            })
            .unwrap();
        assert_eq!(keys.len(), 500);
    }

    #[test]
    fn range_scan_decodes() {
        let mut store = PageStore::new();
        let t = vector_table(&mut store, 100, 2);
        let mut keys = Vec::new();
        t.scan_range_raw(&mut store, 10, 14, |k, _| {
            keys.push(k);
            Ok(true)
        })
        .unwrap();
        assert_eq!(keys, vec![10, 11, 12, 13, 14]);
    }
}
