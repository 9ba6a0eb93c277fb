//! The page store: an in-memory "disk" of 8 kB pages fronted by a live,
//! concurrent buffer pool with sharded-LRU replacement and full I/O
//! accounting.
//!
//! All structures (B-trees, blob streams, tables) read and write through
//! [`PageStore`], so the counters in [`IoStats`]
//! capture exactly the page traffic a SQL Server clustered-index scan or
//! LOB fetch would generate, and the
//! [`DiskProfile`] converts them into simulated
//! disk seconds.
//!
//! ## Serial path vs. scan path
//!
//! Serial accesses (`read`/`write`/`allocate`, `&mut self`) consult the
//! live pool directly. Parallel scans split the work: each worker holds a
//! [`PartitionReader`] that touches the **live pool as it reads** (so
//! concurrent readers and writers observe true residency immediately)
//! while classifying its I/O for the *cost model* against the
//! start-of-scan residency snapshot in [`ScanCtx`] — which keeps the
//! simulated [`IoStats`] deterministic and DOP-invariant even though the
//! pool itself is shared live. [`PageStore::finish_scan`] folds the
//! per-worker counters back in partition order, fixing up the
//! sequential/random classification across partition boundaries so the
//! merged counters equal a serial scan's exactly.

use crate::errors::{Result, StorageError};
use crate::page::{PageId, PAGE_SIZE};
use crate::pool::{pool_stamp, PoolStamp, ShardedLruPool};
use crate::stats::{DiskProfile, IoStats};
use crate::wal::{self, WalRecord};
use sqlarray_core::lifecycle::QueryCtx;
use sqlarray_core::sync::lock_unpoisoned;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Default buffer-pool capacity (pages). 4096 pages = 32 MiB, small enough
/// that the Table 1 scans (hundreds of MB) are disk-bound after a cache
/// clear, as in the paper.
pub const DEFAULT_POOL_PAGES: usize = 4096;

/// Auto-checkpoint threshold: a commit whose log has grown past this many
/// bytes folds the log into a fresh base image and truncates it.
pub const AUTO_CHECKPOINT_BYTES: usize = 8 * 1024 * 1024;

/// How many times a [`PartitionReader`] re-attempts a physical page read
/// that hit a (simulated) transient fault before surfacing
/// [`StorageError::ReadFaulted`]. The bound keeps a persistently failing
/// device from wedging a scan; the retries themselves are counted in
/// [`IoStats::transient_retries`].
pub const MAX_READ_RETRIES: u32 = 3;

/// Checksum of an all-zero page (every fresh allocation starts here).
fn zero_page_sum() -> u32 {
    static SUM: OnceLock<u32> = OnceLock::new();
    *SUM.get_or_init(|| wal::checksum32(&[0u8; PAGE_SIZE]))
}

/// A deterministic crash-injection plan: the store accepts exactly
/// `allow_writes` more durable writes — WAL appends and forced bulk pages,
/// in the order they happen — then "loses power": later writes are
/// dropped, and the first dropped one can optionally leave a torn prefix
/// of `torn_bytes` bytes (always strictly shorter than the frame or page,
/// so it never verifies).
///
/// Arming a plan also disables auto-checkpointing, since a checkpoint is
/// modeled as an atomic rewrite of the base image and would absorb the
/// very log the harness wants to cut.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailPlan {
    /// Number of durable writes (WAL appends + forced pages) that still
    /// reach the disk.
    pub allow_writes: u64,
    /// Bytes of the first *dropped* write to keep as a torn tail
    /// (0 = clean cut at a record boundary).
    pub torn_bytes: usize,
}

/// How much of one durable write reaches the disk under the armed plan.
enum Reach {
    Whole,
    /// A torn prefix of this many bytes.
    Torn(usize),
    Lost,
}

#[derive(Debug)]
struct FailState {
    plan: FailPlan,
    /// Durable writes attempted since the plan was armed.
    attempted: u64,
}

/// A finished page image and its checksum, ready for
/// [`PageStore::append_forced`]. Sealing is pure CPU work, so bulk
/// builders seal on their worker threads and the store's serial stage
/// only moves the bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct PageImage {
    bytes: Box<[u8]>,
    sum: u32,
}

impl PageImage {
    /// Checksums `bytes` (one page image) for forcing.
    pub fn seal(bytes: Box<[u8]>) -> PageImage {
        let sum = wal::checksum32(&bytes);
        PageImage { bytes, sum }
    }

    /// The image bytes (shorter than a page only if the write was torn).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Fault injection: mutable access to the image bytes, without
    /// restamping the checksum.
    pub(crate) fn bytes_mut(&mut self) -> &mut Box<[u8]> {
        &mut self.bytes
    }

    /// Recovery's check of a forced page against its stamped checksum.
    fn verify(&self, page: PageId) -> Result<()> {
        let computed = if self.bytes.len() == PAGE_SIZE {
            wal::checksum32(&self.bytes)
        } else {
            0
        };
        if self.bytes.len() != PAGE_SIZE || computed != self.sum {
            return Err(StorageError::PageCorrupt {
                page,
                stored: self.sum,
                computed,
            });
        }
        Ok(())
    }
}

/// The durable state of a store at a crash point: the last checkpoint's
/// base image, the pages bulk appends forced since then, and whatever log
/// bytes survived. This is everything [`PageStore::open`] needs — and
/// everything a crash can preserve.
///
/// The fields are public so fault-injection harnesses can corrupt the
/// "disk" between crash and reboot (tear the final page, flip a byte)
/// and assert the typed errors recovery raises.
#[derive(Debug, Clone, PartialEq)]
pub struct DiskImage {
    /// Base page images from the last checkpoint.
    pub pages: Vec<Box<[u8]>>,
    /// Per-page checksums of `pages`, verified on reboot.
    pub sums: Vec<u32>,
    /// Free-list state at the last checkpoint (LIFO order).
    pub free: Vec<PageId>,
    /// The forced extent: `(page id, image)` of every page a bulk append
    /// forced since the checkpoint, in page order. Only the ranges a
    /// committed [`WalRecord::Bulk`] names are ever installed.
    pub forced: Vec<(PageId, PageImage)>,
    /// Write-ahead log bytes appended since the checkpoint (possibly torn).
    pub wal: Vec<u8>,
}

/// What [`PageStore::open`] hands back after replaying a [`DiskImage`].
#[derive(Debug)]
pub struct Recovery {
    /// The recovered store, checkpointed at the last complete commit
    /// (its log is empty and its base image is the recovered state).
    pub store: PageStore,
    /// The catalog payload of the last complete commit record, if any
    /// commit survived — the engine rebuilds its tables from this.
    pub catalog: Option<Vec<u8>>,
    /// WAL records replayed (everything up to and including the last
    /// complete commit).
    pub applied_records: usize,
    /// Log bytes discarded past the last complete commit (uncommitted
    /// records plus any torn tail).
    pub discarded_bytes: usize,
}

/// The page file plus its buffer pool.
pub struct PageStore {
    pages: Vec<Box<[u8]>>,
    /// Per-page checksum of the current contents, restamped on every
    /// write and verified on every cold (pool-miss) read.
    sums: Vec<u32>,
    /// Freed page ids available for reuse, LIFO.
    free: Vec<PageId>,
    /// Write-ahead log since the last checkpoint.
    wal_buf: Vec<u8>,
    /// Forced extent since the last checkpoint (see [`DiskImage::forced`]).
    forced: Vec<(PageId, PageImage)>,
    next_lsn: u64,
    /// Base image from the last checkpoint (empty = genesis: an empty
    /// file, with the whole history in `wal_buf`).
    base_pages: Vec<Box<[u8]>>,
    base_sums: Vec<u32>,
    base_free: Vec<PageId>,
    fail: Option<FailState>,
    /// Before-image scratch for computing physiological write diffs.
    scratch: Box<[u8]>,
    pool: ShardedLruPool,
    /// Logical clock behind every pool stamp: serial touches take a fresh
    /// epoch each, a parallel scan takes one epoch for all its workers.
    clock: AtomicU64,
    /// Commit epoch: bumped by every [`commit`](Self::commit). Scans record
    /// it at [`begin_scan`](Self::begin_scan) so a reader can name the
    /// committed state its snapshot was taken against.
    committed: AtomicU64,
    /// I/O accounting shared by the serial path and concurrent scan
    /// merges. Behind its own mutex so read-only consumers
    /// ([`stats`](Self::stats), [`finish_scan`](Self::finish_scan),
    /// [`io_seconds_since`](Self::io_seconds_since)) work through
    /// `&self` — which is what lets many sessions scan one shared store
    /// under a read lock.
    acct: Mutex<Acct>,
    /// Armed transient-read faults remaining (see
    /// [`arm_read_faults`](Self::arm_read_faults)); atomic so concurrent
    /// scan workers consume from one deterministic global pool.
    read_faults: AtomicU64,
    /// Faults a single physical read consumes at most (the per-read
    /// "burst"); values above [`MAX_READ_RETRIES`] make a read fail for
    /// good.
    read_fault_burst: AtomicU64,
    profile: DiskProfile,
}

/// The mutable I/O-accounting state: counters plus the simulated disk
/// head. Grouped so it can sit behind one short-lived [`Mutex`] — the
/// guard is never held across a page access or a scan fan-out.
#[derive(Debug, Default, Clone, Copy)]
struct Acct {
    stats: IoStats,
    last_physical_read: Option<PageId>,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("pages", &self.pages.len())
            .field("pool_resident", &self.pool.len())
            .field("wal_bytes", &self.wal_buf.len())
            .field("free_pages", &self.free.len())
            .field("stats", &self.acct().stats)
            .finish()
    }
}

impl PageStore {
    /// Creates an empty store with the default pool size and disk profile.
    pub fn new() -> PageStore {
        PageStore::with_pool(DEFAULT_POOL_PAGES, DiskProfile::default())
    }

    /// Creates an empty store with an explicit pool capacity (in pages) and
    /// disk profile.
    pub fn with_pool(pool_pages: usize, profile: DiskProfile) -> PageStore {
        PageStore {
            pages: Vec::new(),
            sums: Vec::new(),
            free: Vec::new(),
            wal_buf: Vec::new(),
            forced: Vec::new(),
            next_lsn: 1,
            base_pages: Vec::new(),
            base_sums: Vec::new(),
            base_free: Vec::new(),
            fail: None,
            scratch: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            pool: ShardedLruPool::new(pool_pages),
            clock: AtomicU64::new(1),
            committed: AtomicU64::new(0),
            acct: Mutex::new(Acct::default()),
            read_faults: AtomicU64::new(0),
            read_fault_burst: AtomicU64::new(0),
            profile,
        }
    }

    /// The accounting guard. The critical sections are counter arithmetic
    /// only, so the repo-wide recover-on-poison policy
    /// ([`sqlarray_core::sync`]) applies trivially.
    fn acct(&self) -> MutexGuard<'_, Acct> {
        lock_unpoisoned(&self.acct)
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u64 {
        self.pages.len() as u64
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// The live buffer pool (resident-set inspection for tests/tools).
    pub fn pool(&self) -> &ShardedLruPool {
        &self.pool
    }

    /// A fresh serial stamp: a new epoch, higher than every stamp issued
    /// before it.
    fn serial_stamp(&self) -> PoolStamp {
        pool_stamp(self.clock.fetch_add(1, Ordering::Relaxed), 0, 0)
    }

    /// Attempts one durable write of `len` bytes against the armed
    /// [`FailPlan`], if any: writes past the plan's allowance are lost,
    /// and the first lost one optionally leaves a torn prefix — strictly
    /// shorter than `len`, so it can never verify as complete.
    fn reach(&mut self, len: usize) -> Reach {
        let Some(f) = &mut self.fail else {
            return Reach::Whole;
        };
        let reach = if f.attempted < f.plan.allow_writes {
            Reach::Whole
        } else if f.attempted == f.plan.allow_writes && f.plan.torn_bytes > 0 {
            Reach::Torn(f.plan.torn_bytes.min(len.saturating_sub(1)))
        } else {
            Reach::Lost
        };
        f.attempted += 1;
        reach
    }

    /// Appends one record to the write-ahead log, honoring any armed
    /// [`FailPlan`]. The attempt is always counted in [`IoStats`], which
    /// is how crash harnesses enumerate injection points from a clean run.
    fn append_wal(&mut self, rec: &WalRecord<'_>) {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let start = self.wal_buf.len();
        let appended_bytes = wal::append_record(&mut self.wal_buf, lsn, rec);
        match self.reach(appended_bytes) {
            Reach::Whole => {}
            Reach::Torn(keep) => self.wal_buf.truncate(start + keep),
            Reach::Lost => self.wal_buf.truncate(start),
        }
        let mut acct = self.acct();
        acct.stats.wal_records += 1;
        acct.stats.wal_bytes += appended_bytes as u64;
    }

    /// Appends prebuilt page images at the end of the file with **minimal
    /// logging** and returns the first new page id. Each image is forced
    /// once to the durable forced extent, then a single
    /// [`WalRecord::Bulk`] naming the range is logged — instead of an
    /// `Alloc` plus a full-image `Write` per page. Recovery installs the
    /// range only if a commit follows the `Bulk` record.
    ///
    /// The store does no byte work beyond that one copy: the images move
    /// in, with the checksums [`PageImage::seal`] stamped on the caller's
    /// threads. Each page counts one `pages_written`, one `forced_pages`
    /// and one pool touch (fresh pages are resident, as after
    /// [`allocate`](Self::allocate)). Under an armed [`FailPlan`] every
    /// forced page is one durable write, made before the `Bulk` record.
    ///
    /// Fails with [`StorageError::BulkLoad`], before touching anything, if
    /// an image is not exactly one page long.
    pub fn append_forced(&mut self, images: Vec<PageImage>) -> Result<PageId> {
        let first = self.page_count();
        if let Some(bad) = images.iter().find(|img| img.bytes.len() != PAGE_SIZE) {
            return Err(StorageError::BulkLoad(format!(
                "forced page image is {} bytes, not {PAGE_SIZE}",
                bad.bytes.len()
            )));
        }
        if images.is_empty() {
            return Ok(first);
        }
        let count = images.len() as u64;
        for img in images {
            let id = self.pages.len() as PageId;
            match self.reach(PAGE_SIZE) {
                Reach::Whole => self.forced.push((id, img.clone())),
                Reach::Torn(keep) => self.forced.push((
                    id,
                    PageImage {
                        bytes: img.bytes[..keep].into(),
                        sum: img.sum,
                    },
                )),
                Reach::Lost => {}
            }
            self.pages.push(img.bytes);
            self.sums.push(img.sum);
            self.pool.touch_or_insert(id, self.serial_stamp());
        }
        {
            let mut acct = self.acct();
            acct.stats.pages_written += count;
            acct.stats.forced_pages += count;
        }
        self.append_wal(&WalRecord::Bulk { first, count });
        Ok(first)
    }

    /// Allocates a zeroed page **at the end of the file** and returns its
    /// id. The fresh page is resident in the pool (it was just produced in
    /// memory). Bulk builds rely on consecutive calls returning
    /// consecutive ids; reuse-aware callers want
    /// [`allocate_reuse`](Self::allocate_reuse) instead.
    pub fn allocate(&mut self) -> PageId {
        let id = self.pages.len() as PageId;
        self.pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
        self.sums.push(zero_page_sum());
        self.append_wal(&WalRecord::Alloc { page: id });
        self.pool.touch_or_insert(id, self.serial_stamp());
        id
    }

    /// Allocates a zeroed page, preferring to reclaim the most recently
    /// freed page over growing the file — the path blob-chunk and B-tree
    /// maintenance use so UPDATE/DELETE churn does not leak pages.
    pub fn allocate_reuse(&mut self) -> PageId {
        let Some(id) = self.free.pop() else {
            return self.allocate();
        };
        self.pages[id as usize].fill(0);
        self.sums[id as usize] = zero_page_sum();
        self.append_wal(&WalRecord::Alloc { page: id });
        self.pool.touch_or_insert(id, self.serial_stamp());
        id
    }

    /// Returns a page to the free list for later reuse. The bytes are left
    /// in place (zeroed on reallocation); only the allocation state
    /// changes, and the transition is WAL-logged.
    pub fn free_page(&mut self, id: PageId) -> Result<()> {
        if id as usize >= self.pages.len() {
            return Err(StorageError::PageOutOfRange {
                page: id,
                max: self.pages.len() as u64,
            });
        }
        self.free.push(id);
        self.append_wal(&WalRecord::Free { page: id });
        Ok(())
    }

    /// The free list, most recently freed last (inspection for tests).
    pub fn free_pages(&self) -> &[PageId] {
        &self.free
    }

    /// Reads a page, going through the buffer pool.
    pub fn read(&mut self, id: PageId) -> Result<&[u8]> {
        self.fault_in(id)?;
        Ok(&self.pages[id as usize])
    }

    /// Writes a page through a closure, going through the buffer pool and
    /// counting one page write. The minimal contiguous byte range the
    /// closure changed is appended to the write-ahead log as a
    /// physiological record, and the page's checksum is restamped.
    pub fn write(&mut self, id: PageId, f: impl FnOnce(&mut [u8])) -> Result<()> {
        self.fault_in(id)?;
        self.acct().stats.pages_written += 1;
        self.scratch.copy_from_slice(&self.pages[id as usize]);
        f(&mut self.pages[id as usize]);
        let Some((first, last)) = diff_range(&self.scratch, &self.pages[id as usize]) else {
            return Ok(()); // byte-identical rewrite: nothing to log
        };
        self.sums[id as usize] = wal::checksum32(&self.pages[id as usize]);
        let bytes = self.pages[id as usize][first..=last].to_vec();
        self.append_wal(&WalRecord::Write {
            page: id,
            off: first as u32,
            bytes: &bytes,
        });
        Ok(())
    }

    /// Pool/disk bookkeeping for one logical access of `id`. A pool miss
    /// is a (simulated) transfer from disk, so the page's checksum is
    /// verified before the bytes are handed out — cache hits skip the
    /// check, exactly like a real buffer pool only checksums on page-in.
    fn fault_in(&mut self, id: PageId) -> Result<()> {
        if id as usize >= self.pages.len() {
            return Err(StorageError::PageOutOfRange {
                page: id,
                max: self.pages.len() as u64,
            });
        }
        if self.pool.touch_or_insert(id, self.serial_stamp()) {
            self.acct().stats.cache_hits += 1;
        } else {
            {
                let mut acct = self.acct();
                acct.stats.pages_read += 1;
                match acct.last_physical_read {
                    // `checked_add`: `prev` can be `u64::MAX`-adjacent in
                    // synthetic tests; a plain `prev + 1` overflows in debug
                    // builds.
                    Some(prev) if prev.checked_add(1) == Some(id) => {
                        acct.stats.sequential_reads += 1
                    }
                    _ => acct.stats.random_reads += 1,
                }
                acct.last_physical_read = Some(id);
            }
            let computed = wal::checksum32(&self.pages[id as usize]);
            let stored = self.sums[id as usize];
            if stored != computed {
                return Err(StorageError::PageCorrupt {
                    page: id,
                    stored,
                    computed,
                });
            }
        }
        Ok(())
    }

    /// Empties the buffer pool — the cache clear the paper performs before
    /// every measured run ("the database server cache was explicitly
    /// cleared before each performance test run", §6.3).
    pub fn clear_cache(&self) {
        self.pool.clear();
        self.acct().last_physical_read = None;
    }

    /// Current I/O counters.
    pub fn stats(&self) -> IoStats {
        self.acct().stats
    }

    /// Resets the I/O counters (the cache contents are unaffected).
    pub fn reset_stats(&self) {
        *self.acct() = Acct::default();
    }

    /// The simulated disk head: the last page physically read. Cache hits
    /// never move it — only actual (simulated) platter traffic does.
    pub fn seek_position(&self) -> Option<PageId> {
        self.acct().last_physical_read
    }

    /// The disk cost model in effect.
    pub fn profile(&self) -> DiskProfile {
        self.profile
    }

    /// Simulated disk seconds for the I/O performed since `before`.
    pub fn io_seconds_since(&self, before: &IoStats) -> f64 {
        self.profile.io_seconds(&self.acct().stats.since(before))
    }

    /// The current commit epoch: how many [`commit`](Self::commit)s this
    /// store has accepted. A scan's snapshot names the epoch it read
    /// against (see [`ScanCtx::snapshot_epoch`]).
    pub fn committed_epoch(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Appends a commit marker carrying `catalog` (the engine's serialized
    /// table directory) to the write-ahead log. Everything logged since
    /// the previous commit becomes durable with this record; recovery
    /// never applies past the last complete commit.
    ///
    /// When the log has grown past [`AUTO_CHECKPOINT_BYTES`] the commit
    /// also checkpoints — unless a [`FailPlan`] is armed, because the
    /// crash harness needs the log to stay cuttable. The forced extent
    /// does not count towards the threshold: its pages already sit where
    /// they belong and replay only verifies and installs them, so a
    /// minimally logged load's commit does not checkpoint.
    pub fn commit(&mut self, catalog: &[u8]) {
        self.append_wal(&WalRecord::Commit { catalog });
        self.committed.fetch_add(1, Ordering::AcqRel);
        if self.fail.is_none() && self.wal_buf.len() >= AUTO_CHECKPOINT_BYTES {
            self.checkpoint();
        }
    }

    /// Folds the current state — forced extent included — into a fresh
    /// base image and truncates the log. Modeled as atomic: a crash is
    /// either before (old base + old forced extent + old log) or after
    /// (new base, nothing else).
    pub fn checkpoint(&mut self) {
        // `clone_from` copies into the previous base's page buffers
        // instead of allocating a second file image and freeing the first;
        // the forced extent is dropped first so a base built from scratch
        // can reuse its memory.
        self.forced.clear();
        self.base_pages.clone_from(&self.pages);
        self.base_sums.clone_from(&self.sums);
        self.base_free.clone_from(&self.free);
        self.wal_buf.clear();
    }

    /// Bytes currently in the write-ahead log (since the last checkpoint).
    pub fn wal_len(&self) -> usize {
        self.wal_buf.len()
    }

    /// Arms a deterministic crash-injection plan. Subsequent WAL appends
    /// beyond the plan's allowance are dropped (see [`FailPlan`]); the
    /// in-memory state keeps mutating so the victim operation "succeeds"
    /// in-process, exactly like a process that loses power after the
    /// kernel buffered its writes.
    pub fn arm_fail(&mut self, plan: FailPlan) {
        self.fail = Some(FailState { plan, attempted: 0 });
    }

    /// Disarms any crash-injection plan.
    pub fn disarm_fail(&mut self) {
        self.fail = None;
    }

    /// Arms `count` transient read faults, consumed by scan workers'
    /// physical page reads at up to `burst` faults per read. Each
    /// consumed fault forces one retry through the bounded
    /// retry-with-backoff path (counted in
    /// [`IoStats::transient_retries`]); a `burst` above
    /// [`MAX_READ_RETRIES`] exhausts a read's retry budget and surfaces
    /// [`StorageError::ReadFaulted`]. The pool is global and atomic, so
    /// the *total* number of retries is deterministic at any DOP even
    /// though which worker absorbs each fault is not.
    pub fn arm_read_faults(&self, count: u64, burst: u32) {
        self.read_fault_burst.store(burst as u64, Ordering::Relaxed);
        self.read_faults.store(count, Ordering::Relaxed);
    }

    /// Transient read faults still armed (0 = disarmed or all consumed).
    pub fn read_faults_remaining(&self) -> u64 {
        self.read_faults.load(Ordering::Relaxed)
    }

    /// The durable state a crash right now would preserve: the last
    /// checkpoint's base image, the forced extent, and the surviving log
    /// bytes. Feed it to [`PageStore::open`] to model the reboot.
    pub fn crash_image(&self) -> DiskImage {
        DiskImage {
            pages: self.base_pages.clone(),
            sums: self.base_sums.clone(),
            free: self.base_free.clone(),
            forced: self.forced.clone(),
            wal: self.wal_buf.clone(),
        }
    }

    /// Boots a store from a (possibly crash-cut, possibly corrupted) disk
    /// image: verifies the base pages against their checksums, replays the
    /// log **up to the last complete commit record**, and discards the
    /// uncommitted/torn tail. A replayed `Bulk` record installs its range
    /// from the forced extent, verifying each page's checksum; forced
    /// pages no committed `Bulk` names are dropped unread. The recovered
    /// store starts checkpointed at the committed state with a cold
    /// (empty) buffer pool.
    pub fn open(image: &DiskImage) -> Result<Recovery> {
        PageStore::open_with(image, DEFAULT_POOL_PAGES, DiskProfile::default())
    }

    /// [`open`](Self::open) with an explicit pool size and disk profile.
    pub fn open_with(
        image: &DiskImage,
        pool_pages: usize,
        profile: DiskProfile,
    ) -> Result<Recovery> {
        if image.sums.len() != image.pages.len() {
            return Err(StorageError::CatalogCorrupt(format!(
                "disk image has {} pages but {} checksums",
                image.pages.len(),
                image.sums.len()
            )));
        }
        for (i, (page, &stored)) in image.pages.iter().zip(&image.sums).enumerate() {
            if page.len() != PAGE_SIZE {
                return Err(StorageError::PageCorrupt {
                    page: i as u64,
                    stored,
                    computed: 0,
                });
            }
            let computed = wal::checksum32(page);
            if computed != stored {
                return Err(StorageError::PageCorrupt {
                    page: i as u64,
                    stored,
                    computed,
                });
            }
        }

        let scanned = wal::scan(&image.wal);
        let last_commit = scanned
            .records
            .iter()
            .rposition(|(_, r)| matches!(r, WalRecord::Commit { .. }));

        let mut store = PageStore::with_pool(pool_pages, profile);
        store.pages = image.pages.clone();
        store.sums = image.sums.clone();
        store.free = image.free.clone();

        let mut catalog: Option<Vec<u8>> = None;
        let mut applied_records = 0usize;
        let mut max_lsn = 0u64;
        if let Some(last) = last_commit {
            for (i, (lsn, rec)) in scanned.records.iter().take(last + 1).enumerate() {
                store.apply_replay(i, rec, &image.forced)?;
                max_lsn = max_lsn.max(*lsn);
                applied_records = i + 1;
            }
            if let WalRecord::Commit { catalog: c } = &scanned.records[last].1 {
                catalog = Some(c.to_vec());
            }
        }
        let clean_end = last_commit.map(|i| scanned.ends[i]).unwrap_or(0);
        let discarded_bytes = image.wal.len() - clean_end;

        store.next_lsn = max_lsn + 1;
        store.checkpoint();
        Ok(Recovery {
            store,
            catalog,
            applied_records,
            discarded_bytes,
        })
    }

    /// Applies one replayed WAL record to the booting store, mirroring
    /// exactly what the live mutation did. `idx` only feeds error reports.
    fn apply_replay(
        &mut self,
        idx: usize,
        rec: &WalRecord<'_>,
        forced: &[(PageId, PageImage)],
    ) -> Result<()> {
        let corrupt = |msg: String| StorageError::WalCorrupt { offset: idx, msg };
        match rec {
            WalRecord::Alloc { page } => {
                let p = *page as usize;
                if p == self.pages.len() {
                    self.pages.push(vec![0u8; PAGE_SIZE].into_boxed_slice());
                    self.sums.push(zero_page_sum());
                } else if self.free.last() == Some(page) {
                    self.free.pop();
                    if let Some(bytes) = self.pages.get_mut(p) {
                        bytes.fill(0);
                        self.sums[p] = zero_page_sum();
                    }
                } else {
                    return Err(corrupt(format!(
                        "alloc of page {page} matches neither the file end nor the free-list top"
                    )));
                }
            }
            WalRecord::Free { page } => {
                if *page as usize >= self.pages.len() {
                    return Err(corrupt(format!("free of unallocated page {page}")));
                }
                self.free.push(*page);
            }
            WalRecord::Write { page, off, bytes } => {
                let p = *page as usize;
                let start = *off as usize;
                let end = start.checked_add(bytes.len()).filter(|&e| e <= PAGE_SIZE);
                let (Some(target), Some(end)) = (self.pages.get_mut(p), end) else {
                    return Err(corrupt(format!(
                        "write of {} bytes at {off} on page {page} is out of bounds",
                        bytes.len()
                    )));
                };
                target[start..end].copy_from_slice(bytes);
                self.sums[p] = wal::checksum32(target);
            }
            WalRecord::Bulk { first, count } => {
                if *first != self.page_count() {
                    return Err(corrupt(format!(
                        "bulk range at page {first} does not start at the file end"
                    )));
                }
                // The range must be a run of the forced extent; `count` is
                // checked against what the image holds before any page is
                // installed, so an inflated count allocates nothing.
                let start = forced.partition_point(|(page, _)| page < first);
                let run = usize::try_from(*count)
                    .ok()
                    .and_then(|n| start.checked_add(n))
                    .and_then(|end| forced.get(start..end))
                    .filter(|run| {
                        run.iter()
                            .zip(*first..)
                            .all(|((page, _), want)| *page == want)
                    });
                let Some(run) = run else {
                    return Err(corrupt(format!(
                        "bulk range of {count} pages at {first} is outside the forced extent"
                    )));
                };
                for (page, img) in run {
                    img.verify(*page)?;
                }
                for (_, img) in run {
                    self.pages.push(img.bytes.clone());
                    self.sums.push(img.sum);
                }
            }
            WalRecord::Commit { .. } => {}
        }
        Ok(())
    }

    /// Test support: flips one bit of a page **without** restamping its
    /// checksum or logging anything — simulating silent media corruption
    /// that the next cold read of the page must surface as
    /// [`StorageError::PageCorrupt`].
    pub fn corrupt_byte(&mut self, id: PageId, off: usize) {
        self.pages[id as usize][off] ^= 0x01;
    }

    /// Direct page-image access without pool or I/O accounting — for
    /// byte-for-byte comparisons in tests and recovery assertions.
    pub fn raw_page(&self, id: PageId) -> Option<&[u8]> {
        self.pages.get(id as usize).map(|b| &b[..])
    }

    /// Opens a scan: takes the start-of-scan residency snapshot the cost
    /// model classifies against, and claims one pool epoch that all of the
    /// scan's workers stamp their live-pool touches with.
    ///
    /// The snapshot is what keeps the **simulated** I/O deterministic and
    /// DOP-invariant: a page resident when the scan starts is a cache hit
    /// for whichever worker touches it, everything else is a physical
    /// read — regardless of how the live pool (shared by all workers,
    /// evicting concurrently) happens to interleave. The live pool still
    /// sees every touch immediately, stamped `(epoch, partition, seq)`,
    /// so its end state is *also* DOP-invariant (see
    /// [`ShardedLruPool`]) without any replay.
    pub fn begin_scan(&self) -> ScanCtx {
        self.begin_scan_for(QueryCtx::unbounded())
    }

    /// [`begin_scan`](Self::begin_scan) under a statement's lifecycle
    /// context: every [`PartitionReader`] of the scan polls `query` on
    /// each page read, so cancellation, deadlines and memory budgets
    /// reach down to the leaf walk. Internal scans (catalog, recovery)
    /// keep using `begin_scan`, which stamps an unbounded context.
    pub fn begin_scan_for(&self, query: QueryCtx) -> ScanCtx {
        ScanCtx {
            resident: self.pool.resident_set(),
            epoch: self.clock.fetch_add(1, Ordering::Relaxed),
            committed: self.committed.load(Ordering::Acquire),
            query,
        }
    }

    /// A share-nothing read handle over this store for scan worker
    /// `partition` (its index in partition order) of the scan opened by
    /// `scan`.
    pub fn reader<'a>(&'a self, scan: &'a ScanCtx, partition: u32) -> PartitionReader<'a> {
        PartitionReader {
            pages: &self.pages,
            sums: &self.sums,
            pool: &self.pool,
            resident: &scan.resident,
            epoch: scan.epoch,
            partition,
            seq: 0,
            stats: IoStats::default(),
            first_physical_read: None,
            last_physical_read: None,
            seen: HashSet::new(),
            query: &scan.query,
            read_faults: &self.read_faults,
            fault_burst: self.read_fault_burst.load(Ordering::Relaxed) as u32,
        }
    }

    /// Folds a finished scan's per-worker I/O back into the store, in
    /// partition order. Two fix-ups make the merged counters exactly what
    /// a serial scan would have recorded:
    ///
    /// * each worker classified its first physical read as a seek (it had
    ///   no predecessor); if that read actually continued the previous
    ///   partition's (or the pre-scan head's) position, it is reclassified
    ///   sequential;
    /// * the disk head advances to the last **physical** read of the scan
    ///   in partition order — never to a trailing cache hit, which leaves
    ///   the platter untouched.
    ///
    /// The pool needs no attention here: workers touched it live. Takes
    /// `&self` so concurrent sessions can fold their scans back in while
    /// sharing the store under a read lock; the accounting mutex makes
    /// each fold atomic.
    pub fn finish_scan<'a>(&self, parts: impl IntoIterator<Item = &'a ScanIo>) -> IoStats {
        let mut acct = self.acct();
        let mut head = acct.last_physical_read;
        let mut merged = IoStats::default();
        for part in parts {
            let mut io = part.io;
            if let (Some(prev), Some(first)) = (head, part.first_physical_read) {
                if prev.checked_add(1) == Some(first) && io.random_reads > 0 {
                    io.random_reads -= 1;
                    io.sequential_reads += 1;
                }
            }
            if part.last_physical_read.is_some() {
                head = part.last_physical_read;
            }
            merged.merge(&io);
        }
        acct.stats.merge(&merged);
        acct.last_physical_read = head;
        merged
    }
}

/// Anything that can serve page reads with full pool/I/O accounting: the
/// serial [`PageStore`] path and a scan worker's [`PartitionReader`] alike.
///
/// The blob module's ranged LOB reads are generic over this trait, which is
/// what lets a parallel-scan worker resolve `varbinary(max)` array values
/// through the **live** sharded pool — stamped, classified, and folded back
/// exactly like its leaf-page reads — instead of requiring `&mut PageStore`
/// (and thus serialization) for every out-of-row access.
pub trait PageRead {
    /// Reads one page through the buffer pool, touching recency and
    /// classifying the access in this reader's [`IoStats`].
    fn read_page(&mut self, id: PageId) -> Result<&[u8]>;

    /// The query lifecycle this reader runs under, when it has one. LOB
    /// materialization only sees `dyn PageRead`, so budget charging rides
    /// on this seam; a bare [`PageStore`] (recovery, DML apply, DDL)
    /// carries no per-query budget and reports `None`.
    fn lifecycle(&self) -> Option<&QueryCtx> {
        None
    }
}

impl PageRead for PageStore {
    fn read_page(&mut self, id: PageId) -> Result<&[u8]> {
        self.read(id)
    }
}

impl PageRead for PartitionReader<'_> {
    fn read_page(&mut self, id: PageId) -> Result<&[u8]> {
        self.read(id)
    }

    fn lifecycle(&self) -> Option<&QueryCtx> {
        Some(self.query)
    }
}

/// Shared context of one scan: the residency snapshot the cost model
/// classifies against, plus the pool epoch its workers stamp with.
#[derive(Debug)]
pub struct ScanCtx {
    resident: HashSet<PageId>,
    epoch: u64,
    committed: u64,
    query: QueryCtx,
}

impl ScanCtx {
    /// The start-of-scan residency snapshot.
    pub fn resident(&self) -> &HashSet<PageId> {
        &self.resident
    }

    /// The lifecycle context this scan runs under (unbounded for scans
    /// opened with [`PageStore::begin_scan`]).
    pub fn query(&self) -> &QueryCtx {
        &self.query
    }

    /// The store's commit epoch when this scan began — the committed
    /// state the snapshot was taken against. Under the engine's
    /// single-writer/multi-reader scheme every read of one statement
    /// carries the same epoch, which is what the concurrency tests
    /// assert when proving a reader never observes a half-applied write.
    pub fn snapshot_epoch(&self) -> u64 {
        self.committed
    }
}

/// What one scan worker hands back to [`PageStore::finish_scan`]: its
/// counters plus the physical-read endpoints the coordinator needs to
/// stitch the sequential/random classification across partitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanIo {
    /// The worker's I/O counters (classified against the scan snapshot).
    pub io: IoStats,
    /// First page the worker physically read, if any.
    pub first_physical_read: Option<PageId>,
    /// Last page the worker physically read, if any.
    pub last_physical_read: Option<PageId>,
}

/// A concurrent, share-nothing read path over a [`PageStore`] for one
/// parallel-scan worker.
///
/// Readers borrow the page file immutably (so any number of workers can
/// read at once from `std::thread::scope` threads) and keep their own
/// [`IoStats`] and sequential/random classification state, while touching
/// the **live** buffer pool on every read — stamped with the scan's epoch
/// and this worker's `(partition, sequence)`, the deterministic serial
/// visit order. When the worker finishes, [`finish`](Self::finish) hands
/// a [`ScanIo`] back for [`PageStore::finish_scan`] to fold into the
/// global accounting in partition order.
#[derive(Debug)]
pub struct PartitionReader<'a> {
    pages: &'a [Box<[u8]>],
    sums: &'a [u32],
    pool: &'a ShardedLruPool,
    resident: &'a HashSet<PageId>,
    epoch: u64,
    partition: u32,
    seq: u32,
    stats: IoStats,
    first_physical_read: Option<PageId>,
    last_physical_read: Option<PageId>,
    seen: HashSet<PageId>,
    query: &'a QueryCtx,
    read_faults: &'a AtomicU64,
    fault_burst: u32,
}

impl<'a> PartitionReader<'a> {
    /// Polls the scan's lifecycle context: cancellation, deadline, and
    /// the trip points the kill-matrix tests arm. The storage scan loops
    /// call this once per leaf step; the engine's row/batch interpreters
    /// call it per row / per flush through the same reader.
    pub fn check_interrupt(&self) -> Result<()> {
        self.query.check().map_err(StorageError::Interrupted)
    }

    /// The lifecycle context this reader's scan runs under — the engine
    /// charges memory (batch lanes, aggregation state, LOB
    /// materialization) against it.
    pub fn query(&self) -> &QueryCtx {
        self.query
    }

    /// Consumes one armed transient fault if any remain; atomic across
    /// all concurrent readers of the store.
    fn consume_read_fault(&self) -> bool {
        self.read_faults
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Reads a page; the slice borrows the page file, not the reader, so
    /// records can be held while the reader keeps accounting.
    pub fn read(&mut self, id: PageId) -> Result<&'a [u8]> {
        self.check_interrupt()?;
        let Some(page) = self.pages.get(id as usize) else {
            return Err(StorageError::PageOutOfRange {
                page: id,
                max: self.pages.len() as u64,
            });
        };
        // Every logical read touches the live pool immediately — this is
        // what concurrent writers and other scans observe.
        let stamp = pool_stamp(self.epoch, self.partition, self.seq);
        self.seq += 1;
        self.pool.touch_or_insert(id, stamp);
        // The *cost model* classifies against the start-of-scan snapshot,
        // which is what keeps the simulated I/O DOP-invariant.
        if self.seen.insert(id) {
            if self.resident.contains(&id) {
                self.stats.cache_hits += 1;
            } else {
                self.stats.pages_read += 1;
                match self.last_physical_read {
                    Some(prev) if prev.checked_add(1) == Some(id) => {
                        self.stats.sequential_reads += 1
                    }
                    _ => self.stats.random_reads += 1,
                }
                if self.first_physical_read.is_none() {
                    self.first_physical_read = Some(id);
                }
                self.last_physical_read = Some(id);
                // Transient-fault retry: a physical read may hit armed
                // injected faults; each one costs a retry with a
                // deterministic (counted, not timed) exponential backoff.
                // More than MAX_READ_RETRIES faults on one read exhaust
                // the budget.
                let mut attempts = 0u32;
                while attempts < self.fault_burst && self.consume_read_fault() {
                    attempts += 1;
                    self.stats.transient_retries += 1;
                    if attempts > MAX_READ_RETRIES {
                        return Err(StorageError::ReadFaulted { page: id, attempts });
                    }
                    for _ in 0..(1u32 << attempts.min(10)) {
                        std::hint::spin_loop();
                    }
                }
                // This worker's first touch of a snapshot-cold page is the
                // scan's (simulated) transfer from disk: verify its
                // checksum, like the serial path's pool-miss check.
                let computed = wal::checksum32(page);
                let stored = self.sums[id as usize];
                if stored != computed {
                    return Err(StorageError::PageCorrupt {
                        page: id,
                        stored,
                        computed,
                    });
                }
            }
        } else {
            // Re-read within the same worker: the page is in the pool.
            self.stats.cache_hits += 1;
        }
        Ok(page)
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Consumes the reader, returning its counters and physical-read
    /// endpoints for [`PageStore::finish_scan`].
    pub fn finish(self) -> ScanIo {
        ScanIo {
            io: self.stats,
            first_physical_read: self.first_physical_read,
            last_physical_read: self.last_physical_read,
        }
    }
}

impl Default for PageStore {
    fn default() -> Self {
        PageStore::new()
    }
}

/// The minimal contiguous byte range where `before` and `after` differ,
/// as inclusive `(first, last)` indices — `None` when identical. This is
/// what makes the WAL's write records physiological rather than full-page.
fn diff_range(before: &[u8], after: &[u8]) -> Option<(usize, usize)> {
    let first = before.iter().zip(after).position(|(a, b)| a != b)?;
    let last = before
        .iter()
        .zip(after)
        .rposition(|(a, b)| a != b)
        .unwrap_or(first);
    Some((first, last))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_read_write_round_trip() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, |bytes| bytes[0] = 0xAB).unwrap();
        assert_eq!(s.read(p).unwrap()[0], 0xAB);
        assert_eq!(s.page_count(), 1);
        assert_eq!(s.file_bytes(), 8192);
    }

    #[test]
    fn out_of_range_read_fails() {
        let mut s = PageStore::new();
        assert!(matches!(
            s.read(0),
            Err(StorageError::PageOutOfRange { .. })
        ));
    }

    #[test]
    fn fresh_pages_are_cached() {
        let mut s = PageStore::new();
        let p = s.allocate();
        let before = s.stats();
        s.read(p).unwrap();
        let d = s.stats().since(&before);
        assert_eq!(d.cache_hits, 1);
        assert_eq!(d.pages_read, 0);
    }

    #[test]
    fn cache_clear_forces_physical_reads() {
        let mut s = PageStore::new();
        let pages: Vec<_> = (0..8).map(|_| s.allocate()).collect();
        s.clear_cache();
        let before = s.stats();
        for &p in &pages {
            s.read(p).unwrap();
        }
        let d = s.stats().since(&before);
        assert_eq!(d.pages_read, 8);
        assert_eq!(d.cache_hits, 0);
        // Second pass is fully cached.
        let before = s.stats();
        for &p in &pages {
            s.read(p).unwrap();
        }
        let d = s.stats().since(&before);
        assert_eq!(d.cache_hits, 8);
    }

    #[test]
    fn sequential_vs_random_classification() {
        let mut s = PageStore::new();
        for _ in 0..10 {
            s.allocate();
        }
        s.clear_cache();
        s.reset_stats();
        // Ascending scan: first read is a seek, the rest are sequential.
        for p in 0..10 {
            s.read(p).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.random_reads, 1);
        assert_eq!(st.sequential_reads, 9);

        s.clear_cache();
        s.reset_stats();
        // Stride-2 scan: every read seeks.
        for p in (0..10).step_by(2) {
            s.read(p).unwrap();
        }
        let st = s.stats();
        assert_eq!(st.random_reads, 5);
        assert_eq!(st.sequential_reads, 0);
    }

    #[test]
    fn pool_eviction_causes_rereads() {
        let mut s = PageStore::with_pool(4, DiskProfile::default());
        let pages: Vec<_> = (0..8).map(|_| s.allocate()).collect();
        s.clear_cache();
        s.reset_stats();
        // Two passes over 8 pages with a 4-page pool: nothing survives
        // between passes.
        for _ in 0..2 {
            for &p in &pages {
                s.read(p).unwrap();
            }
        }
        assert_eq!(s.stats().pages_read, 16);
        assert_eq!(s.stats().cache_hits, 0);
    }

    #[test]
    fn writes_are_counted() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, |b| b[1] = 1).unwrap();
        s.write(p, |b| b[2] = 2).unwrap();
        assert_eq!(s.stats().pages_written, 2);
    }

    #[test]
    fn io_seconds_depend_on_access_pattern() {
        let profile = DiskProfile {
            seq_read_bytes_per_sec: 8192.0 * 1000.0, // 1000 seq pages/s
            random_read_iops: 100.0,                 // 100 random pages/s
            write_bytes_per_sec: f64::INFINITY,
        };
        let mut s = PageStore::with_pool(16, profile);
        for _ in 0..10 {
            s.allocate();
        }
        s.clear_cache();
        let before = s.stats();
        for p in 0..10 {
            s.read(p).unwrap();
        }
        let seq_time = s.io_seconds_since(&before);

        s.clear_cache();
        let before = s.stats();
        for p in [0u64, 9, 1, 8, 2, 7, 3, 6, 4, 5] {
            s.read(p).unwrap();
        }
        let rnd_time = s.io_seconds_since(&before);
        assert!(
            rnd_time > 4.0 * seq_time,
            "random {rnd_time} should dwarf sequential {seq_time}"
        );
    }

    /// Regression test for the post-scan head drift: a scan whose *last
    /// touches* are cache hits must leave the simulated head at the last
    /// **physical** read, not teleported to the last touched page.
    #[test]
    fn finish_scan_head_ignores_trailing_cache_hits() {
        let mut s = PageStore::new();
        for _ in 0..16 {
            s.allocate();
        }
        s.clear_cache();
        // Warm pages 14 and 15 so the scan ends in cache hits.
        s.read(14).unwrap();
        s.read(15).unwrap();
        s.reset_stats();

        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        for p in 10..16 {
            r.read(p).unwrap();
        }
        let io = r.finish();
        assert_eq!(io.io.pages_read, 4); // 10..14 physical
        assert_eq!(io.io.cache_hits, 2); // 14, 15 resident
        assert_eq!(io.last_physical_read, Some(13));
        s.finish_scan([&io]);
        // The old `absorb_scan` set the head to 15 (the last *touch*),
        // misclassifying a following read of 16 as sequential.
        assert_eq!(s.seek_position(), Some(13));
    }

    /// A scan made of nothing but cache hits must not move the head at
    /// all.
    #[test]
    fn finish_scan_all_hits_leaves_head_alone() {
        let mut s = PageStore::new();
        for _ in 0..8 {
            s.allocate();
        }
        s.clear_cache();
        // Physically read 4..8 (head ends at 7), leaving them resident.
        for p in 4..8 {
            s.read(p).unwrap();
        }
        assert_eq!(s.seek_position(), Some(7));
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        for p in 4..8 {
            r.read(p).unwrap(); // all resident: pure cache hits
        }
        let io = r.finish();
        assert_eq!(io.io.pages_read, 0);
        assert_eq!(io.first_physical_read, None);
        s.finish_scan([&io]);
        assert_eq!(s.seek_position(), Some(7));
    }

    /// Partition boundaries must not cost phantom seeks: worker `p`'s
    /// first physical read is reclassified sequential when it continues
    /// worker `p−1`'s last physical position, making the merged counters
    /// exactly serial.
    #[test]
    fn finish_scan_stitches_boundary_classification() {
        let mut s = PageStore::new();
        for _ in 0..8 {
            s.allocate();
        }
        s.clear_cache();
        s.reset_stats();

        // Serial baseline over pages 0..8.
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        for p in 0..8 {
            r.read(p).unwrap();
        }
        let serial = r.finish();
        drop(scan);
        let serial_merged = s.finish_scan([&serial]);

        // Same pages as two partitions.
        let mut s2 = PageStore::new();
        for _ in 0..8 {
            s2.allocate();
        }
        s2.clear_cache();
        s2.reset_stats();
        let scan = s2.begin_scan();
        let mut a = s2.reader(&scan, 0);
        for p in 0..4 {
            a.read(p).unwrap();
        }
        let a = a.finish();
        let mut b = s2.reader(&scan, 1);
        for p in 4..8 {
            b.read(p).unwrap();
        }
        let b = b.finish();
        // Worker b classified page 4 as a seek on its own…
        assert_eq!(b.io.random_reads, 1);
        drop(scan);
        let merged = s2.finish_scan([&a, &b]);
        // …but the merge stitches it back to sequential.
        assert_eq!(merged, serial_merged);
        assert_eq!(s2.stats(), s.stats());
        assert_eq!(s2.seek_position(), s.seek_position());
    }

    /// Scan workers touch the live pool as they read: residency is
    /// immediately visible, and the end state (set *and* recency order)
    /// matches the serial scan at any worker split.
    #[test]
    fn live_pool_state_is_dop_invariant() {
        let build = |splits: &[std::ops::Range<u64>]| {
            let mut s = PageStore::with_pool(8, DiskProfile::default());
            for _ in 0..32 {
                s.allocate();
            }
            s.clear_cache();
            let scan = s.begin_scan();
            let ios: Vec<ScanIo> = splits
                .iter()
                .enumerate()
                .map(|(pi, range)| {
                    let mut r = s.reader(&scan, pi as u32);
                    for p in range.clone() {
                        r.read(p).unwrap();
                    }
                    r.finish()
                })
                .collect();
            drop(scan);
            s.finish_scan(ios.iter());
            (s.pool().keys_mru_order(), s.stats(), s.seek_position())
        };
        #[allow(clippy::single_range_in_vec_init)] // one partition covering 0..32
        let serial = build(&[0..32]);
        for splits in [
            vec![0..16, 16..32],
            vec![0..8, 8..16, 16..24, 24..32],
            vec![0..5, 5..17, 17..18, 18..32],
        ] {
            assert_eq!(build(&splits), serial, "splits {splits:?}");
        }
    }

    #[test]
    fn commit_crash_recover_round_trips() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, |p| p[10..14].copy_from_slice(b"DATA")).unwrap();
        s.commit(b"cat");
        let rec = PageStore::open(&s.crash_image()).unwrap();
        assert_eq!(rec.catalog.as_deref(), Some(&b"cat"[..]));
        assert_eq!(rec.store.raw_page(a).unwrap(), s.raw_page(a).unwrap());
        assert_eq!(rec.discarded_bytes, 0);
        assert_eq!(rec.applied_records, 3); // alloc + write + commit
    }

    #[test]
    fn uncommitted_tail_is_rolled_back() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, |p| p[0] = 1).unwrap();
        s.commit(b"v1");
        s.write(a, |p| p[0] = 2).unwrap(); // never committed
        let before = s.raw_page(a).unwrap().to_vec();
        assert_eq!(before[0], 2, "in-process state has the new value");
        let rec = PageStore::open(&s.crash_image()).unwrap();
        assert_eq!(rec.store.raw_page(a).unwrap()[0], 1);
        assert!(rec.discarded_bytes > 0);
    }

    #[test]
    fn recovery_at_every_injection_point_lands_on_a_commit() {
        // Scripted workload: commit v1, then a multi-record victim
        // transaction, then commit v2. Killing the log at every append
        // count must recover either v1 (cut before the v2 commit) or v2.
        let run = |plan: Option<FailPlan>| {
            let mut s = PageStore::new();
            let a = s.allocate();
            let b = s.allocate();
            s.write(a, |p| p[0] = 0xA1).unwrap();
            s.write(b, |p| p[0] = 0xB1).unwrap();
            s.commit(b"v1");
            if let Some(p) = plan {
                s.arm_fail(p);
            }
            // Victim: update both pages, free one, allocate a reuse.
            s.write(a, |p| p[0] = 0xA2).unwrap();
            s.free_page(b).unwrap();
            let c = s.allocate_reuse();
            assert_eq!(c, b, "LIFO reuse picks the freed page");
            s.write(c, |p| p[0] = 0xC2).unwrap();
            s.commit(b"v2");
            s
        };
        let clean = run(None);
        // The plan is armed after the 5-record setup, so injection points
        // count victim appends only.
        let total = clean.stats().wal_records - 5;
        let v1 = {
            let mut s = PageStore::new();
            let a = s.allocate();
            let b = s.allocate();
            s.write(a, |p| p[0] = 0xA1).unwrap();
            s.write(b, |p| p[0] = 0xB1).unwrap();
            s.commit(b"v1");
            s
        };
        for k in 0..=total {
            for torn in [0usize, 3] {
                let s = run(Some(FailPlan {
                    allow_writes: k,
                    torn_bytes: torn,
                }));
                let rec = PageStore::open(&s.crash_image()).unwrap();
                if k >= total {
                    assert_eq!(rec.catalog.as_deref(), Some(&b"v2"[..]), "k={k}");
                    for p in 0..clean.page_count() {
                        assert_eq!(
                            rec.store.raw_page(p).unwrap(),
                            clean.raw_page(p).unwrap(),
                            "k={k} page {p}"
                        );
                    }
                    assert_eq!(rec.store.free_pages(), clean.free_pages());
                } else {
                    // Any cut before the final commit must land exactly on
                    // v1 — never a half-applied victim.
                    assert_eq!(rec.catalog.as_deref(), Some(&b"v1"[..]), "k={k}");
                    for p in 0..v1.page_count() {
                        assert_eq!(
                            rec.store.raw_page(p).unwrap(),
                            v1.raw_page(p).unwrap(),
                            "k={k} page {p}"
                        );
                    }
                    assert_eq!(rec.store.free_pages(), v1.free_pages());
                }
            }
        }
    }

    #[test]
    fn cold_read_verifies_checksum_both_ways() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, |b| b[100] = 7).unwrap();
        // Positive: clean page survives a cold read.
        s.clear_cache();
        assert!(s.read(p).is_ok());
        // Negative: corruption behind the pool's back is caught on the
        // next cold read (a warm read cannot see it).
        s.corrupt_byte(p, 200);
        assert!(s.read(p).is_ok(), "warm read skips the check");
        s.clear_cache();
        assert!(matches!(
            s.read(p),
            Err(StorageError::PageCorrupt { page, .. }) if page == p
        ));
    }

    #[test]
    fn scan_reader_verifies_checksum_on_cold_pages() {
        let mut s = PageStore::new();
        let p = s.allocate();
        s.write(p, |b| b[0] = 1).unwrap();
        s.corrupt_byte(p, 50);
        s.clear_cache();
        let scan = s.begin_scan();
        let mut r = s.reader(&scan, 0);
        assert!(matches!(
            r.read(p),
            Err(StorageError::PageCorrupt { page: 0, .. })
        ));
    }

    #[test]
    fn checkpoint_truncates_the_log_and_preserves_state() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, |p| p[0] = 9).unwrap();
        s.commit(b"v1");
        assert!(s.wal_len() > 0);
        s.checkpoint();
        assert_eq!(s.wal_len(), 0);
        // A crash right after a checkpoint: no commit in the (empty) log,
        // but the base image *is* the committed state.
        let rec = PageStore::open(&s.crash_image()).unwrap();
        assert_eq!(rec.store.raw_page(a).unwrap()[0], 9);
        assert_eq!(rec.catalog, None);
    }

    #[test]
    fn identical_rewrite_logs_nothing() {
        let mut s = PageStore::new();
        let a = s.allocate();
        s.write(a, |p| p[0] = 5).unwrap();
        let before = s.stats();
        s.write(a, |p| p[0] = 5).unwrap(); // no byte changes
        let d = s.stats().since(&before);
        assert_eq!(d.pages_written, 1, "the write is still counted");
        assert_eq!(d.wal_records, 0, "but nothing needs logging");
    }

    #[test]
    fn forced_append_logs_one_range_and_recovers_only_when_committed() {
        let image = |b: u8| PageImage::seal(vec![b; PAGE_SIZE].into_boxed_slice());
        let mut s = PageStore::new();
        let a = s.allocate();
        s.commit(b"v1");
        let before = s.stats();
        assert_eq!(s.append_forced(vec![image(1), image(2)]).unwrap(), a + 1);
        let d = s.stats().since(&before);
        assert_eq!((d.pages_written, d.forced_pages, d.wal_records), (2, 2, 1));
        assert_eq!(d.wal_bytes as usize, wal::FRAME_OVERHEAD + 16);
        assert_eq!(s.raw_page(a + 2).unwrap()[0], 2);
        assert!(s.pool().contains(a + 2), "fresh pages are resident");
        // A Bulk with no commit after it is discarded unread.
        let rec = PageStore::open(&s.crash_image()).unwrap();
        assert_eq!(rec.store.page_count(), 1);
        s.commit(b"v2");
        let rec = PageStore::open(&s.crash_image()).unwrap();
        assert_eq!(rec.store.raw_page(a + 1), s.raw_page(a + 1));
        assert_eq!(rec.store.page_count(), 3);
        // A checkpoint folds the forced extent into the base image.
        s.checkpoint();
        assert!(s.crash_image().forced.is_empty());
        assert_eq!(
            PageStore::open(&s.crash_image())
                .unwrap()
                .store
                .page_count(),
            3
        );
        // An image that is not one page is refused before anything moves.
        let short = PageImage::seal(vec![0u8; 100].into_boxed_slice());
        assert!(matches!(
            s.append_forced(vec![image(3), short]),
            Err(StorageError::BulkLoad(_))
        ));
        assert_eq!(s.page_count(), 3);
    }

    #[test]
    fn wal_stream_is_dop_invariant_under_scans() {
        // Parallel scans read but never log: the WAL after a scan at any
        // DOP is byte-identical to before.
        let mut s = PageStore::new();
        for _ in 0..8 {
            s.allocate();
        }
        for p in 0..8 {
            s.write(p, |b| b[0] = p as u8).unwrap();
        }
        s.commit(b"v");
        let wal_before = s.crash_image().wal;
        let scan = s.begin_scan();
        let ios: Vec<ScanIo> = (0..4u32)
            .map(|w| {
                let mut r = s.reader(&scan, w);
                for p in (w as u64 * 2)..(w as u64 * 2 + 2) {
                    r.read(p).unwrap();
                }
                r.finish()
            })
            .collect();
        drop(scan);
        s.finish_scan(ios.iter());
        assert_eq!(s.crash_image().wal, wal_before);
    }
}
