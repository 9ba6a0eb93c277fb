//! Deterministic fault injection for crash-recovery testing.
//!
//! [`FailStore`] wraps a [`PageStore`] and models the whole crash
//! lifecycle the crash-matrix suites drive:
//!
//! 1. **Arm** a [`FailPlan`] — the store accepts exactly N more durable
//!    writes (WAL appends and forced bulk pages, in the order they
//!    happen), then silently "loses power" (later writes are dropped, the
//!    first dropped one can leave a torn prefix). The in-process state keeps mutating,
//!    so the victim operation succeeds from the caller's point of view —
//!    exactly like an OS that buffered the writes the platter never saw.
//! 2. **Crash** — take the [`DiskImage`] that survived: checkpoint base
//!    pages + the forced extent + the cut log.
//! 3. Optionally **corrupt** the image like failing media would:
//!    [`tear_final_page`] (a partial sector write), [`corrupt_image_byte`]
//!    (a silent bit flip), [`tear_forced_page`] / [`corrupt_forced_byte`]
//!    (the same two faults on a forced bulk page), [`tear_wal`] (an
//!    arbitrary mid-record cut).
//! 4. **Reboot** via [`PageStore::open`] and assert the recovered state
//!    is byte-for-byte the last committed snapshot.
//!
//! Injection points are enumerated from a clean run: every durable write
//! is counted whether or not it reaches the disk — WAL appends in
//! [`crate::stats::IoStats::wal_records`], forced pages in
//! [`crate::stats::IoStats::forced_pages`] — so the
//! [`crate::stats::IoStats::durable_writes`] delta of an unfailed victim
//! run is the exact number of distinct crash points to test.

use crate::errors::Result;
use crate::page::PageId;
use crate::store::{DiskImage, FailPlan, PageRead, PageStore};

/// A [`PageStore`] wrapper that kills the process-model at the N-th
/// durable write. Derefs to the store, so tables/B-trees/blobs run on it
/// unchanged.
#[derive(Debug)]
pub struct FailStore {
    store: PageStore,
}

impl FailStore {
    /// Wraps a store (usually freshly built and committed).
    pub fn new(store: PageStore) -> FailStore {
        FailStore { store }
    }

    /// Arms the crash: `allow` more durable writes (WAL appends and
    /// forced pages) reach the disk, then power is lost; the first dropped
    /// write leaves `torn_bytes` bytes of torn prefix (0 = clean cut).
    pub fn kill_at_write(&mut self, allow: u64, torn_bytes: usize) {
        self.store.arm_fail(FailPlan {
            allow_writes: allow,
            torn_bytes,
        });
    }

    /// "Pulls the plug": consumes the wrapper and returns what the disk
    /// actually holds at this instant.
    pub fn crash(self) -> DiskImage {
        self.store.crash_image()
    }

    /// The wrapped store.
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The wrapped store, mutably.
    pub fn store_mut(&mut self) -> &mut PageStore {
        &mut self.store
    }
}

impl std::ops::Deref for FailStore {
    type Target = PageStore;
    fn deref(&self) -> &PageStore {
        &self.store
    }
}

impl std::ops::DerefMut for FailStore {
    fn deref_mut(&mut self) -> &mut PageStore {
        &mut self.store
    }
}

impl PageRead for FailStore {
    fn read_page(&mut self, id: PageId) -> Result<&[u8]> {
        self.store.read(id)
    }
}

/// Truncates the image's final page to `keep` bytes — a torn (partial)
/// page write. Recovery refuses the image with
/// [`crate::errors::StorageError::PageCorrupt`] for that page.
pub fn tear_final_page(image: &mut DiskImage, keep: usize) {
    if let Some(last) = image.pages.last_mut() {
        let keep = keep.min(last.len().saturating_sub(1));
        *last = last[..keep].to_vec().into_boxed_slice();
    }
}

/// Flips one bit of a base page without fixing its checksum — silent
/// media corruption recovery must detect.
pub fn corrupt_image_byte(image: &mut DiskImage, page: PageId, off: usize) {
    image.pages[page as usize][off] ^= 0x01;
}

/// Truncates forced page `idx` (its position in the forced extent) to
/// `keep` bytes — a torn write of a bulk page. Recovery refuses the image
/// with [`crate::errors::StorageError::PageCorrupt`] only if a committed
/// `Bulk` record names the page.
pub fn tear_forced_page(image: &mut DiskImage, idx: usize, keep: usize) {
    if let Some((_, img)) = image.forced.get_mut(idx) {
        let bytes = img.bytes_mut();
        let keep = keep.min(bytes.len().saturating_sub(1));
        *bytes = bytes[..keep].into();
    }
}

/// Flips one bit of forced page `idx` without fixing its checksum.
pub fn corrupt_forced_byte(image: &mut DiskImage, idx: usize, off: usize) {
    if let Some(b) = image
        .forced
        .get_mut(idx)
        .and_then(|(_, img)| img.bytes_mut().get_mut(off))
    {
        *b ^= 0x01;
    }
}

/// Cuts the image's log to its first `keep` bytes — an arbitrary
/// (possibly mid-record) tail loss beyond what the armed plan produced.
pub fn tear_wal(image: &mut DiskImage, keep: usize) {
    image.wal.truncate(keep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::StorageError;

    /// A tiny scripted workload: two committed pages, then a victim write.
    fn committed_store() -> PageStore {
        let mut s = PageStore::new();
        let a = s.allocate();
        let b = s.allocate();
        s.write(a, |p| p[0..4].copy_from_slice(b"AAAA")).unwrap();
        s.write(b, |p| p[0..4].copy_from_slice(b"BBBB")).unwrap();
        s.commit(b"catalog-v1");
        s
    }

    #[test]
    fn crash_before_any_victim_write_recovers_the_commit() {
        let mut f = FailStore::new(committed_store());
        f.kill_at_write(0, 0);
        f.write(0, |p| p[0..4].copy_from_slice(b"XXXX")).unwrap();
        let image = f.crash();
        let rec = PageStore::open(&image).unwrap();
        assert_eq!(&rec.store.raw_page(0).unwrap()[0..4], b"AAAA");
        assert_eq!(rec.catalog.as_deref(), Some(&b"catalog-v1"[..]));
    }

    #[test]
    fn torn_page_is_refused() {
        let s = committed_store();
        let mut image = s.crash_image();
        // Materialize a base image so there is a final page to tear.
        let rec = PageStore::open(&image).unwrap();
        image = rec.store.crash_image();
        tear_final_page(&mut image, 100);
        assert!(matches!(
            PageStore::open(&image),
            Err(StorageError::PageCorrupt { page: 1, .. })
        ));
    }

    #[test]
    fn flipped_bit_in_base_image_is_refused() {
        let s = committed_store();
        let rec = PageStore::open(&s.crash_image()).unwrap();
        let mut image = rec.store.crash_image();
        corrupt_image_byte(&mut image, 0, 3);
        assert!(matches!(
            PageStore::open(&image),
            Err(StorageError::PageCorrupt { page: 0, .. })
        ));
    }

    #[test]
    fn wal_cut_past_last_commit_only_loses_uncommitted_work() {
        let mut s = committed_store();
        s.write(1, |p| p[0..4].copy_from_slice(b"CCCC")).unwrap(); // uncommitted
        let mut image = s.crash_image();
        let cut = image.wal.len() - 3;
        tear_wal(&mut image, cut);
        let rec = PageStore::open(&image).unwrap();
        assert_eq!(&rec.store.raw_page(1).unwrap()[0..4], b"BBBB");
        assert!(rec.discarded_bytes > 0);
    }
}
