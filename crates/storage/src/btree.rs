//! A page-based B+tree keyed by `i64` — the clustered index.
//!
//! Every table in the engine is clustered: rows live in the leaf level in
//! key order (the test tables of §6.2 use "an ID (Int64, clustered index)").
//! Leaves are chained for ordered scans, internal nodes hold separator keys.
//!
//! Record formats:
//! * leaf: `key i64 | payload bytes`
//! * internal: `key i64 | child u64` (the leftmost child — subtree with
//!   keys below the first separator — is stored in the page's link field)
//!
//! Splits are 50/50 by bytes, except the classic append optimization: an
//! insert past the last key of the rightmost leaf starts a fresh page, so
//! monotonically increasing bulk loads (the paper's 357 M-row `IDENTITY`
//! style load) leave near-full pages.

use crate::errors::{Result, StorageError};
use crate::page::{page_type, PageId, SlottedPage, SlottedRead, PAGE_SIZE};
use crate::store::{PageImage, PageStore};

/// Largest payload storable in a leaf record (key bytes deducted). Rows
/// beyond this move their blobs out of page — see `sqlarray-storage::row`.
pub const MAX_PAYLOAD: usize = SlottedPage::max_record() - 8;

/// Leaves built per parallel round of [`BTree::bulk_build`]: bounds the
/// transient page-image memory to ~8 MiB per round while keeping each
/// worker's run long enough to amortize the thread spawn.
pub const BULK_BUILD_BATCH_LEAVES: usize = 1024;

/// A clustered B+tree.
#[derive(Debug, Clone)]
pub struct BTree {
    root: PageId,
    first_leaf: PageId,
    len: u64,
    depth: u32,
}

fn leaf_key(rec: &[u8]) -> i64 {
    sqlarray_core::le::i64_at(rec, 0)
}

fn internal_entry(rec: &[u8]) -> (i64, PageId) {
    (
        sqlarray_core::le::i64_at(rec, 0),
        sqlarray_core::le::u64_at(rec, 8),
    )
}

/// The leftmost-child link of an internal node; a corrupt page without
/// one surfaces as a typed error instead of a panic.
fn leftmost_child(v: &SlottedRead<'_>) -> Result<PageId> {
    v.next_page().ok_or_else(|| {
        StorageError::RowCorrupt("internal node missing its leftmost-child link".into())
    })
}

/// Re-opens a page for writing after the caller's `SlottedRead::open` of
/// the same page (under the same store borrow) already verified the type
/// byte.
fn open_verified<'a>(bytes: &'a mut [u8], ptype: u8, page: PageId) -> SlottedPage<'a> {
    // lint:allow(L005, reason = "the caller read-opened the same page under the same store borrow and the type byte cannot change in between, so the Err arm is unreachable")
    SlottedPage::open(bytes, ptype, page).expect("page type verified by the preceding read")
}

/// Pushes a record the surrounding split/fill arithmetic already sized to
/// fit. `store.write` closures cannot propagate `?`, and a failure here
/// would be a split-arithmetic bug, not a runtime condition.
fn push_sized(p: &mut SlottedPage<'_>, rec: &[u8]) {
    // lint:allow(L005, reason = "every caller just established room on the page (fresh page, 50/50 split, greedy fill, or an explicit free-space check); failure would be a split-arithmetic bug, not a runtime condition")
    let _slot = p.push_record(rec).expect("sized to fit by the caller");
}

/// Inserts a record at `pos` after the caller's explicit free-space check.
fn insert_sized(p: &mut SlottedPage<'_>, pos: usize, rec: &[u8]) {
    let res = p.insert_record(pos, rec);
    // lint:allow(L005, reason = "both callers compared free_space_of(bytes) against the record size immediately before taking the write borrow")
    res.expect("caller verified free space");
}

/// Replaces record `pos` after the caller's explicit size/free-space check.
fn replace_sized(p: &mut SlottedPage<'_>, pos: usize, rec: &[u8]) {
    let res = p.replace_record(pos, rec);
    // lint:allow(L005, reason = "the caller compared the new record size against the old record / page free space immediately before taking the write borrow")
    res.expect("caller verified replacement fits");
}

/// Removes slot `pos` that the caller's read of the same page just proved
/// present.
fn remove_sized(p: &mut SlottedPage<'_>, pos: usize) {
    let res = p.remove_slot(pos);
    // lint:allow(L005, reason = "the caller located pos < slot_count under the same store borrow; the page cannot change in between")
    res.expect("caller located the slot");
}

fn encode_leaf(key: i64, payload: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(8 + payload.len());
    rec.extend_from_slice(&key.to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

fn encode_internal(key: i64, child: PageId) -> [u8; 16] {
    let mut rec = [0u8; 16];
    rec[..8].copy_from_slice(&key.to_le_bytes());
    rec[8..].copy_from_slice(&child.to_le_bytes());
    rec
}

/// Result of inserting into a subtree: one `(separator, new right
/// sibling)` pair per page the child split off, in ascending key order
/// (empty when the insert fit in place). A leaf holding records close to
/// [`MAX_PAYLOAD`] can be forced into a three-way split — no single
/// boundary leaves both halves under a page — so this is a `Vec`, not an
/// `Option`.
type SplitInfo = Vec<(i64, PageId)>;

/// Validates the bulk-load key contract (strictly increasing) — shared by
/// [`BTree::bulk_build`] and `Table::bulk_load`, which must check *before*
/// its LOB spill pre-pass mutates the store.
pub(crate) fn validate_bulk_key_order(keys: impl Iterator<Item = i64>) -> Result<()> {
    let mut prev: Option<i64> = None;
    for key in keys {
        if let Some(p) = prev {
            if key <= p {
                return Err(StorageError::BulkLoad(format!(
                    "keys must be strictly increasing (key {key} follows {p})"
                )));
            }
        }
        prev = Some(key);
    }
    Ok(())
}

impl BTree {
    /// Creates an empty tree (a single empty leaf).
    pub fn create(store: &mut PageStore) -> Result<BTree> {
        let root = store.allocate();
        store.write(root, |bytes| {
            SlottedPage::init(bytes, page_type::BTREE_LEAF);
        })?;
        Ok(BTree {
            root,
            first_leaf: root,
            len: 0,
            depth: 1,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root page (for diagnostics).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// The tree's persistent identity, as serialized into commit-record
    /// catalogs: `(root, first_leaf, len, depth)`.
    pub fn parts(&self) -> (PageId, PageId, u64, u32) {
        (self.root, self.first_leaf, self.len, self.depth)
    }

    /// Rebuilds the in-memory descriptor from catalog parts — the inverse
    /// of [`parts`](Self::parts), used by crash recovery. The pages the
    /// parts point at must already exist in the store (they do after
    /// replay: the catalog rode in the same commit record as the last
    /// logged page state).
    pub fn from_parts(root: PageId, first_leaf: PageId, len: u64, depth: u32) -> BTree {
        BTree {
            root,
            first_leaf,
            len,
            depth,
        }
    }

    /// Locates the leaf holding `key`'s position: `(leaf page, slot, hit)`
    /// where `hit` says the key is actually present at that slot.
    fn locate_leaf(&self, store: &mut PageStore, key: i64) -> Result<(PageId, usize, bool)> {
        let mut page = self.root;
        loop {
            let bytes = store.read(page)?;
            match bytes[0] {
                page_type::BTREE_INTERNAL => {
                    let v = SlottedRead::open(bytes, page_type::BTREE_INTERNAL, page)?;
                    let (child, _) = descend(&v, key)?;
                    page = child;
                }
                page_type::BTREE_LEAF => {
                    let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, page)?;
                    let pos = leaf_lower_bound(&v, key)?;
                    let hit = pos < v.slot_count() && leaf_key(v.record(pos)?) == key;
                    return Ok((page, pos, hit));
                }
                other => {
                    return Err(StorageError::PageTypeMismatch {
                        page,
                        expected: page_type::BTREE_LEAF,
                        got: other,
                    })
                }
            }
        }
    }

    /// Deletes `key`, returning its payload. Leaf-local maintenance only:
    /// the slot is removed and later slots shift; a leaf emptied by
    /// deletes stays in the sibling chain (scans skip zero-slot pages for
    /// free), matching the lazy-reclamation behavior of a real clustered
    /// index without rebalancing.
    pub fn delete(&mut self, store: &mut PageStore, key: i64) -> Result<Vec<u8>> {
        let (page, pos, hit) = self.locate_leaf(store, key)?;
        if !hit {
            return Err(StorageError::KeyNotFound { key });
        }
        let old = {
            let bytes = store.read(page)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, page)?;
            v.record(pos)?[8..].to_vec()
        };
        store.write(page, |bytes| {
            let mut p = open_verified(bytes, page_type::BTREE_LEAF, page);
            remove_sized(&mut p, pos);
        })?;
        self.len -= 1;
        Ok(old)
    }

    /// Replaces `key`'s payload in place, returning the old payload.
    ///
    /// Three escalation tiers, each bounded to the touched leaf:
    /// 1. the new record fits the old slot or the page's free tail —
    ///    [`SlottedPage::replace_record`], one page write;
    /// 2. it fits after compacting the page's dead space — reset and
    ///    re-push, still one page write;
    /// 3. it genuinely outgrows the leaf — delete + insert, which may
    ///    split exactly like any insert.
    pub fn update(&mut self, store: &mut PageStore, key: i64, payload: &[u8]) -> Result<Vec<u8>> {
        if payload.len() > MAX_PAYLOAD {
            return Err(StorageError::RecordTooLarge {
                bytes: payload.len(),
                limit: MAX_PAYLOAD,
            });
        }
        let (page, pos, hit) = self.locate_leaf(store, key)?;
        if !hit {
            return Err(StorageError::KeyNotFound { key });
        }
        let rec = encode_leaf(key, payload);
        enum Tier {
            InPlace,
            Compact,
            Reinsert,
        }
        let (old, tier) = {
            let bytes = store.read(page)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, page)?;
            let old_rec = v.record(pos)?;
            let old = old_rec[8..].to_vec();
            let tier = if rec.len() <= old_rec.len() || rec.len() <= free_space_of(bytes) + 4 {
                // `+ 4`: replacement reuses the existing slot entry, so the
                // admission rule is free bytes only, not bytes + slot.
                Tier::InPlace
            } else {
                // Would the record fit if the dead space were compacted
                // away? Live bytes = all records with `pos` swapped out.
                let live: usize = (0..v.slot_count())
                    .map(|i| {
                        v.record(i).map(|r| {
                            let len = if i == pos { rec.len() } else { r.len() };
                            len + crate::page::SLOT_LEN
                        })
                    })
                    .sum::<Result<usize>>()?;
                if live <= PAGE_SIZE - crate::page::PAGE_HEADER_LEN {
                    Tier::Compact
                } else {
                    Tier::Reinsert
                }
            };
            (old, tier)
        };
        match tier {
            Tier::InPlace => {
                store.write(page, |bytes| {
                    let mut p = open_verified(bytes, page_type::BTREE_LEAF, page);
                    replace_sized(&mut p, pos, &rec);
                })?;
            }
            Tier::Compact => {
                let mut records = {
                    let bytes = store.read(page)?;
                    let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, page)?;
                    (0..v.slot_count())
                        .map(|i| v.record(i).map(|r| r.to_vec()))
                        .collect::<Result<Vec<_>>>()?
                };
                records[pos] = rec;
                store.write(page, |bytes| {
                    let mut p = open_verified(bytes, page_type::BTREE_LEAF, page);
                    p.reset();
                    for r in &records {
                        push_sized(&mut p, r);
                    }
                })?;
            }
            Tier::Reinsert => {
                self.delete(store, key)?;
                self.insert(store, key, payload)?;
            }
        }
        Ok(old)
    }

    /// Inserts a key/payload pair; duplicate keys are rejected (clustered
    /// primary key semantics).
    pub fn insert(&mut self, store: &mut PageStore, key: i64, payload: &[u8]) -> Result<()> {
        if payload.len() > MAX_PAYLOAD {
            return Err(StorageError::RecordTooLarge {
                bytes: payload.len(),
                limit: MAX_PAYLOAD,
            });
        }
        let splits = self.insert_rec(store, self.root, key, payload)?;
        if !splits.is_empty() {
            // Root split: grow the tree by one level. A leaf root can
            // split into up to three pages (two separators); the new
            // internal root trivially holds them.
            let new_root = store.allocate();
            let old_root = self.root;
            store.write(new_root, |bytes| {
                let mut p = SlottedPage::init(bytes, page_type::BTREE_INTERNAL);
                p.set_next_page(Some(old_root)); // leftmost child
                for &(sep, right) in &splits {
                    push_sized(&mut p, &encode_internal(sep, right));
                }
            })?;
            self.root = new_root;
            self.depth += 1;
        }
        self.len += 1;
        Ok(())
    }

    fn insert_rec(
        &mut self,
        store: &mut PageStore,
        page: PageId,
        key: i64,
        payload: &[u8],
    ) -> Result<SplitInfo> {
        let ptype = store.read(page)?[0];
        match ptype {
            page_type::BTREE_LEAF => self.insert_leaf(store, page, key, payload),
            page_type::BTREE_INTERNAL => {
                let (child, child_slot) = {
                    let bytes = store.read(page)?;
                    let v = SlottedRead::open(bytes, page_type::BTREE_INTERNAL, page)?;
                    descend(&v, key)?
                };
                let splits = self.insert_rec(store, child, key, payload)?;
                if splits.is_empty() {
                    Ok(Vec::new())
                } else {
                    self.insert_internal(store, page, child_slot, &splits)
                }
            }
            other => Err(StorageError::PageTypeMismatch {
                page,
                expected: page_type::BTREE_LEAF,
                got: other,
            }),
        }
    }

    fn insert_leaf(
        &mut self,
        store: &mut PageStore,
        page: PageId,
        key: i64,
        payload: &[u8],
    ) -> Result<SplitInfo> {
        // Find the slot position and detect duplicates.
        let (pos, count, fits, at_end_of_chain) = {
            let bytes = store.read(page)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, page)?;
            let count = v.slot_count();
            let pos = leaf_lower_bound(&v, key)?;
            if pos < count && leaf_key(v.record(pos)?) == key {
                return Err(StorageError::DuplicateKey { key });
            }
            let need = 8 + payload.len();
            let free = free_space_of(bytes);
            (pos, count, need <= free, v.next_page().is_none())
        };

        let rec = encode_leaf(key, payload);
        if fits {
            store.write(page, |bytes| {
                let mut p = open_verified(bytes, page_type::BTREE_LEAF, page);
                insert_sized(&mut p, pos, &rec);
            })?;
            return Ok(Vec::new());
        }

        // Split. Append optimization: a brand-new rightmost key gets a
        // fresh page of its own.
        if pos == count && at_end_of_chain {
            let right = store.allocate();
            store.write(right, |bytes| {
                let mut p = SlottedPage::init(bytes, page_type::BTREE_LEAF);
                push_sized(&mut p, &rec);
            })?;
            store.write(page, |bytes| {
                let mut p = open_verified(bytes, page_type::BTREE_LEAF, page);
                p.set_next_page(Some(right));
            })?;
            return Ok(vec![(key, right)]);
        }

        // General split by bytes: aim for 50/50, but never hand either
        // side more than a page can hold. Records run up to a full page
        // ([`MAX_PAYLOAD`]), so the balanced boundary can overflow one
        // side — and when a page-wide record sits between page-wide
        // neighbours, *no* two-way boundary exists and the leaf splits
        // three ways.
        let (mut records, old_next) = {
            let bytes = store.read(page)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, page)?;
            let recs: Vec<Vec<u8>> = (0..v.slot_count())
                .map(|i| v.record(i).map(|r| r.to_vec()))
                .collect::<Result<_>>()?;
            (recs, v.next_page())
        };
        records.insert(pos, rec);
        let usable = PAGE_SIZE - crate::page::PAGE_HEADER_LEN;
        let sizes: Vec<usize> = records
            .iter()
            .map(|r| r.len() + crate::page::SLOT_LEN)
            .collect();
        let total: usize = sizes.iter().sum();
        let mut left_bytes = 0usize;
        let mut split_at = records.len();
        for (i, s) in sizes.iter().enumerate() {
            if left_bytes + s > total / 2 && i > 0 {
                split_at = i;
                break;
            }
            left_bytes += s;
        }
        let prefix = |i: usize| sizes[..i].iter().sum::<usize>();
        let both_fit = |i: usize| prefix(i) <= usable && total - prefix(i) <= usable;
        if !both_fit(split_at) {
            // The balanced boundary overflows one side; take the valid
            // boundary closest to it — `0` is the no-boundary sentinel.
            split_at = (1..records.len())
                .filter(|&i| both_fit(i))
                .min_by_key(|&i| prefix(i).abs_diff(total / 2))
                .unwrap_or(0);
        }
        let groups: Vec<Vec<Vec<u8>>> = if split_at > 0 {
            let tail = records.split_off(split_at);
            vec![records, tail]
        } else {
            // No two-way boundary fits both sides; pack greedily. The
            // page held at most one page's worth and gained one record,
            // so this yields exactly three groups.
            let mut gs: Vec<Vec<Vec<u8>>> = Vec::new();
            let mut cur: Vec<Vec<u8>> = Vec::new();
            let mut cur_bytes = 0usize;
            for r in records {
                let s = r.len() + crate::page::SLOT_LEN;
                if cur_bytes + s > usable && !cur.is_empty() {
                    gs.push(std::mem::take(&mut cur));
                    cur_bytes = 0;
                }
                cur_bytes += s;
                cur.push(r);
            }
            gs.push(cur);
            gs
        };

        let mut iter = groups.into_iter();
        let first = iter.next().unwrap_or_default();
        let rest: Vec<Vec<Vec<u8>>> = iter.collect();
        let pages: Vec<PageId> = rest.iter().map(|_| store.allocate()).collect();
        let splits: Vec<(i64, PageId)> = rest
            .iter()
            .zip(&pages)
            .map(|(g, &pid)| (leaf_key(&g[0]), pid))
            .collect();
        store.write(page, |bytes| {
            let mut p = open_verified(bytes, page_type::BTREE_LEAF, page);
            p.reset();
            for r in &first {
                push_sized(&mut p, r);
            }
            p.set_next_page(pages.first().copied().or(old_next));
        })?;
        for (gi, (g, &pid)) in rest.iter().zip(&pages).enumerate() {
            let next = pages.get(gi + 1).copied().or(old_next);
            store.write(pid, |bytes| {
                let mut p = SlottedPage::init(bytes, page_type::BTREE_LEAF);
                for r in g {
                    push_sized(&mut p, r);
                }
                p.set_next_page(next);
            })?;
        }
        Ok(splits)
    }

    fn insert_internal(
        &mut self,
        store: &mut PageStore,
        page: PageId,
        child_slot: InternalPos,
        seps: &[(i64, PageId)],
    ) -> Result<SplitInfo> {
        // The new separators go immediately after the slot we descended
        // through, in the (ascending) order the child produced them.
        let insert_pos = match child_slot {
            InternalPos::Leftmost => 0,
            InternalPos::Slot(i) => i + 1,
        };
        let recs: Vec<[u8; 16]> = seps
            .iter()
            .map(|&(sep, child)| encode_internal(sep, child))
            .collect();
        let fits = {
            let bytes = store.read(page)?;
            // `free_space_of` already budgets one slot; each extra
            // record needs its record bytes plus its own slot.
            let need: usize = recs.iter().map(|r| r.len()).sum::<usize>()
                + (recs.len() - 1) * crate::page::SLOT_LEN;
            free_space_of(bytes) >= need
        };
        if fits {
            store.write(page, |bytes| {
                let mut p = open_verified(bytes, page_type::BTREE_INTERNAL, page);
                for (i, rec) in recs.iter().enumerate() {
                    insert_sized(&mut p, insert_pos + i, rec);
                }
            })?;
            return Ok(Vec::new());
        }

        // Split the internal node: middle key moves up. Entries are 16
        // bytes each, so (unlike leaves) a two-way split always fits.
        let (mut entries, leftmost) = {
            let bytes = store.read(page)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_INTERNAL, page)?;
            let es: Vec<(i64, PageId)> = (0..v.slot_count())
                .map(|i| v.record(i).map(internal_entry))
                .collect::<Result<_>>()?;
            (es, leftmost_child(&v)?)
        };
        for (i, &e) in seps.iter().enumerate() {
            entries.insert(insert_pos + i, e);
        }
        let mid = entries.len() / 2;
        let (up_key, up_child) = entries[mid];
        let right_entries: Vec<(i64, PageId)> = entries[mid + 1..].to_vec();
        let left_entries: Vec<(i64, PageId)> = entries[..mid].to_vec();

        let right = store.allocate();
        store.write(page, |bytes| {
            let mut p = open_verified(bytes, page_type::BTREE_INTERNAL, page);
            p.reset();
            p.set_next_page(Some(leftmost));
            for &(k, c) in &left_entries {
                push_sized(&mut p, &encode_internal(k, c));
            }
        })?;
        store.write(right, |bytes| {
            let mut p = SlottedPage::init(bytes, page_type::BTREE_INTERNAL);
            p.set_next_page(Some(up_child)); // leftmost child of the right node
            for &(k, c) in &right_entries {
                push_sized(&mut p, &encode_internal(k, c));
            }
        })?;
        Ok(vec![(up_key, right)])
    }

    /// Builds a clustered tree bottom-up from pre-encoded leaf records
    /// with strictly increasing keys — the bulk-load fast path.
    ///
    /// Page breaks are computed with the same greedy fill rule the
    /// append-optimized insert path converges to, so a bulk-built tree
    /// packs its leaves like a monotone `IDENTITY` load. Leaf page
    /// *images* are then built and checksummed on up to `dop` worker
    /// threads (contiguous leaf ranges, pure CPU — no store access),
    /// appended to the store in page order, and the internal levels are
    /// assembled on top. Because the images and the append order are
    /// fully determined by the entries, the resulting file layout, page
    /// bytes, pool state, WAL and forced extent, and [`crate::IoStats`]
    /// are **identical at every `dop`**.
    ///
    /// Every fresh page — leaves and internal levels — goes through
    /// [`PageStore::append_forced`]: forced once, logged as one `Bulk`
    /// record per batch or level instead of a full page image each.
    ///
    /// `recycle_first_leaf` lets the caller donate an existing page to
    /// serve as the first leaf instead of allocating a fresh one —
    /// `Table::bulk_load` passes the empty table's root leaf so no page is
    /// orphaned; leaves 1.. are still appended contiguously at the end of
    /// the file. The recycled page may come from anywhere in the file, so
    /// its write keeps physiological logging.
    pub fn bulk_build(
        store: &mut PageStore,
        entries: &[(i64, Vec<u8>)],
        dop: usize,
        recycle_first_leaf: Option<PageId>,
    ) -> Result<BTree> {
        validate_bulk_key_order(entries.iter().map(|(k, _)| *k))?;
        BTree::bulk_build_prevalidated(store, entries, dop, recycle_first_leaf)
    }

    /// [`bulk_build`](Self::bulk_build) minus the key-order pass, for
    /// callers that already validated (`Table::bulk_load` checks keys
    /// *before* its LOB spill pre-pass mutates the store; re-checking here
    /// would make every ingest scan the key column twice).
    pub(crate) fn bulk_build_prevalidated(
        store: &mut PageStore,
        entries: &[(i64, Vec<u8>)],
        dop: usize,
        recycle_first_leaf: Option<PageId>,
    ) -> Result<BTree> {
        if entries.is_empty() {
            return BTree::create(store);
        }
        // lint:allow(L001, reason = "O(n) re-check of the key-order contract the public bulk_build entry point already validated and rejected with a typed error")
        debug_assert!(validate_bulk_key_order(entries.iter().map(|(k, _)| *k)).is_ok());
        // Greedy page breaks: a record of `len` payload bytes costs
        // 8 (key) + len record bytes + 4 slot bytes out of the
        // PAGE_SIZE − PAGE_HEADER_LEN byte budget — exactly the
        // `SlottedPage::free_space` admission rule.
        let budget = PAGE_SIZE - crate::page::PAGE_HEADER_LEN;
        let mut leaf_ranges: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0usize;
        let mut used = 0usize;
        for (i, (_, payload)) in entries.iter().enumerate() {
            if payload.len() > MAX_PAYLOAD {
                return Err(StorageError::RecordTooLarge {
                    bytes: payload.len(),
                    limit: MAX_PAYLOAD,
                });
            }
            let cost = 8 + payload.len() + crate::page::SLOT_LEN;
            if used + cost > budget {
                leaf_ranges.push(start..i);
                start = i;
                used = 0;
            }
            used += cost;
        }
        leaf_ranges.push(start..entries.len());

        // Build the leaf page images in parallel and append them in page
        // order. Building proceeds in bounded *batches* of leaves so the
        // transient image memory is O(batch), not O(table); within a
        // batch, each worker owns a contiguous run of leaves and writes
        // every image into its own buffer. Batching changes neither the
        // image bytes nor the append order, so the layout stays identical
        // at every `dop` (and to an unbatched build).
        let n_leaves = leaf_ranges.len();
        let base = store.page_count();
        // Page id of leaf `i`: the recycled page (if any) is leaf 0, the
        // rest append contiguously at the end of the file.
        let leaf_page = move |i: usize| -> PageId {
            match recycle_first_leaf {
                Some(r) if i == 0 => r,
                Some(_) => base + i as PageId - 1,
                None => base + i as PageId,
            }
        };
        let first_leaf = leaf_page(0);
        let build_leaf = |leaf_idx: usize| -> PageImage {
            let mut bytes = vec![0u8; PAGE_SIZE].into_boxed_slice();
            let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
            for (key, payload) in &entries[leaf_ranges[leaf_idx].clone()] {
                push_sized(&mut p, &encode_leaf(*key, payload));
            }
            if leaf_idx + 1 < n_leaves {
                p.set_next_page(Some(leaf_page(leaf_idx + 1)));
            }
            PageImage::seal(bytes)
        };
        for batch_start in (0..n_leaves).step_by(BULK_BUILD_BATCH_LEAVES) {
            let batch_len = BULK_BUILD_BATCH_LEAVES.min(n_leaves - batch_start);
            let mut images: Vec<PageImage> =
                sqlarray_core::parallel::scoped_map_ranges(batch_len, dop.max(1), |r| {
                    (batch_start + r.start..batch_start + r.end)
                        .map(&build_leaf)
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
            let mut first_idx = batch_start;
            if let (Some(r), 0) = (recycle_first_leaf, batch_start) {
                let image = images.remove(0);
                store.write(r, |bytes| bytes.copy_from_slice(image.bytes()))?;
                first_idx = 1;
            }
            let first = store.append_forced(images)?;
            assert_eq!(first, leaf_page(first_idx));
        }

        // Assemble the internal levels bottom-up, one forced append per
        // level. Each internal record costs 16 + 4 slot bytes; the
        // leftmost child rides in the link.
        let children_per_internal = 1 + budget / (16 + crate::page::SLOT_LEN);
        let mut level: Vec<(i64, PageId)> = leaf_ranges
            .iter()
            .enumerate()
            .map(|(i, r)| (entries[r.start].0, leaf_page(i)))
            .collect();
        let mut depth = 1u32;
        while level.len() > 1 {
            let runs: Vec<&[(i64, PageId)]> = level.chunks(children_per_internal).collect();
            let images = runs
                .iter()
                .map(|run| {
                    let mut bytes = vec![0u8; PAGE_SIZE].into_boxed_slice();
                    let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_INTERNAL);
                    p.set_next_page(Some(run[0].1)); // leftmost child
                    for &(key, child) in &run[1..] {
                        push_sized(&mut p, &encode_internal(key, child));
                    }
                    PageImage::seal(bytes)
                })
                .collect();
            let first = store.append_forced(images)?;
            level = runs
                .iter()
                .zip(first..)
                .map(|(run, id)| (run[0].0, id))
                .collect();
            depth += 1;
        }
        Ok(BTree {
            root: level[0].1,
            first_leaf,
            len: entries.len() as u64,
            depth,
        })
    }

    /// Point lookup; returns the payload when the key exists.
    pub fn get(&self, store: &mut PageStore, key: i64) -> Result<Option<Vec<u8>>> {
        let mut page = self.root;
        loop {
            let bytes = store.read(page)?;
            match bytes[0] {
                page_type::BTREE_INTERNAL => {
                    let v = SlottedRead::open(bytes, page_type::BTREE_INTERNAL, page)?;
                    let (child, _) = descend(&v, key)?;
                    page = child;
                }
                page_type::BTREE_LEAF => {
                    let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, page)?;
                    let pos = leaf_lower_bound(&v, key)?;
                    if pos < v.slot_count() {
                        let rec = v.record(pos)?;
                        if leaf_key(rec) == key {
                            return Ok(Some(rec[8..].to_vec()));
                        }
                    }
                    return Ok(None);
                }
                other => {
                    return Err(StorageError::PageTypeMismatch {
                        page,
                        expected: page_type::BTREE_LEAF,
                        got: other,
                    })
                }
            }
        }
    }

    /// Full ordered scan. `f` receives `(key, payload)` for every entry in
    /// key order and returns `true` to continue, `false` to stop early.
    /// The payload slice borrows the page — zero copies on the scan path,
    /// exactly like an in-process clustered index scan.
    pub fn scan(
        &self,
        store: &mut PageStore,
        mut f: impl FnMut(i64, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        let mut page = Some(self.first_leaf);
        while let Some(pid) = page {
            let bytes = store.read(pid)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, pid)?;
            for i in 0..v.slot_count() {
                let rec = v.record(i)?;
                if !f(leaf_key(rec), &rec[8..])? {
                    return Ok(());
                }
            }
            page = v.next_page();
        }
        Ok(())
    }

    /// Range scan over `[lo, hi]` inclusive, in key order.
    pub fn scan_range(
        &self,
        store: &mut PageStore,
        lo: i64,
        hi: i64,
        mut f: impl FnMut(i64, &[u8]) -> Result<bool>,
    ) -> Result<()> {
        // Descend to the leaf containing lo.
        let mut page = self.root;
        loop {
            let bytes = store.read(page)?;
            if bytes[0] == page_type::BTREE_LEAF {
                break;
            }
            let v = SlottedRead::open(bytes, page_type::BTREE_INTERNAL, page)?;
            let (child, _) = descend(&v, lo)?;
            page = child;
        }
        let mut cur = Some(page);
        while let Some(pid) = cur {
            let bytes = store.read(pid)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, pid)?;
            for i in 0..v.slot_count() {
                let rec = v.record(i)?;
                let k = leaf_key(rec);
                if k < lo {
                    continue;
                }
                if k > hi {
                    return Ok(());
                }
                if !f(k, &rec[8..])? {
                    return Ok(());
                }
            }
            cur = v.next_page();
        }
        Ok(())
    }

    /// All leaf page ids in key (chain) order, collected by walking the
    /// internal levels only — the scan partitioner needs the leaf list
    /// without paying a full leaf-level read, exactly as a real engine
    /// derives parallel range boundaries from the index upper levels.
    /// Cost: one read per *internal* page (a few hundredths of the leaf
    /// count at normal fan-outs).
    ///
    /// Generic over [`PageRead`](crate::store::PageRead) so the walk can
    /// run either through the serial `&mut PageStore` path or through a
    /// scan worker's [`PartitionReader`](crate::store::PartitionReader) —
    /// the latter is how `Table::partition` enumerates leaves over a
    /// *shared* store reference when many sessions scan concurrently.
    pub fn leaf_page_ids<R: crate::store::PageRead>(&self, store: &mut R) -> Result<Vec<PageId>> {
        // Knowing the depth up front lets the walk stop one level above
        // the leaves: a depth-`d` tree's level-`d−1` entries *are* leaf
        // ids, so no leaf page is ever faulted in.
        let mut out = Vec::new();
        self.collect_leaves(store, self.root, self.depth, &mut out)?;
        Ok(out)
    }

    fn collect_leaves<R: crate::store::PageRead>(
        &self,
        store: &mut R,
        page: PageId,
        levels_to_leaf: u32,
        out: &mut Vec<PageId>,
    ) -> Result<()> {
        if levels_to_leaf == 1 {
            out.push(page);
            return Ok(());
        }
        let children = {
            let bytes = store.read_page(page)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_INTERNAL, page)?;
            let mut cs = vec![leftmost_child(&v)?];
            for i in 0..v.slot_count() {
                cs.push(internal_entry(v.record(i)?).1);
            }
            cs
        };
        for child in children {
            self.collect_leaves(store, child, levels_to_leaf - 1, out)?;
        }
        Ok(())
    }

    /// Number of leaf pages (for storage accounting).
    pub fn leaf_pages(&self, store: &mut PageStore) -> Result<u64> {
        let mut n = 0;
        let mut page = Some(self.first_leaf);
        while let Some(pid) = page {
            n += 1;
            let bytes = store.read(pid)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, pid)?;
            page = v.next_page();
        }
        Ok(n)
    }

    /// Tree depth (1 = root is a leaf).
    pub fn depth(&self, store: &mut PageStore) -> Result<u32> {
        let mut d = 1;
        let mut page = self.root;
        loop {
            let bytes = store.read(page)?;
            if bytes[0] == page_type::BTREE_LEAF {
                return Ok(d);
            }
            let v = SlottedRead::open(bytes, page_type::BTREE_INTERNAL, page)?;
            page = leftmost_child(&v)?;
            d += 1;
        }
    }
}

/// Which internal slot the descent went through.
#[derive(Debug, Clone, Copy, PartialEq)]
enum InternalPos {
    /// Went through the leftmost-child link.
    Leftmost,
    /// Went through separator slot `i`.
    Slot(usize),
}

/// Binary search an internal node for the child covering `key`.
fn descend(v: &SlottedRead<'_>, key: i64) -> Result<(PageId, InternalPos)> {
    let count = v.slot_count();
    // Find the last separator <= key.
    let mut lo = 0usize;
    let mut hi = count; // exclusive
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (k, _) = internal_entry(v.record(mid)?);
        if k <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        Ok((leftmost_child(v)?, InternalPos::Leftmost))
    } else {
        let (_, child) = internal_entry(v.record(lo - 1)?);
        Ok((child, InternalPos::Slot(lo - 1)))
    }
}

/// Binary search a leaf for the first slot with key >= `key`.
fn leaf_lower_bound(v: &SlottedRead<'_>, key: i64) -> Result<usize> {
    let mut lo = 0usize;
    let mut hi = v.slot_count();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_key(v.record(mid)?) < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

fn free_space_of(bytes: &[u8]) -> usize {
    let slot_count = u16::from_le_bytes([bytes[2], bytes[3]]) as usize;
    let free_off = u16::from_le_bytes([bytes[4], bytes[5]]) as usize;
    (PAGE_SIZE - slot_count * crate::page::SLOT_LEN)
        .saturating_sub(free_off)
        .saturating_sub(crate::page::SLOT_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(n: i64, payload_len: usize) -> (PageStore, BTree) {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        let payload = vec![0xCD; payload_len];
        for k in 0..n {
            t.insert(&mut store, k, &payload).unwrap();
        }
        (store, t)
    }

    #[test]
    fn insert_and_get() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        t.insert(&mut store, 5, b"five").unwrap();
        t.insert(&mut store, 3, b"three").unwrap();
        t.insert(&mut store, 9, b"nine").unwrap();
        assert_eq!(t.get(&mut store, 3).unwrap().unwrap(), b"three");
        assert_eq!(t.get(&mut store, 5).unwrap().unwrap(), b"five");
        assert_eq!(t.get(&mut store, 9).unwrap().unwrap(), b"nine");
        assert_eq!(t.get(&mut store, 4).unwrap(), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        t.insert(&mut store, 1, b"a").unwrap();
        assert!(matches!(
            t.insert(&mut store, 1, b"b"),
            Err(StorageError::DuplicateKey { key: 1 })
        ));
    }

    #[test]
    fn sequential_load_scans_in_order() {
        let (mut store, t) = tree_with(10_000, 40);
        let mut seen = Vec::new();
        t.scan(&mut store, |k, payload| {
            assert_eq!(payload.len(), 40);
            seen.push(k);
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen.len(), 10_000);
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
        assert!(t.depth(&mut store).unwrap() >= 2);
    }

    #[test]
    fn random_order_load_scans_sorted() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        // Deterministic shuffle of 0..4000 via multiplication by a unit
        // mod 2^k.
        let n = 4000i64;
        for i in 0..n {
            let k = (i * 2654435761 % 4096) * 100000 + i;
            t.insert(&mut store, k, &k.to_le_bytes()).unwrap();
        }
        let mut last = i64::MIN;
        let mut count = 0;
        t.scan(&mut store, |k, payload| {
            assert!(k > last);
            assert_eq!(payload, &k.to_le_bytes());
            last = k;
            count += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(count, n);
    }

    #[test]
    fn point_lookups_after_splits() {
        let (mut store, t) = tree_with(5000, 100);
        for k in [0i64, 1, 499, 2500, 4998, 4999] {
            assert!(t.get(&mut store, k).unwrap().is_some(), "key {k}");
        }
        assert_eq!(t.get(&mut store, 5000).unwrap(), None);
        assert_eq!(t.get(&mut store, -1).unwrap(), None);
    }

    #[test]
    fn append_optimization_fills_pages() {
        // With 40-byte payloads (48-byte records + 4-byte slots), a page
        // fits ~157 records. Sequential load should approach that, far
        // above the ~78 a 50/50 split regime would leave.
        let (mut store, t) = tree_with(10_000, 40);
        let leaves = t.leaf_pages(&mut store).unwrap();
        let per_page = 10_000.0 / leaves as f64;
        assert!(
            per_page > 140.0,
            "append-optimized load left only {per_page:.0} rows/page"
        );
    }

    #[test]
    fn scan_early_stop() {
        let (mut store, t) = tree_with(1000, 16);
        let mut n = 0;
        t.scan(&mut store, |_, _| {
            n += 1;
            Ok(n < 10)
        })
        .unwrap();
        assert_eq!(n, 10);
    }

    #[test]
    fn range_scan_bounds_inclusive() {
        let (mut store, t) = tree_with(2000, 16);
        let mut seen = Vec::new();
        t.scan_range(&mut store, 995, 1005, |k, _| {
            seen.push(k);
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, (995..=1005).collect::<Vec<_>>());
    }

    #[test]
    fn range_scan_empty_window() {
        let (mut store, t) = tree_with(100, 8);
        let mut n = 0;
        t.scan_range(&mut store, 200, 300, |_, _| {
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn big_payloads_split_correctly() {
        // 4000-byte payloads: two records per page at most.
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        for k in 0..100 {
            let payload = vec![k as u8; 4000];
            t.insert(&mut store, k, &payload).unwrap();
        }
        for k in 0..100 {
            let got = t.get(&mut store, k).unwrap().unwrap();
            assert_eq!(got.len(), 4000);
            assert!(got.iter().all(|&b| b == k as u8));
        }
    }

    #[test]
    fn wide_record_split_keeps_both_sides_on_a_page() {
        // Records wider than half a page: the 50/50 byte boundary would
        // hand the right side two of them (> PAGE_SIZE); the split must
        // shift the boundary so both sides fit.
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        t.insert(&mut store, 0, &[0u8; 60]).unwrap();
        t.insert(&mut store, 2, &vec![2u8; 7000]).unwrap();
        // Out-of-order so the append optimization can't kick in.
        t.insert(&mut store, 1, &vec![1u8; 7000]).unwrap();
        for k in 0..3 {
            let got = t.get(&mut store, k).unwrap().unwrap();
            assert!(got.iter().all(|&b| b == k as u8));
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn page_wide_record_between_wide_neighbours_splits_three_ways() {
        // Adversarial: two records filling a page exactly, then a
        // MAX_PAYLOAD record between them. No two-way boundary leaves
        // both sides under a page, so the leaf must split three ways.
        let half = (PAGE_SIZE - crate::page::PAGE_HEADER_LEN) / 2 - 12;
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        t.insert(&mut store, 0, &vec![7u8; half]).unwrap();
        t.insert(&mut store, 2, &vec![9u8; half]).unwrap();
        t.insert(&mut store, 1, &vec![8u8; MAX_PAYLOAD]).unwrap();
        assert_eq!(t.get(&mut store, 0).unwrap().unwrap(), vec![7u8; half]);
        assert_eq!(
            t.get(&mut store, 1).unwrap().unwrap(),
            vec![8u8; MAX_PAYLOAD]
        );
        assert_eq!(t.get(&mut store, 2).unwrap().unwrap(), vec![9u8; half]);
        // The leaf chain must still visit every key in order.
        let mut seen = Vec::new();
        t.scan(&mut store, |k, _| {
            seen.push(k);
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn reinsert_update_with_wide_records_survives_splits() {
        // Regression: `update` (Reinsert tier) of near-page-wide inline
        // rows used to panic in the leaf split when one side overflowed.
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        for k in 0..6 {
            t.insert(&mut store, k, &[k as u8; 68]).unwrap();
        }
        for k in 0..6 {
            t.update(&mut store, k, &vec![k as u8; 7300]).unwrap();
        }
        for k in (0..6).rev() {
            t.update(&mut store, k, &vec![k as u8; 6900]).unwrap();
        }
        for k in 0..6 {
            let got = t.get(&mut store, k).unwrap().unwrap();
            assert_eq!(got.len(), 6900);
            assert!(got.iter().all(|&b| b == k as u8));
        }
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        let too_big = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            t.insert(&mut store, 0, &too_big),
            Err(StorageError::RecordTooLarge { .. })
        ));
        let just_fits = vec![0u8; MAX_PAYLOAD];
        t.insert(&mut store, 0, &just_fits).unwrap();
        assert_eq!(t.get(&mut store, 0).unwrap().unwrap().len(), MAX_PAYLOAD);
    }

    #[test]
    fn reverse_order_insert() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        for k in (0..3000).rev() {
            t.insert(&mut store, k, &(k as i32).to_le_bytes()).unwrap();
        }
        let mut expected = 0i64;
        t.scan(&mut store, |k, _| {
            assert_eq!(k, expected);
            expected += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(expected, 3000);
    }

    #[test]
    fn delete_removes_and_reports_missing() {
        let (mut store, mut t) = tree_with(5000, 40);
        assert_eq!(t.delete(&mut store, 2500).unwrap(), vec![0xCD; 40]);
        assert_eq!(t.len(), 4999);
        assert_eq!(t.get(&mut store, 2500).unwrap(), None);
        assert_eq!(t.get(&mut store, 2499).unwrap().unwrap(), vec![0xCD; 40]);
        assert!(matches!(
            t.delete(&mut store, 2500),
            Err(StorageError::KeyNotFound { key: 2500 })
        ));
        // Draining a whole leaf's key range leaves scans consistent.
        for k in 0..400 {
            t.delete(&mut store, k).unwrap();
        }
        let mut seen = 0u64;
        let mut last = i64::MIN;
        t.scan(&mut store, |k, _| {
            assert!(k > last && k >= 400 && k != 2500);
            last = k;
            seen += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, t.len());
    }

    #[test]
    fn update_tiers_preserve_scan_order() {
        let (mut store, mut t) = tree_with(3000, 40);
        // Tier 1: same-size in-place.
        assert_eq!(t.update(&mut store, 7, &[1u8; 40]).unwrap(), vec![0xCD; 40]);
        assert_eq!(t.get(&mut store, 7).unwrap().unwrap(), vec![1u8; 40]);
        // Tier 1: shrink.
        t.update(&mut store, 8, &[2u8; 5]).unwrap();
        assert_eq!(t.get(&mut store, 8).unwrap().unwrap(), vec![2u8; 5]);
        // Tier 2/3: grow well past the page's free space — full pages from
        // a sequential load force compaction or reinsert.
        t.update(&mut store, 9, &[3u8; 4000]).unwrap();
        assert_eq!(t.get(&mut store, 9).unwrap().unwrap(), vec![3u8; 4000]);
        assert_eq!(t.len(), 3000);
        let mut last = i64::MIN;
        let mut n = 0;
        t.scan(&mut store, |k, _| {
            assert!(k > last);
            last = k;
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, 3000);
        // Typed errors.
        assert!(matches!(
            t.update(&mut store, -1, b"x"),
            Err(StorageError::KeyNotFound { key: -1 })
        ));
        assert!(matches!(
            t.update(&mut store, 7, &vec![0u8; MAX_PAYLOAD + 1]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn parts_round_trip_preserves_tree() {
        let (mut store, t) = tree_with(2000, 30);
        let (root, first, len, depth) = t.parts();
        let t2 = BTree::from_parts(root, first, len, depth);
        assert_eq!(t2.len(), t.len());
        assert_eq!(
            t2.get(&mut store, 1234).unwrap(),
            t.get(&mut store, 1234).unwrap()
        );
        let mut n = 0;
        t2.scan(&mut store, |_, _| {
            n += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(n, 2000);
    }

    #[test]
    fn leaf_page_ids_match_chain_order() {
        for n in [0i64, 1, 5, 5000] {
            let (mut store, t) = tree_with(n, 40);
            let ids = t.leaf_page_ids(&mut store).unwrap();
            assert_eq!(ids.len() as u64, t.leaf_pages(&mut store).unwrap());
            // The tracked depth must agree with the walked depth.
            assert_eq!(t.depth, t.depth(&mut store).unwrap());
            // Walk the chain and compare.
            let mut chain = Vec::new();
            let mut page = Some(t.first_leaf);
            while let Some(pid) = page {
                chain.push(pid);
                let bytes = store.read(pid).unwrap();
                let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, pid).unwrap();
                page = v.next_page();
            }
            assert_eq!(ids, chain, "n = {n}");
        }
    }

    #[test]
    fn leaf_page_ids_read_only_internal_pages_when_warm() {
        let (mut store, t) = tree_with(20_000, 40);
        let leaves = t.leaf_pages(&mut store).unwrap();
        store.clear_cache();
        let before = store.stats();
        t.leaf_page_ids(&mut store).unwrap();
        let d = store.stats().since(&before);
        // Collecting the leaf list must not read the leaf level itself.
        assert!(
            d.pages_read + d.cache_hits < leaves / 10,
            "partitioning touched {} pages for {leaves} leaves",
            d.pages_read + d.cache_hits
        );
    }

    #[test]
    fn scan_is_sequential_io_after_sequential_load() {
        let (mut store, t) = tree_with(20_000, 40);
        store.clear_cache();
        store.reset_stats();
        t.scan(&mut store, |_, _| Ok(true)).unwrap();
        let st = store.stats();
        // Leaf chain allocation order is ascending for sequential loads, so
        // the scan should be dominated by sequential page reads.
        assert!(
            st.sequential_reads as f64 >= 0.9 * st.pages_read as f64,
            "scan was not sequential: {st:?}"
        );
    }
}
