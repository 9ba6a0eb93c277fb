//! Write-ahead log: checksummed, LSN-stamped physiological records.
//!
//! Every mutation of a [`crate::store::PageStore`] — page allocation (fresh
//! or reused from the free list), page free, and page write — appends one
//! record here *before* the in-memory "disk" state is considered durable.
//! Page writes are **physiological**: the record carries the page id plus
//! the minimal contiguous byte range that changed, not the whole 8 KiB
//! image, so a B-tree slot update logs tens of bytes and a blob-chunk
//! rewrite logs only the chunk payload.
//!
//! Bulk loads are **minimally logged**, like SQL Server's bulk insert into
//! a new or empty table: [`crate::store::PageStore::append_forced`] first
//! forces the prebuilt page images of fresh pages at the end of the file
//! (the image's forced extent), then logs a single [`WalRecord::Bulk`]
//! naming the range. Replaying `Bulk` installs the forced pages after
//! verifying their checksums; a `Bulk` past the last commit is never
//! replayed, so an uncommitted bulk allocation simply disappears.
//!
//! A transaction becomes durable with a [`WalRecord::Commit`] marker, which
//! carries the serialized catalog (table name → schema → B-tree roots) as
//! its payload. Recovery ([`crate::store::PageStore::open`]) replays the log
//! from the last checkpoint image **up to the last complete commit record**
//! and discards everything after it — including a torn final record, which
//! the frame checksum detects.
//!
//! ## Frame format
//!
//! ```text
//! magic  u8   = 0xA7
//! kind   u8   (1 = alloc, 2 = free, 3 = write, 4 = commit, 5 = bulk)
//! lsn    u64  LE, strictly increasing from 1
//! len    u32  LE, payload byte count
//! payload     (kind-specific, see below)
//! check  u32  LE, checksum32 over magic..payload
//! ```
//!
//! Payloads: `alloc`/`free` are `page u64`; `write` is
//! `page u64 | off u32 | bytes…` (the changed range, `off` relative to the
//! page start); `commit` is the opaque catalog image; `bulk` is
//! `first u64 | count u64`, the forced page range.
//!
//! [`scan`] accepts a frame only when it is complete, verifies, and
//! carries the LSN one past its predecessor's; the first frame that fails
//! any of these ends the clean prefix.
//!
//! Because every store mutation happens on `&mut PageStore` (parallel scans
//! only read), the byte stream of the log — and the forced extent beside
//! it — is a pure function of the logical operation sequence, identical at
//! any DOP. That is what lets the crash-matrix tests enumerate injection
//! points once and assert the count is the same at DOP 1/2/4/8. The
//! injection points are the durable writes: every WAL append
//! ([`crate::IoStats::wal_records`]) plus every forced page
//! ([`crate::IoStats::forced_pages`]).

use crate::errors::{Result, StorageError};
use sqlarray_core::le;

/// First byte of every WAL frame.
pub const WAL_MAGIC: u8 = 0xA7;

/// Fixed framing overhead per record: magic + kind + lsn + len + check.
pub const FRAME_OVERHEAD: usize = 1 + 1 + 8 + 4 + 4;

const KIND_ALLOC: u8 = 1;
const KIND_FREE: u8 = 2;
const KIND_WRITE: u8 = 3;
const KIND_COMMIT: u8 = 4;
const KIND_BULK: u8 = 5;

/// A fast non-cryptographic 32-bit checksum (an xorshift-multiply mix over
/// 8-byte lanes, folded to 32 bits). Used both for WAL frame integrity and
/// for the store's per-page checksums verified on cold reads — cheap enough
/// to run on every pool miss.
pub fn checksum32(bytes: &[u8]) -> u32 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let mut lane = [0u8; 8];
        lane.copy_from_slice(c);
        h ^= u64::from_le_bytes(lane);
        h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 29;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut lane = [0u8; 8];
        lane[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(lane);
        h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 29;
    }
    (h ^ (h >> 32)) as u32
}

/// One decoded write-ahead log record (payload borrowed from the log).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord<'a> {
    /// A page entered the file: appended at the end (`page == page_count`)
    /// or reclaimed from the free list (`page < page_count`).
    Alloc {
        /// The allocated page id.
        page: u64,
    },
    /// A page was returned to the free list.
    Free {
        /// The freed page id.
        page: u64,
    },
    /// A contiguous byte range of a page changed.
    Write {
        /// The written page id.
        page: u64,
        /// Byte offset of the changed range within the page.
        off: u32,
        /// The new bytes of the changed range.
        bytes: &'a [u8],
    },
    /// Transaction boundary; payload is the serialized catalog at commit.
    Commit {
        /// Opaque catalog image (decoded by the engine, not the store).
        catalog: &'a [u8],
    },
    /// `count` fresh pages starting at `first` (the file end) were forced
    /// to the image's forced extent before this record was appended.
    Bulk {
        /// The first page of the forced range.
        first: u64,
        /// Pages in the forced range.
        count: u64,
    },
}

impl WalRecord<'_> {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::Alloc { .. } => KIND_ALLOC,
            WalRecord::Free { .. } => KIND_FREE,
            WalRecord::Write { .. } => KIND_WRITE,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::Bulk { .. } => KIND_BULK,
        }
    }

    fn payload_len(&self) -> usize {
        match self {
            WalRecord::Alloc { .. } | WalRecord::Free { .. } => 8,
            WalRecord::Write { bytes, .. } => 12 + bytes.len(),
            WalRecord::Commit { catalog } => catalog.len(),
            WalRecord::Bulk { .. } => 16,
        }
    }
}

/// Appends one framed record to `log`, returning the frame's byte length.
pub fn append_record(log: &mut Vec<u8>, lsn: u64, rec: &WalRecord<'_>) -> usize {
    let start = log.len();
    log.push(WAL_MAGIC);
    log.push(rec.kind());
    le::push_u64(log, lsn);
    le::push_u32(log, rec.payload_len() as u32);
    match rec {
        WalRecord::Alloc { page } | WalRecord::Free { page } => le::push_u64(log, *page),
        WalRecord::Write { page, off, bytes } => {
            le::push_u64(log, *page);
            le::push_u32(log, *off);
            log.extend_from_slice(bytes);
        }
        WalRecord::Commit { catalog } => log.extend_from_slice(catalog),
        WalRecord::Bulk { first, count } => {
            le::push_u64(log, *first);
            le::push_u64(log, *count);
        }
    }
    let check = checksum32(&log[start..]);
    le::push_u32(log, check);
    log.len() - start
}

/// The result of walking a (possibly torn) log buffer.
#[derive(Debug)]
pub struct WalScan<'a> {
    /// Complete, checksum-verified records in log order, with their LSNs.
    pub records: Vec<(u64, WalRecord<'a>)>,
    /// Frame-end byte offset of each record in `records` — `ends[i]` is
    /// where record `i + 1` starts, which recovery uses to report how many
    /// trailing bytes it discarded past the last complete commit.
    pub ends: Vec<usize>,
    /// Byte length of the clean prefix (everything before the tear).
    pub clean_len: usize,
    /// Byte offset of the torn/corrupt tail, if the buffer did not end
    /// exactly on a record boundary.
    pub tear: Option<usize>,
}

/// Walks `buf` from the front, decoding records until the buffer ends or a
/// frame fails to verify (short frame, bad magic, checksum mismatch, or an
/// LSN that is not its predecessor's plus one). A failing frame is
/// reported as a tear, never an error — a torn tail is the *expected*
/// state after a crash, and a stale frame left behind a newer tail is
/// one too.
pub fn scan(buf: &[u8]) -> WalScan<'_> {
    let mut records: Vec<(u64, WalRecord<'_>)> = Vec::new();
    let mut ends = Vec::new();
    let mut off = 0usize;
    while off < buf.len() {
        let frame = decode_frame(buf, off).filter(|(lsn, _, _)| match records.last() {
            Some((prev, _)) => prev.checked_add(1) == Some(*lsn),
            None => true,
        });
        match frame {
            Some((lsn, rec, next)) => {
                records.push((lsn, rec));
                ends.push(next);
                off = next;
            }
            None => {
                return WalScan {
                    records,
                    ends,
                    clean_len: off,
                    tear: Some(off),
                }
            }
        }
    }
    WalScan {
        records,
        ends,
        clean_len: off,
        tear: None,
    }
}

/// Like [`scan`] but a torn tail is a typed error: the caller wants the
/// log to be whole (integrity checks, tests) rather than crash-tolerant.
pub fn scan_strict(buf: &[u8]) -> Result<Vec<(u64, WalRecord<'_>)>> {
    let s = scan(buf);
    match s.tear {
        Some(offset) => Err(StorageError::WalTorn { offset }),
        None => Ok(s.records),
    }
}

/// Decodes the frame starting at `off`; `None` if it is incomplete,
/// has a bad magic/kind, or fails its checksum.
fn decode_frame(buf: &[u8], off: usize) -> Option<(u64, WalRecord<'_>, usize)> {
    let header_end = off.checked_add(14)?;
    if header_end > buf.len() {
        return None;
    }
    if buf[off] != WAL_MAGIC {
        return None;
    }
    let kind = buf[off + 1];
    let lsn = le::u64_at(buf, off + 2);
    let payload_len = le::u32_at(buf, off + 10) as usize;
    let payload_end = header_end.checked_add(payload_len)?;
    let frame_end = payload_end.checked_add(4)?;
    if frame_end > buf.len() {
        return None;
    }
    let stored = le::u32_at(buf, payload_end);
    if checksum32(&buf[off..payload_end]) != stored {
        return None;
    }
    let payload = &buf[header_end..payload_end];
    let rec = match kind {
        KIND_ALLOC if payload_len == 8 => WalRecord::Alloc {
            page: le::u64_at(payload, 0),
        },
        KIND_FREE if payload_len == 8 => WalRecord::Free {
            page: le::u64_at(payload, 0),
        },
        KIND_WRITE if payload_len >= 12 => WalRecord::Write {
            page: le::u64_at(payload, 0),
            off: le::u32_at(payload, 8),
            bytes: &payload[12..],
        },
        KIND_COMMIT => WalRecord::Commit { catalog: payload },
        KIND_BULK if payload_len == 16 => WalRecord::Bulk {
            first: le::u64_at(payload, 0),
            count: le::u64_at(payload, 8),
        },
        _ => return None,
    };
    Some((lsn, rec, frame_end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> (Vec<u8>, usize) {
        let mut log = Vec::new();
        append_record(&mut log, 1, &WalRecord::Alloc { page: 0 });
        append_record(
            &mut log,
            2,
            &WalRecord::Write {
                page: 0,
                off: 16,
                bytes: &[1, 2, 3],
            },
        );
        append_record(&mut log, 3, &WalRecord::Free { page: 0 });
        append_record(&mut log, 4, &WalRecord::Bulk { first: 1, count: 3 });
        let commit_at = log.len();
        append_record(&mut log, 5, &WalRecord::Commit { catalog: b"cat" });
        (log, commit_at)
    }

    #[test]
    fn round_trips_every_kind() {
        let (log, _) = sample_log();
        let recs = scan_strict(&log).unwrap();
        assert_eq!(recs.len(), 5);
        assert_eq!(recs[0], (1, WalRecord::Alloc { page: 0 }));
        assert_eq!(
            recs[1],
            (
                2,
                WalRecord::Write {
                    page: 0,
                    off: 16,
                    bytes: &[1, 2, 3]
                }
            )
        );
        assert_eq!(recs[2], (3, WalRecord::Free { page: 0 }));
        assert_eq!(recs[3], (4, WalRecord::Bulk { first: 1, count: 3 }));
        assert_eq!(recs[4], (5, WalRecord::Commit { catalog: b"cat" }));
    }

    #[test]
    fn lsn_discontinuity_ends_the_clean_prefix() {
        let (mut log, _) = sample_log();
        let whole = log.len();
        // A checksum-valid frame whose LSN repeats an earlier one: a stale
        // frame left behind a newer tail, not part of this log.
        append_record(&mut log, 2, &WalRecord::Commit { catalog: b"old" });
        let s = scan(&log);
        assert_eq!(s.records.len(), 5);
        assert_eq!(s.clean_len, whole);
        assert_eq!(s.tear, Some(whole));
        // A forward gap ends the prefix too.
        let (mut log, _) = sample_log();
        append_record(&mut log, 7, &WalRecord::Free { page: 0 });
        assert_eq!(scan(&log).tear, Some(whole));
        // Only continuity is checked: a log may start at any LSN (it
        // resumes where the last checkpoint truncated it).
        let mut log = Vec::new();
        append_record(&mut log, 41, &WalRecord::Alloc { page: 0 });
        append_record(&mut log, 42, &WalRecord::Commit { catalog: b"" });
        assert_eq!(scan_strict(&log).unwrap().len(), 2);
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_whole_record() {
        let (log, commit_at) = sample_log();
        // Cut mid-way through the commit frame.
        let torn = &log[..commit_at + 5];
        let s = scan(torn);
        assert_eq!(s.records.len(), 4);
        assert_eq!(s.clean_len, commit_at);
        assert_eq!(s.tear, Some(commit_at));
        assert_eq!(
            scan_strict(torn),
            Err(StorageError::WalTorn { offset: commit_at })
        );
    }

    #[test]
    fn every_truncation_point_yields_a_prefix_of_records() {
        let (log, _) = sample_log();
        let whole = scan_strict(&log).unwrap();
        for cut in 0..log.len() {
            let s = scan(&log[..cut]);
            assert!(s.records.len() <= whole.len());
            assert_eq!(s.records, whole[..s.records.len()]);
            assert!(s.clean_len <= cut);
        }
    }

    #[test]
    fn corrupt_byte_fails_the_checksum() {
        let (mut log, _) = sample_log();
        let mid = log.len() / 2;
        log[mid] ^= 0x40;
        let s = scan(&log);
        assert!(s.tear.is_some(), "flipped bit must be detected");
    }

    #[test]
    fn checksum_is_sensitive_to_position_and_length() {
        assert_ne!(checksum32(&[0, 1]), checksum32(&[1, 0]));
        assert_ne!(checksum32(&[0]), checksum32(&[0, 0]));
        assert_eq!(checksum32(b"abc"), checksum32(b"abc"));
    }
}
