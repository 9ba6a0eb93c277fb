//! Recovery input robustness: [`wal::scan`] and [`PageStore::open`] are
//! total over damaged disk images. Starting from a valid image that holds
//! every WAL record kind (including a minimally logged `Bulk` range) and a
//! forced extent, the properties apply bit flips, truncation, extension
//! and inflated `len`/`count` fields. Both decoders must return a verified
//! prefix or a typed error: never panic, never allocate pages the image
//! does not hold, and never install a `Bulk` range from outside the
//! forced extent.

use proptest::prelude::*;
use sqlarray_storage::fail::{corrupt_forced_byte, corrupt_image_byte, tear_forced_page};
use sqlarray_storage::wal::{self, WalRecord, FRAME_OVERHEAD};
use sqlarray_storage::{DiskImage, PageImage, PageStore, PAGE_SIZE};

/// A deterministic page image seeded by `seed`.
fn image(seed: u8) -> PageImage {
    let bytes: Vec<u8> = (0..PAGE_SIZE)
        .map(|i| (i as u8).wrapping_mul(seed | 1) ^ seed)
        .collect();
    PageImage::seal(bytes.into_boxed_slice())
}

/// A crash image with a base image, a log of every record kind, a
/// committed bulk range and an uncommitted one after the last commit.
fn valid_image() -> DiskImage {
    let mut s = PageStore::new();
    let a = s.allocate();
    let b = s.allocate();
    s.write(a, |p| p[..4].copy_from_slice(b"BASE")).unwrap();
    s.write(b, |p| p[100] = 7).unwrap();
    s.commit(b"v1");
    s.checkpoint();
    s.free_page(b).unwrap();
    let c = s.allocate_reuse();
    s.write(c, |p| p[8..12].copy_from_slice(b"REUS")).unwrap();
    s.append_forced((1..=3).map(image).collect()).unwrap();
    let d = s.allocate();
    s.write(d, |p| p[0] = 9).unwrap();
    s.append_forced((4..=5).map(image).collect()).unwrap();
    s.commit(b"v2");
    s.append_forced((6..=7).map(image).collect()).unwrap();
    s.crash_image()
}

/// Byte offset of every frame in a verified log.
fn frame_offsets(log: &[u8]) -> Vec<usize> {
    let s = wal::scan(log);
    std::iter::once(0)
        .chain(s.ends.iter().copied())
        .take(s.records.len())
        .collect()
}

/// One damage to apply to the valid image; parameters are reduced modulo
/// the image's sizes when applied.
#[derive(Clone, Debug)]
enum Damage {
    FlipWal(usize, u8),
    TruncateWal(usize),
    ExtendWal(usize, u8),
    InflateLen(usize, u32),
    RewriteBulk(usize, u64, u64),
    FlipForced(usize, usize),
    TearForced(usize, usize),
    DropForced(usize),
    FlipBase(usize, usize),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    (
        0u8..9,
        any::<usize>(),
        any::<usize>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(kind, x, y, u, v)| match kind {
            0 => Damage::FlipWal(x, (y % 8) as u8),
            1 => Damage::TruncateWal(x),
            2 => Damage::ExtendWal(x % 64, y as u8),
            // Either just past the true length or anywhere up to u32::MAX.
            3 => Damage::InflateLen(
                x,
                if u % 2 == 0 {
                    (v % 64) as u32 + 1
                } else {
                    v as u32
                },
            ),
            // Small perturbations of the true range or arbitrary values.
            4 => Damage::RewriteBulk(x, u % 16, if y % 2 == 0 { v % 16 } else { v }),
            5 => Damage::FlipForced(x, y),
            6 => Damage::TearForced(x, y),
            7 => Damage::DropForced(x),
            _ => Damage::FlipBase(x, y),
        })
}

/// Applies `damage`; a damage whose target an earlier one removed (an
/// empty log, no `Bulk` frame left, an empty forced extent) is skipped.
fn apply(img: &mut DiskImage, damage: &Damage) {
    let offsets = frame_offsets(&img.wal);
    let n_forced = img.forced.len();
    let absent = match damage {
        Damage::FlipWal(..) => img.wal.is_empty(),
        Damage::InflateLen(..) | Damage::RewriteBulk(..) => offsets.is_empty(),
        Damage::FlipForced(..) | Damage::TearForced(..) | Damage::DropForced(..) => n_forced == 0,
        _ => false,
    };
    if absent {
        return;
    }
    match *damage {
        Damage::FlipWal(pos, bit) => {
            let pos = pos % img.wal.len();
            img.wal[pos] ^= 1 << bit;
        }
        Damage::TruncateWal(cut) => img.wal.truncate(cut % (img.wal.len() + 1)),
        Damage::ExtendWal(n, seed) => {
            img.wal
                .extend((0..n).map(|i| (i as u8).wrapping_mul(seed) ^ seed));
        }
        Damage::InflateLen(frame, extra) => {
            // Grow the frame's `len` field; the checksum still covers the
            // original bytes, so the frame must fail to verify.
            let at = offsets[frame % offsets.len()] + 10;
            let len = u32::from_le_bytes(img.wal[at..at + 4].try_into().unwrap());
            let inflated = len.saturating_add(extra.max(1));
            img.wal[at..at + 4].copy_from_slice(&inflated.to_le_bytes());
        }
        Damage::RewriteBulk(nth, first_delta, count) => {
            // Re-encode the nth Bulk frame with a different range and a
            // *valid* checksum: the scan accepts it, so recovery itself
            // must refuse any range the forced extent does not hold.
            let bulk: Vec<(usize, u64, u64)> = wal::scan(&img.wal)
                .records
                .iter()
                .zip(&offsets)
                .filter_map(|((lsn, r), &off)| match r {
                    WalRecord::Bulk { first, .. } => Some((off, *lsn, *first)),
                    _ => None,
                })
                .collect();
            if bulk.is_empty() {
                return;
            }
            let (off, lsn, first) = bulk[nth % bulk.len()];
            let mut frame = Vec::new();
            let rec = WalRecord::Bulk {
                first: first.wrapping_add(first_delta).wrapping_sub(8),
                count,
            };
            wal::append_record(&mut frame, lsn, &rec);
            img.wal[off..off + frame.len()].copy_from_slice(&frame);
        }
        Damage::FlipForced(idx, off) => corrupt_forced_byte(img, idx % n_forced, off % PAGE_SIZE),
        Damage::TearForced(idx, keep) => tear_forced_page(img, idx % n_forced, keep % PAGE_SIZE),
        Damage::DropForced(idx) => {
            img.forced.remove(idx % n_forced);
        }
        Damage::FlipBase(page, off) => {
            let page = (page % img.pages.len()) as u64;
            corrupt_image_byte(img, page, off % PAGE_SIZE);
        }
    }
}

/// The scan's records are exactly the verified frames of a prefix of
/// `log`, with consecutive LSNs.
fn assert_verified_prefix(log: &[u8]) -> Result<(), TestCaseError> {
    let s = wal::scan(log);
    prop_assert!(s.clean_len <= log.len());
    prop_assert_eq!(s.records.len(), s.ends.len());
    let mut rebuilt = Vec::new();
    for (lsn, rec) in &s.records {
        wal::append_record(&mut rebuilt, *lsn, rec);
    }
    prop_assert!(
        rebuilt == log[..s.clean_len],
        "records re-encode to the prefix"
    );
    prop_assert!(s
        .records
        .windows(2)
        .all(|w| w[0].0.checked_add(1) == Some(w[1].0)));
    prop_assert_eq!(s.tear.is_some(), s.clean_len < log.len());
    Ok(())
}

/// `open` either refuses the image with a typed error or recovers a store
/// that holds no page the image did not, whose bulk ranges all came from
/// the forced extent byte for byte.
fn assert_open_is_bounded(img: &DiskImage) -> Result<(), TestCaseError> {
    let Ok(rec) = PageStore::open(img) else {
        return Ok(()); // a StorageError: typed by construction
    };
    let s = wal::scan(&img.wal);
    let applied = &s.records[..rec.applied_records];
    let allocs = applied
        .iter()
        .filter(|(_, r)| matches!(r, WalRecord::Alloc { .. }))
        .count();
    let pages = rec.store.page_count() as usize;
    prop_assert!(
        pages <= img.pages.len() + allocs + img.forced.len(),
        "{pages} pages from {} base, {allocs} allocs, {} forced",
        img.pages.len(),
        img.forced.len()
    );
    prop_assert!(img.wal.len() >= rec.discarded_bytes);
    for (_, r) in applied {
        if let WalRecord::Bulk { first, count } = *r {
            prop_assert!(count <= img.forced.len() as u64);
            for page in first..first + count {
                let forced = img.forced.iter().find(|(p, _)| *p == page);
                prop_assert!(
                    forced.is_some(),
                    "bulk page {page} is not in the forced extent"
                );
                let (_, forced) = forced.unwrap();
                prop_assert!(rec.store.raw_page(page) == Some(forced.bytes()));
            }
        }
    }
    Ok(())
}

#[test]
fn the_valid_image_recovers_its_last_commit() {
    let img = valid_image();
    assert_eq!(img.forced.len(), 7);
    let rec = PageStore::open(&img).unwrap();
    assert_eq!(rec.catalog.as_deref(), Some(&b"v2"[..]));
    // Base pages 0–1, five committed forced pages, one logged allocation;
    // the two forced pages after the last commit are discarded.
    assert_eq!(rec.store.page_count(), 8);
    assert_eq!(rec.store.raw_page(2), Some(img.forced[0].1.bytes()));
    assert!(rec.discarded_bytes > 0);
    assert_verified_prefix(&img.wal).unwrap();
    assert_open_is_bounded(&img).unwrap();
}

#[test]
fn every_single_damage_to_the_forced_extent_or_a_bulk_range_is_bounded() {
    // The random property below rarely lands one damage alone on a given
    // forced page or Bulk frame; sweep those single damages exhaustively.
    let n_forced = valid_image().forced.len();
    let mut damages = Vec::new();
    for idx in 0..n_forced {
        damages.push(Damage::DropForced(idx));
        damages.push(Damage::FlipForced(idx, 4000));
        damages.push(Damage::TearForced(idx, 100));
    }
    for nth in 0..3 {
        for first_delta in 0..16 {
            for count in [0, 1, 2, 3, 4, 8, u64::MAX] {
                damages.push(Damage::RewriteBulk(nth, first_delta, count));
            }
        }
    }
    for d in &damages {
        let mut img = valid_image();
        apply(&mut img, d);
        assert_verified_prefix(&img.wal).unwrap();
        if let Err(e) = assert_open_is_bounded(&img) {
            panic!("{d:?}: {e:?}");
        }
    }
}

proptest! {
    #[test]
    fn damaged_images_decode_to_a_verified_prefix_or_a_typed_error(
        damages in prop::collection::vec(damage_strategy(), 1..4),
    ) {
        // Check after every damage, not only the last: a later damage that
        // cuts the log would otherwise hide what an earlier one broke.
        let mut img = valid_image();
        for d in &damages {
            apply(&mut img, d);
            assert_verified_prefix(&img.wal)?;
            assert_open_is_bounded(&img)?;
        }
    }

    #[test]
    fn arbitrary_bytes_scan_without_panicking(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        lsn in any::<u64>(),
    ) {
        // Random garbage, and garbage behind one valid frame whose LSN may
        // sit at the top of the range.
        assert_verified_prefix(&bytes)?;
        let mut log = Vec::new();
        wal::append_record(&mut log, lsn, &WalRecord::Free { page: 1 });
        prop_assert_eq!(log.len(), FRAME_OVERHEAD + 8);
        log.extend_from_slice(&bytes);
        assert_verified_prefix(&log)?;
    }
}
