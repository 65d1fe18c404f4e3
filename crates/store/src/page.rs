//! On-disk layout: header slots, page frames, and the xxh64 checksum
//! that seals both.
//!
//! ```text
//! byte 0        512       1024         4096
//! ┌─────────────┬──────────┬────────────┬────────────┬────────────┬──
//! │ header slot │ header   │ (reserved) │ page 0     │ page 1     │ …
//! │ A (epoch    │ slot B   │            │            │            │
//! │ even)       │ (odd)    │            │            │            │
//! └─────────────┴──────────┴────────────┴────────────┴────────────┴──
//! ```
//!
//! Every page is `page_size` bytes: payload, then a `u64` next-page id
//! (`NO_PAGE` terminates a chain; data pages always store `NO_PAGE`
//! because the directory lists their ids explicitly), then a `u64` xxh64
//! of everything before it. A header slot is 512 bytes: magic, epoch,
//! geometry, directory-chain root, and its own checksum. The *live* slot
//! is `epoch % 2`, so a commit writes the slot the previous commit did
//! not touch — a crash mid-header-write tears the new slot and leaves
//! the old one intact by construction.

/// Container magic + format version; bump on incompatible layout change.
pub(crate) const MAGIC: &[u8; 8] = b"MICPG1\0\0";

/// Each of the two header slots occupies this many bytes.
pub(crate) const HEADER_SLOT: usize = 512;

/// File offset where page 0 begins (slots + reserved gap).
pub(crate) const PAGES_START: u64 = 4096;

/// Per-page overhead: `u64` next-page id + `u64` checksum.
pub(crate) const PAGE_TAIL: usize = 16;

/// Chain terminator / "no page" sentinel.
pub const NO_PAGE: u64 = u64::MAX;

/// Serialized size of the meaningful header prefix (magic → checksum).
const HEADER_USED: usize = 56;

// ---------------------------------------------------------------------------
// XXH64 (Yann Collet's xxHash, 64-bit variant), implemented inline: the
// workspace takes no checksum dependency for one 40-line function. This is
// the canonical copy — `mic_eval::workload_cache` re-exports it. Checked
// against the reference test vectors in `xxh64_reference_vectors`.
// ---------------------------------------------------------------------------

const XP1: u64 = 0x9E3779B185EBCA87;
const XP2: u64 = 0xC2B2AE3D27D4EB4F;
const XP3: u64 = 0x165667B19E3779F9;
const XP4: u64 = 0x85EBCA77C2B2AE63;
const XP5: u64 = 0x27D4EB2F165667C5;

fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(XP2))
        .rotate_left(31)
        .wrapping_mul(XP1)
}

fn xxh_merge(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val))
        .wrapping_mul(XP1)
        .wrapping_add(XP4)
}

/// XXH64 of `data` with `seed`. Public so tools and tests can verify or
/// regenerate checksums in store and workload-cache files.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let u64_at = |i: usize| u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
    let mut i = 0usize;
    let mut h = if len >= 32 {
        let mut v1 = seed.wrapping_add(XP1).wrapping_add(XP2);
        let mut v2 = seed.wrapping_add(XP2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(XP1);
        while i + 32 <= len {
            v1 = xxh_round(v1, u64_at(i));
            v2 = xxh_round(v2, u64_at(i + 8));
            v3 = xxh_round(v3, u64_at(i + 16));
            v4 = xxh_round(v4, u64_at(i + 24));
            i += 32;
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in [v1, v2, v3, v4] {
            h = xxh_merge(h, v);
        }
        h
    } else {
        seed.wrapping_add(XP5)
    };
    h = h.wrapping_add(len as u64);
    while i + 8 <= len {
        h ^= xxh_round(0, u64_at(i));
        h = h.rotate_left(27).wrapping_mul(XP1).wrapping_add(XP4);
        i += 8;
    }
    if i + 4 <= len {
        let w = u32::from_le_bytes(data[i..i + 4].try_into().unwrap()) as u64;
        h ^= w.wrapping_mul(XP1);
        h = h.rotate_left(23).wrapping_mul(XP2).wrapping_add(XP3);
        i += 4;
    }
    while i < len {
        h ^= (data[i] as u64).wrapping_mul(XP5);
        h = h.rotate_left(11).wrapping_mul(XP1);
        i += 1;
    }
    h ^= h >> 33;
    h = h.wrapping_mul(XP2);
    h ^= h >> 29;
    h = h.wrapping_mul(XP3);
    h ^ (h >> 32)
}

// ---------------------------------------------------------------------------
// Header slots
// ---------------------------------------------------------------------------

/// One decoded header: the root of a committed store state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Header {
    /// Commit counter; the larger valid header wins at open.
    pub epoch: u64,
    /// Page size the file was created with (immutable thereafter).
    pub page_size: u64,
    /// File extent in pages (the allocator's high-water mark).
    pub page_count: u64,
    /// First page of the directory chain (`NO_PAGE` = empty store).
    pub dir_first: u64,
    /// Serialized directory length in bytes.
    pub dir_len: u64,
}

impl Header {
    /// File offset of the slot this header's epoch lives in.
    pub(crate) fn slot_offset(epoch: u64) -> u64 {
        (epoch % 2) * HEADER_SLOT as u64
    }

    /// Serialize to a full zero-padded slot, checksum included.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = vec![0u8; HEADER_SLOT];
        buf[..8].copy_from_slice(MAGIC);
        for (i, v) in [
            self.epoch,
            self.page_size,
            self.page_count,
            self.dir_first,
            self.dir_len,
        ]
        .into_iter()
        .enumerate()
        {
            buf[8 + i * 8..16 + i * 8].copy_from_slice(&v.to_le_bytes());
        }
        let sum = xxh64(&buf[..HEADER_USED - 8], 0);
        buf[HEADER_USED - 8..HEADER_USED].copy_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decode one slot; `None` on wrong magic, short slot, or torn bytes.
    pub fn decode(slot: &[u8]) -> Option<Header> {
        if slot.len() < HEADER_USED || &slot[..8] != MAGIC {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(slot[8 + i * 8..16 + i * 8].try_into().unwrap());
        let stored = word(5);
        if xxh64(&slot[..HEADER_USED - 8], 0) != stored {
            return None;
        }
        Some(Header {
            epoch: word(0),
            page_size: word(1),
            page_count: word(2),
            dir_first: word(3),
            dir_len: word(4),
        })
    }
}

// ---------------------------------------------------------------------------
// Page frames
// ---------------------------------------------------------------------------

/// Payload bytes one page of `page_size` carries.
pub(crate) fn payload_cap(page_size: usize) -> usize {
    page_size - PAGE_TAIL
}

/// File offset of page `id`.
pub(crate) fn page_offset(id: u64, page_size: usize) -> u64 {
    PAGES_START + id * page_size as u64
}

/// Stamp the next-pointer and checksum into a full page buffer.
pub(crate) fn seal_page(buf: &mut [u8], next: u64) {
    let ps = buf.len();
    buf[ps - PAGE_TAIL..ps - 8].copy_from_slice(&next.to_le_bytes());
    let sum = xxh64(&buf[..ps - 8], 0);
    buf[ps - 8..].copy_from_slice(&sum.to_le_bytes());
}

/// Verify a page read back from disk; `None` means torn or corrupt.
pub(crate) fn check_page(buf: &[u8]) -> Option<u64> {
    let ps = buf.len();
    if ps < PAGE_TAIL + 8 {
        return None;
    }
    let stored = u64::from_le_bytes(buf[ps - 8..].try_into().unwrap());
    if xxh64(&buf[..ps - 8], 0) != stored {
        return None;
    }
    Some(u64::from_le_bytes(
        buf[ps - PAGE_TAIL..ps - 8].try_into().unwrap(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxh64_reference_vectors() {
        // Reference vectors for the upstream xxHash XXH64 with seed 0.
        assert_eq!(xxh64(b"", 0), 0xEF46DB3751D8E999);
        assert_eq!(xxh64(b"a", 0), 0xD24EC4F1A98C6E5B);
        assert_eq!(xxh64(b"abc", 0), 0x44BC2CF5AD770999);
        // ≥32 bytes exercises the four-lane main loop.
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition", 0),
            0xFBCEA83C8A378BF1
        );
        // Seed sensitivity.
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abc", 1));
    }

    #[test]
    fn header_roundtrips_and_rejects_any_torn_byte() {
        let h = Header {
            epoch: 7,
            page_size: 4096,
            page_count: 12,
            dir_first: 3,
            dir_len: 999,
        };
        let buf = h.encode();
        assert_eq!(buf.len(), HEADER_SLOT);
        assert_eq!(Header::decode(&buf), Some(h));
        assert_eq!(Header::slot_offset(7), HEADER_SLOT as u64);
        assert_eq!(Header::slot_offset(8), 0);
        // Every single-byte tear in the meaningful prefix is caught.
        for i in 0..HEADER_USED {
            let mut torn = buf.clone();
            torn[i] ^= 0x40;
            assert!(Header::decode(&torn).is_none(), "tear at byte {i} missed");
        }
        assert!(Header::decode(&buf[..40]).is_none(), "short slot rejected");
        assert!(
            Header::decode(&[0u8; HEADER_SLOT]).is_none(),
            "zeros rejected"
        );
    }

    #[test]
    fn page_seal_verifies_and_catches_corruption() {
        let ps = 512usize;
        let mut buf = vec![0u8; ps];
        buf[..5].copy_from_slice(b"hello");
        seal_page(&mut buf, 42);
        assert_eq!(check_page(&buf), Some(42));
        for i in [0usize, 100, ps - PAGE_TAIL, ps - 1] {
            let mut torn = buf.clone();
            torn[i] ^= 0x01;
            assert!(check_page(&torn).is_none(), "flip at {i} missed");
        }
        assert_eq!(payload_cap(ps), ps - 16);
        assert_eq!(page_offset(0, ps), PAGES_START);
        assert_eq!(page_offset(3, ps), PAGES_START + 3 * 512);
    }
}
