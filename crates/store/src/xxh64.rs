//! XXH64 (Yann Collet's xxHash, 64-bit variant), implemented inline: the
//! workspace takes no checksum dependency for one 40-line function. This is
//! the canonical copy — `mic_eval::workload_cache` re-exports it. Checked
//! against the reference test vectors in `xxh64_reference_vectors`.

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
}
