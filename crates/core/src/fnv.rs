//! FNV-1a 64-bit hashing — the one digest behind checkpoint envelopes,
//! serving-snapshot checksums and model fingerprints. Dependency-free
//! and stable across platforms, so digests written by one build verify
//! under another.

/// The FNV-1a 64-bit offset basis: the seed of a fresh digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the running digest `seed` (start from
/// [`FNV_OFFSET`]).
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds the little-endian bit patterns of `values` into `seed`, so two
/// slices digest equal iff they are bit-identical.
pub fn fnv1a_f64s(seed: u64, values: &[f64]) -> u64 {
    values
        .iter()
        .fold(seed, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }
}
