//! Stable hash and mix functions: FNV-1a 64 for fingerprints and checksums,
//! SplitMix64 for deriving decorrelated seeds. Their outputs are persisted
//! (journal checksums, machine signatures) or seed simulations, so they
//! must never change.

/// FNV-1a 64 offset basis: the hash of no bytes.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues the FNV-1a 64 hash `hash` over `bytes`, for hashing a
/// sequence of pieces. Start from [`FNV1A64_OFFSET`].
pub fn fnv1a64_update(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(FNV1A64_PRIME);
    }
}

/// FNV-1a 64 of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV1A64_OFFSET;
    fnv1a64_update(&mut hash, bytes);
    hash
}

/// SplitMix64's state increment, 2^64 / φ.
pub const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijective avalanche of `z`.
pub fn splitmix64_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first SplitMix64 output from state `z`: a stateless mixer that
/// turns related inputs (a seed xor a stream id) into unrelated outputs.
pub fn mix64(z: u64) -> u64 {
    splitmix64_finalize(z.wrapping_add(SPLITMIX64_GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut pieces = FNV1A64_OFFSET;
        fnv1a64_update(&mut pieces, b"a");
        assert_eq!(pieces, fnv1a64(b"a"));
        assert_eq!(mix64(0), 0xe220_a839_7b1d_cdaf);
    }
}
