//! # fingerprint — Rabin-Karp fingerprints of all prefixes and suffixes
//!
//! The map phase needs, for every read (and its reverse complement), the
//! fingerprints of *all* of its prefixes and suffixes (Section III-A).
//! LaSAGNA computes the prefix fingerprints as a **Hillis-Steele scan**
//! (paper Fig. 5): after `log2(l)` steps, lane `i` holds the hash of the
//! prefix ending at position `i`. The suffix fingerprints are then derived
//! from the prefix fingerprints and the place-value table in one more step
//! (Fig. 6): `S[i] = (F − P[i−1]·σ^(n−i)) mod q` where `F` is the full-read
//! hash.
//!
//! That kernel is what the virtual device is *charged* for. The host
//! *executes* its work-efficient equivalent — one Horner pass per read for
//! the prefixes, the same Fig. 6 step for the suffixes, no wide division —
//! and writes only the lengths the caller keeps, length-major, straight
//! into the caller's rows ([`fingerprint_rows_into`]); the device is charged
//! once a batch ([`charge_fingerprint_kernel`]), however many slices the
//! host computes it in. The lock-step scan itself lives on in the tests,
//! as the oracle for Fig. 5.
//!
//! Following Section IV-B, a fingerprint is **two independent 64-bit
//! hashes** (different radixes and prime moduli) packed into a `u128` —
//! wide enough that the paper observed zero false-positive edges, a claim
//! the `fpcheck` experiment reproduces (and the `fp_width` ablation breaks
//! on purpose by truncating).

pub mod batch;
pub mod params;
pub mod scan;

pub use batch::{
    batch_fingerprints, charge_fingerprint_kernel, fingerprint_rows_into, BatchOutput,
    FingerprintScheme,
};
pub use params::{HashParams, PlaceValues};
pub use scan::{RabinKarp, TILE};

/// A 128-bit fingerprint: hash under parameter set 0 in the high 64 bits,
/// hash under parameter set 1 in the low 64 bits.
pub type Fingerprint128 = u128;

/// Pack two 64-bit hashes into a [`Fingerprint128`].
pub fn pack(h0: u64, h1: u64) -> Fingerprint128 {
    ((h0 as u128) << 64) | h1 as u128
}

/// Keep only the `bits` most significant bits of a fingerprint (used by the
/// fingerprint-width ablation to emulate narrower hashes; `bits = 128` is
/// the identity).
pub fn truncate_bits(fp: Fingerprint128, bits: u32) -> Fingerprint128 {
    assert!((1..=128).contains(&bits), "bits must be in 1..=128");
    if bits == 128 {
        fp
    } else {
        fp >> (128 - bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_places_hashes_in_expected_halves() {
        let fp = pack(0xAAAA, 0xBBBB);
        assert_eq!((fp >> 64) as u64, 0xAAAA);
        assert_eq!(fp as u64, 0xBBBB);
    }

    #[test]
    fn truncate_keeps_high_bits() {
        let fp = pack(u64::MAX, 0);
        assert_eq!(truncate_bits(fp, 64), u64::MAX as u128);
        assert_eq!(truncate_bits(fp, 128), fp);
        assert_eq!(truncate_bits(fp, 1), 1);
    }

    #[test]
    #[should_panic(expected = "bits must be in 1..=128")]
    fn truncate_zero_bits_panics() {
        truncate_bits(1, 0);
    }
}
