//! # lc-hash — the H3 hardware hash family
//!
//! The paper's Parallel Bloom Filter uses hash functions from the **H3
//! family** of Ramakrishna, Fu and Bahcekapili, *"Efficient hardware hashing
//! functions for high performance computers"*, IEEE ToC 46(12), 1997. An H3
//! function over `b` input bits and `d` output bits is defined by a random
//! `b × d` Boolean matrix `Q`:
//!
//! ```text
//! H(x) = XOR over all bit positions i where x_i = 1 of row Q[i]
//! ```
//!
//! i.e. a GF(2)-linear map. In hardware this is a tree of XOR gates — one
//! reason the family is "hardware friendly" and the reason the paper can
//! compute `k` hashes per n-gram per clock. In software we evaluate it with
//! byte-sliced lookup tables (8 input bits at a time), which is both fast and
//! bit-exact with the gate-level definition; the AVX2 path uses 16-entry
//! nibble tables looked up in registers, 32 keys at a time ([`simd`]).
//!
//! The crate provides:
//!
//! * [`H3`] — a single H3 function with a fast byte-sliced evaluator and a
//!   bit-serial reference evaluator ([`H3::hash_bitserial`]) used to
//!   cross-check the tables in tests,
//! * [`H3Family`] — `k` independent H3 functions drawn deterministically from
//!   a seed (the paper programs one such family per Bloom filter),
//! * [`MultiplicativeHash`] — a classic Knuth multiplicative hash used as an
//!   ablation baseline (software-friendly, *not* hardware friendly),
//! * [`HashFunction`] — the trait both implement.
//!
//! H3 is GF(2)-linear: `H(x ^ y) == H(x) ^ H(y)` and `H(0) == 0`. Property
//! tests in this crate and downstream rely on this invariant.

// deny (not forbid) so the dedicated `simd` module can opt back in for its
// AVX2 intrinsics; everything else in the crate stays compiler-enforced safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod h3;
mod mult;
pub mod simd;

pub use h3::{FusedEvaluator, FusedEvaluatorK, H3Family, H3};
pub use mult::MultiplicativeHash;
pub use simd::{NibbleTables, SimdLevel};

/// A hash function from `u64` keys to bit-vector addresses in `[0, 1 << out_bits)`.
///
/// All hashes used by the Bloom-filter layer address a power-of-two sized
/// bit-vector, mirroring the paper's embedded-RAM address decoding: an
/// `m`-bit vector is addressed by exactly `log2(m)` hash output bits.
pub trait HashFunction {
    /// Number of output bits `d`; addresses are in `[0, 2^d)`.
    fn output_bits(&self) -> u32;

    /// Number of input bits `b` this function was constructed for. Key bits
    /// above `b` are ignored (they have zero rows in the matrix).
    fn input_bits(&self) -> u32;

    /// Hash a key to an address in `[0, 2^output_bits)`.
    fn hash(&self, key: u64) -> u32;
}

/// Maximum supported input width, in bits (a packed n-gram fits in `u64`).
pub const MAX_INPUT_BITS: u32 = 64;

/// Maximum supported output width, in bits (a 2^32-bit vector is far beyond
/// any embedded-RAM configuration in the paper).
pub const MAX_OUTPUT_BITS: u32 = 32;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_usable() {
        let h = H3::new(20, 14, 42);
        let dyn_h: &dyn HashFunction = &h;
        assert_eq!(dyn_h.output_bits(), 14);
        assert!(dyn_h.hash(0x12345) < (1 << 14));
    }
}
