//! Runtime SIMD dispatch and the AVX2 32-key H3 evaluator.
//!
//! The scalar hot path ([`crate::FusedEvaluatorK`]) folds one key at a time:
//! per input byte, one contiguous load of the `k` interleaved table entries.
//! The AVX2 evaluator keeps the whole hash in registers instead. H3 is
//! linear over GF(2), so a key's address is the XOR of one partial hash per
//! key nibble, and each partial hash takes one of only 16 values.
//! [`NibbleTables`] stores those 16 values, one address byte at a time, as
//! 16-byte tables — exactly what one `vpshufb` looks up. [`hash32`]
//! transposes 32 keys into byte planes, splits each plane into nibble
//! indices, and XORs one `vpshufb` per (function, nibble, address byte)
//! into the address bytes: no memory gathers. This is the split-nibble
//! technique of SIMD Galois-field multiplication (Plank, Greenan and Miller,
//! FAST 2013), and the software image of the paper's LUT-built XOR tree:
//! the hardware evaluates `k` hashes of one gram per cycle, the vector unit
//! evaluates `k` hashes of **32** grams per call.
//!
//! Dispatch is decided once per classifier via [`SimdLevel::detect`]
//! (`is_x86_feature_detected!("avx2")`, overridable with the
//! `LC_FORCE_SCALAR` environment variable) — never per call. Every consumer
//! keeps the scalar loop as the always-available fallback and the only path
//! on non-x86 targets.

#![allow(unsafe_code)]

use crate::H3Family;
use std::fmt;

/// Which evaluation path a classifier selected at construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// The portable scalar loops (always available, and the reference).
    Scalar,
    /// AVX2 evaluation (x86-64 with AVX2 detected at runtime).
    Avx2,
}

impl SimdLevel {
    /// Detect the best level for this process: AVX2 when the CPU reports it
    /// and `LC_FORCE_SCALAR` is not set (to a value other than `0`).
    /// The decision is cached — dispatch is chosen once, not per call.
    pub fn detect() -> Self {
        static LEVEL: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
        *LEVEL.get_or_init(|| {
            if Self::force_scalar_requested() {
                SimdLevel::Scalar
            } else if Self::cpu_has_avx2() {
                SimdLevel::Avx2
            } else {
                SimdLevel::Scalar
            }
        })
    }

    /// Whether the `LC_FORCE_SCALAR` environment variable requests the
    /// scalar path (set and not `"0"`).
    pub fn force_scalar_requested() -> bool {
        std::env::var_os("LC_FORCE_SCALAR").is_some_and(|v| v != "0")
    }

    /// Whether this CPU supports AVX2 (ignores `LC_FORCE_SCALAR`); always
    /// `false` off x86-64. Used by tests to force the vector path
    /// explicitly where `detect`'s cached env-honoring answer would hide it.
    pub fn cpu_has_avx2() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Wire/stats label: `"avx2"` or `"scalar"`.
    pub fn as_str(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A family's H3 matrices re-laid as 16-entry nibble tables for `vpshufb`:
/// `data[(i * n_addr_bytes + a) * n_nibbles + t][v]` is byte `a` of the XOR
/// of function `i`'s rows `4t..4t + 4` selected by the bits of `v`.
/// Function `i`'s address of a key is, byte by byte, the XOR of these
/// entries over the key's nibbles; each (function, address byte) run of
/// `n_nibbles` tables is contiguous, so that fold is one pass over it.
#[derive(Clone, Debug)]
pub struct NibbleTables {
    data: Vec<[u8; 16]>,
    k: usize,
    n_nibbles: usize,
    n_addr_bytes: usize,
    key_mask: u64,
}

impl NibbleTables {
    /// Number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Mask selecting the family's `input_bits` low key bits.
    pub fn key_mask(&self) -> u64 {
        self.key_mask
    }

    /// Whether the AVX2 evaluator can run this family: [`hash32`] takes
    /// `u32` keys (at most 8 nibbles) and the const-`K` dispatch stops at 8
    /// functions.
    pub fn avx2_eligible(&self) -> bool {
        self.key_mask <= u64::from(u32::MAX) && (1..=8).contains(&self.k)
    }

    /// The `n_nibbles` tables of function `i`'s address byte `a`.
    fn tables(&self, i: usize, a: usize) -> &[[u8; 16]] {
        let start = (i * self.n_addr_bytes + a) * self.n_nibbles;
        &self.data[start..start + self.n_nibbles]
    }

    /// Scalar reference evaluation straight off the nibble layout (tests pin
    /// it against the interleaved evaluators).
    pub fn hash_all_into(&self, key: u64, out: &mut [u32]) {
        assert_eq!(out.len(), self.k);
        let key = key & self.key_mask;
        for (i, acc) in out.iter_mut().enumerate() {
            *acc = 0;
            for a in 0..self.n_addr_bytes {
                for (t, table) in self.tables(i, a).iter().enumerate() {
                    let v = (key >> (4 * t) & 0xF) as usize;
                    *acc ^= u32::from(table[v]) << (8 * a);
                }
            }
        }
    }
}

impl H3Family {
    /// Build the `vpshufb` nibble-table image of this family from each
    /// function's matrix rows. An owned copy (`16 × k × n_nibbles ×
    /// n_addr_bytes` bytes, at most 4 KiB for eligible families): banks
    /// build it once per classifier.
    pub fn nibble_tables(&self) -> NibbleTables {
        let k = self.k();
        let n_nibbles = self.input_bits().div_ceil(4) as usize;
        let n_addr_bytes = self.output_bits().div_ceil(8) as usize;
        let mut data = Vec::with_capacity(k * n_nibbles * n_addr_bytes);
        for f in self.functions() {
            let rows = f.rows();
            // partials[t][v] = partials[t][v without its lowest set bit] ^
            // the row of that bit; bits past input_bits have no row.
            let mut partials = vec![[0u32; 16]; n_nibbles];
            for (t, partial) in partials.iter_mut().enumerate() {
                for v in 1..16usize {
                    let bit = 4 * t + v.trailing_zeros() as usize;
                    partial[v] = partial[v & (v - 1)] ^ rows.get(bit).copied().unwrap_or(0);
                }
            }
            for a in 0..n_addr_bytes {
                data.extend(partials.iter().map(|p| p.map(|x| (x >> (8 * a)) as u8)));
            }
        }
        let key_mask = if self.input_bits() == 64 {
            u64::MAX
        } else {
            (1u64 << self.input_bits()) - 1
        };
        NibbleTables {
            data,
            k,
            n_nibbles,
            n_addr_bytes,
            key_mask,
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub use avx2::hash32;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::NibbleTables;
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_broadcastsi128_si256, _mm256_loadu_si256,
        _mm256_packus_epi16, _mm256_packus_epi32, _mm256_set1_epi32, _mm256_set1_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_srli_epi32,
        _mm256_unpackhi_epi16, _mm256_unpackhi_epi8, _mm256_unpacklo_epi16, _mm256_unpacklo_epi8,
        _mm256_xor_si256, _mm_loadu_si128,
    };

    /// Evaluate all `K` functions on 32 keys at once into `out`: group `g`,
    /// vector `i`, lane `j` is `functions[i](keys[8 * g + j])` — four groups
    /// of `K` gather-ready address vectors, every function's address of a
    /// key in the same (group, lane). (An out-parameter, not a return
    /// value: the hot caller reuses one array instead of copying 4·K
    /// vectors per call.) Bit-exact with 32 scalar
    /// [`crate::FusedEvaluatorK`] evaluations.
    ///
    /// Keys are masked to the family's input width, transposed into byte
    /// planes (`vpsrld`/`vpand`/`vpackusdw`/`vpackuswb`; plane byte
    /// `16h + 4g + i` is key `8g + 4h + i`), and split into nibble indices.
    /// Each address byte is the XOR of one `vpshufb` per nibble, and the
    /// byte unpacks that widen the address bytes to 32-bit lanes undo the
    /// transpose's permutation.
    ///
    /// # Safety
    ///
    /// Requires AVX2 (callers hold a dispatch decision made via
    /// [`super::SimdLevel`]/`is_x86_feature_detected!`). The addresses are
    /// correct only when `K` equals `t.k()` and `t` is AVX2-eligible
    /// ([`NibbleTables::avx2_eligible`]); otherwise they are wrong or the
    /// table slicing panics, but no memory outside `keys`, `t` and `out`
    /// is read or written.
    #[target_feature(enable = "avx2")]
    #[inline]
    pub fn hash32<const K: usize>(t: &NibbleTables, keys: &[u32; 32], out: &mut [[__m256i; K]; 4]) {
        debug_assert_eq!(K, t.k);
        debug_assert!(t.avx2_eligible());
        // Keys are ≤ 32 bits by eligibility, so masking in u32 lanes is exact.
        let key_mask = _mm256_set1_epi32(t.key_mask as u32 as i32);
        let mut key_groups = [_mm256_setzero_si256(); 4];
        for (v, chunk) in key_groups.iter_mut().zip(keys.chunks_exact(8)) {
            // safety: each chunk is exactly 8 u32s = 32 bytes; loadu needs
            // no alignment.
            let loaded = unsafe { _mm256_loadu_si256(chunk.as_ptr().cast()) };
            *v = _mm256_and_si256(loaded, key_mask);
        }

        // Nibble planes: idx[2b] and idx[2b + 1] hold the low and high
        // nibble of key byte b, one key per byte position.
        let low_byte = _mm256_set1_epi32(0xFF);
        let low_nibble = _mm256_set1_epi8(0x0F);
        let mut idx = [_mm256_setzero_si256(); 8];
        for pair in idx.chunks_exact_mut(2).take(t.n_nibbles.div_ceil(2)) {
            let [g0, g1, g2, g3] = key_groups;
            let plane = _mm256_packus_epi16(
                _mm256_packus_epi32(
                    _mm256_and_si256(g0, low_byte),
                    _mm256_and_si256(g1, low_byte),
                ),
                _mm256_packus_epi32(
                    _mm256_and_si256(g2, low_byte),
                    _mm256_and_si256(g3, low_byte),
                ),
            );
            pair[0] = _mm256_and_si256(plane, low_nibble);
            pair[1] = _mm256_and_si256(_mm256_srli_epi16::<4>(plane), low_nibble);
            for v in &mut key_groups {
                *v = _mm256_srli_epi32::<8>(*v);
            }
        }

        let zero = _mm256_setzero_si256();
        for i in 0..K {
            // Address bytes 0..n_addr_bytes; the rest stay zero.
            let mut bytes = [zero; 4];
            for (a, byte) in bytes.iter_mut().enumerate().take(t.n_addr_bytes) {
                let mut acc = zero;
                for (&ix, table) in idx.iter().zip(t.tables(i, a)) {
                    // safety: table is exactly 16 bytes; loadu needs no
                    // alignment.
                    let lut = _mm256_broadcastsi128_si256(unsafe {
                        _mm_loadu_si128(table.as_ptr().cast())
                    });
                    acc = _mm256_xor_si256(acc, _mm256_shuffle_epi8(lut, ix));
                }
                *byte = acc;
            }
            let [b0, b1, b2, b3] = bytes;
            let (lo01, hi01) = (_mm256_unpacklo_epi8(b0, b1), _mm256_unpackhi_epi8(b0, b1));
            let (lo23, hi23) = (_mm256_unpacklo_epi8(b2, b3), _mm256_unpackhi_epi8(b2, b3));
            let widened = [
                _mm256_unpacklo_epi16(lo01, lo23),
                _mm256_unpackhi_epi16(lo01, lo23),
                _mm256_unpacklo_epi16(hi01, hi23),
                _mm256_unpackhi_epi16(hi01, hi23),
            ];
            for (group, v) in out.iter_mut().zip(widened) {
                group[i] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_is_stable_and_scalar_is_always_legal() {
        // Two calls agree (the decision is cached for the process) and the
        // reported label round-trips.
        let a = SimdLevel::detect();
        assert_eq!(a, SimdLevel::detect());
        assert!(matches!(a.as_str(), "scalar" | "avx2"));
        assert_eq!(format!("{a}"), a.as_str());
    }

    #[test]
    fn nibble_tables_match_interleaved_evaluators() {
        for (k, input_bits, output_bits, seed) in [
            (4usize, 20u32, 14u32, 1u64),
            (1, 8, 4, 2),
            (8, 32, 12, 3),
            (6, 30, 10, 4),
            (3, 5, 31, 5),
            (2, 17, 32, 6),
            (2, 64, 25, 7),
        ] {
            let fam = H3Family::new(k, input_bits, output_bits, seed);
            let t = fam.nibble_tables();
            assert_eq!(t.n_nibbles, input_bits.div_ceil(4) as usize);
            assert_eq!(t.n_addr_bytes, output_bits.div_ceil(8) as usize);
            let mut via_t = vec![0u32; k];
            let mut via_fused = vec![0u32; k];
            let keys = [
                0u64,
                1,
                0xF,
                0xFFFF_FFFF,
                0xDEAD_BEEF,
                0x1234_5678,
                u64::MAX,
            ];
            for key in keys {
                t.hash_all_into(key, &mut via_t);
                fam.hash_all_into(key, &mut via_fused);
                assert_eq!(via_t, via_fused, "k={k} b={input_bits} key={key:#x}");
            }
        }
    }

    #[test]
    fn wide_or_deep_families_are_not_avx2_eligible() {
        assert!(H3Family::new(4, 32, 14, 1).nibble_tables().avx2_eligible());
        let wide = H3Family::new(4, 40, 14, 1).nibble_tables();
        assert!(!wide.avx2_eligible(), "keys above u32 need the scalar path");
        let deep = H3Family::new(9, 20, 14, 1).nibble_tables();
        assert!(!deep.avx2_eligible(), "k > 8 is outside the const-K table");
    }

    /// Every function's address of every key equals the scalar fused
    /// evaluation, in the key's own (group, lane), across 1–8 nibbles,
    /// 1–4 address bytes and the const-`K` range.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hash32_matches_scalar_on_avx2_hardware() {
        use core::arch::x86_64::{_mm256_setzero_si256, _mm256_storeu_si256};
        if !SimdLevel::cpu_has_avx2() {
            return;
        }
        let mut seed = 0u64;
        for input_bits in [4u32, 5, 17, 20, 30, 32] {
            for output_bits in [4u32, 8, 9, 14, 16, 17, 24, 25, 31] {
                for k in [1usize, 3, 4, 6, 8] {
                    seed += 1;
                    let fam = H3Family::new(k, input_bits, output_bits, seed);
                    let t = fam.nibble_tables();
                    assert!(t.avx2_eligible());
                    let mut keys: [u32; 32] = std::array::from_fn(|j| {
                        0x9E37_79B9u32
                            .wrapping_mul(j as u32 + 1)
                            .wrapping_add(seed as u32)
                    });
                    keys[0] = 0;
                    keys[31] = u32::MAX;
                    // got[g][i][j]: group g, function i, lane j.
                    let mut got = [[[0u32; 8]; 8]; 4];
                    macro_rules! run {
                        ($kk:literal) => {{
                            // safety: avx2 presence checked above, K equals
                            // the family's k, and the family is eligible.
                            let groups = unsafe {
                                let mut groups = [[_mm256_setzero_si256(); $kk]; 4];
                                hash32::<$kk>(&t, &keys, &mut groups);
                                groups
                            };
                            for (g, vecs) in groups.iter().enumerate() {
                                for (i, v) in vecs.iter().enumerate() {
                                    // safety: each row is exactly 32 bytes;
                                    // storeu needs no alignment.
                                    unsafe {
                                        _mm256_storeu_si256(got[g][i].as_mut_ptr().cast(), *v)
                                    };
                                }
                            }
                        }};
                    }
                    match k {
                        1 => run!(1),
                        3 => run!(3),
                        4 => run!(4),
                        6 => run!(6),
                        8 => run!(8),
                        _ => unreachable!(),
                    }
                    let mut expect = vec![0u32; k];
                    for (key_idx, &key) in keys.iter().enumerate() {
                        fam.hash_all_into(u64::from(key), &mut expect);
                        let (g, j) = (key_idx / 8, key_idx % 8);
                        for (i, &e) in expect.iter().enumerate() {
                            assert_eq!(
                                got[g][i][j], e,
                                "in={input_bits} out={output_bits} k={k} fn={i} key#{key_idx}"
                            );
                        }
                    }
                }
            }
        }
    }
}
