//! The probe engine: one [`Probe`] per (mask width, `k`) drains a key
//! source through the bank's stored mask rows at either dispatch level.
//!
//! # Shape
//!
//! [`Probe`] is a [`KeyBlockSink`] monomorphized over the row element `W`
//! ([`MaskWord`]: `u8`/`u16`/`u32`/`u64`) and the compile-time `K`:
//!
//! * `key` — the scalar body: fused H3 of one key, `K` row loads, one
//!   AND-reduce, count.
//! * `block` — the AVX2 body for 32 keys of at most 32 bits: the
//!   nibble-table H3 evaluator ([`lc_hash::simd::hash32`]) computes all
//!   `K` hashes of the 32 keys in registers (one `vpshufb` per function,
//!   key nibble and address byte) and hands them back as four 8-lane
//!   groups. Per group, one [`MaskWord::gather`] per function pulls the 8
//!   masks (`vpgatherdd` at scale 1, 2 or 4, or two `vpgatherqq` halves
//!   for `u64`), the AND-reduce runs in registers, and a `vptest` skips
//!   the count for all-miss groups.
//!
//! Both bodies count through [`MaskWord::count`]: `u8`/`u16`/`u32` masks
//! index [`SPREAD8`] once per mask byte and add into packed byte counters
//! (one byte lane per language), drained into the `u64` counters every
//! [`FLUSH_AT`] keys; `u64` masks scatter-add. The dispatch level only
//! decides how the bank drains its source: AVX2 hands the probe to
//! [`crate::KeySource::for_each_key_block`], scalar calls `key` per key.
//!
//! Both levels read the same rows: the bank stores each row once, with
//! [`MaskWord::PAD`] zero entries after the last address so a 4-byte
//! gather there stays in bounds. Shapes without a probe (`k > 8`,
//! `p > 64`) run the bank's runtime-`k` loop, and
//! [`crate::FilterBank::simd_level`] reports `scalar` for them.
//!
//! # Equivalence
//!
//! Both bodies are pinned against each other and against the naive
//! per-language filters by `tests/bank_equivalence.rs` proptests across
//! all mask widths, tails not divisible by the block width, address widths
//! from 6 to 18 bits, and arbitrary chunkings.

#![allow(unsafe_code)]

use crate::bank::{scatter_add, KeyBlockSink, KEY_BLOCK_LANES};
use lc_hash::{FusedEvaluatorK, H3Family, NibbleTables, SimdLevel};
use std::ops::BitAndAssign;

#[cfg(target_arch = "x86_64")]
use core::arch::x86_64::{
    __m256i, _mm256_and_si256, _mm256_castsi256_si128, _mm256_extracti128_si256,
    _mm256_i32gather_epi32, _mm256_i32gather_epi64, _mm256_or_si256, _mm256_set1_epi32,
    _mm256_set1_epi64x, _mm256_setzero_si256, _mm256_storeu_si256, _mm256_testz_si256,
};

/// Drain the packed byte counters once this many keys are pending: each
/// byte lane grows by at most 1 per key and a block adds
/// [`KEY_BLOCK_LANES`] keys at once, so the most a lane can hold before a
/// drain is `FLUSH_AT - 1 + KEY_BLOCK_LANES` = 255 — no lane ever wraps.
const FLUSH_AT: u32 = 256 - KEY_BLOCK_LANES as u32;
const _: () = assert!(FLUSH_AT - 1 + KEY_BLOCK_LANES as u32 <= 255);

/// `SPREAD8[m]` has byte `j` equal to bit `j` of `m`: one table load turns
/// 8 language bits into eight 0/1 byte increments, so counting a mask byte
/// is a single 64-bit add — no per-set-bit branch loop.
pub(crate) static SPREAD8: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0usize;
    while m < 256 {
        let mut v = 0u64;
        let mut j = 0;
        while j < 8 {
            if m >> j & 1 == 1 {
                v |= 1u64 << (8 * j);
            }
            j += 1;
        }
        t[m] = v;
        m += 1;
    }
    t
};

/// A mask row element: language masks are stored at the narrowest width
/// that holds `p` bits.
pub(crate) trait MaskWord: Copy + Default + BitAndAssign + Into<u64> {
    /// Zero entries after a row's last address, so a 4-byte gather there
    /// reads inside the row (3 for `u8`, 1 for `u16`, none for wider).
    const PAD: usize = 4usize.saturating_sub(size_of::<Self>()) / size_of::<Self>();

    /// Packed byte counters: one [`SPREAD8`] word per mask byte, none for
    /// `u64` (too wide; it scatter-adds).
    type Packed: Copy + Default + AsRef<[u64]>;

    /// Set bit `j`.
    fn set_bit(&mut self, j: usize);

    /// Count one match mask: bit `j` set means language `j` matched.
    fn count(mask: u64, packed: &mut Self::Packed, counts: &mut [u64]);

    /// Gather the masks at the 8 addresses `addrs[i]` from each row
    /// `rows[i]` and AND-reduce them across the `K` rows; `None` when all
    /// eight results are zero.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and every lane of `addrs[i]` must be a
    /// non-negative index below `rows[i].len() - Self::PAD`.
    #[cfg(target_arch = "x86_64")]
    // safety: the contract above is the caller's to uphold.
    unsafe fn gather<const K: usize>(rows: &[&[Self]; K], addrs: &[__m256i; K])
        -> Option<[u64; 8]>;
}

/// `u8`/`u16`/`u32` rows: SPREAD8 packed counting, one `vpgatherdd` per row
/// at the element's scale, with the bytes read past the entry masked off.
macro_rules! packed_mask_word {
    ($t:ty, $bytes:literal, $scale:literal) => {
        impl MaskWord for $t {
            type Packed = [u64; $bytes];

            fn set_bit(&mut self, j: usize) {
                *self |= 1 << j;
            }

            #[inline]
            fn count(mask: u64, packed: &mut Self::Packed, _: &mut [u64]) {
                for (b, word) in packed.iter_mut().enumerate() {
                    *word = word.wrapping_add(SPREAD8[(mask >> (8 * b) & 0xFF) as usize]);
                }
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            #[inline]
            // safety: the trait's contract is the caller's to uphold.
            unsafe fn gather<const K: usize>(
                rows: &[&[Self]; K],
                addrs: &[__m256i; K],
            ) -> Option<[u64; 8]> {
                let mut m = _mm256_set1_epi32(<$t>::MAX as i32);
                for (row, &a) in rows.iter().zip(addrs) {
                    // safety: each lane is an index below len - PAD, so the
                    // 4-byte read at byte offset $scale·index ends inside
                    // the row; the tail bytes it picks up are masked off.
                    let v = unsafe { _mm256_i32gather_epi32::<$scale>(row.as_ptr().cast(), a) };
                    m = _mm256_and_si256(m, v);
                }
                if _mm256_testz_si256(m, m) != 0 {
                    return None;
                }
                let mut lanes = [0u32; 8];
                // safety: lanes is exactly 32 bytes; storeu needs no alignment.
                unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), m) };
                Some(lanes.map(u64::from))
            }
        }
    };
}
packed_mask_word!(u8, 1, 1);
packed_mask_word!(u16, 2, 2);
packed_mask_word!(u32, 4, 4);

impl MaskWord for u64 {
    type Packed = [u64; 0];

    fn set_bit(&mut self, j: usize) {
        *self |= 1 << j;
    }

    #[inline]
    fn count(mask: u64, _: &mut [u64; 0], counts: &mut [u64]) {
        scatter_add(mask, 0, counts);
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    #[inline]
    // safety: the trait's contract is the caller's to uphold.
    unsafe fn gather<const K: usize>(rows: &[&[u64]; K], addrs: &[__m256i; K]) -> Option<[u64; 8]> {
        let mut halves = [_mm256_set1_epi64x(-1); 2];
        for (row, &a) in rows.iter().zip(addrs) {
            let idx = [_mm256_castsi256_si128(a), _mm256_extracti128_si256::<1>(a)];
            for (h, idx) in halves.iter_mut().zip(idx) {
                // safety: each lane is an index below len (PAD is 0), and
                // an 8-byte read at byte offset 8·index is that one entry.
                let v = unsafe { _mm256_i32gather_epi64::<8>(row.as_ptr().cast(), idx) };
                *h = _mm256_and_si256(*h, v);
            }
        }
        let any = _mm256_or_si256(halves[0], halves[1]);
        if _mm256_testz_si256(any, any) != 0 {
            return None;
        }
        let mut out = [0u64; 8];
        for (o, h) in out.chunks_exact_mut(4).zip(halves) {
            // safety: o is exactly 32 bytes; storeu needs no alignment.
            unsafe { _mm256_storeu_si256(o.as_mut_ptr().cast(), h) };
        }
        Some(out)
    }
}

/// One drain of a key source through `K` mask rows of width `W`: scalar
/// keys through [`KeyBlockSink::key`], 32-key blocks through
/// [`KeyBlockSink::block`]. See the [module docs](self).
pub(crate) struct Probe<'a, W: MaskWord, const K: usize> {
    rows: [&'a [W]; K],
    eval: FusedEvaluatorK<'a, K>,
    /// The block path's hash tables; `Some` only on a CPU with AVX2
    /// (asserted in [`Probe::new`]). The bank drains blocks into a probe
    /// only when they are set.
    tables: Option<&'a NibbleTables>,
    /// `m - 1`: every gathered address is masked with it.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    addr_mask: i32,
    counts: &'a mut [u64],
    packed: W::Packed,
    pending: u32,
}

impl<'a, W: MaskWord, const K: usize> Probe<'a, W, K> {
    /// A probe of `rows` (one per function of `hashes`) counting into
    /// `counts`; `tables` enables the AVX2 block path. Call
    /// [`Self::flush`] when the source is drained.
    ///
    /// # Panics
    ///
    /// Panics unless there are `K` rows of at least `m + W::PAD` entries
    /// (`m = 2^output_bits`), and, when `tables` is given, unless it holds
    /// `K` AVX2-eligible functions, `m ≤ 2^31`, and the CPU has AVX2.
    pub(crate) fn new(
        rows: &'a [Box<[W]>],
        hashes: &'a H3Family,
        tables: Option<&'a NibbleTables>,
        counts: &'a mut [u64],
    ) -> Self {
        let m = 1usize << hashes.output_bits();
        assert!(
            rows.len() == K && rows.iter().all(|r| r.len() >= m + W::PAD),
            "a probe needs K rows of m + PAD entries"
        );
        if let Some(t) = tables {
            assert!(
                t.k() == K && t.avx2_eligible() && m <= 1 << 31 && SimdLevel::cpu_has_avx2(),
                "block path needs AVX2, K eligible functions and 31-bit addresses"
            );
        }
        Self {
            rows: std::array::from_fn(|i| &*rows[i]),
            eval: hashes.fused_evaluator_k::<K>(),
            tables,
            addr_mask: (m - 1) as i32,
            counts,
            packed: W::Packed::default(),
            pending: 0,
        }
    }

    /// Drain the packed byte counters into the `u64` counters: byte `j % 8`
    /// of word `j / 8` holds language `j`'s pending count.
    pub(crate) fn flush(&mut self) {
        let packed = self.packed;
        let lanes = 8 * packed.as_ref().len();
        for (j, c) in self.counts.iter_mut().enumerate().take(lanes) {
            *c += packed.as_ref()[j / 8] >> (8 * (j % 8)) & 0xFF;
        }
        self.packed = W::Packed::default();
        self.pending = 0;
    }

    #[inline]
    fn advance(&mut self, keys: u32) {
        self.pending += keys;
        if self.pending >= FLUSH_AT {
            self.flush();
        }
    }

    /// The AVX2 body: hash32, then per 8-lane group gather, AND, `vptest`
    /// skip, count.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn block_avx2(&mut self, tables: &NibbleTables, keys: &[u32; KEY_BLOCK_LANES]) {
        // `new` asserted that `tables` holds K AVX2-eligible functions.
        let mut groups = [[_mm256_setzero_si256(); K]; 4];
        lc_hash::simd::hash32::<K>(tables, keys, &mut groups);
        let addr_mask = _mm256_set1_epi32(self.addr_mask);
        for addrs in &mut groups {
            for a in addrs.iter_mut() {
                *a = _mm256_and_si256(*a, addr_mask);
            }
            // safety: AVX2 is enabled here, and every lane was just masked
            // to 0..m, below each row's m + PAD entries (asserted in `new`).
            if let Some(masks) = unsafe { W::gather(&self.rows, addrs) } {
                for mask in masks {
                    W::count(mask, &mut self.packed, self.counts);
                }
            }
        }
        self.advance(KEY_BLOCK_LANES as u32);
    }
}

impl<W: MaskWord, const K: usize> KeyBlockSink for Probe<'_, W, K> {
    #[inline]
    fn block(&mut self, keys: &[u32; KEY_BLOCK_LANES]) {
        let tables = self
            .tables
            .expect("blocks drain only into a probe with AVX2 tables");
        #[cfg(target_arch = "x86_64")]
        // safety: `new` asserted that this CPU has AVX2 whenever `tables`
        // is set; the feature cannot disappear at runtime.
        unsafe {
            self.block_avx2(tables, keys)
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = (tables, keys);
    }

    #[inline]
    fn key(&mut self, key: u64) {
        let addrs: [u32; K] = self.eval.hash_all_array(key);
        let mut mask = self.rows[0][addrs[0] as usize];
        for (row, &a) in self.rows[1..].iter().zip(&addrs[1..]) {
            mask &= row[a as usize];
        }
        W::count(mask.into(), &mut self.packed, self.counts);
        self.advance(1);
    }
}
