//! The bit-sliced filter bank: all languages' Bloom vectors fused so one
//! n-gram tests against **every** language with `k` loads and one AND.
//!
//! # Why
//!
//! In the paper's hardware, one n-gram register fans out to every language's
//! bit-vectors simultaneously: testing `p` languages costs the same cycle as
//! testing one. The naive software transcription
//! ([`crate::ParallelBloomFilter`] per language) inverts that shape — each
//! n-gram walks `p` filters × `k` vectors, a scattered random load (plus a
//! bounds check) per *(language, hash)* pair, `p·k` loads per n-gram.
//!
//! # Layout
//!
//! All language filters in a classifier share one [`H3Family`] (the hardware
//! replicates the hash circuits, not the randomness), so the `k` addresses of
//! an n-gram are the same for every language. The bank exploits that: for
//! each hash function `i` it stores ONE address-indexed row whose entry at
//! address `a` is a `p`-bit **language mask** — bit `j` set iff language
//! `j`'s vector-`i` bit at `a` is set.
//!
//! The rows are built once, in [`FilterBank::from_filters`], and are the
//! only stored form of the programmed filters inside the bank: both
//! dispatch levels read them. Entries use the narrowest power-of-two width
//! that holds `p` bits (`u8`/`u16`/`u32`/`u64`), which keeps the hot rows
//! small — the paper's 8-language configuration packs each mask into one
//! byte, small enough to stay cache-resident. Each row ends in a few zero
//! entries so a 4-byte vector gather at the last address stays in bounds.
//! The width is also the probe plan: narrow rows (`p ≤ 64`, `k ≤ 8`) run
//! the const-`K` [`Probe`]; `p > 64` (`ceil(p/64)` little-endian `u64`
//! words per entry) and `k > 8` run one runtime-`k` scalar loop.
//!
//! A membership test of one n-gram against all `p` languages becomes:
//!
//! 1. compute the `k` addresses once (fused H3 evaluation),
//! 2. load `k` masks — one load per hash function,
//! 3. AND-reduce them (languages whose every per-hash bit was set survive),
//! 4. count the surviving mask bits into per-language counters.
//!
//! That is `k` loads + one AND per n-gram instead of `p·k` loads — the same
//! fan-out the paper's datapath gets from wiring.
//!
//! # Invariants
//!
//! * Bit-for-bit equivalent to testing each [`crate::ParallelBloomFilter`]
//!   independently (property-tested for every mask width, any `p`, any
//!   input, at both dispatch levels).
//! * Addresses produced by the shared hash family are `< m` by construction
//!   (H3 output width equals the vector address width), so the hot path
//!   performs no per-language assertions.

use crate::params::BloomParams;
use crate::simd::{MaskWord, Probe};
use crate::ParallelBloomFilter;
use lc_hash::{H3Family, NibbleTables, SimdLevel};

/// Keys per block in [`KeySource::for_each_key_block`]: the 32 keys one
/// `vpshufb` nibble lookup hashes at once (one byte lane per key), probed
/// as four AVX2 registers of 32-bit addresses. Matches
/// `lc_ngram::BLOCK_LANES` (the extractor's block width) by design; the
/// classifier asserts the two agree.
pub const KEY_BLOCK_LANES: usize = 32;

/// A push-style source of query keys — the fused-path analogue of an
/// iterator. `for_each_key` hands every key to `sink` exactly once, in
/// order; the bank monomorphizes its probe loop around the call, so a
/// source that folds bytes through a shift register (n-gram extraction)
/// compiles into **one** loop with the `k` hash evaluations and mask loads
/// — no intermediate key buffer between extraction and probe.
///
/// Every `IntoIterator<Item = u64>` is a `KeySource` (the pre-extracted
/// path); state-machine sources implement the trait directly.
pub trait KeySource {
    /// Push every key into `sink`, in order.
    fn for_each_key(self, sink: impl FnMut(u64));

    /// Push the keys in [`KEY_BLOCK_LANES`]-wide blocks of 32-bit keys
    /// (each key masked by `key_mask`, which the caller guarantees fits
    /// `u32`), with any stragglers delivered singly via
    /// [`KeyBlockSink::key`]. Counts commute, so a source may freely mix
    /// blocks and single keys — the default packs the `for_each_key`
    /// stream; block-native sources (the blocked n-gram extractor)
    /// override it to hand over whole SIMD blocks with no repacking.
    fn for_each_key_block(self, key_mask: u64, sink: &mut impl KeyBlockSink)
    where
        Self: Sized,
    {
        let mut buf = [0u32; KEY_BLOCK_LANES];
        let mut filled = 0usize;
        self.for_each_key(|key| {
            buf[filled] = (key & key_mask) as u32;
            filled += 1;
            if filled == KEY_BLOCK_LANES {
                sink.block(&buf);
                filled = 0;
            }
        });
        for &key in &buf[..filled] {
            sink.key(u64::from(key));
        }
    }
}

/// Receiver for [`KeySource::for_each_key_block`]: whole blocks take the
/// vector path, stragglers (warm-up, chunk joins, tails shorter than a
/// block) take the scalar path. Both must produce identical counts —
/// pinned by the equivalence proptests.
pub trait KeyBlockSink {
    /// Probe a full block of [`KEY_BLOCK_LANES`] pre-masked 32-bit keys.
    fn block(&mut self, keys: &[u32; KEY_BLOCK_LANES]);

    /// Probe one key on the scalar path.
    fn key(&mut self, key: u64);
}

impl<I: IntoIterator<Item = u64>> KeySource for I {
    #[inline]
    fn for_each_key(self, mut sink: impl FnMut(u64)) {
        for key in self {
            sink(key);
        }
    }
}

/// The stored mask rows, one per hash function. The variant is the probe
/// plan, fixed when the bank is built.
#[derive(Clone, Debug)]
enum MaskRows {
    /// `p ≤ 8`, `k ≤ 8`: one byte per entry.
    W8(Vec<Box<[u8]>>),
    /// `p ≤ 16`, `k ≤ 8`.
    W16(Vec<Box<[u16]>>),
    /// `p ≤ 32`, `k ≤ 8`.
    W32(Vec<Box<[u32]>>),
    /// `p ≤ 64`, `k ≤ 8`.
    W64(Vec<Box<[u64]>>),
    /// `p > 64` or `k > 8` (beyond the const-`K` table; the paper's largest
    /// `k` is 6): `ceil(p/64)` words per entry, runtime-`k` scalar loop.
    Wide(Vec<Box<[u64]>>),
}

/// Bit-sliced multi-language Bloom engine. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct FilterBank {
    params: BloomParams,
    hashes: H3Family,
    /// Number of languages `p`.
    languages: usize,
    /// `ceil(p / 64)`: u64 words per language mask in the widened
    /// ([`Self::match_mask`]) representation.
    words_per_mask: usize,
    rows: MaskRows,
    /// The AVX2 hash tables, built when dispatch lands on AVX2 and the
    /// rows have a probe; `None` means every source drains key by key.
    simd: Option<NibbleTables>,
}

impl FilterBank {
    /// Transpose per-language [`ParallelBloomFilter`]s into the bit-sliced
    /// layout. The filters remain the canonical per-language representation;
    /// the bank is the derived query-optimized image.
    ///
    /// # Panics
    ///
    /// Panics if `filters` is empty, or the filters disagree on parameters or
    /// hash family (all languages must share one family, exactly as all
    /// hardware classifiers are fed by the same hash circuits).
    pub fn from_filters(filters: &[ParallelBloomFilter]) -> Self {
        assert!(!filters.is_empty(), "need at least one language filter");
        let params = filters[0].params();
        let hashes = filters[0].hashes().clone();
        for f in &filters[1..] {
            assert_eq!(f.params(), params, "filters disagree on Bloom parameters");
            assert_eq!(
                f.hashes(),
                &hashes,
                "filters must share one hash family (same seed) to be banked"
            );
        }
        let p = filters.len();
        let words_per_mask = p.div_ceil(64);
        let rows = if params.k > 8 || p > 64 {
            MaskRows::Wide(Self::build_rows(filters, params, words_per_mask))
        } else if p <= 8 {
            MaskRows::W8(Self::build_rows(filters, params, 1))
        } else if p <= 16 {
            MaskRows::W16(Self::build_rows(filters, params, 1))
        } else if p <= 32 {
            MaskRows::W32(Self::build_rows(filters, params, 1))
        } else {
            MaskRows::W64(Self::build_rows(filters, params, 1))
        };
        let mut bank = Self {
            params,
            hashes,
            languages: p,
            words_per_mask,
            rows,
            simd: None,
        };
        bank.set_simd_level(SimdLevel::detect());
        bank
    }

    /// Build the `k` rows at element width `W` (`wpm` elements per address;
    /// > 1 only for wide rows), each followed by `W::PAD` zero entries.
    fn build_rows<W: MaskWord>(
        filters: &[ParallelBloomFilter],
        params: BloomParams,
        wpm: usize,
    ) -> Vec<Box<[W]>> {
        let bits = 8 * size_of::<W>();
        (0..params.k)
            .map(|i| {
                let mut row = vec![W::default(); params.m_bits() * wpm + W::PAD];
                for (j, f) in filters.iter().enumerate() {
                    // Walk the language's set bits word-by-word instead of
                    // testing all m addresses: profiles are sparse.
                    for (w, &word) in f.vectors()[i].words().iter().enumerate() {
                        let mut word = word;
                        while word != 0 {
                            let a = w * 64 + word.trailing_zeros() as usize;
                            row[a * wpm + j / bits].set_bit(j % bits);
                            word &= word - 1;
                        }
                    }
                }
                row.into_boxed_slice()
            })
            .collect()
    }

    /// Bloom parameters shared by every banked language.
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Number of languages `p`.
    pub fn languages(&self) -> usize {
        self.languages
    }

    /// `u64` words per language mask (`ceil(p / 64)`) in the widened
    /// representation returned by [`Self::match_mask`].
    pub fn words_per_mask(&self) -> usize {
        self.words_per_mask
    }

    /// Storage bits per (hash, address) mask entry (8/16/32 for narrow
    /// banks, `64 × words_per_mask` otherwise).
    pub fn mask_entry_bits(&self) -> usize {
        match &self.rows {
            MaskRows::W8(_) => 8,
            MaskRows::W16(_) => 16,
            MaskRows::W32(_) => 32,
            MaskRows::W64(_) | MaskRows::Wide(_) => 64 * self.words_per_mask,
        }
    }

    /// The shared hash family.
    pub fn hashes(&self) -> &H3Family {
        &self.hashes
    }

    /// Choose the probe path. `Avx2` builds the block path's hash tables
    /// when the CPU and the bank shape allow it (silently staying scalar
    /// otherwise); `Scalar` drops them. Called once at construction with
    /// the process-wide [`SimdLevel::detect`] choice; tests and the
    /// `--force-scalar` plumbing call it explicitly for live A/B.
    pub fn set_simd_level(&mut self, level: SimdLevel) {
        let has_probe = !matches!(self.rows, MaskRows::Wide(_));
        // Gather indices are signed 32-bit lanes.
        let vector = level == SimdLevel::Avx2
            && has_probe
            && self.params.address_bits <= 31
            && SimdLevel::cpu_has_avx2();
        self.simd = vector
            .then(|| self.hashes.nibble_tables())
            .filter(NibbleTables::avx2_eligible);
    }

    /// The probe path dispatch **actually** selected — `Avx2` only when the
    /// block path is live, `Scalar` when the CPU, the environment
    /// (`LC_FORCE_SCALAR`) or the bank shape kept the scalar loops.
    pub fn simd_level(&self) -> SimdLevel {
        if self.simd.is_some() {
            SimdLevel::Avx2
        } else {
            SimdLevel::Scalar
        }
    }

    /// Total bank memory in bits (`k × m × mask_entry_bits`).
    pub fn memory_bits(&self) -> usize {
        self.params.k * self.params.m_bits() * self.mask_entry_bits()
    }

    /// Match mask for one key: word `w`, bit `b` set iff language `64w + b`
    /// matches. Convenience wrapper (allocates); hot paths use
    /// [`Self::accumulate_keys`].
    pub fn match_mask(&self, key: u64) -> Vec<u64> {
        fn and_rows<W: MaskWord>(rows: &[Box<[W]>], addrs: &[u32]) -> Vec<u64> {
            let mask = rows.iter().zip(addrs);
            vec![mask.fold(u64::MAX, |m, (row, &a)| m & row[a as usize].into())]
        }
        let addrs = self.hashes.hash_all(key);
        match &self.rows {
            MaskRows::W8(r) => and_rows(r, &addrs),
            MaskRows::W16(r) => and_rows(r, &addrs),
            MaskRows::W32(r) => and_rows(r, &addrs),
            MaskRows::W64(r) => and_rows(r, &addrs),
            MaskRows::Wide(r) => {
                let mut mask = vec![0u64; self.words_per_mask];
                Self::and_reduce(r, self.words_per_mask, &addrs, &mut mask);
                mask
            }
        }
    }

    /// Test one key against every language, returning matching indices.
    pub fn matching_languages(&self, key: u64) -> Vec<usize> {
        let mask = self.match_mask(key);
        let mut out = Vec::new();
        for (w, &word) in mask.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                out.push(w * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        out
    }

    /// The classify hot loop: for every key, increment `counts[j]` for each
    /// matching language `j`. Exactly equivalent to testing each language's
    /// filter independently, but `k` loads + one AND-reduce per key.
    /// Convenience wrapper over [`Self::accumulate_source`] for
    /// pre-extracted key streams.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != self.languages()`.
    pub fn accumulate_keys<I: IntoIterator<Item = u64>>(&self, keys: I, counts: &mut [u64]) {
        self.accumulate_source(keys, counts);
    }

    /// The fused probe entry: drain `src` through the bank, incrementing
    /// `counts[j]` for each key matching language `j`. Dispatches **once**
    /// per batch to a [`Probe`] monomorphized over the row width and the
    /// compile-time `k` (or, for wide rows, the runtime-`k` loop) — the
    /// source's per-key state machine (e.g. the n-gram shift register)
    /// inlines into that loop, so extraction and probe fuse into one pass
    /// with no intermediate key buffer.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len() != self.languages()`.
    pub fn accumulate_source<S: KeySource>(&self, src: S, counts: &mut [u64]) {
        assert_eq!(
            counts.len(),
            self.languages,
            "one counter per banked language"
        );
        match &self.rows {
            MaskRows::W8(r) => self.probe(r, src, counts),
            MaskRows::W16(r) => self.probe(r, src, counts),
            MaskRows::W32(r) => self.probe(r, src, counts),
            MaskRows::W64(r) => self.probe(r, src, counts),
            MaskRows::Wide(r) => self.accumulate_wide(r, src, counts),
        }
    }

    /// The const-`K` table: fix `k` at compile time so the fused hash
    /// unrolls and the `k` row loads issue back-to-back.
    fn probe<W: MaskWord, S: KeySource>(&self, rows: &[Box<[W]>], src: S, counts: &mut [u64]) {
        match self.params.k {
            1 => self.drain::<W, 1, S>(rows, src, counts),
            2 => self.drain::<W, 2, S>(rows, src, counts),
            3 => self.drain::<W, 3, S>(rows, src, counts),
            4 => self.drain::<W, 4, S>(rows, src, counts),
            5 => self.drain::<W, 5, S>(rows, src, counts),
            6 => self.drain::<W, 6, S>(rows, src, counts),
            7 => self.drain::<W, 7, S>(rows, src, counts),
            8 => self.drain::<W, 8, S>(rows, src, counts),
            k => unreachable!("from_filters stores k = {k} > 8 as wide rows"),
        }
    }

    /// Drain `src` through one [`Probe`]. The dispatch level only picks how
    /// the source is drained: AVX2 in 32-key blocks, scalar key by key.
    fn drain<W: MaskWord, const K: usize, S: KeySource>(
        &self,
        rows: &[Box<[W]>],
        src: S,
        counts: &mut [u64],
    ) {
        let tables = self.simd.as_ref();
        let mut probe = Probe::<W, K>::new(rows, &self.hashes, tables, counts);
        match tables {
            Some(t) => src.for_each_key_block(t.key_mask(), &mut probe),
            None => src.for_each_key(|key| probe.key(key)),
        }
        probe.flush();
    }

    /// The one fallback, for wide rows (`p > 64` or `k > 8`): runtime `k`,
    /// `words_per_mask` words per entry (`1` for `k > 8`, `p ≤ 64`).
    fn accumulate_wide<S: KeySource>(&self, rows: &[Box<[u64]>], src: S, counts: &mut [u64]) {
        let wpm = self.words_per_mask;
        let mut addrs = vec![0u32; self.params.k];
        let mut mask = vec![0u64; wpm];
        let hashes = self.hashes.fused_evaluator();
        src.for_each_key(|key| {
            hashes.hash_all_into(key, &mut addrs);
            if Self::and_reduce(rows, wpm, &addrs, &mut mask) {
                for (w, &word) in mask.iter().enumerate() {
                    scatter_add(word, w * 64, counts);
                }
            }
        });
    }

    /// AND-reduce the `k` per-hash multi-word masks at `addrs` into `mask`;
    /// returns whether any language survived.
    #[inline]
    fn and_reduce(rows: &[Box<[u64]>], wpm: usize, addrs: &[u32], mask: &mut [u64]) -> bool {
        debug_assert_eq!(mask.len(), wpm);
        let base = addrs[0] as usize * wpm;
        mask.copy_from_slice(&rows[0][base..base + wpm]);
        let mut alive = mask.iter().any(|&w| w != 0);
        for (i, &addr) in addrs.iter().enumerate().skip(1) {
            if !alive {
                break;
            }
            let base = addr as usize * wpm;
            alive = false;
            for (m, &s) in mask.iter_mut().zip(&rows[i][base..base + wpm]) {
                *m &= s;
                alive |= *m != 0;
            }
        }
        alive
    }
}

/// Scatter-add one mask word's set bits into the counters: bit `b` of
/// `mask` increments `counts[bit_base + b]`. The count-on-match semantics
/// for masks too wide for packed byte counters.
#[inline]
pub(crate) fn scatter_add(mask: u64, bit_base: usize, counts: &mut [u64]) {
    let mut mask = mask;
    while mask != 0 {
        counts[bit_base + mask.trailing_zeros() as usize] += 1;
        mask &= mask - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BloomParams;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Build `p` filters over a shared hash family, each programmed with its
    /// own random keys, plus the bank transposed from them.
    fn bank_fixture(
        p: usize,
        params: BloomParams,
        keys_per_lang: usize,
        seed: u64,
    ) -> (Vec<ParallelBloomFilter>, FilterBank) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let filters: Vec<ParallelBloomFilter> = (0..p)
            .map(|_| {
                let mut f = ParallelBloomFilter::new(params, 20, seed);
                f.program_all((0..keys_per_lang).map(|_| rng.gen::<u64>() & 0xF_FFFF));
                f
            })
            .collect();
        let bank = FilterBank::from_filters(&filters);
        (filters, bank)
    }

    fn naive_counts(filters: &[ParallelBloomFilter], keys: &[u64]) -> Vec<u64> {
        let k = filters[0].params().k;
        let mut addrs = vec![0u32; k];
        let mut counts = vec![0u64; filters.len()];
        for &key in keys {
            filters[0].addresses_into(key, &mut addrs);
            for (c, f) in counts.iter_mut().zip(filters) {
                if f.test_with_addresses(&addrs) {
                    *c += 1;
                }
            }
        }
        counts
    }

    #[test]
    fn shape_accessors() {
        let (_, bank) = bank_fixture(8, BloomParams::PAPER_CONSERVATIVE, 100, 1);
        assert_eq!(bank.languages(), 8);
        assert_eq!(bank.words_per_mask(), 1);
        assert_eq!(bank.params(), BloomParams::PAPER_CONSERVATIVE);
        // 8 languages pack into one byte per (hash, address) entry.
        assert_eq!(bank.mask_entry_bits(), 8);
        assert_eq!(bank.memory_bits(), 4 * 16384 * 8);

        // Each width boundary picks the narrowest fitting storage.
        let cases = [(1, 8), (9, 16), (16, 16), (17, 32), (33, 64), (64, 64)];
        for (p, bits) in cases {
            let (_, b) = bank_fixture(p, BloomParams::from_kbits(4, 2), 5, 2);
            assert_eq!(b.mask_entry_bits(), bits, "p = {p}");
        }

        let (_, wide) = bank_fixture(65, BloomParams::from_kbits(4, 2), 10, 2);
        assert_eq!(wide.words_per_mask(), 2);
        assert_eq!(wide.mask_entry_bits(), 128);
    }

    #[test]
    fn empty_bank_matches_nothing() {
        let filters = vec![ParallelBloomFilter::new(BloomParams::from_kbits(4, 3), 20, 5); 4];
        let bank = FilterBank::from_filters(&filters);
        for key in 0..1000u64 {
            assert!(bank.matching_languages(key).is_empty());
        }
    }

    #[test]
    fn programmed_keys_match_their_language() {
        let params = BloomParams::PAPER_CONSERVATIVE;
        let mut filters: Vec<ParallelBloomFilter> = (0..5)
            .map(|_| ParallelBloomFilter::new(params, 20, 9))
            .collect();
        for (j, f) in filters.iter_mut().enumerate() {
            f.program_all((0..200u64).map(|i| (i * 5 + j as u64 * 7919) & 0xF_FFFF));
        }
        let bank = FilterBank::from_filters(&filters);
        for (j, f) in filters.iter().enumerate() {
            for i in 0..200u64 {
                let key = (i * 5 + j as u64 * 7919) & 0xF_FFFF;
                assert!(f.test(key));
                assert!(
                    bank.matching_languages(key).contains(&j),
                    "bank lost language {j} for key {key:#x}"
                );
            }
        }
    }

    #[test]
    fn flush_boundary_is_exact_at_both_levels() {
        // The packed byte counters drain every 224 keys (256 minus the
        // 32-key block). Streams crossing a block boundary or that point,
        // ending on it, or filling a lane to 255, must equal the naive walk
        // for u8, u16 and u32 rows at both dispatch levels. Keys programmed
        // into every language bump every byte lane on each key, so a late
        // drain would wrap a lane; random keys give partial matches.
        let params = BloomParams::new(4, 10);
        let mut rng = SmallRng::seed_from_u64(99);
        let shared: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() & 0xF_FFFF).collect();
        for p in [8usize, 12, 16, 17, 20, 32] {
            let (mut filters, _) = bank_fixture(p, params, 200, 7 + p as u64);
            for f in &mut filters {
                f.program_all(shared.iter().copied());
            }
            let mut bank = FilterBank::from_filters(&filters);
            for n in [
                31usize, 32, 33, 223, 224, 225, 255, 256, 257, 448, 449, 1021,
            ] {
                let all_match: Vec<u64> = (0..n).map(|i| shared[i % shared.len()]).collect();
                let random: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() & 0xF_FFFF).collect();
                for keys in [all_match, random] {
                    let naive = naive_counts(&filters, &keys);
                    for level in [SimdLevel::Scalar, SimdLevel::detect()] {
                        bank.set_simd_level(level);
                        let mut banked = vec![0u64; p];
                        bank.accumulate_keys(keys.iter().copied(), &mut banked);
                        assert_eq!(banked, naive, "p = {p}, n = {n}, {level}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "share one hash family")]
    fn mismatched_seeds_rejected() {
        let a = ParallelBloomFilter::new(BloomParams::from_kbits(4, 2), 20, 1);
        let b = ParallelBloomFilter::new(BloomParams::from_kbits(4, 2), 20, 2);
        let _ = FilterBank::from_filters(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "disagree on Bloom parameters")]
    fn mismatched_params_rejected() {
        // Same seed stream, different vector sizes.
        let a = ParallelBloomFilter::new(BloomParams::from_kbits(4, 2), 20, 1);
        let b = ParallelBloomFilter::new(BloomParams::from_kbits(8, 2), 20, 1);
        let _ = FilterBank::from_filters(&[a, b]);
    }

    #[test]
    #[should_panic(expected = "at least one language")]
    fn empty_filter_list_rejected() {
        let _ = FilterBank::from_filters(&[]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Banked accumulation must equal the naive per-language loop for
        /// any p — every mask width (u8/u16/u32/u64) and the multi-word
        /// boundary (p > 64) — k on both sides of the const-K table, any key
        /// set, and any query set.
        #[test]
        fn banked_counts_equal_naive(
            p in prop_p(), seed in any::<u64>(),
            queries in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            // Small vectors (m = 256) so collisions and partial matches are
            // common — the interesting regime for equivalence. k = 9 takes
            // the runtime-k loop at every p.
            for k in [3, 9] {
                let (filters, bank) = bank_fixture(p, BloomParams::new(k, 8), 60, seed);
                let mut banked = vec![0u64; p];
                bank.accumulate_keys(queries.iter().copied(), &mut banked);
                prop_assert_eq!(banked, naive_counts(&filters, &queries), "k = {}", k);
            }
        }

        /// A push-style KeySource (the fused extraction shape) accumulates
        /// identically to the pre-extracted iterator path for every mask
        /// width — the probe loop must not care where keys come from.
        #[test]
        fn source_and_iterator_paths_agree(
            p in prop_p(), seed in any::<u64>(),
            queries in proptest::collection::vec(any::<u64>(), 0..200),
        ) {
            struct Pushed<'a>(&'a [u64]);
            impl KeySource for Pushed<'_> {
                fn for_each_key(self, mut sink: impl FnMut(u64)) {
                    for &k in self.0 {
                        sink(k);
                    }
                }
            }
            let params = BloomParams::new(3, 8);
            let (_, bank) = bank_fixture(p, params, 60, seed);
            let mut via_iter = vec![0u64; p];
            bank.accumulate_keys(queries.iter().copied(), &mut via_iter);
            let mut via_source = vec![0u64; p];
            bank.accumulate_source(Pushed(&queries), &mut via_source);
            prop_assert_eq!(via_iter, via_source);
        }

        /// match_mask agrees with per-language test_with_addresses bit by bit.
        #[test]
        fn match_mask_is_exact(p in prop_p(), seed in any::<u64>(), key in any::<u64>()) {
            let params = BloomParams::new(2, 8);
            let (filters, bank) = bank_fixture(p, params, 80, seed);
            let mask = bank.match_mask(key);
            let mut addrs = vec![0u32; params.k];
            filters[0].addresses_into(key, &mut addrs);
            for (j, f) in filters.iter().enumerate() {
                let expect = f.test_with_addresses(&addrs);
                let got = mask[j / 64] >> (j % 64) & 1 == 1;
                prop_assert_eq!(got, expect, "language {} of {}", j, p);
            }
        }
    }

    /// Language counts that exercise every mask representation: u8 (1, 8),
    /// u16 (12), u32 (20), single-word u64 (33, 64), and multi-word
    /// (65..=100).
    fn prop_p() -> impl Strategy<Value = usize> {
        PChoices
    }

    #[derive(Clone, Copy, Debug)]
    struct PChoices;

    impl Strategy for PChoices {
        type Value = usize;

        fn sample(&self, rng: &mut proptest::TestRng) -> usize {
            match rng.next_u64() % 7 {
                0 => 1,
                1 => 8,
                2 => 12,
                3 => 20,
                4 => 33,
                5 => 64,
                _ => 65 + (rng.next_u64() % 36) as usize, // 65..=100
            }
        }
    }
}
