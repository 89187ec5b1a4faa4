//! H3 matrix hash: construction, byte-sliced evaluation, and the bit-serial
//! reference evaluator.

use crate::{HashFunction, MAX_INPUT_BITS, MAX_OUTPUT_BITS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A single H3 hash function: a random `b × d` Boolean matrix over GF(2).
///
/// The hash of a key is the XOR of the matrix rows selected by the key's set
/// bits. Evaluation uses byte-sliced tables: for each of the (up to 8) input
/// bytes we precompute the XOR-fold of all 256 bit combinations, so a hash is
/// at most 8 table lookups and 7 XORs — the software analogue of the paper's
/// single-cycle XOR tree.
#[derive(Clone, Debug)]
pub struct H3 {
    input_bits: u32,
    output_bits: u32,
    /// Row `i` is the d-bit value XORed into the result when key bit `i` is set.
    rows: Vec<u32>,
    /// `tables[byte_idx][byte_value]` = XOR of rows `8*byte_idx + j` for each
    /// set bit `j` of `byte_value`.
    tables: Vec<[u32; 256]>,
}

impl H3 {
    /// Construct an H3 function over `input_bits`-bit keys producing
    /// `output_bits`-bit addresses, with matrix rows drawn from a
    /// deterministic RNG seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `input_bits` is 0 or exceeds [`MAX_INPUT_BITS`], or if
    /// `output_bits` is 0 or exceeds [`MAX_OUTPUT_BITS`].
    pub fn new(input_bits: u32, output_bits: u32, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        Self::from_rng(input_bits, output_bits, &mut rng)
    }

    /// Construct with rows drawn from the provided RNG. Used by
    /// [`H3Family`] so that each member consumes a disjoint stream.
    pub fn from_rng<R: Rng>(input_bits: u32, output_bits: u32, rng: &mut R) -> Self {
        assert!(
            (1..=MAX_INPUT_BITS).contains(&input_bits),
            "input_bits must be in 1..=64, got {input_bits}"
        );
        assert!(
            (1..=MAX_OUTPUT_BITS).contains(&output_bits),
            "output_bits must be in 1..=32, got {output_bits}"
        );
        let mask = if output_bits == 32 {
            u32::MAX
        } else {
            (1u32 << output_bits) - 1
        };
        let rows: Vec<u32> = (0..input_bits).map(|_| rng.gen::<u32>() & mask).collect();
        let tables = Self::build_tables(&rows, input_bits);
        Self {
            input_bits,
            output_bits,
            rows,
            tables,
        }
    }

    /// Construct from explicit matrix rows (row `i` applies to key bit `i`).
    /// Rows must already fit in `output_bits`. Exposed for tests and for
    /// reproducing a specific hardware configuration bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, longer than [`MAX_INPUT_BITS`], or any row
    /// has bits set above `output_bits`.
    pub fn from_rows(rows: Vec<u32>, output_bits: u32) -> Self {
        assert!(!rows.is_empty() && rows.len() as u32 <= MAX_INPUT_BITS);
        assert!((1..=MAX_OUTPUT_BITS).contains(&output_bits));
        let mask = if output_bits == 32 {
            u32::MAX
        } else {
            (1u32 << output_bits) - 1
        };
        assert!(
            rows.iter().all(|&r| r & !mask == 0),
            "row has bits above output_bits"
        );
        let input_bits = rows.len() as u32;
        let tables = Self::build_tables(&rows, input_bits);
        Self {
            input_bits,
            output_bits,
            rows,
            tables,
        }
    }

    fn build_tables(rows: &[u32], input_bits: u32) -> Vec<[u32; 256]> {
        let n_bytes = input_bits.div_ceil(8) as usize;
        let mut tables = vec![[0u32; 256]; n_bytes];
        for (byte_idx, table) in tables.iter_mut().enumerate() {
            // Incremental construction: table[v] = table[v without lowest set
            // bit] ^ row[lowest set bit]. table[0] = 0.
            for v in 1usize..256 {
                let low = v.trailing_zeros() as usize;
                let bit = 8 * byte_idx + low;
                let row = if (bit as u32) < input_bits {
                    rows[bit]
                } else {
                    0
                };
                table[v] = table[v & (v - 1)] ^ row;
            }
        }
        tables
    }

    /// Bit-serial reference evaluation, structured exactly like the hardware
    /// definition (one XOR per set input bit). Used to validate the
    /// byte-sliced tables; prefer [`HashFunction::hash`] for speed.
    pub fn hash_bitserial(&self, key: u64) -> u32 {
        let mut acc = 0u32;
        let mut k = key & self.key_mask();
        while k != 0 {
            let bit = k.trailing_zeros();
            acc ^= self.rows[bit as usize];
            k &= k - 1;
        }
        acc
    }

    /// The matrix rows (row `i` applies to key bit `i`).
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    #[inline]
    fn key_mask(&self) -> u64 {
        if self.input_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.input_bits) - 1
        }
    }
}

impl HashFunction for H3 {
    fn output_bits(&self) -> u32 {
        self.output_bits
    }

    fn input_bits(&self) -> u32 {
        self.input_bits
    }

    #[inline]
    fn hash(&self, key: u64) -> u32 {
        let key = key & self.key_mask();
        let mut acc = 0u32;
        for (i, table) in self.tables.iter().enumerate() {
            let byte = ((key >> (8 * i)) & 0xFF) as usize;
            acc ^= table[byte];
        }
        acc
    }
}

/// A family of `k` independent H3 hash functions drawn from one seed.
///
/// The paper's Parallel Bloom Filter uses `k` hash functions, each addressing
/// its own bit-vector; this type is the software image of that bank of XOR
/// trees. Each Bloom filter instance (one per language) gets its own family,
/// seeded deterministically so classification runs are reproducible.
///
/// Besides the per-function evaluators the family keeps a **fused** table
/// layout: the `k` byte-sliced tables interleaved so that all `k` entries for
/// one input byte value sit in one contiguous run. [`Self::hash_all_into`]
/// walks the key's bytes **once**, XOR-folding `k` accumulators per byte —
/// the software image of the hardware's `k` XOR trees all fed by the same
/// n-gram register in the same cycle — instead of re-walking the key per
/// function.
///
/// The fused table is built lazily on first k-way evaluation: every
/// per-language filter in a classifier carries an identically-seeded family,
/// but only the filter bank's copy runs the fused hot path, so eager
/// construction would duplicate the table `p` times for nothing.
#[derive(Clone, Debug)]
pub struct H3Family {
    functions: Vec<H3>,
    /// Interleaved tables, built on first use:
    /// `fused[(byte_idx * 256 + byte_value) * k + i]` is
    /// `functions[i].tables[byte_idx][byte_value]`.
    fused: std::sync::OnceLock<Vec<u32>>,
    /// Number of key bytes covered (`ceil(input_bits / 8)`).
    n_bytes: usize,
    key_mask: u64,
}

impl H3Family {
    /// Create `k` independent functions over `input_bits`-bit keys producing
    /// `output_bits`-bit addresses, from a single `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the width constraints of [`H3::new`] are violated.
    pub fn new(k: usize, input_bits: u32, output_bits: u32, seed: u64) -> Self {
        assert!(k > 0, "a hash family needs at least one function");
        let mut rng = SmallRng::seed_from_u64(seed);
        let functions: Vec<H3> = (0..k)
            .map(|_| H3::from_rng(input_bits, output_bits, &mut rng))
            .collect();
        Self::from_functions(functions)
    }

    fn from_functions(functions: Vec<H3>) -> Self {
        let n_bytes = (functions[0].input_bits().div_ceil(8)) as usize;
        let key_mask = functions[0].key_mask();
        Self {
            functions,
            fused: std::sync::OnceLock::new(),
            n_bytes,
            key_mask,
        }
    }

    /// The interleaved fused table, built on first use.
    #[inline]
    fn fused(&self) -> &[u32] {
        self.fused.get_or_init(|| {
            let k = self.functions.len();
            let mut fused = vec![0u32; self.n_bytes * 256 * k];
            for (i, f) in self.functions.iter().enumerate() {
                for (byte_idx, table) in f.tables.iter().enumerate() {
                    for (v, &entry) in table.iter().enumerate() {
                        fused[(byte_idx * 256 + v) * k + i] = entry;
                    }
                }
            }
            fused
        })
    }

    /// Number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.functions.len()
    }

    /// Number of key bits every member consumes (they all share one width).
    pub fn input_bits(&self) -> u32 {
        self.functions[0].input_bits()
    }

    /// Number of address bits every member produces.
    pub fn output_bits(&self) -> u32 {
        self.functions[0].output_bits()
    }

    /// The individual functions.
    pub fn functions(&self) -> &[H3] {
        &self.functions
    }

    /// Evaluate all `k` functions on `key` in one fused pass over the key's
    /// bytes, writing addresses into `out`. Bit-exact with calling
    /// [`Self::hash_one`] `k` times, but touches each input byte once and
    /// reads its `k` table entries from one contiguous run.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.k()`.
    #[inline]
    pub fn hash_all_into(&self, key: u64, out: &mut [u32]) {
        self.fused_evaluator().hash_all_into(key, out);
    }

    /// Evaluate all `k` functions, allocating the result vector. Convenience
    /// wrapper over [`Self::hash_all_into`].
    pub fn hash_all(&self, key: u64) -> Vec<u32> {
        let mut out = vec![0u32; self.functions.len()];
        self.hash_all_into(key, &mut out);
        out
    }

    /// Evaluate function `i` on `key`.
    #[inline]
    pub fn hash_one(&self, i: usize, key: u64) -> u32 {
        self.functions[i].hash(key)
    }

    /// Fused evaluation with the family size `K` known at compile time.
    /// Convenience wrapper over [`Self::fused_evaluator`]; batch loops
    /// should hold the evaluator instead so the lazy-init check runs once
    /// per batch, not per key.
    ///
    /// # Panics
    ///
    /// Panics if `K != self.k()`.
    #[inline]
    pub fn hash_all_array<const K: usize>(&self, key: u64) -> [u32; K] {
        self.fused_evaluator().hash_all_array::<K>(key)
    }

    /// Resolve the (lazily built) fused table into a view that evaluates
    /// keys with no per-call initialization check — the handle hot loops
    /// hold for a whole batch.
    #[inline]
    pub fn fused_evaluator(&self) -> FusedEvaluator<'_> {
        FusedEvaluator {
            fused: self.fused(),
            n_bytes: self.n_bytes,
            key_mask: self.key_mask,
            k: self.functions.len(),
        }
    }

    /// Resolve the fused table into a **compile-time-`K`** view: the
    /// `K == k` check runs once here instead of on every key, so a fused
    /// extraction→probe loop evaluates all `K` hashes of a raw `u64`
    /// shift-register state with zero per-key setup or assertions.
    ///
    /// # Panics
    ///
    /// Panics if `K != self.k()`.
    #[inline]
    pub fn fused_evaluator_k<const K: usize>(&self) -> FusedEvaluatorK<'_, K> {
        assert_eq!(K, self.functions.len(), "const K must equal the family k");
        FusedEvaluatorK {
            fused: self.fused(),
            n_bytes: self.n_bytes,
            key_mask: self.key_mask,
        }
    }
}

/// A resolved view of a family's fused tables: evaluates all `k` functions
/// per key with zero per-call setup. Obtained from
/// [`H3Family::fused_evaluator`]; borrows the family.
#[derive(Clone, Copy, Debug)]
pub struct FusedEvaluator<'a> {
    fused: &'a [u32],
    n_bytes: usize,
    key_mask: u64,
    k: usize,
}

impl FusedEvaluator<'_> {
    /// Number of hash functions `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Fused evaluation with `K` fixed at compile time, so the per-byte XOR
    /// fold fully unrolls (for the paper's `k = 4` the four accumulators fit
    /// one SIMD register). Bit-exact with evaluating each family member
    /// independently.
    ///
    /// # Panics
    ///
    /// Panics if `K != self.k()`.
    #[inline]
    pub fn hash_all_array<const K: usize>(&self, key: u64) -> [u32; K] {
        assert_eq!(K, self.k);
        let mut acc = [0u32; K];
        let key = key & self.key_mask;
        for byte_idx in 0..self.n_bytes {
            let byte = ((key >> (8 * byte_idx)) & 0xFF) as usize;
            let base = (byte_idx * 256 + byte) * K;
            let entries = &self.fused[base..base + K];
            for i in 0..K {
                acc[i] ^= entries[i];
            }
        }
        acc
    }

    /// Fused evaluation with runtime `k`, writing addresses into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.k()`.
    #[inline]
    pub fn hash_all_into(&self, key: u64, out: &mut [u32]) {
        assert_eq!(out.len(), self.k);
        out.fill(0);
        let key = key & self.key_mask;
        for byte_idx in 0..self.n_bytes {
            let byte = ((key >> (8 * byte_idx)) & 0xFF) as usize;
            let base = (byte_idx * 256 + byte) * self.k;
            for (acc, &entry) in out.iter_mut().zip(&self.fused[base..base + self.k]) {
                *acc ^= entry;
            }
        }
    }
}

/// A resolved fused-table view with the family size fixed at compile time.
/// Unlike [`FusedEvaluator::hash_all_array`], [`Self::hash_all_array`] has
/// no per-key `K == k` assertion — the check happened once in
/// [`H3Family::fused_evaluator_k`] — so a caller that folds input bytes and
/// probes per emitted key keeps the whole evaluation branch-free.
#[derive(Clone, Copy, Debug)]
pub struct FusedEvaluatorK<'a, const K: usize> {
    fused: &'a [u32],
    n_bytes: usize,
    key_mask: u64,
}

impl<const K: usize> FusedEvaluatorK<'_, K> {
    /// Evaluate all `K` functions on the raw `u64` state in one pass over
    /// its bytes. Bit-exact with [`H3Family::hash_all_into`].
    #[inline]
    pub fn hash_all_array(&self, key: u64) -> [u32; K] {
        let mut acc = [0u32; K];
        let key = key & self.key_mask;
        for byte_idx in 0..self.n_bytes {
            let byte = ((key >> (8 * byte_idx)) & 0xFF) as usize;
            let base = (byte_idx * 256 + byte) * K;
            let entries = &self.fused[base..base + K];
            for i in 0..K {
                acc[i] ^= entries[i];
            }
        }
        acc
    }
}

impl PartialEq for H3 {
    /// Two H3 functions are equal iff they compute the same map: same widths,
    /// same matrix rows (tables are derived from rows).
    fn eq(&self, other: &Self) -> bool {
        self.input_bits == other.input_bits
            && self.output_bits == other.output_bits
            && self.rows == other.rows
    }
}

impl Eq for H3 {}

impl PartialEq for H3Family {
    /// Families are equal iff they hold the same functions in the same order
    /// (the fused tables are derived data).
    fn eq(&self, other: &Self) -> bool {
        self.functions == other.functions
    }
}

impl Eq for H3Family {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_hashes_to_zero() {
        // GF(2)-linearity forces H(0) = 0 for every H3 function.
        for seed in 0..16 {
            let h = H3::new(20, 14, seed);
            assert_eq!(h.hash(0), 0);
            assert_eq!(h.hash_bitserial(0), 0);
        }
    }

    #[test]
    fn single_bit_keys_select_rows() {
        let h = H3::new(20, 14, 7);
        for i in 0..20 {
            assert_eq!(h.hash(1u64 << i), h.rows()[i as usize]);
        }
    }

    #[test]
    fn bits_above_input_width_are_ignored() {
        let h = H3::new(20, 14, 9);
        let key = 0xABCDE;
        assert_eq!(h.hash(key), h.hash(key | (1 << 20)));
        assert_eq!(h.hash(key), h.hash(key | (0xFFu64 << 56)));
    }

    #[test]
    fn from_rows_reproduces_exact_matrix() {
        let rows = vec![0b0001, 0b0010, 0b0100, 0b1000];
        let h = H3::from_rows(rows, 4);
        assert_eq!(h.hash(0b1111), 0b1111);
        assert_eq!(h.hash(0b0101), 0b0101);
    }

    #[test]
    #[should_panic(expected = "row has bits above output_bits")]
    fn from_rows_rejects_wide_rows() {
        let _ = H3::from_rows(vec![0x10], 4);
    }

    #[test]
    #[should_panic]
    fn zero_output_bits_rejected() {
        let _ = H3::new(20, 0, 1);
    }

    #[test]
    #[should_panic]
    fn oversize_input_rejected() {
        let _ = H3::new(65, 14, 1);
    }

    #[test]
    fn family_members_differ() {
        let fam = H3Family::new(4, 20, 14, 1234);
        let a = fam.hash_all(0x9_ABCD);
        // With 14 output bits the chance all four independent functions agree
        // on a nonzero key is ~2^-42; equality would indicate shared state.
        assert!(
            !(a[0] == a[1] && a[1] == a[2] && a[2] == a[3]),
            "independent family members returned identical addresses: {a:?}"
        );
    }

    #[test]
    fn family_is_deterministic_per_seed() {
        let f1 = H3Family::new(3, 20, 13, 99);
        let f2 = H3Family::new(3, 20, 13, 99);
        let f3 = H3Family::new(3, 20, 13, 100);
        for key in [0u64, 1, 0xFFFFF, 0x12345] {
            assert_eq!(f1.hash_all(key), f2.hash_all(key));
        }
        assert_ne!(f1.hash_all(0x12345), f3.hash_all(0x12345));
    }

    #[test]
    fn hash_all_into_matches_hash_one() {
        let fam = H3Family::new(6, 20, 12, 5);
        let mut out = vec![0u32; 6];
        fam.hash_all_into(0xFACE, &mut out);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, fam.hash_one(i, 0xFACE));
        }
    }

    #[test]
    fn output_range_respected_at_32_bits() {
        let h = H3::new(64, 32, 3);
        // No masking panic at the u32 boundary.
        let _ = h.hash(u64::MAX);
    }

    proptest! {
        /// Byte-sliced evaluation must be bit-exact with the gate-level
        /// (bit-serial) definition.
        #[test]
        fn tables_match_bitserial(seed in any::<u64>(), key in any::<u64>(),
                                  input_bits in 1u32..=64, output_bits in 1u32..=32) {
            let h = H3::new(input_bits, output_bits, seed);
            prop_assert_eq!(h.hash(key), h.hash_bitserial(key));
        }

        /// GF(2) linearity: H(x ^ y) = H(x) ^ H(y).
        #[test]
        fn gf2_linearity(seed in any::<u64>(), x in any::<u64>(), y in any::<u64>()) {
            let h = H3::new(40, 16, seed);
            prop_assert_eq!(h.hash(x ^ y), h.hash(x) ^ h.hash(y));
        }

        /// Addresses always fall inside the declared output range.
        #[test]
        fn address_in_range(seed in any::<u64>(), key in any::<u64>(), d in 1u32..=31) {
            let h = H3::new(64, d, seed);
            prop_assert!(h.hash(key) < (1u32 << d));
        }

        /// The fused k-way evaluation must be bit-exact with evaluating each
        /// family member independently, for every (k, width, key).
        #[test]
        fn fused_family_matches_per_function(
            seed in any::<u64>(), key in any::<u64>(),
            k in 1usize..=8, input_bits in 1u32..=64, output_bits in 1u32..=32,
        ) {
            let fam = H3Family::new(k, input_bits, output_bits, seed);
            let mut fused = vec![0u32; k];
            fam.hash_all_into(key, &mut fused);
            for (i, &v) in fused.iter().enumerate() {
                prop_assert_eq!(v, fam.hash_one(i, key));
            }
        }

        /// The compile-time-K view agrees with the runtime evaluator for
        /// every width and key (spot K = 4, the paper's configuration).
        #[test]
        fn const_k_evaluator_matches_runtime(
            seed in any::<u64>(), key in any::<u64>(),
            input_bits in 1u32..=64, output_bits in 1u32..=32,
        ) {
            let fam = H3Family::new(4, input_bits, output_bits, seed);
            let a = fam.fused_evaluator_k::<4>().hash_all_array(key);
            let mut b = vec![0u32; 4];
            fam.hash_all_into(key, &mut b);
            prop_assert_eq!(a.to_vec(), b);
        }
    }
}
