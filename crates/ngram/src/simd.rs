//! Blocked n-gram window assembly: 32 packed grams per iteration.
//!
//! The scalar extraction loop is a serial dependency chain — every byte's
//! gram is the previous gram shifted and ORed, so the CPU cannot overlap
//! iterations. The blocked path breaks the chain: for a block of 32 input
//! bytes, gram `j` depends only on the `n` folded codes ending at position
//! `j`, all of which are known up front (the previous block's tail codes are
//! carried in the shift-register state). [`assemble_block`] therefore builds
//! all 32 windows from a small code buffer — with AVX2, `n` shifted ORs into
//! each of four 8-lane groups; without, a scalar per-lane fold — and the
//! serial state update collapses to "state = last gram".
//!
//! Like every SIMD path in this workspace the AVX2 branch is chosen once
//! per process ([`avx2_enabled`], honoring `LC_FORCE_SCALAR`) and the
//! scalar assembly is the always-available fallback and non-x86 path.

#![allow(unsafe_code)]

/// Grams per assembled block: the 32 keys the probe's `vpshufb` H3
/// evaluator hashes at once, assembled as four 8-lane AVX2 groups of 32-bit
/// grams.
pub const BLOCK_LANES: usize = 32;

/// Code-buffer length for [`assemble_block`]: up to `n - 1 ≤ 5` carried
/// codes plus [`BLOCK_LANES`] fresh ones. The last group's 8-byte load at
/// offset `24 + n - 1` ends exactly here.
pub const BLOCK_BUF: usize = 5 + BLOCK_LANES;

/// Whether blocked assembly may use AVX2 in this process. Decided once:
/// `LC_FORCE_SCALAR` (set, not `"0"`) forces the scalar path, otherwise
/// the CPU decides. Always `false` off x86-64.
pub fn avx2_enabled() -> bool {
    static ENABLED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var_os("LC_FORCE_SCALAR").is_some_and(|v| v != "0") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// Assemble the 32 grams of one block. `buf[..n - 1]` holds the carried
/// codes (oldest first), `buf[n - 1..n - 1 + 32]` the block's fresh codes;
/// gram `j` packs `buf[j..j + n]` at 5 bits per code, masked to `mask`.
/// `use_avx2` must only be `true` when [`avx2_enabled`] returned `true`.
#[inline]
pub fn assemble_block(
    buf: &[u8; BLOCK_BUF],
    n: usize,
    mask: u32,
    out: &mut [u32; BLOCK_LANES],
    use_avx2: bool,
) {
    // An assert, not a debug_assert: the AVX2 loads rely on n ≤ 6.
    assert!((1..=6).contains(&n), "blocked grams must fit u32 lanes");
    #[cfg(target_arch = "x86_64")]
    if use_avx2 {
        // safety: callers pass use_avx2 == true only under avx2_enabled(),
        // which verified the CPU feature for the life of the process.
        unsafe { assemble_block_avx2(buf, n, mask, out) };
        return;
    }
    let _ = use_avx2;
    assemble_block_scalar(buf, n, mask, out);
}

/// Scalar reference assembly (and the non-AVX2 path): fold each lane's
/// window independently. Still profits over the serial loop by removing
/// the loop-carried state dependency.
#[inline]
fn assemble_block_scalar(buf: &[u8; BLOCK_BUF], n: usize, mask: u32, out: &mut [u32; BLOCK_LANES]) {
    for (j, lane) in out.iter_mut().enumerate() {
        let mut v = 0u32;
        for &code in &buf[j..j + n] {
            v = (v << 5) | u32::from(code);
        }
        *lane = v & mask;
    }
}

/// AVX2 assembly in four 8-lane groups: for each of the `n` window offsets
/// and each group, one 8-byte load of consecutive codes widens to 8 u32
/// lanes, shifts into window position, and ORs into the group's
/// accumulator — `n` load/shift/OR triples per 8 grams, no loop-carried
/// dependency.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn assemble_block_avx2(buf: &[u8; BLOCK_BUF], n: usize, mask: u32, out: &mut [u32; BLOCK_LANES]) {
    use core::arch::x86_64::{
        _mm256_and_si256, _mm256_cvtepu8_epi32, _mm256_or_si256, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_sll_epi32, _mm256_storeu_si256, _mm_cvtsi32_si128,
        _mm_loadl_epi64,
    };
    let mut acc = [_mm256_setzero_si256(); BLOCK_LANES / 8];
    for t in 0..n {
        let shift = _mm_cvtsi32_si128((5 * (n - 1 - t)) as i32);
        for (g, a) in acc.iter_mut().enumerate() {
            // safety: g ≤ 3 and t ≤ n - 1 ≤ 5 (asserted in
            // `assemble_block`), so the 8-byte load at offset 8g + t reads
            // at most buf[29..37], inside the BLOCK_BUF = 37-byte array.
            let lanes8 = unsafe { _mm_loadl_epi64(buf.as_ptr().add(8 * g + t).cast()) };
            let lanes = _mm256_cvtepu8_epi32(lanes8);
            *a = _mm256_or_si256(*a, _mm256_sll_epi32(lanes, shift));
        }
    }
    let mask = _mm256_set1_epi32(mask as i32);
    for (a, group) in acc.iter().zip(out.chunks_exact_mut(8)) {
        // safety: each group is exactly 8 u32s = 32 bytes; storeu needs no
        // alignment.
        unsafe { _mm256_storeu_si256(group.as_mut_ptr().cast(), _mm256_and_si256(*a, mask)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(buf: &[u8; BLOCK_BUF], n: usize, mask: u32) -> [u32; BLOCK_LANES] {
        std::array::from_fn(|j| {
            let mut v = 0u64;
            for &c in &buf[j..j + n] {
                v = (v << 5) | u64::from(c);
            }
            (v as u32) & mask
        })
    }

    #[test]
    fn scalar_assembly_matches_reference_for_all_n() {
        let mut buf = [0u8; BLOCK_BUF];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((i * 7 + 3) % 32) as u8;
        }
        for n in 1..=6usize {
            let mask = (1u32 << (5 * n)) - 1;
            let mut out = [0u32; BLOCK_LANES];
            assemble_block(&buf, n, mask, &mut out, false);
            assert_eq!(out, reference(&buf, n, mask), "n = {n}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_assembly_matches_scalar_on_avx2_hardware() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut buf = [0u8; BLOCK_BUF];
        for (i, b) in buf.iter_mut().enumerate() {
            *b = ((i * 13 + 1) % 32) as u8;
        }
        for n in 1..=6usize {
            let mask = (1u32 << (5 * n)) - 1;
            let mut scalar = [0u32; BLOCK_LANES];
            let mut simd = [0u32; BLOCK_LANES];
            assemble_block(&buf, n, mask, &mut scalar, false);
            // safety: avx2 presence checked at the top of the test.
            unsafe { assemble_block_avx2(&buf, n, mask, &mut simd) };
            assert_eq!(simd, scalar, "n = {n}");
        }
    }
}
