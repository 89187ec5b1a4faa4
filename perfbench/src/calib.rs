//! Host-speed calibration of the served phases. The shared 2-vCPU hosts
//! this benchmark runs on change speed from second to second and in
//! regimes that last minutes, and a served phase — five busy threads on
//! two CPUs — feels every change on either CPU: over ten seeds its raw
//! throughput spread by ~20%. Each served segment is therefore bracketed
//! by a fixed loop owned by this benchmark (not by the program under
//! test) running on both CPUs at once, and its rates are scaled by how
//! fast that loop ran against its nominal rate. With it the same ten
//! seeds spread by 3-6%, and medians taken 25 minutes apart, while the
//! host's raw speed moved by a third, agreed within 6%.
//!
//! In-process classification is not calibrated: single-threaded, it
//! tracks the host about as well on its own, while every one-thread loop
//! tried drifted against it by more than that.

use std::hint::black_box;
use std::time::Instant;

/// The calibration loop's rate on an unloaded reference host (MB/s of
/// input per thread): a timing taken while the loop ran at `r` MB/s is
/// reported as if the host had run it at this rate.
pub const NOMINAL_MB_S: f64 = 1000.0;

/// Calibration threads: one per CPU of the 2-vCPU host the bounds were
/// set on.
const CPUS: usize = 2;

/// Input bytes per calibration and thread: ~16 ms of work at the nominal
/// rate, short enough to run between every two half-second segments.
const BYTES: usize = 16_000_000;

/// A table lookup per input byte through a rolling 4-byte state and a
/// multiplicative hash — the same shape of work as n-gram extraction and
/// filter probing, written here so a change to the program cannot move it.
fn mix(text: &[u8], table: &[u16], passes: usize) -> u64 {
    let mask = table.len() - 1;
    let mut acc = 0u64;
    let mut state = 0u64;
    for _ in 0..passes {
        for &b in text {
            state = ((state << 8) | u64::from(b)) & 0xFFFF_FFFF;
            let h = (state.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize;
            acc = acc.wrapping_add(u64::from(table[h & mask]));
        }
    }
    acc
}

/// The calibration input: a 64 KiB slice of bytes and a 64 Ki-entry table
/// (128 KiB, the size of the paper configuration's filter bank).
pub struct Calibrator {
    text: Vec<u8>,
    table: Vec<u16>,
}

impl Calibrator {
    /// Build from the workload's first bytes (any bytes work; real text
    /// keeps the branch and cache behaviour realistic).
    pub fn new(sample: &[u8]) -> Self {
        let mut text: Vec<u8> = sample.iter().copied().take(64 * 1024).collect();
        text.resize(64 * 1024, b' ');
        let table = (0..1u32 << 16)
            .map(|i| (i.wrapping_mul(40_503) >> 3) as u16)
            .collect();
        Self { text, table }
    }

    /// Run the loop once on every CPU at the same time; the mean of the
    /// threads' rates in MB/s.
    pub fn rate_mb_s(&self) -> f64 {
        let passes = BYTES / self.text.len();
        let one = || {
            let t = Instant::now();
            black_box(mix(black_box(&self.text), &self.table, passes));
            (passes * self.text.len()) as f64 / 1e6 / t.elapsed().as_secs_f64()
        };
        let rates: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CPUS).map(|_| s.spawn(one)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .collect()
        });
        rates.iter().sum::<f64>() / rates.len() as f64
    }
}

/// Factor that turns a rate measured while the loop ran at `cal_mb_s`
/// into a rate at nominal host speed.
pub fn speed_factor(cal_mb_s: f64) -> f64 {
    NOMINAL_MB_S / cal_mb_s
}
