//! The host-speed reference.
//!
//! The benchmark's host is shared: its speed drifts by tens of percent
//! over seconds to minutes as neighbours load the caches and cores, far
//! more than the changes the bounds are meant to catch. Each measured
//! cycle (and each set-up) is therefore bracketed by this fixed kernel,
//! and the times measured in between are scaled by
//! `REF_MS / kernel time`. The kernel has two parts, because the
//! program's work is both memory- and compute-bound and the drift moves
//! the two differently: dependent loads around a 4 MiB single-cycle
//! permutation (the cache-missing random access of a CSR walk), then a
//! dependent chain of integer mixing. The kernel is benchmark code: a
//! change to the program cannot move it.

use std::time::Instant;

/// Kernel time that defines reference host speed, milliseconds (about
/// its median on the 2-core Xeon the benchmark was written on, so scaled
/// figures read close to that host's raw ones).
pub const REF_MS: f64 = 20.0;

/// Permutation entries (4 MiB of `u32`).
const LEN: usize = 1 << 20;

/// Dependent loads per measurement.
const STEPS: usize = 1 << 16;

/// Integer mixing rounds per measurement.
const MIX_ROUNDS: u64 = 2_000_000;

/// The kernel's data: one cycle through all `LEN` slots.
pub struct Calibration {
    next: Vec<u32>,
}

impl Calibration {
    /// Builds the permutation with Sattolo's algorithm from a fixed
    /// seed, so every run times the same walk.
    pub fn new() -> Calibration {
        let mut next: Vec<u32> = (0..LEN as u32).collect();
        let mut state = 0x5eed_u64;
        for i in (1..LEN).rev() {
            state = crate::mix(state, i as u64);
            let j = (state % i as u64) as usize;
            next.swap(i, j);
        }
        Calibration { next }
    }

    /// Times one walk of `STEPS` dependent loads followed by
    /// `MIX_ROUNDS` dependent mixing rounds, in milliseconds.
    pub fn run_ms(&self) -> f64 {
        let t0 = Instant::now();
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = self.next[at as usize];
        }
        let mut x = u64::from(std::hint::black_box(at));
        for i in 0..MIX_ROUNDS {
            x = crate::mix(x, i);
        }
        std::hint::black_box(x);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Runs `f` between two kernel runs. Returns `f`'s result, the factor
/// that scales times measured inside `f` to reference speed, and the
/// mean kernel time.
pub fn around<R>(calib: &Calibration, f: impl FnOnce() -> R) -> (R, f64, f64) {
    let before = calib.run_ms();
    let r = f();
    let kernel_ms = (before + calib.run_ms()) / 2.0;
    (r, REF_MS / kernel_ms, kernel_ms)
}
