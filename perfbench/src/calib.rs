//! Host-speed calibration.
//!
//! On a shared host the speed of a vCPU drifts by tens of percent over
//! minutes, and it moves every wall-time metric of a run together. The
//! benchmark therefore runs this fixed kernel — benchmark code, identical for
//! every version of the program — for about ten milliseconds before each
//! path call, and divides the run's time metrics by a correction derived
//! from the ratio of the kernel's median duration to [`REFERENCE_S`]. A
//! change to the program moves the metrics; a change in the host's speed
//! moves the kernel too and largely cancels out.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel rounds per calibration sample.
const ROUNDS: u64 = 600;

/// The kernel's duration on the reference host state, seconds (the median
/// of samples on a 2-vCPU Intel Xeon host). Only the scale of the
/// normalized metrics depends on it.
pub const REFERENCE_S: f64 = 0.0102;

/// A mix of the work the program does: bit-sliced logic over a small
/// array, hashing, small allocations and formatting.
fn kernel(rounds: u64) -> u64 {
    let mut state = [0u64; 512];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for round in 0..rounds {
        for (i, word) in state.iter_mut().enumerate() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *word = (*word & x) ^ (!*word | (x >> (i % 63))) ^ round;
        }
        let mut map: HashMap<u64, String> = HashMap::new();
        for (i, word) in state.iter().take(64).enumerate() {
            map.insert(word % 97, format!("{i}:{}", word & 0xffff));
        }
        acc = acc.wrapping_add(map.values().map(|s| s.len() as u64).sum::<u64>());
    }
    acc ^ state.iter().fold(0, |a, b| a ^ b)
}

/// Calibration samples taken during one run.
#[derive(Debug, Default)]
pub struct Calibration {
    samples: Vec<f64>,
}

impl Calibration {
    /// Times one run of the kernel.
    pub fn sample(&mut self) {
        let started = Instant::now();
        black_box(kernel(black_box(ROUNDS)));
        self.samples.push(started.elapsed().as_secs_f64());
    }

    /// The samples, seconds.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// How much slower than the reference the kernel ran: the median
    /// sample over [`REFERENCE_S`]; the median ignores the odd preempted
    /// sample.
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.samples) / REFERENCE_S
    }

    /// What host-speed-bound times divide by and rates multiply by: the
    /// square root of [`Calibration::slowdown`]. The short, cache-resident
    /// kernel slows down more than the program under the same load from
    /// other tenants, so the full slowdown overcorrects. In five series of
    /// `ecim-200k` runs (27 runs), the largest spread of a run-level time
    /// metric was 0.10–0.23 with the square root, 0.13–0.26 with the full
    /// slowdown and 0.14–0.30 without correction.
    pub fn correction(&self) -> f64 {
        self.slowdown().sqrt()
    }
}
