//! The frozen reference kernel the benchmark interleaves with its timed
//! work to measure how fast the host is running right now.
//!
//! It shares no code with the repository, so no change to the program
//! can move it: four independent lanes, each a table lookup at a hashed
//! index followed by a multiply/rotate mix. Like the predictor's replay
//! loop it keeps several loads and ALU chains in flight at once, so it
//! slows down with it when a busy neighbour shares the core; a single
//! dependent pointer chase tracked the replay's slowdowns far less
//! closely. Never change it — every normalised figure is relative to it.

use std::hint::black_box;
use std::time::Instant;

/// Table entries (64 KiB of `u32`).
const TABLE: usize = 1 << 14;
/// Steps per measurement (about 1 ms on the calibration host).
const STEPS: u64 = 150_000;

/// The kernel and its table, built once per process.
pub struct RefKernel {
    table: Vec<u32>,
}

impl RefKernel {
    pub fn new() -> RefKernel {
        RefKernel {
            table: (0..TABLE as u32)
                .map(|i| i.wrapping_mul(0x9E37_79B1))
                .collect(),
        }
    }

    /// Runs one measurement and returns the rate in million steps per
    /// second.
    pub fn measure(&self) -> f64 {
        let start = Instant::now();
        let mut lanes = [black_box(1u64), 2, 3, 4];
        for k in 0..STEPS {
            for (i, v) in lanes.iter_mut().enumerate() {
                let t = self.table[((*v >> 29) as usize ^ i) & (TABLE - 1)] as u64;
                *v = (v.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ t).rotate_left(23) ^ k;
            }
        }
        black_box(lanes);
        STEPS as f64 / start.elapsed().as_secs_f64() / 1e6
    }
}

/// A log of reference measurements taken between timed sections, so
/// each section can be normalised by the host speed around it.
pub struct RefLog {
    kernel: RefKernel,
    mops: Vec<f64>,
    at: Vec<Instant>,
}

impl RefLog {
    /// A log with its kernel built and one warm-up measurement taken.
    pub fn new() -> RefLog {
        let kernel = RefKernel::new();
        kernel.measure();
        RefLog {
            kernel,
            mops: Vec::new(),
            at: Vec::new(),
        }
    }

    /// Takes one measurement, logs it and returns it.
    pub fn sample(&mut self) -> f64 {
        self.at.push(Instant::now());
        let m = self.kernel.measure();
        self.mops.push(m);
        m
    }

    /// Every measurement logged so far.
    pub fn samples(&self) -> &[f64] {
        &self.mops
    }

    /// The measurements started in `from..to`.
    pub fn between(&self, from: Instant, to: Instant) -> Vec<f64> {
        self.at
            .iter()
            .zip(&self.mops)
            .filter(|(t, _)| (from..to).contains(*t))
            .map(|(_, m)| *m)
            .collect()
    }
}
