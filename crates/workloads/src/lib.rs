//! # ntp-workloads — six TRISC benchmark programs
//!
//! SpecInt95 is not redistributable and SimpleScalar binaries cannot run
//! here, so this crate provides six hand-written TRISC assembly workloads,
//! one per benchmark the paper evaluates, each engineered to reproduce the
//! control-flow *character* that matters for trace prediction:
//!
//! | name       | analog of | character preserved |
//! |------------|-----------|---------------------|
//! | `compress` | compress  | tight hash-probe loop, small working set |
//! | `cc`       | gcc       | recursive-descent parsing, large path variety |
//! | `go`       | go        | branchy positional evaluation, biggest static-trace set |
//! | `jpeg`     | ijpeg     | long loop-dominated traces (DCT/quantize/RLE) |
//! | `m88ksim`  | m88ksim   | interpreter dispatch via indirect jumps |
//! | `xlisp`    | xlisp     | deep recursive expression evaluation |
//!
//! Every workload is deterministic, self-checking (its `out` stream is
//! compared against a Rust reference implementation in this crate's tests)
//! and scalable via a `rounds` parameter.
//!
//! # Example
//!
//! ```
//! use ntp_workloads::compress;
//! let w = compress::build(1);
//! let out = w.run_to_halt(10_000_000);
//! assert_eq!(out, w.expected_output);
//! ```

#![warn(missing_docs)]

pub mod cc;
pub mod compress;
pub mod go;
pub mod jpeg;
pub mod m88ksim;
pub mod util;
pub mod xlisp;

use ntp_isa::Program;
use ntp_sim::Machine;

/// A benchmark program plus its expected output.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name, matching the paper's benchmark table.
    pub name: &'static str,
    /// Which SpecInt95 benchmark this stands in for, and why.
    pub analog_of: &'static str,
    /// One-line description of the kernel.
    pub description: &'static str,
    /// The assembled program.
    pub program: Program,
    /// The `out` values a complete run must produce (from the Rust
    /// reference implementation).
    pub expected_output: Vec<u32>,
}

impl Workload {
    /// A fresh machine loaded with this workload.
    pub fn machine(&self) -> Machine {
        Machine::new(self.program.clone())
    }

    /// Runs to `halt` (or panics if `budget` instructions pass first) and
    /// returns the output stream.
    ///
    /// # Panics
    ///
    /// Panics on simulation errors or budget exhaustion — both indicate a
    /// workload bug.
    pub fn run_to_halt(&self, budget: u64) -> Vec<u32> {
        let mut m = self.machine();
        let stop = m.run(budget).expect("workload executes without faults");
        assert_eq!(
            stop,
            ntp_sim::StopReason::Halted,
            "{}: instruction budget too small",
            self.name
        );
        m.output().to_vec()
    }
}

/// How large to build the workload suite.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ScalePreset {
    /// Seconds-scale runs for tests (hundreds of thousands of
    /// instructions).
    Tiny,
    /// The default experiment scale (several million instructions each).
    Default,
    /// Paper-like scale (tens of millions of instructions each).
    Full,
}

impl ScalePreset {
    /// Stable lowercase name, as accepted by `NTP_SCALE` and reported in
    /// telemetry manifests.
    pub fn name(self) -> &'static str {
        match self {
            ScalePreset::Tiny => "tiny",
            ScalePreset::Default => "default",
            ScalePreset::Full => "full",
        }
    }

    /// Per-workload round counts, in [`NAMES`] order, calibrated so
    /// Default ≈ 6M instructions and Full ≈ 24M per workload.
    fn rounds(self) -> [u32; 6] {
        match self {
            ScalePreset::Tiny => [2, 2, 2, 4, 2, 2],
            ScalePreset::Default => [56, 15, 12, 320, 46, 16],
            ScalePreset::Full => [224, 60, 48, 1280, 184, 64],
        }
    }
}

/// The six workload names, in the paper's table order: the order
/// [`suite`] builds them in and the names [`by_name`] accepts.
pub const NAMES: [&str; 6] = ["compress", "cc", "go", "jpeg", "m88ksim", "xlisp"];

/// Each workload's builder, in [`NAMES`] order.
const BUILDERS: [fn(u32) -> Workload; 6] = [
    compress::build,
    cc::build,
    go::build,
    jpeg::build,
    m88ksim::build,
    xlisp::build,
];

/// Builds all six workloads at the given scale, in [`NAMES`] order.
pub fn suite(scale: ScalePreset) -> Vec<Workload> {
    BUILDERS
        .iter()
        .zip(scale.rounds())
        .map(|(build, rounds)| build(rounds))
        .collect()
}

/// Builds one workload by name at the given scale, with the same round
/// count [`suite`] gives it.
///
/// # Panics
///
/// Panics on a name not in [`NAMES`].
pub fn by_name(name: &str, scale: ScalePreset) -> Workload {
    let idx = NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or_else(|| panic!("unknown workload `{name}`"));
    BUILDERS[idx](scale.rounds()[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_builds_the_suite_entry() {
        for scale in [ScalePreset::Tiny, ScalePreset::Default] {
            let suite = suite(scale);
            assert_eq!(suite.len(), NAMES.len());
            for (w, name) in suite.iter().zip(NAMES) {
                assert_eq!(w.name, name);
                let one = by_name(name, scale);
                assert_eq!(one.name, name);
                assert_eq!(
                    one.program.to_image(),
                    w.program.to_image(),
                    "{name} at {} scale: program image",
                    scale.name()
                );
                assert_eq!(
                    one.expected_output,
                    w.expected_output,
                    "{name} at {} scale: expected output",
                    scale.name()
                );
            }
        }
    }
}
