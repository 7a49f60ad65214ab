//! # ntp-trace — trace selection, naming and hashing
//!
//! A *trace* is a dynamic sequence of up to 16 instructions, possibly
//! spanning several basic blocks, with up to 6 embedded conditional branches
//! and no internal indirect-target instructions. The trace cache stores
//! traces; the next-trace predictor predicts them. This crate converts the
//! dynamic instruction stream produced by [`ntp_sim`] into traces:
//!
//! * [`TraceBuilder`]/[`run_traces`] — trace selection. The builder fills
//!   each [`Trace`] in place, in storage it owns, and lends every
//!   completed trace to a callback by reference: zero, one or two per
//!   retired instruction, each instruction in exactly one trace;
//! * [`TraceId`] — the paper's 36-bit identifier (start PC + branch
//!   outcomes) and its 16-bit [`HashedId`] form used in path histories;
//! * [`TraceRecord`] — the compact 8-byte replay form;
//! * [`TraceStats`]/[`ControlMix`]/[`RedundancyStats`] — the workload
//!   statistics of Tables 1–2 and the selection study, each folded once
//!   per trace.
//!
//! # Example
//!
//! ```
//! use ntp_isa::asm::assemble;
//! use ntp_sim::Machine;
//! use ntp_trace::{run_traces, TraceConfig, TraceStats};
//!
//! let p = assemble(
//!     "
//! main:   li   t0, 50
//! loop:   addi t0, t0, -1
//!         bnez t0, loop
//!         halt
//! ",
//! )?;
//! let mut m = Machine::new(p);
//! let mut stats = TraceStats::new();
//! run_traces(&mut m, 100_000, TraceConfig::default(), |t| stats.record(t))?;
//! assert_eq!(stats.cond_branches(), 50);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod builder;
mod id;
mod record;
mod redundancy;
mod stats;
mod telemetry;
mod trace;

pub use builder::{run_traces, TraceBuilder, TraceConfig, TraceConfigError};
pub use id::{HashedId, TraceId, HASHED_ID_BITS, TRACE_ID_BITS};
pub use record::TraceRecord;
pub use redundancy::{RedundancyRaw, RedundancyStats};
pub use stats::{ControlMix, TraceStats, TraceStatsRaw};
pub use trace::{CtrlInfo, Trace, MAX_TRACE_BRANCHES, MAX_TRACE_LEN};
