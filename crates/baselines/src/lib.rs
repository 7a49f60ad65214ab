//! # ntp-baselines — the predictors the paper compares against
//!
//! * the single-branch direction predictor [`Gshare`] (the paper's
//!   reference is a 16-bit gshare) over a pattern history table of
//!   two-bit saturating counters;
//! * the correlated [`IndirectTargetBuffer`] of Chang, Hao & Patt for
//!   indirect jumps and calls (every baseline predicts returns perfectly,
//!   as the paper's does);
//! * [`SequentialTracePredictor`] — the idealized sequential baseline of
//!   §5.1 that the paper's headline "~26% lower misprediction" is measured
//!   against;
//! * [`TraceGshare`] — a realizable single-access multiple-branch predictor
//!   (after Patel et al.), and [`MultiGAg`], its history-only multiported
//!   GAg form (after Yeh et al.), for context below the idealized
//!   baseline.
//!
//! Each predictor folds one whole trace per `observe` call. A trace's
//! identifier holds every conditional-branch outcome, and an indirect
//! transfer can only end a trace, so only the trace's last control is
//! ever looked up in the indirect-target buffer.
//!
//! # Example
//!
//! ```
//! use ntp_baselines::Gshare;
//! let mut g = Gshare::paper();
//! g.update(0x0040_0000, true);
//! let _ = g.predict(0x0040_0000);
//! ```

#![warn(missing_docs)]

mod direction;
mod multibranch;
mod pht;
mod sequential;
mod targets;
mod telemetry;

pub use direction::Gshare;
pub use multibranch::{MultiBranchStats, MultiGAg, TraceGshare};
pub use sequential::{SequentialStats, SequentialTracePredictor};
pub use targets::IndirectTargetBuffer;
