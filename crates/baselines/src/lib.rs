//! # ntp-baselines — the predictors the paper compares against
//!
//! * the single-branch direction predictor [`Gshare`] (the paper's
//!   reference is a 16-bit gshare) over a [`PatternHistoryTable`];
//! * target predictors: [`ReturnAddressStack`] and the correlated
//!   [`IndirectTargetBuffer`] of Chang, Hao & Patt;
//! * [`SequentialTracePredictor`] — the idealized sequential baseline of
//!   §5.1 that the paper's headline "~26% lower misprediction" is measured
//!   against;
//! * [`TraceGshare`] — a realizable single-access multiple-branch predictor
//!   (after Patel et al.), and [`MultiGAg`], its history-only multiported
//!   GAg form (after Yeh et al.), for context below the idealized
//!   baseline.
//!
//! # Example
//!
//! ```
//! use ntp_baselines::{DirectionPredictor, Gshare};
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

pub use direction::{DirectionPredictor, Gshare};
pub use multibranch::{MultiBranchStats, MultiGAg, TraceGshare};
pub use pht::PatternHistoryTable;
pub use sequential::{SequentialConfig, SequentialStats, SequentialTracePredictor};
pub use targets::{IndirectTargetBuffer, ReturnAddressStack};
