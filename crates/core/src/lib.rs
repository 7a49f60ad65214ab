//! # ntp-core — path-based next trace prediction
//!
//! This crate implements the contribution of *Path-Based Next Trace
//! Prediction* (Jacobson, Rotenberg & Smith, MICRO-30, 1997): a predictor
//! that treats traces as the unit of prediction and explicitly predicts
//! sequences of traces from a *path history* of hashed trace identifiers.
//!
//! Components, in paper order:
//!
//! * [`PathHistory`] — the shift register of hashed trace IDs (§3.2);
//! * [`Dolc`] — the Depth/Older/Last/Current index-generation scheme with
//!   XOR folding (§3.2, Table 3);
//! * [`NextTracePredictor`] — the bounded hybrid predictor: tagged
//!   correlating table + secondary table (§3.3), optional
//!   [`ReturnHistoryStack`] (§3.4), alternate prediction (§6), and the
//!   cost-reduced hashed-target entry format (§5.5);
//! * [`UnboundedPredictor`] — the no-aliasing model of §5.2 (Figure 6);
//! * [`evaluate`]/[`PredictorStats`] — the immediate-update replay
//!   methodology of §4.1; [`evaluate_with_streaks`] adds the
//!   misprediction-streak histogram, and [`evaluate_batch_fresh`] replays
//!   many independent lanes back to back.
//!
//! # Example
//!
//! ```
//! use ntp_core::{evaluate, NextTracePredictor, PredictorConfig};
//! use ntp_trace::{TraceId, TraceRecord};
//!
//! // A repeating 3-trace cycle is learned almost immediately.
//! let cycle: Vec<TraceRecord> = (0..300)
//!     .map(|k| {
//!         let pc = 0x0040_0000 + (k % 3) * 0x80;
//!         TraceRecord::new(TraceId::new(pc, 0b01, 2), 12, 0, false, false)
//!     })
//!     .collect();
//! let mut predictor = NextTracePredictor::new(PredictorConfig::paper(15, 7));
//! let stats = evaluate(&mut predictor, &cycle);
//! assert!(stats.mispredict_pct() < 5.0);
//! ```

#![warn(missing_docs)]

mod batch;
mod confidence;
mod config;
mod counter;
mod dolc;
mod error;
mod history;
mod prediction;
mod predictor;
mod rhs;
mod stats;
mod telemetry;
mod unbounded;

pub use batch::evaluate_batch_fresh;
pub use confidence::{
    evaluate_with_confidence, ConfidenceConfig, ConfidenceEstimator, ConfidenceStats,
};
pub use config::{PredictorConfig, StoredTarget};
pub use counter::{Counter, CounterSpec};
pub use dolc::Dolc;
pub use error::ConfigError;
pub use history::PathHistory;
pub use prediction::{Prediction, Source, Target, TracePredictor};
pub use predictor::{
    AliasingCounters, IndexSnapshot, NextTracePredictor, PredictorState, StateError, TableOccupancy,
};
pub use rhs::{ReturnHistoryStack, RhsConfig, RHS_SNAPSHOT_CAP};
pub use stats::{evaluate, PredictorStats, PREDICTOR_STATS_FIELDS};
pub use telemetry::{evaluate_with_streaks, predictor_section};
pub use unbounded::{UnboundedConfig, UnboundedPredictor};
