//! # ntp-telemetry — metrics, histograms and machine-readable reports
//!
//! The observability substrate of the stack. Every other crate depends on
//! this one (it depends on nothing), implements [`ToJson`] for its stats
//! structs, and feeds the shared building blocks:
//!
//! * [`MetricsRegistry`] — named counters / gauges / histograms with
//!   near-zero-cost recording (plain `u64` adds through dense handles; no
//!   locks — shards own registries and [`MetricsRegistry::merge`]
//!   aggregates);
//! * [`Histogram`] — pow-2 bucketed distributions (trace length,
//!   misprediction streaks, fetch bandwidth, serving latency tails);
//! * [`Snapshot`] — named registry sections serialized as JSON (the
//!   serving `Metrics` reply) and read back by [`Snapshot::from_json`],
//!   so no consumer walks the JSON layout itself;
//! * [`PhaseTimes`] / [`ScopeTimer`] — per-phase wall-clock profiling
//!   (simulate / trace-build / replay / train) and
//!   [`per_second`] throughput gauges;
//! * [`json`] — a dependency-free JSON writer *and* parser (the registry
//!   is unreachable offline, so no serde), keeping report output
//!   deterministic byte-for-byte;
//! * [`RunManifest`] / [`Report`] — the `BENCH_*.json` document format:
//!   run metadata plus named sections.
//!
//! See OBSERVABILITY.md at the repo root for the emitted schema.
//!
//! # Example
//!
//! ```
//! use ntp_telemetry::{
//!     json, MetricsRegistry, Report, RunManifest, ScopeTimer, ToJson,
//! };
//!
//! let mut metrics = MetricsRegistry::new();
//! let traces = metrics.counter("trace.count");
//! let lens = metrics.histogram("trace.len");
//! for len in [16u64, 12, 16, 3] {
//!     metrics.inc(traces);
//!     metrics.observe(lens, len);
//! }
//!
//! let mut report = Report::new(RunManifest::capture("demo", "tiny", 1_000, "paper(15,7)"));
//! {
//!     let _t = ScopeTimer::new(report.phases_mut(), "replay");
//! }
//! report.section("metrics", metrics.to_json());
//! let text = report.to_json().pretty();
//! assert!(json::parse(&text).is_ok());
//! ```

#![warn(missing_docs)]

pub mod json;

mod hist;
mod manifest;
mod metrics;
mod report;
mod snapshot;
mod timer;

pub use hist::{Histogram, BUCKETS};
pub use json::Json;
pub use manifest::RunManifest;
pub use metrics::{CounterId, GaugeId, HistogramId, MetricsRegistry};
pub use report::Report;
pub use snapshot::Snapshot;
pub use timer::{per_second, timed, PhaseTimes, ReplayThroughput, ScopeTimer};

/// Conversion into the telemetry JSON tree. Implemented by every stats
/// struct in the workspace so a full run can be serialized into one
/// machine-readable report.
pub trait ToJson {
    /// Serializes `self` as a [`Json`] tree.
    fn to_json(&self) -> Json;
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Json {
        (*self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}
