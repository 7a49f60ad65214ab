//! # ntp — path-based next trace prediction, end to end
//!
//! Umbrella crate for the reproduction of *Path-Based Next Trace
//! Prediction* (Jacobson, Rotenberg & Smith, MICRO-30, 1997). It re-exports
//! every layer of the stack:
//!
//! * [`isa`] — the TRISC instruction set, assembler and codecs;
//! * [`sim`] — the functional simulator producing dynamic control-flow
//!   streams;
//! * [`workloads`] — six benchmark programs mirroring the control-flow
//!   character of the paper's SpecInt95 suite;
//! * [`trace`] — trace selection, 36-bit trace IDs and 16-bit hashed IDs;
//! * [`core`] — the path-based next trace predictor (the paper's
//!   contribution): hybrid correlating/secondary tables, DOLC indexing,
//!   return history stack, alternate prediction, cost-reduced entries, and
//!   the unbounded model;
//! * [`baselines`] — gshare, indirect-target buffer, RAS, the idealized
//!   sequential trace predictor the paper compares against, and two
//!   single-access multiple-branch predictors;
//! * [`engine`] — a cycle-based fetch/execute model for delayed-update
//!   studies and a trace cache;
//! * [`tracefile`] — the persistent on-disk trace-capture cache
//!   (`NTP_TRACE_CACHE`): capture once, replay everywhere, with a
//!   validating checksummed codec that falls back to re-capture on any
//!   stale or corrupt file;
//! * [`runner`] — the zero-dependency scoped-thread worker pool
//!   (`NTP_THREADS`) with ordered-merge results that keeps parallel
//!   capture/replay byte-identical to the serial run;
//! * [`serve`] — the sharded prediction service (`ntp serve`): a
//!   length-framed FNV-checksummed binary wire protocol, session-sharded
//!   worker pool with bounded queues and `Busy` backpressure, plus the
//!   client library and replay load generator (`ntp loadgen`, see
//!   `SERVING.md`);
//! * [`cluster`] — the session-sharding router (`ntp route`): consistent
//!   hashing across `ntp serve` backends, live session migration over a
//!   version-2 wire extension, and snapshot-based failover (see
//!   `SERVING.md` § Cluster);
//! * [`hash`] — the shared FNV-1a 64 hashing primitive behind both the
//!   `.ntc` codec and the wire protocol's frame checksums;
//! * [`verify`] — the differential-testing and fault-injection harness
//!   (`ntp verify`): seeded stream/config generators, cross-implementation
//!   oracles and hostile-config sweeps (see `VERIFICATION.md`).
//!
//! # Quickstart
//!
//! ```
//! use ntp::core::{evaluate, NextTracePredictor, PredictorConfig};
//! use ntp::trace::{run_traces, TraceConfig, TraceRecord};
//!
//! // 1. Build a workload and simulate it, collecting traces.
//! let workload = ntp::workloads::compress::build(1);
//! let mut machine = workload.machine();
//! let mut records: Vec<TraceRecord> = Vec::new();
//! run_traces(&mut machine, 200_000, TraceConfig::default(), |t| {
//!     records.push(TraceRecord::from(t));
//! })?;
//!
//! // 2. Replay the trace stream through the paper's predictor.
//! let mut predictor = NextTracePredictor::new(PredictorConfig::paper(15, 7));
//! let stats = evaluate(&mut predictor, &records);
//! println!("misprediction rate: {:.2}%", stats.mispredict_pct());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use ntp_baselines as baselines;
pub use ntp_cluster as cluster;
pub use ntp_core as core;
pub use ntp_engine as engine;
pub use ntp_hash as hash;
pub use ntp_isa as isa;
pub use ntp_runner as runner;
pub use ntp_serve as serve;
pub use ntp_sim as sim;
pub use ntp_telemetry as telemetry;
pub use ntp_trace as trace;
pub use ntp_tracefile as tracefile;
pub use ntp_verify as verify;
pub use ntp_workloads as workloads;
