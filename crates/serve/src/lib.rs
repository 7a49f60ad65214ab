//! # ntp-serve — the sharded next-trace prediction service
//!
//! Every predictor in this workspace used to live and die inside one
//! batch process. This crate turns the predictor into a long-lived
//! network service — the substrate the ROADMAP's "heavy traffic" north
//! star needs — while keeping the core guarantee intact: **a served
//! session produces byte-identical statistics to the offline
//! [`ntp_core::evaluate`] oracle.**
//!
//! * [`wire`] — the length-framed, FNV-1a-64-checksummed binary
//!   protocol (`Hello`/`Predict`/`Update`/`Stats`/`Shutdown`/`Metrics`/
//!   `Migrate` frames), sharing its hash with the `.ntc` codec via
//!   [`ntp_hash`]. Protocol version 2 adds the
//!   `Migrate`/`MigrateOk` pair — a checksummed single-session snapshot
//!   in flight — which the `ntp-cluster` router uses to move live
//!   sessions between backends;
//! * [`server`] — the TCP listener, the epoll event loops that own
//!   every accepted connection (Linux only: elsewhere [`serve`] refuses
//!   to start), and the fixed shard-worker pool. [`serve_routed`] runs
//!   the same listener and loops for a cluster router, its backends (a
//!   [`Directory`]) in place of the shards. Sessions are owned by a
//!   single worker (`session % workers`), so every predictor stays
//!   single-threaded and lock-free; bounded per-shard queues reply
//!   `Busy` under load, connection/frame/idle-timeout limits bound
//!   resource use, and shutdown drains in-flight sessions;
//!   [`ServerHandle::join`] returns the final metrics snapshot.
//!   Each shard also owns a private, cumulative metrics registry — the
//!   live observability plane behind the `Metrics` frame (read back as a
//!   typed [`ntp_telemetry::Snapshot`] by [`Client::metrics`]), the
//!   optional `--metrics-addr` scrape sidecar, the
//!   `--stats-interval` stderr summaries and `ntp top`, whose rates are
//!   [`rate`]s between two snapshots. Sessions can be
//!   **warm-started** from a `.nts` predictor-state snapshot
//!   ([`ServeConfig::warm_path`]; all-or-nothing, refusals log and fall
//!   back to a cold start) and persisted per shard at graceful drain
//!   ([`ServeConfig::snapshot_dir`]), so a restart resumes byte-exactly
//!   where the previous process stopped;
//! * [`client`] — a blocking client library with busy-retry bounded by
//!   both an attempt count and a total wall-clock deadline;
//! * [`loadgen`] — the open-loop load generator behind `ntp loadgen`:
//!   offers captured trace streams as concurrent sessions on a seeded,
//!   fixed-rate Zipf schedule, measures p50/p99/p99.9 sojourn latency
//!   from each scheduled send through [`ntp_telemetry`] histograms, and
//!   asserts served == lockstep-oracle statistics exactly;
//! * [`config`] — [`ServeConfig`], its defaults, and
//!   [`ServeConfig::validate`], the one check every configuration passes
//!   before [`serve`] binds; `ntp serve` sets each knob from a flag.
//!
//! Protocol layout, sharding model, backpressure semantics and a
//! loadgen recipe are documented in `SERVING.md` at the repo root.
//!
//! # Example (loopback round trip)
//!
//! ```
//! use ntp_serve::{config::ServeConfig, server, client::Client};
//! use ntp_trace::{TraceId, TraceRecord};
//!
//! let handle = server::serve(ServeConfig {
//!     addr: "127.0.0.1:0".into(),
//!     workers: 2,
//!     ..ServeConfig::default()
//! })?;
//! let mut client = Client::connect(handle.local_addr())?;
//! client.hello(1, 12, 3)?;
//! let rec = TraceRecord::new(TraceId::new(0x0040_0000, 0, 0), 8, 0, false, false);
//! for _ in 0..4 {
//!     client.update(1, &rec)?;
//! }
//! assert!(client.update(1, &rec)?, "a self-loop is learned immediately");
//! client.shutdown_server()?;
//! let last = handle.join();
//! assert_eq!(last.get("total").and_then(|t| t.counter_by_name("sessions.opened")), Some(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod config;
mod event;
pub mod loadgen;
mod poll;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError};
pub use config::ServeConfig;
pub use event::{Directory, Settled};
pub use loadgen::{run_open_loop, OpenLoopConfig, OpenLoopReport, SessionOutcome, SessionSpec};
pub use server::{
    error_count, frame_count, install_sigterm_drain, rate, serve, serve_routed, sigterm_pending,
    LoopWaker, ServerHandle, ShutdownTrigger, DRAIN_MARKER, FRAME_KINDS,
};
pub use wire::{ErrorCode, Request, Response, PROTOCOL_VERSION};
