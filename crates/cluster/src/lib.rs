//! # ntp-cluster — a consistent-hash router over `ntp serve` backends
//!
//! One `ntp route` process fronts N `ntp serve` shard-servers and makes
//! them look like a single predictor service:
//!
//! * **placement** — sessions map to backends through a deterministic
//!   consistent-hash ring ([`HashRing`]: FNV-1a-64 points, `vnodes` per
//!   member), so any router instance given the same backend list agrees
//!   on every placement without coordination;
//! * **forwarding** — the length-framed wire protocol is relayed
//!   verbatim over per-client-connection pipelined backend connections,
//!   preserving per-session request/reply order (the invariant that
//!   keeps served statistics in lockstep with the offline
//!   `ntp_core::evaluate` oracle);
//! * **live migration** — protocol v2 `Migrate`/`MigrateOk` frames move
//!   a frozen, settled session between backends as a checksummed
//!   single-session snapshot, statistics riding along;
//! * **failover** — a draining backend (SIGTERM) is drained *through*,
//!   then its final `shard<k>.nts` snapshots are replayed into the
//!   survivors; a dead backend is restored from its last periodic
//!   snapshots, with sessions that lost state counted honestly in
//!   `route.sessions_lost` rather than papered over.
//!
//! Topology, frame layouts, failover semantics (including the honesty
//! caveats) and every knob are documented in `SERVING.md` § Cluster at
//! the repo root; the `route.*` metric contract is in `OBSERVABILITY.md`.

#![warn(missing_docs)]

pub mod ring;
pub mod router;

pub use ring::HashRing;
pub use router::{
    start, BackendSpec, MigrateTrigger, RouterConfig, RouterHandle, DEFAULT_BACKEND_MAX_FRAME,
    DEFAULT_PROBE_INTERVAL, DEFAULT_VNODES,
};
