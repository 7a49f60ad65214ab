//! Server configuration: [`ServeConfig`], its defaults, and the one
//! validation pass every configuration goes through before a server
//! starts. `ntp serve` sets the knobs from its flags; the full knob table
//! lives in `SERVING.md`.

use crate::wire::{HARD_FRAME_CAP, MIN_FRAME_CAP};
use std::path::PathBuf;
use std::time::Duration;

/// Default listen address (loopback; this service has no auth).
pub const DEFAULT_ADDR: &str = "127.0.0.1:4117";

/// Default concurrent-connection limit.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// Default per-shard request-queue depth (beyond it, `Busy` replies).
pub const DEFAULT_QUEUE_DEPTH: usize = 128;

/// Default frame-body size limit (1 MiB ≈ 131k records per batch).
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Everything a [`crate::server::serve`] call needs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address, `host:port` (`:0` for an ephemeral port).
    pub addr: String,
    /// Shard workers; sessions are owned by `session % workers`.
    pub workers: usize,
    /// Concurrent-connection limit.
    pub max_conns: usize,
    /// Largest accepted frame body, in bytes.
    pub max_frame: u32,
    /// Bounded per-shard queue depth; a full queue yields `Busy`.
    pub queue_depth: usize,
    /// Epoll event loops that own the accepted connections (>= 1).
    pub event_threads: usize,
    /// No-progress timeout: a connection with nothing in flight that has
    /// neither read nor written a byte for this long is dropped (which
    /// also bounds how long a drain can wait on an idle peer).
    pub read_timeout: Duration,
    /// Sidecar metrics listener address (`host:port`, `:0` for
    /// ephemeral); `None` disables the sidecar.
    pub metrics_addr: Option<String>,
    /// Period of the `[serve] …` stderr summary lines; `None` disables
    /// them.
    pub stats_interval: Option<Duration>,
    /// `.nts` snapshot file (or directory of snapshot files) to
    /// warm-start sessions from before accepting connections; `None`
    /// starts cold.
    pub warm_path: Option<PathBuf>,
    /// Directory for per-shard drain snapshots (`shard<k>.nts`); `None`
    /// discards learned state at shutdown.
    pub snapshot_dir: Option<PathBuf>,
    /// Period of the live periodic snapshots into `snapshot_dir`;
    /// `None` snapshots at drain only. Ignored without a
    /// `snapshot_dir`.
    pub snapshot_interval: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: DEFAULT_ADDR.to_string(),
            workers: default_workers(),
            max_conns: DEFAULT_MAX_CONNS,
            max_frame: DEFAULT_MAX_FRAME,
            queue_depth: DEFAULT_QUEUE_DEPTH,
            event_threads: default_event_threads(),
            read_timeout: Duration::from_secs(30),
            metrics_addr: None,
            stats_interval: None,
            warm_path: None,
            snapshot_dir: None,
            snapshot_interval: None,
        }
    }
}

/// Default shard-worker count: the machine's `NTP_THREADS`-governed pool
/// width (see [`ntp_runner::thread_count`]), capped at 8 — shards are
/// long-lived threads, and prediction state is small.
pub fn default_workers() -> usize {
    ntp_runner::thread_count().min(8)
}

/// Default event-loop thread count: a small slice of the
/// `NTP_THREADS`-governed pool width (the loops only shuttle bytes —
/// shard workers do the prediction work).
pub fn default_event_threads() -> usize {
    ntp_runner::thread_count().clamp(1, 4)
}

impl ServeConfig {
    /// Rejects nonsensical configurations with a one-line diagnostic.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("serve: workers must be >= 1".into());
        }
        if self.max_conns == 0 {
            return Err("serve: max_conns must be >= 1".into());
        }
        if self.queue_depth == 0 {
            return Err("serve: queue_depth must be >= 1".into());
        }
        if !(1..=256).contains(&self.event_threads) {
            return Err(format!(
                "serve: event_threads {} outside 1..=256",
                self.event_threads
            ));
        }
        if self.max_frame < MIN_FRAME_CAP {
            return Err(format!(
                "serve: max_frame {} below the {MIN_FRAME_CAP}-byte minimum",
                self.max_frame
            ));
        }
        if self.max_frame > HARD_FRAME_CAP {
            return Err(format!(
                "serve: max_frame {} above the {HARD_FRAME_CAP}-byte hard cap",
                self.max_frame
            ));
        }
        if matches!(self.metrics_addr.as_deref(), Some("")) {
            return Err("serve: metrics_addr must not be empty when set".into());
        }
        if matches!(self.stats_interval, Some(d) if d.is_zero()) {
            return Err("serve: stats_interval must be > 0 when set".into());
        }
        if matches!(&self.warm_path, Some(p) if p.as_os_str().is_empty()) {
            return Err("serve: warm_path must not be empty when set".into());
        }
        if matches!(&self.snapshot_dir, Some(p) if p.as_os_str().is_empty()) {
            return Err("serve: snapshot_dir must not be empty when set".into());
        }
        if matches!(self.snapshot_interval, Some(d) if d.is_zero()) {
            return Err("serve: snapshot_interval must be > 0 when set".into());
        }
        if self.snapshot_interval.is_some() && self.snapshot_dir.is_none() {
            return Err("serve: snapshot_interval requires a snapshot_dir".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        let cfg = ServeConfig::default();
        assert!(cfg.validate().is_ok());
        assert!(cfg.workers >= 1);
    }

    #[test]
    fn invalid_limits_are_rejected_with_one_line_messages() {
        for (cfg, needle) in [
            (
                ServeConfig {
                    workers: 0,
                    ..ServeConfig::default()
                },
                "workers",
            ),
            (
                ServeConfig {
                    max_conns: 0,
                    ..ServeConfig::default()
                },
                "max_conns",
            ),
            (
                ServeConfig {
                    queue_depth: 0,
                    ..ServeConfig::default()
                },
                "queue_depth",
            ),
            (
                ServeConfig {
                    event_threads: 0,
                    ..ServeConfig::default()
                },
                "event_threads",
            ),
            (
                ServeConfig {
                    event_threads: 257,
                    ..ServeConfig::default()
                },
                "event_threads",
            ),
            (
                ServeConfig {
                    max_frame: 8,
                    ..ServeConfig::default()
                },
                "max_frame",
            ),
            (
                ServeConfig {
                    max_frame: u32::MAX,
                    ..ServeConfig::default()
                },
                "hard cap",
            ),
            (
                ServeConfig {
                    metrics_addr: Some(String::new()),
                    ..ServeConfig::default()
                },
                "metrics_addr",
            ),
            (
                ServeConfig {
                    stats_interval: Some(Duration::ZERO),
                    ..ServeConfig::default()
                },
                "stats_interval",
            ),
            (
                ServeConfig {
                    warm_path: Some(PathBuf::new()),
                    ..ServeConfig::default()
                },
                "warm_path",
            ),
            (
                ServeConfig {
                    snapshot_dir: Some(PathBuf::new()),
                    ..ServeConfig::default()
                },
                "snapshot_dir",
            ),
            (
                ServeConfig {
                    snapshot_dir: Some(PathBuf::from("snaps")),
                    snapshot_interval: Some(Duration::ZERO),
                    ..ServeConfig::default()
                },
                "snapshot_interval",
            ),
            (
                ServeConfig {
                    snapshot_interval: Some(Duration::from_secs(1)),
                    ..ServeConfig::default()
                },
                "requires a snapshot_dir",
            ),
        ] {
            let err = cfg.validate().expect_err("must be rejected");
            assert!(err.contains(needle), "`{err}` should mention {needle}");
            assert!(!err.contains('\n'), "one-line diagnostic: {err}");
        }
    }
}
