//! Server configuration and the `NTP_SERVE_*` environment knobs.
//!
//! All knobs go through [`ntp_runner::parse_env`], the workspace's
//! validated environment parser: a typo'd value aborts with a message
//! naming the variable, never silently falls back to the default. The
//! full knob table lives in `SERVING.md`.

use crate::wire::{HARD_FRAME_CAP, MIN_FRAME_CAP};
use std::path::PathBuf;
use std::time::Duration;

/// `NTP_SERVE_ADDR`: the listen address (`host:port`; port `0` asks the
/// OS for an ephemeral port, printed at startup).
pub const ADDR_ENV: &str = "NTP_SERVE_ADDR";

/// `NTP_SERVE_WORKERS`: shard worker count (each session is owned by
/// exactly one worker, `session % workers`).
pub const WORKERS_ENV: &str = "NTP_SERVE_WORKERS";

/// `NTP_SERVE_MAX_CONNS`: concurrent connection limit; excess
/// connections are refused with an `Error(refused)` reply.
pub const MAX_CONNS_ENV: &str = "NTP_SERVE_MAX_CONNS";

/// `NTP_SERVE_EVENT_THREADS`: how many epoll event loops serve the
/// accepted connections (>= 1).
pub const EVENT_THREADS_ENV: &str = "NTP_SERVE_EVENT_THREADS";

/// `NTP_SERVE_QUEUE_DEPTH`: bounded per-shard request-queue depth;
/// beyond it the server replies `Busy` instead of queueing.
pub const QUEUE_DEPTH_ENV: &str = "NTP_SERVE_QUEUE_DEPTH";

/// `NTP_SERVE_METRICS_ADDR`: when set, bind a sidecar TCP listener on
/// this `host:port` serving the merged metrics snapshot over plain HTTP
/// (`GET /metrics` text exposition, `GET /metrics.json`). Unset by
/// default — the sidecar is opt-in.
pub const METRICS_ADDR_ENV: &str = "NTP_SERVE_METRICS_ADDR";

/// `NTP_SERVE_STATS_INTERVAL`: when set (seconds, fractional allowed,
/// must be > 0), print a periodic `[serve] …` summary line to stderr.
/// Unset by default — server stderr stays quiet and deterministic.
pub const STATS_INTERVAL_ENV: &str = "NTP_SERVE_STATS_INTERVAL";

/// `NTP_SERVE_WARM`: when set, a `.nts` predictor-state snapshot (or a
/// directory of them) to warm-start from before accepting connections. A
/// snapshot that fails validation is logged and ignored — the server
/// starts cold, it never partially loads.
pub const WARM_ENV: &str = "NTP_SERVE_WARM";

/// `NTP_SERVE_SNAPSHOT_DIR`: when set, each shard writes its sessions to
/// `<dir>/shard<k>.nts` during a graceful drain, so the next
/// `--warm <dir>` start resumes where this one stopped.
pub const SNAPSHOT_DIR_ENV: &str = "NTP_SERVE_SNAPSHOT_DIR";

/// `NTP_SERVE_SNAPSHOT_INTERVAL`: when set (seconds, fractional allowed,
/// must be > 0) alongside a snapshot directory, every shard also
/// persists its sessions to `<dir>/shard<k>.nts` periodically while the
/// server runs — the cluster router's hard-failover path restores from
/// these when a backend dies without draining. Unset by default:
/// snapshots are drain-time only.
pub const SNAPSHOT_INTERVAL_ENV: &str = "NTP_SERVE_SNAPSHOT_INTERVAL";

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
    /// Reads the `NTP_SERVE_*` knobs on top of the defaults.
    ///
    /// # Panics
    ///
    /// Panics (via [`ntp_runner::parse_env`]) when a knob is set but
    /// malformed, or set to a zero where zero is meaningless.
    pub fn from_env() -> ServeConfig {
        let mut cfg = ServeConfig::default();
        if let Some(addr) = ntp_runner::parse_env::<String>(ADDR_ENV) {
            cfg.addr = addr;
        }
        if let Some(workers) = ntp_runner::parse_env::<usize>(WORKERS_ENV) {
            assert!(workers >= 1, "{WORKERS_ENV} must be >= 1");
            cfg.workers = workers;
        }
        if let Some(max_conns) = ntp_runner::parse_env::<usize>(MAX_CONNS_ENV) {
            assert!(max_conns >= 1, "{MAX_CONNS_ENV} must be >= 1");
            cfg.max_conns = max_conns;
        }
        if let Some(threads) = ntp_runner::parse_env::<usize>(EVENT_THREADS_ENV) {
            assert!(threads >= 1, "{EVENT_THREADS_ENV} must be >= 1");
            cfg.event_threads = threads;
        }
        if let Some(depth) = ntp_runner::parse_env::<usize>(QUEUE_DEPTH_ENV) {
            assert!(depth >= 1, "{QUEUE_DEPTH_ENV} must be >= 1");
            cfg.queue_depth = depth;
        }
        if let Some(addr) = ntp_runner::parse_env::<String>(METRICS_ADDR_ENV) {
            cfg.metrics_addr = Some(addr);
        }
        if let Some(secs) = ntp_runner::parse_env::<f64>(STATS_INTERVAL_ENV) {
            assert!(
                secs.is_finite() && secs > 0.0,
                "{STATS_INTERVAL_ENV} must be a positive number of seconds"
            );
            cfg.stats_interval = Some(Duration::from_secs_f64(secs));
        }
        if let Some(path) = ntp_runner::parse_env::<String>(WARM_ENV) {
            assert!(!path.is_empty(), "{WARM_ENV} must not be empty when set");
            cfg.warm_path = Some(PathBuf::from(path));
        }
        if let Some(dir) = ntp_runner::parse_env::<String>(SNAPSHOT_DIR_ENV) {
            assert!(
                !dir.is_empty(),
                "{SNAPSHOT_DIR_ENV} must not be empty when set"
            );
            cfg.snapshot_dir = Some(PathBuf::from(dir));
        }
        if let Some(secs) = ntp_runner::parse_env::<f64>(SNAPSHOT_INTERVAL_ENV) {
            assert!(
                secs.is_finite() && secs > 0.0,
                "{SNAPSHOT_INTERVAL_ENV} must be a positive number of seconds"
            );
            cfg.snapshot_interval = Some(Duration::from_secs_f64(secs));
        }
        cfg
    }

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
    use std::path::Path;

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

    // Env-var reads mutate process state; a single test keeps them from
    // racing under the parallel harness (the same discipline as
    // ntp-runner's env tests).
    #[test]
    fn from_env_reads_every_knob() {
        let all = [
            ADDR_ENV,
            WORKERS_ENV,
            MAX_CONNS_ENV,
            EVENT_THREADS_ENV,
            QUEUE_DEPTH_ENV,
            METRICS_ADDR_ENV,
            STATS_INTERVAL_ENV,
            WARM_ENV,
            SNAPSHOT_DIR_ENV,
            SNAPSHOT_INTERVAL_ENV,
        ];
        for var in all {
            std::env::remove_var(var);
        }
        let base = ServeConfig::from_env();
        assert_eq!(base.addr, DEFAULT_ADDR);
        assert_eq!(base.max_conns, DEFAULT_MAX_CONNS);
        assert_eq!(base.metrics_addr, None);
        assert_eq!(base.stats_interval, None);
        assert_eq!(base.warm_path, None);
        assert_eq!(base.snapshot_dir, None);
        assert_eq!(base.snapshot_interval, None);

        std::env::set_var(ADDR_ENV, "127.0.0.1:0");
        std::env::set_var(WORKERS_ENV, "3");
        std::env::set_var(MAX_CONNS_ENV, "9");
        std::env::set_var(EVENT_THREADS_ENV, "2");
        std::env::set_var(QUEUE_DEPTH_ENV, "17");
        std::env::set_var(METRICS_ADDR_ENV, "127.0.0.1:0");
        std::env::set_var(STATS_INTERVAL_ENV, "2.5");
        std::env::set_var(WARM_ENV, "warm.nts");
        std::env::set_var(SNAPSHOT_DIR_ENV, "snaps");
        std::env::set_var(SNAPSHOT_INTERVAL_ENV, "0.5");
        let cfg = ServeConfig::from_env();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.max_conns, 9);
        assert_eq!(cfg.event_threads, 2);
        assert_eq!(cfg.queue_depth, 17);
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(cfg.stats_interval, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(cfg.warm_path.as_deref(), Some(Path::new("warm.nts")));
        assert_eq!(cfg.snapshot_dir.as_deref(), Some(Path::new("snaps")));
        assert_eq!(cfg.snapshot_interval, Some(Duration::from_secs_f64(0.5)));

        std::env::set_var(WORKERS_ENV, "0");
        let err =
            std::panic::catch_unwind(ServeConfig::from_env).expect_err("zero workers must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(WORKERS_ENV), "{msg}");
        std::env::set_var(WORKERS_ENV, "3");

        std::env::set_var(STATS_INTERVAL_ENV, "0");
        let err = std::panic::catch_unwind(ServeConfig::from_env)
            .expect_err("zero stats interval must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(STATS_INTERVAL_ENV), "{msg}");
        std::env::set_var(STATS_INTERVAL_ENV, "2.5");

        std::env::set_var(QUEUE_DEPTH_ENV, "0");
        let err = std::panic::catch_unwind(ServeConfig::from_env)
            .expect_err("zero queue depth must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(QUEUE_DEPTH_ENV), "{msg}");
        std::env::set_var(QUEUE_DEPTH_ENV, "17");

        std::env::set_var(EVENT_THREADS_ENV, "0");
        let err = std::panic::catch_unwind(ServeConfig::from_env)
            .expect_err("zero event threads must abort");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(EVENT_THREADS_ENV), "{msg}");

        for var in all {
            std::env::remove_var(var);
        }
    }
}
