//! The cluster router: one listener fronting N `ntp serve` backends.
//!
//! # Data plane
//!
//! Each accepted client connection gets a **forwarder/relay thread
//! pair** joined by an in-order queue:
//!
//! * the *forwarder* reads client frames, answers router-level requests
//!   (`Metrics`, `Shutdown`) itself, places session-bearing frames
//!   through the placement table (falling back to the consistent-hash
//!   [`HashRing`]), writes the raw frame bytes to a lazily-opened
//!   per-connection backend connection, and pushes a ticket onto the
//!   queue;
//! * the *relay* pops tickets in order, reads exactly one reply frame
//!   from the named backend connection, and writes it back to the
//!   client verbatim (the reply is already framed and checksummed — the
//!   router never re-encodes what it merely forwards).
//!
//! Because each backend connection is private to one client connection
//! and both the queue and every TCP stream are FIFO, replies reach the
//! client in request order — which implies per-session order, the
//! invariant the offline-oracle lockstep checks depend on. (This is a
//! deliberate thread-per-connection design: the serving crate's epoll
//! frontend is private to `ntp-serve`, and the router's per-frame work —
//! two reads, two writes — is far from the connection counts where a
//! readiness loop pays for itself. SERVING.md § Cluster spells out the
//! trade.)
//!
//! # Control plane
//!
//! A session can be **migrated** live: the router freezes it (new
//! frames block in the forwarder), waits for in-flight replies to
//! drain, extracts it from the source backend (`Migrate` with no
//! payload), installs the returned checksummed snapshot into the target
//! (`Migrate` with payload), repoints the placement table, and thaws.
//! Per-prediction statistics ride inside the snapshot, so served stats
//! stay in lockstep with the offline oracle across the move.
//!
//! A probe thread polls each backend's `Metrics` frame. A backend
//! reporting `draining: 1` (e.g. SIGTERM) is **failed over
//! gracefully**: its sessions freeze, in-flight work drains, the router
//! closes its connections (letting the backend finish its drain and
//! write final `shard<k>.nts` snapshots), waits for the backend's
//! drain marker, and replays every session into the survivors chosen by
//! the shrunken ring. A backend that stops answering entirely is failed
//! over **hard** from whatever snapshots it last wrote — sessions
//! missing from those are cold-restarted from their remembered `Hello`
//! and counted in `route.sessions_lost`; restored ones may still lose
//! the updates since the last periodic snapshot (`route.sessions_restored`
//! counts them, honestly, as "restored", not "exact").

use crate::ring::HashRing;
use ntp_serve::client::Client;
use ntp_serve::wire::{self, ErrorCode, Request, Response, WireError};
use ntp_serve::DRAIN_MARKER;
use ntp_telemetry::{CounterId, HistogramId, MetricsRegistry, Snapshot, ToJson};
use ntp_tracefile::{encode_session_wire, read_snapshot_file, SessionSnapshot, SNAPSHOT_EXT};
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default number of ring points each backend contributes.
pub const DEFAULT_VNODES: usize = 64;

/// Default backend health-probe period.
pub const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_secs(1);

/// Default cap on reply frames read from a backend (8 MiB): `MigrateOk`
/// carries a whole serialized session, which outgrows the 1 MiB
/// client default long before the paper-point configs do.
pub const DEFAULT_BACKEND_MAX_FRAME: u32 = 8 << 20;

/// One backend as configured: where it listens and where (if anywhere)
/// it writes its `shard<k>.nts` snapshots — the directory failover
/// restores from.
#[derive(Clone, Debug)]
pub struct BackendSpec {
    /// The backend's `host:port`.
    pub addr: String,
    /// The backend's `--snapshot-dir`, when it has one. Without it a
    /// failed-over session can only be cold-restarted.
    pub snapshot_dir: Option<PathBuf>,
}

/// A scripted one-shot migration: once `session` has had
/// `after_frames` frames forwarded, move it to backend `to`. This is
/// the `ntp route --migrate` flag — a deterministic trigger the cluster
/// gate uses to force a mid-run migration.
#[derive(Clone, Copy, Debug)]
pub struct MigrateTrigger {
    /// Session to move.
    pub session: u64,
    /// Destination backend index, or `None` for "the next backend
    /// around from wherever the session currently lives" — a guaranteed
    /// real move regardless of where the ring placed it (the
    /// `--migrate <session>:next:<frames>` form CI gates use; an exact
    /// index can be a same-backend no-op).
    pub to: Option<u32>,
    /// Fire once this many frames of that session have been forwarded.
    pub after_frames: u64,
}

/// Everything a [`start`] call needs.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address, `host:port` (`:0` for an ephemeral port).
    pub addr: String,
    /// The backends, in index order. The ring hashes their addresses,
    /// so placement is stable across router restarts.
    pub backends: Vec<BackendSpec>,
    /// Ring points per backend.
    pub vnodes: usize,
    /// Backend health-probe period.
    pub probe_interval: Duration,
    /// Largest accepted client frame body, in bytes.
    pub max_frame: u32,
    /// Largest accepted backend *reply* body (must fit a migrated
    /// session snapshot).
    pub backend_max_frame: u32,
    /// Concurrent client-connection limit.
    pub max_conns: usize,
    /// Optional scripted migration.
    pub migrate_trigger: Option<MigrateTrigger>,
}

impl RouterConfig {
    /// A loopback-ephemeral config fronting `backends`.
    pub fn new(backends: Vec<BackendSpec>) -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends,
            vnodes: DEFAULT_VNODES,
            probe_interval: DEFAULT_PROBE_INTERVAL,
            max_frame: ntp_serve::config::DEFAULT_MAX_FRAME,
            backend_max_frame: DEFAULT_BACKEND_MAX_FRAME,
            max_conns: 64,
            migrate_trigger: None,
        }
    }

    /// Rejects nonsensical configurations with a one-line diagnostic.
    pub fn validate(&self) -> Result<(), String> {
        if self.backends.is_empty() {
            return Err("route: at least one backend is required".into());
        }
        if self.vnodes == 0 {
            return Err("route: vnodes must be >= 1".into());
        }
        if self.max_conns == 0 {
            return Err("route: max_conns must be >= 1".into());
        }
        if self.probe_interval.is_zero() {
            return Err("route: probe_interval must be > 0".into());
        }
        for cap in [self.max_frame, self.backend_max_frame] {
            if !(wire::MIN_FRAME_CAP..=wire::HARD_FRAME_CAP).contains(&cap) {
                return Err(format!(
                    "route: frame cap {cap} outside [{}, {}]",
                    wire::MIN_FRAME_CAP,
                    wire::HARD_FRAME_CAP
                ));
            }
        }
        if let Some(t) = &self.migrate_trigger {
            match t.to {
                Some(to) if to as usize >= self.backends.len() => {
                    return Err(format!(
                        "route: migrate target {to} out of range ({} backends)",
                        self.backends.len()
                    ));
                }
                None if self.backends.len() < 2 => {
                    return Err("route: migrate target `next` needs at least two backends".into());
                }
                _ => {}
            }
        }
        let mut addrs: Vec<&str> = self.backends.iter().map(|b| b.addr.as_str()).collect();
        addrs.sort_unstable();
        addrs.dedup();
        if addrs.len() != self.backends.len() {
            return Err("route: backend addresses must be distinct".into());
        }
        Ok(())
    }
}

/// Where one session lives and what is in flight for it.
struct SessionState {
    /// Owning backend index.
    backend: u32,
    /// Frames forwarded but not yet relayed back.
    outstanding: u32,
    /// Frozen by a migration or failover: forwarders wait instead of
    /// forwarding.
    frozen: bool,
    /// `(bits, depth)` from the last `Hello`, for cold restarts when a
    /// failover finds no snapshot.
    hello: Option<(u32, u32)>,
    /// Frames forwarded so far (drives [`MigrateTrigger`]).
    frames: u64,
}

/// Monotonic route counters (exposed as `route.*` in metrics).
#[derive(Default)]
struct RouteCounters {
    forwarded: AtomicU64,
    migrations: AtomicU64,
    failovers: AtomicU64,
    errors: AtomicU64,
    sessions_lost: AtomicU64,
    sessions_restored: AtomicU64,
    accepted: AtomicU64,
    refused: AtomicU64,
}

/// Per-backend cumulative metrics.
struct BackendMetrics {
    reg: MetricsRegistry,
    c_forwarded: CounterId,
    c_errors: CounterId,
    h_latency: HistogramId,
}

impl BackendMetrics {
    fn new() -> BackendMetrics {
        let mut reg = MetricsRegistry::new();
        let c_forwarded = reg.counter("forwarded");
        let c_errors = reg.counter("errors");
        let h_latency = reg.histogram("latency_us");
        BackendMetrics {
            reg,
            c_forwarded,
            c_errors,
            h_latency,
        }
    }
}

/// The shared router core every thread hangs off.
struct Core {
    cfg: RouterConfig,
    addr: SocketAddr,
    ring: Mutex<HashRing>,
    /// The placement table; guarded with `settled` so freeze/thaw and
    /// outstanding-drain waits share one notification channel.
    sessions: Mutex<HashMap<u64, SessionState>>,
    settled: Condvar,
    /// Per-backend liveness; flipped off exactly once per failover.
    alive: Vec<AtomicBool>,
    /// Registered router→backend data connections, per client
    /// connection: failover shuts these down so a draining backend's
    /// connection count reaches zero (its drain completes only then).
    conns: Mutex<HashMap<u64, Vec<Option<TcpStream>>>>,
    next_conn_id: AtomicU64,
    active_conns: AtomicUsize,
    drain: AtomicBool,
    counters: RouteCounters,
    metrics: Mutex<Vec<BackendMetrics>>,
    trigger_fired: AtomicBool,
    start: Instant,
}

/// What the forwarder hands its relay, strictly in reply order.
enum RelayItem {
    /// A router-answered reply (metrics, errors, `Bye`).
    Direct(Response),
    /// The relay's read half of a freshly opened backend connection
    /// (always queued before the first ticket that needs it).
    BackendConn { backend: u32, stream: TcpStream },
    /// One forwarded frame: read one reply from `backend`, pass it on.
    Forwarded {
        backend: u32,
        session: u64,
        t0: Instant,
    },
}

impl Core {
    /// Places one session-bearing frame: blocks while the session is
    /// frozen, assigns unknown sessions through the ring, bumps the
    /// in-flight count, and returns `(backend, frames_so_far)`.
    fn place(&self, session: u64, hello: Option<(u32, u32)>) -> (u32, u64) {
        let mut map = self.sessions.lock().expect("sessions lock");
        loop {
            match map.get_mut(&session) {
                Some(st) if st.frozen => {
                    map = self.settled.wait(map).expect("sessions lock");
                }
                Some(st) => {
                    st.outstanding += 1;
                    st.frames += 1;
                    if hello.is_some() {
                        st.hello = hello;
                    }
                    return (st.backend, st.frames);
                }
                None => {
                    let backend = self.ring.lock().expect("ring lock").route(session);
                    map.insert(
                        session,
                        SessionState {
                            backend,
                            outstanding: 1,
                            frozen: false,
                            hello,
                            frames: 1,
                        },
                    );
                    return (backend, 1);
                }
            }
        }
    }

    /// Marks one in-flight frame of `session` settled (relayed back or
    /// failed) and wakes every waiter.
    fn unplace(&self, session: u64) {
        let mut map = self.sessions.lock().expect("sessions lock");
        if let Some(st) = map.get_mut(&session) {
            st.outstanding = st.outstanding.saturating_sub(1);
        }
        self.settled.notify_all();
    }

    /// Waits until none of `ids` has an in-flight frame. False on
    /// timeout (an in-flight reply that never settles — a wedged
    /// backend connection times out through its socket deadline, which
    /// feeds back here as an error-settled frame).
    fn wait_settled(&self, ids: &[u64], timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut map = self.sessions.lock().expect("sessions lock");
        loop {
            let busy = ids
                .iter()
                .any(|id| map.get(id).is_some_and(|st| st.outstanding > 0));
            if !busy {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            map = self
                .settled
                .wait_timeout(map, deadline - now)
                .expect("sessions lock")
                .0;
        }
    }

    /// Thaws `ids` (whatever subset still exists) and wakes waiters.
    fn thaw(&self, ids: &[u64]) {
        let mut map = self.sessions.lock().expect("sessions lock");
        for id in ids {
            if let Some(st) = map.get_mut(id) {
                st.frozen = false;
            }
        }
        self.settled.notify_all();
    }

    /// Opens a data connection to backend `k` (long deadlines: these
    /// carry pipelined traffic, not probes).
    fn connect_backend(&self, k: u32) -> std::io::Result<TcpStream> {
        if !self.alive[k as usize].load(Ordering::SeqCst) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                format!("backend {k} is down"),
            ));
        }
        use std::net::ToSocketAddrs;
        let spec = &self.cfg.backends[k as usize];
        let addr =
            spec.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address")
            })?;
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// A short-lived control client to backend `k` (migrations,
    /// forwarded shutdowns), with the frame cap raised for snapshot
    /// payloads.
    fn control_client(&self, k: u32) -> Result<Client, String> {
        let spec = &self.cfg.backends[k as usize];
        let mut client = Client::connect_with_timeout(
            spec.addr.as_str(),
            Duration::from_secs(2),
            Duration::from_secs(15),
        )
        .map_err(|e| format!("backend {k} ({}): {e}", spec.addr))?;
        client.set_max_frame(self.cfg.backend_max_frame);
        Ok(client)
    }

    /// Shuts down every registered router→backend connection to `k`
    /// (both directions, so blocked relays unblock too).
    fn close_backend_conns(&self, k: u32) {
        let mut conns = self.conns.lock().expect("conns lock");
        for per_backend in conns.values_mut() {
            if let Some(stream) = per_backend[k as usize].take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Records one relayed reply in backend `k`'s metrics.
    fn record(&self, k: u32, latency: Duration, is_error: bool) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        let mut metrics = self.metrics.lock().expect("metrics lock");
        let bm = &mut metrics[k as usize];
        bm.reg.inc(bm.c_forwarded);
        if is_error {
            bm.reg.inc(bm.c_errors);
        }
        bm.reg.observe(bm.h_latency, us);
    }

    /// The router's merged metrics snapshot, shaped like a server's: a
    /// `router` section and one `backend<k>` section per backend, so
    /// `ntp top --cluster` and the scrape tooling read one schema.
    fn metrics_snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::new();
        let mut router = MetricsRegistry::new();
        let c = &self.counters;
        for (name, v) in [
            (
                "route.sessions",
                self.sessions.lock().expect("sessions lock").len() as u64,
            ),
            ("route.forwarded", c.forwarded.load(Ordering::Relaxed)),
            ("route.migrations", c.migrations.load(Ordering::Relaxed)),
            ("route.failovers", c.failovers.load(Ordering::Relaxed)),
            ("route.errors", c.errors.load(Ordering::Relaxed)),
            (
                "route.sessions_lost",
                c.sessions_lost.load(Ordering::Relaxed),
            ),
            (
                "route.sessions_restored",
                c.sessions_restored.load(Ordering::Relaxed),
            ),
            ("conns.accepted", c.accepted.load(Ordering::Relaxed)),
            ("conns.refused", c.refused.load(Ordering::Relaxed)),
            ("draining", u64::from(self.drain.load(Ordering::SeqCst))),
        ] {
            let id = router.counter(name);
            router.set_counter(id, v);
        }
        let up = router.gauge("uptime_s");
        router.set(up, self.start.elapsed().as_secs_f64());
        snap.push("router", router);

        let metrics = self.metrics.lock().expect("metrics lock");
        for (k, bm) in metrics.iter().enumerate() {
            let mut reg = bm.reg.clone();
            let alive = reg.counter("alive");
            reg.set_counter(alive, u64::from(self.alive[k].load(Ordering::SeqCst)));
            snap.push(&format!("backend{k}"), reg);
        }
        snap
    }

    /// Starts the router drain and pokes the acceptor awake.
    fn begin_drain(&self) {
        if self.drain.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
    }

    // ---- migration ----------------------------------------------------

    /// Moves a live session to backend `to`: freeze → settle → extract
    /// → install → repoint → thaw. On an install failure the session is
    /// re-installed at the source; only if *that* also fails is it
    /// dropped (and counted lost).
    fn migrate_session(&self, session: u64, to: u32) -> Result<(), String> {
        if to as usize >= self.cfg.backends.len() {
            return Err(format!(
                "route: migrate target {to} out of range ({} backends)",
                self.cfg.backends.len()
            ));
        }
        if !self.alive[to as usize].load(Ordering::SeqCst) {
            return Err(format!("route: migrate target backend {to} is down"));
        }
        let from = {
            let mut map = self.sessions.lock().expect("sessions lock");
            let st = map
                .get_mut(&session)
                .ok_or_else(|| format!("route: unknown session {session}"))?;
            if st.frozen {
                return Err(format!(
                    "route: session {session} is already frozen (migration or failover in progress)"
                ));
            }
            st.frozen = true;
            st.backend
        };
        if from == to {
            self.thaw(&[session]);
            return Ok(());
        }
        if !self.wait_settled(&[session], Duration::from_secs(30)) {
            self.thaw(&[session]);
            return Err(format!(
                "route: session {session} still has frames in flight after 30s"
            ));
        }
        let moved = self.extract_install(session, from, to);
        {
            let mut map = self.sessions.lock().expect("sessions lock");
            if let Some(st) = map.get_mut(&session) {
                if moved.is_ok() {
                    st.backend = to;
                }
                st.frozen = false;
            }
            self.settled.notify_all();
        }
        if moved.is_ok() {
            self.counters.migrations.fetch_add(1, Ordering::Relaxed);
            eprintln!("[route] migrated session {session}: backend {from} -> {to}");
        }
        moved
    }

    /// The wire half of a migration (session already frozen and
    /// settled).
    fn extract_install(&self, session: u64, from: u32, to: u32) -> Result<(), String> {
        let mut src = self.control_client(from)?;
        let bytes = src
            .migrate_out(session)
            .map_err(|e| format!("route: extract session {session} from backend {from}: {e}"))?;
        let install = self.control_client(to).and_then(|mut dst| {
            dst.migrate_in(session, bytes.clone())
                .map_err(|e| format!("route: install session {session} on backend {to}: {e}"))
        });
        match install {
            Ok(()) => Ok(()),
            Err(e) => match src.migrate_in(session, bytes) {
                Ok(()) => Err(format!("{e} (session restored on backend {from})")),
                Err(e2) => {
                    // The session is gone from both ends: drop it and
                    // say so — the next client frame re-routes and gets
                    // an honest UnknownSession from the new backend.
                    self.counters.sessions_lost.fetch_add(1, Ordering::Relaxed);
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                    self.sessions
                        .lock()
                        .expect("sessions lock")
                        .remove(&session);
                    self.settled.notify_all();
                    Err(format!(
                        "{e}; re-install on backend {from} also failed ({e2}): session lost"
                    ))
                }
            },
        }
    }

    // ---- failover -----------------------------------------------------

    /// Fails over backend `k`. `graceful` means the backend announced a
    /// drain (its final snapshots are coming — wait for the drain
    /// marker); otherwise it is dead and whatever snapshots it last
    /// wrote are the best available.
    fn failover(&self, k: u32, graceful: bool) {
        if !self.alive[k as usize].swap(false, Ordering::SeqCst) {
            return; // Already failed over.
        }
        eprintln!(
            "[route] backend {k} ({}) {}; failing over",
            self.cfg.backends[k as usize].addr,
            if graceful {
                "is draining"
            } else {
                "is not answering"
            }
        );
        // Freeze every session the backend owns. Sessions already
        // frozen by a concurrent migration are left to that migration's
        // error handling.
        let frozen: Vec<u64> = {
            let mut map = self.sessions.lock().expect("sessions lock");
            map.iter_mut()
                .filter(|(_, st)| st.backend == k && !st.frozen)
                .map(|(id, st)| {
                    st.frozen = true;
                    *id
                })
                .collect()
        };
        if graceful {
            // Let in-flight replies drain first (the draining backend
            // still serves established connections), then close our
            // connections so its drain can complete.
            if !self.wait_settled(&frozen, Duration::from_secs(30)) {
                eprintln!("[route] backend {k}: in-flight frames did not settle within 30s");
            }
            self.close_backend_conns(k);
        } else {
            // Dead backend: closing first is what unblocks the relays,
            // whose error paths settle the in-flight counts.
            self.close_backend_conns(k);
            if !self.wait_settled(&frozen, Duration::from_secs(30)) {
                eprintln!("[route] backend {k}: in-flight frames did not settle within 30s");
            }
        }
        self.ring.lock().expect("ring lock").remove(k);

        let snaps = self.load_backend_snapshots(k, graceful);
        let mut restored = 0u64;
        let mut lost = 0u64;
        for &id in &frozen {
            let target = self.ring.lock().expect("ring lock").route(id);
            let outcome = match snaps.get(&id) {
                Some(snap) => self
                    .control_client(target)
                    .and_then(|mut c| {
                        c.migrate_in(id, encode_session_wire(snap))
                            .map_err(|e| format!("install session {id} on backend {target}: {e}"))
                    })
                    .map(|()| true),
                None => {
                    // No snapshot: cold-restart from the remembered
                    // Hello so the session keeps serving (with reset
                    // state — counted lost below).
                    let hello = self
                        .sessions
                        .lock()
                        .expect("sessions lock")
                        .get(&id)
                        .and_then(|st| st.hello);
                    match hello {
                        Some((bits, depth)) => self.control_client(target).and_then(|mut c| {
                            c.hello(id, bits, depth).map(|_| false).map_err(|e| {
                                format!("re-hello session {id} on backend {target}: {e}")
                            })
                        }),
                        None => Err(format!("session {id}: no snapshot and no remembered hello")),
                    }
                }
            };
            let mut map = self.sessions.lock().expect("sessions lock");
            match outcome {
                Ok(exact) => {
                    if let Some(st) = map.get_mut(&id) {
                        st.backend = target;
                    }
                    if exact {
                        restored += 1;
                    } else {
                        lost += 1;
                    }
                }
                Err(e) => {
                    eprintln!("[route] failover of backend {k}: {e}");
                    map.remove(&id);
                    lost += 1;
                    self.counters.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.counters
            .sessions_restored
            .fetch_add(restored, Ordering::Relaxed);
        self.counters
            .sessions_lost
            .fetch_add(lost, Ordering::Relaxed);
        self.thaw(&frozen);
        self.counters.failovers.fetch_add(1, Ordering::Relaxed);
        eprintln!(
            "[route] failover of backend {k} complete: {restored} session(s) restored, {lost} lost or reset"
        );
    }

    /// Reads backend `k`'s snapshot directory into a per-session map.
    /// For a graceful failover this first waits (up to 30s) for the
    /// backend's drain marker — the file its `join()` writes only after
    /// every final `shard<j>.nts` is on disk — so a mid-run periodic
    /// snapshot is never mistaken for the authoritative drain state.
    fn load_backend_snapshots(&self, k: u32, graceful: bool) -> HashMap<u64, SessionSnapshot> {
        let mut out = HashMap::new();
        let Some(dir) = &self.cfg.backends[k as usize].snapshot_dir else {
            eprintln!("[route] backend {k} has no snapshot dir; sessions will cold-restart");
            return out;
        };
        if graceful {
            let deadline = Instant::now() + Duration::from_secs(30);
            while !dir.join(DRAIN_MARKER).exists() {
                if Instant::now() >= deadline {
                    eprintln!(
                        "[route] backend {k}: no drain marker in {dir:?} after 30s; \
                         restoring from whatever snapshots exist"
                    );
                    break;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("[route] backend {k}: cannot scan {dir:?}: {e}");
                return out;
            }
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().is_none_or(|ext| ext != SNAPSHOT_EXT) {
                continue;
            }
            match read_snapshot_file(&path) {
                Ok((artifact, _)) => {
                    for s in artifact.sessions {
                        out.insert(s.session_id, s);
                    }
                }
                Err(e) => eprintln!("[route] backend {k}: refusing snapshot {path:?}: {e}"),
            }
        }
        out
    }
}

// ---- connection threads ------------------------------------------------

/// The forwarder half of one client connection.
fn forwarder_loop(core: &Arc<Core>, mut client: TcpStream) {
    let conn_id = core.next_conn_id.fetch_add(1, Ordering::SeqCst);
    let n = core.cfg.backends.len();
    core.conns
        .lock()
        .expect("conns lock")
        .insert(conn_id, (0..n).map(|_| None).collect());
    let (tx, rx) = mpsc::channel::<RelayItem>();
    let relay = {
        let core = Arc::clone(core);
        let writer = match client.try_clone() {
            Ok(w) => w,
            Err(e) => {
                eprintln!("[route] cannot split client connection: {e}");
                core.conns.lock().expect("conns lock").remove(&conn_id);
                return;
            }
        };
        std::thread::Builder::new()
            .name("ntp-route-relay".into())
            .spawn(move || relay_loop(&core, writer, rx))
    };
    let Ok(relay) = relay else {
        core.conns.lock().expect("conns lock").remove(&conn_id);
        return;
    };

    let mut backends: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    loop {
        let body = match wire::read_frame(&mut client, core.cfg.max_frame) {
            Ok(body) => body,
            Err(WireError::Io(_)) => break, // EOF, timeout, reset: done.
            Err(e) => {
                let sent = tx.send(RelayItem::Direct(e.refusal())).is_ok();
                // Cannot resync past a huge declared length.
                let poisoned = matches!(
                    e,
                    WireError::Oversized {
                        recoverable: false,
                        ..
                    }
                );
                if poisoned || !sent {
                    break;
                }
                continue;
            }
        };
        let req = match wire::decode_request(&body) {
            Ok(req) => req,
            Err(msg) => {
                if tx
                    .send(RelayItem::Direct(Response::Error {
                        code: ErrorCode::BadRequest,
                        message: msg,
                    }))
                    .is_err()
                {
                    break;
                }
                continue;
            }
        };

        let hello = match &req {
            Request::Shutdown => {
                // Cluster-wide shutdown: every live backend drains, then
                // the router itself. Backends finish their drains once
                // the surviving client connections (and their backend
                // connections) close.
                for k in 0..n as u32 {
                    if !core.alive[k as usize].load(Ordering::SeqCst) {
                        continue;
                    }
                    match core.control_client(k).and_then(|mut c| {
                        c.shutdown_server().map_err(|e| format!("backend {k}: {e}"))
                    }) {
                        Ok(()) => {}
                        Err(e) => eprintln!("[route] shutdown forward failed: {e}"),
                    }
                }
                let _ = tx.send(RelayItem::Direct(Response::Bye));
                core.begin_drain();
                break;
            }
            Request::Metrics => {
                if tx
                    .send(RelayItem::Direct(Response::Metrics {
                        json: core.metrics_snapshot().to_json().render(),
                    }))
                    .is_err()
                {
                    break;
                }
                continue;
            }
            Request::Migrate { .. } => {
                // Client-driven migration would desynchronize the
                // placement table; the router owns session movement.
                if tx
                    .send(RelayItem::Direct(Response::Error {
                        code: ErrorCode::BadRequest,
                        message: "session migration is router-managed; \
                                  use `ntp route --migrate` or the router API"
                            .into(),
                    }))
                    .is_err()
                {
                    break;
                }
                continue;
            }
            Request::Hello { bits, depth, .. } => Some((*bits, *depth)),
            _ => None,
        };
        let session = req.session().expect("routed requests name a session");
        let (backend, frames) = core.place(session, hello);

        // Lazily open (and register) this connection's pipe to the
        // chosen backend; tell the relay about its read half first so
        // the queue order guarantees the relay knows the stream before
        // the first ticket referencing it.
        if backends[backend as usize].is_none() {
            match core.connect_backend(backend).and_then(|s| {
                let reader = s.try_clone()?;
                let registered = s.try_clone()?;
                Ok((s, reader, registered))
            }) {
                Ok((stream, reader, registered)) => {
                    if let Some(slots) = core.conns.lock().expect("conns lock").get_mut(&conn_id) {
                        slots[backend as usize] = Some(registered);
                    }
                    if tx
                        .send(RelayItem::BackendConn {
                            backend,
                            stream: reader,
                        })
                        .is_err()
                    {
                        core.unplace(session);
                        break;
                    }
                    backends[backend as usize] = Some(stream);
                }
                Err(e) => {
                    core.unplace(session);
                    core.counters.errors.fetch_add(1, Ordering::Relaxed);
                    if tx
                        .send(RelayItem::Direct(Response::Error {
                            code: ErrorCode::Internal,
                            message: format!("backend {backend} unreachable: {e}"),
                        }))
                        .is_err()
                    {
                        break;
                    }
                    continue;
                }
            }
        }
        let t0 = Instant::now();
        let forwarded = {
            let stream = backends[backend as usize].as_mut().expect("just opened");
            wire::write_frame(stream, &body)
        };
        match forwarded {
            Ok(()) => {
                core.counters.forwarded.fetch_add(1, Ordering::Relaxed);
                if tx
                    .send(RelayItem::Forwarded {
                        backend,
                        session,
                        t0,
                    })
                    .is_err()
                {
                    core.unplace(session);
                    break;
                }
            }
            Err(e) => {
                backends[backend as usize] = None;
                if let Some(slots) = core.conns.lock().expect("conns lock").get_mut(&conn_id) {
                    slots[backend as usize] = None;
                }
                core.unplace(session);
                core.counters.errors.fetch_add(1, Ordering::Relaxed);
                if tx
                    .send(RelayItem::Direct(Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("backend {backend} write failed: {e}"),
                    }))
                    .is_err()
                {
                    break;
                }
            }
        }

        // Scripted migration: fire once the watched session has had
        // enough frames forwarded (and their replies will settle — the
        // migration path waits for that itself).
        if let Some(t) = core.cfg.migrate_trigger {
            if t.session == session
                && frames >= t.after_frames
                && !core.trigger_fired.swap(true, Ordering::SeqCst)
            {
                let mover = Arc::clone(core);
                let spawned = std::thread::Builder::new()
                    .name("ntp-route-migrate".into())
                    .spawn(move || {
                        // `to: None` resolves against where the session
                        // lives *now*: always a real move.
                        let to = t.to.unwrap_or_else(|| {
                            let map = mover.sessions.lock().expect("sessions lock");
                            let from = map.get(&t.session).map_or(0, |st| st.backend);
                            (from + 1) % mover.cfg.backends.len() as u32
                        });
                        if let Err(e) = mover.migrate_session(t.session, to) {
                            eprintln!("[route] scripted migration failed: {e}");
                        }
                    });
                if spawned.is_err() {
                    core.trigger_fired.store(false, Ordering::SeqCst);
                }
            }
        }
    }
    drop(tx); // Relay drains the queue, then exits.
    let _ = relay.join();
    core.conns.lock().expect("conns lock").remove(&conn_id);
    // Dropping `backends` here closes this connection's pipes; the
    // backends see EOF and release the connection slots.
}

/// The relay half: pops tickets in order, reads one backend reply per
/// ticket, forwards it verbatim, and settles the in-flight count. Keeps
/// consuming after the client dies so every forwarded frame still
/// settles (migrations and failovers wait on those counts).
fn relay_loop(core: &Arc<Core>, mut client: TcpStream, rx: Receiver<RelayItem>) {
    let n = core.cfg.backends.len();
    let mut readers: Vec<Option<TcpStream>> = (0..n).map(|_| None).collect();
    let mut scratch: Vec<u8> = Vec::with_capacity(256);
    let mut client_ok = true;
    for item in rx {
        match item {
            RelayItem::BackendConn { backend, stream } => {
                readers[backend as usize] = Some(stream);
            }
            RelayItem::Direct(resp) => {
                if client_ok {
                    scratch.clear();
                    wire::append_response_frame(&mut scratch, &resp);
                    client_ok = client
                        .write_all(&scratch)
                        .and_then(|()| client.flush())
                        .is_ok();
                }
            }
            RelayItem::Forwarded {
                backend,
                session,
                t0,
            } => {
                let reply = match readers[backend as usize].as_mut() {
                    Some(stream) => wire::read_frame(stream, core.cfg.backend_max_frame)
                        .map_err(|e| e.to_string()),
                    None => Err("backend connection is gone".into()),
                };
                match reply {
                    Ok(body) => {
                        let is_error = body.first() == Some(&wire::K_ERROR);
                        core.record(backend, t0.elapsed(), is_error);
                        if client_ok {
                            client_ok = wire::write_frame(&mut client, &body).is_ok();
                        }
                    }
                    Err(e) => {
                        readers[backend as usize] = None;
                        core.counters.errors.fetch_add(1, Ordering::Relaxed);
                        core.record(backend, t0.elapsed(), true);
                        if client_ok {
                            scratch.clear();
                            wire::append_response_frame(
                                &mut scratch,
                                &Response::Error {
                                    code: ErrorCode::Internal,
                                    message: format!("backend {backend} failed mid-request: {e}"),
                                },
                            );
                            client_ok = client
                                .write_all(&scratch)
                                .and_then(|()| client.flush())
                                .is_ok();
                        }
                    }
                }
                core.unplace(session);
            }
        }
    }
}

// ---- probe thread ------------------------------------------------------

/// Polls each live backend's metrics. `draining: 1` triggers a graceful
/// failover; two consecutive probe failures (connect, request, or a
/// reply that does not decode as a snapshot) a hard one. Probe
/// connections are persistent — a draining backend refuses *new*
/// connections but keeps serving established ones, which is exactly
/// how the flag stays readable mid-drain.
fn probe_loop(core: &Arc<Core>) {
    let n = core.cfg.backends.len();
    let mut probes: Vec<Option<Client>> = (0..n).map(|_| None).collect();
    let mut failures = vec![0u32; n];
    // The first round runs immediately: the persistent probe
    // connections must exist *before* any backend can start draining,
    // or a drain inside the first interval would read as a dead backend
    // (a draining server refuses new connections, including probes).
    while !core.drain.load(Ordering::SeqCst) {
        for k in 0..n {
            if !core.alive[k].load(Ordering::SeqCst) {
                probes[k] = None;
                continue;
            }
            if probes[k].is_none() {
                match Client::connect_with_timeout(
                    core.cfg.backends[k].addr.as_str(),
                    Duration::from_millis(500),
                    Duration::from_secs(2),
                ) {
                    Ok(c) => probes[k] = Some(c),
                    Err(_) => {
                        failures[k] += 1;
                    }
                }
            }
            if let Some(probe) = probes[k].as_mut() {
                match probe.metrics() {
                    Ok(snap) => {
                        failures[k] = 0;
                        if reports_draining(&snap) {
                            probes[k] = None; // Our conn must close for its drain to finish.
                            core.failover(k as u32, true);
                        }
                    }
                    Err(_) => {
                        probes[k] = None;
                        failures[k] += 1;
                    }
                }
            }
            if failures[k] >= 2 && core.alive[k].load(Ordering::SeqCst) {
                if core.drain.load(Ordering::SeqCst) {
                    return; // Shutting down, not failing over.
                }
                failures[k] = 0;
                core.failover(k as u32, false);
            }
        }
        // Sleep in slices so a router drain never waits a full period.
        let until = Instant::now() + core.cfg.probe_interval;
        while Instant::now() < until {
            if core.drain.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// Whether a backend's metrics snapshot sets its `server` section's
/// `draining` flag.
fn reports_draining(snap: &Snapshot) -> bool {
    snap.get("server")
        .and_then(|s| s.counter_by_name("draining"))
        == Some(1)
}

// ---- handle ------------------------------------------------------------

/// A running router; drop-in for a `ServerHandle` where the lifecycle
/// matters: `start(cfg)` → … → client `Shutdown` (or
/// [`RouterHandle::request_shutdown`]) → [`RouterHandle::join`].
pub struct RouterHandle {
    core: Arc<Core>,
    accept: Option<JoinHandle<()>>,
    probe: Option<JoinHandle<()>>,
}

impl RouterHandle {
    /// The address actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.core.addr
    }

    /// Migrates a live session to backend `to` (blocking; returns once
    /// the session is serving from the target).
    pub fn migrate(&self, session: u64, to: u32) -> Result<(), String> {
        self.core.migrate_session(session, to)
    }

    /// The router's metrics snapshot, as a `Metrics` frame answers it
    /// (the in-process counterpart of `ServerHandle::metrics_snapshot`).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.core.metrics_snapshot()
    }

    /// [`RouterHandle::metrics_snapshot`] rendered as the `Metrics`
    /// reply's JSON text.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json().render()
    }

    /// Starts the router drain: stop accepting, let connections finish.
    /// Does **not** shut down backends — a client `Shutdown` frame does
    /// both.
    pub fn request_shutdown(&self) {
        self.core.begin_drain();
    }

    /// Waits for the drain to complete and returns the final
    /// [`RouterHandle::metrics_snapshot`], taken after the last
    /// connection has closed and the probe thread has exited.
    pub fn join(mut self) -> Snapshot {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        while self.core.active_conns.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
        if let Some(h) = self.probe.take() {
            let _ = h.join();
        }
        self.core.metrics_snapshot()
    }
}

/// Binds `cfg.addr` and spawns the acceptor and the probe thread.
/// Fails with a one-line diagnostic naming the address when it cannot
/// bind (same contract as `ntp_serve::serve`).
pub fn start(cfg: RouterConfig) -> Result<RouterHandle, String> {
    cfg.validate()?;
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| format!("route: cannot bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("route: cannot resolve bound address: {e}"))?;
    let labels: Vec<String> = cfg.backends.iter().map(|b| b.addr.clone()).collect();
    let ring = HashRing::new(&labels, cfg.vnodes);
    let n = cfg.backends.len();
    let core = Arc::new(Core {
        addr,
        ring: Mutex::new(ring),
        sessions: Mutex::new(HashMap::new()),
        settled: Condvar::new(),
        alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
        conns: Mutex::new(HashMap::new()),
        next_conn_id: AtomicU64::new(0),
        active_conns: AtomicUsize::new(0),
        drain: AtomicBool::new(false),
        counters: RouteCounters::default(),
        metrics: Mutex::new((0..n).map(|_| BackendMetrics::new()).collect()),
        trigger_fired: AtomicBool::new(false),
        start: Instant::now(),
        cfg,
    });

    let accept = {
        let core = Arc::clone(&core);
        std::thread::Builder::new()
            .name("ntp-route-accept".into())
            .spawn(move || accept_loop(&core, listener))
            .map_err(|e| format!("route: cannot spawn acceptor: {e}"))?
    };
    let probe = {
        let core = Arc::clone(&core);
        std::thread::Builder::new()
            .name("ntp-route-probe".into())
            .spawn(move || probe_loop(&core))
            .map_err(|e| format!("route: cannot spawn probe thread: {e}"))?
    };
    Ok(RouterHandle {
        core,
        accept: Some(accept),
        probe: Some(probe),
    })
}

fn accept_loop(core: &Arc<Core>, listener: TcpListener) {
    for stream in listener.incoming() {
        if core.drain.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let slot = core.active_conns.fetch_add(1, Ordering::SeqCst);
        if slot >= core.cfg.max_conns {
            core.counters.refused.fetch_add(1, Ordering::Relaxed);
            refuse(stream);
            core.active_conns.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        core.counters.accepted.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let core2 = Arc::clone(core);
        let spawned = std::thread::Builder::new()
            .name("ntp-route-conn".into())
            .spawn(move || {
                forwarder_loop(&core2, stream);
                core2.active_conns.fetch_sub(1, Ordering::SeqCst);
            });
        if spawned.is_err() {
            core.active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// One `Refused` error frame on a connection we will not serve.
fn refuse(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut scratch = Vec::with_capacity(64);
    wire::append_response_frame(
        &mut scratch,
        &Response::Error {
            code: ErrorCode::Refused,
            message: "router connection limit reached".into(),
        },
    );
    let _ = stream.write_all(&scratch);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_rejects_nonsense_with_one_liners() {
        let backend = |addr: &str| BackendSpec {
            addr: addr.into(),
            snapshot_dir: None,
        };
        let base = RouterConfig::new(vec![backend("127.0.0.1:5001"), backend("127.0.0.1:5002")]);
        assert!(base.validate().is_ok());
        for (cfg, needle) in [
            (RouterConfig::new(Vec::new()), "backend"),
            (
                RouterConfig {
                    vnodes: 0,
                    ..base.clone()
                },
                "vnodes",
            ),
            (
                RouterConfig {
                    max_conns: 0,
                    ..base.clone()
                },
                "max_conns",
            ),
            (
                RouterConfig {
                    probe_interval: Duration::ZERO,
                    ..base.clone()
                },
                "probe_interval",
            ),
            (
                RouterConfig {
                    max_frame: 1,
                    ..base.clone()
                },
                "frame cap",
            ),
            (
                RouterConfig {
                    migrate_trigger: Some(MigrateTrigger {
                        session: 1,
                        to: Some(9),
                        after_frames: 1,
                    }),
                    ..base.clone()
                },
                "out of range",
            ),
            (
                RouterConfig::new(vec![backend("127.0.0.1:5001"), backend("127.0.0.1:5001")]),
                "distinct",
            ),
        ] {
            let err = cfg.validate().expect_err("must be rejected");
            assert!(err.contains(needle), "`{err}` should mention {needle}");
            assert!(!err.contains('\n'), "one-line diagnostic: {err}");
        }
    }

    #[test]
    fn draining_flag_parses_out_of_server_metrics_json() {
        let server = |counters: &str| -> Snapshot {
            format!(r#"{{"server":{{"counters":{counters},"gauges":{{}},"histograms":{{}}}}}}"#)
                .parse()
                .expect("a server snapshot")
        };
        assert!(reports_draining(&server(r#"{"draining":1}"#)));
        assert!(!reports_draining(&server(r#"{"draining":0}"#)));
        assert!(!reports_draining(&server("{}")));
        assert!(!reports_draining(&Snapshot::new()));
    }
}
