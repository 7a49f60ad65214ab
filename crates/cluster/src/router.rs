//! The cluster router: one listener fronting N `ntp serve` backends.
//!
//! # Data plane
//!
//! The router is a server whose shards are remote: it runs on
//! `ntp-serve`'s acceptor and event loops ([`ntp_serve::serve_routed`])
//! with `Core` as their [`Directory`]. A loop places each
//! session-bearing frame through the placement table (falling back to
//! the consistent-hash [`HashRing`]) and writes the raw frame to its own
//! connection to that backend; each reply settles the oldest frame in
//! flight there and goes back verbatim, slotted by the request's
//! sequence number. Replies thus reach the client in request order —
//! which implies per-session order, the invariant the offline-oracle
//! lockstep checks depend on. A frozen session's frames park with the
//! loop that read them; no thread blocks.
//!
//! # Control plane
//!
//! A session can be **migrated** live: the router freezes it (its new
//! frames park in the loops), waits for in-flight replies to drain,
//! extracts it from the source backend (`Migrate` with no payload),
//! installs the returned checksummed snapshot into the target (`Migrate`
//! with payload), repoints the placement table, and thaws, which wakes
//! every loop to send the parked frames. Per-prediction statistics ride
//! inside the snapshot, so served stats stay in lockstep with the
//! offline oracle across the move.
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
use ntp_serve::{Directory, LoopWaker, ServeConfig, ServerHandle, Settled, DRAIN_MARKER};
use ntp_telemetry::{CounterId, HistogramId, MetricsRegistry, Snapshot, ToJson};
use ntp_tracefile::{encode_session_wire, read_snapshot_file, SessionSnapshot, SNAPSHOT_EXT};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default number of ring points each backend contributes.
pub const DEFAULT_VNODES: usize = 64;

/// Default backend health-probe period.
pub const DEFAULT_PROBE_INTERVAL: Duration = Duration::from_secs(1);

/// Cap on reply frames a control client reads from a backend (8 MiB):
/// `MigrateOk` carries a whole serialized session, which outgrows the
/// 1 MiB client default long before the paper-point configs do.
pub const DEFAULT_BACKEND_MAX_FRAME: u32 = 8 << 20;

/// Connect timeout of a probe and of a loop's data connection — the one
/// blocking call a router loop makes, so what a blackholed backend costs
/// the loop per attempt until the probe fails it over.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

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
    /// Concurrent client-connection limit (checked by `ServeConfig::validate`).
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
            max_conns: 64,
            migrate_trigger: None,
        }
    }

    /// Rejects nonsensical router settings with a one-line diagnostic.
    pub fn validate(&self) -> Result<(), String> {
        if self.backends.is_empty() {
            return Err("route: at least one backend is required".into());
        }
        if self.vnodes == 0 {
            return Err("route: vnodes must be >= 1".into());
        }
        if self.probe_interval.is_zero() {
            return Err("route: probe_interval must be > 0".into());
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
    /// Frames placed but not yet settled.
    outstanding: u32,
    /// Frozen by a migration or failover: the loops park its frames.
    frozen: bool,
    /// `(bits, depth)` from the last `Hello`, for cold restarts when a
    /// failover finds no snapshot.
    hello: Option<(u32, u32)>,
    /// Frames placed so far (drives [`MigrateTrigger`]).
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

/// The router's directory and control plane, shared by the event loops,
/// the probe and migration threads and the handle.
struct Core {
    cfg: RouterConfig,
    /// This core, for the thread a scripted migration runs on.
    me: Weak<Core>,
    ring: Mutex<HashRing>,
    /// The placement table; guarded with `settled` so freeze/thaw and
    /// outstanding-drain waits share one notification channel.
    sessions: Mutex<HashMap<u64, SessionState>>,
    settled: Condvar,
    /// Per-backend liveness; flipped off exactly once per failover.
    alive: Vec<AtomicBool>,
    /// Every loop's data connection, with its backend: failover shuts
    /// these down so a draining backend's connection count reaches zero
    /// (its drain completes only then) and a dead one's frames in flight
    /// fail at once. An entry dies with its loop's connection.
    data_conns: Mutex<Vec<(u32, Weak<TcpStream>)>>,
    /// Wakes the loops at a thaw, to send the frames they parked.
    loops: OnceLock<LoopWaker>,
    /// Set once the router drains; the probe exits on it.
    drain: AtomicBool,
    counters: RouteCounters,
    metrics: Mutex<Vec<BackendMetrics>>,
    trigger_fired: AtomicBool,
}

impl Core {
    /// Waits until none of `ids` has an in-flight frame. False on
    /// timeout (an in-flight reply that never settles — a wedged
    /// backend is failed over hard, which fails its frames in flight).
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

    /// Thaws `ids` (whatever subset still exists), wakes waiters, and
    /// wakes every loop to send the frames it parked.
    fn thaw(&self, ids: &[u64]) {
        let mut map = self.sessions.lock().expect("sessions lock");
        for id in ids {
            if let Some(st) = map.get_mut(id) {
                st.frozen = false;
            }
        }
        self.settled.notify_all();
        if let Some(loops) = self.loops.get() {
            loops.wake_all();
        }
    }

    /// Runs a due scripted migration on its own thread. `to: None`
    /// resolves against where the session lives *now*: always a real
    /// move.
    fn spawn_migration(&self, t: MigrateTrigger) {
        let Some(core) = self.me.upgrade() else {
            return;
        };
        let spawned = std::thread::Builder::new()
            .name("ntp-route-migrate".into())
            .spawn(move || {
                let to = t.to.unwrap_or_else(|| {
                    let map = core.sessions.lock().expect("sessions lock");
                    let from = map.get(&t.session).map_or(0, |st| st.backend);
                    (from + 1) % core.cfg.backends.len() as u32
                });
                if let Err(e) = core.migrate_session(t.session, to) {
                    eprintln!("[route] scripted migration failed: {e}");
                }
            });
        if spawned.is_err() {
            self.trigger_fired.store(false, Ordering::SeqCst); // The next frame retries.
        }
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
        client.set_max_frame(DEFAULT_BACKEND_MAX_FRAME);
        Ok(client)
    }

    /// Shuts down every loop's data connection to `k` (both directions:
    /// each loop reads EOF and fails whatever is still in flight there).
    fn close_backend_conns(&self, k: u32) {
        let conns = self.data_conns.lock().expect("data conns lock");
        for (_, conn) in conns.iter().filter(|(b, _)| *b == k) {
            if let Some(stream) = conn.upgrade() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
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
        if moved.is_ok() {
            if let Some(st) = self
                .sessions
                .lock()
                .expect("sessions lock")
                .get_mut(&session)
            {
                st.backend = to;
            }
            self.counters.migrations.fetch_add(1, Ordering::Relaxed);
            eprintln!("[route] migrated session {session}: backend {from} -> {to}");
        }
        self.thaw(&[session]);
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
        let state = if graceful {
            "is draining"
        } else {
            "is not answering"
        };
        let addr = &self.cfg.backends[k as usize].addr;
        eprintln!("[route] backend {k} ({addr}) {state}; failing over");
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
        // A draining backend still serves established connections: let
        // its in-flight replies arrive, then close our connections so its
        // drain can complete. A dead one's are closed first, which fails
        // (and so settles) whatever the loops still have in flight there.
        if !graceful {
            self.close_backend_conns(k);
        }
        if !self.wait_settled(&frozen, Duration::from_secs(30)) {
            eprintln!("[route] backend {k}: in-flight frames did not settle within 30s");
        }
        if graceful {
            self.close_backend_conns(k);
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
        let c = &self.counters;
        c.sessions_restored.fetch_add(restored, Ordering::Relaxed);
        c.sessions_lost.fetch_add(lost, Ordering::Relaxed);
        self.thaw(&frozen);
        c.failovers.fetch_add(1, Ordering::Relaxed);
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

impl Directory for Core {
    /// `None` while the session is frozen; otherwise assigns an unknown
    /// session through the ring, counts the frame in flight, and fires
    /// the scripted migration once it is due.
    fn place(&self, session: u64, hello: Option<(u32, u32)>) -> Option<u32> {
        let (backend, frames) = {
            let mut map = self.sessions.lock().expect("sessions lock");
            let st = map.entry(session).or_insert_with(|| SessionState {
                backend: self.ring.lock().expect("ring lock").route(session),
                outstanding: 0,
                frozen: false,
                hello: None,
                frames: 0,
            });
            if st.frozen {
                return None;
            }
            st.outstanding += 1;
            st.frames += 1;
            if hello.is_some() {
                st.hello = hello;
            }
            (st.backend, st.frames)
        };
        if let Some(t) = self.cfg.migrate_trigger {
            if t.session == session
                && frames >= t.after_frames
                && !self.trigger_fired.swap(true, Ordering::SeqCst)
            {
                self.spawn_migration(t);
            }
        }
        Some(backend)
    }

    /// Opens a data connection to backend `k` and registers it for
    /// [`Core::close_backend_conns`].
    fn connect(&self, k: u32) -> io::Result<Arc<TcpStream>> {
        let alive = || match self.alive[k as usize].load(Ordering::SeqCst) {
            true => Ok(()),
            false => Err(io::Error::other(format!("backend {k} is down"))),
        };
        alive()?;
        let addrs = self.cfg.backends[k as usize].addr.to_socket_addrs();
        let addr = addrs?.next().ok_or(io::ErrorKind::AddrNotAvailable)?;
        let stream = Arc::new(TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?);
        stream.set_nodelay(true)?;
        let mut conns = self.data_conns.lock().expect("data conns lock");
        // Checked again under the lock `close_backend_conns` takes: a
        // connection opened during a failover is refused, never missed.
        alive()?;
        conns.retain(|(_, c)| c.strong_count() > 0);
        conns.push((k, Arc::downgrade(&stream)));
        Ok(stream)
    }

    /// Books one frame in the route and backend metrics, then marks it
    /// settled and wakes every waiter (migrations and failovers wait for
    /// their sessions' frames to settle).
    fn settle(&self, backend: u32, session: u64, how: Settled) {
        let (rtt, error) = match how {
            Settled::Answered { rtt, error } => (Some(rtt), error),
            Settled::Failed(rtt) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                (rtt, true)
            }
            Settled::Shed => (None, false),
        };
        if let Some(rtt) = rtt {
            self.counters.forwarded.fetch_add(1, Ordering::Relaxed);
            let mut metrics = self.metrics.lock().expect("metrics lock");
            let bm = &mut metrics[backend as usize];
            bm.reg.inc(bm.c_forwarded);
            if error {
                bm.reg.inc(bm.c_errors);
            }
            let us = rtt.as_micros().min(u64::MAX as u128) as u64;
            bm.reg.observe(bm.h_latency, us);
        }
        let mut map = self.sessions.lock().expect("sessions lock");
        if let Some(st) = map.get_mut(&session) {
            st.outstanding = st.outstanding.saturating_sub(1);
        }
        self.settled.notify_all();
    }

    /// Cluster-wide shutdown: every live backend drains, then the router
    /// itself. Backends finish their drains once the router's loops,
    /// having answered their last client, close their connections.
    fn shutdown(&self) {
        for k in 0..self.cfg.backends.len() as u32 {
            if !self.alive[k as usize].load(Ordering::SeqCst) {
                continue;
            }
            if let Err(e) = self
                .control_client(k)
                .and_then(|mut c| c.shutdown_server().map_err(|e| format!("backend {k}: {e}")))
            {
                eprintln!("[route] shutdown forward failed: {e}");
            }
        }
        self.drain.store(true, Ordering::SeqCst);
    }

    /// The router's snapshot, shaped like a server's: a `router` section
    /// (the `route.*` counters, then the loops' connection counters) and
    /// one `backend<k>` section per backend, so `ntp top` reads a router
    /// and a server through one schema.
    fn metrics(&self, conns: MetricsRegistry) -> Snapshot {
        let mut router = MetricsRegistry::new();
        let c = &self.counters;
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let sessions = self.sessions.lock().expect("sessions lock").len() as u64;
        for (name, v) in [
            ("route.sessions", sessions),
            ("route.forwarded", load(&c.forwarded)),
            ("route.migrations", load(&c.migrations)),
            ("route.failovers", load(&c.failovers)),
            ("route.errors", load(&c.errors)),
            ("route.sessions_lost", load(&c.sessions_lost)),
            ("route.sessions_restored", load(&c.sessions_restored)),
        ] {
            let id = router.counter(name);
            router.set_counter(id, v);
        }
        router.merge(&conns);
        let mut snap = Snapshot::new();
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
                    CONNECT_TIMEOUT,
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
    frontend: ServerHandle,
    probe: JoinHandle<()>,
}

impl RouterHandle {
    /// The address actually bound (resolves `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// Migrates a live session to backend `to` (blocking; returns once
    /// the session is serving from the target).
    pub fn migrate(&self, session: u64, to: u32) -> Result<(), String> {
        self.core.migrate_session(session, to)
    }

    /// The router's metrics snapshot, as a `Metrics` frame answers it
    /// (the in-process counterpart of `ServerHandle::metrics_snapshot`).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.frontend.metrics_snapshot()
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
        self.core.drain.store(true, Ordering::SeqCst);
        self.frontend.request_shutdown();
    }

    /// Waits for the drain to complete and returns the final
    /// [`RouterHandle::metrics_snapshot`], taken after the probe thread
    /// has exited and the last connection has closed.
    pub fn join(self) -> Snapshot {
        let _ = self.probe.join();
        self.frontend.join()
    }
}

/// Binds `cfg.addr`, starts the event loops (`default_event_threads()`
/// of them) and the probe thread. Fails with a one-line diagnostic
/// naming the address when it cannot bind (same contract as
/// `ntp_serve::serve`, which also makes it refuse off Linux).
pub fn start(cfg: RouterConfig) -> Result<RouterHandle, String> {
    cfg.validate()?;
    let frontend_cfg = ServeConfig {
        addr: cfg.addr.clone(),
        max_conns: cfg.max_conns,
        ..ServeConfig::default()
    };
    let labels: Vec<String> = cfg.backends.iter().map(|b| b.addr.clone()).collect();
    let n = cfg.backends.len();
    let core = Arc::new_cyclic(|me| Core {
        me: me.clone(),
        ring: Mutex::new(HashRing::new(&labels, cfg.vnodes)),
        sessions: Mutex::new(HashMap::new()),
        settled: Condvar::new(),
        alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
        data_conns: Mutex::new(Vec::new()),
        loops: OnceLock::new(),
        drain: AtomicBool::new(false),
        counters: RouteCounters::default(),
        metrics: Mutex::new((0..n).map(|_| BackendMetrics::new()).collect()),
        trigger_fired: AtomicBool::new(false),
        cfg,
    });
    let frontend = ntp_serve::serve_routed(frontend_cfg, Arc::clone(&core) as Arc<dyn Directory>)
        .map_err(|e| format!("route: {}", e.strip_prefix("serve: ").unwrap_or(&e)))?;
    let _ = core.loops.set(frontend.loop_waker());
    let prober = Arc::clone(&core);
    let spawned = std::thread::Builder::new()
        .name("ntp-route-probe".into())
        .spawn(move || probe_loop(&prober));
    let probe = match spawned {
        Ok(probe) => probe,
        Err(e) => {
            frontend.request_shutdown();
            frontend.join();
            return Err(format!("route: cannot spawn probe thread: {e}"));
        }
    };
    Ok(RouterHandle {
        core,
        frontend,
        probe,
    })
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
                    probe_interval: Duration::ZERO,
                    ..base.clone()
                },
                "probe_interval",
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
        // The connection limit is the frontend's, checked before binding.
        let Err(err) = start(RouterConfig {
            max_conns: 0,
            ..base
        }) else {
            panic!("max_conns 0 must be rejected");
        };
        assert!(
            err.starts_with("route: ") && err.contains("max_conns"),
            "{err}"
        );
        assert!(!err.contains('\n'), "one-line diagnostic: {err}");
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
