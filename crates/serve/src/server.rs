//! The TCP server: accept loop, the sharded session workers, and the
//! runtime observability plane. The event loops that own the accepted
//! connections live in `event.rs`. A cluster router runs on the same
//! acceptor and loops ([`serve_routed`]), its backends in place of the
//! shards.
//!
//! # Sharding model
//!
//! Sessions are owned by exactly one shard worker, `session % workers`.
//! A shard is a plain thread holding a `HashMap<u64, Session>` of
//! single-threaded [`NextTracePredictor`]s — no locks anywhere on the
//! prediction path. Event loops parse frames and forward requests to the
//! owning shard over a **bounded** queue; a full queue yields an
//! immediate [`Response::Busy`] (explicit backpressure, the request is
//! not applied) instead of unbounded buffering.
//!
//! # Observability
//!
//! Each shard owns a private [`MetricsRegistry`] (frames by type,
//! predictions, typed errors, busy/idle time, per-frame-type latency
//! histograms). Every metric is cumulative; a live rate is the
//! difference of two snapshots ([`rate`]). Nothing on the prediction
//! path is shared or atomic: snapshots travel through the same shard
//! queue as requests (a rare `Job::Snapshot`), so reading metrics costs
//! the shard one queue slot, not a lock. Connection-side totals
//! (accepted/refused, `Busy` replies, protocol errors, resyncs, queue
//! depth) live in relaxed atomics and are folded in at snapshot time.
//! A snapshot leaves the process one way: a `Metrics` wire frame,
//! answered by the connection itself and read with
//! [`crate::Client::metrics`] (by `ntp top` and a router's probe).
//! [`ServerHandle::metrics_snapshot`] collects the same snapshot
//! in-process, and [`ServerHandle::join`] returns the final one.
//!
//! The metric name table and the volatility contract (which counters are
//! deterministic for a fixed replay) are documented in OBSERVABILITY.md.
//!
//! # Limits
//!
//! * `max_conns` concurrent connections; excess connections get one
//!   `Error(refused)` reply and are closed;
//! * [`DEFAULT_MAX_FRAME`](crate::config::DEFAULT_MAX_FRAME) bytes per
//!   frame body; oversized frames are discarded and refused with
//!   `Error(oversized)`, the connection survives;
//! * `read_timeout` bounds how long a connection with nothing in flight
//!   and no I/O progress can hold its slot (and therefore how long a
//!   drain can take).
//!
//! # Shutdown
//!
//! A `Shutdown` frame (or [`ServerHandle::request_shutdown`]) flips the
//! drain flag: the acceptor stops taking connections, established
//! connections keep being served until their clients close (or time
//! out), shard queues drain to empty, and [`ServerHandle::join`]
//! returns the final metrics [`Snapshot`] — with per-shard
//! attribution — once every thread has exited. In-flight
//! sessions are never cut off mid-request.
//!
//! Serving established connections through a drain is deliberate, idle
//! ones included. A cluster router reads `draining` over a persistent,
//! mostly idle probe connection, and settles the frames in flight on
//! its data connections before it closes them. Closing idle connections
//! at drain would count as probe failures, and two of those turn a
//! graceful failover into a hard one.

use crate::config::ServeConfig;
use crate::event::{ConnRouter, Directory};
use crate::poll::WakeFd;
use crate::wire::{self, ErrorCode, Request, Response};
use ntp_core::{NextTracePredictor, PredictorConfig, PredictorStats, TracePredictor};
use ntp_telemetry::{CounterId, GaugeId, HistogramId, MetricsRegistry, Snapshot};
use ntp_tracefile::snapshot::{
    read_snapshot_file, write_snapshot_file, SessionSnapshot, SnapshotArtifact, SNAPSHOT_EXT,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit of shard work: routed requests, or a metrics snapshot
/// travelling the same queue (so reading metrics never locks the shard).
pub(crate) enum Job {
    /// Every routed request one read burst on one connection decoded for
    /// this shard (up to 64), in decode order, each tagged with its
    /// sequence number on that connection and naming its own session:
    /// one queue slot and one completion per burst, whatever the session
    /// mix. Each request is still applied (and its metrics recorded)
    /// individually, in order, so replies are byte-identical to
    /// processing the requests one job each.
    Run {
        reply: Reply,
        entries: Vec<(u64, Request)>,
    },
    /// A snapshot of the shard's registry.
    Snapshot { reply: mpsc::Sender<ShardSnapshot> },
    /// Snapshot-on-demand: persist the shard's sessions to
    /// `<dir>/shard<k>.nts` *now* (the same artifact the graceful drain
    /// writes), replying with the session count written. Rides the
    /// request queue like `Job::Snapshot`, so the write happens between
    /// requests — never mid-update — and the persisted state is a
    /// consistent point in every session's replay.
    Persist {
        dir: PathBuf,
        reply: mpsc::Sender<Result<u64, String>>,
    },
}

impl Job {
    /// Routed requests this job carries (0 for snapshots).
    fn routed(&self) -> usize {
        match self {
            Job::Run { entries, .. } => entries.len(),
            Job::Snapshot { .. } | Job::Persist { .. } => 0,
        }
    }
}

/// Where a shard sends a job's replies: the owning event loop's
/// completion channel, the eventfd that wakes it, and the connection the
/// job came from. Built once per job and used once, when the whole job
/// has been applied.
pub(crate) struct Reply {
    pub tx: mpsc::Sender<Completion>,
    pub wake: Arc<WakeFd>,
    pub conn: u64,
}

impl Reply {
    /// Delivers a job's responses as one completion and pokes the loop
    /// once. A failed send means the loop is gone, which the shard
    /// safely ignores.
    fn send(self, replies: Vec<(u64, Response)>) {
        let _ = self.tx.send(Completion {
            conn: self.conn,
            replies,
        });
        self.wake.wake();
    }
}

/// A shard's answer to one [`Job::Run`], travelling back to an event
/// loop: every `(seq, response)` of the job, in the job's order. Each
/// sequence number slots its response into the connection's in-order
/// reply stream no matter how completions from several shards
/// interleave.
pub(crate) struct Completion {
    pub conn: u64,
    pub replies: Vec<(u64, Response)>,
}

/// One live session: a predictor plus its replay statistics.
struct Session {
    predictor: NextTracePredictor,
    stats: PredictorStats,
}

#[derive(Default)]
pub(crate) struct Counters {
    pub accepted: AtomicU64,
    pub refused: AtomicU64,
    pub busy: AtomicU64,
    pub protocol_errors: AtomicU64,
    pub resyncs: AtomicU64,
    pub read_timeouts: AtomicU64,
    pub sockopt_errors: AtomicU64,
    pub partial_reads: AtomicU64,
}

/// What one event loop shares with the rest of the process: the
/// eventfd that wakes it, and its observability — productive wakeups and
/// a histogram of frames decoded per wakeup (the multiplexing win —
/// higher is fewer syscalls per frame). The mutex is uncontended: the
/// owning loop records once per wakeup, metrics collection reads rarely.
pub(crate) struct LoopShared {
    pub wake: Arc<WakeFd>,
    pub wakeups: AtomicU64,
    pub frames_per_wakeup: std::sync::Mutex<ntp_telemetry::Histogram>,
}

/// Wakes every event loop of one running server: a router's
/// [`Directory`] calls [`LoopWaker::wake_all`] when it thaws sessions,
/// so each loop retries the frames it parked behind them.
pub struct LoopWaker(Arc<[LoopShared]>);

impl LoopWaker {
    /// Pokes every loop (deduped per loop, like a shard completion).
    pub fn wake_all(&self) {
        for l in self.0.iter() {
            l.wake.wake();
        }
    }
}

/// Records a socket-option failure: always counted, logged only the
/// first time per process so a systemically broken stack cannot flood
/// stderr.
pub(crate) fn note_sockopt(counters: &Counters, what: &str, result: std::io::Result<()>) {
    static LOGGED: AtomicBool = AtomicBool::new(false);
    if let Err(e) = result {
        counters.sockopt_errors.fetch_add(1, Ordering::Relaxed);
        if !LOGGED.swap(true, Ordering::Relaxed) {
            eprintln!(
                "[serve] {what} failed: {e} (further failures only counted in conn.sockopt_errors)"
            );
        }
    }
}

/// Connection-side per-shard state: the queue-depth gauge and the
/// `Busy`-rejection counter live here because the rejected request never
/// reaches the shard. Depth is signed: the enqueue increment and the
/// shard's dequeue decrement race benignly, so the value can transiently
/// dip below zero; readers clamp.
#[derive(Default)]
pub(crate) struct ShardShared {
    pub depth: AtomicI64,
    pub busy: AtomicU64,
}

/// The drain flag plus the address that wakes the blocked acceptor.
pub(crate) struct DrainSignal {
    flag: AtomicBool,
    addr: SocketAddr,
}

impl DrainSignal {
    pub(crate) fn is_set(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the drain flag and pokes the (blocking) acceptor awake with
    /// a throwaway loopback connection. Idempotent.
    pub(crate) fn trigger(&self) {
        if !self.flag.swap(true, Ordering::SeqCst) {
            // The acceptor checks the flag before serving each accepted
            // connection, so this wake-up connection is simply dropped.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        }
    }
}

/// The shared server core: shard queues (none for a router), connection
/// counters, the drain signal, a router's [`Directory`], and the
/// snapshot-collection path every metrics consumer uses. Holding a `Hub`
/// keeps the shard queues alive — [`ServerHandle::join`] drops every
/// clone before joining the shard threads.
pub(crate) struct Hub {
    pub senders: Arc<[SyncSender<Job>]>,
    pub shared: Arc<[ShardShared]>,
    pub counters: Arc<Counters>,
    pub drain: Arc<DrainSignal>,
    pub loops: Arc<[LoopShared]>,
    pub remote: Option<Arc<dyn Directory>>,
    start: Instant,
}

impl Hub {
    /// Collects the full snapshot: a `server` section from the
    /// connection-side atomics, one section per shard, and a `total`
    /// section merging the shard cumulatives — or, for a router, its
    /// directory's snapshot around the connection-side section.
    /// Blocks until every live shard answers (snapshots ride the request
    /// queue); a shard that has already exited is skipped.
    pub(crate) fn collect(&self) -> Snapshot {
        let server = self.server_section();
        if let Some(dir) = &self.remote {
            return dir.metrics(server);
        }
        let mut shards = Vec::with_capacity(self.senders.len());
        for tx in self.senders.iter() {
            let (reply, rx) = mpsc::channel();
            if tx.send(Job::Snapshot { reply }).is_err() {
                continue; // Shard already drained and exited.
            }
            if let Ok(s) = rx.recv_timeout(Duration::from_secs(5)) {
                shards.push(s);
            }
        }
        assemble(server, shards)
    }

    /// The `server` section: the connection-side atomics, the per-loop
    /// frames-per-wakeup histograms and the uptime.
    pub(crate) fn server_section(&self) -> MetricsRegistry {
        let mut server = MetricsRegistry::new();
        for (name, v) in [
            (
                "conns.accepted",
                self.counters.accepted.load(Ordering::Relaxed),
            ),
            (
                "conns.refused",
                self.counters.refused.load(Ordering::Relaxed),
            ),
            ("busy.replies", self.counters.busy.load(Ordering::Relaxed)),
            (
                "protocol.errors",
                self.counters.protocol_errors.load(Ordering::Relaxed),
            ),
            ("resyncs", self.counters.resyncs.load(Ordering::Relaxed)),
            (
                "conn.read_timeouts",
                self.counters.read_timeouts.load(Ordering::Relaxed),
            ),
            (
                "conn.sockopt_errors",
                self.counters.sockopt_errors.load(Ordering::Relaxed),
            ),
            (
                "conn.partial_reads",
                self.counters.partial_reads.load(Ordering::Relaxed),
            ),
            (
                "loop.wakeups",
                self.loops
                    .iter()
                    .map(|l| l.wakeups.load(Ordering::Relaxed))
                    .sum(),
            ),
            // 0/1: whether a drain has been requested. A cluster router
            // probes this to tell a *draining* backend (snapshots coming,
            // wait for them) from a dead one (restore from the last
            // snapshots it has).
            ("draining", u64::from(self.drain.is_set())),
        ] {
            let id = server.counter(name);
            server.set_counter(id, v);
        }
        // Per-loop frames-per-wakeup histograms fold into one server-wide
        // distribution.
        let fw = server.histogram("loop.frames_per_wakeup");
        for l in self.loops.iter() {
            let h = l.frames_per_wakeup.lock().expect("loop histogram lock");
            server.merge_histogram(fw, &h);
        }
        let up = server.gauge("uptime_s");
        server.set(up, self.start.elapsed().as_secs_f64());
        server
    }

    /// Asks every live shard to persist its sessions to
    /// `<dir>/shard<k>.nts` now, returning the total session count
    /// written. Shards that already exited are skipped (their drain
    /// snapshot, if configured, is already on disk); per-shard write
    /// failures are logged and skipped.
    pub(crate) fn persist_all(&self, dir: &Path) -> u64 {
        let mut written = 0u64;
        for (shard, tx) in self.senders.iter().enumerate() {
            let (reply, rx) = mpsc::channel();
            if tx
                .send(Job::Persist {
                    dir: dir.to_path_buf(),
                    reply,
                })
                .is_err()
            {
                continue;
            }
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Ok(n)) => written += n,
                Ok(Err(e)) => eprintln!("[serve] shard {shard}: snapshot failed: {e}"),
                Err(_) => eprintln!("[serve] shard {shard}: snapshot timed out"),
            }
        }
        written
    }
}

/// A server snapshot's layout: the `server` section, one `shard<k>`
/// section per shard, then `total`, the shards merged.
fn assemble(server: MetricsRegistry, shards: Vec<ShardSnapshot>) -> Snapshot {
    let mut snap = Snapshot::new();
    snap.push("server", server);
    let mut total = MetricsRegistry::new();
    for s in &shards {
        total.merge(&s.metrics);
    }
    for s in shards {
        snap.push(&format!("shard{}", s.shard), s.metrics);
    }
    snap.push("total", total);
    snap
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::join`] detaches the threads (the process keeps
/// serving); the intended lifecycle is `serve(cfg)` → … →
/// `request_shutdown()` (or a client `Shutdown` frame) → `join()`.
pub struct ServerHandle {
    addr: SocketAddr,
    snapshot_dir: Option<PathBuf>,
    drain: Arc<DrainSignal>,
    hub: Option<Arc<Hub>>,
    accept: Option<JoinHandle<()>>,
    event_loops: Vec<JoinHandle<()>>,
    snapshots: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<ShardSnapshot>>,
}

/// A cloneable drain trigger detached from the [`ServerHandle`]: signal
/// watchers (e.g. the CLI's SIGTERM handler) hold one of these and flip
/// the drain from their own thread while the owner blocks in
/// [`ServerHandle::join`].
#[derive(Clone)]
pub struct ShutdownTrigger {
    drain: Arc<DrainSignal>,
}

impl ShutdownTrigger {
    /// Starts the drain (idempotent, same as
    /// [`ServerHandle::request_shutdown`]).
    pub fn trigger(&self) {
        self.drain.trigger();
    }
}

impl ServerHandle {
    /// The address actually bound (resolves `:0` to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Collects a metrics [`Snapshot`] in-process (the same data a
    /// `Metrics` frame carries).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.hub.as_ref().expect("hub lives until join()").collect()
    }

    /// Starts a drain: stop accepting, let in-flight work finish.
    /// Idempotent; also triggered by a client `Shutdown` frame.
    pub fn request_shutdown(&self) {
        self.drain.trigger();
    }

    /// A cloneable trigger for [`ServerHandle::request_shutdown`],
    /// usable from other threads while this handle blocks in `join`.
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            drain: Arc::clone(&self.drain),
        }
    }

    /// A handle that wakes every event loop (see [`LoopWaker`]).
    pub fn loop_waker(&self) -> LoopWaker {
        LoopWaker(Arc::clone(
            &self.hub.as_ref().expect("hub lives until join()").loops,
        ))
    }

    /// Waits for the drain to complete — acceptor exited, every
    /// connection closed, every shard queue empty — and returns the
    /// final metrics snapshot: the `server`, `shard<k>` and `total`
    /// sections of a `Metrics` reply, taken once every thread has
    /// stopped. Call after [`ServerHandle::request_shutdown`] (or once a
    /// client has sent `Shutdown`); joining a server nobody shuts down
    /// blocks forever, like the listener it wraps. An established
    /// connection holds the drain open until its client closes it or it
    /// idles past `read_timeout` (see the module's `# Shutdown`).
    pub fn join(mut self) -> Snapshot {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Event loops exit once the drain flag is set, their injection
        // channel is closed (the acceptor dropped it above) and their
        // last connection is gone — every in-flight session answered.
        // Joining them releases their hub clones.
        for h in self.event_loops.drain(..) {
            let _ = h.join();
        }
        // The snapshot thread also holds a hub clone (and with it the
        // shard senders); it exits on the drain flag. Join it, then drop
        // our own hub — at that point every sender is gone, the shard
        // receivers disconnect, and the workers drain-and-exit.
        if let Some(h) = self.snapshots.take() {
            let _ = h.join();
        }
        // Every thread that counts a connection-side metric has exited,
        // so the `server` section is final. Dropping the last hub lets
        // the shards (a server's) drain and exit.
        let hub = self.hub.take().expect("hub lives until join()");
        let server = hub.server_section();
        if let Some(dir) = &hub.remote {
            return dir.metrics(server);
        }
        drop(hub);
        let shards: Vec<ShardSnapshot> = self
            .shards
            .drain(..)
            .filter_map(|h| h.join().ok())
            .collect();
        // Every shard has exited, so every drain-time `shard<k>.nts` is
        // on disk and final. The marker file lets a cluster router tell
        // those authoritative snapshots apart from a mid-run periodic
        // one: it only restores a drained backend's sessions after the
        // marker appears (see DRAIN_MARKER).
        if let Some(dir) = &self.snapshot_dir {
            if let Err(e) = std::fs::write(dir.join(DRAIN_MARKER), b"drained\n") {
                eprintln!("[serve] cannot write drain marker in {dir:?}: {e}");
            }
        }
        assemble(server, shards)
    }
}

/// File the drained server leaves in its snapshot directory once every
/// shard's final `shard<k>.nts` is on disk. Removed again at startup, so
/// its presence always refers to the *current* incarnation's drain.
pub const DRAIN_MARKER: &str = "drained";

/// Loads every warm-start session from `path` (one `.nts` file, or a
/// directory scanned for `*.nts`), instantiates the predictors, and
/// partitions them by owning shard (`session % workers`).
///
/// All-or-nothing: any refused file, refused state, or duplicate session
/// id fails the whole load — the caller logs the reason and starts cold.
/// A partial warm start would silently serve a mix of restored and
/// reset sessions, which is worse than either extreme.
fn load_warm_sessions(path: &Path, workers: usize) -> Result<Vec<Vec<(u64, Session)>>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("cannot scan {path:?}: {e}"))?;
        for entry in entries {
            let p = entry
                .map_err(|e| format!("cannot scan {path:?}: {e}"))?
                .path();
            if p.extension().is_some_and(|ext| ext == SNAPSHOT_EXT) {
                files.push(p);
            }
        }
        files.sort();
        if files.is_empty() {
            return Err(format!("no .{SNAPSHOT_EXT} files under {path:?}"));
        }
    } else {
        files.push(path.to_path_buf());
    }

    let mut per_shard: Vec<Vec<(u64, Session)>> = (0..workers).map(|_| Vec::new()).collect();
    let mut seen = std::collections::HashSet::new();
    for file in &files {
        let (artifact, _) = read_snapshot_file(file).map_err(|e| format!("{file:?}: {e}"))?;
        for s in &artifact.sessions {
            if !seen.insert(s.session_id) {
                return Err(format!("{file:?}: duplicate session {}", s.session_id));
            }
            let predictor = s
                .instantiate()
                .map_err(|e| format!("{file:?}: session {}: {e}", s.session_id))?;
            per_shard[(s.session_id % workers as u64) as usize].push((
                s.session_id,
                Session {
                    predictor,
                    stats: s.stats.clone(),
                },
            ));
        }
    }
    Ok(per_shard)
}

/// Binds `cfg.addr` and spawns the shard workers, the event loops and
/// the accept loop. With [`ServeConfig::warm_path`] set, restores the snapshot's
/// sessions first (a refused snapshot is logged and the server starts
/// cold); with [`ServeConfig::snapshot_dir`] set, each shard persists
/// its sessions to `<dir>/shard<k>.nts` during the graceful drain.
///
/// Fails (with a one-line diagnostic naming the address) when the
/// address cannot be bound — e.g. the port is already in use — or when
/// the configuration is invalid. Off Linux it always fails: the event
/// loops are built on epoll.
pub fn serve(cfg: ServeConfig) -> Result<ServerHandle, String> {
    start(cfg, None)
}

/// Serves a cluster router: the same acceptor, connection limit, event
/// loops and drain as [`serve`], with `dir` in place of the shard
/// workers (see [`Directory`]). Of `cfg`, only `addr`, `max_conns`,
/// `queue_depth`, `event_threads` and `read_timeout` apply.
/// The final snapshot [`ServerHandle::join`] returns is `dir`'s.
pub fn serve_routed(cfg: ServeConfig, dir: Arc<dyn Directory>) -> Result<ServerHandle, String> {
    start(cfg, Some(dir))
}

fn start(cfg: ServeConfig, remote: Option<Arc<dyn Directory>>) -> Result<ServerHandle, String> {
    if !cfg!(target_os = "linux") {
        return Err("serve: needs Linux (the event loops use epoll)".into());
    }
    cfg.validate()?;
    // Warm-start before binding anything: no connection can ever observe
    // a partially restored session map. A refused snapshot is a logged
    // cold start, never a partial load (the `.nts` contract).
    let workers = if remote.is_some() { 0 } else { cfg.workers };
    let mut warm: Vec<Vec<(u64, Session)>> = (0..workers).map(|_| Vec::new()).collect();
    if let Some(path) = &cfg.warm_path {
        match load_warm_sessions(path, cfg.workers) {
            Ok(loaded) => warm = loaded,
            Err(e) => eprintln!("[serve] warm-start refused, starting cold: {e}"),
        }
    }
    // A drain marker in the snapshot directory always refers to the
    // current incarnation: clear any stale one before serving.
    if let Some(dir) = &cfg.snapshot_dir {
        let marker = dir.join(DRAIN_MARKER);
        if marker.exists() {
            if let Err(e) = std::fs::remove_file(&marker) {
                return Err(format!(
                    "serve: cannot clear stale drain marker {marker:?}: {e}"
                ));
            }
        }
    }
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| format!("serve: cannot bind {}: {e}", cfg.addr))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("serve: cannot resolve bound address: {e}"))?;

    let active_conns = Arc::new(AtomicUsize::new(0));
    let counters = Arc::new(Counters::default());
    let drain = Arc::new(DrainSignal {
        flag: AtomicBool::new(false),
        addr,
    });
    let shared: Arc<[ShardShared]> = (0..workers)
        .map(|_| ShardShared::default())
        .collect::<Vec<_>>()
        .into();
    let loops: Arc<[LoopShared]> = (0..cfg.event_threads)
        .map(|_| {
            let wake = WakeFd::new().map_err(|e| format!("serve: cannot create loop eventfd: {e}"));
            Ok(LoopShared {
                wake: Arc::new(wake?),
                wakeups: AtomicU64::new(0),
                frames_per_wakeup: Default::default(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?
        .into();
    let start = Instant::now();

    // One bounded queue per shard. Every sender clone lives inside a Hub
    // (acceptor, event loops, snapshot thread, handle);
    // when the last Hub drops, the shard receivers disconnect —
    // drain-then-exit for free.
    let mut senders = Vec::with_capacity(workers);
    let mut shards = Vec::with_capacity(workers);
    let mut warm = warm.into_iter();
    for shard_id in 0..workers {
        let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_depth);
        senders.push(tx);
        let shared = Arc::clone(&shared);
        let warm_sessions = warm.next().expect("one warm bucket per shard");
        let snapshot_dir = cfg.snapshot_dir.clone();
        shards.push(
            std::thread::Builder::new()
                .name(format!("ntp-serve-shard-{shard_id}"))
                .spawn(move || shard_loop(shard_id as u32, rx, shared, warm_sessions, snapshot_dir))
                .map_err(|e| format!("serve: cannot spawn shard worker: {e}"))?,
        );
    }

    let hub = Arc::new(Hub {
        senders: senders.into(),
        shared,
        counters,
        drain: Arc::clone(&drain),
        loops: Arc::clone(&loops),
        remote,
        start,
    });

    // A fixed set of readiness loops the acceptor hands sockets to. The
    // acceptor holds the only router (and with it the injection
    // senders), so when it exits the loops see a closed channel and can
    // drain out — no shutdown race with late accepts.
    let (router, event_loops) = crate::event::spawn(&cfg, &hub, &active_conns, &loops)?;

    let accept = {
        let max_conns = cfg.max_conns;
        let hub = Arc::clone(&hub);
        std::thread::Builder::new()
            .name("ntp-serve-accept".into())
            .spawn(move || accept_loop(listener, max_conns, hub, active_conns, router))
            .map_err(|e| format!("serve: cannot spawn acceptor: {e}"))?
    };

    // Periodic snapshots bound the failover lost-update window: a
    // router restoring this server's sessions after a hard death is at
    // most one interval stale. Needs a snapshot directory to write to.
    let snapshots = match (&cfg.snapshot_interval, &cfg.snapshot_dir) {
        (Some(interval), Some(dir)) => {
            let hub = Arc::clone(&hub);
            let (interval, dir) = (*interval, dir.clone());
            Some(
                std::thread::Builder::new()
                    .name("ntp-serve-snapshots".into())
                    .spawn(move || snapshot_loop(hub, interval, dir))
                    .map_err(|e| format!("serve: cannot spawn snapshot thread: {e}"))?,
            )
        }
        _ => None,
    };

    Ok(ServerHandle {
        addr,
        snapshot_dir: cfg.snapshot_dir.clone(),
        drain,
        hub: Some(hub),
        accept: Some(accept),
        event_loops,
        snapshots,
        shards,
    })
}

/// Persists every shard's sessions each `interval` until the drain flag
/// is set (the graceful drain then writes the final, authoritative
/// snapshots itself). Sleeps in short slices so a drain is never held
/// up by a long interval.
fn snapshot_loop(hub: Arc<Hub>, interval: Duration, dir: PathBuf) {
    let slice = Duration::from_millis(50);
    let mut next = Instant::now() + interval;
    while !hub.drain.is_set() {
        std::thread::sleep(slice);
        if Instant::now() >= next && !hub.drain.is_set() {
            hub.persist_all(&dir);
            next = Instant::now() + interval;
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    max_conns: usize,
    hub: Arc<Hub>,
    active_conns: Arc<AtomicUsize>,
    mut router: ConnRouter,
) {
    for stream in listener.incoming() {
        if hub.drain.is_set() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let slot = active_conns.fetch_add(1, Ordering::SeqCst);
        if slot >= max_conns {
            hub.counters.refused.fetch_add(1, Ordering::Relaxed);
            refuse(
                stream,
                ErrorCode::Refused,
                "connection limit reached",
                &hub.counters,
            );
            active_conns.fetch_sub(1, Ordering::SeqCst);
            continue;
        }
        hub.counters.accepted.fetch_add(1, Ordering::Relaxed);
        // Disable Nagle right at accept — the loops serve request/response
        // traffic where a delayed ACK stall dwarfs any segment-coalescing
        // win. Failures are counted (and logged once) through the sockopt
        // path like every other socket option.
        note_sockopt(&hub.counters, "set_nodelay", stream.set_nodelay(true));
        if !router.inject(stream) {
            // Every event loop is gone — only possible when the process
            // is tearing down; drop the connection.
            active_conns.fetch_sub(1, Ordering::SeqCst);
        }
    }
    // Dropping `hub` here releases the acceptor's share of the shard
    // senders (and the router, closing the loops' injection channels);
    // shards keep running until the last holder lets go.
}

/// Sends a single error reply on a connection we will not serve.
fn refuse(mut stream: TcpStream, code: ErrorCode, message: &str, counters: &Counters) {
    note_sockopt(
        counters,
        "set_write_timeout",
        stream.set_write_timeout(Some(Duration::from_secs(1))),
    );
    let body = wire::encode_response(&Response::Error {
        code,
        message: message.to_string(),
    });
    let _ = wire::write_frame(&mut stream, &body);
}

/// Wire-request kinds a shard processes, in metric-name order: each
/// shard section counts kind `k` as `frames.<k>` and times it in
/// `latency_us.<k>`.
pub const FRAME_KINDS: [&str; 5] = ["hello", "predict", "update", "stats", "migrate"];

fn frame_kind(req: &Request) -> usize {
    match req {
        Request::Hello { .. } => 0,
        Request::Predict { .. } => 1,
        Request::Update { .. } => 2,
        Request::Stats { .. } => 3,
        Request::Migrate { .. } => 4,
        Request::Shutdown | Request::Metrics => unreachable!("never routed to a shard"),
    }
}

/// A shard's private metrics: the cumulative registry and its dense
/// handles. All recording is plain integer adds through pre-resolved
/// ids — the ≤5% telemetry budget documented in OBSERVABILITY.md.
struct ShardMetrics {
    registry: MetricsRegistry,
    /// Exact busy and idle totals behind `time.busy_us`/`time.idle_us`,
    /// which are these divided down, so no interval loses its
    /// sub-microsecond part.
    busy_ns: u64,
    idle_ns: u64,
    c_sessions: CounterId,
    c_warmed: CounterId,
    c_snapshotted: CounterId,
    c_frames: [CounterId; FRAME_KINDS.len()],
    c_predictions: CounterId,
    c_correct: CounterId,
    c_err_unknown: CounterId,
    c_err_badcfg: CounterId,
    c_err_other: CounterId,
    c_busy: CounterId,
    c_batched: CounterId,
    c_coalesced: CounterId,
    c_migrate_out: CounterId,
    c_migrate_in: CounterId,
    c_busy_us: CounterId,
    c_idle_us: CounterId,
    g_queue: GaugeId,
    g_live: GaugeId,
    h_all: HistogramId,
    h_kind: [HistogramId; FRAME_KINDS.len()],
}

impl ShardMetrics {
    /// Registration order here is the serialization order of every
    /// snapshot section, identical across shards so `total` merges
    /// cleanly.
    fn new() -> ShardMetrics {
        let mut r = MetricsRegistry::new();
        let c_sessions = r.counter("sessions.opened");
        let c_warmed = r.counter("sessions.warmed");
        let c_snapshotted = r.counter("sessions.snapshotted");
        let c_frames = FRAME_KINDS.map(|k| r.counter(&format!("frames.{k}")));
        let c_predictions = r.counter("predictions");
        let c_correct = r.counter("predictions.correct");
        let c_err_unknown = r.counter("errors.unknown_session");
        let c_err_badcfg = r.counter("errors.bad_config");
        let c_err_other = r.counter("errors.other");
        let c_busy = r.counter("busy.rejections");
        let c_batched = r.counter("drain.batched");
        let c_coalesced = r.counter("drain.coalesced");
        let c_migrate_out = r.counter("migrate.out");
        let c_migrate_in = r.counter("migrate.in");
        let c_busy_us = r.counter("time.busy_us");
        let c_idle_us = r.counter("time.idle_us");
        let g_queue = r.gauge("queue.depth");
        let g_live = r.gauge("sessions.live");
        let h_all = r.histogram("latency_us.all");
        let h_kind = FRAME_KINDS.map(|k| r.histogram(&format!("latency_us.{k}")));
        ShardMetrics {
            registry: r,
            busy_ns: 0,
            idle_ns: 0,
            c_sessions,
            c_warmed,
            c_snapshotted,
            c_frames,
            c_predictions,
            c_correct,
            c_err_unknown,
            c_err_badcfg,
            c_err_other,
            c_busy,
            c_batched,
            c_coalesced,
            c_migrate_out,
            c_migrate_in,
            c_busy_us,
            c_idle_us,
            g_queue,
            g_live,
            h_all,
            h_kind,
        }
    }

    /// Accounts one processed request: frame type, outcome and latency.
    fn record(&mut self, req: &Request, resp: &Response, started: Instant) {
        let kind = frame_kind(req);
        self.registry.inc(self.c_frames[kind]);
        match resp {
            Response::Updated { correct } => {
                self.registry.inc(self.c_predictions);
                self.registry.add(self.c_correct, u64::from(*correct));
            }
            Response::HelloOk { .. } => self.registry.inc(self.c_sessions),
            Response::MigrateOk { snapshot, .. } => {
                if snapshot.is_some() {
                    self.registry.inc(self.c_migrate_out);
                } else {
                    // An install creates a session on this shard just as
                    // a Hello does; without this `sessions.opened`
                    // undercounts what the shard actually served.
                    self.registry.inc(self.c_migrate_in);
                    self.registry.inc(self.c_sessions);
                }
            }
            Response::Error { code, .. } => self.registry.inc(match code {
                ErrorCode::UnknownSession => self.c_err_unknown,
                ErrorCode::BadConfig => self.c_err_badcfg,
                _ => self.c_err_other,
            }),
            _ => {}
        }
        let latency = started.elapsed().as_micros() as u64;
        self.registry.observe(self.h_all, latency);
        self.registry.observe(self.h_kind[kind], latency);
    }

    /// Adds one busy interval (a drain, from wake-up to queue empty).
    fn add_busy(&mut self, d: Duration) {
        self.busy_ns += d.as_nanos() as u64;
        self.registry
            .set_counter(self.c_busy_us, self.busy_ns / 1000);
    }

    /// Adds one idle interval (blocked on an empty queue).
    fn add_idle(&mut self, d: Duration) {
        self.idle_ns += d.as_nanos() as u64;
        self.registry
            .set_counter(self.c_idle_us, self.idle_ns / 1000);
    }

    /// Builds this shard's snapshot: the cumulative registry with the
    /// connection-side depth/busy folded in.
    fn snapshot(&self, shard: u32, shared: &ShardShared) -> ShardSnapshot {
        let mut metrics = self.registry.clone();
        metrics.set_counter(self.c_busy, shared.busy.load(Ordering::Relaxed));
        let depth = shared.depth.load(Ordering::Relaxed).max(0) as f64;
        metrics.set(self.g_queue, depth);
        ShardSnapshot { shard, metrics }
    }
}

/// One shard's answer to a `Job::Snapshot`, and its final state when it
/// exits.
pub(crate) struct ShardSnapshot {
    shard: u32,
    metrics: MetricsRegistry,
}

/// Most jobs one blocking `recv` may opportunistically drain. Bounds the
/// prefetch pass (and reply latency for the job at the front) without
/// limiting throughput — leftover jobs are simply the next drain.
const MAX_DRAIN: usize = 64;

/// One shard: owns its sessions and its metrics, processes its queue to
/// empty, exits when every sender is gone, and returns its final
/// snapshot.
///
/// Each wake-up drains the queue opportunistically (up to [`MAX_DRAIN`]
/// jobs). When the drain picks up two or more routed requests — inside
/// one read burst's [`Job::Run`] or across jobs from several
/// connections — the shard runs a gathered sweep: one
/// `NextTracePredictor::prefetch_tables` pass over the table lines of
/// every request's session, then the resolve pass in strict arrival
/// order. Each job's replies go back as one
/// [`Completion`] with one wake of its event loop. Replies, session
/// state and metrics are identical to one-at-a-time processing; only
/// the cache misses overlap.
fn shard_loop(
    shard_id: u32,
    rx: Receiver<Job>,
    shared: Arc<[ShardShared]>,
    warm: Vec<(u64, Session)>,
    snapshot_dir: Option<PathBuf>,
) -> ShardSnapshot {
    let own = &shared[shard_id as usize];
    let mut m = ShardMetrics::new();
    m.registry.add(m.c_warmed, warm.len() as u64);
    let mut sessions: HashMap<u64, Session> = warm.into_iter().collect();
    m.registry.set(m.g_live, sessions.len() as f64);
    let mut idle_from = Instant::now();
    let mut drained: Vec<Job> = Vec::with_capacity(MAX_DRAIN);
    while let Ok(first) = rx.recv() {
        let woke = Instant::now();
        m.add_idle(woke.duration_since(idle_from));
        drained.push(first);
        while drained.len() < MAX_DRAIN {
            match rx.try_recv() {
                Ok(job) => drained.push(job),
                Err(_) => break,
            }
        }

        // Gathered probe pass: with several routed requests in hand
        // (across jobs, or inside one `Job::Run`), hint the table lines
        // of every request's session before resolving any.
        let routed: usize = drained.iter().map(Job::routed).sum();
        if routed >= 2 {
            for job in &drained {
                if let Job::Run { entries, .. } = job {
                    for (_, req) in entries {
                        if let Some(s) = req.session().and_then(|id| sessions.get(&id)) {
                            s.predictor.prefetch_tables();
                        }
                    }
                }
            }
            m.registry.add(m.c_batched, routed as u64);
        }

        // Resolve pass: strict arrival order, same per-request handling
        // (and per-request latency accounting) as the scalar loop — a
        // multi-entry job is applied one request at a time so replies
        // and metrics are byte-identical to one job per request.
        for job in drained.drain(..) {
            match job {
                Job::Run { reply, entries } => {
                    own.depth.fetch_sub(1, Ordering::Relaxed);
                    if entries.len() >= 2 {
                        m.registry.add(m.c_coalesced, entries.len() as u64);
                    }
                    let mut replies = Vec::with_capacity(entries.len());
                    for (seq, req) in entries {
                        let begun = Instant::now();
                        let resp = apply(shard_id, &mut sessions, &req);
                        m.record(&req, &resp, begun);
                        m.registry.set(m.g_live, sessions.len() as f64);
                        replies.push((seq, resp));
                    }
                    reply.send(replies);
                }
                Job::Snapshot { reply } => {
                    let _ = reply.send(m.snapshot(shard_id, own));
                }
                Job::Persist { dir, reply } => {
                    let _ = reply.send(persist_sessions(shard_id, &sessions, &dir));
                }
            }
        }
        idle_from = Instant::now();
        m.add_busy(idle_from.duration_since(woke));
    }
    // Graceful drain: persist this shard's learned state so the next
    // start can `--warm` from it. Written even when empty — a stale
    // snapshot from a previous run must not outlive this drain.
    if let Some(dir) = &snapshot_dir {
        match persist_sessions(shard_id, &sessions, dir) {
            Ok(n) => m.registry.add(m.c_snapshotted, n),
            Err(e) => eprintln!("[serve] shard {shard_id}: drain snapshot failed: {e}"),
        }
    }
    m.snapshot(shard_id, own)
}

/// Writes one shard's sessions to `<dir>/shard<k>.nts` (atomic
/// temp-file + rename). Written even when empty, so a stale snapshot
/// from an earlier point in time never outlives the write.
fn persist_sessions(
    shard_id: u32,
    sessions: &HashMap<u64, Session>,
    dir: &Path,
) -> Result<u64, String> {
    let artifact = SnapshotArtifact {
        sessions: sessions
            .iter()
            .map(|(&id, s)| SessionSnapshot::capture(id, &s.predictor, &s.stats))
            .collect(),
    };
    let path = dir.join(format!("shard{shard_id}.{SNAPSHOT_EXT}"));
    write_snapshot_file(&path, &artifact)
        .map(|_| artifact.sessions.len() as u64)
        .map_err(|e| format!("{path:?}: {e}"))
}

/// Applies one request to the shard's session map.
fn apply(shard_id: u32, sessions: &mut HashMap<u64, Session>, req: &Request) -> Response {
    match req {
        Request::Hello {
            session,
            bits,
            depth,
        } => {
            if sessions.contains_key(session) {
                return Response::Error {
                    code: ErrorCode::BadConfig,
                    message: format!("session {session} already exists"),
                };
            }
            let cfg = match PredictorConfig::try_paper(*bits, *depth as usize) {
                Ok(cfg) => cfg,
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::BadConfig,
                        message: format!("paper({bits},{depth}) rejected: {e}"),
                    }
                }
            };
            let predictor = match NextTracePredictor::try_new(cfg) {
                Ok(p) => p,
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::BadConfig,
                        message: format!("paper({bits},{depth}) rejected: {e}"),
                    }
                }
            };
            sessions.insert(
                *session,
                Session {
                    predictor,
                    stats: PredictorStats::new(),
                },
            );
            Response::HelloOk {
                session: *session,
                shard: shard_id,
            }
        }
        Request::Predict { session } => with_session(sessions, *session, |s| {
            let pred = s.predictor.predict();
            Response::Predicted {
                target: pred.target,
                source: pred.source,
            }
        }),
        Request::Update { session, record } => with_session(sessions, *session, |s| {
            let pred = s.predictor.predict();
            s.stats.score(&pred, record);
            s.predictor.update(record);
            Response::Updated {
                correct: pred.is_correct(record.id()),
            }
        }),
        Request::Stats { session } => with_session(sessions, *session, |s| Response::StatsOk {
            stats: s.stats.clone(),
        }),
        // Migration, the two halves. Extract (`snapshot: None`):
        // serialize the session as a checksummed single-session wire
        // snapshot and *remove* it — after the reply this shard will
        // answer `UnknownSession` for it, so a router must never route
        // the session here again until a matching install. Install
        // (`snapshot: Some`): decode, validate and insert; the stats
        // ride along, so served statistics stay in per-prediction
        // lockstep with the offline oracle across the move.
        Request::Migrate {
            session,
            snapshot: None,
        } => match sessions.get(session) {
            Some(s) => {
                let snap = SessionSnapshot::capture(*session, &s.predictor, &s.stats);
                let bytes = ntp_tracefile::encode_session_wire(&snap);
                sessions.remove(session);
                Response::MigrateOk {
                    session: *session,
                    snapshot: Some(bytes),
                }
            }
            None => Response::Error {
                code: ErrorCode::UnknownSession,
                message: format!("cannot migrate out: session {session} has not said hello"),
            },
        },
        Request::Migrate {
            session,
            snapshot: Some(bytes),
        } => {
            if sessions.contains_key(session) {
                return Response::Error {
                    code: ErrorCode::BadConfig,
                    message: format!("cannot migrate in: session {session} already exists"),
                };
            }
            let snap = match ntp_tracefile::decode_session_wire(bytes) {
                Ok(snap) => snap,
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("migrate payload rejected: {e}"),
                    }
                }
            };
            if snap.session_id != *session {
                return Response::Error {
                    code: ErrorCode::BadRequest,
                    message: format!(
                        "migrate payload is for session {}, frame addresses {session}",
                        snap.session_id
                    ),
                };
            }
            let predictor = match snap.instantiate() {
                Ok(p) => p,
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::BadRequest,
                        message: format!("migrate payload rejected: {e}"),
                    }
                }
            };
            sessions.insert(
                *session,
                Session {
                    predictor,
                    stats: snap.stats,
                },
            );
            Response::MigrateOk {
                session: *session,
                snapshot: None,
            }
        }
        Request::Shutdown | Request::Metrics => Response::Error {
            code: ErrorCode::BadRequest,
            message: "connection-level request routed to a shard".into(),
        },
    }
}

fn with_session(
    sessions: &mut HashMap<u64, Session>,
    session: u64,
    f: impl FnOnce(&mut Session) -> Response,
) -> Response {
    match sessions.get_mut(&session) {
        Some(s) => f(s),
        None => Response::Error {
            code: ErrorCode::UnknownSession,
            message: format!("session {session} has not said hello"),
        },
    }
}

// ---------------------------------------------------------------------------
// Reading snapshots
// ---------------------------------------------------------------------------

/// The per-second rate of a cumulative count between two snapshots of
/// one process: Δcount ÷ Δ`uptime_s`, the uptime gauge read from
/// section `clock` (`server` for `ntp serve`, `router` for
/// `ntp route`). A first poll passes an empty [`Snapshot`] as `prev`,
/// every count 0 at uptime 0, and so reads the lifetime mean. 0.0 when
/// the uptime did not advance.
pub fn rate(prev: &Snapshot, cur: &Snapshot, clock: &str, count: impl Fn(&Snapshot) -> u64) -> f64 {
    let uptime = |s: &Snapshot| {
        s.get(clock)
            .and_then(|m| m.gauge_by_name("uptime_s"))
            .unwrap_or(0.0)
    };
    let dt = uptime(cur) - uptime(prev);
    if dt > 0.0 {
        count(cur).saturating_sub(count(prev)) as f64 / dt
    } else {
        0.0
    }
}

/// Every frame a snapshot section counted, summed over [`FRAME_KINDS`]
/// (0 when the section is absent).
pub fn frame_count(snap: &Snapshot, section: &str) -> u64 {
    snap.get(section).map_or(0, |m| {
        FRAME_KINDS
            .iter()
            .filter_map(|k| m.counter_by_name(&format!("frames.{k}")))
            .sum()
    })
}

/// Every typed refusal a snapshot section counted, summed over its
/// `errors.*` counters (0 when the section is absent).
pub fn error_count(snap: &Snapshot, section: &str) -> u64 {
    snap.get(section).map_or(0, |m| {
        [
            "errors.unknown_session",
            "errors.bad_config",
            "errors.other",
        ]
        .iter()
        .filter_map(|name| m.counter_by_name(name))
        .sum()
    })
}

// ---------------------------------------------------------------------------
// SIGTERM-driven drain
// ---------------------------------------------------------------------------

static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn sigterm_handler(_signum: i32) {
    // A relaxed atomic store is async-signal-safe; everything else
    // (draining, snapshotting, printing) happens on a normal thread
    // that polls `sigterm_pending`.
    SIGTERM_SEEN.store(true, Ordering::SeqCst);
}

/// Installs a process-wide SIGTERM handler that records the signal (see
/// [`sigterm_pending`]) instead of killing the process, so a serving
/// binary can turn `kill -TERM` into a graceful drain: snapshots
/// written, sessions intact, stats honest. Returns `false` when the
/// handler could not be installed (non-Unix platforms, or a refused
/// `signal(2)` call) — the caller keeps the default kill-on-TERM
/// behaviour.
pub fn install_sigterm_drain() -> bool {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        let handler = sigterm_handler as extern "C" fn(i32) as usize;
        // SIG_ERR is -1.
        unsafe { signal(SIGTERM, handler) != usize::MAX }
    }
    #[cfg(not(unix))]
    {
        false
    }
}

/// True once a SIGTERM has arrived after [`install_sigterm_drain`].
pub fn sigterm_pending() -> bool {
    SIGTERM_SEEN.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_trace::{TraceId, TraceRecord};

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 8, 0, false, false)
    }

    /// Applies one `Update` per record to `session`, returning how many
    /// replies said correct.
    fn apply_updates(
        sessions: &mut HashMap<u64, Session>,
        session: u64,
        records: &[TraceRecord],
    ) -> u64 {
        records
            .iter()
            .map(
                |&record| match apply(0, sessions, &Request::Update { session, record }) {
                    Response::Updated { correct } => u64::from(correct),
                    other => panic!("update should apply: {other:?}"),
                },
            )
            .sum()
    }

    #[test]
    fn apply_routes_the_session_lifecycle() {
        let mut sessions = HashMap::new();
        // Unknown session first.
        let resp = apply(0, &mut sessions, &Request::Stats { session: 1 });
        assert!(matches!(
            resp,
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));
        // Hello, then updates, then stats matching the offline oracle.
        let hello = Request::Hello {
            session: 1,
            bits: 12,
            depth: 3,
        };
        assert!(matches!(
            apply(0, &mut sessions, &hello),
            Response::HelloOk {
                session: 1,
                shard: 0
            }
        ));
        assert!(
            matches!(
                apply(0, &mut sessions, &hello),
                Response::Error {
                    code: ErrorCode::BadConfig,
                    ..
                }
            ),
            "duplicate hello refused"
        );
        let records: Vec<TraceRecord> =
            (0..60).map(|k| rec(0x0040_0000 + (k % 3) * 0x40)).collect();
        let correct = apply_updates(&mut sessions, 1, &records);
        let Response::StatsOk { stats } = apply(0, &mut sessions, &Request::Stats { session: 1 })
        else {
            panic!("stats should answer");
        };
        let mut oracle = NextTracePredictor::new(PredictorConfig::paper(12, 3));
        let expect = ntp_core::evaluate(&mut oracle, &records);
        assert_eq!(stats, expect, "served stats equal the offline oracle");
        assert_eq!(correct, expect.correct);
    }

    #[test]
    fn apply_migrate_moves_a_session_between_shard_maps() {
        let mut src: HashMap<u64, Session> = HashMap::new();
        let mut dst: HashMap<u64, Session> = HashMap::new();
        apply(
            0,
            &mut src,
            &Request::Hello {
                session: 7,
                bits: 12,
                depth: 3,
            },
        );
        let records: Vec<TraceRecord> =
            (0..80).map(|k| rec(0x0040_0000 + (k % 4) * 0x40)).collect();
        apply_updates(&mut src, 7, &records);

        // Extract: the session leaves the source map with its bytes.
        let out = apply(
            0,
            &mut src,
            &Request::Migrate {
                session: 7,
                snapshot: None,
            },
        );
        let Response::MigrateOk {
            session: 7,
            snapshot: Some(bytes),
        } = out
        else {
            panic!("extract should answer MigrateOk with a payload: {out:?}");
        };
        assert!(src.is_empty(), "extract removes the session");
        assert!(
            matches!(
                apply(0, &mut src, &Request::Stats { session: 7 }),
                Response::Error {
                    code: ErrorCode::UnknownSession,
                    ..
                }
            ),
            "the source no longer serves the session"
        );
        // Extracting an unknown session is refused.
        assert!(matches!(
            apply(
                0,
                &mut src,
                &Request::Migrate {
                    session: 7,
                    snapshot: None
                }
            ),
            Response::Error {
                code: ErrorCode::UnknownSession,
                ..
            }
        ));

        // Install on the target: stats and state ride along.
        let install = Request::Migrate {
            session: 7,
            snapshot: Some(bytes.clone()),
        };
        assert!(matches!(
            apply(1, &mut dst, &install),
            Response::MigrateOk {
                session: 7,
                snapshot: None,
            }
        ));
        // Double-install is refused; so is a corrupted payload and a
        // session-id mismatch.
        assert!(matches!(
            apply(1, &mut dst, &install),
            Response::Error {
                code: ErrorCode::BadConfig,
                ..
            }
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 1;
        assert!(matches!(
            apply(
                1,
                &mut src,
                &Request::Migrate {
                    session: 7,
                    snapshot: Some(flipped)
                }
            ),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert!(matches!(
            apply(
                1,
                &mut src,
                &Request::Migrate {
                    session: 8,
                    snapshot: Some(bytes)
                }
            ),
            Response::Error {
                code: ErrorCode::BadRequest,
                ..
            }
        ));
        assert!(src.is_empty(), "refused installs never insert");

        // The moved session continues in lockstep with the offline
        // oracle: same accumulated stats, same future predictions.
        let more: Vec<TraceRecord> = (0..40).map(|k| rec(0x0040_0000 + (k % 4) * 0x40)).collect();
        apply_updates(&mut dst, 7, &more);
        let Response::StatsOk { stats } = apply(1, &mut dst, &Request::Stats { session: 7 }) else {
            panic!("stats should answer");
        };
        let mut oracle = NextTracePredictor::new(PredictorConfig::paper(12, 3));
        let mut all = records;
        all.extend_from_slice(&more);
        assert_eq!(stats, ntp_core::evaluate(&mut oracle, &all));
    }

    #[test]
    fn apply_refuses_hostile_configs() {
        let mut sessions = HashMap::new();
        let resp = apply(
            0,
            &mut sessions,
            &Request::Hello {
                session: 1,
                bits: 0,
                depth: 64,
            },
        );
        assert!(
            matches!(
                resp,
                Response::Error {
                    code: ErrorCode::BadConfig,
                    ..
                }
            ),
            "{resp:?}"
        );
        assert!(sessions.is_empty());
    }

    #[test]
    fn shard_metrics_account_frames_outcomes_and_errors() {
        let mut sessions = HashMap::new();
        let mut m = ShardMetrics::new();
        let t0 = Instant::now();
        let mut reqs: Vec<Request> = vec![Request::Hello {
            session: 2,
            bits: 12,
            depth: 3,
        }];
        reqs.extend((0..6).map(|_| Request::Update {
            session: 2,
            record: rec(0x0040_0000),
        }));
        reqs.push(Request::Predict { session: 2 });
        reqs.push(Request::Stats { session: 2 });
        reqs.push(Request::Stats { session: 99 }); // unknown session
        for req in &reqs {
            let resp = apply(0, &mut sessions, req);
            m.record(req, &resp, t0);
        }
        let r = &m.registry;
        assert_eq!(r.counter_by_name("frames.hello"), Some(1));
        assert_eq!(r.counter_by_name("frames.update"), Some(6));
        assert_eq!(r.counter_by_name("frames.predict"), Some(1));
        assert_eq!(r.counter_by_name("frames.stats"), Some(2));
        assert_eq!(
            r.counter_by_name("predictions"),
            Some(6),
            "Predict scores nothing"
        );
        let mut oracle = NextTracePredictor::new(PredictorConfig::paper(12, 3));
        let expect = ntp_core::evaluate(&mut oracle, &[rec(0x0040_0000); 6]);
        assert_eq!(
            r.counter_by_name("predictions.correct"),
            Some(expect.correct)
        );
        assert_eq!(r.counter_by_name("sessions.opened"), Some(1));
        assert_eq!(r.counter_by_name("errors.unknown_session"), Some(1));
        assert_eq!(
            r.histogram_by_name("latency_us.all").unwrap().count(),
            10,
            "every frame lands in the all-frames histogram"
        );
        assert_eq!(r.histogram_by_name("latency_us.stats").unwrap().count(), 2);
        // A snapshot folds in the connection-side shared state.
        let shared = ShardShared::default();
        shared.busy.store(7, Ordering::Relaxed);
        shared.depth.store(3, Ordering::Relaxed);
        let snap = m.snapshot(0, &shared);
        assert_eq!(snap.metrics.counter_by_name("busy.rejections"), Some(7));
        assert_eq!(snap.metrics.gauge_by_name("queue.depth"), Some(3.0));
    }

    /// Busy and idle time accumulate in nanoseconds: a thousand
    /// sub-microsecond drains still add up to their exact total, where
    /// truncating each interval to whole microseconds would report 0.
    #[test]
    fn shard_time_counters_keep_sub_microsecond_intervals() {
        let mut m = ShardMetrics::new();
        for _ in 0..1_000 {
            m.add_busy(Duration::from_nanos(999));
            m.add_idle(Duration::from_nanos(1_500));
        }
        assert_eq!(m.registry.counter_by_name("time.busy_us"), Some(999));
        assert_eq!(m.registry.counter_by_name("time.idle_us"), Some(1_500));
    }

    /// A server snapshot at `uptime_s` whose `total` section counts
    /// `updates` update frames.
    fn polled(uptime_s: f64, updates: u64) -> Snapshot {
        let mut server = MetricsRegistry::new();
        let up = server.gauge("uptime_s");
        server.set(up, uptime_s);
        let mut total = MetricsRegistry::new();
        let c = total.counter("frames.update");
        total.add(c, updates);
        let mut snap = Snapshot::new();
        snap.push("server", server);
        snap.push("total", total);
        snap
    }

    #[test]
    fn rate_is_the_counter_delta_over_the_uptime_delta() {
        let total = |s: &Snapshot| frame_count(s, "total");
        let first = polled(4.0, 1_000);
        // Against an empty snapshot (uptime 0), the first poll reads the
        // lifetime mean.
        assert_eq!(rate(&Snapshot::new(), &first, "server", total), 250.0);
        // A later poll reads only what happened since the previous one.
        let second = polled(6.0, 1_100);
        assert_eq!(rate(&first, &second, "server", total), 50.0);
        // No uptime elapsed: 0, not NaN or infinity.
        assert_eq!(rate(&second, &polled(6.0, 1_200), "server", total), 0.0);
    }
}
