//! The serving frontend: a fixed set of `event_threads` epoll readiness
//! loops multiplexing every accepted socket (Linux only).
//!
//! The acceptor hands sockets to a [`ConnRouter`], each loop owns its
//! connections outright (no locks on any per-connection state), and a
//! [`crate::poll::WakeFd`] lets shard workers poke the loop when replies
//! are ready. Decoded frames route into the shards' bounded queues as
//! [`Job::Run`]s, one per shard per read burst; each job's replies come
//! back as one [`Completion`] tagged with the connection, each reply with
//! its sequence number, so the loop can restore the strict request order
//! on the wire no matter how shards interleave.
//!
//! Mechanics worth naming:
//!
//! * **Frame reassembly.** Reads land in a [`wire::FrameAssembler`]; a
//!   frame split across any number of reads (or many frames packed into
//!   one read) decodes identically to [`wire::read_frame`] on a blocking
//!   stream, including its oversized-resync and poisoning semantics.
//!   Reads that end mid-frame count `conn.partial_reads`.
//! * **Pipelining + coalescing.** A client may write many frames
//!   without waiting. Every routed frame decoded from one read burst
//!   joins its shard's pending list, whatever its session, and each
//!   list is enqueued as a single [`Job::Run`] — one queue slot, one
//!   shard wakeup, one [`Completion`] and one loop wake back — which is
//!   exactly the feeding pattern the shard's batched drain wants.
//!   Replies still go on the wire one frame per request, in request
//!   order (`next_write`/`pending` reordering).
//! * **Write backpressure.** Replies append to a per-connection buffer
//!   flushed opportunistically; a short write arms `EPOLLOUT` and the
//!   loop finishes the flush when the socket drains, so one slow reader
//!   never blocks the loop.
//! * **Idle reaping.** Every [`SWEEP_EVERY`], busy or not, a loop drops
//!   the connections that have nothing in flight and have made no I/O
//!   progress for `read_timeout`, counting each in `conn.read_timeouts`.
//! * **Shutdown.** The acceptor holds the only [`ConnRouter`]; when it
//!   exits the injection channels disconnect, and each loop runs its
//!   remaining connections dry before exiting — no shutdown race on late
//!   accepts.
//!
//! Shards never wait on a loop (completions ride an unbounded channel),
//! so a loop calling into `Hub::collect` for an inline `Metrics` frame
//! cannot deadlock against its own connections' in-flight work.
//!
//! # Remote shards
//!
//! A cluster router runs these loops with a [`Directory`] in place of
//! the shards. The loop chooses local or remote in two places only:
//! where routed frames go (a [`Job::Run`], or the loop's own connection
//! to the placed backend) and where replies come back (a [`Completion`],
//! or that connection, each reply settling its oldest frame in flight).
//! A frozen session's frames park with the loop in arrival order until
//! a thaw wakes it; their sequence numbers keep the client's connection
//! from idling out meanwhile.

use crate::config::ServeConfig;
use crate::poll::{Epoll, Event, WakeFd};
use crate::server::{note_sockopt, Completion, Hub, Job, LoopShared, Reply};
use crate::wire::{self, ErrorCode, FrameAssembler, FrameEvent, Request, Response, WireError};
use ntp_telemetry::{MetricsRegistry, Snapshot, ToJson};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Token reserved for the loop's own wakeup eventfd.
const WAKE_TOKEN: u64 = u64::MAX;

/// Tokens from here up name a router loop's backend connections
/// (`UPSTREAM + k` for backend `k`); client connections count up from 0.
const UPSTREAM: u64 = 1 << 63;

/// Epoll wait timeout: the longest a quiet loop goes without checking
/// for drain or a due idle sweep.
const LOOP_TICK_MS: i32 = 100;

/// Cadence of the idle sweep, whether or not events arrived.
const SWEEP_EVERY: Duration = Duration::from_millis(LOOP_TICK_MS as u64);

/// Most frames coalesced into one [`Job::Run`] — matches the shard's
/// own per-sweep drain limit, so one job never exceeds what a shard
/// would batch anyway.
const MAX_COALESCE: usize = 64;

/// Read-buffer size per `read(2)`: large enough that a burst of small
/// pipelined frames lands in one syscall.
const READ_CHUNK: usize = 64 << 10;

/// A cluster router's side of the event loops (see the module's
/// `# Remote shards`): where each session lives, how to reach a backend,
/// and the books on every frame forwarded there.
pub trait Directory: Send + Sync {
    /// The backend one frame of `session` goes to, counted in flight
    /// until [`Directory::settle`]; `None` while the session is frozen.
    /// `hello` carries a `Hello`'s `(bits, depth)`.
    fn place(&self, session: u64, hello: Option<(u32, u32)>) -> Option<u32>;
    /// Opens a loop's data connection to `backend`, kept where a failover
    /// can shut it down. The only blocking call on a loop's data path.
    fn connect(&self, backend: u32) -> std::io::Result<Arc<TcpStream>>;
    /// Closes the books on one placed frame of `session`.
    fn settle(&self, backend: u32, session: u64, how: Settled);
    /// Acts on a client's `Shutdown` before the loops start draining.
    fn shutdown(&self);
    /// Answers a `Metrics` frame around `conns`, the loops' connection
    /// section (a server's `server` section).
    fn metrics(&self, conns: MetricsRegistry) -> Snapshot;
}

/// How one placed frame ended.
pub enum Settled {
    /// The backend replied `rtt` after the frame was queued to it;
    /// `error` when the reply is an `Error` frame.
    Answered {
        /// Queued to reply read.
        rtt: Duration,
        /// The reply is an `Error` frame.
        error: bool,
    },
    /// Answered `Internal`: the backend connection failed `rtt` after
    /// the frame was queued to it, or (`None`) could not be opened.
    Failed(Option<Duration>),
    /// Answered `Busy` unsent: the backend connection had its cap of
    /// frames in flight.
    Shed,
}

/// Fans accepted sockets out to the event loops, round-robin. Held only
/// by the acceptor: dropping it closes every loop's injection channel,
/// which is each loop's signal that no new connection can ever arrive.
pub(crate) struct ConnRouter {
    targets: Vec<(mpsc::Sender<TcpStream>, Arc<WakeFd>)>,
    rr: usize,
}

impl ConnRouter {
    /// Hands a socket to the next loop and wakes it. False only when
    /// every loop is gone (teardown).
    pub(crate) fn inject(&mut self, mut stream: TcpStream) -> bool {
        let n = self.targets.len();
        let start = self.rr;
        self.rr = (start + 1) % n;
        for k in 0..n {
            let (tx, wake) = &self.targets[(start + k) % n];
            match tx.send(stream) {
                Ok(()) => {
                    wake.wake();
                    return true;
                }
                Err(mpsc::SendError(s)) => stream = s,
            }
        }
        false
    }
}

/// Spawns `cfg.event_threads` event-loop threads and the router that
/// feeds them.
pub(crate) fn spawn(
    cfg: &ServeConfig,
    hub: &Arc<Hub>,
    active_conns: &Arc<AtomicUsize>,
    loops: &Arc<[LoopShared]>,
) -> Result<(ConnRouter, Vec<JoinHandle<()>>), String> {
    let n = cfg.event_threads;
    let mut targets = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    for i in 0..n {
        let (inject_tx, inject_rx) = mpsc::channel::<TcpStream>();
        targets.push((inject_tx, Arc::clone(&loops[i].wake)));
        let cfg = cfg.clone();
        let hub = Arc::clone(hub);
        let active_conns = Arc::clone(active_conns);
        let loops = Arc::clone(loops);
        handles.push(
            std::thread::Builder::new()
                .name(format!("ntp-serve-loop-{i}"))
                .spawn(move || run_loop(cfg, hub, active_conns, loops, i, inject_rx))
                .map_err(|e| format!("serve: cannot spawn event loop: {e}"))?,
        );
    }
    Ok((ConnRouter { targets, rr: 0 }, handles))
}

/// One multiplexed connection: read side (assembler), write side
/// (buffered frames), and the sequencing that keeps the wire in
/// request order. A router loop's backend connections reuse the read and
/// write sides (see [`Upstream`]).
struct Conn {
    stream: Arc<TcpStream>,
    asm: FrameAssembler,
    /// Encoded frames not yet fully written.
    wbuf: Vec<u8>,
    /// How much of `wbuf` the socket has taken.
    wpos: usize,
    /// Next sequence number to stamp on a decoded frame.
    next_seq: u64,
    /// Next sequence number whose reply goes on the wire.
    next_write: u64,
    /// Replies that finished out of order, parked until their turn.
    pending: HashMap<u64, Answer>,
    /// Whether `EPOLLOUT` is currently armed for this socket.
    interest_out: bool,
    /// Close once `wbuf` drains (after `Bye`, or a poisoned stream).
    close_after_flush: bool,
    /// Peer sent EOF; close once every stamped frame is answered.
    read_closed: bool,
    /// Transport error; close immediately, discarding `wbuf`.
    dead: bool,
    last_activity: Instant,
}

enum FlushState {
    Drained,
    Stalled,
    Dead,
}

/// One reply in a connection's in-order stream.
enum Answer {
    /// A response this process encodes.
    Local(Response),
    /// A backend's reply body, relayed verbatim.
    Forwarded(Vec<u8>),
}

impl From<Response> for Answer {
    fn from(resp: Response) -> Answer {
        Answer::Local(resp)
    }
}

impl Answer {
    fn append_to(&self, out: &mut Vec<u8>) {
        match self {
            Answer::Local(resp) => wire::append_response_frame(out, resp),
            Answer::Forwarded(body) => wire::append_frame(out, body),
        }
    }
}

impl Conn {
    fn new(stream: Arc<TcpStream>) -> Conn {
        Conn {
            stream,
            asm: FrameAssembler::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            next_write: 0,
            pending: HashMap::new(),
            interest_out: false,
            close_after_flush: false,
            read_closed: false,
            dead: false,
            last_activity: Instant::now(),
        }
    }

    fn take_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// True when every stamped frame's reply has been encoded.
    fn idle(&self) -> bool {
        self.next_write == self.next_seq
    }

    /// Slots one reply into the in-order stream: encoded straight into
    /// `wbuf` when it is the next one due (then drains any parked run),
    /// parked otherwise.
    fn complete(&mut self, seq: u64, reply: impl Into<Answer>) {
        let reply = reply.into();
        if seq != self.next_write {
            self.pending.insert(seq, reply);
            return;
        }
        reply.append_to(&mut self.wbuf);
        self.next_write += 1;
        while let Some(r) = self.pending.remove(&self.next_write) {
            r.append_to(&mut self.wbuf);
            self.next_write += 1;
        }
    }

    /// Pushes buffered replies at the socket until drained or blocked.
    fn flush(&mut self) -> FlushState {
        while self.wpos < self.wbuf.len() {
            match (&*self.stream).write(&self.wbuf[self.wpos..]) {
                Ok(0) => return FlushState::Dead,
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return FlushState::Stalled,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushState::Dead,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        FlushState::Drained
    }
}

/// Everything frame processing needs, borrowed once per loop iteration.
struct Ctx<'a> {
    cfg: &'a ServeConfig,
    hub: &'a Hub,
    done_tx: &'a mpsc::Sender<Completion>,
    wake: &'a Arc<WakeFd>,
    ep: &'a Epoll,
}

fn run_loop(
    cfg: ServeConfig,
    hub: Arc<Hub>,
    active_conns: Arc<AtomicUsize>,
    loops: Arc<[LoopShared]>,
    loop_idx: usize,
    inject_rx: Receiver<TcpStream>,
) {
    let wake = Arc::clone(&loops[loop_idx].wake);
    let (done_tx, done_rx) = mpsc::channel::<Completion>();
    let mut ep = match Epoll::new() {
        Ok(ep) => ep,
        Err(e) => {
            eprintln!("[serve] event loop {loop_idx}: epoll_create1 failed: {e}");
            return;
        }
    };
    if let Err(e) = ep.add(wake.raw(), WAKE_TOKEN, false) {
        eprintln!("[serve] event loop {loop_idx}: cannot register eventfd: {e}");
        return;
    }
    let ls = &loops[loop_idx];
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut remote = hub.remote.as_ref().map(|dir| Remote {
        dir: Arc::clone(dir),
        upstreams: Vec::new(),
        parked: VecDeque::new(),
        cap: cfg.queue_depth * MAX_COALESCE,
    });
    let mut touched: Vec<u64> = Vec::new();
    let mut next_token: u64 = 0;
    let mut inject_open = true;
    let mut events: Vec<Event> = Vec::new();
    let mut rbuf = vec![0u8; READ_CHUNK];
    let mut next_sweep = Instant::now() + SWEEP_EVERY;

    loop {
        if hub.drain.is_set() && !inject_open && conns.is_empty() {
            break;
        }
        if let Err(e) = ep.wait(&mut events, LOOP_TICK_MS) {
            eprintln!("[serve] event loop {loop_idx}: epoll_wait failed: {e}");
            break;
        }
        let ctx = Ctx {
            cfg: &cfg,
            hub: &hub,
            done_tx: &done_tx,
            wake: &wake,
            ep: &ep,
        };

        // New sockets from the acceptor. A disconnected channel means
        // the acceptor is gone — no connection will ever arrive again.
        while inject_open {
            match inject_rx.try_recv() {
                Ok(stream) => register(
                    &ep,
                    &hub,
                    &active_conns,
                    &mut conns,
                    &mut next_token,
                    stream,
                ),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => inject_open = false,
            }
        }

        let mut frames_this_wakeup: usize = 0;
        let mut woke = false;
        for ev in &events {
            if ev.token == WAKE_TOKEN {
                woke = true;
                continue;
            }
            if ev.token >= UPSTREAM {
                // Writability is served by the flush below.
                if let Some(r) = remote.as_mut().filter(|_| ev.readable) {
                    let k = (ev.token - UPSTREAM) as usize;
                    r.receive(k, cfg.max_frame, &mut conns, &mut rbuf, &mut touched);
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.token) else {
                continue; // Closed earlier this iteration.
            };
            if ev.readable {
                read_socket(conn, &mut rbuf);
                frames_this_wakeup += process_frames(&ctx, conn, ev.token, remote.as_mut());
                if conn.asm.has_partial() && !conn.read_closed && !conn.dead {
                    ctx.hub
                        .counters
                        .partial_reads
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            // A pure EPOLLOUT event still settles: the stalled write
            // buffer can make progress now.
            if ev.readable || ev.writable {
                touched.push(ev.token);
            }
        }

        // Shard completions, or a thaw's retry of the parked frames. The
        // eventfd must be drained before the channel (or the directory)
        // is read so a racing producer either lands in this sweep or
        // re-signals the fd for the next one.
        if woke {
            wake.drain();
            while let Ok(c) = done_rx.try_recv() {
                if let Some(conn) = conns.get_mut(&c.conn) {
                    for (seq, resp) in c.replies {
                        conn.complete(seq, resp);
                    }
                    touched.push(c.conn);
                }
            }
            if let Some(r) = remote.as_mut() {
                r.retry(&ctx, &mut conns, &mut touched);
            }
        }
        if let Some(r) = remote.as_mut() {
            r.flush(&ep, &mut conns, &mut touched);
        }
        // Flush every connection with new replies or writability, and
        // close those that are done.
        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            let close = match conns.get_mut(&token) {
                Some(conn) => settle(&ep, conn, token),
                None => continue,
            };
            if close {
                close_conn(&ep, &mut conns, &active_conns, token);
            }
        }

        // Idle sweep on a fixed cadence, busy or not: a peer with nothing
        // in flight and no I/O progress past the read timeout is dropped,
        // so a silent or half-open peer cannot keep its `max_conns` slot
        // while other connections keep this loop busy.
        let now = Instant::now();
        if now >= next_sweep && !conns.is_empty() {
            next_sweep = now + SWEEP_EVERY;
            let expired: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.idle() && now.duration_since(c.last_activity) > cfg.read_timeout)
                .map(|(t, _)| *t)
                .collect();
            for token in expired {
                hub.counters.read_timeouts.fetch_add(1, Ordering::Relaxed);
                close_conn(&ep, &mut conns, &active_conns, token);
            }
        }

        if frames_this_wakeup > 0 {
            ls.wakeups.fetch_add(1, Ordering::Relaxed);
            ls.frames_per_wakeup
                .lock()
                .expect("loop histogram lock")
                .record(frames_this_wakeup as u64);
        }
    }
    // Remaining connections (only possible after an epoll failure) still
    // hold slots against the connection limit; release them.
    let abandoned = conns.len();
    drop(conns);
    active_conns.fetch_sub(abandoned, Ordering::SeqCst);
}

/// Switches a fresh socket to nonblocking and registers it; a socket
/// that cannot be prepared is closed (and its `active_conns` slot
/// released) rather than risk it blocking the loop.
fn register(
    ep: &Epoll,
    hub: &Hub,
    active_conns: &AtomicUsize,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    stream: TcpStream,
) {
    let r = stream.set_nonblocking(true);
    let ok = r.is_ok();
    note_sockopt(&hub.counters, "set_nonblocking", r);
    if !ok {
        active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let token = *next_token;
    *next_token += 1;
    if ep.add(stream.as_raw_fd(), token, false).is_err() {
        active_conns.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    conns.insert(token, Conn::new(Arc::new(stream)));
}

/// Reads until the socket would block (or EOF/error) through the
/// loop's one read buffer, feeding the assembler. Level-triggered epoll
/// re-reports anything left behind, so a short read may simply end the
/// burst.
fn read_socket(conn: &mut Conn, buf: &mut [u8]) {
    loop {
        match (&*conn.stream).read(buf) {
            Ok(0) => {
                conn.read_closed = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.asm.push(&buf[..n]);
                if n < buf.len() {
                    break; // Likely drained; skip the guaranteed EAGAIN.
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
}

/// Decodes every complete frame buffered on `conn`: refused frames and
/// undecodable bodies get typed error replies, `Shutdown` and `Metrics`
/// are answered inline, and every routed request joins its shard's
/// pending list in decode order. Each list goes to its shard as one
/// [`Job::Run`] at the end of the burst, before an inline `Shutdown` or
/// `Metrics` (so the reply sees the work decoded ahead of it), or as
/// soon as it reaches [`MAX_COALESCE`]. A router loop hands each routed
/// request to `remote` instead. Returns the number of frames decoded
/// (for `loop.frames_per_wakeup`).
fn process_frames(
    ctx: &Ctx,
    conn: &mut Conn,
    token: u64,
    mut remote: Option<&mut Remote>,
) -> usize {
    let mut frames = 0usize;
    let mut per_shard: Vec<Vec<(u64, Request)>> = Vec::new();
    per_shard.resize_with(ctx.hub.senders.len(), Vec::new);
    while let Some(event) = conn.asm.next(ctx.cfg.max_frame) {
        frames += 1;
        match event {
            FrameEvent::Refused(e) => {
                let seq = conn.take_seq();
                ctx.hub
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                if let WireError::Oversized { recoverable, .. } = e {
                    if recoverable {
                        ctx.hub.counters.resyncs.fetch_add(1, Ordering::Relaxed);
                    } else {
                        // The assembler is poisoned — no resync is
                        // possible past a huge declared length.
                        conn.close_after_flush = true;
                    }
                }
                conn.complete(seq, e.refusal());
                if conn.close_after_flush {
                    break;
                }
            }
            FrameEvent::Frame(body) => {
                let seq = conn.take_seq();
                match wire::decode_request(&body) {
                    Err(msg) => {
                        ctx.hub
                            .counters
                            .protocol_errors
                            .fetch_add(1, Ordering::Relaxed);
                        conn.complete(
                            seq,
                            Response::Error {
                                code: ErrorCode::BadRequest,
                                message: msg,
                            },
                        );
                    }
                    Ok(Request::Shutdown) => {
                        // In-flight work first: requests decoded before
                        // the Shutdown still get served, and their
                        // replies precede the Bye on the wire.
                        flush_all(ctx, conn, token, &mut per_shard);
                        if let Some(r) = &remote {
                            r.dir.shutdown();
                        }
                        ctx.hub.drain.trigger();
                        conn.complete(seq, Response::Bye);
                        conn.close_after_flush = true;
                        break; // Anything after a Shutdown is discarded.
                    }
                    Ok(Request::Metrics) => {
                        flush_all(ctx, conn, token, &mut per_shard);
                        let json = ctx.hub.collect().to_json().render();
                        conn.complete(seq, Response::Metrics { json });
                    }
                    Ok(req) => {
                        if let Some(r) = remote.as_deref_mut() {
                            if let Some(refusal) = r.send(ctx, token, seq, &req, body) {
                                conn.complete(seq, refusal);
                            }
                            continue;
                        }
                        let session = req.session().expect("routed requests name a session");
                        let shard = (session % per_shard.len() as u64) as usize;
                        per_shard[shard].push((seq, req));
                        if per_shard[shard].len() >= MAX_COALESCE {
                            flush_job(ctx, conn, token, &mut per_shard[shard], shard);
                        }
                    }
                }
            }
        }
    }
    flush_all(ctx, conn, token, &mut per_shard);
    frames
}

/// Enqueues every shard's pending list, shard 0 first.
fn flush_all(ctx: &Ctx, conn: &mut Conn, token: u64, per_shard: &mut [Vec<(u64, Request)>]) {
    for (shard, entries) in per_shard.iter_mut().enumerate() {
        flush_job(ctx, conn, token, entries, shard);
    }
}

/// Enqueues one shard's pending list as one [`Job::Run`] — one queue
/// slot and one depth increment, matching the shard's one decrement per
/// job. A full queue answers `Busy` per request (and counts each one); a
/// disconnected queue answers `Draining`.
fn flush_job(
    ctx: &Ctx,
    conn: &mut Conn,
    token: u64,
    entries: &mut Vec<(u64, Request)>,
    shard: usize,
) {
    if entries.is_empty() {
        return;
    }
    let entries = std::mem::take(entries);
    let n = entries.len() as u64;
    let job = Job::Run {
        reply: Reply {
            tx: ctx.done_tx.clone(),
            wake: Arc::clone(ctx.wake),
            conn: token,
        },
        entries,
    };
    match ctx.hub.senders[shard].try_send(job) {
        Ok(()) => {
            ctx.hub.shared[shard].depth.fetch_add(1, Ordering::Relaxed);
        }
        Err(TrySendError::Full(job)) => {
            ctx.hub.counters.busy.fetch_add(n, Ordering::Relaxed);
            ctx.hub.shared[shard].busy.fetch_add(n, Ordering::Relaxed);
            refuse_job(conn, job, &Response::Busy);
        }
        Err(TrySendError::Disconnected(job)) => {
            refuse_job(
                conn,
                job,
                &Response::Error {
                    code: ErrorCode::Draining,
                    message: "server is draining".into(),
                },
            );
        }
    }
}

/// Completes every request in a rejected job with `resp`, in place,
/// through the same in-order slotting as shard replies.
fn refuse_job(conn: &mut Conn, job: Job, resp: &Response) {
    if let Job::Run { entries, .. } = job {
        for (seq, _) in entries {
            conn.complete(seq, resp.clone());
        }
    }
}

/// Flushes what it can and decides the connection's fate: arms or
/// disarms `EPOLLOUT` around a stalled write, closes after the final
/// flush (`Bye`/poisoned stream), closes a half-closed peer once every
/// stamped frame is answered. Returns true when the connection should
/// close now.
fn settle(ep: &Epoll, conn: &mut Conn, token: u64) -> bool {
    if conn.dead {
        return true;
    }
    match conn.flush() {
        FlushState::Drained => {
            if conn.interest_out {
                if ep.modify(conn.stream.as_raw_fd(), token, false).is_err() {
                    return true;
                }
                conn.interest_out = false;
            }
            (conn.close_after_flush || conn.read_closed) && conn.idle()
        }
        FlushState::Stalled => {
            if !conn.interest_out {
                if ep.modify(conn.stream.as_raw_fd(), token, true).is_err() {
                    return true;
                }
                conn.interest_out = true;
            }
            false
        }
        FlushState::Dead => true,
    }
}

/// Deregisters and drops one connection, releasing its `active_conns`
/// slot. Anything still buffered (reads or replies) is discarded.
fn close_conn(ep: &Epoll, conns: &mut HashMap<u64, Conn>, active_conns: &AtomicUsize, token: u64) {
    if let Some(conn) = conns.remove(&token) {
        ep.delete(conn.stream.as_raw_fd());
        drop(conn);
        active_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A router loop's side of the seam: its connection to each backend and
/// the frames parked behind frozen sessions.
struct Remote {
    dir: Arc<dyn Directory>,
    /// This loop's connection to each backend, by index, once opened.
    upstreams: Vec<Option<Upstream>>,
    /// Frames of frozen sessions, in arrival order.
    parked: VecDeque<Frame>,
    /// Most frames in flight per backend connection, and parked: a shard
    /// queue's bound (`queue_depth` × [`MAX_COALESCE`]); past it, `Busy`.
    cap: usize,
}

/// A backend connection: [`Conn`]'s read and write sides, and the frames
/// queued to it and not yet answered, oldest first (the backend answers
/// in order).
struct Upstream {
    conn: Conn,
    inflight: VecDeque<(Frame, Instant)>,
}

/// One routed frame: the client connection and sequence number its reply
/// completes, its session, and its raw body (emptied once queued).
struct Frame {
    conn: u64,
    seq: u64,
    session: u64,
    hello: Option<(u32, u32)>,
    body: Vec<u8>,
}

impl Remote {
    /// Forwards one routed frame read on client connection `token`, or
    /// parks it behind its session; returns the refusal to slot in its
    /// place instead, if any.
    fn send(
        &mut self,
        ctx: &Ctx,
        token: u64,
        seq: u64,
        req: &Request,
        body: Vec<u8>,
    ) -> Option<Response> {
        let hello = match *req {
            Request::Hello { bits, depth, .. } => Some((bits, depth)),
            // A client-driven migration would desynchronize the
            // directory; the router owns session movement.
            Request::Migrate { .. } => {
                return Some(Response::Error {
                    code: ErrorCode::BadRequest,
                    message: "session migration is router-managed; \
                              use `ntp route --migrate` or the router API"
                        .into(),
                })
            }
            _ => None,
        };
        let session = req.session().expect("routed requests name a session");
        let frame = Frame {
            conn: token,
            seq,
            session,
            hello,
            body,
        };
        // Behind its session's parked frames, or parked itself if frozen.
        let frame = match self.parked.iter().any(|p| p.session == session) {
            true => frame,
            false => match self.forward(ctx, frame) {
                Ok(refusal) => return refusal,
                Err(frame) => frame,
            },
        };
        if self.parked.len() >= self.cap {
            ctx.hub.counters.busy.fetch_add(1, Ordering::Relaxed);
            return Some(Response::Busy);
        }
        self.parked.push_back(frame);
        None
    }

    /// Places one frame and queues it on its backend's connection,
    /// opening that on first use. `Err` hands back a frozen session's
    /// frame; `Ok(Some(_))` is the refusal to slot in its place.
    fn forward(&mut self, ctx: &Ctx, mut frame: Frame) -> Result<Option<Response>, Frame> {
        let Some(k) = self.dir.place(frame.session, frame.hello) else {
            return Err(frame);
        };
        let slot = k as usize;
        if self.upstreams.len() <= slot {
            self.upstreams.resize_with(slot + 1, || None);
        }
        if self.upstreams[slot].is_none() {
            match open_upstream(ctx.ep, &*self.dir, k) {
                Ok(up) => self.upstreams[slot] = Some(up),
                Err(e) => {
                    self.dir.settle(k, frame.session, Settled::Failed(None));
                    return Ok(Some(Response::Error {
                        code: ErrorCode::Internal,
                        message: format!("backend {k} unreachable: {e}"),
                    }));
                }
            }
        }
        let up = self.upstreams[slot].as_mut().expect("opened above");
        if up.inflight.len() >= self.cap {
            self.dir.settle(k, frame.session, Settled::Shed);
            ctx.hub.counters.busy.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(Response::Busy));
        }
        wire::append_frame(&mut up.conn.wbuf, &std::mem::take(&mut frame.body));
        up.inflight.push_back((frame, Instant::now()));
        Ok(None)
    }

    /// Retries the parked frames in arrival order (a thaw woke the
    /// loop); a frame whose session is still frozen keeps every later
    /// frame of that session parked behind it.
    fn retry(&mut self, ctx: &Ctx, conns: &mut HashMap<u64, Conn>, touched: &mut Vec<u64>) {
        let mut frozen: Vec<u64> = Vec::new();
        for frame in std::mem::take(&mut self.parked) {
            if frozen.contains(&frame.session) {
                self.parked.push_back(frame);
                continue;
            }
            let (token, seq) = (frame.conn, frame.seq);
            match self.forward(ctx, frame) {
                Ok(None) => {}
                Ok(Some(resp)) => {
                    if let Some(conn) = conns.get_mut(&token) {
                        conn.complete(seq, resp);
                        touched.push(token);
                    }
                }
                Err(frame) => {
                    frozen.push(frame.session);
                    self.parked.push_back(frame);
                }
            }
        }
    }

    /// Reads backend `k`'s replies: each settles the oldest frame in
    /// flight there and takes its place, verbatim, in that client's
    /// reply stream. A refused or unsolicited reply fails the
    /// connection.
    fn receive(
        &mut self,
        k: usize,
        max_frame: u32,
        conns: &mut HashMap<u64, Conn>,
        rbuf: &mut [u8],
        touched: &mut Vec<u64>,
    ) {
        let Some(up) = self.upstreams.get_mut(k).and_then(Option::as_mut) else {
            return;
        };
        read_socket(&mut up.conn, rbuf);
        while let Some(event) = up.conn.asm.next(max_frame) {
            let (FrameEvent::Frame(body), Some((frame, sent))) = (event, up.inflight.front())
            else {
                up.conn.dead = true;
                break;
            };
            let error = body.first() == Some(&wire::K_ERROR);
            let answered = Settled::Answered {
                rtt: sent.elapsed(),
                error,
            };
            self.dir.settle(k as u32, frame.session, answered);
            if let Some(conn) = conns.get_mut(&frame.conn) {
                conn.complete(frame.seq, Answer::Forwarded(body));
                touched.push(frame.conn);
            }
            up.inflight.pop_front();
        }
    }

    /// Writes every backend connection's queued frames. A connection
    /// that failed answers each frame still in flight on it `Internal`;
    /// one that the backend closed idle is dropped without an error.
    /// Either way the next frame for that backend opens a fresh one.
    fn flush(&mut self, ep: &Epoll, conns: &mut HashMap<u64, Conn>, touched: &mut Vec<u64>) {
        for k in 0..self.upstreams.len() {
            let Some(up) = self.upstreams[k].as_mut() else {
                continue;
            };
            if !settle(ep, &mut up.conn, UPSTREAM + k as u64) {
                continue;
            }
            ep.delete(up.conn.stream.as_raw_fd());
            let why = if up.conn.dead { "failed" } else { "closed" };
            for (frame, sent) in std::mem::take(&mut up.inflight) {
                let failed = Settled::Failed(Some(sent.elapsed()));
                self.dir.settle(k as u32, frame.session, failed);
                if let Some(conn) = conns.get_mut(&frame.conn) {
                    let message = format!("backend {k} failed mid-request: connection {why}");
                    let code = ErrorCode::Internal;
                    conn.complete(frame.seq, Response::Error { code, message });
                    touched.push(frame.conn);
                }
            }
            self.upstreams[k] = None;
        }
    }
}

/// Opens and registers this loop's connection to backend `k`.
fn open_upstream(ep: &Epoll, dir: &dyn Directory, k: u32) -> std::io::Result<Upstream> {
    let stream = dir.connect(k)?;
    stream.set_nonblocking(true)?;
    ep.add(stream.as_raw_fd(), UPSTREAM + u64::from(k), false)?;
    Ok(Upstream {
        conn: Conn::new(stream),
        inflight: VecDeque::new(),
    })
}
