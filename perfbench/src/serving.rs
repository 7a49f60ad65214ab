//! `serve-burst` and `route-steady`: an open-loop schedule of `Update`
//! frames against in-process servers, every reply checked by a lockstep
//! oracle, latency timed from each frame's *scheduled* send.

use crate::refk::RefLog;
use crate::stats::{mean, median, normalise_time, percentile};
use crate::tracer::Tracer;
use crate::{Args, Outcome, Rng};
use ntp_cluster::{BackendSpec, RouterConfig, RouterHandle};
use ntp_core::{NextTracePredictor, PredictorConfig, PredictorStats, TracePredictor};
use ntp_serve::wire::{self, FrameAssembler, FrameEvent, Request, Response};
use ntp_serve::{ServeConfig, ServerHandle};
use ntp_telemetry::json::Json;
use ntp_telemetry::Snapshot;
use ntp_trace::TraceRecord;
use ntp_workloads::ScalePreset;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Sessions opened per run, all `paper(BITS, DEPTH)`.
pub const SESSIONS: usize = 64;
const BITS: u32 = 15;
const DEPTH: u32 = 7;
/// Zipf exponent of session popularity (session 0 most popular).
const ZIPF: f64 = 1.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// The pacer measures the host before every `ref_every`-th burst when it
/// has more than `REF_ROOM` to wait for it, starting `REF_LEAD` before
/// it (a measurement takes about 1 ms).
const REF_ROOM: Duration = Duration::from_millis(4);
const REF_LEAD: Duration = Duration::from_micros(2500);
/// A quiet stretch a schedule may leave every so many bursts, so the
/// pacer can measure the host.
const PAUSE: Duration = Duration::from_millis(5);
/// Schedule time per latency window. Each window's percentiles are
/// normalised by the host measurements taken in it, and the run reports
/// the median over its windows, so a stall of the host spoils only the
/// windows it falls in.
const WINDOW: Duration = Duration::from_secs(1);
const MAX_FRAME: u32 = ntp_serve::config::DEFAULT_MAX_FRAME;

/// How a serving workload offers its load.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Frames per burst; each burst goes out in one write.
    pub burst: usize,
    /// Bursts per second, evenly spaced.
    pub bursts_per_s: f64,
    /// Bursts between two [`PAUSE`]s; 0 for none.
    pub pause_every: usize,
    /// Bursts between two host measurements.
    pub ref_every: usize,
    /// Through the cluster router to two backends, or straight to one
    /// server.
    pub routed: bool,
}

/// Bursts of 32 frames at 125 bursts/s (4 000 frames/s) to one server.
/// At 250 bursts/s a stall of the host of about 16 ms let the catch-up
/// bursts overflow the shard's default 128-job queue in some runs. The
/// 8 ms between bursts leave room to measure the host; it is measured
/// about ten times a second, as a measurement before every burst
/// disturbed the caches the burst then found cold.
pub const SERVE_BURST: Shape = Shape {
    burst: 32,
    bursts_per_s: 125.0,
    pause_every: 0,
    ref_every: 12,
    routed: false,
};

/// Single frames evenly paced at 5 000/s through the router, with a
/// pause every 50 ms to measure the host. At 10 000/s a stall of the
/// host shed frames in some runs.
pub const ROUTE_STEADY: Shape = Shape {
    burst: 1,
    bursts_per_s: 5_000.0,
    pause_every: 250,
    ref_every: 250,
    routed: true,
};

/// The whole offered load, a pure function of the seed, the shape, the
/// duration and the captured streams.
pub struct Schedule {
    /// Frames in send order; frame `k` belongs to burst `k / burst`.
    pub frames: Vec<(u16, TraceRecord)>,
    /// Frames per burst.
    pub burst: usize,
    /// Time between bursts.
    pub period: Duration,
    /// Bursts between two [`PAUSE`]s; 0 for none.
    pub pause_every: usize,
    /// Bursts between two host measurements.
    pub ref_every: usize,
    /// FNV-1a-64 over the session→stream map and every frame.
    pub digest: u64,
}

impl Schedule {
    /// Draws the schedule: each session replays one stream from a seeded
    /// offset, and each frame's session is a Zipf draw.
    pub fn build(seed: u64, shape: Shape, seconds: f64, streams: &[&[TraceRecord]]) -> Schedule {
        let mut rng = Rng::new(seed);
        let mut digest = ntp_hash::Fnv64::new();
        let mut cursor: Vec<(usize, usize)> = (0..SESSIONS)
            .map(|_| {
                let s = rng.below(streams.len() as u64) as usize;
                let at = rng.below(streams[s].len() as u64) as usize;
                digest.update(&[s as u8]);
                digest.update(&(at as u64).to_le_bytes());
                (s, at)
            })
            .collect();
        let weights: Vec<f64> = (0..SESSIONS)
            .map(|i| 1.0 / ((i + 1) as f64).powf(ZIPF))
            .collect();
        let sum: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / sum;
                acc
            })
            .collect();
        // As many bursts as fit in `seconds`, pauses included.
        let mut per_burst = 1.0 / shape.bursts_per_s;
        if shape.pause_every > 0 {
            per_burst += PAUSE.as_secs_f64() / shape.pause_every as f64;
        }
        let bursts = (seconds / per_burst).round().max(1.0) as usize;
        let mut frames = Vec::with_capacity(bursts * shape.burst);
        for _ in 0..bursts * shape.burst {
            let u = rng.unit();
            let session = cdf.partition_point(|&c| c < u).min(SESSIONS - 1);
            let (s, at) = cursor[session];
            let record = streams[s][at];
            cursor[session].1 = (at + 1) % streams[s].len();
            digest.update(&[session as u8]);
            frames.push((session as u16, record));
        }
        Schedule {
            frames,
            burst: shape.burst,
            period: Duration::from_secs_f64(1.0 / shape.bursts_per_s),
            pause_every: shape.pause_every,
            ref_every: shape.ref_every,
            digest: digest.finish(),
        }
    }

    /// When burst `b` is due, relative to the schedule's start.
    fn due(&self, b: usize) -> Duration {
        let pauses = b.checked_div(self.pause_every).unwrap_or(0);
        self.period * b as u32 + PAUSE * pauses as u32
    }
}

/// The servers under test, torn down in dependency order.
struct Front {
    addr: std::net::SocketAddr,
    router: Option<RouterHandle>,
    servers: Vec<ServerHandle>,
}

impl Front {
    fn start(tr: &mut Tracer, routed: bool) -> Result<Front, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            event_threads: 1,
            ..ServeConfig::default()
        };
        let n = if routed { 2 } else { 1 };
        let servers = (0..n)
            .map(|_| tr.span("serve.serve", || ntp_serve::serve(cfg.clone())))
            .collect::<Result<Vec<_>, _>>()?;
        if !routed {
            return Ok(Front {
                addr: servers[0].local_addr(),
                router: None,
                servers,
            });
        }
        let backends = servers
            .iter()
            .map(|s| BackendSpec {
                addr: s.local_addr().to_string(),
                snapshot_dir: None,
            })
            .collect();
        let router = tr.span("cluster.start", || {
            ntp_cluster::start(RouterConfig::new(backends))
        })?;
        Ok(Front {
            addr: router.local_addr(),
            router: Some(router),
            servers,
        })
    }

    /// Drains the router, then every server. The caller's connections
    /// must already be closed.
    fn stop(self) {
        if let Some(r) = self.router {
            r.request_shutdown();
            r.join();
        }
        for s in self.servers {
            s.request_shutdown();
            s.join();
        }
    }

    fn snapshots(&self) -> Vec<Snapshot> {
        self.servers.iter().map(|s| s.metrics_snapshot()).collect()
    }

    /// The router's metrics, when tracing and routed.
    fn router_json(&self, tr: &mut Tracer) -> Option<Json> {
        let router = self.router.as_ref().filter(|_| tr.on())?;
        let text = tr.span("cluster.metrics_json", || router.metrics_json());
        Some(ntp_telemetry::json::parse(&text).expect("router metrics are valid JSON"))
    }
}

/// Sends one request and reads its reply, lockstep.
fn call(stream: &mut TcpStream, scratch: &mut Vec<u8>, req: &Request) -> Result<Response, String> {
    wire::frame_request(scratch, req);
    stream.write_all(scratch).map_err(|e| e.to_string())?;
    let body = wire::read_frame(stream, MAX_FRAME).map_err(|e| e.to_string())?;
    wire::decode_response(&body)
}

/// The captured streams, each with the instructions simulated for it.
type Streams = Vec<(u64, Vec<TraceRecord>)>;

/// One set-up: capture at tiny scale, start the front, connect, and open
/// every session.
fn set_up(tr: &mut Tracer, routed: bool) -> Result<(Streams, Front, TcpStream), String> {
    let streams = crate::offline::capture(tr, ScalePreset::Tiny)
        .into_iter()
        .map(|d| (d.icount, d.records))
        .collect();
    let front = Front::start(tr, routed)?;
    let mut stream = TcpStream::connect(front.addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    for timeout in [TcpStream::set_read_timeout, TcpStream::set_write_timeout] {
        timeout(&stream, Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    }
    let mut scratch = Vec::new();
    for s in 0..SESSIONS as u64 {
        let hello = Request::Hello {
            session: s,
            bits: BITS,
            depth: DEPTH,
        };
        match call(&mut stream, &mut scratch, &hello)? {
            Response::HelloOk { .. } => {}
            other => return Err(format!("session {s}: Hello answered {other:?}")),
        }
    }
    Ok((streams, front, stream))
}

/// What the reader thread hands back.
struct Replies {
    /// Sojourn per frame in microseconds, in send order; infinite for a
    /// frame the server shed.
    sojourn_us: Vec<f64>,
    busy: u64,
    decode_ns: u64,
    decoded: u64,
    oracles: Vec<(NextTracePredictor, PredictorStats)>,
}

/// Reads every reply in order, checks each against the session's
/// lockstep oracle and times it from its burst's due time. Frames of
/// odd bursts are decoded untimed when tracing, to measure its cost.
fn read_replies(
    mut stream: TcpStream,
    sched: &Schedule,
    t0: Instant,
    traced: bool,
) -> Result<Replies, String> {
    let cfg = PredictorConfig::paper(BITS, DEPTH as usize);
    let mut out = Replies {
        sojourn_us: Vec::with_capacity(sched.frames.len()),
        busy: 0,
        decode_ns: 0,
        decoded: 0,
        oracles: (0..SESSIONS)
            .map(|_| (NextTracePredictor::new(cfg), PredictorStats::new()))
            .collect(),
    };
    let mut asm = FrameAssembler::new();
    let mut buf = vec![0u8; 64 << 10];
    let mut k = 0usize;
    while k < sched.frames.len() {
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("reply {k}: {e}"))?;
        if n == 0 {
            return Err(format!("server closed the connection at reply {k}"));
        }
        let now = Instant::now();
        asm.push(&buf[..n]);
        loop {
            let timed = traced && (k / sched.burst).is_multiple_of(2);
            let start = timed.then(Instant::now);
            let resp = match asm.next(MAX_FRAME) {
                None => break,
                Some(FrameEvent::Frame(body)) => wire::decode_response(&body)?,
                Some(FrameEvent::Refused(e)) => return Err(format!("reply {k}: {e}")),
            };
            if let Some(s) = start {
                out.decode_ns += s.elapsed().as_nanos() as u64;
                out.decoded += 1;
            }
            let (session, record) = *sched
                .frames
                .get(k)
                .ok_or_else(|| format!("unexpected reply beyond frame {k}"))?;
            let shed = resp == Response::Busy;
            match resp {
                Response::Updated { correct } => {
                    let (p, stats) = &mut out.oracles[session as usize];
                    let pred = p.predict();
                    if pred.is_correct(record.id()) != correct {
                        return Err(format!(
                            "frame {k}: session {session} diverged from its oracle"
                        ));
                    }
                    stats.score(&pred, &record);
                    p.update(&record);
                }
                Response::Busy => out.busy += 1,
                other => return Err(format!("frame {k}: expected Updated, got {other:?}")),
            }
            // A shed frame misses every latency limit.
            let due = t0 + sched.due(k / sched.burst);
            out.sojourn_us.push(if shed {
                f64::INFINITY
            } else {
                now.saturating_duration_since(due).as_secs_f64() * 1e6
            });
            k += 1;
        }
    }
    Ok(out)
}

/// Sleeps until `due`. A long sleep lets the (virtual) CPU go idle, and
/// waking it from there costs tens of microseconds, so the last stretch
/// is slept separately: a short sleep wakes on time.
fn sleep_until(due: Instant) {
    const LAST: Duration = Duration::from_micros(200);
    while let Some(wait) = due.checked_duration_since(Instant::now()) {
        std::thread::sleep(if wait > 2 * LAST { wait - LAST } else { wait });
    }
}

/// What the pacer measured.
struct Sent {
    lag_us: Vec<f64>,
    encode_ns: u64,
    encoded: u64,
}

/// Walks the schedule: sleeps to each burst's due time, encodes its
/// frames and writes them in one call, whether or not earlier replies
/// are back. Before every `ref_every`-th burst, if it is more than
/// [`REF_ROOM`] away, it takes a reference measurement into `refs`.
fn pace(
    stream: &mut TcpStream,
    sched: &Schedule,
    t0: Instant,
    traced: bool,
    refs: &mut RefLog,
) -> Result<Sent, String> {
    let mut sent = Sent {
        lag_us: Vec::with_capacity(sched.frames.len() / sched.burst),
        encode_ns: 0,
        encoded: 0,
    };
    let mut scratch = Vec::with_capacity(64);
    let mut out = Vec::with_capacity(64 * sched.burst);
    for (b, frames) in sched.frames.chunks(sched.burst).enumerate() {
        let due = t0 + sched.due(b);
        // Where the schedule leaves room, measure the host right before
        // the burst, well clear of the previous burst's replies.
        if b.is_multiple_of(sched.ref_every)
            && due.saturating_duration_since(Instant::now()) > REF_ROOM
        {
            sleep_until(due - REF_LEAD);
            refs.sample();
        }
        sleep_until(due);
        let timed = traced && b.is_multiple_of(2);
        out.clear();
        for &(session, record) in frames {
            let start = timed.then(Instant::now);
            wire::frame_request(
                &mut scratch,
                &Request::Update {
                    session: session as u64,
                    record,
                },
            );
            if let Some(s) = start {
                sent.encode_ns += s.elapsed().as_nanos() as u64;
                sent.encoded += 1;
            }
            out.extend_from_slice(&scratch);
        }
        sent.lag_us
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        stream
            .write_all(&out)
            .map_err(|e| format!("burst {b}: {e}"))?;
    }
    Ok(sent)
}

pub fn run(
    args: &Args,
    shape: Shape,
    tr: &mut Tracer,
    refs: &mut RefLog,
) -> Result<Outcome, String> {
    crate::sys::map_large_blocks()?;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut raw_setups = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<(Streams, Front, TcpStream)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((_, front, stream)) = live.take() {
            drop(stream);
            front.stop();
        }
        let before = refs.sample();
        let start = Instant::now();
        let up = set_up(tr, shape.routed)?;
        let raw = start.elapsed().as_secs_f64();
        setups.push(normalise_time(raw, (before + refs.sample()) / 2.0));
        raw_setups.push(raw);
        live = Some(up);
    }
    let (streams, front, mut stream) = live.expect("set-up ran");
    let views: Vec<&[TraceRecord]> = streams.iter().map(|s| s.1.as_slice()).collect();
    let sched = Schedule::build(args.seed, shape, args.seconds, &views);
    crate::sys::tighten_timer_slack()?;

    let traced = tr.on();
    let snaps_before = traced.then(|| tr.span("serve.metrics_snapshot", || front.snapshots()));
    let router_before = front.router_json(tr);
    let t0 = Instant::now() + Duration::from_millis(20);
    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let (sent, replies) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_replies(read_half, &sched, t0, traced));
        let sent = pace(&mut stream, &sched, t0, traced, refs);
        let replies = reader.join().expect("reader thread panicked");
        (sent, replies)
    });
    let (mut sent, replies) = (sent?, replies?);
    let snaps_after = traced.then(|| tr.span("serve.metrics_snapshot", || front.snapshots()));
    let router_after = front.router_json(tr);

    // The server's final per-session statistics must equal the oracles'.
    let mut scratch = Vec::new();
    for (s, (_, want)) in replies.oracles.iter().enumerate() {
        match call(
            &mut stream,
            &mut scratch,
            &Request::Stats { session: s as u64 },
        )? {
            Response::StatsOk { stats } if stats == *want => {}
            Response::StatsOk { .. } => {
                return Err(format!("session {s}: final stats differ from the oracle"))
            }
            other => return Err(format!("session {s}: Stats answered {other:?}")),
        }
    }
    drop(stream);
    let backends = front.servers.len();
    front.stop();

    let frames = sched.frames.len();
    let setup_s = median(&mut setups).expect("set-up ran");
    let raw_setup = median(&mut raw_setups).expect("set-up ran");
    let windows = windows(&sched, &replies.sojourn_us, t0, refs)?;
    let per_window = |f: &dyn Fn(&Window) -> f64| {
        median(&mut windows.iter().map(f).collect::<Vec<_>>()).expect("one window")
    };
    let norm = |w: &Window, us: f64| w.host.map_or(us, |h| normalise_time(us, h));
    let p50 = per_window(&|w| norm(w, w.p50));
    let p90 = per_window(&|w| norm(w, w.p90));
    println!(
        "schedule {:016x}: {frames} frames in bursts of {} every {:?}; {} busy",
        sched.digest, sched.burst, sched.period, replies.busy
    );
    println!(
        "  setup_s {setup_s:.4} (raw {raw_setup:.4}, n={SETUP_REPS}); burst latency p50 {p50:.1} us (raw {:.1}), p90 {p90:.1} us (raw {:.1}); medians over {} windows of {} bursts and {} host measurements each",
        per_window(&|w| w.p50),
        per_window(&|w| w.p90),
        windows.len(),
        per_window(&|w| w.bursts as f64),
        per_window(&|w| w.hosts as f64),
    );
    let mut out = Outcome::new(frames as u64, replies.busy);
    if !traced {
        out.put("setup_s", setup_s);
        out.put("latency_p50_us", p50);
        out.put("latency_p90_us", p90);
        return Ok(out);
    }
    let mut sojourn = replies.sojourn_us.clone();

    let instrs: u64 = streams.iter().map(|s| s.0).sum();
    crate::offline::put_capture_metrics(
        tr,
        &mut out,
        ScalePreset::Tiny,
        instrs * SETUP_REPS as u64,
    )?;
    out.put(
        "wire.encode_ns",
        sent.encode_ns as f64 / sent.encoded.max(1) as f64,
    );
    out.put(
        "wire.decode_ns",
        replies.decode_ns as f64 / replies.decoded.max(1) as f64,
    );
    let p99 = percentile(&mut sojourn, 0.99).ok_or("too few replies for p99")?;
    out.put("bench.sojourn_p99_us", p99);
    let lag_mean = mean(&sent.lag_us).expect("bursts were sent");
    let lags = sent.lag_us.len();
    let lag50 = percentile(&mut sent.lag_us, 0.5).ok_or("too few bursts for p50")?;
    let lag90 = percentile(&mut sent.lag_us, 0.9).ok_or("too few bursts for p90")?;
    println!("  send lag p50 {lag50:.1} us, p90 {lag90:.1} us (n={lags})");
    out.put("bench.send_lag_us.p50", lag50);
    out.put("bench.send_lag_us.p90", lag90);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (k, us) in replies.sojourn_us.iter().enumerate() {
        if (k / sched.burst).is_multiple_of(2) {
            on.push(*us);
        } else {
            off.push(*us);
        }
    }
    let on = percentile(&mut on, 0.5).ok_or("too few traced replies")?;
    let off = percentile(&mut off, 0.5).ok_or("too few untraced replies")?;
    out.put("bench.trace_overhead_pct", (on / off - 1.0) * 100.0);

    let before = snaps_before.expect("traced");
    let after = snaps_after.expect("traced");
    let d = |section: &str, name: &str| -> f64 {
        before
            .iter()
            .zip(&after)
            .map(|(b, a)| counter(a, section, name) - counter(b, section, name))
            .sum()
    };
    let updates = d("total", "frames.update").max(1.0);
    let busy_us = d("total", "time.busy_us");
    let idle_us = d("total", "time.idle_us");
    let wakeups: f64 = before
        .iter()
        .zip(&after)
        .map(|(b, a)| {
            let h = |s: &Snapshot| {
                s.get("server")
                    .and_then(|r| r.histogram_by_name("loop.frames_per_wakeup"))
                    .map_or((0.0, 0.0), |h| (h.sum() as f64, h.count() as f64))
            };
            let (sa, ca) = h(a);
            let (sb, cb) = h(b);
            (sa - sb) / (ca - cb).max(1.0)
        })
        .sum::<f64>()
        / before.len() as f64;
    out.put("event.frames_per_wakeup", wakeups);
    out.put(
        "event.partial_reads_per_frame",
        d("server", "conn.partial_reads") / updates,
    );
    out.put("server.busy_us_per_frame", busy_us / updates);
    out.put("server.busy_share", busy_us / (busy_us + idle_us).max(1.0));
    out.put(
        "server.drain_batched_share",
        d("total", "drain.batched") / updates,
    );
    out.put(
        "server.drain_coalesced_share",
        d("total", "drain.coalesced") / updates,
    );
    out.put("server.busy_rejections", d("server", "busy.replies"));

    if let (Some(rb), Some(ra)) = (router_before, router_after) {
        let field = |j: &Json, path: &[&str]| -> f64 {
            path.iter()
                .try_fold(j, |j, k| j.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        let delta = |path: &[&str]| field(&ra, path) - field(&rb, path);
        let mut forwarded = Vec::new();
        let (mut rtt_sum, mut rtt_n) = (0.0, 0.0);
        for k in 0..backends {
            let sec = format!("backend{k}");
            forwarded.push(delta(&[&sec, "counters", "forwarded"]));
            rtt_sum += delta(&[&sec, "histograms", "latency_us", "sum"]);
            rtt_n += delta(&[&sec, "histograms", "latency_us", "count"]);
        }
        let rtt = rtt_sum / rtt_n.max(1.0);
        let total: f64 = forwarded.iter().sum();
        let served: Vec<f64> = replies
            .sojourn_us
            .iter()
            .copied()
            .filter(|us| us.is_finite())
            .collect();
        let soj_mean = mean(&served).ok_or("every frame was shed")?;
        out.put("router.backend_rtt_mean_us", rtt);
        out.put("router.hop_mean_us", soj_mean - lag_mean - rtt);
        out.put(
            "router.backend_frame_share",
            forwarded.iter().cloned().fold(0.0, f64::max) / total.max(1.0),
        );
        out.put(
            "router.errors",
            delta(&["router", "counters", "route.errors"]),
        );
    }
    Ok(out)
}

/// The exact burst-latency percentiles of one [`WINDOW`] of the
/// schedule.
struct Window {
    bursts: usize,
    p50: f64,
    p90: f64,
    /// Host measurements taken in the window, and their median.
    hosts: usize,
    host: Option<f64>,
}

/// Splits the bursts into [`WINDOW`]s by due time and takes the
/// percentiles of each one's burst latencies: the time from a burst's
/// due time to its last reply. A last window smaller than the first is
/// folded into the one before it.
fn windows(
    sched: &Schedule,
    sojourn_us: &[f64],
    t0: Instant,
    refs: &RefLog,
) -> Result<Vec<Window>, String> {
    let mut split: Vec<Vec<f64>> = Vec::new();
    for (b, frames) in sojourn_us.chunks(sched.burst).enumerate() {
        let w = (sched.due(b).as_nanos() / WINDOW.as_nanos()) as usize;
        if split.len() <= w {
            split.resize_with(w + 1, Vec::new);
        }
        split[w].push(frames.iter().copied().fold(0.0, f64::max));
    }
    if split.len() > 1 && split[split.len() - 1].len() < split[0].len() {
        let last = split.pop().expect("two windows");
        split.last_mut().expect("one window").extend(last);
    }
    let n = split.len();
    split
        .into_iter()
        .enumerate()
        .map(|(w, mut us)| {
            let from = t0 + WINDOW * w as u32;
            // The folded last window runs to the end of the schedule.
            let to = if w + 1 == n {
                Instant::now()
            } else {
                from + WINDOW
            };
            let mut hosts = refs.between(from, to);
            let p50 = percentile(&mut us, 0.5);
            let p90 = percentile(&mut us, 0.9);
            Ok(Window {
                bursts: us.len(),
                p50: p50.ok_or_else(|| format!("window {w}: too few bursts for p50"))?,
                p90: p90.ok_or_else(|| format!("window {w}: too few bursts for p90"))?,
                hosts: hosts.len(),
                host: median(&mut hosts),
            })
        })
        .collect()
}

/// A counter of one snapshot section, 0 when absent.
fn counter(s: &Snapshot, section: &str, name: &str) -> f64 {
    s.get(section)
        .and_then(|r| r.counter_by_name(name))
        .unwrap_or(0) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_trace::TraceId;

    fn streams() -> Vec<Vec<TraceRecord>> {
        (0..6u32)
            .map(|s| {
                (0..500u32)
                    .map(|k| {
                        let pc = 0x0040_0000 + s * 0x1000 + (k % 7) * 0x40;
                        TraceRecord::new(TraceId::new(pc, 0, 0), 8, 0, false, false)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn schedule_digest_repeats_for_a_seed_and_moves_with_it() {
        let owned = streams();
        let views: Vec<&[TraceRecord]> = owned.iter().map(Vec::as_slice).collect();
        let a = Schedule::build(7, SERVE_BURST, 0.4, &views);
        let b = Schedule::build(7, SERVE_BURST, 0.4, &views);
        let c = Schedule::build(8, SERVE_BURST, 0.4, &views);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.frames, b.frames);
        assert_ne!(a.digest, c.digest);
        assert_eq!(a.frames.len(), 50 * 32);
        assert_eq!(a.period, Duration::from_millis(8));
        // Zipf(1): session 0 is the most popular.
        let zero = a.frames.iter().filter(|f| f.0 == 0).count();
        let last = a.frames.iter().filter(|f| f.0 == 63).count();
        assert!(zero > 10 * last.max(1), "{zero} vs {last}");
        // 200 us per frame plus a 5 ms pause every 250 frames.
        let steady = Schedule::build(7, ROUTE_STEADY, 0.22, &views);
        assert_eq!(steady.frames.len(), 1000);
        assert_eq!(steady.due(3), Duration::from_micros(600));
        assert_eq!(steady.due(249), Duration::from_micros(49_800));
        assert_eq!(steady.due(250), Duration::from_millis(55));
    }

    #[test]
    fn windows_take_exact_percentiles_of_burst_latency() {
        let owned = streams();
        let views: Vec<&[TraceRecord]> = owned.iter().map(Vec::as_slice).collect();
        // 313 bursts of 32: two full one-second windows of 125 and a
        // last one of 63, which is folded into the second.
        let sched = Schedule::build(1, SERVE_BURST, 2.5, &views);
        assert_eq!(sched.frames.len(), 313 * 32);
        // A burst's latency is its slowest frame: burst b's frames take
        // b + 0.00 .. b + 0.31 us.
        let sojourn: Vec<f64> = (0..sched.frames.len())
            .map(|k| (k / 32) as f64 + (k % 32) as f64 / 100.0)
            .collect();
        let w = windows(&sched, &sojourn, Instant::now(), &RefLog::new()).unwrap();
        assert_eq!(w.len(), 2);
        assert_eq!((w[0].bursts, w[1].bursts), (125, 188));
        assert_eq!(w[0].p50, 62.31);
        assert_eq!(w[0].p90, 112.31);
        assert_eq!(w[1].p50, 125.0 + 93.31);
        assert_eq!((w[0].hosts, w[0].host), (0, None));
    }
}
