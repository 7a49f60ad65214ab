//! The replay load generator behind `ntp loadgen`: drives an `ntp-serve`
//! server with captured trace streams as concurrent sessions and asserts
//! the served statistics match the offline [`ntp_core::evaluate`] oracle
//! **exactly**.
//!
//! Arrivals follow a fixed-rate schedule with Zipf-distributed session
//! popularity and are sent whether or not earlier replies have come back
//! (pipelined on each connection), with no retries: a `Busy` reply is
//! shed load. Every `Updated` reply is scored against a lockstep oracle
//! that replays the *applied* subsequence, so equality stays exact under
//! overload; after the schedule each session's final `Stats` must equal
//! the oracle's field for field. Latency is measured from the
//! *scheduled* send time, so queueing delay under overload is visible in
//! p99/p99.9 instead of hidden by coordinated omission. The schedule is
//! a pure function of `(seed, zipf, rate, duration)`: two runs offer
//! byte-identical request sequences.

use crate::client::{Client, ClientError, BUSY_BACKOFF, BUSY_DEADLINE};
use crate::wire::{self, Request, Response};
use ntp_core::{NextTracePredictor, PredictorConfig, PredictorStats, TracePredictor};
use ntp_telemetry::{Histogram, Json, ToJson};
use ntp_trace::TraceRecord;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One replay stream: a name and its captured records.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Display name (benchmark or stream label).
    pub name: String,
    /// The captured record stream to replay.
    pub records: Vec<TraceRecord>,
}

/// Open-loop generator parameters.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Connections; sessions are pinned `session % conns` so each
    /// session's updates stay ordered on one socket.
    pub conns: usize,
    /// Offered arrival rate, requests per second.
    pub rate: f64,
    /// How long the schedule runs (`rate * duration` arrivals total).
    pub duration: Duration,
    /// Zipf popularity exponent across sessions (0 = uniform; session 0
    /// is the most popular).
    pub zipf: f64,
    /// Seed of the deterministic arrival schedule.
    pub seed: u64,
    /// Correlating-table index bits of every session's predictor.
    pub bits: u32,
    /// DOLC history depth of every session's predictor.
    pub depth: u32,
}

impl Default for OpenLoopConfig {
    fn default() -> OpenLoopConfig {
        OpenLoopConfig {
            addr: crate::config::DEFAULT_ADDR.to_string(),
            conns: 2,
            rate: 5000.0,
            duration: Duration::from_secs(2),
            zipf: 1.0,
            seed: 0x5EED,
            bits: 15,
            depth: 7,
        }
    }
}

/// One session's open-loop outcome.
#[derive(Clone, Debug)]
pub struct SessionOutcome {
    /// Stream name.
    pub name: String,
    /// Session id on the wire.
    pub session: u64,
    /// Shard that owned the session.
    pub shard: u32,
    /// Updates the schedule sent for this session.
    pub sent: u64,
    /// Updates the server applied (non-`Busy` replies).
    pub applied: u64,
    /// Updates shed as `Busy`.
    pub busy: u64,
    /// Statistics the server accumulated.
    pub served: PredictorStats,
    /// Statistics a lockstep oracle accumulated over the **applied**
    /// subsequence — under overload the oracle replays exactly what the
    /// server accepted, so equality stays exact.
    pub oracle: PredictorStats,
}

impl SessionOutcome {
    /// True when served and oracle statistics agree exactly.
    pub fn matches(&self) -> bool {
        self.served == self.oracle
    }
}

/// Aggregate open-loop outcome.
#[derive(Clone, Debug)]
pub struct OpenLoopReport {
    /// Per-session outcomes, in session order.
    pub sessions: Vec<SessionOutcome>,
    /// Arrivals the schedule offered.
    pub offered: u64,
    /// Updates the server applied.
    pub applied: u64,
    /// Updates shed as `Busy`.
    pub busy: u64,
    /// Sends that left more than 1 ms behind schedule (generator-side
    /// slip: the pacer could not keep the offered rate).
    pub late: u64,
    /// Nominal schedule length (`duration` of the config).
    pub duration: Duration,
    /// Wall-clock time from the first scheduled send to the last reply.
    pub wall: Duration,
    /// FNV-1a-64 over the schedule's session-id sequence: two runs with
    /// the same seed/rate/zipf/duration must report the same digest.
    pub schedule_digest: u64,
    /// Sojourn time per request in microseconds, measured from the
    /// *scheduled* send time to the reply — queueing delay included.
    pub latency_us: Histogram,
}

impl OpenLoopReport {
    /// True when every session matched its oracle exactly.
    pub fn all_match(&self) -> bool {
        self.sessions.iter().all(SessionOutcome::matches)
    }

    /// The rate the schedule offered, requests per second.
    pub fn offered_qps(&self) -> f64 {
        let s = self.duration.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.offered as f64 / s
        }
    }

    /// The rate the server actually applied, requests per second.
    pub fn achieved_qps(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s <= 0.0 {
            0.0
        } else {
            self.applied as f64 / s
        }
    }
}

impl ToJson for OpenLoopReport {
    /// `{sessions: [...], offered, applied, busy, late, offered_qps,
    /// achieved_qps, wall_ms, schedule_digest, latency_us, all_match}` —
    /// `schedule_digest`, `offered`, `busy == offered - applied` and the
    /// per-session sent counts are deterministic for a fixed seed;
    /// latency and rates are wall-clock volatile.
    fn to_json(&self) -> Json {
        Json::object()
            .with(
                "sessions",
                Json::Array(
                    self.sessions
                        .iter()
                        .map(|s| {
                            Json::object()
                                .with("name", Json::Str(s.name.clone()))
                                .with("session", Json::U64(s.session))
                                .with("shard", Json::U64(s.shard as u64))
                                .with("sent", Json::U64(s.sent))
                                .with("applied", Json::U64(s.applied))
                                .with("busy", Json::U64(s.busy))
                                .with("predictions", Json::U64(s.served.predictions))
                                .with("served_correct", Json::U64(s.served.correct))
                                .with("oracle_correct", Json::U64(s.oracle.correct))
                                .with("matches_oracle", Json::Bool(s.matches()))
                        })
                        .collect(),
                ),
            )
            .with("offered", Json::U64(self.offered))
            .with("applied", Json::U64(self.applied))
            .with("busy", Json::U64(self.busy))
            .with("late", Json::U64(self.late))
            .with("offered_qps", Json::F64(self.offered_qps()))
            .with("achieved_qps", Json::F64(self.achieved_qps()))
            .with("wall_ms", Json::F64(self.wall.as_secs_f64() * 1e3))
            .with(
                "schedule_digest",
                Json::Str(format!("{:016x}", self.schedule_digest)),
            )
            .with("latency_us", self.latency_us.to_json())
            .with("all_match", Json::Bool(self.all_match()))
    }
}

/// One scheduled arrival.
struct Arrival {
    offset: Duration,
    session: usize,
}

/// The deterministic arrival schedule, drawn one arrival at a time as the
/// pacer reaches it: arrival `k` fires at `k / rate` seconds with a
/// session drawn from a Zipf CDF (session 0 most popular) via xorshift64,
/// and every drawn session id is folded into an FNV digest.
struct Schedule {
    cdf: Vec<f64>,
    rate: f64,
    total: u64,
    next: u64,
    x: u64,
    digest: ntp_hash::Fnv64,
}

impl Schedule {
    fn new(cfg: &OpenLoopConfig, n_sessions: usize) -> Schedule {
        // Zipf CDF over session ranks.
        let weights: Vec<f64> = (0..n_sessions)
            .map(|i| 1.0 / ((i + 1) as f64).powf(cfg.zipf))
            .collect();
        let sum: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / sum;
                acc
            })
            .collect();
        Schedule {
            cdf,
            rate: cfg.rate,
            total: (cfg.rate * cfg.duration.as_secs_f64()).round().max(0.0) as u64,
            next: 0,
            x: if cfg.seed == 0 { 0x9E37_79B9 } else { cfg.seed },
            digest: ntp_hash::Fnv64::new(),
        }
    }
}

impl Iterator for Schedule {
    type Item = Arrival;

    fn next(&mut self) -> Option<Arrival> {
        if self.next == self.total {
            return None;
        }
        let k = self.next;
        self.next += 1;
        let x = &mut self.x;
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let u = (*x >> 11) as f64 / (1u64 << 53) as f64;
        let session = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.digest.update(&(session as u64).to_le_bytes());
        Some(Arrival {
            offset: Duration::from_secs_f64(k as f64 / self.rate),
            session,
        })
    }
}

/// What one reader thread expects next on its connection: replies come
/// back in send order per connection, so a queue of
/// `(session, record, scheduled offset)` is a complete decoder.
struct Expected {
    session: usize,
    record: TraceRecord,
    offset: Duration,
}

/// Per-session lockstep state a reader thread maintains.
struct OpenOracle {
    predictor: NextTracePredictor,
    stats: PredictorStats,
    applied: u64,
    busy: u64,
}

/// What one reader thread hands back.
struct ReaderOutcome {
    oracles: Vec<(usize, OpenOracle)>,
    latency_us: Histogram,
    last_reply: Option<Instant>,
}

/// Drives the server open-loop: a fixed-rate, Zipf-popularity schedule
/// of single-record `Update` frames over `cfg.conns` pipelined
/// connections, no retries. Every reply is scored in lockstep — an
/// `Updated` must match the oracle's prediction for the *applied*
/// subsequence, a `Busy` is shed load — and each session's final served
/// statistics must equal the oracle's exactly.
///
/// Sessions beyond a stream's length wrap around (`sent % len`), so any
/// offered count is serviceable from finite capture data.
pub fn run_open_loop(
    cfg: &OpenLoopConfig,
    sessions: &[SessionSpec],
) -> Result<OpenLoopReport, ClientError> {
    let pcfg = PredictorConfig::try_paper(cfg.bits, cfg.depth as usize)
        .map_err(|e| ClientError::Protocol(format!("paper({},{}): {e}", cfg.bits, cfg.depth)))?;
    if sessions.is_empty() {
        return Err(ClientError::Protocol("open-loop needs sessions".into()));
    }
    if let Some(empty) = sessions.iter().find(|s| s.records.is_empty()) {
        return Err(ClientError::Protocol(format!(
            "open-loop stream {:?} has no records",
            empty.name
        )));
    }
    if cfg.rate <= 0.0 || !cfg.rate.is_finite() {
        return Err(ClientError::Protocol("open-loop rate must be > 0".into()));
    }
    let conns = cfg.conns.clamp(1, sessions.len());

    // Connect and open every session up front (below the storm: one
    // lockstep Hello at a time, `Busy` retried with the client's pause
    // and budget).
    let mut streams: Vec<TcpStream> = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(&cfg.addr)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(Duration::from_secs(30)))?;
        s.set_write_timeout(Some(Duration::from_secs(30)))?;
        streams.push(s);
    }
    let mut shards = vec![0u32; sessions.len()];
    let mut scratch = Vec::with_capacity(256);
    for (i, _) in sessions.iter().enumerate() {
        let stream = &mut streams[i % conns];
        let started = Instant::now();
        loop {
            wire::frame_request(
                &mut scratch,
                &Request::Hello {
                    session: i as u64,
                    bits: cfg.bits,
                    depth: cfg.depth,
                },
            );
            stream.write_all(&scratch)?;
            match read_response(stream)? {
                Response::HelloOk { shard, .. } => {
                    shards[i] = shard;
                    break;
                }
                Response::Busy if started.elapsed() < BUSY_DEADLINE => {
                    std::thread::sleep(BUSY_BACKOFF)
                }
                Response::Busy => {
                    return Err(ClientError::Busy {
                        elapsed: started.elapsed(),
                    })
                }
                Response::Error { code, message } => {
                    return Err(ClientError::Server { code, message })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected HelloOk, got {other:?}"
                    )))
                }
            }
        }
    }

    // One reader thread per connection, fed the expected-reply queue in
    // send order. Readers own the lockstep oracles of their pinned
    // sessions (a session lives on exactly one connection, so per-
    // session reply order is total).
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut expect_txs = Vec::with_capacity(conns);
    let mut readers = Vec::with_capacity(conns);
    for (c, stream) in streams.iter().enumerate() {
        let (tx, rx) = mpsc::channel::<Expected>();
        expect_txs.push(tx);
        let read_half = stream.try_clone()?;
        let mut oracles: Vec<(usize, OpenOracle)> = Vec::new();
        for (i, _) in sessions.iter().enumerate() {
            if i % conns == c {
                oracles.push((
                    i,
                    OpenOracle {
                        predictor: NextTracePredictor::try_new(pcfg).map_err(|e| {
                            ClientError::Protocol(format!("oracle config rejected: {e}"))
                        })?,
                        stats: PredictorStats::new(),
                        applied: 0,
                        busy: 0,
                    },
                ));
            }
        }
        readers.push(std::thread::spawn(move || {
            read_replies(read_half, rx, oracles, t0)
        }));
    }

    // The pacer: walk the schedule on the calling thread, sleeping up to
    // each arrival's offset, and write the frame whether or not earlier
    // replies are back (that is the open loop). A send that slips more
    // than 1 ms behind schedule counts as `late`.
    let mut schedule = Schedule::new(cfg, sessions.len());
    let mut sent_per_session = vec![0u64; sessions.len()];
    let mut late = 0u64;
    for a in schedule.by_ref() {
        let target = t0 + a.offset;
        let now = Instant::now();
        if let Some(wait) = target.checked_duration_since(now) {
            std::thread::sleep(wait);
        } else if now.duration_since(target) > Duration::from_millis(1) {
            late += 1;
        }
        let k = sent_per_session[a.session];
        sent_per_session[a.session] += 1;
        let records = &sessions[a.session].records;
        let record = records[(k % records.len() as u64) as usize];
        // Expected entry first: the reader must know what this reply is
        // before it can possibly arrive.
        let _ = expect_txs[a.session % conns].send(Expected {
            session: a.session,
            record,
            offset: a.offset,
        });
        wire::frame_request(
            &mut scratch,
            &Request::Update {
                session: a.session as u64,
                record,
            },
        );
        streams[a.session % conns].write_all(&scratch)?;
    }
    drop(expect_txs); // Readers exit after the last expected reply.

    let mut outcome: Vec<Option<(usize, OpenOracle)>> = Vec::new();
    let mut latency_us = Histogram::new();
    let mut last_reply: Option<Instant> = None;
    for reader in readers {
        let out = reader
            .join()
            .map_err(|_| ClientError::Protocol("reader thread panicked".into()))??;
        latency_us.merge(&out.latency_us);
        last_reply = match (last_reply, out.last_reply) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        outcome.extend(out.oracles.into_iter().map(Some));
    }
    let wall = last_reply.map_or_else(|| t0.elapsed(), |t| t.duration_since(t0));

    // Final cross-check: the server's per-session statistics must equal
    // the lockstep oracle's (patient client — the storm is over).
    let mut client = Client::connect(&cfg.addr)?;
    let mut results: Vec<SessionOutcome> = Vec::with_capacity(sessions.len());
    let mut by_session: Vec<Option<OpenOracle>> = (0..sessions.len()).map(|_| None).collect();
    for slot in outcome.into_iter().flatten() {
        by_session[slot.0] = Some(slot.1);
    }
    for (i, spec) in sessions.iter().enumerate() {
        let oracle = by_session[i].take().expect("every session has an oracle");
        let served = client.stats(i as u64)?;
        results.push(SessionOutcome {
            name: spec.name.clone(),
            session: i as u64,
            shard: shards[i],
            sent: sent_per_session[i],
            applied: oracle.applied,
            busy: oracle.busy,
            served,
            oracle: oracle.stats,
        });
    }

    Ok(OpenLoopReport {
        offered: schedule.total,
        applied: results.iter().map(|s| s.applied).sum(),
        busy: results.iter().map(|s| s.busy).sum(),
        late,
        duration: cfg.duration,
        wall,
        schedule_digest: schedule.digest.finish(),
        latency_us,
        sessions: results,
    })
}

/// Reads one frame and decodes it as a [`Response`].
fn read_response(stream: &mut TcpStream) -> Result<Response, ClientError> {
    match wire::read_frame(stream, crate::client::CLIENT_MAX_FRAME) {
        Ok(body) => wire::decode_response(&body).map_err(ClientError::Protocol),
        Err(wire::WireError::Io(e)) => Err(ClientError::Io(e)),
        Err(e) => Err(ClientError::Protocol(e.to_string())),
    }
}

/// Reader-thread body: one reply per expected entry, in order. An
/// `Updated` is scored against (then applied to) the session's oracle;
/// a `Busy` is shed load the oracle skips — which is exactly why the
/// oracle stays byte-exact under overload: it replays the applied
/// subsequence, nothing else.
fn read_replies(
    mut stream: TcpStream,
    rx: mpsc::Receiver<Expected>,
    mut oracles: Vec<(usize, OpenOracle)>,
    t0: Instant,
) -> Result<ReaderOutcome, ClientError> {
    let mut latency_us = Histogram::new();
    let mut last_reply = None;
    while let Ok(expected) = rx.recv() {
        let resp = read_response(&mut stream)?;
        let now = Instant::now();
        last_reply = Some(now);
        let slot = oracles
            .iter_mut()
            .find(|(s, _)| *s == expected.session)
            .expect("session pinned to this connection");
        match resp {
            Response::Updated { correct } => {
                let sojourn = now.duration_since(t0).saturating_sub(expected.offset);
                latency_us.record(sojourn.as_micros() as u64);
                let oracle = &mut slot.1;
                let pred = oracle.predictor.predict();
                let want = pred.is_correct(expected.record.id());
                if correct != want {
                    return Err(ClientError::Protocol(format!(
                        "session {}: served correct={correct}, oracle={want}",
                        expected.session
                    )));
                }
                oracle.stats.score(&pred, &expected.record);
                oracle.predictor.update(&expected.record);
                oracle.applied += 1;
            }
            Response::Busy => slot.1.busy += 1,
            Response::Error { code, message } => return Err(ClientError::Server { code, message }),
            other => {
                return Err(ClientError::Protocol(format!(
                    "expected Updated or Busy, got {other:?}"
                )))
            }
        }
    }
    Ok(ReaderOutcome {
        oracles,
        latency_us,
        last_reply,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rate: f64, duration: Duration) -> OpenLoopConfig {
        OpenLoopConfig {
            rate,
            duration,
            zipf: 1.0,
            seed: 0x5EED,
            ..OpenLoopConfig::default()
        }
    }

    /// The schedule `scripts/check.sh`'s overload smoke offers: its digest
    /// and per-session counts are pinned, so drawing arrivals lazily must
    /// not change a single draw.
    #[test]
    fn schedule_is_pinned() {
        let mut schedule = Schedule::new(&cfg(20_000.0, Duration::from_secs(1)), 2);
        let mut sent = [0u64; 2];
        for (k, a) in schedule.by_ref().enumerate() {
            assert_eq!(a.offset, Duration::from_secs_f64(k as f64 / 20_000.0));
            sent[a.session] += 1;
        }
        assert_eq!(schedule.total, 20_000);
        assert_eq!(sent, [13_383, 6_617]);
        assert_eq!(schedule.digest.finish(), 0x2efa_9a21_3319_4104);
    }

    /// A typo-sized schedule (10^10 arrivals) costs nothing until the
    /// pacer draws from it.
    #[test]
    fn a_huge_schedule_is_drawn_lazily() {
        let mut schedule = Schedule::new(&cfg(1e9, Duration::from_secs(10)), 3);
        assert_eq!(schedule.total, 10_000_000_000);
        assert_eq!(schedule.by_ref().take(3).count(), 3);
        assert_eq!(schedule.next, 3);
    }
}
