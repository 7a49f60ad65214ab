//! Loopback end-to-end tests: a real `serve()` server on an ephemeral
//! port, real TCP clients, and the exact-oracle guarantee the crate
//! promises — served statistics are **byte-identical** to the offline
//! [`ntp_core::evaluate`] replay, at one worker and at four.
//!
//! The hostile-input tests speak raw bytes at the socket (bypassing
//! [`Client`]) to prove malformed, checksum-flipped and oversized frames
//! are refused with a typed error reply while the connection — and the
//! server — survive to serve the next well-formed request.

use ntp_serve::{
    config::{ServeConfig, DEFAULT_MAX_FRAME},
    error_count, frame_count, run_open_loop, serve, wire, Client, ErrorCode, OpenLoopConfig,
    OpenLoopReport, Request, Response, SessionSpec, FRAME_KINDS,
};
use ntp_telemetry::{Snapshot, ToJson};
use ntp_trace::{TraceId, TraceRecord};
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic synthetic trace stream: a xorshift walk over a small
/// set of trace heads, so the predictor sees learnable structure.
fn synthetic_stream(seed: u64, len: usize) -> Vec<TraceRecord> {
    let mut x = seed | 1;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..len)
        .map(|_| {
            let r = step();
            // 8 distinct heads, word-aligned, within the low code segment.
            let pc = 0x0040_0000 + ((r >> 8) % 8) as u32 * 64;
            let branches = (r % 4) as u8;
            let bits = (r >> 16) as u8 & ((1u8 << branches).wrapping_sub(1));
            let id = TraceId::new(pc, bits, branches);
            let len = 1 + (r >> 24) as u8 % 16;
            TraceRecord::new(id, len, branches, r % 5 == 0, r % 7 == 0)
        })
        .collect()
}

fn cfg_on(port0: &str, workers: usize) -> ServeConfig {
    ServeConfig {
        addr: port0.to_string(),
        workers,
        ..ServeConfig::default()
    }
}

/// Served stats equal the offline oracle exactly, with 1 server worker.
#[test]
fn served_matches_oracle_one_worker() {
    served_matches_oracle(1);
}

/// Served stats equal the offline oracle exactly, with 4 server workers
/// (sessions shard across all of them).
#[test]
fn served_matches_oracle_four_workers() {
    served_matches_oracle(4);
}

/// Offers 1 000 updates at 2 000/s over `conns` connections, a load the
/// server applies in full, and checks that it shed nothing.
fn open_loop_below_capacity(addr: &str, conns: usize, specs: &[SessionSpec]) -> OpenLoopReport {
    let report = run_open_loop(
        &OpenLoopConfig {
            addr: addr.to_string(),
            conns,
            rate: 2_000.0,
            duration: Duration::from_millis(500),
            zipf: 1.0,
            seed: 0x5EED,
            bits: 12,
            depth: 5,
        },
        specs,
    )
    .expect("open loop runs");
    assert_eq!(report.offered, 1_000);
    assert_eq!(report.busy, 0, "2k/s must be below capacity");
    assert_eq!(
        report.applied, report.offered,
        "nothing shed below capacity"
    );
    report
}

fn served_matches_oracle(workers: usize) {
    let handle = serve(cfg_on("127.0.0.1:0", workers)).expect("bind");
    let addr = handle.local_addr().to_string();

    let specs: Vec<SessionSpec> = (0..6)
        .map(|i| SessionSpec {
            name: format!("synth{i}"),
            records: synthetic_stream(0x9E37_79B9 * (i as u64 + 1), 4_000),
        })
        .collect();
    let report = open_loop_below_capacity(&addr, 3, &specs);

    assert_eq!(report.sessions.len(), 6);
    for s in &report.sessions {
        assert_eq!(
            s.served, s.oracle,
            "session {} (shard {}) diverged from the offline oracle at {workers} workers",
            s.name, s.shard
        );
        assert!(s.sent > 0, "session {} got no traffic", s.name);
        assert_eq!(s.served.predictions, s.sent);
        assert_eq!(s.shard as usize, s.session as usize % workers);
    }
    assert!(report.all_match());
    assert!(report.latency_us.count() >= report.applied);

    Client::connect(&addr)
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    let last = handle.join();
    assert_eq!(counter(&last, "total", "sessions.opened"), 6);
}

/// Writes one raw frame (length | body | checksum) with an arbitrary body.
fn write_raw(stream: &mut TcpStream, body: &[u8]) {
    wire::write_frame(stream, body).expect("write");
    stream.flush().expect("flush");
}

/// Encodes a frame whose checksum is deliberately wrong.
fn corrupt_frame(body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + body.len() + 8);
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body);
    buf.extend_from_slice(&(ntp_hash::fnv64(body) ^ 1).to_le_bytes());
    buf
}

/// Writes a frame whose checksum is deliberately wrong.
fn write_corrupt(stream: &mut TcpStream, body: &[u8]) {
    stream.write_all(&corrupt_frame(body)).expect("write");
    stream.flush().expect("flush");
}

fn read_reply(stream: &mut TcpStream) -> Response {
    let body = wire::read_frame(stream, 1 << 20).expect("reply frame");
    wire::decode_response(&body).expect("reply decodes")
}

/// A malformed body (unknown kind), a well-formed body of the retired
/// `Batch` kind, a checksum-flipped frame, and an oversized frame each
/// draw a typed error reply — and the **same connection** then completes
/// a full healthy session.
#[test]
fn hostile_frames_get_error_replies_and_the_connection_survives() {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    // 1. Unknown request kind.
    write_raw(&mut stream, &[0x7F, 1, 2, 3]);
    match read_reply(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest error, got {other:?}"),
    }

    // 2. Truncated Hello payload.
    write_raw(&mut stream, &[0x01, 9]);
    match read_reply(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected BadRequest error, got {other:?}"),
    }

    // 2b. A well-formed body of the retired `Batch` kind (0x04: session,
    //     record count, one 8-byte record) is an unknown kind.
    let mut batch = vec![0x04];
    batch.extend_from_slice(&42u64.to_le_bytes());
    batch.extend_from_slice(&1u32.to_le_bytes());
    batch.extend_from_slice(&0x0040_0000u32.to_le_bytes());
    batch.extend_from_slice(&[0, 0, 8, 0]);
    write_raw(&mut stream, &batch);
    match read_reply(&mut stream) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert_eq!(message, "unknown request kind 0x04");
        }
        other => panic!("expected BadRequest error, got {other:?}"),
    }

    // 3. Checksum-flipped (otherwise valid) Stats request.
    write_corrupt(
        &mut stream,
        &wire::encode_request(&Request::Stats { session: 7 }),
    );
    match read_reply(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }

    // 4. Oversized frame: one byte past the 1 MiB server cap. The server
    //    discards the whole declared body to stay framed.
    let big = vec![0u8; DEFAULT_MAX_FRAME as usize + 1];
    write_raw(&mut stream, &big);
    match read_reply(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected Oversized error, got {other:?}"),
    }

    // 5. The very same connection still serves a healthy session.
    write_raw(
        &mut stream,
        &wire::encode_request(&Request::Hello {
            session: 42,
            bits: 12,
            depth: 3,
        }),
    );
    match read_reply(&mut stream) {
        Response::HelloOk { session, .. } => assert_eq!(session, 42),
        other => panic!("expected HelloOk, got {other:?}"),
    }
    let rec = TraceRecord::new(TraceId::new(0x0040_0000, 0, 0), 8, 0, false, false);
    for want in [false, true] {
        write_raw(
            &mut stream,
            &wire::encode_request(&Request::Update {
                session: 42,
                record: rec,
            }),
        );
        match read_reply(&mut stream) {
            Response::Updated { correct } => assert_eq!(correct, want),
            other => panic!("expected Updated, got {other:?}"),
        }
    }
    drop(stream);

    Client::connect(addr)
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    let last = handle.join();
    assert_eq!(
        counter(&last, "server", "protocol.errors"),
        5,
        "all five hostile frames counted"
    );
    assert_eq!(counter(&last, "total", "sessions.opened"), 1);
}

/// Requests against a session that never said Hello are refused with
/// `UnknownSession`; a duplicate Hello is refused with `BadConfig`.
#[test]
fn session_lifecycle_errors_are_typed() {
    let handle = serve(cfg_on("127.0.0.1:0", 2)).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    match client.stats(99) {
        Err(ntp_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownSession)
        }
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    client.hello(99, 12, 3).expect("hello");
    match client.hello(99, 12, 3) {
        Err(ntp_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::BadConfig)
        }
        other => panic!("expected BadConfig on duplicate hello, got {other:?}"),
    }
    match client.hello(100, 0, 3) {
        Err(ntp_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::BadConfig)
        }
        other => panic!("expected BadConfig on bits=0, got {other:?}"),
    }

    client.shutdown_server().expect("shutdown");
    handle.join();
}

/// Shutdown drains in-flight work: one write carries 2 000 `Update`
/// frames, a `Stats` and the `Shutdown`, so updates are still in flight
/// when the drain begins. Every one is applied and answered in order
/// before the server exits, and the final snapshot accounts for every
/// request.
#[test]
fn shutdown_drains_in_flight_sessions() {
    use ntp_core::{evaluate, NextTracePredictor, PredictorConfig, TracePredictor};

    let handle = serve(cfg_on("127.0.0.1:0", 2)).expect("bind");
    let addr = handle.local_addr();

    let records = synthetic_stream(0xDEAD_BEEF, 2_000);
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_raw(
        &mut stream,
        &wire::encode_request(&Request::Hello {
            session: 5,
            bits: 12,
            depth: 5,
        }),
    );
    assert!(matches!(read_reply(&mut stream), Response::HelloOk { .. }));

    // One session's 2 000 frames reach its shard as at most 32 jobs of at
    // most 64 requests each, well inside the 128-job queue: no `Busy`.
    let (mut buf, mut frame) = (Vec::new(), Vec::new());
    let updates = records
        .iter()
        .map(|&record| Request::Update { session: 5, record });
    for req in updates.chain([Request::Stats { session: 5 }, Request::Shutdown]) {
        wire::frame_request(&mut frame, &req);
        buf.extend_from_slice(&frame);
    }
    stream.write_all(&buf).expect("one write");
    stream.flush().expect("flush");

    let mut oracle = NextTracePredictor::new(PredictorConfig::paper(12, 5));
    for (k, rec) in records.iter().enumerate() {
        let want = oracle.predict().is_correct(rec.id());
        oracle.update(rec);
        match read_reply(&mut stream) {
            Response::Updated { correct } => assert_eq!(correct, want, "update {k}"),
            Response::Busy => panic!("update {k} was shed during the drain"),
            other => panic!("update {k}: expected Updated, got {other:?}"),
        }
    }
    let stats = evaluate(
        &mut NextTracePredictor::new(PredictorConfig::paper(12, 5)),
        &records,
    );
    assert_eq!(read_reply(&mut stream), Response::StatsOk { stats });
    assert_eq!(read_reply(&mut stream), Response::Bye);

    // New connections after the drain began are refused or fail to
    // connect; either way the server exits. (A connect error means the
    // listener already closed: also fine.)
    if let Ok(mut late) = Client::connect(addr) {
        match late.hello(6, 12, 5) {
            Err(ntp_serve::ClientError::Server { code, .. }) => {
                assert_eq!(code, ErrorCode::Draining)
            }
            Err(_) => {} // connection torn down mid-handshake: fine
            Ok(_) => panic!("server accepted a session after shutdown"),
        }
    }

    drop(stream);
    let last = handle.join();
    assert_eq!(counter(&last, "total", "sessions.opened"), 1);
    assert_eq!(counter(&last, "total", "frames.update"), 2_000);
}

/// Reads a counter out of a metrics snapshot section.
fn counter(snap: &Snapshot, section: &str, name: &str) -> u64 {
    snap.get(section)
        .and_then(|s| s.counter_by_name(name))
        .unwrap_or_else(|| panic!("missing counter {section}.{name}"))
}

/// Decodes a raw `Metrics` reply, checking that the typed snapshot
/// renders back to exactly the bytes the server sent.
fn decode_exactly(json: &str) -> Snapshot {
    let snap: Snapshot = json.parse().expect("metrics reply decodes");
    assert_eq!(
        snap.to_json().render(),
        json,
        "decode is the render's inverse"
    );
    snap
}

/// The `Metrics` frame reports exactly the work the load generator did:
/// summed per-shard frame and prediction counters equal the
/// oracle-verified served totals, and the `total` section is the sum of
/// the shards.
#[test]
fn metrics_frame_counts_served_work_exactly() {
    let workers = 2;
    let handle = serve(cfg_on("127.0.0.1:0", workers)).expect("bind");
    let addr = handle.local_addr().to_string();

    let specs: Vec<SessionSpec> = (0..4)
        .map(|i| SessionSpec {
            name: format!("synth{i}"),
            records: synthetic_stream(0xABCD_EF01 * (i as u64 + 1), 2_000),
        })
        .collect();
    let report = open_loop_below_capacity(&addr, 2, &specs);
    assert!(report.all_match(), "oracle must agree before counting");

    let mut client = Client::connect(&addr).expect("connect");
    let snap = client.metrics().expect("metrics frame");

    assert_eq!(counter(&snap, "total", "predictions"), report.applied);
    assert_eq!(
        counter(&snap, "total", "predictions.correct"),
        report
            .sessions
            .iter()
            .map(|s| s.served.correct)
            .sum::<u64>()
    );
    assert_eq!(counter(&snap, "total", "frames.update"), report.applied);
    assert_eq!(counter(&snap, "total", "frames.hello"), 4);
    assert_eq!(counter(&snap, "total", "frames.stats"), 4);
    assert_eq!(counter(&snap, "total", "sessions.opened"), 4);
    assert_eq!(counter(&snap, "total", "errors.unknown_session"), 0);

    // The total section is exactly the sum of the per-shard sections,
    // and every shard histogram saw every frame it processed.
    for name in ["predictions", "frames.update", "sessions.opened"] {
        let summed: u64 = (0..workers)
            .map(|k| counter(&snap, &format!("shard{k}"), name))
            .sum();
        assert_eq!(summed, counter(&snap, "total", name), "{name}");
    }
    for k in 0..workers {
        let section = format!("shard{k}");
        let frames: u64 = FRAME_KINDS
            .iter()
            .map(|f| counter(&snap, &section, &format!("frames.{f}")))
            .sum();
        let observed = snap
            .get(section.as_str())
            .and_then(|s| s.histogram_by_name("latency_us.all"))
            .expect("latency histogram present")
            .count();
        assert_eq!(observed, frames, "shard{k} latency count == frames");
    }

    client.shutdown_server().expect("shutdown");
    let last = handle.join();
    assert_eq!(counter(&last, "total", "sessions.opened"), 4);
}

/// Two snapshots bracket an open-loop run on a server that has already
/// done other work: the difference of the cumulative counters is
/// exactly the run's applied updates.
#[test]
fn metrics_deltas_count_an_open_loop_run_exactly() {
    let handle = serve(cfg_on("127.0.0.1:0", 2)).expect("bind");
    let addr = handle.local_addr().to_string();

    // Earlier work, on a session the load generator does not use.
    let mut client = Client::connect(&addr).expect("connect");
    client.hello(100, 12, 3).expect("hello");
    let rec = TraceRecord::new(TraceId::new(0x0040_0000, 0, 0), 8, 0, false, false);
    for _ in 0..7 {
        client.update(100, &rec).expect("update");
    }
    let before = client.metrics().expect("metrics before the run");
    assert_eq!(counter(&before, "total", "frames.update"), 7);

    let specs: Vec<SessionSpec> = (0..4)
        .map(|i| SessionSpec {
            name: format!("synth{i}"),
            records: synthetic_stream(0x51DE_CA55 * (i as u64 + 1), 2_000),
        })
        .collect();
    let report = open_loop_below_capacity(&addr, 2, &specs);
    let after = client.metrics().expect("metrics after the run");
    let delta = |name: &str| counter(&after, "total", name) - counter(&before, "total", name);
    assert_eq!(delta("frames.update"), report.applied);
    assert_eq!(delta("predictions"), report.applied);

    client.shutdown_server().expect("shutdown");
    assert_eq!(counter(&handle.join(), "total", "sessions.opened"), 5);
}

/// A checksum-flipped `Metrics` request draws a `BadFrame` reply and the
/// connection survives to fetch a clean snapshot.
#[test]
fn corrupt_metrics_request_is_refused_and_the_connection_survives() {
    let handle = serve(cfg_on("127.0.0.1:0", 2)).expect("bind");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write_corrupt(&mut stream, &wire::encode_request(&Request::Metrics));
    match read_reply(&mut stream) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    write_raw(&mut stream, &wire::encode_request(&Request::Metrics));
    match read_reply(&mut stream) {
        Response::Metrics { json } => {
            let snap = decode_exactly(&json);
            assert!(snap.get("total").is_some(), "total section present");
            assert_eq!(
                counter(&snap, "server", "protocol.errors"),
                1,
                "the corrupt frame was counted"
            );
        }
        other => panic!("expected Metrics, got {other:?}"),
    }
    drop(stream);

    Client::connect(addr)
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    handle.join();
}

/// The drain path carries per-shard attribution through to the final
/// snapshot instead of flattening it.
#[test]
fn drain_reports_per_shard_attribution() {
    let handle = serve(cfg_on("127.0.0.1:0", 2)).expect("bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");

    // Session 0 → shard 0, session 1 → shard 1, with different volumes.
    client.hello(0, 12, 3).expect("hello 0");
    client.hello(1, 12, 3).expect("hello 1");
    let rec = TraceRecord::new(TraceId::new(0x0040_0000, 0, 0), 8, 0, false, false);
    for _ in 0..3 {
        client.update(0, &rec).expect("update 0");
    }
    for _ in 0..5 {
        client.update(1, &rec).expect("update 1");
    }
    let _ = client.stats(7); // unknown session → a typed error on shard 1
    client.shutdown_server().expect("shutdown");

    let last = handle.join();
    assert!(last.get("shard2").is_none(), "one section per worker");
    let both = |name: &str| {
        (
            counter(&last, "shard0", name),
            counter(&last, "shard1", name),
        )
    };
    assert_eq!(both("sessions.opened"), (1, 1));
    assert_eq!(both("predictions"), (3, 5));
    let errors = (error_count(&last, "shard0"), error_count(&last, "shard1"));
    assert_eq!(errors, (0, 1));
    let (c0, c1) = both("predictions.correct");
    assert!(c0 <= 3 && c1 <= 5);
    assert_eq!(
        frame_count(&last, "total"),
        frame_count(&last, "shard0") + frame_count(&last, "shard1"),
        "whole-server totals are the per-shard sums"
    );
    assert_eq!(counter(&last, "total", "sessions.opened"), 2);
}

/// A draining server keeps serving established connections, idle ones
/// included: a cluster router reads `draining` over a persistent probe
/// connection and settles in-flight frames before closing its data
/// connections (see the server's `# Shutdown` docs). Once the last
/// connection closes, `join` returns promptly.
#[test]
fn draining_server_keeps_serving_established_connections() {
    let handle = serve(cfg_on("127.0.0.1:0", 2)).expect("bind");
    let addr = handle.local_addr();
    let mut a = Client::connect(addr).expect("connect A");
    a.hello(9, 12, 3).expect("hello on A");
    Client::connect(addr)
        .expect("connect B")
        .shutdown_server()
        .expect("shutdown on B");

    let snap = a.metrics().expect("metrics on A while draining");
    assert_eq!(counter(&snap, "server", "draining"), 1);
    let rec = TraceRecord::new(TraceId::new(0x0040_0000, 0, 0), 8, 0, false, false);
    a.update(9, &rec).expect("update on A while draining");
    let stats = a.stats(9).expect("stats on A while draining");
    assert_eq!(stats.predictions, 1);

    drop(a);
    let closed = Instant::now();
    let last = handle.join();
    assert!(
        closed.elapsed() < Duration::from_secs(2),
        "join took {:?} after the last connection closed",
        closed.elapsed()
    );
    assert_eq!(counter(&last, "total", "frames.update"), 1);
}

/// The batched shard drain at one worker: eight sessions race their
/// `Update` frames into a single shard queue every round, so drains
/// routinely pick up several queued sessions and resolve them through
/// one gathered sweep.
#[test]
fn batched_drain_matches_oracle_one_worker() {
    batched_drain_matches_oracle(1);
}

/// The batched shard drain with sessions spread over four workers.
#[test]
fn batched_drain_matches_oracle_four_workers() {
    batched_drain_matches_oracle(4);
}

/// Every reply under a batched drain must equal the scalar oracle: the
/// per-update `correct` bit is checked in lockstep against a local
/// predictor, and the final served stats against a fresh
/// [`ntp_core::evaluate`]. With one worker the drain counter must also
/// show that batching actually engaged.
fn batched_drain_matches_oracle(workers: usize) {
    use ntp_core::{evaluate, NextTracePredictor, PredictorConfig, TracePredictor};

    const SESSIONS: usize = 8;
    const ROUNDS: usize = 400;
    let handle = serve(cfg_on("127.0.0.1:0", workers)).expect("bind");
    let addr = handle.local_addr();

    let streams: Vec<Vec<TraceRecord>> = (0..SESSIONS)
        .map(|i| synthetic_stream(0x5EED ^ ((i as u64 + 1) * 7919), ROUNDS))
        .collect();
    let mut conns: Vec<TcpStream> = (0..SESSIONS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.set_nodelay(true).unwrap();
            s
        })
        .collect();
    for (i, c) in conns.iter_mut().enumerate() {
        write_raw(
            c,
            &wire::encode_request(&Request::Hello {
                session: i as u64,
                bits: 12,
                depth: 5,
            }),
        );
    }
    for c in conns.iter_mut() {
        assert!(matches!(read_reply(c), Response::HelloOk { .. }));
    }

    let mut oracles: Vec<NextTracePredictor> = (0..SESSIONS)
        .map(|_| NextTracePredictor::new(PredictorConfig::paper(12, 5)))
        .collect();
    #[allow(clippy::needless_range_loop)]
    for round in 0..ROUNDS {
        // Write every session's frame before reading any reply, so the
        // owning shard(s) see several independent sessions queued at once.
        for (i, c) in conns.iter_mut().enumerate() {
            write_raw(
                c,
                &wire::encode_request(&Request::Update {
                    session: i as u64,
                    record: streams[i][round],
                }),
            );
        }
        for (i, c) in conns.iter_mut().enumerate() {
            let rec = &streams[i][round];
            let want = oracles[i].predict().is_correct(rec.id());
            oracles[i].update(rec);
            match read_reply(c) {
                Response::Updated { correct } => {
                    assert_eq!(correct, want, "session {i} round {round}")
                }
                other => panic!("expected Updated, got {other:?}"),
            }
        }
    }

    // Served statistics equal a fresh offline replay, field for field.
    let mut client = Client::connect(addr).expect("connect");
    for (i, stream) in streams.iter().enumerate() {
        let served = client.stats(i as u64).expect("stats");
        let offline = evaluate(
            &mut NextTracePredictor::new(PredictorConfig::paper(12, 5)),
            stream,
        );
        assert_eq!(served, offline, "session {i} diverged at {workers} workers");
    }

    let snap = client.metrics().expect("metrics");
    let scraped: u64 = (0..workers)
        .map(|k| counter(&snap, &format!("shard{k}"), "drain.batched"))
        .sum();
    if workers == 1 {
        // 3200 racing updates into one queue: the drain must have found
        // at least one opportunity to batch.
        assert!(scraped > 0, "single-shard drain never batched");
    }

    // An open connection holds the drain until it idles past
    // `read_timeout` (30 s): close the session connections first.
    drop(conns);
    client.shutdown_server().expect("shutdown");
    let last = handle.join();
    assert_eq!(counter(&last, "total", "sessions.opened"), SESSIONS as u64);
}

/// Graceful drain persists every session to per-shard `.nts` snapshots;
/// a second server warm-starts from them (at a *different* worker count,
/// so sessions re-partition) and continues each session in exact
/// agreement with an offline oracle replaying the concatenated stream.
#[test]
fn warm_start_resumes_drained_sessions_exactly() {
    use ntp_core::{evaluate, NextTracePredictor, PredictorConfig};

    let dir = std::env::temp_dir().join(format!("ntp-warm-{}", std::process::id()));
    let snap_dir = dir.join("snaps");
    let _ = std::fs::remove_dir_all(&dir);

    // Phase 1: a cold two-worker server learns two sessions, then drains
    // into the snapshot directory.
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        snapshot_dir: Some(snap_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let first: Vec<Vec<TraceRecord>> = (0..2)
        .map(|i| synthetic_stream(0xFEED ^ (i + 1), 1_500))
        .collect();
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    for (i, stream) in first.iter().enumerate() {
        client.hello(i as u64, 12, 3).expect("hello");
        for rec in stream {
            client.update(i as u64, rec).expect("update");
        }
    }
    let stats0 = client.stats(0).expect("stats 0");
    client.shutdown_server().expect("shutdown");
    let last = handle.join();
    assert_eq!(
        counter(&last, "shard0", "sessions.snapshotted")
            + counter(&last, "shard1", "sessions.snapshotted"),
        2,
        "both sessions persisted at drain"
    );
    for k in 0..2 {
        assert!(
            snap_dir.join(format!("shard{k}.nts")).is_file(),
            "shard{k}.nts written"
        );
    }

    // Phase 2: warm-start a one-worker server from the directory. Both
    // sessions are live without any Hello, stats carry over exactly, and
    // a duplicate Hello is refused like any existing session.
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        warm_path: Some(snap_dir),
        ..ServeConfig::default()
    })
    .expect("warm bind");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    assert_eq!(client.stats(0).expect("warm stats"), stats0);
    match client.hello(0, 12, 3) {
        Err(ntp_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::BadConfig)
        }
        other => panic!("expected BadConfig on a warm session id, got {other:?}"),
    }

    // Continuing session 1 must match an offline oracle that replays the
    // phase-1 and phase-2 streams back to back on one predictor.
    let more = synthetic_stream(0xBADC_0FFE, 800);
    for rec in &more {
        client.update(1, rec).expect("update after warm start");
    }
    let served = client.stats(1).expect("stats 1");
    let mut oracle = NextTracePredictor::new(PredictorConfig::paper(12, 3));
    let mut offline = evaluate(&mut oracle, &first[1]);
    offline.merge(&evaluate(&mut oracle, &more));
    assert_eq!(
        served, offline,
        "a warm-started session must continue exactly where the drain stopped"
    );

    let snap = handle.metrics_snapshot();
    assert_eq!(
        counter(&snap, "shard0", "sessions.warmed"),
        2,
        "warm restores are counted per shard"
    );
    assert_eq!(
        counter(&snap, "shard0", "sessions.snapshotted"),
        0,
        "nothing is snapshotted before the drain"
    );
    client.shutdown_server().expect("shutdown");
    let last = handle.join();
    assert_eq!(counter(&last, "shard0", "sessions.warmed"), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reads one raw reply frame (length | body | checksum) verbatim.
fn read_raw_reply(stream: &mut TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("reply length");
    let body_len = u32::from_le_bytes(len) as usize;
    let mut frame = vec![0u8; 4 + body_len + 8];
    frame[..4].copy_from_slice(&len);
    stream.read_exact(&mut frame[4..]).expect("reply frame");
    frame
}

/// Partial-frame torture: every request frame arrives dribbled a few
/// bytes at a time across many reads, with several frame boundaries
/// deliberately split mid-header, mid-body and mid-checksum. The event
/// loop must reassemble every frame exactly — each reply is compared
/// **byte-for-byte** against the locally framed expected response — with
/// zero protocol errors, and the partial-read counter must show the
/// reassembly path actually engaged.
#[cfg(target_os = "linux")]
#[test]
fn dribbled_frames_reassemble_byte_identically() {
    use ntp_core::{NextTracePredictor, PredictorConfig, TracePredictor};

    let handle = serve(cfg_on("127.0.0.1:0", 1)).expect("bind");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();

    // Dribble the Hello itself: 1 byte per write.
    let hello = {
        let mut buf = Vec::new();
        wire::frame_request(
            &mut buf,
            &Request::Hello {
                session: 0,
                bits: 12,
                depth: 5,
            },
        );
        buf
    };
    for b in &hello {
        stream.write_all(std::slice::from_ref(b)).expect("dribble");
        stream.flush().expect("flush");
    }
    assert!(matches!(read_reply(&mut stream), Response::HelloOk { .. }));

    let records = synthetic_stream(0xD21B_B1E5, 200);
    let mut oracle = NextTracePredictor::new(PredictorConfig::paper(12, 5));
    let mut chop = 0usize;
    for (k, rec) in records.iter().enumerate() {
        let mut frame = Vec::new();
        wire::frame_request(
            &mut frame,
            &Request::Update {
                session: 0,
                record: *rec,
            },
        );
        // Rotate through chunk sizes 1..=5 so splits land inside the
        // 4-byte header, the body and the 8-byte checksum on different
        // iterations.
        let mut off = 0;
        while off < frame.len() {
            chop = chop % 5 + 1;
            let end = (off + chop).min(frame.len());
            stream.write_all(&frame[off..end]).expect("dribble");
            stream.flush().expect("flush");
            off = end;
        }

        let want = oracle.predict().is_correct(rec.id());
        oracle.update(rec);
        let expected = {
            let mut buf = Vec::new();
            wire::append_response_frame(&mut buf, &Response::Updated { correct: want });
            buf
        };
        assert_eq!(
            read_raw_reply(&mut stream),
            expected,
            "reply {k} not byte-identical"
        );
    }
    drop(stream);

    Client::connect(addr)
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    let last = handle.join();
    assert_eq!(
        counter(&last, "server", "protocol.errors"),
        0,
        "dribbling is not an error"
    );
    assert!(
        counter(&last, "server", "conn.partial_reads") > 0,
        "dribbled frames must exercise the reassembly path"
    );
    assert_eq!(counter(&last, "total", "sessions.opened"), 1);
}

/// Pipelining: a client that fires a whole burst of same-session frames
/// in one write and only then reads gets every reply, in order, each
/// matching the lockstep oracle — and on one worker the coalescing
/// counter must show consecutive same-session frames were gathered into
/// multi-entry jobs rather than woken one by one.
#[cfg(target_os = "linux")]
#[test]
fn pipelined_bursts_reply_in_order_and_coalesce() {
    use ntp_core::{NextTracePredictor, PredictorConfig, TracePredictor};

    let handle = serve(cfg_on("127.0.0.1:0", 1)).expect("bind");
    let addr = handle.local_addr();

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    write_raw(
        &mut stream,
        &wire::encode_request(&Request::Hello {
            session: 0,
            bits: 12,
            depth: 5,
        }),
    );
    assert!(matches!(read_reply(&mut stream), Response::HelloOk { .. }));

    let records = synthetic_stream(0xC0A1_E5CE, 600);
    let mut oracle = NextTracePredictor::new(PredictorConfig::paper(12, 5));
    for burst in records.chunks(40) {
        let mut buf = Vec::new();
        for rec in burst {
            let mut frame = Vec::new();
            wire::frame_request(
                &mut frame,
                &Request::Update {
                    session: 0,
                    record: *rec,
                },
            );
            buf.extend_from_slice(&frame);
        }
        // One write carries the entire burst: the loop reads several
        // frames per wakeup and must answer them strictly in order.
        stream.write_all(&buf).expect("burst write");
        stream.flush().expect("flush");
        for (k, rec) in burst.iter().enumerate() {
            let want = oracle.predict().is_correct(rec.id());
            oracle.update(rec);
            match read_reply(&mut stream) {
                Response::Updated { correct } => {
                    assert_eq!(correct, want, "burst reply {k} out of order or wrong")
                }
                other => panic!("expected Updated, got {other:?}"),
            }
        }
    }
    drop(stream);

    let mut client = Client::connect(addr).expect("connect");
    let snap = client.metrics().expect("metrics");
    assert!(
        counter(&snap, "shard0", "drain.coalesced") > 0,
        "40-frame bursts into one session must coalesce"
    );
    client.shutdown_server().expect("shutdown");
    let last = handle.join();
    assert_eq!(counter(&last, "server", "protocol.errors"), 0);
    assert!(counter(&last, "shard0", "drain.coalesced") > 0);
}

/// Interleaved sessions in one burst, with 1 server worker.
#[cfg(target_os = "linux")]
#[test]
fn interleaved_burst_replies_in_order_one_worker() {
    interleaved_burst_replies_in_order(1);
}

/// Interleaved sessions in one burst, with 4 server workers (the five
/// sessions spread over every shard).
#[cfg(target_os = "linux")]
#[test]
fn interleaved_burst_replies_in_order_four_workers() {
    interleaved_burst_replies_in_order(4);
}

/// One reply the interleaved-burst test expects, in wire order.
#[cfg(target_os = "linux")]
enum Expect {
    Updated {
        session: usize,
        correct: bool,
    },
    /// The served prediction must name this target, from this table.
    Predicted {
        target: Option<ntp_core::Target>,
        source: ntp_core::Source,
    },
    BadFrame,
    /// A metrics snapshot counting exactly this many applied updates.
    Metrics {
        updates: u64,
    },
}

/// Bursts whose sessions cycle 0–4, so no two consecutive frames share a
/// session, each carrying a checksum-flipped frame, two `Predict` frames
/// and a `Metrics` frame mid-burst, all in one write: every reply comes
/// back in request order and matches its session's lockstep oracle (a
/// `Predicted` reply's target and source included), the corrupt frame
/// gets its typed error in its own slot without costing the connection,
/// and the `Metrics` reply counts exactly the updates sent ahead of it.
/// On one worker the frames of a burst reach the shard as multi-entry
/// jobs.
#[cfg(target_os = "linux")]
fn interleaved_burst_replies_in_order(workers: usize) {
    use ntp_core::{NextTracePredictor, PredictorConfig, TracePredictor};
    const SESSIONS: usize = 5;
    const BURST: usize = 40;
    const CORRUPT_AT: usize = 13;
    const METRICS_AT: usize = 27;
    const PREDICT_AT: [usize; 2] = [6, 34];

    let handle = serve(cfg_on("127.0.0.1:0", workers)).expect("bind");
    let mut stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).unwrap();

    let mut oracles = Vec::new();
    let mut records = Vec::new();
    for s in 0..SESSIONS {
        write_raw(
            &mut stream,
            &wire::encode_request(&Request::Hello {
                session: s as u64,
                bits: 12,
                depth: 5,
            }),
        );
        assert!(matches!(read_reply(&mut stream), Response::HelloOk { .. }));
        oracles.push(NextTracePredictor::new(PredictorConfig::paper(12, 5)));
        records.push(synthetic_stream(0x1EAF_0001 * (s as u64 + 1), 100).into_iter());
    }

    let mut updates = 0u64;
    let mut frame = Vec::new();
    for burst in 0..6 {
        let mut buf = Vec::new();
        let mut expect = Vec::with_capacity(BURST);
        for k in 0..BURST {
            let session = k % SESSIONS;
            if k == CORRUPT_AT {
                buf.extend_from_slice(&corrupt_frame(&wire::encode_request(&Request::Stats {
                    session: session as u64,
                })));
                expect.push(Expect::BadFrame);
            } else if k == METRICS_AT {
                wire::frame_request(&mut frame, &Request::Metrics);
                buf.extend_from_slice(&frame);
                expect.push(Expect::Metrics { updates });
            } else if PREDICT_AT.contains(&k) {
                let pred = oracles[session].predict();
                wire::frame_request(
                    &mut frame,
                    &Request::Predict {
                        session: session as u64,
                    },
                );
                buf.extend_from_slice(&frame);
                expect.push(Expect::Predicted {
                    target: pred.target,
                    source: pred.source,
                });
            } else {
                let rec = records[session].next().expect("stream long enough");
                let correct = oracles[session].predict().is_correct(rec.id());
                oracles[session].update(&rec);
                wire::frame_request(
                    &mut frame,
                    &Request::Update {
                        session: session as u64,
                        record: rec,
                    },
                );
                buf.extend_from_slice(&frame);
                updates += 1;
                expect.push(Expect::Updated { session, correct });
            }
        }
        stream.write_all(&buf).expect("burst write");
        stream.flush().expect("flush");
        for (k, want) in expect.iter().enumerate() {
            match (want, read_reply(&mut stream)) {
                (Expect::Updated { session, correct }, Response::Updated { correct: got }) => {
                    assert_eq!(
                        got, *correct,
                        "burst {burst} reply {k} (session {session}) out of order or wrong"
                    )
                }
                (
                    Expect::Predicted { target, source },
                    Response::Predicted {
                        target: t,
                        source: s,
                    },
                ) => {
                    assert_eq!(
                        (t, s),
                        (*target, *source),
                        "burst {burst} reply {k}: served prediction differs from the oracle's"
                    )
                }
                (
                    Expect::BadFrame,
                    Response::Error {
                        code: ErrorCode::BadFrame,
                        ..
                    },
                ) => {}
                (Expect::Metrics { updates }, Response::Metrics { json }) => {
                    let snap = decode_exactly(&json);
                    assert_eq!(
                        counter(&snap, "total", "frames.update"),
                        *updates,
                        "burst {burst}: Metrics must count every Update decoded ahead of it"
                    );
                }
                (_, other) => panic!("burst {burst} reply {k}: unexpected {other:?}"),
            }
        }
    }

    // The same connection is still healthy after six corrupt frames.
    write_raw(&mut stream, &wire::encode_request(&Request::Metrics));
    let Response::Metrics { json } = read_reply(&mut stream) else {
        panic!("expected Metrics");
    };
    let snap = decode_exactly(&json);
    assert_eq!(counter(&snap, "total", "frames.update"), updates);
    assert_eq!(
        counter(&snap, "total", "frames.predict"),
        6 * PREDICT_AT.len() as u64
    );
    if workers == 1 {
        assert!(
            counter(&snap, "shard0", "drain.coalesced") > 0,
            "a burst's interleaved sessions must reach the shard as multi-entry jobs"
        );
    }
    drop(stream);

    Client::connect(handle.local_addr())
        .expect("connect")
        .shutdown_server()
        .expect("shutdown");
    let last = handle.join();
    assert_eq!(counter(&last, "server", "protocol.errors"), 6);
}

/// A silent connection is dropped once it has been idle past
/// `read_timeout`, even while another connection on the same event loop
/// stays busy: the idle sweep runs on a fixed cadence, not only on ticks
/// that saw no events.
#[test]
fn idle_connection_is_reaped_while_another_stays_busy() {
    use std::io::Read;
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        event_threads: 1,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = handle.local_addr();

    let mut silent = TcpStream::connect(addr).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set_read_timeout");
    let t0 = Instant::now();

    // The busy peer sends an Update every 20 ms for up to 2.5 s, and stops
    // early once the silent connection has been dropped.
    let reaped = Arc::new(AtomicBool::new(false));
    let busy = {
        let reaped = Arc::clone(&reaped);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            client.hello(1, 12, 3).expect("hello");
            let rec = TraceRecord::new(TraceId::new(0x0040_0000, 0, 0), 8, 0, false, false);
            let mut updates = 0u32;
            while !reaped.load(Ordering::SeqCst) && t0.elapsed() < Duration::from_millis(2_500) {
                if client.update(1, &rec).is_err() {
                    break; // Reaped itself after a long scheduling stall.
                }
                updates += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            updates
        })
    };

    let mut byte = [0u8; 1];
    let read = silent.read(&mut byte);
    let waited = t0.elapsed();
    reaped.store(true, Ordering::SeqCst);
    let updates = busy.join().expect("busy client");
    assert!(
        matches!(read, Ok(0)),
        "the server must close the idle connection, got {read:?}"
    );
    assert!(
        waited < Duration::from_millis(1_500),
        "idle connection held for {waited:?} while another stayed busy"
    );
    assert!(updates > 0, "the busy peer kept the loop busy");

    let mut client = Client::connect(addr).expect("connect");
    let snap = client.metrics().expect("metrics");
    assert!(counter(&snap, "server", "conn.read_timeouts") >= 1);
    client.shutdown_server().expect("shutdown");
    let last = handle.join();
    assert!(counter(&last, "server", "conn.read_timeouts") >= 1);
}

/// Open-loop determinism: two runs with the same seed, rate, zipf and
/// duration — against fresh servers — produce the identical schedule
/// (digest and per-session sent counts) and, below capacity, identical
/// oracle-checked outcomes with zero shed load.
#[test]
fn open_loop_schedule_is_deterministic() {
    let specs: Vec<SessionSpec> = (0..3)
        .map(|i| SessionSpec {
            name: format!("synth{i}"),
            records: synthetic_stream(0x00E1_100F ^ (i as u64 + 1), 500),
        })
        .collect();

    let run = || {
        let handle = serve(cfg_on("127.0.0.1:0", 2)).expect("bind");
        let addr = handle.local_addr().to_string();
        let report = open_loop_below_capacity(&addr, 2, &specs);
        Client::connect(&addr)
            .expect("connect")
            .shutdown_server()
            .expect("shutdown");
        handle.join();
        report
    };

    let a = run();
    let b = run();

    assert_eq!(a.schedule_digest, b.schedule_digest, "schedules diverged");
    assert!(a.all_match() && b.all_match());
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x.sent, y.sent, "session {} sent diverged", x.name);
        assert_eq!(x.applied, y.applied);
        assert_eq!(
            x.oracle, y.oracle,
            "session {} oracle stats diverged",
            x.name
        );
        assert_eq!(x.served, y.served, "session {} served diverged", x.name);
    }
    assert!(a.latency_us.count() >= a.applied);
}

/// A corrupted warm snapshot is refused outright: the server logs, starts
/// cold (no partially restored sessions), and serves normally.
#[test]
fn corrupt_warm_snapshot_falls_back_to_cold_start() {
    let dir = std::env::temp_dir().join(format!("ntp-warm-corrupt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("seed.nts");

    // A valid single-session snapshot, then one flipped byte in the body.
    let mut p = ntp_core::NextTracePredictor::new(ntp_core::PredictorConfig::paper(12, 3));
    let stats = ntp_core::evaluate(&mut p, &synthetic_stream(0xACED, 600));
    let artifact = ntp_tracefile::SnapshotArtifact {
        sessions: vec![ntp_tracefile::SessionSnapshot::capture(0, &p, &stats)],
    };
    ntp_tracefile::write_snapshot_file(&path, &artifact).expect("write");
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, &bytes).unwrap();

    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        warm_path: Some(path),
        ..ServeConfig::default()
    })
    .expect("bind despite corrupt warm file");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    match client.stats(0) {
        Err(ntp_serve::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::UnknownSession, "cold start: no session 0")
        }
        other => panic!("expected UnknownSession after cold start, got {other:?}"),
    }
    client.hello(0, 12, 3).expect("cold server still serves");
    client.shutdown_server().expect("shutdown");
    let last = handle.join();
    assert_eq!(counter(&last, "total", "sessions.warmed"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
