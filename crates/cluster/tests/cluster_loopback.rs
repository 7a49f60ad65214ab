//! Cluster end-to-end tests on the loopback: real `serve()` backends on
//! ephemeral ports, a real router in front, real TCP clients through
//! it — and the same exact-oracle guarantee the single-server suite
//! proves, now across a **live migration** and a **backend failover**.
//!
//! The lockstep discipline matters: every update's reply is observed
//! before the next is sent, so any reordering, dropped frame, or stale
//! state introduced by the router's migration/failover machinery shows
//! up as a served-vs-oracle divergence at a specific record, not as a
//! fuzzy aggregate mismatch.

// The phase loops stride every session's stream by a shared index on
// purpose — the lockstep interleaving IS the test.
#![allow(clippy::needless_range_loop)]

use ntp_cluster::{start, BackendSpec, HashRing, MigrateTrigger, RouterConfig, DEFAULT_VNODES};
use ntp_core::{evaluate, NextTracePredictor, PredictorConfig, TracePredictor};
use ntp_serve::wire::{self, ErrorCode, Request, Response};
use ntp_serve::{config::ServeConfig, serve, Client};
use ntp_telemetry::{Snapshot, ToJson};
use ntp_trace::{TraceId, TraceRecord};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BITS: u32 = 12;
const DEPTH: u32 = 4;

/// A deterministic synthetic trace stream (same xorshift walk the serve
/// suite uses, reseeded per session).
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
            let pc = 0x0040_0000 + ((r >> 8) % 8) as u32 * 64;
            let branches = (r % 4) as u8;
            let bits = (r >> 16) as u8 & ((1u8 << branches).wrapping_sub(1));
            let id = TraceId::new(pc, bits, branches);
            let len = 1 + (r >> 24) as u8 % 16;
            TraceRecord::new(id, len, branches, r % 5 == 0, r % 7 == 0)
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ntp-cluster-{tag}-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    dir
}

fn backend(snapshot_dir: Option<PathBuf>) -> ntp_serve::ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        snapshot_dir,
        ..ServeConfig::default()
    })
    .expect("backend binds")
}

/// A counter of one snapshot section, 0 when either is absent.
fn counter(snap: &Snapshot, section: &str, name: &str) -> u64 {
    snap.get(section)
        .and_then(|s| s.counter_by_name(name))
        .unwrap_or(0)
}

fn poll_counter(client: &mut Client, section: &str, name: &str) -> u64 {
    counter(&client.metrics().expect("router metrics"), section, name)
}

/// The headline test: four lockstep sessions stream through the router
/// while one session is migrated live between backends and one backend
/// is drained out from under the cluster (the SIGTERM path) — and every
/// session's served statistics still equal the offline oracle
/// field-for-field.
#[test]
fn migration_and_failover_stay_in_lockstep_with_the_oracle() {
    let dir0 = fresh_dir("b0");
    let dir1 = fresh_dir("b1");
    let b0 = backend(Some(dir0.clone()));
    let b1 = backend(Some(dir1.clone()));
    let addr0 = b0.local_addr().to_string();
    let addr1 = b1.local_addr().to_string();

    let mut cfg = RouterConfig::new(vec![
        BackendSpec {
            addr: addr0.clone(),
            snapshot_dir: Some(dir0.clone()),
        },
        BackendSpec {
            addr: addr1.clone(),
            snapshot_dir: Some(dir1.clone()),
        },
    ]);
    cfg.probe_interval = Duration::from_millis(100);
    let router = start(cfg).expect("router binds");
    let raddr = router.local_addr().to_string();

    const SESSIONS: u64 = 4;
    const LEN: usize = 300;
    let streams: Vec<Vec<TraceRecord>> = (1..=SESSIONS)
        .map(|s| synthetic_stream(0x9E37_79B9 * s, LEN))
        .collect();

    let mut client = Client::connect(&raddr).expect("connect through router");
    for s in 1..=SESSIONS {
        client.hello(s, BITS, DEPTH).expect("hello routes");
    }

    // Phase A: first third, interleaved across sessions in lockstep.
    for i in 0..LEN / 3 {
        for s in 1..=SESSIONS {
            client
                .update(s, &streams[(s - 1) as usize][i])
                .expect("phase A update");
        }
    }

    // Live migration: pick the session the ring placed on backend 0 and
    // move it to backend 1 (or vice versa) — guaranteed a real move, not
    // a same-backend no-op.
    let ring = HashRing::new(&[addr0.clone(), addr1.clone()], cfg_vnodes());
    let victim = 1u64;
    let to = 1 - ring.route(victim);
    router.migrate(victim, to).expect("live migration");

    // Phase B: second third — the migrated session now serves from the
    // other backend, stats riding along in the snapshot.
    for i in LEN / 3..2 * LEN / 3 {
        for s in 1..=SESSIONS {
            client
                .update(s, &streams[(s - 1) as usize][i])
                .expect("phase B update");
        }
    }

    // Failover: drain the backend the migrated session now lives on
    // (what the SIGTERM watcher does) — guaranteed to own at least one
    // session — and let its join() write final snapshots plus the drain
    // marker. The router probe must notice, drain through, and replay
    // that backend's sessions into the survivor from those snapshots.
    let mut handles = [Some(b0), Some(b1)];
    let drained = handles[to as usize].take().expect("drain target");
    drained.request_shutdown();
    let joiner = std::thread::spawn(move || drained.join());
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if poll_counter(&mut client, "router", "route.failovers") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never failed over the draining backend"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let drained_last = joiner.join().expect("drained backend joins");
    assert!(
        counter(&drained_last, "total", "sessions.opened") >= 1,
        "the drained backend served no sessions"
    );

    // Phase C: final third, everything on backend 1.
    for i in 2 * LEN / 3..LEN {
        for s in 1..=SESSIONS {
            client
                .update(s, &streams[(s - 1) as usize][i])
                .expect("phase C update");
        }
    }

    // The exactness claim: after a migration and a failover, served
    // statistics still equal a cold offline replay, field for field.
    for s in 1..=SESSIONS {
        let served = client.stats(s).expect("stats route");
        let oracle = evaluate(
            &mut NextTracePredictor::new(PredictorConfig::paper(BITS, DEPTH as usize)),
            &streams[(s - 1) as usize],
        );
        assert_eq!(
            served, oracle,
            "session {s} diverged from the offline oracle after migration/failover"
        );
    }

    // The router's `Metrics` reply, with a live migration and a failover
    // behind it, decodes to a snapshot that renders back to the same
    // bytes.
    let text = router.metrics_json();
    let snap: Snapshot = text.parse().expect("router metrics decode");
    assert_eq!(
        snap.to_json().render(),
        text,
        "decode is the render's inverse"
    );
    assert_eq!(
        snap.get("router")
            .and_then(|r| r.counter_by_name("route.migrations")),
        Some(1)
    );

    // Cluster-wide shutdown through the router: surviving backend
    // drains, then the router itself.
    client.shutdown_server().expect("shutdown through router");
    drop(client);
    let last = router.join();
    let route = |name: &str| counter(&last, "router", name);
    assert_eq!(route("route.sessions"), SESSIONS);
    assert_eq!(route("route.migrations"), 1, "exactly one live migration");
    assert_eq!(route("route.failovers"), 1, "exactly one failover");
    assert_eq!(route("route.errors"), 0, "no forwarding errors");
    assert_eq!(
        route("route.sessions_lost"),
        0,
        "graceful failover loses nothing"
    );
    assert!(
        route("route.sessions_restored") >= 1,
        "failover restored backend 0's sessions from its drain snapshots"
    );
    assert!(route("route.forwarded") >= SESSIONS * (LEN as u64 + 2));
    let survivor = handles[1 - to as usize].take().expect("survivor");
    assert!(counter(&survivor.join(), "total", "sessions.opened") >= 1);
    for dir in [dir0, dir1] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn cfg_vnodes() -> usize {
    DEFAULT_VNODES
}

/// A backend that is simply *gone* (nothing listening) is hard-failed
/// over: the probe gives up after two strikes, the ring shrinks, and
/// traffic — still oracle-exact — continues on the survivor.
#[test]
fn dead_backend_is_hard_failed_over_and_traffic_continues() {
    let b0 = backend(None);
    let addr0 = b0.local_addr().to_string();
    // A valid address with nothing behind it. Port 1 lies below every
    // ephemeral range, so no `bind(":0")` elsewhere in this binary (the
    // tests run in parallel) can hand it to a live backend, as a port
    // bound and dropped here could be.
    let dead_addr = "127.0.0.1:1".to_string();

    let mut cfg = RouterConfig::new(vec![
        BackendSpec {
            addr: addr0.clone(),
            snapshot_dir: None,
        },
        BackendSpec {
            addr: dead_addr,
            snapshot_dir: None,
        },
    ]);
    cfg.probe_interval = Duration::from_millis(50);
    let router = start(cfg).expect("router binds");
    let raddr = router.local_addr().to_string();

    // Wait for the hard failover before sending traffic, so every
    // session lands on the survivor.
    let mut client = Client::connect(&raddr).expect("connect through router");
    let deadline = Instant::now() + Duration::from_secs(30);
    while poll_counter(&mut client, "router", "route.failovers") < 1 {
        assert!(
            Instant::now() < deadline,
            "router never hard-failed the dead backend"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    let stream = synthetic_stream(0xDEAD_BEEF, 200);
    for s in 1..=3u64 {
        client.hello(s, BITS, DEPTH).expect("hello");
    }
    for rec in &stream {
        for s in 1..=3u64 {
            client.update(s, rec).expect("update");
        }
    }
    let oracle = evaluate(
        &mut NextTracePredictor::new(PredictorConfig::paper(BITS, DEPTH as usize)),
        &stream,
    );
    for s in 1..=3u64 {
        assert_eq!(client.stats(s).expect("stats"), oracle, "session {s}");
    }

    client.shutdown_server().expect("shutdown");
    drop(client);
    let last = router.join();
    assert_eq!(counter(&last, "router", "route.failovers"), 1);
    assert_eq!(counter(&last, "router", "route.sessions"), 3);
    assert_eq!(
        counter(&last, "router", "route.sessions_lost"),
        0,
        "no sessions existed when the dead backend was dropped"
    );
    assert_eq!(counter(&b0.join(), "total", "sessions.opened"), 3);
}

/// Polls the router's `route.failovers` until it reads 1.
fn wait_for_failover(client: &mut Client) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while poll_counter(client, "router", "route.failovers") < 1 {
        assert!(Instant::now() < deadline, "router never failed over");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// The offline oracle's statistics for one stream.
fn oracle(stream: &[TraceRecord]) -> ntp_core::PredictorStats {
    evaluate(
        &mut NextTracePredictor::new(PredictorConfig::paper(BITS, DEPTH as usize)),
        stream,
    )
}

/// A backend that reaps idle connections: the router's data connection
/// to it dies between two bursts, and the next frame must simply open a
/// fresh one — no frame answered `Internal`, no update lost.
#[test]
fn idle_backend_connection_is_reopened_without_an_error() {
    let b = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    })
    .expect("backend binds");
    let router = start(RouterConfig::new(vec![BackendSpec {
        addr: b.local_addr().to_string(),
        snapshot_dir: None,
    }]))
    .expect("router binds");
    let stream = synthetic_stream(0x1D1E, 100);
    let mut client = Client::connect(router.local_addr()).expect("connect through router");
    client.hello(1, BITS, DEPTH).expect("hello");
    for (i, rec) in stream.iter().enumerate() {
        if i == 50 {
            // Long enough for the backend's idle sweep to close the
            // router's connection to it.
            std::thread::sleep(Duration::from_millis(1200));
        }
        client
            .update(1, rec)
            .unwrap_or_else(|e| panic!("update {i}: {e}"));
    }
    assert_eq!(client.stats(1).expect("stats"), oracle(&stream));
    assert_eq!(poll_counter(&mut client, "router", "route.errors"), 0);
    client.shutdown_server().expect("shutdown");
    drop(client);
    router.join();
    b.join();
}

/// A killable TCP relay in front of one backend: every accepted
/// connection is piped both ways to the backend by two copy threads.
/// [`Relay::kill`] closes the listener and shuts down every relayed
/// socket, so the backend is dead to whoever dialed the relay while it
/// keeps running (and keeps its snapshots).
struct Relay {
    addr: String,
    dead: Arc<AtomicBool>,
    socks: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<JoinHandle<()>>,
}

impl Relay {
    fn start(target: SocketAddr) -> Relay {
        let listener = TcpListener::bind("127.0.0.1:0").expect("relay binds");
        let addr = listener.local_addr().expect("relay address").to_string();
        let dead = Arc::new(AtomicBool::new(false));
        let socks = Arc::new(Mutex::new(Vec::new()));
        let (stop, held) = (Arc::clone(&dead), Arc::clone(&socks));
        let accept = std::thread::spawn(move || {
            for client in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let (Ok(client), Ok(backend)) = (client, TcpStream::connect(target)) else {
                    continue;
                };
                let pipe = |from: &TcpStream, to: &TcpStream| {
                    let (mut from, mut to) = (from.try_clone().unwrap(), to.try_clone().unwrap());
                    std::thread::spawn(move || {
                        let _ = std::io::copy(&mut from, &mut to);
                        let _ = to.shutdown(Shutdown::Write);
                    });
                };
                pipe(&client, &backend);
                pipe(&backend, &client);
                held.lock().unwrap().extend([client, backend]);
            }
        });
        Relay {
            addr,
            dead,
            socks,
            accept: Some(accept),
        }
    }

    fn kill(&mut self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.addr); // Wakes the acceptor to exit.
        self.accept.take().expect("killed once").join().unwrap();
        for sock in self.socks.lock().unwrap().iter() {
            let _ = sock.shutdown(Shutdown::Both);
        }
    }
}

/// A backend that dies holding sessions is failed over hard. With
/// periodic snapshots every one of its sessions is restored exactly on
/// the survivor; without them each is cold-restarted and counted lost.
/// The survivor's own sessions stay exact either way.
#[test]
fn killed_backend_sessions_are_restored_or_counted_lost() {
    for periodic in [true, false] {
        hard_failover_case(periodic);
    }
}

fn hard_failover_case(periodic: bool) {
    let dir0 = fresh_dir("hard");
    let b0 = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        snapshot_dir: Some(dir0.clone()),
        snapshot_interval: periodic.then(|| Duration::from_millis(100)),
        ..ServeConfig::default()
    })
    .expect("backend binds");
    let b1 = backend(None);
    let mut relay = Relay::start(b0.local_addr());
    let addrs = [relay.addr.clone(), b1.local_addr().to_string()];
    let mut cfg = RouterConfig::new(vec![
        BackendSpec {
            addr: addrs[0].clone(),
            snapshot_dir: Some(dir0.clone()),
        },
        BackendSpec {
            addr: addrs[1].clone(),
            snapshot_dir: None,
        },
    ]);
    cfg.probe_interval = Duration::from_millis(50);
    let router = start(cfg).expect("router binds");

    // Four sessions on each backend, so both outcomes count something.
    let ring = &HashRing::new(&addrs, DEFAULT_VNODES);
    let on = |k: u32| (1u64..).filter(move |&s| ring.route(s) == k).take(4);
    let ids: Vec<u64> = on(0).chain(on(1)).collect();
    let streams: Vec<Vec<TraceRecord>> = ids
        .iter()
        .map(|&s| synthetic_stream(0x51ED * s, 200))
        .collect();
    let mut client = Client::connect(router.local_addr()).expect("connect through router");
    for &s in &ids {
        client.hello(s, BITS, DEPTH).expect("hello");
    }
    let send = |client: &mut Client, range: std::ops::Range<usize>| {
        for i in range {
            for (s, stream) in ids.iter().zip(&streams) {
                client.update(*s, &stream[i]).expect("update");
            }
        }
    };
    send(&mut client, 0..100);
    // At least two periodic snapshots follow the last update.
    std::thread::sleep(Duration::from_millis(400));
    relay.kill();
    wait_for_failover(&mut client);
    send(&mut client, 100..200);

    for (j, (s, stream)) in ids.iter().zip(&streams).enumerate() {
        let exact = client.stats(*s).expect("stats") == oracle(stream);
        let survivor = j >= 4;
        assert_eq!(
            exact,
            periodic || survivor,
            "session {s} (periodic {periodic})"
        );
    }
    client.shutdown_server().expect("shutdown through router");
    drop(client);
    let last = router.join();
    let route = |name: &str| counter(&last, "router", name);
    assert_eq!(
        route("route.sessions_restored"),
        if periodic { 4 } else { 0 }
    );
    assert_eq!(route("route.sessions_lost"), if periodic { 0 } else { 4 });
    assert_eq!(
        route("route.errors"),
        0,
        "no frame was in flight at the kill"
    );
    b1.join();
    b0.request_shutdown();
    b0.join();
    let _ = std::fs::remove_dir_all(dir0);
}

/// One write pipelines thousands of frames over three sessions while a
/// scripted migration freezes session 1: its later frames park in the
/// router's loop and go out after the thaw, so every reply still equals
/// a lockstep oracle in request order.
#[test]
fn frames_pipelined_across_a_scripted_migration_stay_in_order() {
    let (b0, b1) = (backend(None), backend(None));
    let mut cfg = RouterConfig::new(
        [&b0, &b1]
            .iter()
            .map(|b| BackendSpec {
                addr: b.local_addr().to_string(),
                snapshot_dir: None,
            })
            .collect(),
    );
    cfg.migrate_trigger = Some(MigrateTrigger {
        session: 1,
        to: None,
        after_frames: 40,
    });
    let router = start(cfg).expect("router binds");

    const LEN: usize = 1000;
    let streams: Vec<Vec<TraceRecord>> = (1..=3u64)
        .map(|s| synthetic_stream(0xA11CE * s, LEN))
        .collect();
    let mut requests: Vec<Request> = (1..=3u64)
        .map(|session| Request::Hello {
            session,
            bits: BITS,
            depth: DEPTH,
        })
        .collect();
    for i in 0..LEN {
        for (session, stream) in (1..=3u64).zip(&streams) {
            let record = stream[i];
            requests.push(Request::Update { session, record });
        }
    }
    let (mut bytes, mut scratch) = (Vec::new(), Vec::new());
    for req in &requests {
        wire::frame_request(&mut scratch, req);
        bytes.extend_from_slice(&scratch);
    }
    let mut sock = TcpStream::connect(router.local_addr()).expect("connect through router");
    sock.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    sock.write_all(&bytes).expect("one pipelined write");

    let cfg = PredictorConfig::paper(BITS, DEPTH as usize);
    let mut locals: Vec<NextTracePredictor> =
        (0..3).map(|_| NextTracePredictor::new(cfg)).collect();
    for (k, req) in requests.iter().enumerate() {
        let body = wire::read_frame(&mut sock, 1 << 20).expect("reply");
        let reply = wire::decode_response(&body).expect("decodes");
        match (req, reply) {
            (Request::Hello { session, .. }, Response::HelloOk { session: s, .. }) => {
                assert_eq!(*session, s, "reply {k}");
            }
            (Request::Update { session, record }, Response::Updated { correct }) => {
                let local = &mut locals[*session as usize - 1];
                let expect = local.predict().is_correct(record.id());
                local.update(record);
                assert_eq!(correct, expect, "reply {k} (session {session})");
            }
            (req, reply) => panic!("reply {k}: {reply:?} to {req:?}"),
        }
    }
    drop(sock);
    let mut client = Client::connect(router.local_addr()).expect("connect through router");
    for (session, stream) in (1..=3u64).zip(&streams) {
        assert_eq!(client.stats(session).expect("stats"), oracle(stream));
    }
    let snap = client.metrics().expect("router metrics");
    assert_eq!(counter(&snap, "router", "route.migrations"), 1);
    assert_eq!(counter(&snap, "router", "route.errors"), 0);
    client.shutdown_server().expect("shutdown through router");
    drop(client);
    router.join();
    b0.join();
    b1.join();
}

/// The acceptor a server and a router share: past `max_conns`, a third
/// connection reads exactly one `Refused` frame, counted in
/// `conns.refused`.
#[test]
fn third_connection_past_max_conns_is_refused() {
    let server = serve(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        max_conns: 2,
        ..ServeConfig::default()
    })
    .expect("server binds");
    let b = backend(None);
    let mut cfg = RouterConfig::new(vec![BackendSpec {
        addr: b.local_addr().to_string(),
        snapshot_dir: None,
    }]);
    cfg.max_conns = 2;
    let router = start(cfg).expect("router binds");
    for (addr, section) in [
        (server.local_addr(), "server"),
        (router.local_addr(), "router"),
    ] {
        let mut first = Client::connect(addr).expect("first connection");
        let _second = Client::connect(addr).expect("second connection");
        let mut third = TcpStream::connect(addr).expect("tcp connect");
        third
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let body = wire::read_frame(&mut third, 1 << 20).expect("one refusal frame");
        let reply = wire::decode_response(&body).expect("decodes");
        assert!(
            matches!(
                reply,
                Response::Error {
                    code: ErrorCode::Refused,
                    ..
                }
            ),
            "{section}: {reply:?}"
        );
        let snap = first.metrics().expect("metrics");
        assert_eq!(counter(&snap, section, "conns.refused"), 1, "{section}");
    }
    router.request_shutdown();
    router.join();
    for s in [server, b] {
        s.request_shutdown();
        s.join();
    }
}
