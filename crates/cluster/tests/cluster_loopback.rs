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

use ntp_cluster::{start, BackendSpec, HashRing, RouterConfig};
use ntp_core::{evaluate, NextTracePredictor, PredictorConfig};
use ntp_serve::{config::ServeConfig, serve, Client};
use ntp_telemetry::{Snapshot, ToJson};
use ntp_trace::{TraceId, TraceRecord};
use std::path::PathBuf;
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
    ntp_cluster::DEFAULT_VNODES
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
