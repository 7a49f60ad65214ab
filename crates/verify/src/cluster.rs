//! The cluster differential oracle: a real router fronting two real
//! in-process servers, compared against the offline replay **per
//! prediction** — across a live migration and a backend failover.
//!
//! Each case boots two `ntp_serve::serve` backends (ephemeral loopback
//! ports, per-case snapshot directories) behind an `ntp_cluster`
//! router, then replays generated streams for several sessions in
//! lockstep: every `Update` reply's `correct` bit must equal what the
//! local predictor says for that exact record. Before a seeded quarter
//! of the `Update`s, and for every session at the first step after each
//! disruption, a `Predict` frame reads the served prediction, whose
//! target and source must equal the local predictor's. Mid-stream the case
//! forces one **live migration** (the session the ring placed on one
//! backend moves to the other) and one **graceful failover** (the
//! backend now hosting the migrated session drains, as under SIGTERM,
//! and the router restores its sessions from the drain snapshots).
//! A session that survives both with every prediction bit intact — and
//! whose final `Stats` reply equals the accumulated offline
//! [`PredictorStats`] field for field — exercises the entire seam:
//! wire framing, per-session reply ordering through the router's event
//! loops, session-snapshot encode/decode, and the router's
//! freeze/park/settle protocol.
//!
//! The geometry is pinned to the 12-bit paper index (depths still
//! sweep 0..=7): the cluster seam is ordering and state movement, not
//! table size — the geometry sweep belongs to the other oracles — and
//! small tables keep a full `run_all` sweep fast enough for the CI
//! gate. Case count is clamped to [`MAX_CLUSTER_CASES`] for the same
//! reason; the clamp is visible in the reported case count, never
//! silent.

use crate::oracle::{Divergence, OracleOutcome};
use crate::rng::XorShift64;
use ntp_cluster::{start, BackendSpec, HashRing, RouterConfig, DEFAULT_VNODES};
use ntp_core::{NextTracePredictor, PredictorConfig, PredictorStats, TracePredictor};
use ntp_serve::{config::ServeConfig, serve, Client};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Upper bound on cluster-oracle cases per run: each case boots three
/// processes' worth of threads and rides out a real drain, so the
/// marginal value of the 64-point sweep the CI gate uses elsewhere is
/// spent here after a handful of cases.
pub const MAX_CLUSTER_CASES: usize = 6;

/// Index width every case uses (the smallest paper configuration).
const INDEX_BITS: u32 = 12;

/// Builds a scratch snapshot directory for one backend of one case.
fn scratch_dir(seed: u64, case: usize, k: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ntp-verify-cluster-{}-{seed:x}-{case}-{k}",
        std::process::id()
    ));
    // A stale dir from a crashed prior run would feed old snapshots to
    // the failover path; start from nothing.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create verify snapshot dir");
    dir
}

/// Differential oracle: served-through-the-router must equal the local
/// replay per prediction, across one live migration and one graceful
/// failover per case. See the module docs for the full shape.
pub fn cluster_lockstep(seed: u64, cases: usize) -> OracleOutcome {
    const NAME: &str = "cluster-lockstep";
    let cases = cases.min(MAX_CLUSTER_CASES);
    let master = XorShift64::new(seed ^ 0x00C1_5733);
    let mut comparisons = 0u64;
    let mut divergences = Vec::new();

    'cases: for case in 0..cases {
        let mut rng = master.fork(case as u64);
        let depth = rng.range(0, 7) as usize;
        let cfg = PredictorConfig::try_paper(INDEX_BITS, depth)
            .expect("the 12-bit paper point is valid at every depth");
        let sessions = rng.range(2, 3) as usize;
        let stream_len = rng.range(60, 150) as usize;
        let streams: Vec<Vec<_>> = (0..sessions)
            .map(|_| crate::gen::random_stream(&mut rng, stream_len))
            .collect();
        let ids: Vec<u64> = (0..sessions).map(|_| rng.next_u64() | 1).collect();

        let dirs: Vec<PathBuf> = (0..2).map(|k| scratch_dir(seed, case, k)).collect();
        let backends: Vec<_> = dirs
            .iter()
            .map(|dir| {
                serve(ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    workers: 2,
                    snapshot_dir: Some(dir.clone()),
                    ..ServeConfig::default()
                })
                .expect("verify backend binds")
            })
            .collect();
        let addrs: Vec<String> = backends
            .iter()
            .map(|b| b.local_addr().to_string())
            .collect();

        let mut rcfg = RouterConfig::new(
            addrs
                .iter()
                .zip(&dirs)
                .map(|(addr, dir)| BackendSpec {
                    addr: addr.clone(),
                    snapshot_dir: Some(dir.clone()),
                })
                .collect(),
        );
        rcfg.probe_interval = Duration::from_millis(100);
        let router = start(rcfg).expect("verify router binds");
        let raddr = router.local_addr().to_string();

        let mut client = Client::connect(&raddr).expect("verify client connects");
        let mut locals: Vec<NextTracePredictor> = (0..sessions)
            .map(|_| NextTracePredictor::new(cfg))
            .collect();
        let mut local_stats = vec![PredictorStats::new(); sessions];
        for &id in &ids {
            client
                .hello(id, INDEX_BITS, depth as u32)
                .expect("hello through the router");
        }

        // The scripted disruptions: migrate the first session off its
        // ring backend at one cut point, then drain the backend it
        // landed on at a later one.
        let ring = HashRing::new(&addrs, DEFAULT_VNODES);
        let migrate_to = 1 - ring.route(ids[0]);
        let migrate_at = rng.range(10, stream_len as u64 / 2) as usize;
        let failover_at = rng.range(migrate_at as u64 + 1, stream_len as u64 - 1) as usize;
        // Which steps also read the served prediction: forked after every
        // draw above, so the case's shape does not depend on it.
        let mut probes = rng.fork(0);
        let mut drained = {
            let mut slots: Vec<_> = backends.into_iter().map(Some).collect();
            move |k: usize| slots[k].take().expect("backend drained once")
        };
        let mut joiner = None;

        // Indexed on purpose: `i` drives the disruption schedule and
        // strides several parallel per-session vectors at once.
        #[allow(clippy::needless_range_loop)]
        for i in 0..stream_len {
            if i == migrate_at {
                router
                    .migrate(ids[0], migrate_to)
                    .expect("scripted live migration");
            }
            if i == failover_at {
                let target = drained(migrate_to as usize);
                target.request_shutdown();
                joiner = Some(std::thread::spawn(move || target.join()));
                let deadline = Instant::now() + Duration::from_secs(30);
                let failovers = || {
                    router
                        .metrics_snapshot()
                        .get("router")
                        .and_then(|r| r.counter_by_name("route.failovers"))
                        .unwrap_or(0)
                };
                while failovers() < 1 {
                    assert!(
                        Instant::now() < deadline,
                        "verify: router never failed over the draining backend"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            for s in 0..sessions {
                let r = &streams[s][i];
                let pred = locals[s].predict();
                let mut detail = None;
                // The first step after a disruption reads every session's
                // moved or restored state before updating it.
                if probes.chance(1, 4) || i == migrate_at || i == failover_at {
                    let (target, source) =
                        client.predict(ids[s]).expect("predict through the router");
                    comparisons += 1;
                    if (target, source) != (pred.target, pred.source) {
                        detail = Some(format!(
                            "served predicted {target:?} from {source:?}, local replay \
                             predicted {:?} from {:?}",
                            pred.target, pred.source
                        ));
                    }
                }
                let before = local_stats[s].correct;
                local_stats[s].score(&pred, r);
                locals[s].update(r);
                let local_correct = local_stats[s].correct > before;
                let served_correct = client.update(ids[s], r).expect("update through the router");
                comparisons += 1;
                if detail.is_none() && served_correct != local_correct {
                    detail = Some(format!(
                        "served said correct={served_correct}, local replay said \
                         correct={local_correct}"
                    ));
                }
                if let Some(detail) = detail {
                    divergences.push(Divergence {
                        oracle: NAME,
                        seed,
                        case,
                        index: Some(i as u64),
                        config: format!(
                            "{cfg:?} session {} migrate@{migrate_at}->b{migrate_to} \
                             failover@{failover_at}",
                            ids[s]
                        ),
                        detail,
                    });
                    let _ = client.shutdown_server();
                    router.join();
                    if let Some(j) = joiner {
                        let _ = j.join();
                    }
                    for dir in &dirs {
                        let _ = std::fs::remove_dir_all(dir);
                    }
                    continue 'cases;
                }
            }
        }

        for s in 0..sessions {
            let served = client.stats(ids[s]).expect("stats through the router");
            comparisons += 1;
            if served != local_stats[s] {
                divergences.push(Divergence {
                    oracle: NAME,
                    seed,
                    case,
                    index: None,
                    config: format!(
                        "{cfg:?} session {} migrate@{migrate_at}->b{migrate_to} \
                         failover@{failover_at}",
                        ids[s]
                    ),
                    detail: format!("served stats {served:?} vs local {:?}", local_stats[s]),
                });
            }
        }

        client.shutdown_server().expect("cluster shutdown");
        drop(client);
        let last = router.join();
        let [migrations, failovers, lost] =
            ["migrations", "failovers", "sessions_lost"].map(|name| {
                last.get("router")
                    .and_then(|r| r.counter_by_name(&format!("route.{name}")))
                    .unwrap_or(0)
            });
        comparisons += 1;
        if [migrations, failovers, lost] != [1, 1, 0] {
            divergences.push(Divergence {
                oracle: NAME,
                seed,
                case,
                index: None,
                config: format!("{cfg:?} migrate@{migrate_at} failover@{failover_at}"),
                detail: format!(
                    "router accounting off: {migrations} migrations, {failovers} failovers, \
                     {lost} lost (wanted 1/1/0)"
                ),
            });
        }
        if let Some(j) = joiner {
            let _ = j.join().expect("drained backend joins");
        }
        let _ = drained(1 - migrate_to as usize).join();
        for dir in &dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    OracleOutcome {
        name: NAME,
        cases,
        comparisons,
        divergences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_lockstep_is_clean_on_a_small_sweep() {
        let o = cluster_lockstep(0xC1_5733, 2);
        assert_eq!(o.cases, 2);
        assert!(o.divergences.is_empty(), "{:?}", o.divergences);
        assert!(o.comparisons > 100);
    }

    #[test]
    fn case_count_is_clamped_visibly() {
        let o = cluster_lockstep(0xC1_5733, 0);
        assert_eq!(o.cases, 0);
        assert_eq!(o.comparisons, 0);
    }
}
