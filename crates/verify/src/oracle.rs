//! The differential oracles: pairs (or triples) of implementations that
//! must agree exactly, replayed over generated streams.
//!
//! Five oracles, each attacking a different seam of the stack:
//!
//! 1. [`bounded_vs_unbounded`] — the finite tagged predictor against the
//!    unbounded no-aliasing model on alias-free streams, compared
//!    *prediction by prediction*;
//! 2. [`evaluate_equivalence`] — `evaluate`, `evaluate_with_streaks` and the
//!    delayed-update engine (at a latency-free operating point) must produce
//!    identical [`PredictorStats`];
//! 3. [`runner_determinism`] — the worker pool's ordered merge must be
//!    byte-identical to the serial path at any thread count;
//! 4. [`batch_vs_scalar`] — `evaluate_batch_fresh` against per-lane
//!    `evaluate`, and each lane replayed with the shard drain's
//!    `prefetch_tables` hint against the same lane without it, per
//!    prediction and per final table state;
//! 5. [`snapshot_restore_lockstep`] — a predictor torn down and rebuilt
//!    through `save_state`/`restore_state` at random cut points must stay
//!    in lockstep with one that was never snapshotted.
//!
//! Every failure is a [`Divergence`] naming the oracle, the master seed, the
//! case index (whose [`crate::XorShift64::fork`] rebuilds the exact stream)
//! and the first trace index where the pair disagreed, plus a state dump of
//! both sides.

use crate::gen::{alias_free_point, paper_point, random_stream};
use crate::rng::XorShift64;
use ntp_core::{
    evaluate, evaluate_batch_fresh, evaluate_with_streaks, NextTracePredictor, PredictorConfig,
    PredictorStats, TracePredictor, UnboundedPredictor,
};
use ntp_engine::{DelayedUpdateEngine, EngineConfig};
use ntp_runner::map_ordered_with;
use std::fmt;

/// One observed disagreement between implementations that must agree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Which oracle caught it.
    pub oracle: &'static str,
    /// The master seed of the run.
    pub seed: u64,
    /// The case index within the oracle (`XorShift64::new(seed).fork(case)`
    /// regenerates the stream and configuration).
    pub case: usize,
    /// First trace index at which the implementations disagreed, when the
    /// oracle compares per-prediction (or per-shard).
    pub index: Option<u64>,
    /// The configuration under test, rendered for the report.
    pub config: String,
    /// State dump: what each side said.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] seed {:#x} case {}: divergence",
            self.oracle, self.seed, self.case
        )?;
        if let Some(i) = self.index {
            write!(f, " at index {i}")?;
        }
        write!(f, "\n  config: {}\n  detail: {}", self.config, self.detail)
    }
}

/// Aggregated result of running one oracle over many generated cases.
#[derive(Clone, Debug)]
pub struct OracleOutcome {
    /// Oracle name (stable, used in reports and the CLI).
    pub name: &'static str,
    /// Generated cases replayed.
    pub cases: usize,
    /// Individual comparisons performed (predictions, stats triples, or
    /// shard vectors).
    pub comparisons: u64,
    /// Disagreements found (empty on a healthy stack).
    pub divergences: Vec<Divergence>,
}

impl OracleOutcome {
    /// True when every comparison agreed.
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

impl fmt::Display for OracleOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} {:>4} cases  {:>9} comparisons  {}",
            self.name,
            self.cases,
            self.comparisons,
            if self.is_clean() {
                "ok".to_string()
            } else {
                format!("{} DIVERGENCES", self.divergences.len())
            }
        )
    }
}

/// Oracle 1: the bounded predictor must track the unbounded model exactly
/// on alias-free streams (see [`crate::AliasFreePoint`] for the argument
/// that any disagreement is a bug, not table pressure).
pub fn bounded_vs_unbounded(seed: u64, cases: usize) -> OracleOutcome {
    const NAME: &str = "bounded-vs-unbounded";
    let master = XorShift64::new(seed ^ 0xB0DD_ED00);
    let mut comparisons = 0u64;
    let mut divergences = Vec::new();

    for case in 0..cases {
        let mut rng = master.fork(case as u64);
        let point = alias_free_point(&mut rng);
        let stream_len = rng.range(400, 1200) as usize;
        let stream = point.stream(&mut rng, stream_len);
        let mut bounded =
            NextTracePredictor::try_new(point.cfg).expect("generated bounded config is valid");
        let mut unbounded =
            UnboundedPredictor::try_new(point.ucfg).expect("generated unbounded config is valid");

        for (i, r) in stream.iter().enumerate() {
            let pb = bounded.predict();
            let pu = unbounded.predict();
            comparisons += 1;
            if pb != pu {
                divergences.push(Divergence {
                    oracle: NAME,
                    seed,
                    case,
                    index: Some(i as u64),
                    config: format!(
                        "{:?} / alphabet {} ids, code_bits {}",
                        point.cfg,
                        point.alphabet.len(),
                        point.code_bits
                    ),
                    detail: format!(
                        "actual next {}; bounded said {:?}, unbounded said {:?}; \
                         history depth {} vs {}",
                        r.id(),
                        pb,
                        pu,
                        bounded.history_len(),
                        unbounded.history_len(),
                    ),
                });
                break; // first divergence per case is enough
            }
            bounded.update(r);
            unbounded.update(r);
        }
    }
    OracleOutcome {
        name: NAME,
        cases,
        comparisons,
        divergences,
    }
}

/// Shared helper: binary-search the shortest stream prefix on which a
/// predicate flips from agree to disagree, assuming monotonicity (a
/// divergence never un-happens when the prefix grows). Returns the 1-based
/// length of the first disagreeing prefix.
fn first_divergent_prefix(n: usize, agrees_on: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n); // agrees_on(lo) true, agrees_on(hi) false
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if agrees_on(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

/// Oracle 2: `evaluate`, `evaluate_with_streaks` and the
/// delayed-update engine at a latency-free operating point (issue width and
/// window at least one full trace, so every trace trains before the next
/// prediction) must produce identical statistics.
pub fn evaluate_equivalence(seed: u64, cases: usize) -> OracleOutcome {
    const NAME: &str = "evaluate-equivalence";
    let master = XorShift64::new(seed ^ 0x0E7A_15E5);
    let mut comparisons = 0u64;
    let mut divergences = Vec::new();

    for case in 0..cases {
        let mut rng = master.fork(case as u64);
        let (index_bits, depth) = paper_point(&mut rng);
        let cfg = PredictorConfig::try_paper(index_bits, depth)
            .expect("paper points are valid by construction");
        let ecfg = EngineConfig {
            issue_width: rng.range(16, 64) as u32,
            window: rng.range(16, 128) as u32,
            mispredict_penalty: rng.range(0, 8) as u32,
        };
        let stream_len = rng.range(500, 1500) as usize;
        let stream = random_stream(&mut rng, stream_len);

        let run_eval = |records: &[ntp_trace::TraceRecord]| -> PredictorStats {
            evaluate(&mut NextTracePredictor::new(cfg), records)
        };
        let run_streaks = |records: &[ntp_trace::TraceRecord]| -> PredictorStats {
            evaluate_with_streaks(&mut NextTracePredictor::new(cfg), records).0
        };
        let run_engine = |records: &[ntp_trace::TraceRecord]| -> PredictorStats {
            DelayedUpdateEngine::new(NextTracePredictor::new(cfg), ecfg)
                .run(records)
                .prediction
        };

        let base = run_eval(&stream);
        comparisons += 2;
        for (other_name, runner) in [
            ("evaluate_with_streaks", &run_streaks as &dyn Fn(&[_]) -> _),
            ("delayed-update engine", &run_engine),
        ] {
            let other = runner(&stream);
            if other != base {
                let first = first_divergent_prefix(stream.len(), |k| {
                    runner(&stream[..k]) == run_eval(&stream[..k])
                });
                divergences.push(Divergence {
                    oracle: NAME,
                    seed,
                    case,
                    index: Some(first.saturating_sub(1) as u64),
                    config: format!("{cfg:?} engine {ecfg:?}"),
                    detail: format!(
                        "evaluate said {base:?}; {other_name} said {other:?} \
                         (first divergent prefix: {first} traces)"
                    ),
                });
            }
        }
    }
    OracleOutcome {
        name: NAME,
        cases,
        comparisons,
        divergences,
    }
}

/// Oracle 3: sharded replay through the worker pool must return exactly the
/// serial result vector at every thread count (the ordered-merge contract
/// of `ntp_runner::map_ordered_with`).
pub fn runner_determinism(seed: u64, cases: usize) -> OracleOutcome {
    const NAME: &str = "runner-determinism";
    let master = XorShift64::new(seed ^ 0x5EED_2EED);
    let mut comparisons = 0u64;
    let mut divergences = Vec::new();

    for case in 0..cases {
        let mut rng = master.fork(case as u64);
        let (index_bits, depth) = paper_point(&mut rng);
        let cfg = PredictorConfig::try_paper(index_bits, depth)
            .expect("paper points are valid by construction");
        let stream_len = rng.range(600, 1600) as usize;
        let stream = random_stream(&mut rng, stream_len);
        let shards = rng.range(2, 9) as usize;
        let chunk = stream.len().div_ceil(shards);
        let chunks: Vec<&[ntp_trace::TraceRecord]> = stream.chunks(chunk).collect();

        let job = |_i: usize, records: &&[ntp_trace::TraceRecord]| -> PredictorStats {
            evaluate(&mut NextTracePredictor::new(cfg), records)
        };
        let serial = map_ordered_with(1, &chunks, job);
        for threads in [2usize, 8] {
            let parallel = map_ordered_with(threads, &chunks, job);
            comparisons += 1;
            if parallel != serial {
                let first = serial
                    .iter()
                    .zip(&parallel)
                    .position(|(a, b)| a != b)
                    .unwrap_or(serial.len().min(parallel.len()));
                divergences.push(Divergence {
                    oracle: NAME,
                    seed,
                    case,
                    index: Some(first as u64),
                    config: format!("{cfg:?} shards {shards} threads {threads}"),
                    detail: format!(
                        "shard {first}: serial {:?} vs parallel {:?}",
                        serial.get(first),
                        parallel.get(first)
                    ),
                });
            }
        }
    }
    OracleOutcome {
        name: NAME,
        cases,
        comparisons,
        divergences,
    }
}

/// Oracle 4: the batched paths must be bit-identical to the scalar
/// replay. `evaluate_batch_fresh` over ragged lanes is compared with
/// per-lane `evaluate` (every [`PredictorStats`] field). Then each lane is
/// replayed twice in lockstep: one predictor gets the shard drain's
/// `prefetch_tables` hint before every predict and update, the other gets
/// none; every per-step [`ntp_core::Prediction`] and the final aliasing
/// counters, occupancy and cached table indexes must match. The hint only
/// overlaps table gathers; any observable difference is a bug.
pub fn batch_vs_scalar(seed: u64, cases: usize) -> OracleOutcome {
    const NAME: &str = "batch-vs-scalar";
    let master = XorShift64::new(seed ^ 0xBA7C_4ED0);
    let mut comparisons = 0u64;
    let mut divergences = Vec::new();

    for case in 0..cases {
        let mut rng = master.fork(case as u64);
        let lanes_n = rng.range(2, 7) as usize;
        let mut cfgs = Vec::with_capacity(lanes_n);
        let mut streams = Vec::with_capacity(lanes_n);
        for _ in 0..lanes_n {
            let (index_bits, depth) = paper_point(&mut rng);
            cfgs.push(
                PredictorConfig::try_paper(index_bits, depth)
                    .expect("paper points are valid by construction"),
            );
            let len = rng.range(200, 800) as usize;
            streams.push(random_stream(&mut rng, len));
        }
        let mut diverge = |index: Option<u64>, detail: String| {
            divergences.push(Divergence {
                oracle: NAME,
                seed,
                case,
                index,
                config: format!("{lanes_n} lanes: {cfgs:?}"),
                detail,
            });
        };

        // Whole-replay comparison over ragged lanes.
        let views: Vec<&[ntp_trace::TraceRecord]> = streams.iter().map(Vec::as_slice).collect();
        let batch_stats = evaluate_batch_fresh(&views, |k| NextTracePredictor::new(cfgs[k]));
        comparisons += lanes_n as u64;
        for (k, (b, s)) in batch_stats.iter().zip(&streams).enumerate() {
            let want = evaluate(&mut NextTracePredictor::new(cfgs[k]), s);
            if *b != want {
                diverge(
                    None,
                    format!("lane {k} stats: batch {b:?} vs scalar {want:?}"),
                );
            }
        }

        // Lockstep comparison: every per-step Prediction of each lane, with
        // and without the prefetch hint, then the final table state.
        'lane: for (k, s) in streams.iter().enumerate() {
            let mut hinted = NextTracePredictor::new(cfgs[k]);
            let mut plain = NextTracePredictor::new(cfgs[k]);
            for (step, r) in s.iter().enumerate() {
                hinted.prefetch_tables();
                let got = hinted.predict();
                let want = plain.predict();
                comparisons += 1;
                if got != want {
                    diverge(
                        Some(step as u64),
                        format!("lane {k}: hinted {got:?} vs plain {want:?}"),
                    );
                    continue 'lane;
                }
                hinted.prefetch_tables();
                hinted.update(r);
                plain.update(r);
            }
            comparisons += 1;
            if hinted.aliasing() != plain.aliasing()
                || hinted.occupancy() != plain.occupancy()
                || hinted.indices() != plain.indices()
            {
                diverge(
                    None,
                    format!(
                        "lane {k} final state: hinted aliasing {:?} occupancy {:?} indices {:?} \
                         vs plain {:?} / {:?} / {:?}",
                        hinted.aliasing(),
                        hinted.occupancy(),
                        hinted.indices(),
                        plain.aliasing(),
                        plain.occupancy(),
                        plain.indices()
                    ),
                );
            }
        }
    }
    OracleOutcome {
        name: NAME,
        cases,
        comparisons,
        divergences,
    }
}

/// Oracle 5: snapshot/restore must be invisible. One predictor replays the
/// stream untouched; a second is torn down at random cut points —
/// `save_state`, rebuild a fresh predictor from the same configuration,
/// `restore_state` — and both must emit bit-identical predictions at every
/// step and end with identical aliasing counters, occupancy and cached
/// table indexes. This is the in-memory core of the `.nts` warm-start
/// contract (SERVING.md): if this oracle is clean, any served/offline
/// divergence after a warm start must live in the codec or the serve
/// layer, not in the state capture itself.
pub fn snapshot_restore_lockstep(seed: u64, cases: usize) -> OracleOutcome {
    const NAME: &str = "snapshot-lockstep";
    let master = XorShift64::new(seed ^ 0x5AF3_57A7);
    let mut comparisons = 0u64;
    let mut divergences = Vec::new();

    for case in 0..cases {
        let mut rng = master.fork(case as u64);
        let (index_bits, depth) = paper_point(&mut rng);
        let cfg = PredictorConfig::try_paper(index_bits, depth)
            .expect("paper points are valid by construction");
        let stream_len = rng.range(400, 1200) as usize;
        let stream = random_stream(&mut rng, stream_len);
        let cuts = rng.range(1, 6) as usize;
        let cut_points: Vec<usize> = (0..cuts)
            .map(|_| rng.range(0, stream_len as u64) as usize)
            .collect();

        let mut baseline = NextTracePredictor::new(cfg);
        let mut cycled = NextTracePredictor::new(cfg);
        for (i, r) in stream.iter().enumerate() {
            if cut_points.contains(&i) {
                let state = cycled.save_state();
                let mut rebuilt =
                    NextTracePredictor::try_new(cfg).expect("config already validated");
                rebuilt
                    .restore_state(&state)
                    .expect("a saved state always fits the config it came from");
                cycled = rebuilt;
            }
            let pb = baseline.predict();
            let pc = cycled.predict();
            comparisons += 1;
            if pb != pc {
                divergences.push(Divergence {
                    oracle: NAME,
                    seed,
                    case,
                    index: Some(i as u64),
                    config: format!("{cfg:?} cuts {cut_points:?}"),
                    detail: format!("baseline said {pb:?}, snapshot-cycled said {pc:?}"),
                });
                break;
            }
            baseline.update(r);
            cycled.update(r);
        }
        comparisons += 1;
        if baseline.aliasing() != cycled.aliasing()
            || baseline.occupancy() != cycled.occupancy()
            || baseline.indices() != cycled.indices()
        {
            divergences.push(Divergence {
                oracle: NAME,
                seed,
                case,
                index: None,
                config: format!("{cfg:?} cuts {cut_points:?}"),
                detail: format!(
                    "final state: baseline aliasing {:?} occupancy {:?} indices {:?} \
                     vs cycled {:?} / {:?} / {:?}",
                    baseline.aliasing(),
                    baseline.occupancy(),
                    baseline.indices(),
                    cycled.aliasing(),
                    cycled.occupancy(),
                    cycled.indices()
                ),
            });
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
    fn all_oracles_are_clean_on_a_small_sweep() {
        for o in [
            bounded_vs_unbounded(0xC0FFEE, 8),
            evaluate_equivalence(0xC0FFEE, 8),
            runner_determinism(0xC0FFEE, 4),
            batch_vs_scalar(0xC0FFEE, 6),
            snapshot_restore_lockstep(0xC0FFEE, 8),
        ] {
            assert!(o.is_clean(), "{o}\n{:#?}", o.divergences);
            assert!(o.comparisons > 0);
        }
    }

    #[test]
    fn prefix_bisection_finds_the_flip() {
        // Predicate agrees on prefixes < 137, disagrees from 137 on.
        assert_eq!(first_divergent_prefix(1000, |k| k < 137), 137);
        assert_eq!(first_divergent_prefix(10, |_| false), 1);
    }

    #[test]
    fn divergence_report_names_everything() {
        let d = Divergence {
            oracle: "bounded-vs-unbounded",
            seed: 0xC0FFEE,
            case: 17,
            index: Some(342),
            config: "cfg".into(),
            detail: "a vs b".into(),
        };
        let s = d.to_string();
        for needle in ["0xc0ffee", "case 17", "index 342", "a vs b"] {
            assert!(s.contains(needle), "missing {needle} in {s}");
        }
    }
}
