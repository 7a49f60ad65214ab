//! Property-style equivalence tests for the replay pipeline (no proptest
//! dependency: LCG-driven randomized streams, fixed seeds).
//!
//! Two families of invariants:
//!
//! * the instrumented replay ([`ntp::core::evaluate_with_streaks`]) must
//!   produce exactly the same [`ntp::core::PredictorStats`] as the plain
//!   replay ([`ntp::core::evaluate`]) — telemetry must never perturb the
//!   experiment — and exactly the misprediction streaks a hand-written
//!   loop counts;
//! * the parallel runner's ordered merge must equal the serial map at any
//!   thread count — parallelism must never perturb the output.

use ntp::core::{
    evaluate, evaluate_with_streaks, NextTracePredictor, PredictorConfig, TracePredictor,
    UnboundedConfig, UnboundedPredictor,
};
use ntp::runner::map_ordered_with;
use ntp::telemetry::Histogram;
use ntp::trace::{TraceId, TraceRecord};

/// Deterministic 64-bit LCG (Knuth MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
}

/// A randomized trace stream shaped like real capture output: a few dozen
/// static traces revisited with skewed frequencies, occasional calls and
/// returns, trace lengths 1..=16.
fn arb_stream(seed: u64, n: usize) -> Vec<TraceRecord> {
    let mut rng = Lcg(seed);
    // A small static working set so the predictor sees repeats.
    let statics: Vec<TraceId> = (0..48)
        .map(|_| {
            let r = rng.next();
            TraceId::new(
                0x0040_0000 + ((r as u32) % 0x4000) * 4,
                (r >> 32) as u8 & 0x3f,
                ((r >> 40) % 7) as u8,
            )
        })
        .collect();
    (0..n)
        .map(|_| {
            let r = rng.next();
            // Zipf-ish skew: favour low indices.
            let k = ((r % 48) * (r >> 8) % 48 / 7) as usize % statics.len();
            let len = 1 + ((r >> 16) % 16) as u8;
            let calls = ((r >> 24) % 3) as u8;
            let ret = (r >> 28) & 0b11 == 0;
            let ind = (r >> 31) & 0b111 == 0;
            TraceRecord::new(statics[k], len, calls, ret, ind)
        })
        .collect()
}

/// The streak histogram `evaluate_with_streaks` must build: a hand-written
/// predict/update loop notes every hit or miss, and each maximal run of
/// misses between hits is one streak.
fn reference_streaks(p: &mut impl TracePredictor, records: &[TraceRecord]) -> Histogram {
    let hits: Vec<bool> = records
        .iter()
        .map(|r| {
            let hit = p.predict().is_correct(r.id());
            p.update(r);
            hit
        })
        .collect();
    let mut streaks = Histogram::new();
    for run in hits.split(|&hit| hit).filter(|run| !run.is_empty()) {
        streaks.record(run.len() as u64);
    }
    streaks
}

#[test]
fn evaluate_and_evaluate_with_streaks_agree_exactly() {
    // Sweep seeds × configurations; instrumented and plain replay must
    // produce identical statistics in every case.
    for seed in [1u64, 0xdead_beef, 42, 7_777_777] {
        let records = arb_stream(seed, 4_000);
        let configs = [
            PredictorConfig::paper(12, 0),
            PredictorConfig::paper(15, 3),
            PredictorConfig::paper(15, 7),
            PredictorConfig::paper_with_alternate(15, 7),
        ];
        for cfg in configs {
            let mut a = NextTracePredictor::new(cfg);
            let mut b = NextTracePredictor::new(cfg);
            let plain = evaluate(&mut a, &records);
            let (instrumented, streaks) = evaluate_with_streaks(&mut b, &records);
            assert_eq!(
                plain, instrumented,
                "telemetry perturbed replay (seed {seed}, cfg {cfg:?})"
            );
            let want = reference_streaks(&mut NextTracePredictor::new(cfg), &records);
            assert_eq!(streaks, want, "streaks (seed {seed}, cfg {cfg:?})");
        }
        // The unbounded model goes through the same generic path.
        let unbounded = || UnboundedPredictor::new(UnboundedConfig::paper(7));
        let plain = evaluate(&mut unbounded(), &records);
        let (instrumented, streaks) = evaluate_with_streaks(&mut unbounded(), &records);
        assert_eq!(plain, instrumented, "unbounded (seed {seed})");
        let want = reference_streaks(&mut unbounded(), &records);
        assert_eq!(streaks, want, "unbounded streaks (seed {seed})");
    }
}

#[test]
fn instrumented_replay_leaves_predictor_in_identical_state() {
    // Beyond equal stats: both replays must leave the *predictor* able to
    // make the same next prediction (same tables, same history).
    let records = arb_stream(99, 3_000);
    let cfg = PredictorConfig::paper(15, 7);
    let mut a = NextTracePredictor::new(cfg);
    let mut b = NextTracePredictor::new(cfg);
    let _ = evaluate(&mut a, &records);
    let _ = evaluate_with_streaks(&mut b, &records);
    assert_eq!(a.indices(), b.indices(), "index state diverged");
    assert_eq!(
        a.predict().target,
        b.predict().target,
        "next prediction diverged"
    );
}

#[test]
fn parallel_replay_grid_equals_serial_at_1_2_and_8_threads() {
    // The bench fan-out in miniature: a (stream × depth) replay grid,
    // mapped serially and through the pool at several widths. The ordered
    // merge must reproduce the serial result vector exactly.
    let streams: Vec<Vec<TraceRecord>> = (0..4).map(|s| arb_stream(1000 + s, 2_000)).collect();
    let jobs: Vec<(usize, usize)> = (0..streams.len())
        .flat_map(|s| (0..=3).map(move |depth| (s, depth * 2)))
        .collect();
    let run = |&(s, depth): &(usize, usize)| {
        let mut p = NextTracePredictor::new(PredictorConfig::paper(12, depth));
        let stats = evaluate(&mut p, &streams[s]);
        (stats.predictions, stats.correct, stats.from_correlated)
    };
    let serial: Vec<_> = jobs.iter().map(run).collect();
    for threads in [1usize, 2, 8] {
        let got = map_ordered_with(threads, &jobs, |_, job| run(job));
        assert_eq!(got, serial, "threads={threads}");
    }
}
