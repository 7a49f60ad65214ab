//! Sweeps over many independent predictor sessions.
//!
//! The predict/update step is table-lookup dominated: each probe reads one
//! entry word from each of two tables, and the correlating table can be
//! far larger than L1/L2, so a step can stall on a cache miss. When many
//! *independent* sessions each take one step, their probes don't depend on
//! each other, and [`predict_batch`]/[`update_batch`] overlap the misses: a
//! gathered probe pass ([`NextTracePredictor::prefetch_tables`], two
//! prefetch hints per lane) runs before any lane resolves, then each lane
//! predicts or trains exactly as the scalar path would. `ntp-serve`'s shard
//! drain runs the same gathered pass over the sessions it has queued.
//!
//! The offline replay has no gathered probe. [`evaluate_batch`] replays its
//! lanes back to back, each through [`evaluate`]. Interleaving them one
//! record per round kept every lane's tables live at once (three 2 MiB
//! tables at 2^18 entries in perfbench's `offline-sweep`), and on a 2-core
//! x86_64 host that ran slower than the scalar loop: `core.batch_speedup`
//! read 0.85–0.89, against 0.99–1.00 back to back.
//!
//! Every sweep calls the same `predict`/`update` the scalar API uses, and
//! each lane's own records are processed strictly in order, so results are
//! bit-identical to the scalar loop — enforced field-for-field by
//! `ntp-verify`'s batch-equivalence oracle and by the tests below.

use crate::{evaluate, NextTracePredictor, Prediction, PredictorStats, TracePredictor};
use ntp_trace::TraceRecord;

/// One independent replay lane for [`evaluate_batch`]: a predictor session
/// and the record stream it replays. Lanes may have different lengths and
/// different configurations.
pub struct BatchLane<'a> {
    /// The session's predictor.
    pub predictor: &'a mut NextTracePredictor,
    /// The records this lane replays, in order.
    pub records: &'a [TraceRecord],
}

impl<'a> BatchLane<'a> {
    /// Pairs a predictor with its record stream.
    pub fn new(predictor: &'a mut NextTracePredictor, records: &'a [TraceRecord]) -> BatchLane<'a> {
        BatchLane { predictor, records }
    }
}

/// Predicts for many independent sessions in one gathered sweep.
///
/// Equivalent to calling [`TracePredictor::predict`] on each predictor in
/// order — the sweep only overlaps the table gathers, it never changes any
/// result.
pub fn predict_batch(predictors: &[&NextTracePredictor]) -> Vec<Prediction> {
    for p in predictors {
        p.prefetch_tables();
    }
    predictors.iter().map(|p| p.predict()).collect()
}

/// Trains many independent sessions, one record each, in one gathered
/// sweep. Equivalent to calling [`TracePredictor::update`] pairwise in
/// order.
pub fn update_batch(lanes: &mut [(&mut NextTracePredictor, &TraceRecord)]) {
    for (p, _) in lanes.iter() {
        p.prefetch_tables();
    }
    for (p, r) in lanes.iter_mut() {
        p.update(r);
    }
}

/// Replays every lane to completion, back to back, returning each lane's
/// [`PredictorStats`].
///
/// Each lane runs [`evaluate`] over its own records, so the returned stats
/// (and the predictors' final table state, aliasing counters and
/// histories) are those of calling it once per lane.
pub fn evaluate_batch(lanes: &mut [BatchLane<'_>]) -> Vec<PredictorStats> {
    lanes
        .iter_mut()
        .map(|l| evaluate(l.predictor, l.records))
        .collect()
}

/// Convenience for benchmark passes: replays each of `streams` through a
/// fresh predictor that `make_predictor` builds (given the lane's index)
/// when that lane starts, so one lane's tables are live at a time.
pub fn evaluate_batch_fresh<F>(
    streams: &[&[TraceRecord]],
    mut make_predictor: F,
) -> Vec<PredictorStats>
where
    F: FnMut(usize) -> NextTracePredictor,
{
    streams
        .iter()
        .enumerate()
        .map(|(k, s)| evaluate(&mut make_predictor(k), s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorConfig;
    use ntp_trace::{TraceId, TraceRecord};

    fn stream(seed: u64, len: usize) -> Vec<TraceRecord> {
        // Deterministic LCG stream with loops, calls and returns.
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (x >> 33) as u32;
                let pc = 0x0040_0000 + (r % 499) * 0x20;
                let calls = ((r >> 11) & 3) as u8 % 3;
                let ret = (r >> 13) & 7 == 0;
                TraceRecord::new(
                    TraceId::new(pc, (r >> 17) as u8 & 0b11, 2),
                    8,
                    calls,
                    ret,
                    ret,
                )
            })
            .collect()
    }

    #[test]
    fn batch_matches_scalar_on_ragged_lanes() {
        let streams: Vec<Vec<TraceRecord>> = (0..5)
            .map(|k| stream(k + 1, 200 + 37 * k as usize))
            .collect();
        let cfg = |k: usize| {
            if k.is_multiple_of(2) {
                PredictorConfig::paper(12, 3)
            } else {
                PredictorConfig {
                    secondary_index_bits: 8,
                    ..PredictorConfig::paper_with_alternate(12, 7)
                }
            }
        };

        let mut batch_preds: Vec<_> = (0..5).map(|k| NextTracePredictor::new(cfg(k))).collect();
        let mut lanes: Vec<BatchLane<'_>> = batch_preds
            .iter_mut()
            .zip(streams.iter())
            .map(|(p, s)| BatchLane::new(p, s))
            .collect();
        let batch_stats = evaluate_batch(&mut lanes);

        let mut serial_preds: Vec<_> = (0..5).map(|k| NextTracePredictor::new(cfg(k))).collect();
        let serial_stats: Vec<_> = serial_preds
            .iter_mut()
            .zip(streams.iter())
            .map(|(p, s)| evaluate(p, s))
            .collect();

        assert_eq!(batch_stats, serial_stats);
        for (b, s) in batch_preds.iter().zip(serial_preds.iter()) {
            assert_eq!(b.aliasing(), s.aliasing(), "aliasing counters diverge");
            assert_eq!(b.occupancy(), s.occupancy(), "occupancy diverges");
            assert_eq!(b.indices(), s.indices(), "cached indexes diverge");
            // Final per-step predictions agree too.
            assert_eq!(b.predict(), s.predict());
        }
    }

    #[test]
    fn predict_and_update_batch_match_pairwise_scalar() {
        let streams: Vec<Vec<TraceRecord>> = (0..4).map(|k| stream(10 + k, 150)).collect();
        let mut batch: Vec<_> = (0..4)
            .map(|_| NextTracePredictor::new(PredictorConfig::paper(12, 3)))
            .collect();
        let mut scalar: Vec<_> = (0..4)
            .map(|_| NextTracePredictor::new(PredictorConfig::paper(12, 3)))
            .collect();

        for step in 0..150 {
            let preds = predict_batch(&batch.iter().collect::<Vec<_>>());
            for (k, s) in scalar.iter().enumerate() {
                assert_eq!(preds[k], s.predict(), "step {step} lane {k}");
            }
            let recs: Vec<&TraceRecord> = streams.iter().map(|s| &s[step]).collect();
            let mut lanes: Vec<(&mut NextTracePredictor, &TraceRecord)> =
                batch.iter_mut().zip(recs.iter().copied()).collect();
            update_batch(&mut lanes);
            for (s, r) in scalar.iter_mut().zip(recs.iter()) {
                s.update(r);
            }
        }
        for (b, s) in batch.iter().zip(scalar.iter()) {
            assert_eq!(b.aliasing(), s.aliasing());
            assert_eq!(b.occupancy(), s.occupancy());
        }
    }

    #[test]
    fn evaluate_batch_fresh_matches_evaluate() {
        let a = stream(42, 300);
        let b = stream(43, 120);
        let got = evaluate_batch_fresh(&[&a, &b], |_| {
            NextTracePredictor::new(PredictorConfig::paper(12, 3))
        });
        let want: Vec<_> = [&a, &b]
            .into_iter()
            .map(|s| {
                let mut p = NextTracePredictor::new(PredictorConfig::paper(12, 3));
                evaluate(&mut p, s)
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn empty_batches_are_fine() {
        assert!(predict_batch(&[]).is_empty());
        update_batch(&mut []);
        assert!(evaluate_batch(&mut []).is_empty());
        // A lane with no records contributes zeroed stats.
        let mut p = NextTracePredictor::new(PredictorConfig::paper(12, 3));
        let mut lanes = [BatchLane::new(&mut p, &[])];
        let stats = evaluate_batch(&mut lanes);
        assert_eq!(stats[0], PredictorStats::new());
    }
}
