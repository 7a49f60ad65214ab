//! Replays over many independent predictor sessions.
//!
//! [`evaluate_batch_fresh`] replays its lanes back to back, each through
//! [`evaluate`] with a fresh predictor, so one lane's tables are live at a
//! time. Interleaving them one record per round kept every lane's tables
//! live at once (three 2 MiB tables at 2^18 entries in perfbench's
//! `offline-sweep`), and on a 2-core x86_64 host that ran slower than the
//! scalar loop: `core.batch_speedup` read 0.85–0.89, against 0.99–1.00
//! back to back.
//!
//! Each lane's records are processed strictly in order through the scalar
//! loop, so results are bit-identical to it — enforced by `ntp-verify`'s
//! batch-vs-scalar oracle and by the tests below.

use crate::{evaluate, NextTracePredictor, PredictorStats};
use ntp_trace::TraceRecord;

/// Replays each of `streams` through a fresh predictor that
/// `make_predictor` builds (given the lane's index) when that lane starts,
/// so one lane's tables are live at a time.
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
        let fresh = |_| NextTracePredictor::new(PredictorConfig::paper(12, 3));
        assert!(evaluate_batch_fresh(&[], fresh).is_empty());
        // A lane with no records contributes zeroed stats.
        assert_eq!(evaluate_batch_fresh(&[&[]], fresh), [PredictorStats::new()]);
    }
}
