//! Accuracy accounting and the replay evaluation driver.

use crate::{Prediction, Source, TracePredictor};
use ntp_trace::TraceRecord;
use std::fmt;

/// Number of counters in [`PredictorStats`] (the length of its
/// [`PredictorStats::to_array`] encoding).
pub const PREDICTOR_STATS_FIELDS: usize = 8;

/// Accuracy statistics accumulated over a replayed trace stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Predictions made (one per trace after the first).
    pub predictions: u64,
    /// Primary prediction named the actual next trace.
    pub correct: u64,
    /// Primary was wrong but the alternate (§6) was right.
    pub alternate_correct: u64,
    /// Predictions served by the correlating table.
    pub from_correlated: u64,
    /// Predictions served by the secondary table.
    pub from_secondary: u64,
    /// Cold predictions (no table had anything).
    pub cold: u64,
    /// Correct predictions served by the correlating table.
    pub correlated_correct: u64,
    /// Correct predictions served by the secondary table.
    pub secondary_correct: u64,
}

impl PredictorStats {
    /// Creates zeroed statistics.
    pub fn new() -> PredictorStats {
        PredictorStats::default()
    }

    /// Scores one prediction against the actual trace.
    #[inline]
    pub fn score(&mut self, pred: &Prediction, actual: &TraceRecord) {
        self.predictions += 1;
        let id = actual.id();
        let hit = pred.is_correct(id);
        if hit {
            self.correct += 1;
        } else if pred.alternate_correct(id) {
            self.alternate_correct += 1;
        }
        match pred.source {
            Source::Correlated => {
                self.from_correlated += 1;
                if hit {
                    self.correlated_correct += 1;
                }
            }
            Source::Secondary => {
                self.from_secondary += 1;
                if hit {
                    self.secondary_correct += 1;
                }
            }
            Source::Cold => self.cold += 1,
        }
    }

    /// Primary misprediction rate in percent (the paper's headline metric).
    pub fn mispredict_pct(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            100.0 * (self.predictions - self.correct) as f64 / self.predictions as f64
        }
    }

    /// Rate at which *both* primary and alternate missed, in percent
    /// (Figure 8's second series).
    pub fn both_mispredict_pct(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            100.0 * (self.predictions - self.correct - self.alternate_correct) as f64
                / self.predictions as f64
        }
    }

    /// Fraction of mispredictions rescued by the alternate.
    pub fn alternate_rescue_fraction(&self) -> f64 {
        let miss = self.predictions - self.correct;
        if miss == 0 {
            0.0
        } else {
            self.alternate_correct as f64 / miss as f64
        }
    }

    /// The plain-array form, field-for-field in declaration order — the
    /// stable encoding wire protocols (`ntp-serve`'s `StatsOk` frame) and
    /// other codecs use. [`PredictorStats::from_array`] inverts it.
    pub fn to_array(&self) -> [u64; PREDICTOR_STATS_FIELDS] {
        [
            self.predictions,
            self.correct,
            self.alternate_correct,
            self.from_correlated,
            self.from_secondary,
            self.cold,
            self.correlated_correct,
            self.secondary_correct,
        ]
    }

    /// Rebuilds statistics from their [`PredictorStats::to_array`] form.
    pub fn from_array(a: [u64; PREDICTOR_STATS_FIELDS]) -> PredictorStats {
        PredictorStats {
            predictions: a[0],
            correct: a[1],
            alternate_correct: a[2],
            from_correlated: a[3],
            from_secondary: a[4],
            cold: a[5],
            correlated_correct: a[6],
            secondary_correct: a[7],
        }
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &PredictorStats) {
        self.predictions += other.predictions;
        self.correct += other.correct;
        self.alternate_correct += other.alternate_correct;
        self.from_correlated += other.from_correlated;
        self.from_secondary += other.from_secondary;
        self.cold += other.cold;
        self.correlated_correct += other.correlated_correct;
        self.secondary_correct += other.secondary_correct;
    }
}

impl fmt::Display for PredictorStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} predictions, {:.2}% mispredict (corr {}, sec {}, cold {})",
            self.predictions,
            self.mispredict_pct(),
            self.from_correlated,
            self.from_secondary,
            self.cold
        )
    }
}

/// Replays a recorded trace stream through a predictor with immediate
/// updates (the methodology of §4.1) and returns accuracy statistics.
///
/// # Examples
///
/// ```
/// use ntp_core::{evaluate, NextTracePredictor, PredictorConfig};
/// use ntp_trace::{TraceId, TraceRecord};
///
/// let records: Vec<TraceRecord> = (0..100)
///     .map(|k| TraceRecord::new(TraceId::new(0x0040_0000 + (k % 4) * 64, 0, 0), 16, 0, false, false))
///     .collect();
/// let mut p = NextTracePredictor::new(PredictorConfig::paper(12, 3));
/// let stats = evaluate(&mut p, &records);
/// assert!(stats.mispredict_pct() < 20.0, "a 4-cycle is easy: {stats}");
/// ```
pub fn evaluate<P: TracePredictor + ?Sized>(
    predictor: &mut P,
    records: &[TraceRecord],
) -> PredictorStats {
    let mut stats = PredictorStats::new();
    for r in records {
        let pred = predictor.predict();
        stats.score(&pred, r);
        predictor.update(r);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Target;
    use ntp_trace::TraceId;

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 8, 0, false, false)
    }

    #[test]
    fn score_buckets_by_source() {
        let mut s = PredictorStats::new();
        let actual = rec(0x0040_0000);
        let hit = Prediction {
            target: Some(Target::Full(actual.id())),
            alternate: None,
            source: Source::Correlated,
        };
        let miss_with_alt = Prediction {
            target: Some(Target::Full(rec(0x0041_0000).id())),
            alternate: Some(Target::Full(actual.id())),
            source: Source::Secondary,
        };
        s.score(&hit, &actual);
        s.score(&miss_with_alt, &actual);
        s.score(&Prediction::cold(), &actual);
        assert_eq!(s.predictions, 3);
        assert_eq!(s.correct, 1);
        assert_eq!(s.alternate_correct, 1);
        assert_eq!(s.cold, 1);
        assert!((s.mispredict_pct() - 66.666).abs() < 0.1);
        assert!((s.both_mispredict_pct() - 33.333).abs() < 0.1);
        assert!((s.alternate_rescue_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = PredictorStats {
            predictions: 10,
            correct: 9,
            ..PredictorStats::new()
        };
        let b = PredictorStats {
            predictions: 10,
            correct: 1,
            ..PredictorStats::new()
        };
        a.merge(&b);
        assert_eq!(a.predictions, 20);
        assert!((a.mispredict_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn array_roundtrip_covers_every_field() {
        let s = PredictorStats {
            predictions: 1,
            correct: 2,
            alternate_correct: 3,
            from_correlated: 4,
            from_secondary: 5,
            cold: 6,
            correlated_correct: 7,
            secondary_correct: 8,
        };
        let a = s.to_array();
        assert_eq!(a, [1, 2, 3, 4, 5, 6, 7, 8], "declaration order");
        assert_eq!(PredictorStats::from_array(a), s);
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = PredictorStats::new();
        assert_eq!(s.mispredict_pct(), 0.0);
        assert_eq!(s.both_mispredict_pct(), 0.0);
        assert_eq!(s.alternate_rescue_fraction(), 0.0);
    }

    #[test]
    fn merge_preserves_alternate_accounting() {
        // Shard A: 4 predictions, 1 primary hit, 2 alternate rescues.
        let a0 = PredictorStats {
            predictions: 4,
            correct: 1,
            alternate_correct: 2,
            from_correlated: 3,
            cold: 1,
            correlated_correct: 1,
            ..PredictorStats::new()
        };
        // Shard B: 6 predictions, 3 primary hits, 1 alternate rescue.
        let b = PredictorStats {
            predictions: 6,
            correct: 3,
            alternate_correct: 1,
            from_secondary: 6,
            secondary_correct: 3,
            ..PredictorStats::new()
        };
        let mut a = a0.clone();
        a.merge(&b);
        assert_eq!(a.alternate_correct, 3);
        assert_eq!(a.from_correlated, 3);
        assert_eq!(a.from_secondary, 6);
        assert_eq!(a.correlated_correct, 1);
        assert_eq!(a.secondary_correct, 3);
        // 10 predictions, 4 correct, 3 alternate rescues.
        assert!((a.mispredict_pct() - 60.0).abs() < 1e-9);
        assert!((a.both_mispredict_pct() - 30.0).abs() < 1e-9);
        assert!((a.alternate_rescue_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let full = PredictorStats {
            predictions: 7,
            correct: 2,
            alternate_correct: 1,
            from_correlated: 4,
            from_secondary: 2,
            cold: 1,
            correlated_correct: 1,
            secondary_correct: 1,
        };
        // empty.merge(full) == full (and the zero-prediction guard held
        // before the merge).
        let mut acc = PredictorStats::new();
        assert_eq!(acc.mispredict_pct(), 0.0, "guard before merging");
        acc.merge(&full);
        assert_eq!(acc, full);
        // full.merge(empty) == full.
        let mut again = full.clone();
        again.merge(&PredictorStats::new());
        assert_eq!(again, full);
    }

    #[test]
    fn sharded_merge_equals_single_accumulator() {
        // Scoring in two shards then merging must equal one accumulator —
        // the contract the engine's per-shard registries rely on.
        let actual = rec(0x0040_0000);
        let other = rec(0x0041_0000);
        let preds = [
            Prediction {
                target: Some(Target::Full(actual.id())),
                alternate: None,
                source: Source::Correlated,
            },
            Prediction {
                target: Some(Target::Full(other.id())),
                alternate: Some(Target::Full(actual.id())),
                source: Source::Secondary,
            },
            Prediction::cold(),
            Prediction {
                target: Some(Target::Full(other.id())),
                alternate: Some(Target::Full(other.id())),
                source: Source::Correlated,
            },
        ];
        let mut whole = PredictorStats::new();
        for p in &preds {
            whole.score(p, &actual);
        }
        let mut left = PredictorStats::new();
        let mut right = PredictorStats::new();
        for p in &preds[..2] {
            left.score(p, &actual);
        }
        for p in &preds[2..] {
            right.score(p, &actual);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }
}
