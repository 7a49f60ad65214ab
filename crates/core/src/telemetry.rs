//! Telemetry integration: JSON serialization for every stats struct in the
//! crate, plus [`evaluate_with_streaks`], the replay driver that also
//! builds a misprediction-streak histogram.
//!
//! Everything here is off the prediction hot path except
//! [`evaluate_with_streaks`], which adds one branch and a counter per
//! prediction to the [`crate::evaluate`] loop.

use crate::{
    AliasingCounters, ConfidenceStats, NextTracePredictor, PredictorConfig, PredictorStats,
    StoredTarget, TableOccupancy, TracePredictor,
};
use ntp_telemetry::{Histogram, Json, ToJson};
use ntp_trace::TraceRecord;

impl ToJson for PredictorStats {
    /// Raw counters plus the derived percentages the paper reports.
    fn to_json(&self) -> Json {
        Json::object()
            .with("predictions", Json::U64(self.predictions))
            .with("correct", Json::U64(self.correct))
            .with("alternate_correct", Json::U64(self.alternate_correct))
            .with("from_correlated", Json::U64(self.from_correlated))
            .with("from_secondary", Json::U64(self.from_secondary))
            .with("cold", Json::U64(self.cold))
            .with("correlated_correct", Json::U64(self.correlated_correct))
            .with("secondary_correct", Json::U64(self.secondary_correct))
            .with("mispredict_pct", Json::F64(self.mispredict_pct()))
            .with("both_mispredict_pct", Json::F64(self.both_mispredict_pct()))
            .with(
                "alternate_rescue_fraction",
                Json::F64(self.alternate_rescue_fraction()),
            )
    }
}

impl ToJson for PredictorConfig {
    /// The knobs that identify a configuration, plus derived costs
    /// (entry/table bits, §5.5 accounting).
    fn to_json(&self) -> Json {
        Json::object()
            .with("index_bits", Json::U64(self.index_bits as u64))
            .with("depth", Json::U64(self.dolc.depth as u64))
            .with(
                "dolc",
                Json::object()
                    .with("depth", Json::U64(self.dolc.depth as u64))
                    .with("older", Json::U64(self.dolc.older as u64))
                    .with("last", Json::U64(self.dolc.last as u64))
                    .with("current", Json::U64(self.dolc.current as u64)),
            )
            .with("tag_bits", Json::U64(self.tag_bits as u64))
            .with(
                "secondary_index_bits",
                Json::U64(self.secondary_index_bits as u64),
            )
            .with("rhs", Json::Bool(self.rhs.is_some()))
            .with("alternate", Json::Bool(self.alternate))
            .with(
                "stored_target",
                Json::Str(
                    match self.stored_target {
                        StoredTarget::Full => "full",
                        StoredTarget::Hashed => "hashed",
                    }
                    .to_string(),
                ),
            )
            .with("corr_entry_bits", Json::U64(self.corr_entry_bits()))
            .with("corr_table_bits", Json::U64(self.corr_table_bits()))
    }
}

impl ToJson for AliasingCounters {
    fn to_json(&self) -> Json {
        Json::object()
            .with("steals", Json::U64(self.steals))
            .with("cold_fills", Json::U64(self.cold_fills))
            .with("sec_fills", Json::U64(self.sec_fills))
    }
}

impl ToJson for TableOccupancy {
    /// Counts plus fill fractions for both tables.
    fn to_json(&self) -> Json {
        Json::object()
            .with("corr_valid", Json::U64(self.corr_valid))
            .with("corr_capacity", Json::U64(self.corr_capacity))
            .with("corr_fraction", Json::F64(self.corr_fraction()))
            .with("sec_valid", Json::U64(self.sec_valid))
            .with("sec_capacity", Json::U64(self.sec_capacity))
            .with("sec_fraction", Json::F64(self.sec_fraction()))
    }
}

impl ToJson for ConfidenceStats {
    fn to_json(&self) -> Json {
        Json::object()
            .with("high_correct", Json::U64(self.high_correct))
            .with("high_wrong", Json::U64(self.high_wrong))
            .with("low_correct", Json::U64(self.low_correct))
            .with("low_wrong", Json::U64(self.low_wrong))
            .with("coverage", Json::F64(self.coverage()))
            .with("high_mispredict_pct", Json::F64(self.high_mispredict_pct()))
            .with("low_mispredict_pct", Json::F64(self.low_mispredict_pct()))
            .with(
                "mispredictions_caught",
                Json::F64(self.mispredictions_caught()),
            )
            .with("prediction", self.prediction.to_json())
    }
}

/// Full predictor-side telemetry captured at end of run: accuracy, table
/// pressure and occupancy in one bundle.
pub fn predictor_section(p: &NextTracePredictor, stats: &PredictorStats) -> Json {
    Json::object()
        .with("config", p.config().to_json())
        .with("stats", stats.to_json())
        .with("aliasing", p.aliasing().to_json())
        .with("occupancy", p.occupancy().to_json())
}

/// [`crate::evaluate`] that also records each run of consecutive primary
/// mispredictions into the returned streak [`Histogram`].
///
/// # Examples
///
/// ```
/// use ntp_core::{evaluate_with_streaks, NextTracePredictor, PredictorConfig};
/// use ntp_trace::{TraceId, TraceRecord};
///
/// let records: Vec<TraceRecord> = (0..200)
///     .map(|k| TraceRecord::new(TraceId::new(0x0040_0000 + (k % 5) * 64, 0, 0), 16, 0, false, false))
///     .collect();
///
/// let mut p = NextTracePredictor::new(PredictorConfig::paper(12, 3));
/// let (stats, streaks) = evaluate_with_streaks(&mut p, &records);
/// assert_eq!(stats.predictions, 200);
/// // Every miss belongs to exactly one streak.
/// assert_eq!(streaks.sum(), stats.predictions - stats.correct);
/// ```
pub fn evaluate_with_streaks<P: TracePredictor + ?Sized>(
    predictor: &mut P,
    records: &[TraceRecord],
) -> (PredictorStats, Histogram) {
    let mut stats = PredictorStats::new();
    let mut streaks = Histogram::new();
    let mut streak: u64 = 0;
    for r in records {
        let pred = predictor.predict();
        if pred.is_correct(r.id()) {
            if streak > 0 {
                streaks.record(streak);
                streak = 0;
            }
        } else {
            streak += 1;
        }
        stats.score(&pred, r);
        predictor.update(r);
    }
    if streak > 0 {
        streaks.record(streak);
    }
    (stats, streaks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate;
    use ntp_trace::TraceId;

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 8, 0, false, false)
    }

    fn cycle(n: u32, len: usize) -> Vec<TraceRecord> {
        (0..len)
            .map(|k| rec(0x0040_0000 + (k as u32 % n) * 0x40))
            .collect()
    }

    fn small() -> NextTracePredictor {
        NextTracePredictor::new(PredictorConfig {
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 3)
        })
    }

    #[test]
    fn streaks_match_plain_evaluate() {
        let records = cycle(4, 400);
        let plain = evaluate(&mut small(), &records);
        let (with_streaks, _) = evaluate_with_streaks(&mut small(), &records);
        assert_eq!(
            plain, with_streaks,
            "instrumentation must not change scoring"
        );
    }

    #[test]
    fn streak_histogram_totals_mispredictions() {
        let records = cycle(4, 400);
        let (stats, streaks) = evaluate_with_streaks(&mut small(), &records);
        let missed = stats.predictions - stats.correct;
        assert_eq!(streaks.sum(), missed, "streak lengths sum to total misses");
        assert!(
            streaks.count() >= 1,
            "cold start yields at least one streak"
        );
    }

    #[test]
    fn predictor_section_bundles_everything() {
        let records = cycle(4, 100);
        let mut p = small();
        let stats = evaluate(&mut p, &records);
        let j = predictor_section(&p, &stats);
        for key in ["config", "stats", "aliasing", "occupancy"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            j.get("stats").and_then(|s| s.get("predictions")),
            Some(&Json::U64(100))
        );
        assert!(
            j.get("occupancy")
                .and_then(|o| o.get("corr_valid"))
                .and_then(Json::as_u64)
                .unwrap()
                > 0
        );
        // The whole bundle survives a render/parse round trip.
        let parsed = ntp_telemetry::json::parse(&j.pretty()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn config_json_names_the_design_point() {
        let j = PredictorConfig::paper(15, 7).to_json();
        assert_eq!(j.get("index_bits"), Some(&Json::U64(15)));
        assert_eq!(j.get("depth"), Some(&Json::U64(7)));
        assert_eq!(j.get("rhs"), Some(&Json::Bool(true)));
        assert_eq!(j.get("corr_entry_bits"), Some(&Json::U64(48)));
    }
}
