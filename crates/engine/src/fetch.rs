//! A trace-cache fetch engine: next-trace predictor + trace cache working
//! together, reporting fetch bandwidth.
//!
//! This is the consumer the predictor exists for: each cycle the predictor
//! names the next trace, the trace cache supplies it in one access if
//! present, and mispredictions/misses cost stall cycles. It backs the
//! `fetch_engine` example and the fetch section of every `BENCH_*.json`
//! report.

use crate::{TraceCache, TraceCacheConfig};
use ntp_core::{NextTracePredictor, TracePredictor};
use ntp_trace::TraceRecord;

/// Penalties of the fetch model, in cycles.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct FetchConfig {
    /// Extra cycles to rebuild a trace from the instruction cache on a
    /// trace-cache miss.
    pub miss_penalty: u32,
    /// Extra cycles after a next-trace misprediction.
    pub mispredict_penalty: u32,
    /// Trace cache geometry.
    pub cache: TraceCacheConfig,
}

impl Default for FetchConfig {
    fn default() -> FetchConfig {
        FetchConfig {
            miss_penalty: 4,
            mispredict_penalty: 8,
            cache: TraceCacheConfig::default(),
        }
    }
}

/// Bandwidth results of a fetch run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Cycles spent.
    pub cycles: u64,
    /// Instructions delivered.
    pub instrs: u64,
    /// Traces delivered.
    pub traces: u64,
    /// Next-trace mispredictions.
    pub mispredicts: u64,
    /// Trace-cache misses.
    pub cache_misses: u64,
}

impl FetchStats {
    /// Delivered instructions per cycle — the fetch bandwidth the trace
    /// cache exists to raise.
    pub fn fetch_bandwidth(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }

    /// Misprediction rate in percent.
    pub fn mispredict_pct(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            100.0 * self.mispredicts as f64 / self.traces as f64
        }
    }
}

/// A predictor-driven trace-cache front end.
///
/// # Examples
///
/// ```
/// use ntp_core::{NextTracePredictor, PredictorConfig};
/// use ntp_engine::{FetchConfig, FetchEngine};
/// use ntp_trace::{TraceId, TraceRecord};
///
/// let mut fe = FetchEngine::new(
///     NextTracePredictor::new(PredictorConfig::paper(12, 3)),
///     FetchConfig::default(),
/// );
/// let stream: Vec<TraceRecord> = (0..100)
///     .map(|k| TraceRecord::new(TraceId::new(0x0040_0004 + (k % 3) * 68, 0, 0), 16, 0, false, false))
///     .collect();
/// let stats = fe.run(&stream);
/// assert!(stats.fetch_bandwidth() > 4.0, "{}", stats.fetch_bandwidth());
/// ```
pub struct FetchEngine {
    predictor: NextTracePredictor,
    cache: TraceCache,
    cfg: FetchConfig,
}

impl FetchEngine {
    /// Builds a front end around a predictor.
    pub fn new(predictor: NextTracePredictor, cfg: FetchConfig) -> FetchEngine {
        FetchEngine {
            predictor,
            cache: TraceCache::new(cfg.cache),
            cfg,
        }
    }

    /// The trace cache (for hit-rate inspection).
    pub fn cache(&self) -> &TraceCache {
        &self.cache
    }

    /// Fetches the given committed trace stream, one trace per cycle in the
    /// best case, and returns bandwidth statistics.
    pub fn run(&mut self, records: &[TraceRecord]) -> FetchStats {
        let mut stats = FetchStats::default();
        for rec in records {
            let pred = self.predictor.predict();
            let correct = pred.is_correct(rec.id());

            let mut cycles = 1u64;
            if !correct {
                stats.mispredicts += 1;
                cycles += self.cfg.mispredict_penalty as u64;
            }
            if self.cache.lookup(rec.id()).is_none() {
                stats.cache_misses += 1;
                cycles += self.cfg.miss_penalty as u64;
                self.cache.insert(rec);
            }
            self.predictor.update(rec);

            stats.cycles += cycles;
            stats.instrs += rec.len as u64;
            stats.traces += 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_core::PredictorConfig;
    use ntp_trace::TraceId;

    fn stream(period: u32, n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|k| {
                TraceRecord::new(
                    TraceId::new(0x0040_0004 + (k as u32 % period) * 0x44, 0, 0),
                    14,
                    0,
                    false,
                    false,
                )
            })
            .collect()
    }

    fn engine() -> FetchEngine {
        FetchEngine::new(
            NextTracePredictor::new(PredictorConfig::paper(12, 3)),
            FetchConfig::default(),
        )
    }

    #[test]
    fn warm_stream_approaches_trace_width() {
        let stats = engine().run(&stream(4, 3000));
        assert!(
            stats.fetch_bandwidth() > 10.0,
            "bandwidth {}",
            stats.fetch_bandwidth()
        );
        assert!(stats.mispredict_pct() < 2.0);
    }

    #[test]
    fn cache_misses_are_cold_only() {
        let mut fe = engine();
        let stats = fe.run(&stream(8, 1000));
        assert_eq!(stats.cache_misses, 8, "one fill per distinct trace");
        assert!(fe.cache().stats().hit_rate() > 0.95);
    }

    #[test]
    fn mispredictions_reduce_bandwidth() {
        let noisy: Vec<TraceRecord> = (0..1000u32)
            .map(|k| {
                TraceRecord::new(
                    TraceId::new(
                        0x0040_0004 + (k.wrapping_mul(2654435761) % 300) * 0x24,
                        0,
                        0,
                    ),
                    14,
                    0,
                    false,
                    false,
                )
            })
            .collect();
        let warm = engine().run(&stream(4, 1000));
        let cold = engine().run(&noisy);
        assert!(cold.fetch_bandwidth() < warm.fetch_bandwidth());
    }
}
