//! Structured prediction-event tracing for post-hoc misprediction
//! forensics.
//!
//! The replay loops emit one [`PredictionEvent`] per prediction into an
//! [`EventSink`]. The default sink is [`NullSink`] (zero cost — the
//! acceptance budget requires telemetry overhead ≤ 5%, so event capture is
//! strictly opt-in); [`TraceLog`] keeps a sampled ring buffer of the most
//! recent events for inspection and reporting.

use crate::json::Json;
use crate::ToJson;

/// Which table served a prediction (mirror of `ntp_core::Source`, kept
/// dependency-free here since telemetry sits below every other crate).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventSource {
    /// Served by the correlating (path-indexed) table.
    Correlated,
    /// Served by the secondary (last-trace-indexed) table.
    Secondary,
    /// No table had an opinion.
    Cold,
}

impl EventSource {
    /// Stable lowercase name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventSource::Correlated => "correlated",
            EventSource::Secondary => "secondary",
            EventSource::Cold => "cold",
        }
    }
}

/// One prediction, scored.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PredictionEvent {
    /// Position in the replayed trace stream.
    pub index: u64,
    /// Table that served the prediction.
    pub source: EventSource,
    /// Primary prediction named the actual next trace.
    pub hit: bool,
    /// Primary missed but the alternate (§6) was right.
    pub alternate_hit: bool,
    /// Path-history occupancy at prediction time (0 when the predictor
    /// does not expose one).
    pub history_len: u8,
}

impl ToJson for PredictionEvent {
    /// `{i, src, hit, alt, hist}` — compact keys, there may be thousands.
    fn to_json(&self) -> Json {
        Json::object()
            .with("i", Json::U64(self.index))
            .with("src", Json::Str(self.source.name().into()))
            .with("hit", Json::Bool(self.hit))
            .with("alt", Json::Bool(self.alternate_hit))
            .with("hist", Json::U64(self.history_len as u64))
    }
}

/// Consumer of prediction events.
pub trait EventSink {
    /// Offers one event. Implementations decide whether to keep it.
    fn record(&mut self, ev: &PredictionEvent);

    /// True when `record` is a no-op, letting emitters skip event
    /// construction entirely on the hot path.
    fn enabled(&self) -> bool {
        true
    }
}

/// The default sink: drops everything, reports itself disabled, so
/// instrumented loops cost nothing when tracing is off.
#[derive(Copy, Clone, Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _ev: &PredictionEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// A sampling ring buffer of prediction events.
///
/// Keeps every `sample_every`-th offered event, retaining at most
/// `capacity` of the most recent samples. Cheap by construction: a modulo
/// counter plus a `Vec` slot write.
///
/// # Examples
///
/// ```
/// use ntp_telemetry::{EventSink, EventSource, PredictionEvent, TraceLog};
/// let mut log = TraceLog::new(4, 2); // keep 4, sample every 2nd
/// for i in 0..10 {
///     log.record(&PredictionEvent {
///         index: i,
///         source: EventSource::Secondary,
///         hit: i % 3 != 0,
///         alternate_hit: false,
///         history_len: 7,
///     });
/// }
/// assert_eq!(log.offered(), 10);
/// assert_eq!(log.kept(), 4, "ring holds the last 4 samples");
/// assert_eq!(log.iter().next().unwrap().index, 2);
/// ```
#[derive(Clone, Debug)]
pub struct TraceLog {
    ring: Vec<PredictionEvent>,
    capacity: usize,
    next: usize,
    sample_every: u64,
    offered: u64,
    kept_hits: u64,
    kept_misses: u64,
}

impl TraceLog {
    /// A log keeping up to `capacity` events, sampling one in
    /// `sample_every` (0 is treated as 1: keep everything offered).
    pub fn new(capacity: usize, sample_every: u64) -> TraceLog {
        TraceLog {
            ring: Vec::with_capacity(capacity.min(1024)),
            capacity,
            next: 0,
            sample_every: sample_every.max(1),
            offered: 0,
            kept_hits: 0,
            kept_misses: 0,
        }
    }

    /// Events offered via [`EventSink::record`].
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Events currently retained.
    pub fn kept(&self) -> usize {
        self.ring.len()
    }

    /// Sampled events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &PredictionEvent> {
        let (tail, head) = self.ring.split_at(self.next.min(self.ring.len()));
        head.iter().chain(tail.iter())
    }
}

impl EventSink for TraceLog {
    fn record(&mut self, ev: &PredictionEvent) {
        let keep = self.offered.is_multiple_of(self.sample_every);
        self.offered += 1;
        if !keep || self.capacity == 0 {
            return;
        }
        if ev.hit {
            self.kept_hits += 1;
        } else {
            self.kept_misses += 1;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(*ev);
            self.next = self.ring.len() % self.capacity;
        } else {
            self.ring[self.next] = *ev;
            self.next = (self.next + 1) % self.capacity;
        }
    }
}

impl ToJson for TraceLog {
    /// `{offered, sample_every, kept, kept_hits, kept_misses, events: […]}`.
    fn to_json(&self) -> Json {
        Json::object()
            .with("offered", Json::U64(self.offered))
            .with("sample_every", Json::U64(self.sample_every))
            .with("kept", Json::U64(self.kept() as u64))
            .with("kept_hits", Json::U64(self.kept_hits))
            .with("kept_misses", Json::U64(self.kept_misses))
            .with(
                "events",
                Json::Array(self.iter().map(ToJson::to_json).collect()),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(i: u64, hit: bool) -> PredictionEvent {
        PredictionEvent {
            index: i,
            source: EventSource::Correlated,
            hit,
            alternate_hit: !hit && i.is_multiple_of(2),
            history_len: 3,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(&ev(0, true)); // no-op, no panic
    }

    #[test]
    fn ring_keeps_most_recent_samples() {
        let mut log = TraceLog::new(3, 1);
        for i in 0..7 {
            log.record(&ev(i, i % 2 == 0));
        }
        let kept: Vec<u64> = log.iter().map(|e| e.index).collect();
        assert_eq!(kept, vec![4, 5, 6]);
        assert_eq!(log.offered(), 7);
        let json = log.to_json().render();
        assert!(
            json.contains(r#""kept_hits":4,"kept_misses":3"#),
            "counts all samples: {json}"
        );
    }

    #[test]
    fn sampling_thins_the_stream() {
        let mut log = TraceLog::new(100, 5);
        for i in 0..20 {
            log.record(&ev(i, true));
        }
        let kept: Vec<u64> = log.iter().map(|e| e.index).collect();
        assert_eq!(kept, vec![0, 5, 10, 15]);
    }

    #[test]
    fn zero_capacity_counts_but_keeps_nothing() {
        let mut log = TraceLog::new(0, 1);
        for i in 0..5 {
            log.record(&ev(i, false));
        }
        assert_eq!(log.offered(), 5);
        assert_eq!(log.kept(), 0);
    }

    #[test]
    fn json_includes_sampled_events() {
        let mut log = TraceLog::new(2, 1);
        log.record(&ev(0, false));
        let j = log.to_json();
        assert_eq!(j.get("kept").and_then(Json::as_u64), Some(1));
        let rendered = j.render();
        assert!(rendered.contains(r#""src":"correlated""#), "{rendered}");
    }
}
