//! A lightweight registry of named counters, gauges and histograms.
//!
//! Design constraints (from the hot paths this serves):
//!
//! * **Recording is a plain integer add** — metric handles are indices into
//!   dense `Vec`s, resolved once at registration; no hashing, no locking,
//!   no atomics on the record path (simulation is single-threaded; shards
//!   each own a registry and [`MetricsRegistry::merge`] aggregates them).
//! * **Registration order is serialization order**, so reports are
//!   deterministic.

use crate::json::Json;
use crate::{Histogram, ToJson};

/// Handle to a registered counter (a dense index).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named metrics.
///
/// # Examples
///
/// ```
/// use ntp_telemetry::{MetricsRegistry, ToJson};
/// let mut m = MetricsRegistry::new();
/// let fetches = m.counter("engine.fetches");
/// let ipc = m.gauge("engine.ipc");
/// let lens = m.histogram("trace.len");
/// m.add(fetches, 3);
/// m.set(ipc, 5.4);
/// m.observe(lens, 16);
/// assert_eq!(m.counter_value(fetches), 3);
/// assert!(m.to_json().render().contains("engine.ipc"));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<f64>,
    hist_names: Vec<String>,
    hists: Vec<Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(k) = self.counter_names.iter().position(|n| n == name) {
            return CounterId(k);
        }
        self.counter_names.push(name.to_string());
        self.counters.push(0);
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge by name.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(k) = self.gauge_names.iter().position(|n| n == name) {
            return GaugeId(k);
        }
        self.gauge_names.push(name.to_string());
        self.gauges.push(0.0);
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(k) = self.hist_names.iter().position(|n| n == name) {
            return HistogramId(k);
        }
        self.hist_names.push(name.to_string());
        self.hists.push(Histogram::new());
        HistogramId(self.hists.len() - 1)
    }

    /// Adds to a counter — the entire hot-path cost is one `u64` add.
    #[inline]
    pub fn add(&mut self, id: CounterId, v: u64) {
        self.counters[id.0] += v;
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        self.gauges[id.0] = v;
    }

    /// Records a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistogramId, v: u64) {
        self.hists[id.0].record(v);
    }

    /// Overwrites a counter's value. Reporting-path only: lets a snapshot
    /// fold in totals kept elsewhere (e.g. connection-side atomics) while
    /// still merging additively across registries.
    pub fn set_counter(&mut self, id: CounterId, v: u64) {
        self.counters[id.0] = v;
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
    }

    /// Read access to a histogram.
    pub fn histogram_ref(&self, id: HistogramId) -> &Histogram {
        &self.hists[id.0]
    }

    /// Folds an externally maintained histogram into one of this
    /// registry's histograms (reporting path): lets a snapshot absorb
    /// sample distributions kept outside the registry — e.g. per-thread
    /// histograms behind a mutex — the same way `set_counter` absorbs
    /// external totals.
    pub fn merge_histogram(&mut self, id: HistogramId, other: &Histogram) {
        self.hists[id.0].merge(other);
    }

    /// Looks up a counter's current value by name (reporting path).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        let k = self.counter_names.iter().position(|n| n == name)?;
        Some(self.counters[k])
    }

    /// Looks up a gauge's current value by name (reporting path).
    pub fn gauge_by_name(&self, name: &str) -> Option<f64> {
        let k = self.gauge_names.iter().position(|n| n == name)?;
        Some(self.gauges[k])
    }

    /// Looks up a histogram by name (reporting path).
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        let k = self.hist_names.iter().position(|n| n == name)?;
        Some(&self.hists[k])
    }

    /// All counters in registration order.
    pub fn counters_iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counter_names
            .iter()
            .zip(self.counters.iter())
            .map(|(n, v)| (n.as_str(), *v))
    }

    /// All gauges in registration order.
    pub fn gauges_iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauge_names
            .iter()
            .zip(self.gauges.iter())
            .map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms in registration order.
    pub fn histograms_iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.hist_names
            .iter()
            .zip(self.hists.iter())
            .map(|(n, h)| (n.as_str(), h))
    }

    /// Rebuilds a registry from its [`ToJson`] form: the `counters`,
    /// `gauges` and `histograms` objects, in order. A `null` gauge (how
    /// a non-finite value renders) reads back as NaN.
    pub(crate) fn from_json(j: &Json) -> Result<MetricsRegistry, String> {
        let (counter_names, counters) = named(j, "counters", |v| {
            v.as_u64().ok_or_else(|| format!("{v} is not a u64"))
        })?;
        let (gauge_names, gauges) = named(j, "gauges", |v| match v {
            Json::Null => Ok(f64::NAN),
            _ => v.as_f64().ok_or_else(|| format!("{v} is not a number")),
        })?;
        let (hist_names, hists) = named(j, "histograms", Histogram::from_json)?;
        Ok(MetricsRegistry {
            counter_names,
            counters,
            gauge_names,
            gauges,
            hist_names,
            hists,
        })
    }

    /// Merges another registry into this one: counters and histogram
    /// samples add; gauges take the other's value when its name is shared
    /// (last writer wins) and are appended otherwise. Metric identity is by
    /// name, so differently-shaped registries merge correctly.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in other.counter_names.iter().zip(other.counters.iter()) {
            let id = self.counter(name);
            self.counters[id.0] += v;
        }
        for (name, v) in other.gauge_names.iter().zip(other.gauges.iter()) {
            let id = self.gauge(name);
            self.gauges[id.0] = *v;
        }
        for (name, h) in other.hist_names.iter().zip(other.hists.iter()) {
            let id = self.histogram(name);
            self.hists[id.0].merge(h);
        }
    }
}

/// Decodes the `{name: value, …}` object under `kind`, keeping member
/// order; a repeated name is an error, as no registry can hold one.
fn named<T>(
    j: &Json,
    kind: &str,
    value: impl Fn(&Json) -> Result<T, String>,
) -> Result<(Vec<String>, Vec<T>), String> {
    let Some(Json::Object(members)) = j.get(kind) else {
        return Err(format!("no `{kind}` object"));
    };
    let mut names: Vec<String> = Vec::with_capacity(members.len());
    let mut values = Vec::with_capacity(members.len());
    for (name, v) in members {
        if names.contains(name) {
            return Err(format!("{kind} `{name}` repeated"));
        }
        values.push(value(v).map_err(|e| format!("{kind} `{name}`: {e}"))?);
        names.push(name.clone());
    }
    Ok((names, values))
}

impl ToJson for MetricsRegistry {
    /// `{counters: {…}, gauges: {…}, histograms: {…}}` in registration
    /// order.
    fn to_json(&self) -> Json {
        let counters = Json::Object(
            self.counter_names
                .iter()
                .zip(self.counters.iter())
                .map(|(n, v)| (n.clone(), Json::U64(*v)))
                .collect(),
        );
        let gauges = Json::Object(
            self.gauge_names
                .iter()
                .zip(self.gauges.iter())
                .map(|(n, v)| (n.clone(), Json::F64(*v)))
                .collect(),
        );
        let hists = Json::Object(
            self.hist_names
                .iter()
                .zip(self.hists.iter())
                .map(|(n, h)| (n.clone(), h.to_json()))
                .collect(),
        );
        Json::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", hists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        m.inc(a);
        m.add(b, 2);
        assert_eq!(m.counter_value(a), 3);
        assert_eq!(m.counter_by_name("x"), Some(3));
        assert_eq!(m.counter_by_name("y"), None);
    }

    #[test]
    fn merge_adds_counters_and_hist_samples() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let ca = a.counter("shared");
        a.add(ca, 5);
        let cb = b.counter("shared");
        b.add(cb, 7);
        let only_b = b.counter("only_b");
        b.inc(only_b);
        let hb = b.histogram("h");
        b.observe(hb, 9);
        let gb = b.gauge("g");
        b.set(gb, 1.5);

        a.merge(&b);
        assert_eq!(a.counter_by_name("shared"), Some(12));
        assert_eq!(a.counter_by_name("only_b"), Some(1));
        let h = a.histogram("h");
        assert_eq!(a.histogram_ref(h).count(), 1);
        assert_eq!(a.gauge_by_name("g"), Some(1.5));
    }

    #[test]
    fn json_shape_is_stable() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("c");
        m.inc(c);
        let g = m.gauge("g");
        m.set(g, 0.25);
        let rendered = m.to_json().render();
        assert_eq!(
            rendered,
            r#"{"counters":{"c":1},"gauges":{"g":0.25},"histograms":{}}"#
        );
    }
}
