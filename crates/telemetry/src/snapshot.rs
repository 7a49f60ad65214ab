//! A point-in-time snapshot of named metric sections.
//!
//! [`Snapshot`] is the wire/report shape of the live observability plane:
//! an ordered list of `(section, MetricsRegistry)` pairs — the serving
//! layer uses one section per shard plus `server` and `total` — with two
//! serializations off the same data:
//!
//! * [`ToJson`]: an object of `section → registry JSON` in insertion
//!   order (machines, `ntp top --json`);
//! * [`Snapshot::to_text`]: a flat `name value` exposition, one metric
//!   per line with section-qualified names, so `curl`/`grep`/`awk` can
//!   scrape the sidecar endpoint without a JSON parser.
//!
//! [`Snapshot::from_json`] is the checked inverse of the JSON form (and
//! [`str::parse`] its text-level shorthand), so a consumer reads a
//! `Metrics` reply through [`MetricsRegistry`]'s by-name accessors
//! instead of walking the JSON layout.

use crate::json::{self, Json};
use crate::{MetricsRegistry, ToJson};
use std::str::FromStr;

/// An ordered collection of named [`MetricsRegistry`] sections.
///
/// # Examples
///
/// ```
/// use ntp_telemetry::{MetricsRegistry, Snapshot, ToJson};
/// let mut shard = MetricsRegistry::new();
/// let c = shard.counter("frames.predict");
/// shard.add(c, 41);
/// let mut snap = Snapshot::new();
/// snap.push("shard0", shard);
/// assert!(snap.to_text().contains("shard0.frames.predict 41"));
/// let text = snap.to_json().render();
/// assert!(text.starts_with(r#"{"shard0":"#));
/// let back: Snapshot = text.parse()?;
/// assert_eq!(back.get("shard0").unwrap().counter_by_name("frames.predict"), Some(41));
/// # Ok::<(), String>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    sections: Vec<(String, MetricsRegistry)>,
}

impl Snapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Snapshot {
        Snapshot::default()
    }

    /// Appends a section. Order of insertion is order of serialization;
    /// pushing a duplicate name keeps both (callers use unique names).
    pub fn push(&mut self, name: &str, metrics: MetricsRegistry) {
        self.sections.push((name.to_string(), metrics));
    }

    /// Looks up a section by name.
    pub fn get(&self, name: &str) -> Option<&MetricsRegistry> {
        self.sections
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m)
    }

    /// Iterates sections in insertion order.
    pub fn sections(&self) -> impl Iterator<Item = (&str, &MetricsRegistry)> {
        self.sections.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Number of sections.
    pub fn len(&self) -> usize {
        self.sections.len()
    }

    /// True when no sections have been pushed.
    pub fn is_empty(&self) -> bool {
        self.sections.is_empty()
    }

    /// Rebuilds a snapshot from its [`ToJson`] form, sections in order.
    /// Every rendered snapshot decodes and renders back to the same
    /// bytes.
    ///
    /// # Errors
    ///
    /// Anything else is an error naming the first offending section and
    /// metric: a top level that is not an object, a section without
    /// `counters`, `gauges` or `histograms`, a counter that is not a
    /// `u64`, a gauge neither a number nor `null`, or buckets that are
    /// not ascending pow-2 buckets summing to `count`.
    pub fn from_json(j: &Json) -> Result<Snapshot, String> {
        let Json::Object(sections) = j else {
            return Err("a metrics snapshot is a JSON object".into());
        };
        let sections = sections
            .iter()
            .map(|(name, m)| {
                MetricsRegistry::from_json(m)
                    .map(|m| (name.clone(), m))
                    .map_err(|e| format!("section `{name}`: {e}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Snapshot { sections })
    }

    /// Flat `name value` text exposition: one line per metric, names
    /// qualified as `<section>.<metric>`. Histograms expand into
    /// `.count/.sum/.min/.max/.mean/.p50/.p99/.p999` lines. Floats render
    /// exactly as the JSON writer would, so the two formats never disagree
    /// on a value.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let mut line = |name: &str, value: &str| {
            out.push_str(name);
            out.push(' ');
            out.push_str(value);
            out.push('\n');
        };
        for (section, m) in self.sections() {
            for (name, v) in m.counters_iter() {
                line(&format!("{section}.{name}"), &v.to_string());
            }
            for (name, v) in m.gauges_iter() {
                line(&format!("{section}.{name}"), &Json::F64(v).render());
            }
            for (name, h) in m.histograms_iter() {
                let fields: [(&str, String); 8] = [
                    ("count", h.count().to_string()),
                    ("sum", h.sum().to_string()),
                    ("min", h.min().to_string()),
                    ("max", h.max().to_string()),
                    ("mean", Json::F64(h.mean()).render()),
                    ("p50", h.p50().to_string()),
                    ("p99", h.p99().to_string()),
                    ("p999", h.p999().to_string()),
                ];
                for (field, value) in fields {
                    line(&format!("{section}.{name}.{field}"), &value);
                }
            }
        }
        out
    }
}

impl ToJson for Snapshot {
    /// `{<section>: {counters: …, gauges: …, histograms: …}, …}` in
    /// insertion order.
    fn to_json(&self) -> Json {
        Json::Object(
            self.sections()
                .map(|(n, m)| (n.to_string(), m.to_json()))
                .collect(),
        )
    }
}

impl FromStr for Snapshot {
    type Err = String;

    /// Parses JSON text — a `Metrics` reply, a `/metrics.json` body —
    /// and decodes it with [`Snapshot::from_json`].
    fn from_str(text: &str) -> Result<Snapshot, String> {
        Snapshot::from_json(&json::parse(text).map_err(|e| e.to_string())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(frames: u64, depth: f64, lat: &[u64]) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        let c = m.counter("frames.predict");
        m.add(c, frames);
        let g = m.gauge("queue.depth");
        m.set(g, depth);
        let h = m.histogram("latency_us");
        for v in lat {
            m.observe(h, *v);
        }
        m
    }

    #[test]
    fn sections_serialize_in_insertion_order() {
        let mut snap = Snapshot::new();
        snap.push("shard1", shard(2, 0.0, &[]));
        snap.push("shard0", shard(1, 0.0, &[]));
        let json = snap.to_json().render();
        let s1 = json.find("shard1").unwrap();
        let s0 = json.find("shard0").unwrap();
        assert!(s1 < s0, "insertion order preserved: {json}");
        assert_eq!(snap.len(), 2);
        assert_eq!(
            snap.get("shard0")
                .unwrap()
                .counter_by_name("frames.predict"),
            Some(1)
        );
        assert!(snap.get("shard9").is_none());
    }

    #[test]
    fn text_exposition_is_flat_and_complete() {
        let mut snap = Snapshot::new();
        snap.push("shard0", shard(41, 3.0, &[10, 20, 4000]));
        let text = snap.to_text();
        assert!(text.contains("shard0.frames.predict 41\n"), "{text}");
        assert!(text.contains("shard0.queue.depth 3.0\n"), "{text}");
        assert!(text.contains("shard0.latency_us.count 3\n"), "{text}");
        assert!(text.contains("shard0.latency_us.max 4000\n"), "{text}");
        assert!(text.contains("shard0.latency_us.p999 "), "{text}");
        // Every line is exactly `name value`.
        for l in text.lines() {
            assert_eq!(l.split(' ').count(), 2, "malformed line: {l}");
        }
    }

    /// Every malformed input is an `Err` naming what is wrong, never a
    /// panic. Each case breaks one thing in an otherwise valid snapshot.
    #[test]
    fn from_json_rejects_malformed_input() {
        let hist = r#"{"count":2,"sum":5,"min":1,"max":4,"buckets":[[1,1,1],[4,7,1]]}"#;
        let snap = |c: &str, h: &str| {
            format!(
                r#"{{"s":{{"counters":{{"c":{c}}},"gauges":{{"g":null}},"histograms":{{"h":{h}}}}}}}"#
            )
        };
        let valid: Snapshot = snap("1", hist).parse().expect("valid");
        assert!(valid.get("s").unwrap().gauge_by_name("g").unwrap().is_nan());
        let no_counters = r#"{"s":{"gauges":{},"histograms":{}}}"#;
        for (needle, text) in [
            ("JSON parse error", "not json".to_string()),
            ("object", "[1,2]".to_string()),
            ("no `counters`", no_counters.to_string()),
            ("not a u64", snap("-1", hist)),
            ("not a u64", snap("1.5", hist)),
            ("not a u64", snap(r#""1""#, hist)),
            ("pow-2", snap("1", &hist.replace("[4,7,1]", "[4,8,1]"))),
            (
                "samples",
                snap("1", &hist.replace(r#""count":2"#, r#""count":3"#)),
            ),
            ("repeated", snap("1", &hist.replace("[4,7,1]", "[1,1,1]"))),
        ] {
            let err = text.parse::<Snapshot>().expect_err(&text);
            assert!(err.contains(needle), "`{text}`: `{err}` lacks `{needle}`");
        }
    }

    #[test]
    fn json_and_text_agree_on_values() {
        let mut snap = Snapshot::new();
        snap.push("s", shard(7, 1.5, &[2, 2, 2]));
        let json = snap.to_json().render();
        assert!(json.contains(r#""frames.predict":7"#), "{json}");
        assert!(json.contains(r#""queue.depth":1.5"#), "{json}");
        assert!(snap.to_text().contains("s.queue.depth 1.5\n"));
    }
}
