//! A rolling window of per-epoch metric buckets.
//!
//! The serving plane needs *rates* ("QPS over the last ten seconds"), not
//! just lifetime totals. [`RollingWindow`] keeps a fixed ring of
//! [`MetricsRegistry`] buckets, one per epoch (the caller defines an epoch
//! — the server uses one second). Recording goes into the bucket for the
//! caller-supplied epoch number; buckets older than the window span decay
//! out automatically as newer epochs arrive, and [`RollingWindow::merged`]
//! folds the live buckets into one registry for reporting.
//!
//! The window never reads a clock: epochs are **injected** by the caller,
//! so the same sequence of `(epoch, record)` calls always produces the
//! same merged registry — the property the determinism tests pin down.
//! Memory is constant: `span` registries, reused in place.

use crate::MetricsRegistry;

/// A fixed ring of per-epoch [`MetricsRegistry`] buckets.
///
/// # Examples
///
/// ```
/// use ntp_telemetry::{RollingWindow, ToJson};
/// let mut w = RollingWindow::new(3);
/// for epoch in 0..5u64 {
///     let b = w.bucket_mut(epoch);
///     let c = b.counter("frames");
///     b.add(c, 10);
/// }
/// // Only epochs 2, 3, 4 are still inside the 3-epoch window.
/// assert_eq!(w.merged().counter_by_name("frames"), Some(30));
/// ```
#[derive(Clone, Debug)]
pub struct RollingWindow {
    buckets: Vec<MetricsRegistry>,
    /// The epoch each slot currently holds (`None` until first written).
    epochs: Vec<Option<u64>>,
    /// The highest epoch seen so far (writes or [`RollingWindow::advance_to`]).
    newest: Option<u64>,
}

impl RollingWindow {
    /// Creates a window of `span` epoch buckets.
    ///
    /// # Panics
    ///
    /// Panics when `span` is zero (a window has to hold something).
    pub fn new(span: usize) -> RollingWindow {
        assert!(span > 0, "RollingWindow span must be >= 1");
        RollingWindow {
            buckets: vec![MetricsRegistry::new(); span],
            epochs: vec![None; span],
            newest: None,
        }
    }

    /// The number of epoch buckets the window spans.
    pub fn span(&self) -> usize {
        self.buckets.len()
    }

    /// Advances the window to `epoch` without recording anything: buckets
    /// that fall out of `[epoch - span + 1, epoch]` decay out of
    /// [`RollingWindow::merged`]. Epochs older than the current newest are
    /// ignored (the window never rolls backwards).
    pub fn advance_to(&mut self, epoch: u64) {
        if self.newest.is_none_or(|n| epoch > n) {
            self.newest = Some(epoch);
        }
    }

    /// The write bucket for `epoch`, rotating the ring as needed. An epoch
    /// that has already decayed out of the window is clamped to the oldest
    /// in-window bucket so late samples are never silently dropped (with a
    /// monotonic epoch source this never triggers).
    pub fn bucket_mut(&mut self, epoch: u64) -> &mut MetricsRegistry {
        self.advance_to(epoch);
        let newest = self.newest.expect("advance_to just set newest");
        let oldest = newest.saturating_sub(self.span() as u64 - 1);
        let e = epoch.max(oldest);
        let idx = (e % self.span() as u64) as usize;
        if self.epochs[idx] != Some(e) {
            self.buckets[idx] = MetricsRegistry::new();
            self.epochs[idx] = Some(e);
        }
        &mut self.buckets[idx]
    }

    /// Folds every live in-window bucket into one registry, in ascending
    /// epoch order (so metric registration order — and therefore the JSON
    /// serialization — is deterministic for a given record sequence).
    pub fn merged(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for idx in self.in_window() {
            out.merge(&self.buckets[idx]);
        }
        out
    }

    /// Slot indices of live in-window buckets, oldest epoch first.
    fn in_window(&self) -> impl Iterator<Item = usize> + '_ {
        let span = self.span() as u64;
        let newest = self.newest;
        let oldest = newest.map(|n| n.saturating_sub(span - 1));
        (0..span)
            .filter_map(move |off| {
                let (n, o) = (newest?, oldest?);
                let e = o + off;
                if e > n {
                    return None;
                }
                Some((e, (e % span) as usize))
            })
            .filter(|(e, idx)| self.epochs[*idx] == Some(*e))
            .map(|(_, idx)| idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ToJson;

    fn add(w: &mut RollingWindow, epoch: u64, name: &str, v: u64) {
        let b = w.bucket_mut(epoch);
        let c = b.counter(name);
        b.add(c, v);
    }

    #[test]
    fn empty_window_merges_to_nothing() {
        let w = RollingWindow::new(4);
        assert_eq!(w.merged().counter_by_name("anything"), None);
    }

    #[test]
    fn buckets_rotate_out_as_epochs_advance() {
        let mut w = RollingWindow::new(3);
        add(&mut w, 0, "x", 1);
        add(&mut w, 1, "x", 2);
        add(&mut w, 2, "x", 4);
        assert_eq!(w.merged().counter_by_name("x"), Some(7));
        // Epoch 3 pushes epoch 0 out of the window.
        add(&mut w, 3, "x", 8);
        assert_eq!(w.merged().counter_by_name("x"), Some(14));
        // A far jump leaves only the newest bucket.
        add(&mut w, 100, "x", 16);
        assert_eq!(w.merged().counter_by_name("x"), Some(16));
    }

    #[test]
    fn merge_unions_counters_and_histograms_across_buckets() {
        let mut w = RollingWindow::new(8);
        for epoch in 0..4u64 {
            let b = w.bucket_mut(epoch);
            let c = b.counter("frames");
            b.add(c, epoch + 1);
            let h = b.histogram("lat");
            b.observe(h, epoch * 10);
        }
        let m = w.merged();
        assert_eq!(m.counter_by_name("frames"), Some(1 + 2 + 3 + 4));
        let mut probe = m.clone();
        let h = probe.histogram("lat");
        assert_eq!(probe.histogram_ref(h).count(), 4);
        assert_eq!(probe.histogram_ref(h).max(), 30);
    }

    #[test]
    fn saturated_window_holds_exactly_span_epochs() {
        let mut w = RollingWindow::new(4);
        for epoch in 0..100u64 {
            add(&mut w, epoch, "hits", 1);
        }
        assert_eq!(w.merged().counter_by_name("hits"), Some(4));
    }

    #[test]
    fn advance_to_decays_without_writing() {
        let mut w = RollingWindow::new(3);
        add(&mut w, 0, "x", 1);
        add(&mut w, 1, "x", 1);
        w.advance_to(1); // no-op: not newer
        assert_eq!(w.merged().counter_by_name("x"), Some(2));
        w.advance_to(50); // everything decays out
        assert_eq!(w.merged().counter_by_name("x"), None);
    }

    #[test]
    fn stale_epochs_clamp_into_the_oldest_live_bucket() {
        let mut w = RollingWindow::new(3);
        add(&mut w, 10, "x", 1);
        // Epoch 0 decayed long ago; the sample lands in the oldest
        // in-window bucket (epoch 8) instead of vanishing.
        add(&mut w, 0, "x", 5);
        assert_eq!(w.merged().counter_by_name("x"), Some(6));
    }

    #[test]
    fn injected_clock_sequences_are_deterministic() {
        let feed = |w: &mut RollingWindow| {
            for (epoch, v) in [(0u64, 3u64), (1, 1), (1, 2), (4, 9), (6, 1)] {
                add(w, epoch, "frames", v);
                let b = w.bucket_mut(epoch);
                let h = b.histogram("lat");
                b.observe(h, v * 7);
            }
            w.advance_to(7);
        };
        let mut a = RollingWindow::new(5);
        let mut b = RollingWindow::new(5);
        feed(&mut a);
        feed(&mut b);
        assert_eq!(
            a.merged().to_json().render(),
            b.merged().to_json().render(),
            "identical (epoch, record) sequences must merge identically"
        );
    }
}
