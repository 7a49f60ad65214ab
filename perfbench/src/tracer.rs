//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A traced run opens a span at every layer boundary the benchmark
//! crosses (name, start, end, parent), keeps them in memory, derives the
//! per-layer metrics from them, and writes a per-name summary with self
//! time to standard error when the workload ends. An untraced run
//! carries a disabled tracer whose calls record nothing.

use std::time::{Duration, Instant};

/// One closed or open span.
struct Span {
    name: &'static str,
    start: Duration,
    end: Option<Duration>,
    parent: Option<usize>,
}

/// A single thread's span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off; a traced run alternates the two to
    /// measure its own overhead. No span may be open.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "toggled inside an open span");
        self.on = on;
    }

    /// Opens a span, nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: None,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let at = self.open.pop().expect("exit matches an enter");
        self.spans[at].end = Some(self.origin.elapsed());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Number of closed spans named `name` and their summed duration.
    pub fn total(&self, name: &str) -> (u64, Duration) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end.map(|e| e - s.start))
            .fold((0, Duration::ZERO), |(n, d), x| (n + 1, d + x))
    }

    /// Per span name, in first-seen order: count, total time, and self
    /// time (total minus the time covered by direct children).
    pub fn summary(&self) -> Vec<(&'static str, u64, Duration, Duration)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), Some(end)) = (s.parent, s.end) {
                child[p] += end - s.start;
            }
        }
        let mut out: Vec<(&'static str, u64, Duration, Duration)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let Some(end) = s.end else { continue };
            let dur = end - s.start;
            let own = dur.saturating_sub(child[i]);
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += dur;
                    e.3 += own;
                }
                None => out.push((s.name, 1, dur, own)),
            }
        }
        out
    }

    /// Writes [`Tracer::summary`] to standard error, one line per name.
    pub fn report(&self, workload: &str) {
        for (name, n, total, own) in self.summary() {
            eprintln!(
                "[span] {workload} {name}: n={n} total_ms={:.3} self_ms={:.3}",
                total.as_secs_f64() * 1e3,
                own.as_secs_f64() * 1e3
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", || std::thread::sleep(Duration::from_millis(1)));
        t.enter("outer");
        t.span("inner", || std::thread::sleep(Duration::from_millis(3)));
        t.exit();
        let (n, total) = t.total("outer");
        assert_eq!(n, 2);
        let sum = t.summary();
        let outer = sum.iter().find(|e| e.0 == "outer").unwrap();
        let inner = sum.iter().find(|e| e.0 == "inner").unwrap();
        assert_eq!(outer.2, total);
        assert!(outer.3 < outer.2 && outer.3 + inner.2 == outer.2);

        let mut off = Tracer::new(false);
        off.span("x", || ());
        assert_eq!(off.total("x"), (0, Duration::ZERO));
        assert!(off.summary().is_empty());
    }
}
