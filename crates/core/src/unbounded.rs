//! The unbounded-table ("no aliasing") predictor of §5.2 / Figure 6.
//!
//! Every unique sequence of full trace identifiers maps to its own entry, so
//! there is no aliasing and no need for tags; what remains is cold-start
//! behaviour, which the hybrid configuration and the return history stack
//! address. This model bounds the accuracy attainable by any finite
//! correlating table of the same depth.

use crate::{
    Counter, CounterSpec, PathHistory, Prediction, ReturnHistoryStack, RhsConfig, Source, Target,
    TracePredictor,
};
use ntp_hash::FxBuild;
use ntp_trace::{TraceId, TraceRecord};
use std::collections::HashMap;

/// Configuration of an [`UnboundedPredictor`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct UnboundedConfig {
    /// Traces used besides the most recent one (0–7 in the paper's study).
    pub depth: usize,
    /// Run the secondary (last-trace-only) predictor alongside and select as
    /// in the bounded hybrid.
    pub hybrid: bool,
    /// Return history stack, if enabled.
    pub rhs: Option<RhsConfig>,
    /// Correlating counter policy.
    pub primary_counter: CounterSpec,
    /// Secondary counter policy.
    pub secondary_counter: CounterSpec,
    /// Maintain alternate predictions.
    pub alternate: bool,
}

impl UnboundedConfig {
    /// The paper's Figure 6 configuration at a given depth: hybrid + RHS.
    pub fn paper(depth: usize) -> UnboundedConfig {
        UnboundedConfig {
            depth,
            hybrid: true,
            rhs: Some(RhsConfig::default()),
            primary_counter: CounterSpec::PRIMARY,
            secondary_counter: CounterSpec::SECONDARY,
            alternate: false,
        }
    }

    /// Correlated-only variant (Figure 6's "correlated" series).
    pub fn correlated_only(depth: usize) -> UnboundedConfig {
        UnboundedConfig {
            hybrid: false,
            rhs: None,
            ..UnboundedConfig::paper(depth)
        }
    }

    /// Hybrid without the return history stack (Figure 6's middle series).
    pub fn hybrid_no_rhs(depth: usize) -> UnboundedConfig {
        UnboundedConfig {
            rhs: None,
            ..UnboundedConfig::paper(depth)
        }
    }

    /// Validates the configuration without panicking: the study covers
    /// depths 0–7, and both counter policies must be well formed.
    pub fn try_validate(&self) -> Result<(), crate::ConfigError> {
        crate::error::in_range("unbounded.depth", self.depth as u64, 0, 7)?;
        self.primary_counter.try_validate()?;
        self.secondary_counter.try_validate()?;
        if let Some(rhs) = &self.rhs {
            crate::error::in_range("unbounded.rhs.max_depth", rhs.max_depth as u64, 1, 1 << 20)?;
        }
        Ok(())
    }
}

/// A path of up to 8 full trace identifiers, newest first, zero-padded.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct PathKey {
    ids: [u64; 8],
    len: u8,
}

#[derive(Copy, Clone, Debug)]
struct Entry {
    target: u64,
    alt: u64,
    has_alt: bool,
    ctr: Counter,
}

/// The unbounded path-based next trace predictor.
///
/// # Examples
///
/// ```
/// use ntp_core::{TracePredictor, UnboundedConfig, UnboundedPredictor};
/// let p = UnboundedPredictor::new(UnboundedConfig::paper(3));
/// assert!(p.predict().target.is_none());
/// ```
pub struct UnboundedPredictor {
    cfg: UnboundedConfig,
    history: PathHistory<u64>,
    rhs: Option<ReturnHistoryStack<u64>>,
    // Keyed maps are in-memory only and never iterated in an
    // order-sensitive way, so the cheap word-wise hasher is safe here: a
    // `PathKey` costs nine word folds instead of a SipHash pass over 72
    // bytes, and this model hashes twice per retired trace.
    corr: HashMap<PathKey, Entry, FxBuild>,
    sec: HashMap<u64, Entry, FxBuild>,
}

impl UnboundedPredictor {
    /// Builds an unbounded predictor.
    ///
    /// # Panics
    ///
    /// Panics if `depth > 7` or a counter policy is invalid.
    pub fn new(cfg: UnboundedConfig) -> UnboundedPredictor {
        match UnboundedPredictor::try_new(cfg) {
            Ok(p) => p,
            Err(e) => panic!("invalid unbounded config: {e}"),
        }
    }

    /// Builds an unbounded predictor, rejecting invalid configurations with
    /// a typed error instead of panicking.
    pub fn try_new(cfg: UnboundedConfig) -> Result<UnboundedPredictor, crate::ConfigError> {
        cfg.try_validate()?;
        Ok(UnboundedPredictor {
            history: PathHistory::new(cfg.depth + 1),
            rhs: cfg.rhs.map(ReturnHistoryStack::new),
            corr: HashMap::default(),
            sec: HashMap::default(),
            cfg,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &UnboundedConfig {
        &self.cfg
    }

    /// Distinct path contexts learned so far (table "size").
    pub fn corr_entries(&self) -> usize {
        self.corr.len()
    }

    fn key(&self) -> PathKey {
        let mut ids = [0u64; 8];
        let mut len = 0u8;
        for (k, id) in self.history.iter_newest_first().enumerate() {
            ids[k] = *id;
            len += 1;
        }
        PathKey { ids, len }
    }

    fn target_of(key: u64) -> Target {
        Target::Full(TraceId::from_packed(key))
    }
}

impl TracePredictor for UnboundedPredictor {
    fn predict(&self) -> Prediction {
        let corr = self.corr.get(&self.key());
        let sec = self
            .cfg
            .hybrid
            .then(|| self.history.newest().and_then(|last| self.sec.get(&last)))
            .flatten();

        let alternate = match corr {
            Some(e) if self.cfg.alternate && e.has_alt => Some(Self::target_of(e.alt)),
            _ => None,
        };

        let sec_wins = sec
            .map(|e| e.ctr.is_saturated(self.cfg.secondary_counter))
            .unwrap_or(false);

        if let (Some(e), false) = (corr, sec_wins) {
            return Prediction {
                target: Some(Self::target_of(e.target)),
                alternate,
                source: Source::Correlated,
            };
        }
        if let Some(e) = sec {
            return Prediction {
                target: Some(Self::target_of(e.target)),
                alternate,
                source: Source::Secondary,
            };
        }
        if let Some(e) = corr {
            return Prediction {
                target: Some(Self::target_of(e.target)),
                alternate,
                source: Source::Correlated,
            };
        }
        Prediction {
            alternate,
            ..Prediction::cold()
        }
    }

    fn update(&mut self, actual: &TraceRecord) {
        use std::collections::hash_map::Entry as Slot;
        let key = actual.id().packed();
        let prim = self.cfg.primary_counter;
        let sec_spec = self.cfg.secondary_counter;

        // A freshly claimed entry is installed at counter zero *without*
        // crediting the installing update — the same semantics as the
        // bounded predictor's cold fill, so the two models stay in lockstep
        // on alias-free streams (the `ntp-verify` differential oracle
        // replays both and compares every prediction). The previous
        // `or_insert`-then-train shape silently gave fresh entries a head
        // start of one `on_correct`.
        let mut suppress = false;
        if self.cfg.hybrid {
            if let Some(last) = self.history.newest() {
                match self.sec.entry(last) {
                    Slot::Vacant(v) => {
                        v.insert(Entry {
                            target: key,
                            alt: 0,
                            has_alt: false,
                            ctr: Counter::new(),
                        });
                    }
                    Slot::Occupied(mut o) => {
                        let e = o.get_mut();
                        suppress = e.ctr.is_saturated(sec_spec) && e.target == key;
                        if e.target == key {
                            e.ctr.on_correct(sec_spec);
                        } else if e.ctr.on_incorrect(sec_spec) {
                            e.target = key;
                        }
                    }
                }
            }
        }

        if !suppress {
            let alternate = self.cfg.alternate;
            let path = self.key();
            match self.corr.entry(path) {
                Slot::Vacant(v) => {
                    v.insert(Entry {
                        target: key,
                        alt: 0,
                        has_alt: false,
                        ctr: Counter::new(),
                    });
                }
                Slot::Occupied(mut o) => {
                    let e = o.get_mut();
                    if e.target == key {
                        e.ctr.on_correct(prim);
                    } else if e.ctr.on_incorrect(prim) {
                        if alternate {
                            e.alt = e.target;
                            e.has_alt = true;
                        }
                        e.target = key;
                    } else if alternate {
                        e.alt = key;
                        e.has_alt = true;
                    }
                }
            }
        }

        self.history.push(key);
        if let Some(rhs) = &mut self.rhs {
            rhs.on_trace(
                &mut self.history,
                actual.call_count(),
                actual.ends_in_return(),
            );
        }
    }

    fn reset(&mut self) {
        self.history.clear();
        if let Some(rhs) = &mut self.rhs {
            rhs.clear();
        }
        self.corr.clear();
        self.sec.clear();
    }

    fn history_len(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_trace::TraceId;

    fn rec(pc: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 8, 0, false, false)
    }

    #[test]
    fn perfect_on_deterministic_cycle_after_warmup() {
        let mut p = UnboundedPredictor::new(UnboundedConfig::paper(3));
        let seq: Vec<_> = (0..5).map(|k| rec(0x0040_0000 + k * 0x40)).collect();
        for _ in 0..3 {
            for r in &seq {
                p.update(r);
            }
        }
        let mut wrong = 0;
        for _ in 0..2 {
            for r in &seq {
                if !p.predict().is_correct(r.id()) {
                    wrong += 1;
                }
                p.update(r);
            }
        }
        assert_eq!(wrong, 0);
    }

    #[test]
    fn depth_disambiguates_shared_suffix() {
        // Two contexts: X A → B and Y A → C. Depth 0 cannot separate them;
        // depth 1 can.
        let x = rec(0x0040_0000);
        let y = rec(0x0040_0040);
        let a = rec(0x0040_0080);
        let b = rec(0x0040_00C0);
        let c = rec(0x0040_0100);

        let run = |depth: usize| -> u32 {
            let mut p = UnboundedPredictor::new(UnboundedConfig {
                hybrid: false,
                rhs: None,
                ..UnboundedConfig::paper(depth)
            });
            let mut wrong = 0;
            for _ in 0..20 {
                for (ctx, succ) in [(x, b), (y, c)] {
                    p.update(&ctx);
                    p.update(&a);
                    if !p.predict().is_correct(succ.id()) {
                        wrong += 1;
                    }
                    p.update(&succ);
                }
            }
            wrong
        };
        let d0 = run(0);
        let d1 = run(1);
        assert!(d0 > 10, "depth 0 keeps mispredicting: {d0}");
        assert!(d1 <= 4, "depth 1 learns both contexts: {d1}");
    }

    #[test]
    fn hybrid_warms_up_faster_than_correlated_alone() {
        // A fresh deep context each round, but a stable last-trace
        // successor: the secondary nails it, pure correlation cannot.
        let mk = |hybrid: bool| {
            UnboundedPredictor::new(UnboundedConfig {
                hybrid,
                rhs: None,
                ..UnboundedConfig::paper(4)
            })
        };
        let a = rec(0x0040_0080);
        let b = rec(0x0040_00C0);
        let run = |mut p: UnboundedPredictor| -> u32 {
            let mut wrong = 0;
            for k in 0..50 {
                p.update(&rec(0x0041_0000 + k * 0x40)); // unique context trace
                p.update(&a);
                if !p.predict().is_correct(b.id()) {
                    wrong += 1;
                }
                p.update(&b);
            }
            wrong
        };
        let hybrid_wrong = run(mk(true));
        let corr_wrong = run(mk(false));
        assert!(
            hybrid_wrong < corr_wrong,
            "hybrid {hybrid_wrong} vs correlated {corr_wrong}"
        );
    }

    #[test]
    fn entries_grow_with_unique_paths() {
        let mut p = UnboundedPredictor::new(UnboundedConfig::paper(2));
        for k in 0..10 {
            p.update(&rec(0x0040_0000 + k * 0x40));
        }
        assert!(p.corr_entries() > 5);
        p.reset();
        assert_eq!(p.corr_entries(), 0);
    }
}
