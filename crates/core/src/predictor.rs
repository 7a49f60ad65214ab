//! The bounded, hybrid, path-based next trace predictor (§3 of the paper).
//!
//! Two tables run in parallel:
//!
//! * the **correlating table**, indexed by a DOLC hash of the path history,
//!   tagged with 10 bits of the preceding trace's hashed identifier, holding
//!   a predicted trace and a +1/−2 two-bit counter;
//! * the **secondary table**, indexed by the hashed identifier of the most
//!   recent trace alone, holding a predicted trace and a 4-bit counter.
//!
//! Selection: a saturated secondary counter wins outright (and a correct
//! saturated secondary suppresses the correlated update, keeping
//! single-successor traces out of the big table); otherwise a tag hit uses
//! the correlating table; otherwise the secondary serves as warm-start.
//!
//! # Table layout
//!
//! Each table entry is one `u64`:
//!
//! | bits  | 0–35          | 36–51 | 52–59   | 60    | 61      |
//! |-------|---------------|-------|---------|-------|---------|
//! | field | stored target | tag   | counter | valid | has-alt |
//!
//! The stored target is the 36-bit packed identifier, or its 16-bit hash
//! under [`StoredTarget::Hashed`]; secondary entries leave the tag and
//! has-alt fields zero. The fields are as wide as the widest tag and
//! counter [`PredictorConfig::try_validate`] admits, and a `const`
//! assertion below keeps them inside the word. A probe or an update
//! therefore touches one cache line per table, and
//! [`NextTracePredictor::prefetch_tables`] prefetches exactly those two
//! lines for `ntp-serve`'s shard drain; the offline replay
//! ([`crate::evaluate`], [`crate::evaluate_batch_fresh`]) issues no
//! prefetch. An all-zero word is an invalid entry, so a table starts as a
//! zeroed allocation whose pages are mapped only as entries fill. The §6
//! alternate targets live in a separate array that is allocated only when
//! alternate prediction is on.

use crate::config::MAX_TAG_BITS;
use crate::counter::MAX_COUNTER_BITS;
use crate::{
    Counter, PathHistory, Prediction, PredictorConfig, ReturnHistoryStack, Source, StoredTarget,
    Target, TracePredictor,
};
use ntp_trace::{HashedId, TraceId, TraceRecord, HASHED_ID_BITS, TRACE_ID_BITS};
use std::fmt;

const KEY_MASK: u64 = (1 << TRACE_ID_BITS) - 1;
const TAG_SHIFT: u32 = TRACE_ID_BITS;
const TAG_MASK: u64 = ((1 << MAX_TAG_BITS) - 1) << TAG_SHIFT;
const CTR_SHIFT: u32 = TAG_SHIFT + MAX_TAG_BITS;
const CTR_MASK: u64 = ((1 << MAX_COUNTER_BITS) - 1) << CTR_SHIFT;
const VALID: u64 = 1 << (CTR_SHIFT + MAX_COUNTER_BITS);
const HAS_ALT: u64 = VALID << 1;

// Every field width `try_validate` admits (a 16-bit tag, an 8-bit counter,
// the 36-bit packed identifier or a 16-bit hash) plus the two flags must
// fit in the word: widening a limit there fails the build here.
const _: () = {
    assert!(TRACE_ID_BITS + MAX_TAG_BITS + MAX_COUNTER_BITS + 2 <= u64::BITS);
    assert!(HASHED_ID_BITS <= TRACE_ID_BITS);
};

/// One table entry, packed into a word as the module docs lay out.
#[derive(Copy, Clone)]
struct Entry(u64);

impl Entry {
    /// A freshly claimed entry: valid, counter zero, no alternate.
    #[inline(always)]
    fn fill(key: u64, tag: u16) -> Entry {
        Entry(VALID | (tag as u64) << TAG_SHIFT | key)
    }

    /// Packs every field; `key` must fit in 36 bits.
    fn pack(key: u64, tag: u16, ctr: u8, valid: bool, has_alt: bool) -> Entry {
        let flags = if valid { VALID } else { 0 } | if has_alt { HAS_ALT } else { 0 };
        Entry(flags | (ctr as u64) << CTR_SHIFT | (tag as u64) << TAG_SHIFT | key)
    }

    #[inline(always)]
    fn is_valid(self) -> bool {
        self.0 & VALID != 0
    }

    /// Valid and tagged `tag`, in one compare.
    #[inline(always)]
    fn hits(self, tag: u16) -> bool {
        self.0 & (VALID | TAG_MASK) == VALID | (tag as u64) << TAG_SHIFT
    }

    #[inline(always)]
    fn has_alt(self) -> bool {
        self.0 & HAS_ALT != 0
    }

    #[inline(always)]
    fn key(self) -> u64 {
        self.0 & KEY_MASK
    }

    #[inline(always)]
    fn tag(self) -> u16 {
        (self.0 >> TAG_SHIFT) as u16
    }

    #[inline(always)]
    fn ctr(self) -> Counter {
        Counter::from_value((self.0 >> CTR_SHIFT) as u8)
    }

    #[inline(always)]
    fn with_key(self, key: u64) -> Entry {
        Entry(self.0 & !KEY_MASK | key)
    }

    #[inline(always)]
    fn with_ctr(self, ctr: Counter) -> Entry {
        Entry(self.0 & !CTR_MASK | (ctr.value() as u64) << CTR_SHIFT)
    }

    #[inline(always)]
    fn with_alt(self) -> Entry {
        Entry(self.0 | HAS_ALT)
    }
}

/// One predictor table: an [`Entry`] word per slot, plus a running count
/// of valid slots so that occupancy is O(1).
struct Table {
    words: Vec<u64>,
    valid: u64,
}

impl Table {
    fn new(entries: usize) -> Table {
        Table {
            words: vec![0; entries],
            valid: 0,
        }
    }

    fn len(&self) -> usize {
        self.words.len()
    }

    #[inline(always)]
    fn get(&self, i: usize) -> Entry {
        Entry(self.words[i])
    }

    #[inline(always)]
    fn set(&mut self, i: usize, e: Entry) {
        self.words[i] = e.0;
    }

    /// Writes `e` into the invalid slot `i`. A cold fill is the only way
    /// an entry turns valid, so this is where the count moves.
    #[inline(always)]
    fn claim(&mut self, i: usize, e: Entry) {
        self.valid += 1;
        self.set(i, e);
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.valid = 0;
    }

    /// Overwrites every slot, in order, and recounts the valid ones.
    fn load(&mut self, entries: impl Iterator<Item = Entry>) {
        for (w, e) in self.words.iter_mut().zip(entries) {
            *w = e.0;
        }
        self.valid = self.words.iter().filter(|&&w| Entry(w).is_valid()).count() as u64;
    }

    fn entries(&self) -> impl Iterator<Item = Entry> + '_ {
        self.words.iter().map(|&w| Entry(w))
    }

    /// The slots whose `flag` bit is set, as a bitmap of 64 slots per word.
    fn bitmap(&self, flag: u64) -> Vec<u64> {
        self.words
            .chunks(64)
            .map(|chunk| {
                chunk
                    .iter()
                    .enumerate()
                    .fold(0, |bits, (i, &w)| bits | u64::from(w & flag != 0) << i)
            })
            .collect()
    }
}

/// Bit `i` of a bitmap of 64 entries per word.
fn bit(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 != 0
}

/// Issues a best-effort prefetch for the cache line holding `*ptr`.
/// A hint only — never a memory access — and a no-op off x86_64.
#[inline(always)]
fn prefetch_read<T>(ptr: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure hint; it performs no access and is safe
    // for any address, valid or not.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Table indexes captured at prediction time.
///
/// In a real pipeline the table entry trained at retirement is the one read
/// at prediction; capturing the indexes (rather than recomputing them from a
/// possibly-repaired history) models that. Immediate-update callers never
/// see this type — [`TracePredictor::update`] captures and consumes one
/// internally.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexSnapshot {
    corr_index: u32,
    tag: u16,
    sec_index: u32,
}

/// Table-pressure counters accumulated on the training path.
///
/// A *steal* replaces a valid correlating entry whose tag belonged to a
/// different path — destructive aliasing, the effect §5.2's unbounded model
/// removes. A *cold fill* claims a never-used entry. The ratio of steals to
/// fills is the direct measure of how undersized the table is for a
/// workload.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct AliasingCounters {
    /// Valid correlating entries overwritten for a different path (tag
    /// mismatch).
    pub steals: u64,
    /// Invalid correlating entries claimed for the first time.
    pub cold_fills: u64,
    /// Secondary entries claimed for the first time.
    pub sec_fills: u64,
}

/// Point-in-time valid-entry counts for both tables.
///
/// Captured by [`NextTracePredictor::occupancy`] from running counts, so
/// it is O(1) and cheap enough for live reporting.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TableOccupancy {
    /// Valid correlating-table entries.
    pub corr_valid: u64,
    /// Correlating-table capacity.
    pub corr_capacity: u64,
    /// Valid secondary-table entries.
    pub sec_valid: u64,
    /// Secondary-table capacity.
    pub sec_capacity: u64,
}

impl TableOccupancy {
    /// Correlating-table fill fraction in [0, 1].
    pub fn corr_fraction(&self) -> f64 {
        if self.corr_capacity == 0 {
            0.0
        } else {
            self.corr_valid as f64 / self.corr_capacity as f64
        }
    }

    /// Secondary-table fill fraction in [0, 1].
    pub fn sec_fraction(&self) -> f64 {
        if self.sec_capacity == 0 {
            0.0
        } else {
            self.sec_valid as f64 / self.sec_capacity as f64
        }
    }
}

/// The complete learned state of a [`NextTracePredictor`] as plain data.
///
/// Produced by [`NextTracePredictor::save_state`] and consumed by
/// [`NextTracePredictor::restore_state`]; every field is a dense array or
/// scalar so an external codec (the on-disk `.nts` snapshot format) can
/// serialize it without reaching into predictor internals. Restoring into
/// a predictor built with the *same configuration* reproduces the original
/// bit-for-bit: identical predictions, counters, occupancy and aliasing
/// statistics from that point on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PredictorState {
    /// Correlating-table tags, one per entry.
    pub corr_tags: Vec<u16>,
    /// Correlating-table counter values, one per entry.
    pub corr_ctrs: Vec<u8>,
    /// Correlating-table stored targets, one per entry.
    pub corr_targets: Vec<u64>,
    /// Correlating-table alternate targets (§6), one per entry.
    pub corr_alts: Vec<u64>,
    /// Correlating-table validity bitmap, 64 entries per word.
    pub corr_valid: Vec<u64>,
    /// Correlating-table alternate-present bitmap, 64 entries per word.
    pub corr_has_alt: Vec<u64>,
    /// Secondary-table stored targets, one per entry.
    pub sec_targets: Vec<u64>,
    /// Secondary-table counter values, one per entry.
    pub sec_ctrs: Vec<u8>,
    /// Secondary-table validity bitmap, 64 entries per word.
    pub sec_valid: Vec<u64>,
    /// Path-history register, newest first, as raw hashed identifiers.
    pub history: Vec<u16>,
    /// Return-history-stack snapshots, oldest call first; empty when the
    /// RHS is disabled.
    pub rhs: Vec<Vec<u16>>,
    /// Training-path aliasing counters: `[steals, cold_fills, sec_fills]`.
    pub aliasing: [u64; 3],
}

/// Why a [`PredictorState`] was refused by
/// [`NextTracePredictor::restore_state`].
///
/// Restoration is all-or-nothing: a refused state leaves the predictor
/// exactly as it was (cold-start fallback is the caller's decision).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateError {
    /// An array has the wrong length for the predictor's configuration.
    Geometry {
        /// Which array.
        field: &'static str,
        /// Length the configuration requires.
        expected: usize,
        /// Length the state carried.
        found: usize,
    },
    /// A stored value exceeds what the configuration can represent.
    Value {
        /// Which array.
        field: &'static str,
        /// Offending element index.
        index: usize,
        /// The out-of-range value.
        value: u64,
        /// The configuration's maximum for this field.
        max: u64,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Geometry {
                field,
                expected,
                found,
            } => write!(
                f,
                "state geometry mismatch: {field} has {found} elements, config requires {expected}"
            ),
            StateError::Value {
                field,
                index,
                value,
                max,
            } => write!(
                f,
                "state value out of range: {field}[{index}] = {value} exceeds config maximum {max}"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// Checks that any bits beyond `entries` in the final bitmap word are zero
/// (a corrupted tail names entries the table does not have).
fn check_bitmap(field: &'static str, words: &[u64], entries: usize) -> Result<(), StateError> {
    let expected = entries.div_ceil(64);
    if words.len() != expected {
        return Err(StateError::Geometry {
            field,
            expected,
            found: words.len(),
        });
    }
    let tail = entries % 64;
    if tail != 0 {
        let last = words[expected - 1];
        if last >> tail != 0 {
            return Err(StateError::Value {
                field,
                index: expected - 1,
                value: last,
                max: (1u64 << tail) - 1,
            });
        }
    }
    Ok(())
}

fn check_len<T>(field: &'static str, got: &[T], expected: usize) -> Result<(), StateError> {
    if got.len() != expected {
        return Err(StateError::Geometry {
            field,
            expected,
            found: got.len(),
        });
    }
    Ok(())
}

fn check_max(field: &'static str, values: &[u64], max: u64) -> Result<(), StateError> {
    if let Some(index) = values.iter().position(|&v| v > max) {
        return Err(StateError::Value {
            field,
            index,
            value: values[index],
            max,
        });
    }
    Ok(())
}

/// The bounded hybrid path-based next trace predictor.
///
/// # Examples
///
/// ```
/// use ntp_core::{NextTracePredictor, PredictorConfig, TracePredictor};
/// use ntp_trace::TraceRecord;
///
/// let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 7));
/// let pred = p.predict();
/// assert!(pred.target.is_none(), "cold predictor has no opinion");
/// ```
pub struct NextTracePredictor {
    cfg: PredictorConfig,
    history: PathHistory<HashedId>,
    rhs: Option<ReturnHistoryStack<HashedId>>,
    /// The correlating table, indexed by the DOLC hash.
    corr: Table,
    /// Alternate targets (§6), one per correlating entry; empty unless
    /// `cfg.alternate`.
    alts: Vec<u64>,
    /// The secondary table, indexed by the newest hashed identifier alone.
    sec: Table,
    aliasing: AliasingCounters,
    /// Table indexes implied by the current history, recomputed once per
    /// history change (push/merge/restore) instead of a gather+fold per
    /// [`TracePredictor::predict`] *and* [`TracePredictor::update`] — the
    /// incremental DOLC hot-path optimisation.
    cached_idx: IndexSnapshot,
}

impl NextTracePredictor {
    /// Builds a predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PredictorConfig::validate`]).
    pub fn new(cfg: PredictorConfig) -> NextTracePredictor {
        match NextTracePredictor::try_new(cfg) {
            Ok(p) => p,
            Err(e) => panic!("invalid predictor config: {e}"),
        }
    }

    /// Builds a predictor, rejecting invalid configurations with a typed
    /// [`crate::ConfigError`] instead of panicking — the entry point for
    /// front ends handed an arbitrary (possibly hostile) configuration.
    pub fn try_new(cfg: PredictorConfig) -> Result<NextTracePredictor, crate::ConfigError> {
        cfg.try_validate()?;
        let mut p = NextTracePredictor {
            history: PathHistory::new(cfg.history_capacity()),
            rhs: cfg.rhs.map(ReturnHistoryStack::new),
            corr: Table::new(cfg.corr_entries()),
            alts: if cfg.alternate {
                vec![0; cfg.corr_entries()]
            } else {
                Vec::new()
            },
            sec: Table::new(cfg.secondary_entries()),
            aliasing: AliasingCounters::default(),
            cfg,
            cached_idx: IndexSnapshot::default(),
        };
        p.refresh_indices();
        Ok(p)
    }

    /// The configuration in force.
    pub fn config(&self) -> &PredictorConfig {
        &self.cfg
    }

    /// The key under which `id` would be stored (full packed identifier or
    /// its hash, per [`StoredTarget`]).
    #[inline]
    fn key_of(&self, id: TraceId) -> u64 {
        match self.cfg.stored_target {
            StoredTarget::Full => id.packed(),
            StoredTarget::Hashed => id.hashed().0 as u64,
        }
    }

    #[inline]
    fn target_of(&self, key: u64) -> Target {
        match self.cfg.stored_target {
            StoredTarget::Full => Target::Full(TraceId::from_packed(key)),
            StoredTarget::Hashed => Target::Hashed(HashedId(key as u16)),
        }
    }

    /// The table indexes implied by the current history.
    ///
    /// This is a cached copy maintained across history changes: the
    /// gather-and-XOR-fold of [`Dolc::index`](crate::Dolc::index) runs once
    /// per retired trace, at push time, rather than once per `predict`
    /// *and* once per `update`.
    pub fn indices(&self) -> IndexSnapshot {
        self.cached_idx
    }

    /// Recomputes [`NextTracePredictor::indices`] from the history
    /// register; called after every history mutation.
    #[inline]
    fn refresh_indices(&mut self) {
        let corr_index = self.cfg.dolc.index(&self.history, self.cfg.index_bits);
        let newest = self.history.newest().unwrap_or_default();
        self.cached_idx = IndexSnapshot {
            corr_index,
            tag: newest.low_bits(self.cfg.tag_bits) as u16,
            sec_index: newest.low_bits(self.cfg.secondary_index_bits),
        };
    }

    /// Hints the cache that the two table entries named by the current
    /// index snapshot are about to be probed. `ntp-serve`'s shard drain
    /// issues this across many sessions before resolving any of them, so
    /// the gathers overlap instead of serializing on each miss. A pure
    /// hint: no-op off x86_64, never changes behaviour.
    #[inline]
    pub fn prefetch_tables(&self) {
        prefetch_read(&self.corr.words[self.cached_idx.corr_index as usize]);
        prefetch_read(&self.sec.words[self.cached_idx.sec_index as usize]);
    }

    /// Predicts using previously captured indexes (the engine's read port).
    #[inline]
    pub fn predict_at(&self, idx: IndexSnapshot) -> Prediction {
        let c = idx.corr_index as usize;
        let ce = self.corr.get(c);
        let se = self.sec.get(idx.sec_index as usize);
        let corr_usable = ce.hits(idx.tag);
        let sec_valid = se.is_valid();
        let sec_wins = sec_valid && se.ctr().is_saturated(self.cfg.secondary_counter);

        let alternate = if self.cfg.alternate && corr_usable && ce.has_alt() {
            Some(self.target_of(self.alts[c]))
        } else {
            None
        };

        if sec_wins || !corr_usable {
            if sec_valid {
                Prediction {
                    target: Some(self.target_of(se.key())),
                    alternate,
                    source: Source::Secondary,
                }
            } else if corr_usable {
                Prediction {
                    target: Some(self.target_of(ce.key())),
                    alternate,
                    source: Source::Correlated,
                }
            } else {
                Prediction {
                    alternate,
                    ..Prediction::cold()
                }
            }
        } else {
            Prediction {
                target: Some(self.target_of(ce.key())),
                alternate,
                source: Source::Correlated,
            }
        }
    }

    /// Trains the tables for the prediction made at `idx`, given the trace
    /// that actually executed. Does not touch the history register.
    #[inline]
    pub fn train_at(&mut self, idx: IndexSnapshot, actual: &TraceRecord) {
        let key = self.key_of(actual.id());
        let sec_spec = self.cfg.secondary_counter;
        let prim_spec = self.cfg.primary_counter;

        // Evaluate suppression with the secondary's *pre-update* state.
        let s = idx.sec_index as usize;
        let se = self.sec.get(s);
        let suppress_corr;
        if se.is_valid() {
            let sec_hit = se.key() == key;
            let mut ctr = se.ctr();
            let mut e = se;
            suppress_corr = sec_hit && ctr.is_saturated(sec_spec);
            if sec_hit {
                ctr.on_correct(sec_spec);
            } else if ctr.on_incorrect(sec_spec) {
                e = e.with_key(key);
            }
            self.sec.set(s, e.with_ctr(ctr));
        } else {
            suppress_corr = false;
            self.sec.claim(s, Entry::fill(key, 0));
            self.aliasing.sec_fills += 1;
        }

        if suppress_corr {
            return;
        }

        let alternate = self.cfg.alternate;
        let c = idx.corr_index as usize;
        let ce = self.corr.get(c);
        if ce.hits(idx.tag) {
            let mut ctr = ce.ctr();
            let mut e = ce;
            if ce.key() == key {
                ctr.on_correct(prim_spec);
            } else if ctr.on_incorrect(prim_spec) {
                // Counter was zero: demote the old target to the alternate
                // slot and install the actual trace (§6).
                if alternate {
                    self.alts[c] = ce.key();
                    e = e.with_alt();
                }
                e = e.with_key(key);
            } else if alternate {
                self.alts[c] = key;
                e = e.with_alt();
            }
            self.corr.set(c, e.with_ctr(ctr));
        } else {
            // Invalid or aliased by a different path: steal the entry.
            if alternate {
                self.alts[c] = 0;
            }
            let e = Entry::fill(key, idx.tag);
            if ce.is_valid() {
                self.corr.set(c, e);
                self.aliasing.steals += 1;
            } else {
                self.corr.claim(c, e);
                self.aliasing.cold_fills += 1;
            }
        }
    }

    /// Shifts `trace` into the path history and performs return-history-
    /// stack pushes/pops. In immediate-update mode this runs at update; the
    /// engine runs it speculatively at fetch with the *predicted* trace.
    #[inline]
    pub fn advance_history(&mut self, id: TraceId, calls: u8, ends_in_return: bool) {
        self.history.push(id.hashed());
        if let Some(rhs) = &mut self.rhs {
            rhs.on_trace(&mut self.history, calls, ends_in_return);
        }
        self.refresh_indices();
    }

    /// Read access to the path history (for tests and diagnostics).
    pub fn history(&self) -> &PathHistory<HashedId> {
        &self.history
    }

    /// Training-path aliasing counters accumulated since construction (or
    /// the last [`TracePredictor::reset`]).
    pub fn aliasing(&self) -> AliasingCounters {
        self.aliasing
    }

    /// Reports valid-entry counts for both tables, kept as running counts:
    /// O(1).
    pub fn occupancy(&self) -> TableOccupancy {
        TableOccupancy {
            corr_valid: self.corr.valid,
            corr_capacity: self.corr.len() as u64,
            sec_valid: self.sec.valid,
            sec_capacity: self.sec.len() as u64,
        }
    }

    /// Captures the complete learned state — both tables with their
    /// bitmaps, the path history, the return history stack and the
    /// aliasing counters — as plain data for external serialization.
    pub fn save_state(&self) -> PredictorState {
        PredictorState {
            corr_tags: self.corr.entries().map(Entry::tag).collect(),
            corr_ctrs: self.corr.entries().map(|e| e.ctr().value()).collect(),
            corr_targets: self.corr.entries().map(Entry::key).collect(),
            corr_alts: if self.cfg.alternate {
                self.alts.clone()
            } else {
                vec![0; self.corr.len()]
            },
            corr_valid: self.corr.bitmap(VALID),
            corr_has_alt: self.corr.bitmap(HAS_ALT),
            sec_targets: self.sec.entries().map(Entry::key).collect(),
            sec_ctrs: self.sec.entries().map(|e| e.ctr().value()).collect(),
            sec_valid: self.sec.bitmap(VALID),
            history: self.history.snapshot().iter().map(|h| h.0).collect(),
            rhs: self
                .rhs
                .as_ref()
                .map(ReturnHistoryStack::snapshot)
                .unwrap_or_default()
                .iter()
                .map(|saved| saved.iter().map(|h| h.0).collect())
                .collect(),
            aliasing: [
                self.aliasing.steals,
                self.aliasing.cold_fills,
                self.aliasing.sec_fills,
            ],
        }
    }

    /// Restores a state captured by [`NextTracePredictor::save_state`] into
    /// a predictor built with the *same* configuration, reproducing the
    /// saved predictor bit-for-bit.
    ///
    /// Every array is validated against the configuration's geometry and
    /// value ranges *before* anything is written, so a refused state (wrong
    /// table sizes, counter values past saturation, tags wider than
    /// `tag_bits`, targets wider than the stored identifier, alternates
    /// with alternate prediction off, bitmap tail bits beyond the table, an
    /// RHS deeper than configured or an RHS entry longer than the history
    /// register) leaves the predictor untouched. Config mismatches between
    /// a snapshot file and the serving predictor are meant to be caught
    /// earlier by the codec's fingerprint; this layer is the final defence.
    pub fn restore_state(&mut self, state: &PredictorState) -> Result<(), StateError> {
        let corr_n = self.corr.len();
        let sec_n = self.sec.len();
        check_len("corr_tags", &state.corr_tags, corr_n)?;
        check_len("corr_ctrs", &state.corr_ctrs, corr_n)?;
        check_len("corr_targets", &state.corr_targets, corr_n)?;
        check_len("corr_alts", &state.corr_alts, corr_n)?;
        check_bitmap("corr_valid", &state.corr_valid, corr_n)?;
        check_bitmap("corr_has_alt", &state.corr_has_alt, corr_n)?;
        check_len("sec_targets", &state.sec_targets, sec_n)?;
        check_len("sec_ctrs", &state.sec_ctrs, sec_n)?;
        check_bitmap("sec_valid", &state.sec_valid, sec_n)?;

        let prim_max = self.cfg.primary_counter.max() as u64;
        if let Some(index) = state.corr_ctrs.iter().position(|&v| v as u64 > prim_max) {
            return Err(StateError::Value {
                field: "corr_ctrs",
                index,
                value: state.corr_ctrs[index] as u64,
                max: prim_max,
            });
        }
        let sec_max = self.cfg.secondary_counter.max() as u64;
        if let Some(index) = state.sec_ctrs.iter().position(|&v| v as u64 > sec_max) {
            return Err(StateError::Value {
                field: "sec_ctrs",
                index,
                value: state.sec_ctrs[index] as u64,
                max: sec_max,
            });
        }
        if self.cfg.tag_bits < 16 {
            let tag_max = (1u64 << self.cfg.tag_bits) - 1;
            if let Some(index) = state.corr_tags.iter().position(|&t| t as u64 > tag_max) {
                return Err(StateError::Value {
                    field: "corr_tags",
                    index,
                    value: state.corr_tags[index] as u64,
                    max: tag_max,
                });
            }
        }
        // A wider target would be predicted masked (or truncated, when
        // hashed) but trained unmasked: hit and miss on the same step.
        let key_max = match self.cfg.stored_target {
            StoredTarget::Full => KEY_MASK,
            StoredTarget::Hashed => u16::MAX as u64,
        };
        let alt_max = if self.cfg.alternate { key_max } else { 0 };
        check_max("corr_targets", &state.corr_targets, key_max)?;
        check_max("corr_alts", &state.corr_alts, alt_max)?;
        check_max("sec_targets", &state.sec_targets, key_max)?;
        if !self.cfg.alternate {
            check_max("corr_has_alt", &state.corr_has_alt, 0)?;
        }
        if state.history.len() > self.history.capacity() {
            return Err(StateError::Geometry {
                field: "history",
                expected: self.history.capacity(),
                found: state.history.len(),
            });
        }
        match (&self.rhs, self.cfg.rhs) {
            (Some(_), Some(rhs_cfg)) => {
                if state.rhs.len() > rhs_cfg.max_depth {
                    return Err(StateError::Geometry {
                        field: "rhs",
                        expected: rhs_cfg.max_depth,
                        found: state.rhs.len(),
                    });
                }
                // Each entry is a saved history register, so it is no
                // longer than the register (and `try_validate` keeps the
                // register within an RHS snapshot).
                for saved in &state.rhs {
                    if saved.len() > self.history.capacity() {
                        return Err(StateError::Geometry {
                            field: "rhs entry",
                            expected: self.history.capacity(),
                            found: saved.len(),
                        });
                    }
                }
            }
            _ => {
                if !state.rhs.is_empty() {
                    return Err(StateError::Geometry {
                        field: "rhs",
                        expected: 0,
                        found: state.rhs.len(),
                    });
                }
            }
        }

        // Everything checked; from here on the restore cannot fail.
        self.corr.load((0..corr_n).map(|i| {
            Entry::pack(
                state.corr_targets[i],
                state.corr_tags[i],
                state.corr_ctrs[i],
                bit(&state.corr_valid, i),
                bit(&state.corr_has_alt, i),
            )
        }));
        if self.cfg.alternate {
            self.alts.copy_from_slice(&state.corr_alts);
        }
        self.sec.load((0..sec_n).map(|i| {
            Entry::pack(
                state.sec_targets[i],
                0,
                state.sec_ctrs[i],
                bit(&state.sec_valid, i),
                false,
            )
        }));
        let history: Vec<HashedId> = state.history.iter().map(|&h| HashedId(h)).collect();
        self.history.restore(&history);
        if let Some(rhs) = &mut self.rhs {
            rhs.restore(
                state
                    .rhs
                    .iter()
                    .map(|saved| saved.iter().map(|&h| HashedId(h)).collect())
                    .collect(),
            );
        }
        self.aliasing = AliasingCounters {
            steals: state.aliasing[0],
            cold_fills: state.aliasing[1],
            sec_fills: state.aliasing[2],
        };
        self.refresh_indices();
        Ok(())
    }
}

// `evaluate` is generic, so it is compiled in its caller's crate; without
// `#[inline]` on this chain (predict/update, the `*_at` ports, the history
// advance, `Dolc::index`, the RHS, `PredictorStats::score`) every replayed
// record would make eight out-of-line calls back into this crate.
impl TracePredictor for NextTracePredictor {
    #[inline]
    fn predict(&self) -> Prediction {
        self.predict_at(self.indices())
    }

    #[inline]
    fn update(&mut self, actual: &TraceRecord) {
        let idx = self.indices();
        self.train_at(idx, actual);
        self.advance_history(actual.id(), actual.call_count(), actual.ends_in_return());
    }

    fn reset(&mut self) {
        self.history.clear();
        if let Some(rhs) = &mut self.rhs {
            rhs.clear();
        }
        self.corr.clear();
        self.alts.fill(0);
        self.sec.clear();
        self.aliasing = AliasingCounters::default();
        self.refresh_indices();
    }

    fn history_len(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_trace::TraceId;

    fn rec(pc: u32, bits: u8, n: u8) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, bits, n), 8, 0, false, false)
    }

    fn rec_callret(pc: u32, calls: u8, ret: bool) -> TraceRecord {
        TraceRecord::new(TraceId::new(pc, 0, 0), 8, calls, ret, ret)
    }

    fn cfg_small() -> PredictorConfig {
        PredictorConfig {
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 3)
        }
    }

    #[test]
    fn learns_a_repeating_sequence() {
        let mut p = NextTracePredictor::new(cfg_small());
        let seq = [
            rec(0x0040_0000, 0b01, 2),
            rec(0x0040_0100, 0b10, 2),
            rec(0x0040_0200, 0b00, 1),
        ];
        for _ in 0..3 {
            for r in &seq {
                p.update(r);
            }
        }
        // Going around again, every successor should be predicted.
        for k in 0..6 {
            let next = seq[k % 3];
            let pred = p.predict();
            assert!(pred.is_correct(next.id()), "step {k}: {pred:?}");
            p.update(&next);
        }
    }

    #[test]
    fn secondary_serves_cold_correlated_entries() {
        // Depth-3 paths take several visits to warm; the secondary predictor
        // (indexed by last trace only) learns after one visit.
        let mut p = NextTracePredictor::new(cfg_small());
        let a = rec(0x0040_0004, 0, 0);
        let b = rec(0x0040_0128, 0, 0);
        p.update(&a);
        p.update(&b); // secondary now knows a → b
                      // New path context (different older history) but same last trace.
        p.update(&rec(0x0040_1450, 0, 0));
        p.update(&a);
        let pred = p.predict();
        assert_eq!(pred.source, Source::Secondary);
        assert!(pred.is_correct(b.id()));
    }

    #[test]
    fn saturated_secondary_suppresses_correlated_update() {
        let mut p = NextTracePredictor::new(cfg_small());
        let b = rec(0x0040_0400, 0, 0);
        let c = rec(0x0040_0800, 0, 0);
        // Fixed (empty-history) context; saturate the secondary on b.
        let idx = p.indices();
        for _ in 0..20 {
            p.train_at(idx, &b);
        }
        let pred = p.predict_at(idx);
        assert_eq!(pred.source, Source::Secondary);
        assert!(pred.is_correct(b.id()));

        // Plant a sentinel in the correlated slot; a suppressed update must
        // leave it untouched.
        let ci = idx.corr_index as usize;
        assert!(p.corr.get(ci).is_valid(), "the first update cold-filled it");
        p.corr.set(ci, Entry::fill(12345, idx.tag));
        p.train_at(idx, &b); // secondary saturated AND correct ⇒ suppressed
        assert_eq!(p.corr.get(ci).key(), 12345);

        p.train_at(idx, &c); // secondary wrong ⇒ correlated trains (replace at ctr 0)
        assert_eq!(p.corr.get(ci).key(), p.key_of(c.id()));
    }

    #[test]
    fn counter_protects_against_single_anomaly() {
        let mut p = NextTracePredictor::new(PredictorConfig {
            rhs: None,
            secondary_index_bits: 8,
            secondary_counter: crate::CounterSpec {
                bits: 4,
                inc: 1,
                dec: 8,
            },
            ..PredictorConfig::paper(12, 0)
        });
        let a = rec(0x0040_0000, 0, 0);
        let b = rec(0x0040_0400, 0, 0);
        let z = rec(0x0040_0800, 0, 0);
        // Teach a → b until confident (counter ≥ 2).
        p.update(&a);
        for _ in 0..4 {
            p.update(&b);
            p.update(&a);
        }
        // One anomalous successor.
        p.update(&z);
        p.update(&a);
        let pred = p.predict();
        assert!(
            pred.is_correct(b.id()),
            "one anomaly must not replace a confident target: {pred:?}"
        );
    }

    #[test]
    fn rhs_disambiguates_return_successors_by_caller() {
        // Two call sites invoke the same long subroutine; the trace after
        // the return depends on the caller. The subroutine is longer than
        // the history, so without the RHS the post-return context is
        // caller-independent and the successor is unpredictable; with the
        // RHS the pre-call path is restored and both successors are learned.
        let cfg = PredictorConfig::paper(12, 3);
        let subs: Vec<_> = (0..6).map(|k| rec(0x0040_1004 + k * 0x34, 0, 0)).collect();
        let ret = rec_callret(0x0040_2008, 0, true);
        let x1 = rec(0x0040_0004, 0, 0);
        let call_x = rec_callret(0x0040_0250, 1, false);
        let after_x = rec(0x0040_0374, 0, 0);
        let y1 = rec(0x0040_0528, 0, 0);
        let call_y = rec_callret(0x0040_0650, 1, false);
        let after_y = rec(0x0040_0794, 0, 0);

        let mispredicts = |p: &mut NextTracePredictor| -> u32 {
            let mut wrong = 0;
            for round in 0..12 {
                for (one, call, after) in [(x1, call_x, after_x), (y1, call_y, after_y)] {
                    p.update(&one);
                    p.update(&call);
                    for s in &subs {
                        p.update(s);
                    }
                    p.update(&ret);
                    let pred = p.predict();
                    if round >= 2 && !pred.is_correct(after.id()) {
                        wrong += 1;
                    }
                    p.update(&after);
                }
            }
            wrong
        };
        let with = mispredicts(&mut NextTracePredictor::new(cfg));
        let without = mispredicts(&mut NextTracePredictor::new(PredictorConfig {
            rhs: None,
            ..cfg
        }));
        assert_eq!(with, 0, "RHS predictor learns both return successors");
        assert!(
            without >= 10,
            "without the RHS the post-return context is ambiguous: {without}"
        );
    }

    #[test]
    fn alternate_tracks_second_choice() {
        let mut p = NextTracePredictor::new(PredictorConfig {
            secondary_index_bits: 8,
            // Disable secondary dominance by making saturation unreachable
            // in this short test: heavy traffic alternates successors, so
            // the 4-bit counter never saturates anyway.
            ..PredictorConfig::paper_with_alternate(12, 0)
        });
        let a = rec(0x0040_0000, 0, 0);
        let b = rec(0x0040_0400, 0, 0);
        let c = rec(0x0040_0800, 0, 0);
        // a alternates between successors b and c.
        p.update(&a);
        for _ in 0..8 {
            p.update(&b);
            p.update(&a);
            p.update(&c);
            p.update(&a);
        }
        let pred = p.predict();
        let (Some(t), Some(alt)) = (pred.target, pred.alternate) else {
            panic!("expected primary and alternate: {pred:?}");
        };
        let covers = |x: Target| x.matches(b.id()) || x.matches(c.id());
        assert!(covers(t) && covers(alt));
        assert_ne!(t, alt, "alternate differs from primary");
    }

    #[test]
    fn cost_reduced_predictor_matches_on_hash() {
        let mut p = NextTracePredictor::new(PredictorConfig {
            stored_target: StoredTarget::Hashed,
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 1)
        });
        let a = rec(0x0040_0000, 0, 0);
        let b = rec(0x0040_0400, 0, 0);
        for _ in 0..3 {
            p.update(&a);
            p.update(&b);
        }
        p.update(&a);
        let pred = p.predict();
        assert!(matches!(pred.target, Some(Target::Hashed(_))));
        assert!(pred.is_correct(b.id()));
    }

    #[test]
    fn aliasing_counters_split_fills_from_steals() {
        // A tiny 2^1-entry correlating table forces steals quickly.
        let mut p = NextTracePredictor::new(PredictorConfig {
            index_bits: 1,
            dolc: crate::Dolc {
                depth: 3,
                older: 4,
                last: 6,
                current: 8,
            },
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 3)
        });
        for k in 0..64u32 {
            p.update(&rec(0x0040_0000 + k * 0x40, 0, 0));
        }
        let a = p.aliasing();
        assert!(a.cold_fills >= 1, "{a:?}");
        assert!(a.cold_fills <= 2, "only two entries can fill cold: {a:?}");
        assert!(a.steals > 0, "64 distinct paths through 2 entries: {a:?}");
        assert!(a.sec_fills > 0, "{a:?}");

        let occ = p.occupancy();
        assert_eq!(occ.corr_capacity, 2);
        assert_eq!(occ.corr_valid, 2);
        assert!((occ.corr_fraction() - 1.0).abs() < 1e-12);
        assert!(occ.sec_valid > 0 && occ.sec_valid <= occ.sec_capacity);

        p.reset();
        assert_eq!(p.aliasing(), AliasingCounters::default());
        assert_eq!(p.occupancy().corr_valid, 0);
    }

    #[test]
    fn occupancy_popcount_matches_per_entry_scan() {
        // The running counts must agree with the plain definition: the
        // number of set bits in the saved validity bitmaps.
        let popcount = |words: &[u64]| words.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        let check = |p: &NextTracePredictor, when: &str| {
            let occ = p.occupancy();
            let state = p.save_state();
            assert_eq!(occ.corr_valid, popcount(&state.corr_valid), "{when}");
            assert_eq!(occ.sec_valid, popcount(&state.sec_valid), "{when}");
            assert_eq!(occ.corr_capacity, state.corr_tags.len() as u64, "{when}");
            assert_eq!(occ.sec_capacity, state.sec_ctrs.len() as u64, "{when}");
            occ
        };
        let mut p = NextTracePredictor::new(cfg_small());
        for k in 0..500u32 {
            p.update(&rec(0x0040_0000 + (k % 211) * 0x40, 0, 0));
        }
        let occ = check(&p, "after training");
        assert!(occ.corr_valid > 0 && occ.sec_valid > 0);

        p.reset();
        let occ = check(&p, "after reset");
        assert_eq!((occ.corr_valid, occ.sec_valid), (0, 0));

        let mut hand = p.save_state();
        for i in [0usize, 63, 64, 4095] {
            hand.corr_valid[i >> 6] |= 1 << (i & 63);
            hand.corr_targets[i] = i as u64;
        }
        hand.sec_valid[1] = u64::MAX;
        p.restore_state(&hand).expect("hand-built state is valid");
        let occ = check(&p, "after restoring a hand-built state");
        assert_eq!((occ.corr_valid, occ.sec_valid), (4, 64));
    }

    #[test]
    fn cached_indices_always_match_recomputation() {
        // The hot path serves `indices()` from a cache refreshed at history
        // pushes; it must stay bit-identical to recomputing from scratch,
        // including across RHS pushes/merges and state restores.
        let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 7));
        let expect = |p: &NextTracePredictor| {
            let cfg = p.config();
            let newest = p.history().newest().unwrap_or_default();
            IndexSnapshot {
                corr_index: cfg.dolc.index(p.history(), cfg.index_bits),
                tag: newest.low_bits(cfg.tag_bits) as u16,
                sec_index: newest.low_bits(cfg.secondary_index_bits),
            }
        };
        assert_eq!(p.indices(), expect(&p), "fresh predictor");

        let mut seed = 0x2545F491u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let mut saved = p.save_state();
        for k in 0..400 {
            let r = rng();
            let calls = (r & 3) as u8 % 3;
            let ret = r & 4 != 0;
            let rec = TraceRecord::new(
                TraceId::new(0x0040_0000 + (r % 97) * 0x40, (r >> 8) as u8 & 0b11, 2),
                8,
                calls,
                ret,
                ret,
            );
            p.update(&rec);
            assert_eq!(p.indices(), expect(&p), "step {k}");
            if k % 67 == 0 {
                saved = p.save_state();
            }
            if k % 131 == 130 {
                p.restore_state(&saved).expect("saved state is valid");
                assert_eq!(p.indices(), expect(&p), "after restore at {k}");
            }
        }
        p.reset();
        assert_eq!(p.indices(), expect(&p), "after reset");
    }

    #[test]
    fn history_len_reports_occupancy() {
        let mut p = NextTracePredictor::new(cfg_small());
        assert_eq!(p.history_len(), 0);
        p.update(&rec(0x0040_0000, 0, 0));
        p.update(&rec(0x0040_0400, 0, 0));
        assert_eq!(p.history_len(), 2);
    }

    #[test]
    fn save_restore_state_is_bit_identical() {
        // Train one predictor, snapshot, restore into a fresh predictor,
        // then drive both in lockstep: every prediction, occupancy and
        // aliasing counter must agree from the cut point on. Every other
        // block of 64 steps replays a short loop holding the widest values
        // an entry word stores: the key 2^36−1 and the hash 0xFFFF (a
        // 16-bit tag). Each configuration checks that its extreme was
        // reached before the cut.
        let widest_key = TraceId::new(0xFFFF_FFFC, 0x3F, 6);
        let widest_hash = TraceId::new(0x0000_FFFC, 0b11, 2);
        assert_eq!(widest_key.packed(), KEY_MASK);
        assert_eq!(widest_hash.hashed(), HashedId(0xFFFF));
        let cycle = [
            widest_key,
            widest_hash,
            TraceId::new(0x0040_0100, 0, 0),
            TraceId::new(0x0040_0200, 1, 1),
        ];
        let step = |k: usize, r: u32| {
            if (k / 64) % 2 == 1 {
                return TraceRecord::new(cycle[k % cycle.len()], 8, 0, false, false);
            }
            let calls = (r & 3) as u8 % 3;
            let ret = r & 4 != 0;
            TraceRecord::new(
                TraceId::new(0x0040_0000 + (r % 131) * 0x40, (r >> 8) as u8 & 0b11, 2),
                8,
                calls,
                ret,
                ret,
            )
        };
        let paper = PredictorConfig::paper(12, 3);
        let wide = |inc| crate::CounterSpec {
            bits: 8,
            inc,
            dec: 1,
        };
        type Reached = fn(&PredictorState) -> bool;
        let cases: [(&str, PredictorConfig, Reached); 5] = [
            ("paper", paper, |s| {
                s.corr_targets.contains(&KEY_MASK) && s.sec_targets.contains(&KEY_MASK)
            }),
            (
                "16-bit tags",
                PredictorConfig {
                    tag_bits: 16,
                    ..paper
                },
                |s| s.corr_tags.contains(&0xFFFF),
            ),
            (
                "8-bit counters",
                PredictorConfig {
                    primary_counter: wide(128),
                    secondary_counter: wide(100),
                    ..paper
                },
                |s| s.corr_ctrs.contains(&255) && s.sec_ctrs.contains(&255),
            ),
            (
                "alternate",
                PredictorConfig::paper_with_alternate(12, 3),
                |s| s.corr_has_alt.iter().any(|&w| w != 0),
            ),
            (
                "hashed targets",
                PredictorConfig {
                    stored_target: StoredTarget::Hashed,
                    ..paper
                },
                |s| s.sec_targets.contains(&0xFFFF),
            ),
        ];
        for (name, cfg, reached) in cases {
            let mut trained = NextTracePredictor::new(cfg);
            let mut seed = 0x9E3779B9u64;
            let mut rng = move || {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (seed >> 33) as u32
            };
            for k in 0..700 {
                trained.update(&step(k, rng()));
            }
            let state = trained.save_state();
            assert!(reached(&state), "{name}: extreme not reached");
            let mut restored = NextTracePredictor::new(cfg);
            restored.restore_state(&state).expect("state is valid");
            assert_eq!(
                restored.save_state(),
                state,
                "{name}: save∘restore is identity"
            );
            assert_eq!(restored.aliasing(), trained.aliasing(), "{name}");
            assert_eq!(restored.occupancy(), trained.occupancy(), "{name}");
            assert_eq!(restored.indices(), trained.indices(), "{name}");
            for k in 700..1100 {
                let rec = step(k, rng());
                assert_eq!(restored.predict(), trained.predict(), "{name}: step {k}");
                trained.update(&rec);
                restored.update(&rec);
            }
            assert_eq!(restored.aliasing(), trained.aliasing(), "{name}");
            assert_eq!(restored.save_state(), trained.save_state(), "{name}");
        }
    }

    #[test]
    fn restore_state_refuses_bad_geometry_and_values() {
        for alternate in [false, true] {
            let cfg = PredictorConfig {
                alternate,
                ..cfg_small()
            };
            let mut p = NextTracePredictor::new(cfg);
            for k in 0..200u32 {
                p.update(&rec(0x0040_0000 + (k % 61) * 0x40, 0, 0));
            }
            let good = p.save_state();
            let fingerprint = p.save_state();
            let wide_id = 1u64 << ntp_trace::TRACE_ID_BITS;

            let mut wrong_len = good.clone();
            wrong_len.corr_tags.pop();
            let mut oversize_ctr = good.clone();
            oversize_ctr.sec_ctrs[0] = 200; // 4-bit counter maxes at 15
            let mut wide_tag = good.clone();
            wide_tag.corr_tags[3] = u16::MAX; // paper tag is 10 bits
            let mut deep_history = good.clone();
            deep_history.history = vec![1; 40];
            let mut deep_rhs = good.clone();
            deep_rhs.rhs = vec![vec![1; 2]; 64];
            let mut fat_rhs = good.clone();
            fat_rhs.rhs = vec![vec![1; crate::RHS_SNAPSHOT_CAP + 1]];
            let mut long_rhs = good.clone();
            long_rhs.rhs = vec![vec![1; 2], vec![1; 12]]; // the register holds 4
            let mut wide_target = good.clone();
            wide_target.corr_targets[5] |= wide_id;
            let mut wide_sec_target = good.clone();
            wide_sec_target.sec_targets[2] |= wide_id;
            let mut wide_alt = good.clone();
            wide_alt.corr_alts[7] = wide_id;
            let mut stray_alt = good.clone();
            stray_alt.corr_alts[9] = 0x40;
            let mut stray_has_alt = good.clone();
            stray_has_alt.corr_has_alt[0] |= 1 << 4;

            let mut cases = vec![
                ("truncated corr_tags", wrong_len),
                ("oversize secondary counter", oversize_ctr),
                ("tag wider than tag_bits", wide_tag),
                ("history deeper than capacity", deep_history),
                ("rhs deeper than max_depth", deep_rhs),
                ("rhs entry wider than inline cap", fat_rhs),
                (
                    "rhs entry longer than the history register",
                    long_rhs.clone(),
                ),
                ("target wider than the packed id", wide_target),
                ("secondary target wider than the packed id", wide_sec_target),
                ("alternate wider than the packed id", wide_alt),
            ];
            if !alternate {
                cases.push(("alternate word with alternate off", stray_alt));
                cases.push(("has-alt bit with alternate off", stray_has_alt));
            }
            for (name, bad) in cases {
                assert!(
                    matches!(
                        p.restore_state(&bad),
                        Err(StateError::Geometry { .. } | StateError::Value { .. })
                    ),
                    "{name} must be refused (alternate {alternate})"
                );
                assert_eq!(
                    p.save_state(),
                    fingerprint,
                    "{name}: refused restore must not mutate the predictor"
                );
            }
            assert_eq!(
                p.restore_state(&long_rhs),
                Err(StateError::Geometry {
                    field: "rhs entry",
                    expected: 4,
                    found: 12
                })
            );
            assert!(p.restore_state(&good).is_ok());
        }
    }

    #[test]
    fn restore_state_refuses_stray_bitmap_tail_bits() {
        // A 2-entry correlating table uses 2 bits of one word; any higher
        // bit is corruption that would skew occupancy popcounts.
        let cfg = PredictorConfig {
            index_bits: 1,
            dolc: crate::Dolc {
                depth: 3,
                older: 4,
                last: 6,
                current: 8,
            },
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 3)
        };
        let mut p = NextTracePredictor::new(cfg);
        p.update(&rec(0x0040_0000, 0, 0));
        let mut state = p.save_state();
        state.corr_valid[0] |= 1 << 2;
        assert!(matches!(
            p.restore_state(&state),
            Err(StateError::Value {
                field: "corr_valid",
                ..
            })
        ));
    }

    #[test]
    fn restore_state_refuses_rhs_when_disabled() {
        let cfg = PredictorConfig {
            rhs: None,
            ..cfg_small()
        };
        let mut with_rhs = NextTracePredictor::new(cfg_small());
        with_rhs.update(&rec_callret(0x0040_0100, 1, false));
        let mut state = with_rhs.save_state();
        state.rhs = vec![vec![7]];
        // Same table geometry, but the target predictor has no RHS.
        let mut p = NextTracePredictor::new(cfg);
        assert!(matches!(
            p.restore_state(&state),
            Err(StateError::Geometry { field: "rhs", .. })
        ));
    }

    #[test]
    fn restore_state_refuses_wide_hashed_targets() {
        let cfg = PredictorConfig {
            stored_target: StoredTarget::Hashed,
            secondary_index_bits: 8,
            ..PredictorConfig::paper(12, 1)
        };
        let mut p = NextTracePredictor::new(cfg);
        p.update(&rec(0x0040_0000, 0, 0));
        p.update(&rec(0x0040_0400, 0, 0));
        let mut state = p.save_state();
        state.sec_targets[0] = u16::MAX as u64 + 1;
        assert!(matches!(
            p.restore_state(&state),
            Err(StateError::Value {
                field: "sec_targets",
                ..
            })
        ));
    }

    #[test]
    fn state_error_reports_are_specific() {
        let g = StateError::Geometry {
            field: "corr_tags",
            expected: 4096,
            found: 4095,
        };
        let v = StateError::Value {
            field: "sec_ctrs",
            index: 7,
            value: 200,
            max: 15,
        };
        assert!(g.to_string().contains("corr_tags"), "{g}");
        assert!(g.to_string().contains("4095"), "{g}");
        assert!(v.to_string().contains("sec_ctrs[7]"), "{v}");
        assert!(v.to_string().contains("200"), "{v}");
    }

    #[test]
    fn reset_forgets_everything() {
        let mut p = NextTracePredictor::new(cfg_small());
        let a = rec(0x0040_0000, 0, 0);
        let b = rec(0x0040_0400, 0, 0);
        for _ in 0..3 {
            p.update(&a);
            p.update(&b);
        }
        p.reset();
        assert!(p.history().is_empty());
        let pred = p.predict();
        assert_eq!(pred.source, Source::Cold);
    }
}
