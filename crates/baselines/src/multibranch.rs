//! Realizable multiple-branch predictors: one PHT access per trace, with
//! each entry holding six two-bit counters so all embedded branches are
//! predicted simultaneously. [`TraceGshare`] (Patel, Friendly & Patt)
//! indexes the table with the trace's start PC XORed with a global branch
//! history register; [`MultiGAg`] (Yeh, Marr & Patt) with the history
//! alone.
//!
//! Because all counters are read in one access, later branches cannot see
//! the outcomes of earlier ones — the accuracy cost that motivates
//! explicit next-trace prediction.

use crate::IndirectTargetBuffer;
use ntp_isa::ControlKind;
use ntp_trace::{Trace, MAX_TRACE_BRANCHES};

/// One bit per counter of a PHT entry.
const PLANE: u16 = (1 << MAX_TRACE_BRANCHES) - 1;

/// Per-trace multiple-branch predictor statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiBranchStats {
    /// Traces observed.
    pub traces: u64,
    /// Traces with any wrong direction or indirect-target prediction.
    pub trace_mispredicts: u64,
    /// Conditional branches observed.
    pub branches: u64,
    /// Directions predicted wrong.
    pub branch_mispredicts: u64,
}

impl MultiBranchStats {
    /// Trace misprediction rate in percent.
    pub fn trace_mispredict_pct(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            100.0 * self.trace_mispredicts as f64 / self.traces as f64
        }
    }
}

/// The table, history and indirect-target buffer both single-access
/// predictors share; they differ only in the index they pass to
/// [`SixCounterTable::observe`].
///
/// An entry is one `u16` holding six two-bit counters as two planes: bit
/// `i` is counter `i`'s low bit and bit `6 + i` its high bit, which is
/// also its predicted direction. Counter `i` predicts a trace's `i`-th
/// conditional branch.
#[derive(Clone, Debug)]
struct SixCounterTable {
    entries: Vec<u16>,
    bhr: u32,
    itb: IndirectTargetBuffer,
    stats: MultiBranchStats,
}

impl SixCounterTable {
    fn new(index_bits: u32) -> SixCounterTable {
        assert!((1..=24).contains(&index_bits));
        SixCounterTable {
            // Every counter weakly not-taken (1).
            entries: vec![PLANE; 1 << index_bits],
            bhr: 0,
            itb: IndirectTargetBuffer::paper(),
            stats: MultiBranchStats::default(),
        }
    }

    /// Predicts all of `trace`'s branch directions from the entry at
    /// `index` (masked to the table), and any trailing indirect target;
    /// then trains the entry's live counters and shifts the trace's
    /// outcomes into the history, oldest first.
    #[inline]
    fn observe(&mut self, index: u32, trace: &Trace) {
        let id = trace.id();
        let count = u32::from(id.branch_count);
        let live = (1u16 << count) - 1;
        let taken = u16::from(id.branch_bits);
        let mask = self.entries.len() - 1;
        let entry = &mut self.entries[index as usize & mask];
        let (lo, hi) = (*entry & PLANE, *entry >> MAX_TRACE_BRANCHES);
        let wrong = (hi ^ taken) & live;
        // A live counter steps toward its outcome and saturates: its high
        // bit becomes the majority of (high, low, outcome), and its low bit
        // is set when it lands on 1 or 3.
        let up_hi = (hi & lo) | (taken & (hi | lo));
        let up_lo = (hi & taken) | ((hi ^ taken) & !lo);
        let hi = (hi & !live) | (up_hi & live);
        let lo = (lo & !live) | (up_lo & live);
        *entry = (hi << MAX_TRACE_BRANCHES) | lo;
        // Bit `i` of the outcomes lands at history bit `count - 1 - i`.
        let oldest_first = (u32::from(taken) << (32 - MAX_TRACE_BRANCHES)).reverse_bits()
            >> (MAX_TRACE_BRANCHES as u32 - count);
        self.bhr = ((self.bhr << count) | oldest_first) & mask as u32;

        let mut trace_wrong = wrong != 0;
        // Returns are predicted perfectly, as in the paper's baseline, and
        // direct targets are known.
        if let Some(c) = trace
            .trailing_indirect()
            .filter(|c| c.kind != ControlKind::Return)
        {
            trace_wrong |= self.itb.predict(c.pc) != c.target;
            self.itb.update(c.pc, c.target);
        }
        self.stats.traces += 1;
        self.stats.trace_mispredicts += u64::from(trace_wrong);
        self.stats.branches += u64::from(count);
        self.stats.branch_mispredicts += u64::from(wrong.count_ones());
    }
}

/// A trace-indexed gshare predicting up to six branch directions per access.
///
/// # Examples
///
/// ```
/// use ntp_baselines::TraceGshare;
/// let p = TraceGshare::new(14);
/// assert_eq!(p.stats().traces, 0);
/// ```
#[derive(Clone, Debug)]
pub struct TraceGshare {
    table: SixCounterTable,
}

impl TraceGshare {
    /// Creates a predictor with `2^index_bits` PHT entries (each holding six
    /// counters) and a 4K-entry indirect-target buffer; returns are
    /// predicted perfectly.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> TraceGshare {
        TraceGshare {
            table: SixCounterTable::new(index_bits),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MultiBranchStats {
        &self.table.stats
    }

    /// Observes one completed trace: predicts all its branch directions in
    /// a single access, plus any trailing indirect target, then trains.
    pub fn observe(&mut self, trace: &Trace) {
        let index = (trace.id().start_pc >> 2) ^ self.table.bhr;
        self.table.observe(index, trace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SequentialTracePredictor;
    use ntp_isa::asm::assemble;
    use ntp_sim::Machine;
    use ntp_trace::{run_traces, TraceConfig};

    #[test]
    fn learns_a_biased_loop() {
        let src = "
main:   li   t0, 4000
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut mb = TraceGshare::new(14);
        run_traces(&mut m, 100_000, TraceConfig::default(), |t| mb.observe(t)).unwrap();
        assert!(mb.stats().trace_mispredict_pct() < 10.0);
    }

    #[test]
    fn no_worse_than_chance_and_no_better_than_sequential_on_noise() {
        // A data-dependent branch pattern: the single-access predictor sees
        // each trace's branches without intermediate outcomes and should do
        // no better than the sequential model.
        let src = "
main:   li   s0, 2000
        li   s1, 12345
loop:   mul  s1, s1, s0
        addi s1, s1, 17
        srl  t0, s1, 3
        andi t0, t0, 1
        beqz t0, skip
        addi s2, s2, 1
skip:   addi s0, s0, -1
        bnez s0, loop
        halt
";
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut mb = TraceGshare::new(14);
        let mut seq = SequentialTracePredictor::paper();
        run_traces(&mut m, 1_000_000, TraceConfig::default(), |t| {
            mb.observe(t);
            seq.observe(t);
        })
        .unwrap();
        let mb_rate = mb.stats().trace_mispredict_pct();
        let seq_rate = seq.stats().trace_mispredict_pct();
        assert!(
            mb_rate + 1.0 >= seq_rate,
            "single-access prediction should not beat sequential: {mb_rate} vs {seq_rate}"
        );
    }
}

/// A multiported GAg multiple-branch predictor (Yeh, Marr & Patt, ICS'93;
/// used by Rotenberg et al.'s original trace-cache study): the global
/// branch history register alone indexes a PHT whose entries hold six
/// two-bit counters, so all of a trace's branches are predicted in one
/// access. Unlike [`TraceGshare`] the fetch address does not participate,
/// which costs accuracy through interference — the effect Patel's
/// predictor (and ultimately next-trace prediction) addressed.
#[derive(Clone, Debug)]
pub struct MultiGAg {
    table: SixCounterTable,
}

impl MultiGAg {
    /// Creates a predictor with `hist_bits` of global history and
    /// `2^hist_bits` PHT entries of six counters each.
    ///
    /// # Panics
    ///
    /// Panics if `hist_bits` is 0 or greater than 24.
    pub fn new(hist_bits: u32) -> MultiGAg {
        MultiGAg {
            table: SixCounterTable::new(hist_bits),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MultiBranchStats {
        &self.table.stats
    }

    /// Observes one completed trace (one PHT access for all its branches).
    pub fn observe(&mut self, trace: &Trace) {
        let index = self.table.bhr;
        self.table.observe(index, trace);
    }
}

#[cfg(test)]
mod gag_tests {
    use super::*;
    use ntp_isa::asm::assemble;
    use ntp_sim::Machine;
    use ntp_trace::{run_traces, TraceConfig};

    #[test]
    fn gag_learns_biased_loops() {
        let src = "
main:   li   t0, 4000
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut g = MultiGAg::new(14);
        run_traces(&mut m, 100_000, TraceConfig::default(), |t| g.observe(t)).unwrap();
        assert!(g.stats().trace_mispredict_pct() < 10.0);
    }

    #[test]
    fn pc_indexing_beats_pure_history_under_interference() {
        // Two distinct loops with identical outcome histories but opposite
        // per-slot biases confound GAg more than the PC-hashed TraceGshare.
        let src = "
main:   li   s0, 800
outer:  li   t0, 3
la:     andi t1, s0, 3
        beqz t1, sa
        addi s1, s1, 1
sa:     addi t0, t0, -1
        bnez t0, la
        li   t0, 3
lb:     andi t1, s0, 1
        bnez t1, sb
        addi s1, s1, 2
sb:     addi t0, t0, -1
        bnez t0, lb
        addi s0, s0, -1
        bnez s0, outer
        halt
";
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut gag = MultiGAg::new(14);
        let mut gsh = TraceGshare::new(14);
        run_traces(&mut m, 1_000_000, TraceConfig::default(), |t| {
            gag.observe(t);
            gsh.observe(t);
        })
        .unwrap();
        assert!(
            gsh.stats().trace_mispredict_pct() <= gag.stats().trace_mispredict_pct() + 1.0,
            "gshare {} vs gag {}",
            gsh.stats().trace_mispredict_pct(),
            gag.stats().trace_mispredict_pct()
        );
    }
}
