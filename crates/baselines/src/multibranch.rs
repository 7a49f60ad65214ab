//! A realizable multiple-branch predictor in the style of Patel, Friendly &
//! Patt: one PHT access per trace, with each entry holding six two-bit
//! counters so all embedded branches are predicted simultaneously.
//!
//! The index is the trace's start PC XORed with a global branch history
//! register (gshare-style). Because all counters are read in one access,
//! later branches cannot see the outcomes of earlier ones — the accuracy
//! cost that motivates explicit next-trace prediction.

use crate::IndirectTargetBuffer;
use ntp_isa::ControlKind;
use ntp_trace::{Trace, MAX_TRACE_BRANCHES};

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
    pht: Vec<[u8; MAX_TRACE_BRANCHES]>,
    bhr: u32,
    index_bits: u32,
    itb: IndirectTargetBuffer,
    stats: MultiBranchStats,
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
        assert!((1..=24).contains(&index_bits));
        TraceGshare {
            pht: vec![[1; MAX_TRACE_BRANCHES]; 1 << index_bits],
            bhr: 0,
            index_bits,
            itb: IndirectTargetBuffer::paper(),
            stats: MultiBranchStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MultiBranchStats {
        &self.stats
    }

    fn index(&self, start_pc: u32) -> usize {
        (((start_pc >> 2) ^ self.bhr) as usize) & (self.pht.len() - 1)
    }

    /// Observes one completed trace: predicts all its branch directions in
    /// a single access, plus any trailing indirect target, then trains.
    pub fn observe(&mut self, trace: &Trace) {
        let idx = self.index(trace.id().start_pc);
        let mut wrong = false;

        let mut branch_i = 0usize;
        for c in trace.controls() {
            match c.kind {
                ControlKind::CondBranch => {
                    self.stats.branches += 1;
                    let pred = self.pht[idx][branch_i] >= 2;
                    if pred != c.taken {
                        self.stats.branch_mispredicts += 1;
                        wrong = true;
                    }
                    branch_i += 1;
                }
                ControlKind::IndirectJump | ControlKind::IndirectCall => {
                    if self.itb.predict(c.pc) != c.target {
                        wrong = true;
                    }
                    self.itb.update(c.pc, c.target);
                }
                // Returns are predicted perfectly, as in the paper's
                // baseline, and direct targets are known.
                _ => {}
            }
        }

        // Train the counters and shift actual outcomes into the history.
        for (branch_i, c) in trace.cond_branches().enumerate() {
            let ctr = &mut self.pht[idx][branch_i];
            if c.taken {
                *ctr = (*ctr + 1).min(3);
            } else {
                *ctr = ctr.saturating_sub(1);
            }
            self.bhr = ((self.bhr << 1) | c.taken as u32) & ((1 << self.index_bits) - 1);
        }

        self.stats.traces += 1;
        if wrong {
            self.stats.trace_mispredicts += 1;
        }
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
    pht: Vec<[u8; MAX_TRACE_BRANCHES]>,
    bhr: u32,
    hist_bits: u32,
    itb: IndirectTargetBuffer,
    stats: MultiBranchStats,
}

impl MultiGAg {
    /// Creates a predictor with `hist_bits` of global history and
    /// `2^hist_bits` PHT entries of six counters each.
    ///
    /// # Panics
    ///
    /// Panics if `hist_bits` is 0 or greater than 24.
    pub fn new(hist_bits: u32) -> MultiGAg {
        assert!((1..=24).contains(&hist_bits));
        MultiGAg {
            pht: vec![[1; MAX_TRACE_BRANCHES]; 1 << hist_bits],
            bhr: 0,
            hist_bits,
            itb: IndirectTargetBuffer::paper(),
            stats: MultiBranchStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MultiBranchStats {
        &self.stats
    }

    /// Observes one completed trace (one PHT access for all its branches).
    pub fn observe(&mut self, trace: &Trace) {
        let idx = (self.bhr as usize) & (self.pht.len() - 1);
        let mut wrong = false;
        let mut branch_i = 0usize;
        for c in trace.controls() {
            match c.kind {
                ControlKind::CondBranch => {
                    self.stats.branches += 1;
                    if (self.pht[idx][branch_i] >= 2) != c.taken {
                        self.stats.branch_mispredicts += 1;
                        wrong = true;
                    }
                    branch_i += 1;
                }
                ControlKind::IndirectJump | ControlKind::IndirectCall => {
                    if self.itb.predict(c.pc) != c.target {
                        wrong = true;
                    }
                    self.itb.update(c.pc, c.target);
                }
                // Returns are predicted perfectly, as in the paper's
                // baseline, and direct targets are known.
                _ => {}
            }
        }
        for (branch_i, c) in trace.cond_branches().enumerate() {
            let ctr = &mut self.pht[idx][branch_i];
            if c.taken {
                *ctr = (*ctr + 1).min(3);
            } else {
                *ctr = ctr.saturating_sub(1);
            }
            self.bhr = ((self.bhr << 1) | c.taken as u32) & ((1 << self.hist_bits) - 1);
        }
        self.stats.traces += 1;
        if wrong {
            self.stats.trace_mispredicts += 1;
        }
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
