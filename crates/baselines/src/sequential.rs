//! The idealized sequential trace predictor of §5.1.
//!
//! This is the reference point the paper measures against: proven
//! single-branch components predicting each control instruction of a trace
//! *sequentially*, with the outcomes of all previous branches known — a
//! 16-bit gshare for directions, a perfect BTB for direct targets, a
//! 4K-entry correlated target buffer for indirect jumps/calls, and a perfect
//! return address predictor. It is not realizable (it would need several
//! predictor accesses per cycle); it upper-bounds multiple-branch
//! predictors.
//!
//! A trace counts as mispredicted if *any* prediction inside it was wrong.

use crate::{DirectionPredictor, Gshare, IndirectTargetBuffer, ReturnAddressStack};
use ntp_isa::ControlKind;
use ntp_trace::Trace;

/// Configuration of the sequential baseline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SequentialConfig {
    /// gshare history bits / log2 PHT entries (paper: 16).
    pub gshare_bits: u32,
    /// log2 entries of the correlated indirect-target buffer (paper: 12).
    pub itb_bits: u32,
    /// Use a perfect return-address predictor (paper: yes). When false a
    /// bounded RAS of depth `ras_depth` is used.
    pub perfect_ras: bool,
    /// RAS depth when `perfect_ras` is false.
    pub ras_depth: usize,
}

impl Default for SequentialConfig {
    fn default() -> SequentialConfig {
        SequentialConfig {
            gshare_bits: 16,
            itb_bits: 12,
            perfect_ras: true,
            ras_depth: 16,
        }
    }
}

/// Accuracy statistics of the sequential baseline.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SequentialStats {
    /// Traces observed.
    pub traces: u64,
    /// Traces with at least one wrong prediction inside.
    pub trace_mispredicts: u64,
    /// Conditional branches observed.
    pub branches: u64,
    /// Conditional branches gshare got wrong.
    pub branch_mispredicts: u64,
    /// Indirect jumps/calls observed (excluding returns).
    pub indirects: u64,
    /// Indirect targets the buffer got wrong.
    pub indirect_mispredicts: u64,
    /// Returns observed.
    pub returns: u64,
    /// Returns the (non-perfect) RAS got wrong.
    pub return_mispredicts: u64,
}

impl SequentialStats {
    /// Trace misprediction rate in percent.
    pub fn trace_mispredict_pct(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            100.0 * self.trace_mispredicts as f64 / self.traces as f64
        }
    }

    /// gshare branch misprediction rate in percent (Table 2, column 1).
    pub fn branch_mispredict_pct(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            100.0 * self.branch_mispredicts as f64 / self.branches as f64
        }
    }

    /// Mean conditional branches per trace (Table 2, column 2).
    pub fn branches_per_trace(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.branches as f64 / self.traces as f64
        }
    }
}

/// The idealized sequential trace predictor.
///
/// # Examples
///
/// ```
/// use ntp_baselines::SequentialTracePredictor;
/// let p = SequentialTracePredictor::paper();
/// assert_eq!(p.stats().traces, 0);
/// ```
#[derive(Clone, Debug)]
pub struct SequentialTracePredictor {
    gshare: Gshare,
    itb: IndirectTargetBuffer,
    ras: ReturnAddressStack,
    perfect_ras: bool,
    stats: SequentialStats,
}

impl SequentialTracePredictor {
    /// Builds the baseline with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range table sizes.
    pub fn new(cfg: SequentialConfig) -> SequentialTracePredictor {
        SequentialTracePredictor {
            gshare: Gshare::new(cfg.gshare_bits),
            itb: IndirectTargetBuffer::new(cfg.itb_bits),
            ras: if cfg.perfect_ras {
                ReturnAddressStack::perfect()
            } else {
                ReturnAddressStack::bounded(cfg.ras_depth)
            },
            perfect_ras: cfg.perfect_ras,
            stats: SequentialStats::default(),
        }
    }

    /// The paper's configuration (16-bit gshare, 4K-entry ITB, perfect RAS).
    pub fn paper() -> SequentialTracePredictor {
        SequentialTracePredictor::new(SequentialConfig::default())
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SequentialStats {
        &self.stats
    }

    /// Observes one completed trace: sequentially predicts and trains on
    /// every control instruction inside it.
    pub fn observe(&mut self, trace: &Trace) {
        let mut wrong = false;
        for c in trace.controls() {
            match c.kind {
                ControlKind::CondBranch => {
                    self.stats.branches += 1;
                    let pred = self.gshare.predict(c.pc);
                    if pred != c.taken {
                        self.stats.branch_mispredicts += 1;
                        wrong = true;
                    }
                    self.gshare.update(c.pc, c.taken);
                }
                ControlKind::Jump => {
                    // Perfect BTB: direct targets never miss.
                }
                ControlKind::Call => {
                    self.ras.push(c.pc.wrapping_add(4));
                }
                ControlKind::IndirectJump | ControlKind::IndirectCall => {
                    self.stats.indirects += 1;
                    if self.itb.predict(c.pc) != c.target {
                        self.stats.indirect_mispredicts += 1;
                        wrong = true;
                    }
                    self.itb.update(c.pc, c.target);
                    if c.kind == ControlKind::IndirectCall {
                        self.ras.push(c.pc.wrapping_add(4));
                    }
                }
                ControlKind::Return => {
                    self.stats.returns += 1;
                    let popped = self.ras.pop();
                    if !self.perfect_ras && popped != Some(c.target) {
                        self.stats.return_mispredicts += 1;
                        wrong = true;
                    }
                }
                ControlKind::None => {}
            }
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
    use ntp_isa::asm::assemble;
    use ntp_sim::Machine;
    use ntp_trace::{run_traces, TraceConfig};

    fn observe_program(src: &str, budget: u64) -> SequentialStats {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut seq = SequentialTracePredictor::paper();
        run_traces(&mut m, budget, TraceConfig::default(), |t| seq.observe(t)).unwrap();
        seq.stats().clone()
    }

    #[test]
    fn biased_loop_is_nearly_perfect() {
        let stats = observe_program(
            "
main:   li   t0, 4000
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
",
            100_000,
        );
        assert_eq!(stats.branches, 4000);
        assert!(
            stats.branch_mispredict_pct() < 2.0,
            "{}",
            stats.branch_mispredict_pct()
        );
        assert!(stats.trace_mispredict_pct() < 10.0);
    }

    #[test]
    fn returns_are_free_with_perfect_ras() {
        let stats = observe_program(
            "
main:   li   s0, 100
loop:   jal  f
        addi s0, s0, -1
        bnez s0, loop
        halt
f:      ret
",
            100_000,
        );
        assert_eq!(stats.returns, 100);
        assert_eq!(stats.return_mispredicts, 0);
    }

    #[test]
    fn alternating_indirect_targets_learned_by_correlation() {
        let stats = observe_program(
            "
main:   li   s0, 200
        la   s1, table
loop:   andi t0, s0, 1
        sll  t1, t0, 2
        add  t2, s1, t1
        lw   t3, 0(t2)
        jr   t3
case0:  addi s0, s0, -1
        bnez s0, loop
        halt
case1:  addi s0, s0, -1
        bnez s0, loop
        halt
        .data
table:  .word case0, case1
",
            100_000,
        );
        assert!(stats.indirects >= 199);
        // The correlated buffer disambiguates a strict alternation.
        assert!(
            (stats.indirect_mispredicts as f64) < 0.2 * stats.indirects as f64,
            "{} of {}",
            stats.indirect_mispredicts,
            stats.indirects
        );
    }

    #[test]
    fn clustered_mispredictions_count_once_per_trace() {
        let mut stats = SequentialStats {
            traces: 10,
            trace_mispredicts: 2,
            branches: 40,
            branch_mispredicts: 6,
            ..SequentialStats::default()
        };
        assert!((stats.trace_mispredict_pct() - 20.0).abs() < 1e-9);
        assert!((stats.branch_mispredict_pct() - 15.0).abs() < 1e-9);
        stats.traces = 0;
        stats.branches = 0;
        assert_eq!(stats.trace_mispredict_pct(), 0.0);
        assert_eq!(stats.branches_per_trace(), 0.0);
    }
}
