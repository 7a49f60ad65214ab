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

use crate::{Gshare, IndirectTargetBuffer};
use ntp_isa::ControlKind;
use ntp_trace::Trace;

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
    /// Returns predicted wrong: always 0, since the return predictor is
    /// perfect.
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
    stats: SequentialStats,
}

impl SequentialTracePredictor {
    /// The paper's configuration: a 16-bit gshare, a 4K-entry ITB and a
    /// perfect return predictor.
    pub fn paper() -> SequentialTracePredictor {
        SequentialTracePredictor {
            gshare: Gshare::paper(),
            itb: IndirectTargetBuffer::paper(),
            stats: SequentialStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SequentialStats {
        &self.stats
    }

    /// Observes one completed trace: sequentially predicts and trains on
    /// every conditional branch inside it, then on the indirect transfer
    /// that ends it, if any. Direct targets are known (a perfect BTB), and
    /// a perfect return predictor never misses, so jumps and calls need no
    /// work and a return is only counted.
    pub fn observe(&mut self, trace: &Trace) {
        let mut wrong = false;
        for c in trace.cond_branches() {
            if self.gshare.predict(c.pc) != c.taken {
                self.stats.branch_mispredicts += 1;
                wrong = true;
            }
            self.gshare.update(c.pc, c.taken);
        }
        self.stats.branches += trace.branch_count() as u64;
        match trace.trailing_indirect() {
            Some(c) if c.kind == ControlKind::Return => self.stats.returns += 1,
            Some(c) => {
                self.stats.indirects += 1;
                if self.itb.predict(c.pc) != c.target {
                    self.stats.indirect_mispredicts += 1;
                    wrong = true;
                }
                self.itb.update(c.pc, c.target);
            }
            None => {}
        }
        self.stats.traces += 1;
        self.stats.trace_mispredicts += u64::from(wrong);
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
