//! Aggregate statistics over a trace stream (the paper's Tables 1 and 2
//! inputs: instruction counts, average trace length, static trace count,
//! branches per trace).

use crate::Trace;
use ntp_isa::ControlKind;
use std::collections::HashSet;

/// Streaming statistics accumulator for traces.
///
/// # Examples
///
/// ```
/// use ntp_trace::TraceStats;
/// let stats = TraceStats::new();
/// assert_eq!(stats.traces(), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    traces: u64,
    instrs: u64,
    cond_branches: u64,
    calls: u64,
    returns: u64,
    indirect: u64,
    static_ids: HashSet<u64>,
}

impl TraceStats {
    /// Creates an empty accumulator.
    pub fn new() -> TraceStats {
        TraceStats::default()
    }

    /// Folds one trace into the statistics.
    pub fn record(&mut self, trace: &Trace) {
        self.traces += 1;
        self.instrs += trace.len() as u64;
        self.cond_branches += trace.branch_count() as u64;
        self.calls += trace.call_count() as u64;
        if trace.ends_in_return() {
            self.returns += 1;
        }
        if trace.ends_in_indirect() {
            self.indirect += 1;
        }
        self.static_ids.insert(trace.id().packed());
    }

    /// Dynamic traces observed.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Instructions covered by those traces.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Conditional branches embedded in traces.
    pub fn cond_branches(&self) -> u64 {
        self.cond_branches
    }

    /// Call instructions observed.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Traces ending in a return.
    pub fn returns(&self) -> u64 {
        self.returns
    }

    /// Traces ending in any indirect-target instruction.
    pub fn indirect_endings(&self) -> u64 {
        self.indirect
    }

    /// Distinct trace identifiers seen (the paper's "static traces").
    pub fn static_traces(&self) -> usize {
        self.static_ids.len()
    }

    /// Mean instructions per trace.
    pub fn avg_trace_len(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.instrs as f64 / self.traces as f64
        }
    }

    /// Mean conditional branches per trace (Table 2's "Number of Branches
    /// per Trace").
    pub fn branches_per_trace(&self) -> f64 {
        if self.traces == 0 {
            0.0
        } else {
            self.cond_branches as f64 / self.traces as f64
        }
    }

    /// Plain-data snapshot of every counter, for persistence (the on-disk
    /// trace cache). The static-id set comes back **sorted** so the
    /// serialized form is deterministic.
    pub fn to_raw(&self) -> TraceStatsRaw {
        let mut static_ids: Vec<u64> = self.static_ids.iter().copied().collect();
        static_ids.sort_unstable();
        TraceStatsRaw {
            traces: self.traces,
            instrs: self.instrs,
            cond_branches: self.cond_branches,
            calls: self.calls,
            returns: self.returns,
            indirect: self.indirect,
            static_ids,
        }
    }

    /// Rebuilds an accumulator from a [`TraceStatsRaw`] snapshot. The
    /// result is observationally identical to the accumulator the snapshot
    /// was taken from (every accessor and [`ToJson`] output agrees).
    ///
    /// [`ToJson`]: ntp_telemetry::ToJson
    pub fn from_raw(raw: TraceStatsRaw) -> TraceStats {
        TraceStats {
            traces: raw.traces,
            instrs: raw.instrs,
            cond_branches: raw.cond_branches,
            calls: raw.calls,
            returns: raw.returns,
            indirect: raw.indirect,
            static_ids: raw.static_ids.into_iter().collect(),
        }
    }
}

/// The plain-data form of [`TraceStats`] used by persistence layers (see
/// [`TraceStats::to_raw`] / [`TraceStats::from_raw`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStatsRaw {
    /// Dynamic traces observed.
    pub traces: u64,
    /// Instructions covered by those traces.
    pub instrs: u64,
    /// Conditional branches embedded in traces.
    pub cond_branches: u64,
    /// Call instructions observed.
    pub calls: u64,
    /// Traces ending in a return.
    pub returns: u64,
    /// Traces ending in any indirect-target instruction.
    pub indirect: u64,
    /// Distinct packed trace identifiers, sorted ascending.
    pub static_ids: Vec<u64>,
}

/// Classifies every control event kind for instruction-mix reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlMix {
    /// Conditional branches retired.
    pub cond_branches: u64,
    /// Taken conditional branches.
    pub taken_branches: u64,
    /// Direct jumps.
    pub jumps: u64,
    /// Direct calls.
    pub calls: u64,
    /// Indirect jumps (excluding returns).
    pub indirect_jumps: u64,
    /// Indirect calls.
    pub indirect_calls: u64,
    /// Returns.
    pub returns: u64,
    /// All instructions retired.
    pub instrs: u64,
}

impl ControlMix {
    /// Creates an empty mix.
    pub fn new() -> ControlMix {
        ControlMix::default()
    }

    /// Folds one trace into the mix: its instructions and every control
    /// event it holds. Each retired instruction lies in exactly one trace,
    /// so folding every trace of a run counts each event once.
    ///
    /// The counts come from the trace's identifier and flags: the
    /// identifier holds every conditional-branch outcome, the call count
    /// covers direct and indirect calls, and an indirect transfer can only
    /// end a trace, so every other control is a direct jump.
    pub fn record_trace(&mut self, trace: &Trace) {
        let id = trace.id();
        let trailing = trace.trailing_indirect().map(|c| c.kind);
        let indirect_call = u8::from(trailing == Some(ControlKind::IndirectCall));
        let indirect_jump = u8::from(trailing == Some(ControlKind::IndirectJump));
        let ret = u8::from(trace.ends_in_return());
        let calls = trace.call_count() - indirect_call;
        let not_jumps = id.branch_count + calls + indirect_call + indirect_jump + ret;
        self.instrs += trace.len() as u64;
        self.cond_branches += u64::from(id.branch_count);
        self.taken_branches += u64::from(id.branch_bits.count_ones());
        self.jumps += (trace.controls().len() - usize::from(not_jumps)) as u64;
        self.calls += u64::from(calls);
        self.indirect_jumps += u64::from(indirect_jump);
        self.indirect_calls += u64::from(indirect_call);
        self.returns += u64::from(ret);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_traces, TraceConfig};
    use ntp_isa::asm::assemble;
    use ntp_sim::Machine;

    #[test]
    fn loop_statistics() {
        let src = "
main:   li   t0, 10
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut stats = TraceStats::new();
        run_traces(&mut m, 10_000, TraceConfig::default(), |t| stats.record(t)).unwrap();
        // li (1 instr) + 10 iterations of (addi + bnez) + halt = 22.
        assert_eq!(stats.instrs(), 22);
        assert_eq!(stats.cond_branches(), 10);
        assert!(stats.traces() >= 2);
        assert!(stats.avg_trace_len() > 1.0);
        assert!(stats.static_traces() >= 2);
        assert!(stats.branches_per_trace() > 0.0);
    }

    #[test]
    fn raw_round_trip_preserves_every_accessor() {
        let src = "
main:   li   t0, 9
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut stats = TraceStats::new();
        run_traces(&mut m, 10_000, TraceConfig::default(), |t| stats.record(t)).unwrap();

        let raw = stats.to_raw();
        assert!(raw.static_ids.windows(2).all(|w| w[0] < w[1]), "sorted");
        let back = TraceStats::from_raw(raw.clone());
        assert_eq!(back.traces(), stats.traces());
        assert_eq!(back.instrs(), stats.instrs());
        assert_eq!(back.cond_branches(), stats.cond_branches());
        assert_eq!(back.calls(), stats.calls());
        assert_eq!(back.returns(), stats.returns());
        assert_eq!(back.indirect_endings(), stats.indirect_endings());
        assert_eq!(back.static_traces(), stats.static_traces());
        assert_eq!(back.avg_trace_len(), stats.avg_trace_len());
        assert_eq!(back.branches_per_trace(), stats.branches_per_trace());
        // Snapshotting the round-tripped accumulator is a fixed point.
        assert_eq!(back.to_raw(), raw);
    }

    #[test]
    fn control_mix_counts() {
        let src = "
main:   jal  f
        la   t0, f2
        jalr t0
        beqz zero, over
over:   j    end
end:    halt
f:      ret
f2:     ret
";
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut mix = ControlMix::new();
        run_traces(&mut m, 100, TraceConfig::default(), |t| mix.record_trace(t)).unwrap();
        assert_eq!(mix.instrs, m.icount());
        assert_eq!(mix.calls, 1);
        assert_eq!(mix.indirect_calls, 1);
        assert_eq!(mix.returns, 2);
        assert_eq!(mix.jumps, 1);
        assert_eq!(mix.cond_branches, 1);
        assert_eq!(mix.taken_branches, 1);
    }
}
