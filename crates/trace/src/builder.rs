//! Trace selection: chopping the dynamic instruction stream into traces.

use crate::trace::{CtrlInfo, MAX_TRACE_BRANCHES, MAX_TRACE_LEN};
use crate::Trace;
use ntp_isa::ControlKind;
use ntp_sim::{Machine, SimError, Step, StopReason};

/// Trace-selection limits and heuristics.
///
/// The defaults are the paper's: at most 16 instructions and 6 conditional
/// branches per trace, and any instruction with an indirect target ends its
/// trace. The two `stop_at_*` heuristics implement the selection-policy
/// study the paper defers ("a study of the relation of trace selection and
/// trace predictability is beyond the scope of this paper", §4.2):
/// stopping at calls/returns aligns traces with procedure boundaries;
/// stopping at backward taken branches aligns them with loop iterations.
/// Both reduce redundancy in a trace cache at some cost in trace length.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum instructions per trace.
    pub max_len: usize,
    /// Maximum embedded conditional branches per trace.
    pub max_branches: usize,
    /// End a trace after any call instruction (direct calls; indirect calls
    /// already end traces).
    pub stop_at_calls: bool,
    /// End a trace after a taken backward conditional branch (a loop
    /// back-edge).
    pub stop_at_loop_back_edges: bool,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            max_len: MAX_TRACE_LEN,
            max_branches: MAX_TRACE_BRANCHES,
            stop_at_calls: false,
            stop_at_loop_back_edges: false,
        }
    }
}

impl TraceConfig {
    /// The paper's selection policy with a different length cap.
    ///
    /// # Panics
    ///
    /// Panics (in [`TraceBuilder::new`]) if `max_len` exceeds
    /// [`MAX_TRACE_LEN`].
    pub fn with_max_len(max_len: usize) -> TraceConfig {
        TraceConfig {
            max_len,
            ..TraceConfig::default()
        }
    }

    /// Validates the limits without panicking: `max_len` must be
    /// `1..=`[`MAX_TRACE_LEN`] and `max_branches`
    /// `1..=`[`MAX_TRACE_BRANCHES`] (the identifier's 6-bit outcome field).
    pub fn try_validate(&self) -> Result<(), TraceConfigError> {
        if !(1..=MAX_TRACE_LEN).contains(&self.max_len) {
            return Err(TraceConfigError::MaxLenOutOfRange {
                max_len: self.max_len,
            });
        }
        if !(1..=MAX_TRACE_BRANCHES).contains(&self.max_branches) {
            return Err(TraceConfigError::MaxBranchesOutOfRange {
                max_branches: self.max_branches,
            });
        }
        Ok(())
    }
}

/// A rejected [`TraceConfig`]; the [`std::fmt::Display`] form names the
/// offending field and its legal range.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum TraceConfigError {
    /// `max_len` was zero or above [`MAX_TRACE_LEN`].
    MaxLenOutOfRange {
        /// The rejected value.
        max_len: usize,
    },
    /// `max_branches` was zero or above [`MAX_TRACE_BRANCHES`].
    MaxBranchesOutOfRange {
        /// The rejected value.
        max_branches: usize,
    },
}

impl std::fmt::Display for TraceConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceConfigError::MaxLenOutOfRange { max_len } => write!(
                f,
                "trace.max_len = {max_len} is outside the legal range 1..={MAX_TRACE_LEN}"
            ),
            TraceConfigError::MaxBranchesOutOfRange { max_branches } => write!(
                f,
                "trace.max_branches = {max_branches} is outside the legal range \
                 1..={MAX_TRACE_BRANCHES}"
            ),
        }
    }
}

impl std::error::Error for TraceConfigError {}

/// Incremental trace selector.
///
/// Feed it every retired [`Step`] with [`TraceBuilder::push`]; call
/// [`TraceBuilder::flush`] at the end of the run for the final partial
/// trace. The builder fills each trace in place, in storage it owns, and
/// hands every completed trace to an `emit` callback by reference, so no
/// trace is copied unless the callback copies it.
///
/// One step calls `emit` zero, one or two times. Two happens when a
/// conditional branch past `max_branches` seals the open trace, starts a
/// new one, and then seals that one too (a taken back edge under
/// [`TraceConfig::stop_at_loop_back_edges`]). Either way every retired
/// instruction lands in exactly one emitted trace.
///
/// # Examples
///
/// ```
/// use ntp_isa::asm::assemble;
/// use ntp_sim::Machine;
/// use ntp_trace::{TraceBuilder, TraceConfig};
///
/// let p = assemble("main: jal f\n halt\nf: ret\n")?;
/// let mut m = Machine::new(p);
/// let mut builder = TraceBuilder::new(TraceConfig::default());
/// let mut traces = Vec::new();
/// m.run_with(100, |step| builder.push(step, |t| traces.push(*t)))?;
/// builder.flush(|t| traces.push(*t));
/// // `ret` has an indirect target, so it ends the first trace.
/// assert_eq!(traces[0].len(), 2);
/// assert!(traces[0].ends_in_return());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone)]
pub struct TraceBuilder {
    cfg: TraceConfig,
    /// The open trace; length 0 means none is open.
    cur: Trace,
}

impl TraceBuilder {
    /// Creates a builder with the given limits.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is 0 or exceeds [`MAX_TRACE_LEN`], or if
    /// `max_branches` exceeds [`MAX_TRACE_BRANCHES`].
    pub fn new(cfg: TraceConfig) -> TraceBuilder {
        match TraceBuilder::try_new(cfg) {
            Ok(b) => b,
            Err(e) => panic!("invalid trace config: {e}"),
        }
    }

    /// Creates a builder, rejecting invalid limits with a typed
    /// [`TraceConfigError`] instead of panicking.
    pub fn try_new(cfg: TraceConfig) -> Result<TraceBuilder, TraceConfigError> {
        cfg.try_validate()?;
        Ok(TraceBuilder {
            cfg,
            cur: Trace::empty(),
        })
    }

    /// The limits in force.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// Appends one retired instruction, calling `emit` on each trace it
    /// completes (zero, one or two; see the type's documentation).
    #[inline]
    pub fn push(&mut self, step: &Step, mut emit: impl FnMut(&Trace)) {
        let cur = &mut self.cur;
        // A conditional branch past `max_branches` may not join the open
        // trace: seal it first and start a fresh one at this instruction.
        if let Some(ev) = step.control {
            if ev.kind == ControlKind::CondBranch
                && cur.len != 0
                && cur.id.branch_count as usize == self.cfg.max_branches
            {
                emit(cur);
                cur.len = 0;
            }
        }
        if cur.len == 0 {
            cur.open_at(step.pc);
        }
        cur.len += 1;
        cur.last_pc = step.pc;
        let mut seal = cur.len as usize == self.cfg.max_len;

        if let Some(ev) = step.control {
            cur.controls[cur.n_controls as usize] = CtrlInfo {
                pc: step.pc,
                target: ev.target,
                kind: ev.kind,
                taken: ev.taken,
            };
            cur.n_controls += 1;
            match ev.kind {
                ControlKind::CondBranch => {
                    if ev.taken {
                        cur.id.branch_bits |= 1 << cur.id.branch_count;
                        seal |= self.cfg.stop_at_loop_back_edges && ev.target <= step.pc;
                    }
                    cur.id.branch_count += 1;
                }
                ControlKind::Call => {
                    cur.call_count += 1;
                    seal |= self.cfg.stop_at_calls;
                }
                ControlKind::IndirectCall => {
                    cur.call_count += 1;
                    cur.ends_in_indirect = true;
                    seal = true;
                }
                ControlKind::IndirectJump => {
                    cur.ends_in_indirect = true;
                    seal = true;
                }
                ControlKind::Return => {
                    cur.ends_in_return = true;
                    cur.ends_in_indirect = true;
                    seal = true;
                }
                ControlKind::Jump | ControlKind::None => {}
            }
        }

        if seal {
            emit(cur);
            cur.len = 0;
        }
    }

    /// Calls `emit` on the open partial trace, if any (call at the end of
    /// a run).
    pub fn flush(&mut self, mut emit: impl FnMut(&Trace)) {
        if self.cur.len != 0 {
            emit(&self.cur);
            self.cur.len = 0;
        }
    }
}

/// Runs `machine` for up to `budget` instructions, invoking `visit` on every
/// completed trace (including the final partial one).
///
/// # Errors
///
/// Propagates the first [`SimError`] from the machine.
pub fn run_traces<F: FnMut(&Trace)>(
    machine: &mut Machine,
    budget: u64,
    cfg: TraceConfig,
    mut visit: F,
) -> Result<StopReason, SimError> {
    let mut builder = TraceBuilder::new(cfg);
    let stop = machine.run_with(budget, |step| builder.push(step, &mut visit))?;
    builder.flush(&mut visit);
    Ok(stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_isa::asm::assemble;

    fn traces_of(src: &str, budget: u64) -> Vec<Trace> {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut out = Vec::new();
        run_traces(&mut m, budget, TraceConfig::default(), |t| out.push(*t)).unwrap();
        out
    }

    #[test]
    fn straightline_code_chunks_at_16() {
        let body = "        addi t0, t0, 1\n".repeat(40);
        let src = format!("main:\n{body}        halt\n");
        let ts = traces_of(&src, 1000);
        // 41 instructions: 16 + 16 + 9.
        assert_eq!(
            ts.iter().map(|t| t.len()).collect::<Vec<_>>(),
            vec![16, 16, 9]
        );
        assert_eq!(ts[1].id().start_pc, ts[0].id().start_pc + 64);
    }

    #[test]
    fn return_ends_trace() {
        let ts = traces_of("main: jal f\n halt\nf: ret\n", 100);
        // Trace 1: jal + ret (the return seals it). Trace 2: halt (partial).
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].len(), 2);
        assert!(ts[0].ends_in_return());
        assert_eq!(ts[1].len(), 1);
    }

    #[test]
    fn branch_outcomes_recorded_in_order() {
        let src = "
main:   li   t0, 1
        beqz t0, a      ; not taken
a:      bnez t0, b      ; taken
b:      beqz zero, c    ; taken
c:      halt
";
        let ts = traces_of(src, 100);
        assert_eq!(ts.len(), 1);
        let id = ts[0].id();
        assert_eq!(id.branch_count, 3);
        assert!(!id.outcome(0));
        assert!(id.outcome(1));
        assert!(id.outcome(2));
    }

    #[test]
    fn seventh_branch_starts_new_trace() {
        // 7 consecutive not-taken branches.
        let mut src = String::from("main:\n");
        for k in 0..7 {
            src.push_str(&format!("        bnez zero, l{k}\nl{k}:\n"));
        }
        src.push_str("        halt\n");
        let ts = traces_of(&src, 100);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].branch_count(), 6);
        assert_eq!(ts[0].len(), 6);
        assert_eq!(ts[1].branch_count(), 1);
    }

    #[test]
    fn calls_counted() {
        let src = "
main:   jal f
        jal f
        halt
f:      ret
";
        let ts = traces_of(src, 100);
        // Trace 1: jal; f: ret (ends trace). Trace 2: jal; ret. Trace 3: halt.
        assert_eq!(ts[0].call_count(), 1);
        assert!(ts[0].ends_in_return());
        assert_eq!(ts[0].len(), 2);
    }

    #[test]
    fn indirect_call_ends_trace_and_counts_call() {
        let src = "
main:   la   t0, f
        jalr t0
        halt
f:      ret
";
        let ts = traces_of(src, 100);
        assert_eq!(ts[0].call_count(), 1);
        assert!(ts[0].ends_in_indirect());
        assert!(!ts[0].ends_in_return());
        assert_eq!(ts[0].len(), 3); // lui, ori, jalr
    }

    #[test]
    fn flush_emits_partial_trace() {
        let ts = traces_of("main: j main\n", 5);
        // Five iterations of a 1-instruction loop: j is direct, embedded.
        let total: usize = ts.iter().map(|t| t.len()).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn deterministic_selection_gives_unique_ids() {
        // Same program point revisited must produce identical traces.
        let src = "
main:   li   t0, 20
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
        let ts = traces_of(src, 1000);
        use std::collections::HashMap;
        let mut seen: HashMap<u64, (usize, u32)> = HashMap::new();
        for t in &ts[..ts.len() - 1] {
            let e = seen
                .entry(t.id().packed())
                .or_insert((t.len(), t.last_pc()));
            assert_eq!(*e, (t.len(), t.last_pc()), "same id, same contents");
        }
    }

    #[test]
    fn stop_at_calls_ends_trace_after_jal() {
        let p = assemble("main: jal f\n addi t0, t0, 1\n halt\nf: ret\n").unwrap();
        let mut m = Machine::new(p);
        let mut ts = Vec::new();
        let cfg = TraceConfig {
            stop_at_calls: true,
            ..TraceConfig::default()
        };
        run_traces(&mut m, 100, cfg, |t| ts.push(*t)).unwrap();
        // jal alone | ret | addi+halt
        assert_eq!(ts[0].len(), 1);
        assert_eq!(ts[0].call_count(), 1);
        assert!(ts[1].ends_in_return());
    }

    #[test]
    fn stop_at_back_edges_aligns_with_iterations() {
        let src = "
main:   li   t0, 5
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
        let p = assemble(src).unwrap();
        let mut m = Machine::new(p);
        let mut ts = Vec::new();
        let cfg = TraceConfig {
            stop_at_loop_back_edges: true,
            ..TraceConfig::default()
        };
        run_traces(&mut m, 100, cfg, |t| ts.push(*t)).unwrap();
        // First trace: li, addi, bnez(taken back edge). Then one trace per
        // iteration, then the final not-taken + halt.
        assert_eq!(ts[0].len(), 3);
        assert_eq!(ts[1].len(), 2);
        assert_eq!(ts[1].branch_count(), 1);
        // Iterations 2–4 are taken back edges (iteration 5 falls through
        // into the halt).
        let back_edge_traces = ts.iter().filter(|t| t.len() == 2).count();
        assert_eq!(back_edge_traces, 3, "{ts:?}");
    }

    #[test]
    fn a_step_that_completes_two_traces_emits_both() {
        // Each iteration's back edge is its 7th conditional branch: it
        // seals the open trace, then, taken and backward, seals the
        // one-instruction trace it started. The last one falls through.
        let mut src = String::from("main:   li   s0, 3\nloop:\n");
        for k in 0..6 {
            src.push_str(&format!("        bnez zero, l{k}\nl{k}:\n"));
        }
        src.push_str("        addi s0, s0, -1\n        bnez s0, loop\n        halt\n");
        let mut m = Machine::new(assemble(&src).unwrap());
        let cfg = TraceConfig {
            stop_at_loop_back_edges: true,
            ..TraceConfig::default()
        };
        let mut lens = Vec::new();
        run_traces(&mut m, 1000, cfg, |t| lens.push(t.len())).unwrap();
        assert_eq!(lens, vec![8, 1, 7, 1, 7, 2]);
        assert_eq!(lens.iter().sum::<usize>() as u64, m.icount());
    }

    #[test]
    fn shorter_max_len_still_partitions_stream() {
        let body = "        addi t0, t0, 1\n".repeat(20);
        let src = format!("main:\n{body}        halt\n");
        let p = assemble(&src).unwrap();
        let mut m = Machine::new(p);
        let mut total = 0usize;
        run_traces(&mut m, 1000, TraceConfig::with_max_len(8), |t| {
            assert!(t.len() <= 8);
            total += t.len();
        })
        .unwrap();
        assert_eq!(total, 21);
    }

    #[test]
    fn controls_slice_matches_branch_count() {
        let ts = traces_of("main: beqz zero, x\nx: jal f\n halt\nf: ret\n", 100);
        let t = &ts[0];
        assert_eq!(t.cond_branches().count(), t.branch_count());
        assert_eq!(t.controls().len(), 3); // beqz, jal, ret
    }
}
