//! Completed traces and their embedded control-flow records.

use crate::TraceId;
use ntp_isa::ControlKind;
use std::fmt;

/// Maximum number of instructions in a trace (the paper's limit of 16).
pub const MAX_TRACE_LEN: usize = 16;

/// Maximum number of conditional branches embedded in a trace.
pub const MAX_TRACE_BRANCHES: usize = 6;

/// A control-transfer instruction observed inside a trace.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CtrlInfo {
    /// Address of the control instruction.
    pub pc: u32,
    /// Taken-path target (for a not-taken conditional branch: the target it
    /// would have jumped to; for indirect transfers: the actual destination).
    pub target: u32,
    /// Control-flow class.
    pub kind: ControlKind,
    /// Whether control transferred.
    pub taken: bool,
}

/// A completed trace: up to 16 instructions ending at a trace boundary.
///
/// A trace ends when it reaches 16 instructions, when appending another
/// conditional branch would exceed six, or immediately after an instruction
/// with an indirect target (indirect jump/call or return) — the rules of
/// §3.1/§4.2 of the paper.
#[derive(Copy, Clone)]
pub struct Trace {
    pub(crate) id: TraceId,
    pub(crate) len: u8,
    pub(crate) call_count: u8,
    pub(crate) ends_in_return: bool,
    pub(crate) ends_in_indirect: bool,
    pub(crate) last_pc: u32,
    // The builder fills traces in place in one reused `Trace`, so slots
    // past `n_controls` hold an earlier trace's entries; only
    // `controls()` (and `Debug`, through it) reads this array.
    pub(crate) controls: [CtrlInfo; MAX_TRACE_LEN],
    pub(crate) n_controls: u8,
}

impl Trace {
    /// An empty trace (length 0) whose control array the builder reuses
    /// for every trace it selects.
    pub(crate) fn empty() -> Trace {
        Trace {
            id: TraceId::new(0, 0, 0),
            len: 0,
            call_count: 0,
            ends_in_return: false,
            ends_in_indirect: false,
            last_pc: 0,
            controls: [CtrlInfo {
                pc: 0,
                target: 0,
                kind: ControlKind::None,
                taken: false,
            }; MAX_TRACE_LEN],
            n_controls: 0,
        }
    }

    /// Opens a new trace at `pc`, reusing the control array unread.
    #[inline]
    pub(crate) fn open_at(&mut self, pc: u32) {
        self.id = TraceId::new(pc, 0, 0);
        self.len = 0;
        self.call_count = 0;
        self.ends_in_return = false;
        self.ends_in_indirect = false;
        self.last_pc = pc;
        self.n_controls = 0;
    }

    /// The trace's identifier (start PC + branch outcomes).
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Number of instructions in the trace (1–16).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Always false: traces contain at least one instruction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of call instructions (`jal`/`jalr`) in the trace — the field
    /// the return history stack consumes.
    pub fn call_count(&self) -> u8 {
        self.call_count
    }

    /// True if the last instruction is a return (`jr ra`).
    pub fn ends_in_return(&self) -> bool {
        self.ends_in_return
    }

    /// True if the last instruction has an indirect target (including
    /// returns).
    pub fn ends_in_indirect(&self) -> bool {
        self.ends_in_indirect
    }

    /// Address of the last instruction in the trace.
    pub fn last_pc(&self) -> u32 {
        self.last_pc
    }

    /// Number of embedded conditional branches (0–6).
    pub fn branch_count(&self) -> usize {
        self.id.branch_count as usize
    }

    /// All control-transfer instructions in the trace, in program order.
    pub fn controls(&self) -> &[CtrlInfo] {
        &self.controls[..self.n_controls as usize]
    }

    /// Only the conditional branches, in program order.
    pub fn cond_branches(&self) -> impl Iterator<Item = &CtrlInfo> {
        self.controls()
            .iter()
            .filter(|c| c.kind == ControlKind::CondBranch)
    }

    /// The indirect jump, indirect call or return that ends the trace, if
    /// it ends in one. No other control in a trace has an indirect target.
    #[inline]
    pub fn trailing_indirect(&self) -> Option<&CtrlInfo> {
        if self.ends_in_indirect {
            self.controls().last()
        } else {
            None
        }
    }
}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Trace")
            .field("id", &self.id)
            .field("len", &self.len)
            .field("call_count", &self.call_count)
            .field("ends_in_return", &self.ends_in_return)
            .field("ends_in_indirect", &self.ends_in_indirect)
            .field("last_pc", &self.last_pc)
            .field("controls", &self.controls())
            .finish()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} len={} calls={}{}",
            self.id,
            self.len,
            self.call_count,
            if self.ends_in_return { " ret" } else { "" }
        )
    }
}
