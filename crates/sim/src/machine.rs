//! The TRISC functional machine.

use crate::{Memory, MemoryConfig};
use ntp_isa::{ControlKind, Instr, Program, Reg, STACK_TOP};
use std::fmt;

/// Simulation error (all are fatal to the run).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// Load/store touched an unmapped or misaligned address.
    MemFault {
        /// The faulting address.
        addr: u32,
    },
    /// The program counter left the text segment.
    PcOutOfRange {
        /// The invalid program counter.
        pc: u32,
    },
    /// An instruction executed after the machine halted.
    Halted,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MemFault { addr } => write!(f, "memory fault at 0x{addr:08x}"),
            SimError::PcOutOfRange { pc } => write!(f, "pc 0x{pc:08x} outside text segment"),
            SimError::Halted => f.write_str("machine is halted"),
        }
    }
}

impl std::error::Error for SimError {}

/// Why [`Machine::run`] stopped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// A `halt` instruction retired.
    Halted,
    /// The instruction budget was exhausted first.
    BudgetExhausted,
}

/// A retired control-transfer instruction, as observed by front-end
/// predictors.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ControlEvent {
    /// Control-flow class of the instruction.
    pub kind: ControlKind,
    /// Whether control actually transferred (always true except for
    /// not-taken conditional branches).
    pub taken: bool,
    /// The taken-path target: for a not-taken conditional branch this is the
    /// target the branch *would have* jumped to; for indirect transfers it is
    /// the actual destination.
    pub target: u32,
}

/// One retired instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// Address of the instruction.
    pub pc: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// Control-flow outcome, if the instruction transfers control.
    pub control: Option<ControlEvent>,
}

impl Step {
    /// The address of the next instruction to execute.
    pub fn next_pc(&self) -> u32 {
        match self.control {
            Some(ev) if ev.taken => ev.target,
            _ => self.pc.wrapping_add(4),
        }
    }
}

/// A functional TRISC machine executing one [`Program`].
///
/// # Examples
///
/// ```
/// use ntp_isa::asm::assemble;
/// use ntp_sim::Machine;
///
/// let p = assemble("main: addi v0, zero, 21\n add v0, v0, v0\n out v0\n halt\n")?;
/// let mut m = Machine::new(p);
/// m.run(100)?;
/// assert_eq!(m.output(), &[42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    program: Program,
    regs: [u32; 32],
    pc: u32,
    mem: Memory,
    icount: u64,
    halted: bool,
    output: Vec<u32>,
}

impl Machine {
    /// Builds a machine with default memory capacities, loads the program's
    /// data image, and points `pc` at the entry label.
    pub fn new(program: Program) -> Machine {
        Machine::with_config(program, MemoryConfig::default())
    }

    /// Builds a machine with explicit memory capacities.
    ///
    /// # Panics
    ///
    /// Panics if the program's initialized data exceeds the data capacity,
    /// or if its segments leave the 32-bit address space or overlap (see
    /// [`Memory::new`]).
    pub fn with_config(program: Program, config: MemoryConfig) -> Machine {
        let text_bytes: Vec<u8> = program
            .encode_text()
            .into_iter()
            .flat_map(u32::to_le_bytes)
            .collect();
        let mem = Memory::new(
            text_bytes,
            program.text_base,
            &program.data,
            program.data_base,
            config,
        );
        let mut regs = [0u32; 32];
        regs[Reg::SP.index()] = STACK_TOP;
        let pc = program.entry;
        Machine {
            program,
            regs,
            pc,
            mem,
            icount: 0,
            halted: false,
            output: Vec::new(),
        }
    }

    /// The current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads a register (reads of `r0` always return 0).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register (writes to `r0` are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u32) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    /// Instructions retired so far.
    pub fn icount(&self) -> u64 {
        self.icount
    }

    /// True once a `halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Values emitted by `out` instructions, in order.
    pub fn output(&self) -> &[u32] {
        &self.output
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Direct access to memory (e.g. to poke workload inputs at a symbol).
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable access to memory.
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Executes one instruction and reports what retired.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Halted`] if the machine already halted, and
    /// propagates memory faults and control transfers out of the text
    /// segment.
    ///
    /// `#[inline]` so that [`Machine::run_with`], which its caller's crate
    /// compiles, runs each instruction in its own loop instead of calling
    /// back into this crate once per retired instruction.
    #[inline]
    pub fn step(&mut self) -> Result<Step, SimError> {
        use Instr::*;
        if self.halted {
            return Err(SimError::Halted);
        }
        let pc = self.pc;
        let instr = *self
            .program
            .instr_at(pc)
            .ok_or(SimError::PcOutOfRange { pc })?;

        let mut control: Option<ControlEvent> = None;
        let mut next = pc.wrapping_add(4);

        macro_rules! alu {
            ($d:expr, $v:expr) => {{
                let v = $v;
                self.set_reg($d, v);
            }};
        }

        match instr {
            Add(d, s, t) => alu!(d, self.reg(s).wrapping_add(self.reg(t))),
            Sub(d, s, t) => alu!(d, self.reg(s).wrapping_sub(self.reg(t))),
            And(d, s, t) => alu!(d, self.reg(s) & self.reg(t)),
            Or(d, s, t) => alu!(d, self.reg(s) | self.reg(t)),
            Xor(d, s, t) => alu!(d, self.reg(s) ^ self.reg(t)),
            Nor(d, s, t) => alu!(d, !(self.reg(s) | self.reg(t))),
            Slt(d, s, t) => alu!(d, ((self.reg(s) as i32) < (self.reg(t) as i32)) as u32),
            Sltu(d, s, t) => alu!(d, (self.reg(s) < self.reg(t)) as u32),
            Sllv(d, s, t) => alu!(d, self.reg(s) << (self.reg(t) & 31)),
            Srlv(d, s, t) => alu!(d, self.reg(s) >> (self.reg(t) & 31)),
            Srav(d, s, t) => alu!(d, ((self.reg(s) as i32) >> (self.reg(t) & 31)) as u32),
            Mul(d, s, t) => alu!(d, self.reg(s).wrapping_mul(self.reg(t))),
            Div(d, s, t) => {
                let (a, b) = (self.reg(s) as i32, self.reg(t) as i32);
                let v = if b == 0 {
                    -1
                } else if a == i32::MIN && b == -1 {
                    i32::MIN
                } else {
                    a / b
                };
                alu!(d, v as u32)
            }
            Divu(d, s, t) => {
                let (a, b) = (self.reg(s), self.reg(t));
                alu!(d, a.checked_div(b).unwrap_or(u32::MAX))
            }
            Rem(d, s, t) => {
                let (a, b) = (self.reg(s) as i32, self.reg(t) as i32);
                let v = if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a % b
                };
                alu!(d, v as u32)
            }
            Remu(d, s, t) => {
                let (a, b) = (self.reg(s), self.reg(t));
                alu!(d, if b == 0 { a } else { a % b })
            }
            Sll(d, s, sh) => alu!(d, self.reg(s) << sh),
            Srl(d, s, sh) => alu!(d, self.reg(s) >> sh),
            Sra(d, s, sh) => alu!(d, ((self.reg(s) as i32) >> sh) as u32),
            Addi(d, s, imm) => alu!(d, self.reg(s).wrapping_add(imm as i32 as u32)),
            Andi(d, s, imm) => alu!(d, self.reg(s) & imm as u32),
            Ori(d, s, imm) => alu!(d, self.reg(s) | imm as u32),
            Xori(d, s, imm) => alu!(d, self.reg(s) ^ imm as u32),
            Slti(d, s, imm) => alu!(d, ((self.reg(s) as i32) < imm as i32) as u32),
            Sltiu(d, s, imm) => alu!(d, (self.reg(s) < imm as i32 as u32) as u32),
            Lui(d, imm) => alu!(d, (imm as u32) << 16),
            Lw(d, b, off) => {
                let v = self
                    .mem
                    .load32(self.reg(b).wrapping_add(off as i32 as u32))?;
                alu!(d, v)
            }
            Lh(d, b, off) => {
                let v = self
                    .mem
                    .load16(self.reg(b).wrapping_add(off as i32 as u32))?;
                alu!(d, v as i16 as i32 as u32)
            }
            Lhu(d, b, off) => {
                let v = self
                    .mem
                    .load16(self.reg(b).wrapping_add(off as i32 as u32))?;
                alu!(d, v as u32)
            }
            Lb(d, b, off) => {
                let v = self
                    .mem
                    .load8(self.reg(b).wrapping_add(off as i32 as u32))?;
                alu!(d, v as i8 as i32 as u32)
            }
            Lbu(d, b, off) => {
                let v = self
                    .mem
                    .load8(self.reg(b).wrapping_add(off as i32 as u32))?;
                alu!(d, v as u32)
            }
            Sw(src, b, off) => {
                self.mem
                    .store32(self.reg(b).wrapping_add(off as i32 as u32), self.reg(src))?;
            }
            Sh(src, b, off) => {
                self.mem.store16(
                    self.reg(b).wrapping_add(off as i32 as u32),
                    self.reg(src) as u16,
                )?;
            }
            Sb(src, b, off) => {
                self.mem.store8(
                    self.reg(b).wrapping_add(off as i32 as u32),
                    self.reg(src) as u8,
                )?;
            }
            Beq(s, t, _)
            | Bne(s, t, _)
            | Blt(s, t, _)
            | Bge(s, t, _)
            | Bltu(s, t, _)
            | Bgeu(s, t, _) => {
                let (a, b) = (self.reg(s), self.reg(t));
                let taken = match instr {
                    Beq(..) => a == b,
                    Bne(..) => a != b,
                    Blt(..) => (a as i32) < (b as i32),
                    Bge(..) => (a as i32) >= (b as i32),
                    Bltu(..) => a < b,
                    _ => a >= b,
                };
                let target = instr.direct_target(pc).expect("branch has direct target");
                if taken {
                    next = target;
                }
                control = Some(ControlEvent {
                    kind: ControlKind::CondBranch,
                    taken,
                    target,
                });
            }
            J(_) | Jal(_) => {
                let target = instr.direct_target(pc).expect("jump has direct target");
                if matches!(instr, Jal(_)) {
                    self.set_reg(Reg::RA, pc.wrapping_add(4));
                }
                next = target;
                control = Some(ControlEvent {
                    kind: instr.control_kind(),
                    taken: true,
                    target,
                });
            }
            Jr(s) => {
                let target = self.reg(s);
                next = target;
                control = Some(ControlEvent {
                    kind: instr.control_kind(),
                    taken: true,
                    target,
                });
            }
            Jalr(d, s) => {
                let target = self.reg(s);
                self.set_reg(d, pc.wrapping_add(4));
                next = target;
                control = Some(ControlEvent {
                    kind: ControlKind::IndirectCall,
                    taken: true,
                    target,
                });
            }
            Halt => {
                self.halted = true;
            }
            Out(s) => {
                self.output.push(self.reg(s));
            }
        }

        self.pc = next;
        self.icount += 1;
        Ok(Step { pc, instr, control })
    }

    /// Runs until `halt` or until `budget` instructions have retired.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    pub fn run(&mut self, budget: u64) -> Result<StopReason, SimError> {
        self.run_with(budget, |_| {})
    }

    /// Runs like [`Machine::run`], invoking `visit` on every retired
    /// instruction. This is the streaming interface the trace builder and
    /// baseline predictors consume.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`].
    pub fn run_with<F: FnMut(&Step)>(
        &mut self,
        budget: u64,
        mut visit: F,
    ) -> Result<StopReason, SimError> {
        for _ in 0..budget {
            if self.halted {
                return Ok(StopReason::Halted);
            }
            let step = self.step()?;
            visit(&step);
        }
        if self.halted {
            Ok(StopReason::Halted)
        } else {
            Ok(StopReason::BudgetExhausted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_isa::asm::assemble;

    fn run_src(src: &str) -> Machine {
        let p = assemble(src).expect("assembles");
        let mut m = Machine::new(p);
        m.run(1_000_000).expect("runs");
        assert!(m.halted());
        m
    }

    #[test]
    fn arithmetic_basics() {
        let m = run_src(
            "
main:   li   t0, 7
        li   t1, -3
        add  t2, t0, t1
        out  t2
        sub  t2, t0, t1
        out  t2
        mul  t2, t0, t1
        out  t2
        div  t2, t0, t1
        out  t2
        rem  t2, t0, t1
        out  t2
        halt
",
        );
        assert_eq!(m.output(), &[4, 10, (-21i32) as u32, (-2i32) as u32, 1]);
    }

    #[test]
    fn division_by_zero_semantics() {
        let m = run_src(
            "
main:   li   t0, 9
        li   t1, 0
        div  t2, t0, t1
        out  t2
        divu t2, t0, t1
        out  t2
        rem  t2, t0, t1
        out  t2
        halt
",
        );
        assert_eq!(m.output(), &[u32::MAX, u32::MAX, 9]);
    }

    #[test]
    fn shifts_and_logic() {
        let m = run_src(
            "
main:   li   t0, 0xF0
        sll  t1, t0, 4
        out  t1
        srl  t1, t0, 4
        out  t1
        li   t0, -16
        sra  t1, t0, 2
        out  t1
        li   t2, 2
        sllv t1, t0, t2
        out  t1
        halt
",
        );
        assert_eq!(m.output(), &[0xF00, 0x0F, (-4i32) as u32, (-64i32) as u32]);
    }

    #[test]
    fn memory_and_data_labels() {
        let m = run_src(
            "
main:   la   t0, nums
        lw   t1, 0(t0)
        lw   t2, 4(t0)
        add  t3, t1, t2
        sw   t3, 8(t0)
        lw   t4, 8(t0)
        out  t4
        lb   t5, 12(t0)
        out  t5
        lbu  t6, 12(t0)
        out  t6
        halt
        .data
nums:   .word 100, 23, 0
        .byte -1
",
        );
        assert_eq!(m.output(), &[123, u32::MAX, 255]);
    }

    #[test]
    fn call_and_return() {
        let m = run_src(
            "
main:   li   a0, 5
        jal  double
        out  v0
        halt
double: add  v0, a0, a0
        ret
",
        );
        assert_eq!(m.output(), &[10]);
    }

    #[test]
    fn recursion_factorial() {
        let m = run_src(
            "
main:   li   a0, 6
        jal  fact
        out  v0
        halt
fact:   addi sp, sp, -8
        sw   ra, 4(sp)
        sw   a0, 0(sp)
        li   v0, 1
        blez a0, fbase
        addi a0, a0, -1
        jal  fact
        lw   a0, 0(sp)
        mul  v0, v0, a0
fbase:  lw   ra, 4(sp)
        addi sp, sp, 8
        ret
",
        );
        assert_eq!(m.output(), &[720]);
    }

    #[test]
    fn indirect_jump_table() {
        let m = run_src(
            "
main:   la   t0, table
        li   t1, 1
        sll  t2, t1, 2
        add  t3, t0, t2
        lw   t4, 0(t3)
        jr   t4
case0:  out  zero
        halt
case1:  li   v0, 11
        out  v0
        halt
        .data
table:  .word case0, case1
",
        );
        assert_eq!(m.output(), &[11]);
    }

    #[test]
    fn control_events_reported() {
        let p = assemble(
            "
main:   beqz zero, skip
        nop
skip:   jal  f
        halt
f:      ret
",
        )
        .unwrap();
        let mut m = Machine::new(p);
        let b = m.step().unwrap();
        let ev = b.control.unwrap();
        assert_eq!(ev.kind, ControlKind::CondBranch);
        assert!(ev.taken);
        assert_eq!(b.next_pc(), ev.target);
        let j = m.step().unwrap();
        assert_eq!(j.control.unwrap().kind, ControlKind::Call);
        let r = m.step().unwrap();
        assert_eq!(r.control.unwrap().kind, ControlKind::Return);
        assert_eq!(r.control.unwrap().target, j.pc + 4);
    }

    #[test]
    fn not_taken_branch_records_would_be_target() {
        let p = assemble("main: li t0, 1\n beqz t0, away\n halt\naway: halt\n").unwrap();
        let mut m = Machine::new(p);
        m.step().unwrap();
        let b = m.step().unwrap();
        let ev = b.control.unwrap();
        assert!(!ev.taken);
        assert_eq!(ev.target, m.program().symbol("away").unwrap());
        assert_eq!(b.next_pc(), b.pc + 4);
    }

    #[test]
    fn budget_stops_infinite_loop() {
        let p = assemble("main: j main\n").unwrap();
        let mut m = Machine::new(p);
        assert_eq!(m.run(1000).unwrap(), StopReason::BudgetExhausted);
        assert_eq!(m.icount(), 1000);
    }

    #[test]
    fn stepping_after_halt_errors() {
        let p = assemble("main: halt\n").unwrap();
        let mut m = Machine::new(p);
        m.step().unwrap();
        assert_eq!(m.step(), Err(SimError::Halted));
    }

    #[test]
    fn wild_jump_faults() {
        let p = assemble("main: li t0, 0x100\n jr t0\n").unwrap();
        let mut m = Machine::new(p);
        m.step().unwrap();
        m.step().unwrap();
        assert!(matches!(m.step(), Err(SimError::PcOutOfRange { .. })));
    }

    #[test]
    fn r0_is_immutable() {
        let m = run_src("main: li t0, 5\n add zero, t0, t0\n out zero\n halt\n");
        assert_eq!(m.output(), &[0]);
    }
}
