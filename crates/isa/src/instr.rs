//! The TRISC instruction set.
//!
//! TRISC is a 32-bit, fixed-width, byte-addressed RISC instruction set in the
//! spirit of the MIPS-derived ISA SimpleScalar used in the original paper.
//! Field order in every variant is destination-first.

use crate::Reg;
use std::fmt;

/// A decoded TRISC instruction.
///
/// Branch offsets are in *instructions* (words) relative to the address of the
/// following instruction (`pc + 4`), as in MIPS. `J`/`Jal` carry a 26-bit
/// word-address that replaces bits `[27:2]` of `pc + 4`.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Instr {
    // ---- three-register ALU ----
    /// `rd = rs + rt` (wrapping).
    Add(Reg, Reg, Reg),
    /// `rd = rs - rt` (wrapping).
    Sub(Reg, Reg, Reg),
    /// `rd = rs & rt`.
    And(Reg, Reg, Reg),
    /// `rd = rs | rt`.
    Or(Reg, Reg, Reg),
    /// `rd = rs ^ rt`.
    Xor(Reg, Reg, Reg),
    /// `rd = !(rs | rt)`.
    Nor(Reg, Reg, Reg),
    /// `rd = (rs as i32) < (rt as i32)`.
    Slt(Reg, Reg, Reg),
    /// `rd = rs < rt` (unsigned).
    Sltu(Reg, Reg, Reg),
    /// `rd = rs << (rt & 31)`.
    Sllv(Reg, Reg, Reg),
    /// `rd = rs >> (rt & 31)` (logical).
    Srlv(Reg, Reg, Reg),
    /// `rd = (rs as i32) >> (rt & 31)` (arithmetic).
    Srav(Reg, Reg, Reg),
    /// `rd = rs * rt` (low 32 bits, wrapping).
    Mul(Reg, Reg, Reg),
    /// `rd = (rs as i32) / (rt as i32)`; division by zero yields `-1`.
    Div(Reg, Reg, Reg),
    /// `rd = rs / rt` (unsigned); division by zero yields `u32::MAX`.
    Divu(Reg, Reg, Reg),
    /// `rd = (rs as i32) % (rt as i32)`; modulo by zero yields `rs`.
    Rem(Reg, Reg, Reg),
    /// `rd = rs % rt` (unsigned); modulo by zero yields `rs`.
    Remu(Reg, Reg, Reg),

    // ---- shift-immediate ----
    /// `rd = rs << shamt`.
    Sll(Reg, Reg, u8),
    /// `rd = rs >> shamt` (logical).
    Srl(Reg, Reg, u8),
    /// `rd = (rs as i32) >> shamt` (arithmetic).
    Sra(Reg, Reg, u8),

    // ---- immediate ALU ----
    /// `rd = rs + sign_extend(imm)`.
    Addi(Reg, Reg, i16),
    /// `rd = rs & zero_extend(imm)`.
    Andi(Reg, Reg, u16),
    /// `rd = rs | zero_extend(imm)`.
    Ori(Reg, Reg, u16),
    /// `rd = rs ^ zero_extend(imm)`.
    Xori(Reg, Reg, u16),
    /// `rd = (rs as i32) < sign_extend(imm)`.
    Slti(Reg, Reg, i16),
    /// `rd = rs < sign_extend(imm) as u32` (unsigned compare).
    Sltiu(Reg, Reg, i16),
    /// `rd = imm << 16`.
    Lui(Reg, u16),

    // ---- loads (rd, base, offset) ----
    /// Load word: `rd = mem32[rs + offset]`.
    Lw(Reg, Reg, i16),
    /// Load halfword, sign-extended.
    Lh(Reg, Reg, i16),
    /// Load halfword, zero-extended.
    Lhu(Reg, Reg, i16),
    /// Load byte, sign-extended.
    Lb(Reg, Reg, i16),
    /// Load byte, zero-extended.
    Lbu(Reg, Reg, i16),

    // ---- stores (src, base, offset) ----
    /// Store word: `mem32[rs + offset] = rt`.
    Sw(Reg, Reg, i16),
    /// Store low halfword.
    Sh(Reg, Reg, i16),
    /// Store low byte.
    Sb(Reg, Reg, i16),

    // ---- conditional branches (rs, rt, offset-in-words) ----
    /// Branch if `rs == rt`.
    Beq(Reg, Reg, i16),
    /// Branch if `rs != rt`.
    Bne(Reg, Reg, i16),
    /// Branch if `(rs as i32) < (rt as i32)`.
    Blt(Reg, Reg, i16),
    /// Branch if `(rs as i32) >= (rt as i32)`.
    Bge(Reg, Reg, i16),
    /// Branch if `rs < rt` (unsigned).
    Bltu(Reg, Reg, i16),
    /// Branch if `rs >= rt` (unsigned).
    Bgeu(Reg, Reg, i16),

    // ---- jumps ----
    /// Unconditional direct jump to a 26-bit word address.
    J(u32),
    /// Direct call: `ra = pc + 4`, jump to a 26-bit word address.
    Jal(u32),
    /// Indirect jump to the address in `rs`; `jr ra` is the return idiom.
    Jr(Reg),
    /// Indirect call: `rd = pc + 4`, jump to the address in `rs`.
    Jalr(Reg, Reg),

    // ---- system ----
    /// Stop the machine.
    Halt,
    /// Append the value of `rs` to the machine's output buffer.
    Out(Reg),
}

/// Control-flow classification of an instruction, as seen by front-end
/// predictors.
///
/// The trace selector cares about three properties that this enum encodes:
/// whether an instruction is a conditional branch (it consumes one of the six
/// outcome bits in a trace ID), whether its target is indirect (it must end a
/// trace, §3.1 of the paper), and whether it is a call or return (the return
/// history stack counts calls per trace and reacts to returns).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ControlKind {
    /// Not a control-transfer instruction.
    None,
    /// Conditional direct branch (`beq` … `bgeu`).
    CondBranch,
    /// Unconditional direct jump (`j`).
    Jump,
    /// Direct call (`jal`).
    Call,
    /// Indirect jump (`jr rs` with `rs != ra`).
    IndirectJump,
    /// Indirect call (`jalr`).
    IndirectCall,
    /// Subroutine return (`jr ra`).
    Return,
}

impl ControlKind {
    /// True if the target cannot be derived from the instruction encoding
    /// (indirect jumps/calls and returns). Such instructions terminate a
    /// trace because trace IDs only encode conditional-branch outcomes.
    pub fn is_indirect(self) -> bool {
        matches!(
            self,
            ControlKind::IndirectJump | ControlKind::IndirectCall | ControlKind::Return
        )
    }
}

impl Instr {
    /// Classifies this instruction's control-flow behaviour.
    ///
    /// ```
    /// use ntp_isa::{ControlKind, Instr, Reg};
    /// assert_eq!(Instr::Jr(Reg::RA).control_kind(), ControlKind::Return);
    /// let t0 = Reg::from_name("t0").unwrap();
    /// assert_eq!(Instr::Jr(t0).control_kind(), ControlKind::IndirectJump);
    /// ```
    pub fn control_kind(&self) -> ControlKind {
        match self {
            Instr::Beq(..)
            | Instr::Bne(..)
            | Instr::Blt(..)
            | Instr::Bge(..)
            | Instr::Bltu(..)
            | Instr::Bgeu(..) => ControlKind::CondBranch,
            Instr::J(_) => ControlKind::Jump,
            Instr::Jal(_) => ControlKind::Call,
            Instr::Jr(rs) => {
                if *rs == Reg::RA {
                    ControlKind::Return
                } else {
                    ControlKind::IndirectJump
                }
            }
            Instr::Jalr(..) => ControlKind::IndirectCall,
            _ => ControlKind::None,
        }
    }

    /// The statically-known target of a direct control transfer located at
    /// `pc`, or `None` for non-control and indirect instructions.
    ///
    /// Branch targets are `pc + 4 + offset * 4`; jump targets splice the
    /// 26-bit word address into bits `[27:2]` of `pc + 4`.
    pub fn direct_target(&self, pc: u32) -> Option<u32> {
        match self {
            Instr::Beq(_, _, off)
            | Instr::Bne(_, _, off)
            | Instr::Blt(_, _, off)
            | Instr::Bge(_, _, off)
            | Instr::Bltu(_, _, off)
            | Instr::Bgeu(_, _, off) => {
                Some(pc.wrapping_add(4).wrapping_add((*off as i32 as u32) << 2))
            }
            Instr::J(t) | Instr::Jal(t) => {
                Some((pc.wrapping_add(4) & 0xF000_0000) | ((t & 0x03FF_FFFF) << 2))
            }
            _ => None,
        }
    }

    /// The mnemonic of this instruction, as accepted by the assembler.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Add(..) => "add",
            Instr::Sub(..) => "sub",
            Instr::And(..) => "and",
            Instr::Or(..) => "or",
            Instr::Xor(..) => "xor",
            Instr::Nor(..) => "nor",
            Instr::Slt(..) => "slt",
            Instr::Sltu(..) => "sltu",
            Instr::Sllv(..) => "sllv",
            Instr::Srlv(..) => "srlv",
            Instr::Srav(..) => "srav",
            Instr::Mul(..) => "mul",
            Instr::Div(..) => "div",
            Instr::Divu(..) => "divu",
            Instr::Rem(..) => "rem",
            Instr::Remu(..) => "remu",
            Instr::Sll(..) => "sll",
            Instr::Srl(..) => "srl",
            Instr::Sra(..) => "sra",
            Instr::Addi(..) => "addi",
            Instr::Andi(..) => "andi",
            Instr::Ori(..) => "ori",
            Instr::Xori(..) => "xori",
            Instr::Slti(..) => "slti",
            Instr::Sltiu(..) => "sltiu",
            Instr::Lui(..) => "lui",
            Instr::Lw(..) => "lw",
            Instr::Lh(..) => "lh",
            Instr::Lhu(..) => "lhu",
            Instr::Lb(..) => "lb",
            Instr::Lbu(..) => "lbu",
            Instr::Sw(..) => "sw",
            Instr::Sh(..) => "sh",
            Instr::Sb(..) => "sb",
            Instr::Beq(..) => "beq",
            Instr::Bne(..) => "bne",
            Instr::Blt(..) => "blt",
            Instr::Bge(..) => "bge",
            Instr::Bltu(..) => "bltu",
            Instr::Bgeu(..) => "bgeu",
            Instr::J(_) => "j",
            Instr::Jal(_) => "jal",
            Instr::Jr(_) => "jr",
            Instr::Jalr(..) => "jalr",
            Instr::Halt => "halt",
            Instr::Out(_) => "out",
        }
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let m = self.mnemonic();
        match *self {
            Instr::Add(d, s, t)
            | Instr::Sub(d, s, t)
            | Instr::And(d, s, t)
            | Instr::Or(d, s, t)
            | Instr::Xor(d, s, t)
            | Instr::Nor(d, s, t)
            | Instr::Slt(d, s, t)
            | Instr::Sltu(d, s, t)
            | Instr::Sllv(d, s, t)
            | Instr::Srlv(d, s, t)
            | Instr::Srav(d, s, t)
            | Instr::Mul(d, s, t)
            | Instr::Div(d, s, t)
            | Instr::Divu(d, s, t)
            | Instr::Rem(d, s, t)
            | Instr::Remu(d, s, t) => write!(f, "{m} {d}, {s}, {t}"),
            Instr::Sll(d, s, sh) | Instr::Srl(d, s, sh) | Instr::Sra(d, s, sh) => {
                write!(f, "{m} {d}, {s}, {sh}")
            }
            Instr::Addi(d, s, i) | Instr::Slti(d, s, i) | Instr::Sltiu(d, s, i) => {
                write!(f, "{m} {d}, {s}, {i}")
            }
            Instr::Andi(d, s, i) | Instr::Ori(d, s, i) | Instr::Xori(d, s, i) => {
                write!(f, "{m} {d}, {s}, 0x{i:x}")
            }
            Instr::Lui(d, i) => write!(f, "{m} {d}, 0x{i:x}"),
            Instr::Lw(d, b, o)
            | Instr::Lh(d, b, o)
            | Instr::Lhu(d, b, o)
            | Instr::Lb(d, b, o)
            | Instr::Lbu(d, b, o)
            | Instr::Sw(d, b, o)
            | Instr::Sh(d, b, o)
            | Instr::Sb(d, b, o) => write!(f, "{m} {d}, {o}({b})"),
            Instr::Beq(s, t, o)
            | Instr::Bne(s, t, o)
            | Instr::Blt(s, t, o)
            | Instr::Bge(s, t, o)
            | Instr::Bltu(s, t, o)
            | Instr::Bgeu(s, t, o) => write!(f, "{m} {s}, {t}, {o}"),
            Instr::J(t) | Instr::Jal(t) => write!(f, "{m} 0x{:x}", t << 2),
            Instr::Jr(s) => write!(f, "{m} {s}"),
            Instr::Jalr(d, s) => write!(f, "{m} {d}, {s}"),
            Instr::Halt => f.write_str(m),
            Instr::Out(s) => write!(f, "{m} {s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_kind_classification() {
        assert_eq!(
            Instr::Beq(Reg::ZERO, Reg::ZERO, 1).control_kind(),
            ControlKind::CondBranch
        );
        assert_eq!(Instr::J(0).control_kind(), ControlKind::Jump);
        assert_eq!(Instr::Jal(0).control_kind(), ControlKind::Call);
        assert_eq!(Instr::Jr(Reg::RA).control_kind(), ControlKind::Return);
        assert_eq!(
            Instr::Jr(Reg::new(8).unwrap()).control_kind(),
            ControlKind::IndirectJump
        );
        assert_eq!(
            Instr::Jalr(Reg::RA, Reg::new(8).unwrap()).control_kind(),
            ControlKind::IndirectCall
        );
        assert_eq!(
            Instr::Add(Reg::ZERO, Reg::ZERO, Reg::ZERO).control_kind(),
            ControlKind::None
        );
    }

    #[test]
    fn indirect_and_call_flags() {
        assert!(ControlKind::Return.is_indirect());
        assert!(ControlKind::IndirectCall.is_indirect());
        assert!(!ControlKind::CondBranch.is_indirect());
    }

    #[test]
    fn branch_target_arithmetic() {
        let b = Instr::Beq(Reg::ZERO, Reg::ZERO, -2);
        assert_eq!(b.direct_target(0x100), Some(0x100 + 4 - 8));
        let b = Instr::Bne(Reg::ZERO, Reg::ZERO, 3);
        assert_eq!(b.direct_target(0x100), Some(0x100 + 4 + 12));
    }

    #[test]
    fn jump_target_splices_region() {
        let j = Instr::J(0x40);
        assert_eq!(
            j.direct_target(0x1000_0000),
            Some(0x1000_0000 & 0xF000_0000 | 0x100)
        );
        assert_eq!(Instr::Jr(Reg::RA).direct_target(0), None);
        assert_eq!(Instr::Halt.direct_target(0), None);
    }
}
