//! Assembled program images and the default memory layout.

use crate::{encode, Instr};
use std::collections::HashMap;

/// Default base address of the text (code) segment.
pub const TEXT_BASE: u32 = 0x0040_0000;
/// Default base address of the data segment.
pub const DATA_BASE: u32 = 0x1000_0000;
/// Default initial stack pointer (stack grows down from here).
pub const STACK_TOP: u32 = 0x7FFF_FF00;

/// An assembled program: code, initialized data, entry point and symbols.
///
/// Produced by [`crate::asm::assemble`]; consumed by the `ntp-sim` machine.
///
/// # Examples
///
/// ```
/// use ntp_isa::asm::assemble;
/// let p = assemble("main: addi v0, zero, 42\n out v0\n halt\n").unwrap();
/// assert_eq!(p.entry, p.text_base);
/// assert_eq!(p.instrs.len(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Address of the first instruction.
    pub text_base: u32,
    /// Decoded instructions, contiguous from `text_base`.
    pub instrs: Vec<Instr>,
    /// Address of the first byte of initialized data.
    pub data_base: u32,
    /// Initialized data image, contiguous from `data_base`.
    pub data: Vec<u8>,
    /// Address execution starts at (the `main` label if present).
    pub entry: u32,
    /// Label name → address, for poking inputs and reading results.
    pub symbols: HashMap<String, u32>,
}

impl Program {
    /// Creates an empty program using the default layout.
    pub fn new() -> Program {
        Program {
            text_base: TEXT_BASE,
            instrs: Vec::new(),
            data_base: DATA_BASE,
            data: Vec::new(),
            entry: TEXT_BASE,
            symbols: HashMap::new(),
        }
    }

    /// The instruction at `pc`, or `None` if `pc` is outside the text segment
    /// or not word-aligned.
    pub fn instr_at(&self, pc: u32) -> Option<&Instr> {
        if pc < self.text_base || pc & 3 != 0 {
            return None;
        }
        self.instrs.get(((pc - self.text_base) >> 2) as usize)
    }

    /// Looks up a label's address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Encodes the text segment to raw instruction words.
    pub fn encode_text(&self) -> Vec<u32> {
        self.instrs.iter().map(encode).collect()
    }

    /// Total static instruction count.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

impl Default for Program {
    fn default() -> Program {
        Program::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn instr_at_bounds() {
        let mut p = Program::new();
        p.instrs.push(Instr::Halt);
        assert_eq!(p.instr_at(p.text_base), Some(&Instr::Halt));
        assert_eq!(p.instr_at(p.text_base + 4), None);
        assert_eq!(p.instr_at(p.text_base + 1), None);
        assert_eq!(p.instr_at(0), None);
    }

    #[test]
    fn encode_text_matches_len() {
        let mut p = Program::new();
        p.instrs.push(Instr::Addi(Reg::V0, Reg::ZERO, 5));
        p.instrs.push(Instr::Halt);
        assert_eq!(p.encode_text().len(), 2);
    }
}
