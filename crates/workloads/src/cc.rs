//! `cc` — recursive-descent expression compiler (analog of SpecInt95
//! *gcc*).
//!
//! Character preserved: parser-style code with many distinct control paths,
//! deep call chains and recursion through `( … )` nesting, giving a large
//! static-trace working set the way gcc does. Like gcc, it has two phases
//! per statement: the parser *emits postfix bytecode* while it evaluates,
//! and a stack-machine interpreter then executes the bytecode — the two
//! results must agree (the emitted `out` stream carries both checksums, so
//! a codegen bug is self-detected).
//!
//! Grammar over a byte stream (NUL-terminated):
//!
//! ```text
//! program := (var '=' expr ';')*
//! expr    := term (('+'|'-') term)*
//! term    := factor ('*' factor)*
//! factor  := number | var | '(' expr ')' | '-' factor
//! ```

use crate::util::{fill, Lcg};
use crate::Workload;
use ntp_isa::asm::assemble;

/// Generates a random program in the expression language.
fn make_input(statements: usize, seed: u32) -> Vec<u8> {
    let mut lcg = Lcg::new(seed);
    let mut out = Vec::new();
    for s in 0..statements {
        let var = b'a' + (s % 26) as u8;
        out.push(var);
        out.push(b'=');
        gen_expr(&mut lcg, &mut out, 0);
        out.push(b';');
    }
    out.push(0);
    out
}

fn gen_expr(lcg: &mut Lcg, out: &mut Vec<u8>, depth: u32) {
    gen_term(lcg, out, depth);
    let extra = lcg.below(3);
    for _ in 0..extra {
        out.push(if lcg.below(2) == 0 { b'+' } else { b'-' });
        gen_term(lcg, out, depth);
    }
}

fn gen_term(lcg: &mut Lcg, out: &mut Vec<u8>, depth: u32) {
    gen_factor(lcg, out, depth);
    if lcg.below(3) == 0 {
        out.push(b'*');
        gen_factor(lcg, out, depth);
    }
}

fn gen_factor(lcg: &mut Lcg, out: &mut Vec<u8>, depth: u32) {
    // Sub-critical branching: ~30% of factors recurse into a
    // parenthesized expression, so statements stay a few dozen bytes.
    let choice = lcg.below(if depth >= 8 { 6 } else { 10 });
    match choice {
        0..=2 => {
            // number: 1-4 digits
            let digits = 1 + lcg.below(4);
            for k in 0..digits {
                let lo = if k == 0 { 1 } else { 0 };
                out.push(b'0' + (lo + lcg.below(10 - lo)) as u8);
            }
        }
        3..=5 => out.push(b'a' + lcg.below(26) as u8),
        6 => {
            out.push(b'-');
            gen_factor(lcg, out, depth + 1);
        }
        _ => {
            out.push(b'(');
            gen_expr(lcg, out, depth + 1);
            out.push(b')');
        }
    }
}

// Bytecode ops emitted by the parser, executed by the stack VM.
const OP_PUSH: u32 = 1;
const OP_LOAD: u32 = 2;
const OP_NEG: u32 = 3;
const OP_MUL: u32 = 4;
const OP_ADD: u32 = 5;
const OP_SUB: u32 = 6;

/// Reference interpreter, mirroring the TRISC parser exactly, including
/// the bytecode it emits.
struct Ref<'a> {
    input: &'a [u8],
    pos: usize,
    vars: [u32; 26],
    ops: Vec<(u32, u32)>,
}

impl Ref<'_> {
    fn run_vm(&self) -> u32 {
        let mut stack: Vec<u32> = Vec::new();
        for &(op, val) in &self.ops {
            match op {
                OP_PUSH => stack.push(val),
                OP_LOAD => stack.push(self.vars[val as usize]),
                OP_NEG => {
                    let a = stack.pop().expect("neg operand");
                    stack.push(a.wrapping_neg());
                }
                OP_MUL => {
                    let b = stack.pop().expect("mul rhs");
                    let a = stack.pop().expect("mul lhs");
                    stack.push(a.wrapping_mul(b));
                }
                OP_ADD => {
                    let b = stack.pop().expect("add rhs");
                    let a = stack.pop().expect("add lhs");
                    stack.push(a.wrapping_add(b));
                }
                OP_SUB => {
                    let b = stack.pop().expect("sub rhs");
                    let a = stack.pop().expect("sub lhs");
                    stack.push(a.wrapping_sub(b));
                }
                _ => unreachable!(),
            }
        }
        assert_eq!(stack.len(), 1, "bytecode leaves one value");
        stack[0]
    }
}

impl Ref<'_> {
    fn cur(&self) -> u8 {
        self.input[self.pos]
    }

    fn expr(&mut self) -> u32 {
        let mut acc = self.term();
        loop {
            match self.cur() {
                b'+' => {
                    self.pos += 1;
                    acc = acc.wrapping_add(self.term());
                    self.ops.push((OP_ADD, 0));
                }
                b'-' => {
                    self.pos += 1;
                    acc = acc.wrapping_sub(self.term());
                    self.ops.push((OP_SUB, 0));
                }
                _ => return acc,
            }
        }
    }

    fn term(&mut self) -> u32 {
        let mut acc = self.factor();
        while self.cur() == b'*' {
            self.pos += 1;
            acc = acc.wrapping_mul(self.factor());
            self.ops.push((OP_MUL, 0));
        }
        acc
    }

    fn factor(&mut self) -> u32 {
        match self.cur() {
            b'(' => {
                self.pos += 1;
                let v = self.expr();
                self.pos += 1; // ')'
                v
            }
            b'-' => {
                self.pos += 1;
                let v = self.factor().wrapping_neg();
                self.ops.push((OP_NEG, 0));
                v
            }
            c if c >= b'a' => {
                self.pos += 1;
                self.ops.push((OP_LOAD, (c - b'a') as u32));
                self.vars[(c - b'a') as usize]
            }
            _ => {
                let mut v: u32 = 0;
                while self.cur().is_ascii_digit() {
                    v = v.wrapping_mul(10).wrapping_add((self.cur() - b'0') as u32);
                    self.pos += 1;
                }
                self.ops.push((OP_PUSH, v));
                v
            }
        }
    }
}

fn reference(input: &[u8], rounds: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut r = Ref {
        input,
        pos: 0,
        vars: [0; 26],
        ops: Vec::new(),
    };
    let mut checksum: u32 = 0;
    let mut vm_checksum: u32 = 0;
    for _ in 0..rounds {
        r.pos = 0;
        while r.cur() != 0 {
            let var = (r.cur() - b'a') as usize;
            r.pos += 2; // var '='
            r.ops.clear();
            let v = r.expr();
            // The VM executes the emitted bytecode against the *pre-store*
            // variable state, so it must reproduce the parser's value.
            let vm = r.run_vm();
            debug_assert_eq!(vm, v, "codegen faithful");
            vm_checksum = vm_checksum.wrapping_mul(31).wrapping_add(vm);
            r.vars[var] = v;
            checksum = checksum.wrapping_mul(31).wrapping_add(v);
            r.pos += 1; // ';'
        }
        out.push(checksum);
        out.push(vm_checksum);
    }
    out
}

/// Builds the workload; `rounds` scales run length (~350K instructions per
/// round).
pub fn build(rounds: u32) -> Workload {
    assert!(rounds >= 1);
    let input = make_input(600, 0xDEAD_0042);
    let src = format!(
        "
; cc — recursive-descent expression compiler + bytecode VM verifier
main:   la   s1, vars
        la   a1, vstack
        li   s2, 0              ; parser checksum (cumulative)
        li   s6, 0              ; VM checksum (cumulative)
        li   s7, {rounds}
round:  la   s0, input
stmt:   lbu  t0, 0(s0)
        beqz t0, round_end
        addi s5, t0, -97        ; var index
        addi s0, s0, 2          ; skip var, '='
        ; reset bytecode buffer
        la   t8, opbuf
        la   t9, opptr
        sw   t8, 0(t9)
        jal  parse_expr
        ; ---- execute emitted bytecode on the stack machine ----
        la   t8, opbuf
        la   t9, opptr
        lw   t9, 0(t9)
        li   t1, 0              ; stack depth
vm_loop:
        bgeu t8, t9, vm_done
        lw   t2, 0(t8)          ; op
        lw   t3, 4(t8)          ; operand
        addi t8, t8, 8
        li   t4, 1
        beq  t2, t4, vm_push
        li   t4, 2
        beq  t2, t4, vm_load
        li   t4, 3
        beq  t2, t4, vm_neg
        li   t4, 4
        beq  t2, t4, vm_mul
        li   t4, 5
        beq  t2, t4, vm_add
        ; fall through: subtract
        addi t1, t1, -1
        sll  t4, t1, 2
        add  t4, a1, t4
        lw   t2, 0(t4)          ; rhs
        addi t4, t4, -4
        lw   t0, 0(t4)
        sub  t0, t0, t2
        sw   t0, 0(t4)
        j    vm_loop
vm_add: addi t1, t1, -1
        sll  t4, t1, 2
        add  t4, a1, t4
        lw   t2, 0(t4)
        addi t4, t4, -4
        lw   t0, 0(t4)
        add  t0, t0, t2
        sw   t0, 0(t4)
        j    vm_loop
vm_mul: addi t1, t1, -1
        sll  t4, t1, 2
        add  t4, a1, t4
        lw   t2, 0(t4)
        addi t4, t4, -4
        lw   t0, 0(t4)
        mul  t0, t0, t2
        sw   t0, 0(t4)
        j    vm_loop
vm_neg: sll  t4, t1, 2
        add  t4, a1, t4
        addi t4, t4, -4
        lw   t0, 0(t4)
        neg  t0, t0
        sw   t0, 0(t4)
        j    vm_loop
vm_load:
        sll  t4, t3, 2
        add  t4, s1, t4
        lw   t3, 0(t4)
vm_push:
        sll  t4, t1, 2
        add  t4, a1, t4
        sw   t3, 0(t4)
        addi t1, t1, 1
        j    vm_loop
vm_done:
        lw   t2, 0(a1)          ; VM result = stack bottom
        li   t3, 31
        mul  s6, s6, t3
        add  s6, s6, t2
        ; ---- commit parser result ----
        sll  t2, s5, 2
        add  t2, s1, t2
        sw   v0, 0(t2)
        li   t3, 31
        mul  s2, s2, t3
        add  s2, s2, v0
        addi s0, s0, 1          ; skip ';'
        j    stmt
round_end:
        out  s2
        out  s6
        addi s7, s7, -1
        bnez s7, round
        halt

; ---- emit(a2 = op, a3 = operand): append to the bytecode buffer ----
emit:   la   t8, opptr
        lw   t9, 0(t8)
        sw   a2, 0(t9)
        sw   a3, 4(t9)
        addi t9, t9, 8
        sw   t9, 0(t8)
        ret

; ---- expr := term (('+'|'-') term)* ; result in v0, uses s4 ----
parse_expr:
        addi sp, sp, -12
        sw   ra, 8(sp)
        sw   s4, 4(sp)
        jal  parse_term
        move s4, v0
pe_loop:
        lbu  t0, 0(s0)
        li   t1, 43             ; '+'
        beq  t0, t1, pe_add
        li   t1, 45             ; '-'
        beq  t0, t1, pe_sub
        move v0, s4
        lw   s4, 4(sp)
        lw   ra, 8(sp)
        addi sp, sp, 12
        ret
pe_add: addi s0, s0, 1
        jal  parse_term
        add  s4, s4, v0
        li   a2, 5              ; OP_ADD
        li   a3, 0
        jal  emit
        j    pe_loop
pe_sub: addi s0, s0, 1
        jal  parse_term
        sub  s4, s4, v0
        li   a2, 6              ; OP_SUB
        li   a3, 0
        jal  emit
        j    pe_loop

; ---- term := factor ('*' factor)* ; result in v0, uses s3 ----
parse_term:
        addi sp, sp, -12
        sw   ra, 8(sp)
        sw   s3, 4(sp)
        jal  parse_factor
        move s3, v0
ptm_loop:
        lbu  t0, 0(s0)
        li   t1, 42             ; '*'
        bne  t0, t1, ptm_done
        addi s0, s0, 1
        jal  parse_factor
        mul  s3, s3, v0
        li   a2, 4              ; OP_MUL
        li   a3, 0
        jal  emit
        j    ptm_loop
ptm_done:
        move v0, s3
        lw   s3, 4(sp)
        lw   ra, 8(sp)
        addi sp, sp, 12
        ret

; ---- factor := number | var | '(' expr ')' | '-' factor ----
parse_factor:
        addi sp, sp, -8
        sw   ra, 4(sp)
        lbu  t0, 0(s0)
        li   t1, 40             ; '('
        bne  t0, t1, pf_notparen
        addi s0, s0, 1
        jal  parse_expr
        addi s0, s0, 1          ; skip ')'
        j    pf_done
pf_notparen:
        li   t1, 45             ; '-'
        bne  t0, t1, pf_notneg
        addi s0, s0, 1
        jal  parse_factor
        neg  v0, v0
        li   a2, 3              ; OP_NEG
        li   a3, 0
        jal  emit
        j    pf_done
pf_notneg:
        li   t1, 97             ; 'a'
        bltu t0, t1, pf_num
        addi t2, t0, -97
        sll  t2, t2, 2
        add  t2, s1, t2
        lw   v0, 0(t2)
        addi s0, s0, 1
        li   a2, 2              ; OP_LOAD
        addi a3, t0, -97
        jal  emit
        j    pf_done
pf_num: li   v0, 0
pf_numloop:
        lbu  t0, 0(s0)
        li   t1, 48             ; '0'
        bltu t0, t1, pf_numdone
        li   t1, 57             ; '9'
        bgtu t0, t1, pf_numdone
        li   t3, 10
        mul  v0, v0, t3
        addi t4, t0, -48
        add  v0, v0, t4
        addi s0, s0, 1
        j    pf_numloop
pf_numdone:
        li   a2, 1              ; OP_PUSH
        move a3, v0
        jal  emit
pf_done:
        lw   ra, 4(sp)
        addi sp, sp, 8
        ret
        .data
vars:   .space 104
opptr:  .word 0
        .align 2
opbuf:  .space 8192
vstack: .space 512
input:  .space {input_len}
",
        input_len = input.len(),
    );
    let mut program = assemble(&src).expect("cc workload assembles");
    fill(&mut program, "input", &input);
    Workload {
        name: "cc",
        analog_of: "SpecInt95 gcc (input: 600 generated expression statements)",
        description: "recursive-descent parser emitting bytecode, verified by a stack VM",
        program,
        expected_output: reference(&input, rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_small() {
        let w = build(2);
        let out = w.run_to_halt(20_000_000);
        assert_eq!(out, w.expected_output);
    }

    #[test]
    fn rounds_accumulate_different_checksums() {
        let w = build(3);
        let out = w.run_to_halt(30_000_000);
        // Two checksums per round (parser, VM) — and they must agree.
        assert_eq!(out.len(), 6);
        for round in out.chunks(2) {
            assert_eq!(round[0], round[1], "VM reproduces the parser");
        }
        assert_ne!(out[0], out[2]);
        assert_ne!(out[2], out[4]);
    }

    #[test]
    fn reference_parses_known_expression() {
        let input = b"a=2+3*4;b=(a-1)*-2;\0";
        let out = reference(input, 1);
        // a = 14; b = 13 * -2 = -26. checksum = (14*31) + (-26 as u32)
        let expect = 14u32.wrapping_mul(31).wrapping_add((-26i32) as u32);
        assert_eq!(out, vec![expect, expect]);
    }
}
