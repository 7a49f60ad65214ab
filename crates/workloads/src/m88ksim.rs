//! `m88ksim` — an ISA-in-ISA interpreter (analog of SpecInt95 *m88ksim*).
//!
//! Character preserved: a fetch–decode–dispatch loop where every guest
//! instruction ends in an indirect jump through a handler table, so traces
//! are short and frequently terminated by indirect jumps, exactly the
//! behaviour that made m88ksim distinctive in the paper.
//!
//! The guest is an 8-register, 256-word-RAM virtual machine; the guest
//! program bubble-sorts seeded data, runs an iterative Fibonacci and a
//! subtractive GCD, emitting checksums.

use crate::util::{fill, word_bytes, LCG_ADD, LCG_MUL};
use crate::Workload;
use ntp_isa::asm::assemble;

// Guest opcode numbers (also the handler-table order).
const OP_HALT: u32 = 0;
const OP_LI: u32 = 1;
const OP_ADD: u32 = 2;
const OP_SUB: u32 = 3;
const OP_AND: u32 = 4;
const OP_XOR: u32 = 5;
const OP_SLTU: u32 = 6;
const OP_JMP: u32 = 7;
const OP_JNZ: u32 = 8;
const OP_LD: u32 = 9;
const OP_ST: u32 = 10;
const OP_ADDI: u32 = 11;
const OP_MUL: u32 = 12;
const OP_OUT: u32 = 13;
const OP_SHR: u32 = 14;
const OP_JZ: u32 = 15;

fn enc(op: u32, a: u32, b: u32, c: u32) -> u32 {
    debug_assert!(a < 256 && b < 256 && c < 256);
    op | (a << 8) | (b << 16) | (c << 24)
}

fn enc_j(op: u32, a: u32, target: u32) -> u32 {
    enc(op, a, target & 0xFF, target >> 8)
}

/// Builds the guest program. Register conventions: r0 scratch, r1–r5
/// working, r6 limit, r7 accumulator.
fn guest_program() -> Vec<u32> {
    let mut p: Vec<u32> = Vec::new();
    // ---- phase 1: bubble sort ram[0..32] ascending (unsigned) ----
    // r1 = i (outer, counts 31..1), r2 = j, r3/r4 = elements, r5 = swapped?
    p.push(enc(OP_LI, 1, 31, 0)); // 0: i = 31
    let outer = p.len() as u32; // 1
    p.push(enc(OP_LI, 2, 0, 0)); // j = 0
    let inner = p.len() as u32; // 2
    p.push(enc(OP_LD, 3, 2, 0)); // r3 = ram[j]
    p.push(enc(OP_LD, 4, 2, 1)); // r4 = ram[j+1]
    p.push(enc(OP_SLTU, 5, 4, 3)); // r5 = r4 < r3
    let no_swap_target = p.len() as u32 + 3;
    p.push(enc_j(OP_JZ, 5, no_swap_target)); // in-order ⇒ skip swap
    p.push(enc(OP_ST, 4, 2, 0)); // ram[j] = r4
    p.push(enc(OP_ST, 3, 2, 1)); // ram[j+1] = r3
                                 // no_swap:
    p.push(enc(OP_ADDI, 2, 2, 1)); // j += 1
    p.push(enc(OP_SUB, 5, 1, 2)); // r5 = i - j
    p.push(enc_j(OP_JNZ, 5, inner)); // while j != i
    p.push(enc(OP_ADDI, 1, 1, 0xFF)); // i -= 1 (sign-extended -1)
    p.push(enc_j(OP_JNZ, 1, outer));
    // emit the minimum and maximum of the sorted array
    p.push(enc(OP_LI, 2, 0, 0));
    p.push(enc(OP_LD, 7, 2, 0)); // min
    p.push(enc(OP_OUT, 7, 0, 0));
    p.push(enc(OP_LI, 2, 31, 0));
    p.push(enc(OP_LD, 7, 2, 0)); // max
    p.push(enc(OP_OUT, 7, 0, 0));
    // ---- phase 2: iterative fibonacci: 24 steps ----
    p.push(enc(OP_LI, 1, 1, 0)); // a
    p.push(enc(OP_LI, 2, 1, 0)); // b
    p.push(enc(OP_LI, 6, 24, 0)); // n
    let fib = p.len() as u32;
    p.push(enc(OP_ADD, 3, 1, 2));
    p.push(enc(OP_ADD, 1, 2, 0)); // a = b (r0 must be 0: ensure guest r0 stays 0)
    p.push(enc(OP_ADD, 2, 3, 0)); // b = t
    p.push(enc(OP_ADDI, 6, 6, 0xFF)); // n -= 1
    p.push(enc_j(OP_JNZ, 6, fib));
    p.push(enc(OP_OUT, 2, 0, 0));
    // ---- phase 3: subtractive GCD of ram[40], ram[41] (made nonzero) ----
    p.push(enc(OP_LI, 5, 40, 0));
    p.push(enc(OP_LD, 1, 5, 0));
    p.push(enc(OP_LD, 2, 5, 1));
    p.push(enc(OP_LI, 3, 255, 0));
    p.push(enc(OP_AND, 1, 1, 3)); // bound to 8 bits
    p.push(enc(OP_AND, 2, 2, 3));
    p.push(enc(OP_ADDI, 1, 1, 1)); // nonzero
    p.push(enc(OP_ADDI, 2, 2, 1));
    let gcd = p.len() as u32;
    p.push(enc(OP_XOR, 4, 1, 2)); // gcd+0: r4 = a ^ b
    p.push(enc_j(OP_JZ, 4, gcd + 8)); // gcd+1: a == b ⇒ done
    p.push(enc(OP_SLTU, 4, 1, 2)); // gcd+2: a < b ?
    p.push(enc_j(OP_JZ, 4, gcd + 6)); // gcd+3: a >= b branch
    p.push(enc(OP_SUB, 2, 2, 1)); // gcd+4: b -= a
    p.push(enc_j(OP_JMP, 0, gcd)); // gcd+5
    p.push(enc(OP_SUB, 1, 1, 2)); // gcd+6: a -= b
    p.push(enc_j(OP_JMP, 0, gcd)); // gcd+7
    p.push(enc(OP_OUT, 1, 0, 0)); // gcd+8: done

    // ---- phase 4: polynomial hash over ram[0..64] ----
    p.push(enc(OP_LI, 2, 0, 0));
    p.push(enc(OP_LI, 7, 0, 0));
    p.push(enc(OP_LI, 6, 64, 0));
    p.push(enc(OP_LI, 5, 31, 0));
    let hash = p.len() as u32;
    p.push(enc(OP_MUL, 7, 7, 5));
    p.push(enc(OP_LD, 3, 2, 0));
    p.push(enc(OP_ADD, 7, 7, 3));
    p.push(enc(OP_ADDI, 2, 2, 1));
    p.push(enc(OP_SUB, 4, 6, 2));
    p.push(enc_j(OP_JNZ, 4, hash));
    p.push(enc(OP_OUT, 7, 0, 0));
    p.push(enc(OP_HALT, 0, 0, 0));
    p
}

/// Rust interpreter for the guest VM — an independent implementation used
/// to compute expected outputs.
fn run_guest(prog: &[u32], ram: &mut [u32; 256], checksum: &mut u32) {
    let mut regs = [0u32; 8];
    let mut pc = 0usize;
    loop {
        let w = prog[pc];
        pc += 1;
        let op = w & 0xFF;
        let a = ((w >> 8) & 0xFF) as usize & 7;
        let b = ((w >> 16) & 0xFF) as usize & 7;
        let c = w >> 24;
        let imm16 = ((w >> 16) & 0xFFFF) as usize;
        match op {
            OP_HALT => return,
            OP_LI => regs[a] = imm16 as u32,
            OP_ADD => regs[a] = regs[b].wrapping_add(regs[c as usize & 7]),
            OP_SUB => regs[a] = regs[b].wrapping_sub(regs[c as usize & 7]),
            OP_AND => regs[a] = regs[b] & regs[c as usize & 7],
            OP_XOR => regs[a] = regs[b] ^ regs[c as usize & 7],
            OP_SLTU => regs[a] = (regs[b] < regs[c as usize & 7]) as u32,
            OP_JMP => pc = imm16,
            OP_JNZ => {
                if regs[a] != 0 {
                    pc = imm16;
                }
            }
            OP_LD => regs[a] = ram[(regs[b].wrapping_add(c) & 255) as usize],
            OP_ST => ram[(regs[b].wrapping_add(c) & 255) as usize] = regs[a],
            OP_ADDI => regs[a] = regs[b].wrapping_add((c as u8 as i8) as i32 as u32),
            OP_MUL => regs[a] = regs[b].wrapping_mul(regs[c as usize & 7]),
            OP_OUT => *checksum = checksum.wrapping_mul(31).wrapping_add(regs[a]),
            OP_SHR => regs[a] = regs[b] >> (c & 31),
            OP_JZ => {
                if regs[a] == 0 {
                    pc = imm16;
                }
            }
            _ => unreachable!("invalid guest opcode"),
        }
    }
}

fn reference(prog: &[u32], rounds: u32) -> Vec<u32> {
    let mut out = Vec::new();
    let mut lcg: u32 = 0x8801;
    let mut checksum: u32 = 0;
    for _ in 0..rounds {
        let mut ram = [0u32; 256];
        for slot in ram.iter_mut().take(64) {
            lcg = lcg.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
            *slot = lcg;
        }
        run_guest(prog, &mut ram, &mut checksum);
        out.push(checksum);
    }
    out
}

/// Builds the workload; `rounds` scales run length (~150K instructions per
/// round).
pub fn build(rounds: u32) -> Workload {
    assert!(rounds >= 1);
    let prog = guest_program();
    let src = format!(
        "
; m88ksim — guest-VM interpreter with indirect dispatch
; s0 vm pc, s1 prog base, s2 ram base, s3 regs base, s4 checksum,
; s5 lcg, s7 rounds
main:   la   s1, vmprog
        la   s2, vmram
        la   s3, vmregs
        li   s4, 0
        li   s5, 0x8801
        li   s7, {rounds}
round:
        ; seed ram[0..64]
        li   t0, 0
seed:   li   t1, {lcg_mul}
        mul  s5, s5, t1
        li   t1, {lcg_add}
        add  s5, s5, t1
        sll  t2, t0, 2
        add  t2, s2, t2
        sw   s5, 0(t2)
        addi t0, t0, 1
        li   t1, 64
        bne  t0, t1, seed
        ; clear guest registers
        li   t0, 0
clrreg: sll  t1, t0, 2
        add  t1, s3, t1
        sw   zero, 0(t1)
        addi t0, t0, 1
        li   t1, 8
        bne  t0, t1, clrreg
        li   s0, 0
; ---- dispatch loop ----
vm_loop:
        sll  t0, s0, 2
        add  t0, s1, t0
        lw   t1, 0(t0)          ; guest instr
        addi s0, s0, 1
        andi t2, t1, 0xFF       ; op
        srl  t3, t1, 8
        andi t3, t3, 7          ; a (masked to 3 bits)
        srl  t4, t1, 16
        andi t4, t4, 7          ; b
        srl  t5, t1, 24         ; c
        srl  t6, t1, 16         ; imm16
        sll  t7, t2, 2
        la   t8, optable
        add  t8, t8, t7
        lw   t8, 0(t8)
        jr   t8
op_halt:
        j    vm_done
op_li:  sll  t0, t3, 2
        add  t0, s3, t0
        sw   t6, 0(t0)
        j    vm_loop
op_add: jal  read_bc
        add  t0, t0, t1
        j    write_a
op_sub: jal  read_bc
        sub  t0, t0, t1
        j    write_a
op_and: jal  read_bc
        and  t0, t0, t1
        j    write_a
op_xor: jal  read_bc
        xor  t0, t0, t1
        j    write_a
op_sltu:
        jal  read_bc
        sltu t0, t0, t1
        j    write_a
op_jmp: move s0, t6
        j    vm_loop
op_jnz: sll  t0, t3, 2
        add  t0, s3, t0
        lw   t0, 0(t0)
        beqz t0, vm_loop
        move s0, t6
        j    vm_loop
op_jz:  sll  t0, t3, 2
        add  t0, s3, t0
        lw   t0, 0(t0)
        bnez t0, vm_loop
        move s0, t6
        j    vm_loop
op_ld:  sll  t0, t4, 2
        add  t0, s3, t0
        lw   t0, 0(t0)          ; regs[b]
        add  t0, t0, t5
        andi t0, t0, 255
        sll  t0, t0, 2
        add  t0, s2, t0
        lw   t0, 0(t0)
        j    write_a
op_st:  sll  t0, t4, 2
        add  t0, s3, t0
        lw   t0, 0(t0)
        add  t0, t0, t5
        andi t0, t0, 255
        sll  t0, t0, 2
        add  t0, s2, t0
        sll  t1, t3, 2
        add  t1, s3, t1
        lw   t1, 0(t1)
        sw   t1, 0(t0)
        j    vm_loop
op_addi:
        sll  t0, t4, 2
        add  t0, s3, t0
        lw   t0, 0(t0)
        sll  t1, t5, 24
        sra  t1, t1, 24         ; sign-extend c
        add  t0, t0, t1
        j    write_a
op_mul: jal  read_bc
        mul  t0, t0, t1
        j    write_a
op_out: sll  t0, t3, 2
        add  t0, s3, t0
        lw   t0, 0(t0)
        li   t1, 31
        mul  s4, s4, t1
        add  s4, s4, t0
        j    vm_loop
op_shr: sll  t0, t4, 2
        add  t0, s3, t0
        lw   t0, 0(t0)
        andi t1, t5, 31
        srlv t0, t0, t1
        j    write_a
; ---- helpers ----
read_bc:                        ; t0 = regs[b], t1 = regs[c&7]
        sll  t0, t4, 2
        add  t0, s3, t0
        lw   t0, 0(t0)
        andi t1, t5, 7
        sll  t1, t1, 2
        add  t1, s3, t1
        lw   t1, 0(t1)
        ret
write_a:                        ; regs[a] = t0
        sll  t1, t3, 2
        add  t1, s3, t1
        sw   t0, 0(t1)
        j    vm_loop
vm_done:
        out  s4
        addi s7, s7, -1
        bnez s7, round
        halt
        .data
vmprog: .space {prog_bytes}
        .align 2
vmram:  .space 1024
vmregs: .space 32
optable:
        .word op_halt, op_li, op_add, op_sub, op_and, op_xor, op_sltu, op_jmp
        .word op_jnz, op_ld, op_st, op_addi, op_mul, op_out, op_shr, op_jz
",
        lcg_mul = LCG_MUL,
        lcg_add = LCG_ADD,
        prog_bytes = prog.len() * 4,
    );
    let mut program = assemble(&src).expect("m88ksim workload assembles");
    fill(&mut program, "vmprog", &word_bytes(&prog));
    Workload {
        name: "m88ksim",
        analog_of: "SpecInt95 m88ksim (guest VM: sort + fib + gcd + hash)",
        description: "ISA interpreter with jump-table dispatch per guest instruction",
        program,
        expected_output: reference(&prog, rounds),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_program_is_wellformed() {
        let p = guest_program();
        assert!(p.len() < 256);
        assert_eq!(*p.last().unwrap() & 0xFF, OP_HALT);
    }

    #[test]
    fn guest_sort_works() {
        let mut ram = [0u32; 256];
        for (k, slot) in ram.iter_mut().take(64).enumerate() {
            *slot = (97 - k as u32) * 1000;
        }
        let mut cs = 0;
        run_guest(&guest_program(), &mut ram, &mut cs);
        let sorted: Vec<u32> = ram[..32].to_vec();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "{sorted:?}");
    }

    #[test]
    fn matches_reference_small() {
        let w = build(2);
        let out = w.run_to_halt(20_000_000);
        assert_eq!(out, w.expected_output);
    }

    #[test]
    fn rounds_differ() {
        let w = build(3);
        let out = w.run_to_halt(30_000_000);
        assert_eq!(out.len(), 3);
        assert_ne!(out[0], out[1]);
    }
}
