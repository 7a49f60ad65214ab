//! `compress` — LZW-style compression kernel (analog of SpecInt95
//! *compress*).
//!
//! Character of the original preserved: a tight hash-probe loop over a
//! byte stream, small static code footprint, data-dependent hit/miss
//! branches, and a table-clearing phase between rounds.

use crate::util::{fill, Lcg};
use crate::Workload;
use ntp_isa::asm::assemble;

const TABLE_SLOTS: u32 = 4096;
const INSERT_CAP: u32 = 3328;
const HASH_MUL: u32 = 0x9E37_79B1;

/// Generates the input byte stream: skewed distribution with runs, like
/// text.
fn make_input(len: usize, seed: u32) -> Vec<u8> {
    let mut lcg = Lcg::new(seed);
    let alphabet: Vec<u8> = (0..16).map(|k| b'a' + k).collect();
    let mut out = Vec::with_capacity(len);
    let mut prev = b'a';
    for _ in 0..len {
        let r = lcg.next_u32();
        let b = if (r >> 20) & 7 < 3 {
            prev
        } else {
            alphabet[((r >> 24) & 15) as usize]
        };
        out.push(b);
        prev = b;
    }
    out
}

/// The Rust reference implementation, mirroring the TRISC program
/// instruction-for-instruction at the semantic level.
fn reference(input: &[u8], rounds: u32) -> Vec<u32> {
    let n = input.len() as u32;
    let mut out = Vec::new();
    let mut next_code: u32 = 0;
    let mut round = rounds;
    while round > 0 {
        let mut table = vec![(0u32, 0u32); TABLE_SLOTS as usize];
        let start = (round.wrapping_mul(17)) & 3;
        let mut prefix = input[start as usize] as u32;
        let mut i = start + 1;
        next_code = 256;
        let mut checksum: u32 = 0;
        while i < n {
            let c = input[i as usize] as u32;
            let key = (prefix << 8) | c;
            let mut h = key.wrapping_mul(HASH_MUL) >> 20 & (TABLE_SLOTS - 1);
            loop {
                let (k, code) = table[h as usize];
                if k == 0 {
                    // miss: emit prefix
                    checksum = checksum.wrapping_mul(31).wrapping_add(prefix);
                    if next_code < INSERT_CAP {
                        table[h as usize] = (key + 1, next_code);
                        next_code += 1;
                    }
                    prefix = c;
                    break;
                }
                if k == key + 1 {
                    prefix = code;
                    break;
                }
                h = (h + 1) & (TABLE_SLOTS - 1);
            }
            i += 1;
        }
        checksum = checksum.wrapping_mul(31).wrapping_add(prefix);
        out.push(checksum);
        round -= 1;
    }
    out.push(next_code);
    out
}

/// Builds the workload; `rounds` scales run length (~100K instructions per
/// round).
pub fn build(rounds: u32) -> Workload {
    assert!(rounds >= 1);
    let input = make_input(4096, 0xC0FF_EE01);
    let n = input.len() as u32;
    let src = format!(
        "
; compress — LZW hash-probe kernel
main:   la   s0, input
        la   s1, table
        li   s2, {n}
        li   s7, {rounds}
        li   t9, 0x9E3779B1
round_loop:
        ; clear the table (4096 slots x 8 bytes)
        la   t0, table
        li   t1, {slots}
clr:    sw   zero, 0(t0)
        sw   zero, 4(t0)
        addi t0, t0, 8
        addi t1, t1, -1
        bnez t1, clr
        ; start = (round * 17) & 3 (4-round periodic input)
        li   t0, 17
        mul  t0, s7, t0
        andi t0, t0, 3
        add  t1, s0, t0
        lbu  s4, 0(t1)          ; prefix = input[start]
        addi s6, t0, 1          ; i = start + 1
        li   s3, 256            ; next_code
        li   s5, 0              ; checksum
byte_loop:
        bgeu s6, s2, round_end
        add  t1, s0, s6
        lbu  t2, 0(t1)          ; c
        sll  t3, s4, 8
        or   t3, t3, t2         ; key
        mul  t4, t3, t9
        srl  t4, t4, 20
        andi t4, t4, {mask}     ; h
probe:
        sll  t5, t4, 3
        add  t5, s1, t5
        lw   t6, 0(t5)
        beqz t6, miss
        addi t7, t3, 1
        beq  t6, t7, hit
        addi t4, t4, 1
        andi t4, t4, {mask}
        j    probe
hit:
        lw   s4, 4(t5)
        addi s6, s6, 1
        j    byte_loop
miss:
        li   t7, 31
        mul  t8, s5, t7
        add  s5, t8, s4         ; checksum = checksum*31 + prefix
        li   t7, {cap}
        bgeu s3, t7, no_insert
        addi t7, t3, 1
        sw   t7, 0(t5)
        sw   s3, 4(t5)
        addi s3, s3, 1
no_insert:
        move s4, t2
        addi s6, s6, 1
        j    byte_loop
round_end:
        li   t7, 31
        mul  t8, s5, t7
        add  s5, t8, s4
        out  s5
        addi s7, s7, -1
        bnez s7, round_loop
        out  s3
        halt
        .data
input:  .space {n}
        .align 3
table:  .space {table_bytes}
",
        slots = TABLE_SLOTS,
        mask = TABLE_SLOTS - 1,
        cap = INSERT_CAP,
        table_bytes = TABLE_SLOTS * 8,
    );
    let mut program = assemble(&src).expect("compress workload assembles");
    fill(&mut program, "input", &input);
    Workload {
        name: "compress",
        analog_of: "SpecInt95 compress (input: synthetic text, LZW kernel)",
        description: "LZW hash-probe compression over a skewed byte stream",
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
        let out = w.run_to_halt(10_000_000);
        assert_eq!(out, w.expected_output);
        assert_eq!(out.len(), 3); // 2 round checksums + final next_code
    }

    #[test]
    fn rounds_differ_due_to_start_offset() {
        let w = build(3);
        let out = w.run_to_halt(10_000_000);
        assert_ne!(out[0], out[1], "different start offsets change checksums");
    }

    #[test]
    fn compression_actually_happens() {
        let w = build(1);
        let out = w.run_to_halt(10_000_000);
        let next_code = *out.last().unwrap();
        assert!(next_code > 600, "dictionary grew: {next_code}");
    }
}
