//! Assembler edge cases and error-path coverage.

use ntp_isa::asm::{assemble, assemble_with, AsmOptions};
use ntp_isa::{decode, Instr, Reg};
use ntp_verify::XorShift64;

fn t(n: u8) -> Reg {
    Reg::new(n).unwrap()
}

#[test]
fn all_real_mnemonics_assemble() {
    let src = "
main:   add  t0, t1, t2
        sub  t0, t1, t2
        and  t0, t1, t2
        or   t0, t1, t2
        xor  t0, t1, t2
        nor  t0, t1, t2
        slt  t0, t1, t2
        sltu t0, t1, t2
        sllv t0, t1, t2
        srlv t0, t1, t2
        srav t0, t1, t2
        mul  t0, t1, t2
        div  t0, t1, t2
        divu t0, t1, t2
        rem  t0, t1, t2
        remu t0, t1, t2
        sll  t0, t1, 5
        srl  t0, t1, 5
        sra  t0, t1, 5
        addi t0, t1, -7
        andi t0, t1, 0xFF
        ori  t0, t1, 0xFF
        xori t0, t1, 0xFF
        slti t0, t1, 3
        sltiu t0, t1, 3
        lui  t0, 0x1234
        lw   t0, 0(sp)
        lh   t0, 2(sp)
        lhu  t0, 2(sp)
        lb   t0, 1(sp)
        lbu  t0, 1(sp)
        sw   t0, 0(sp)
        sh   t0, 2(sp)
        sb   t0, 1(sp)
        beq  t0, t1, main
        bne  t0, t1, main
        blt  t0, t1, main
        bge  t0, t1, main
        bltu t0, t1, main
        bgeu t0, t1, main
        j    main
        jal  main
        jr   t0
        jalr t0
        jalr t1, t0
        out  t0
        halt
";
    let p = assemble(src).unwrap();
    assert_eq!(p.instrs.len(), 47);
    // Everything that assembles must also encode and decode back.
    for (k, i) in p.instrs.iter().enumerate() {
        let w = ntp_isa::encode(i);
        assert_eq!(decode(w).as_ref(), Ok(i), "instr {k}");
    }
}

#[test]
fn all_pseudo_mnemonics_assemble() {
    let src = "
main:   nop
        move t0, t1
        mov  t0, t1
        not  t0, t1
        neg  t0, t1
        li   t0, 123456789
        la   t0, main
        subi t0, t1, 5
        b    main
        call main
        ret
        beqz t0, main
        bnez t0, main
        bltz t0, main
        bgez t0, main
        blez t0, main
        bgtz t0, main
        bgt  t0, t1, main
        ble  t0, t1, main
        bgtu t0, t1, main
        bleu t0, t1, main
        halt
";
    let p = assemble(src).unwrap();
    assert_eq!(p.instrs[0], Instr::Sll(Reg::ZERO, Reg::ZERO, 0)); // nop
    assert_eq!(p.instrs[1], Instr::Add(t(8), t(9), Reg::ZERO)); // move
    assert_eq!(p.instrs[3], Instr::Nor(t(8), t(9), Reg::ZERO)); // not
    assert_eq!(p.instrs[4], Instr::Sub(t(8), Reg::ZERO, t(9))); // neg
                                                                // bgt swaps operands into blt.
    let bgt = p
        .instrs
        .iter()
        .find(|i| matches!(i, Instr::Blt(a, b, _) if *a == t(9) && *b == t(8)))
        .copied();
    assert!(bgt.is_some(), "bgt lowered to swapped blt");
}

#[test]
fn numeric_literal_forms() {
    let p =
        assemble("main: li t0, 0x10\n li t1, 0b1010\n li t2, 'A'\n li t3, 1_000\n halt\n").unwrap();
    assert_eq!(p.instrs[0], Instr::Addi(t(8), Reg::ZERO, 16));
    assert_eq!(p.instrs[1], Instr::Addi(t(9), Reg::ZERO, 10));
    assert_eq!(p.instrs[2], Instr::Addi(t(10), Reg::ZERO, 65));
    assert_eq!(p.instrs[3], Instr::Addi(t(11), Reg::ZERO, 1000));
}

#[test]
fn label_arithmetic() {
    let src = "
main:   la   t0, data+8
        lw   t1, %lo(data+4)(t0)
        halt
        .data
data:   .word 1, 2, 3
";
    let p = assemble(src).unwrap();
    let data = p.symbol("data").unwrap();
    assert_eq!(
        p.instrs[1],
        Instr::Ori(t(8), t(8), ((data + 8) & 0xFFFF) as u16)
    );
}

#[test]
fn multiple_labels_per_line() {
    let p = assemble("a: b: main: halt\n").unwrap();
    assert_eq!(p.symbol("a"), p.symbol("b"));
    assert_eq!(p.symbol("b"), p.symbol("main"));
}

#[test]
fn custom_bases() {
    let opts = AsmOptions {
        text_base: 0x0010_0000,
        data_base: 0x2000_0000,
    };
    let p = assemble_with("main: la t0, x\n halt\n.data\nx: .word 9\n", &opts).unwrap();
    assert_eq!(p.text_base, 0x0010_0000);
    assert_eq!(p.symbol("x"), Some(0x2000_0000));
    assert_eq!(p.entry, 0x0010_0000);
}

#[test]
fn error_paths_are_reported() {
    let cases: &[(&str, &str)] = &[
        ("main: addi t0, t1\n", "expected"),          // missing operand
        ("main: add t0, t1, 5\n", "three registers"), // imm where reg needed
        ("main: sll t0, t1, 32\n", "shift amount"),   // shift out of range
        ("main: lw t0, t1\n", "offset(base)"),        // bad mem operand
        ("main: li t0, 0x1_0000_0000\n", "range"),    // 33-bit literal
        ("main: .word 1\n", "outside .data"),         // directive in text
        (".data\nx: addi t0, t0, 1\n", "outside .text"), // instr in data
        ("main: jal\n", "expected a target"),
        ("main: halt extra\n", "no operands"),
        ("main: beq t0, t1, 0x99999998\n", "range"), // far target
        ("main: lw t0, 70000(sp)\n", "16-bit"),      // offset too large
        ("main: .align 3\n", "outside .data"),
        ("x: ; comment only\n j y\n", "undefined"),
    ];
    for (src, needle) in cases {
        let err = assemble(src).unwrap_err();
        assert!(
            err.msg.contains(needle) || err.msg.contains("expected"),
            "source {src:?} gave {err}"
        );
    }
}

#[test]
fn branch_range_limits() {
    // A branch can reach +/-32K instructions; build one just past it.
    let mut src = String::from("main:   beq zero, zero, far\n");
    for _ in 0..40_000 {
        src.push_str("        nop\n");
    }
    src.push_str("far:    halt\n");
    let err = assemble(&src).unwrap_err();
    assert!(err.msg.contains("out of range"), "{err}");
}

#[test]
fn data_alignment_behaviour() {
    let p = assemble("main: halt\n.data\na: .byte 1\n.align 2\nb: .word 2\n.align 3\nc: .word 3\n")
        .unwrap();
    assert_eq!(p.symbol("b").unwrap() % 4, 0);
    assert_eq!(p.symbol("c").unwrap() % 8, 0);
}

/// Seeded cases per property.
const CASES: u64 = 256;
/// Root seed every case stream forks from.
const SEED: u64 = 0x0DEC_0DE5;

/// Case `k` draws its word from `XorShift64::new(SEED).fork(k)`.
fn case_word(case: u64) -> u32 {
    XorShift64::new(SEED).fork(case).next_u32()
}

/// The decoder never panics, whatever the word.
#[test]
fn decode_total() {
    for case in 0..CASES {
        let word = case_word(case);
        assert!(
            std::panic::catch_unwind(|| decode(word)).is_ok(),
            "case {case}: decode({word:#010x}) panicked"
        );
    }
}

/// If a word decodes, re-encoding reproduces it or a canonical
/// equivalent that decodes to the same instruction.
#[test]
fn decode_encode_stable() {
    for case in 0..CASES {
        let word = case_word(case);
        if let Ok(i) = decode(word) {
            let w2 = ntp_isa::encode(&i);
            assert_eq!(decode(w2), Ok(i), "case {case}: word {word:#010x}");
        }
    }
}
