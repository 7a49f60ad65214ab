//! Simulator robustness: no input program may panic the machine — faults
//! must surface as `SimError` values.
//!
//! The randomized tests draw from the deterministic xorshift generator of
//! the differential-verification harness: case `k` of a property uses
//! `XorShift64::new(SEED).fork(k)`, and every failure message names `k`.

use ntp_isa::{decode, Instr, Program};
use ntp_sim::{Machine, MemoryConfig, SimError};
use ntp_verify::XorShift64;

/// Seeded cases per property.
const CASES: u64 = 256;
/// Root seed every case stream forks from.
const SEED: u64 = 0x0051_B0B5;

/// Random (decodable) instruction soup either runs, halts, or faults
/// cleanly — never panics, never violates the budget.
#[test]
fn random_programs_never_panic() {
    for case in 0..CASES {
        let rng = &mut XorShift64::new(SEED).fork(case);
        // 1..200 arbitrary words; a draw where none decodes is redrawn.
        let instrs = loop {
            let instrs: Vec<Instr> = (0..rng.range(1, 199))
                .filter_map(|_| decode(rng.next_u32()).ok())
                .collect();
            if !instrs.is_empty() {
                break instrs;
            }
        };
        let mut p = Program::new();
        p.instrs = instrs;
        let mut m = Machine::with_config(
            p,
            MemoryConfig {
                data_capacity: 1 << 16,
                stack_capacity: 1 << 16,
            },
        );
        let budget = 5_000u64;
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.run(budget)))
            .unwrap_or_else(|_| panic!("case {case}: run() panicked"));
        match run {
            Ok(_) => assert!(m.icount() <= budget, "case {case}"),
            Err(SimError::MemFault { .. } | SimError::PcOutOfRange { .. }) => {}
            Err(SimError::Halted) => panic!("case {case}: run() never reports Halted"),
        }
    }
}

/// Loads reproduce stores at arbitrary aligned data addresses.
#[test]
fn store_load_roundtrip() {
    let p = ntp_isa::asm::assemble("main: halt\n.data\nbase: .space 64000\n").unwrap();
    let base = p.symbol("base").unwrap();
    for case in 0..CASES {
        let rng = &mut XorShift64::new(SEED).fork(case);
        let off = rng.below(16000) as u32 * 4;
        let val = rng.next_u32();
        let mut m = Machine::new(p.clone());
        m.mem_mut().store32(base + off, val).unwrap();
        assert_eq!(m.mem().load32(base + off).unwrap(), val, "case {case}");
        // Byte views agree with little-endian layout.
        assert_eq!(
            m.mem().load8(base + off).unwrap(),
            (val & 0xFF) as u8,
            "case {case}"
        );
    }
}

#[test]
fn sign_extension_loads() {
    let src = "
main:   la   t0, data
        lh   t1, 0(t0)
        out  t1
        lhu  t2, 0(t0)
        out  t2
        lb   t3, 2(t0)
        out  t3
        halt
        .data
data:   .half 0x8001
        .byte 0x80
";
    let p = ntp_isa::asm::assemble(src).unwrap();
    let mut m = Machine::new(p);
    m.run(100).unwrap();
    assert_eq!(
        m.output(),
        &[0xFFFF_8001, 0x0000_8001, 0xFFFF_FF80],
        "lh sign-extends, lhu zero-extends, lb sign-extends"
    );
}

#[test]
fn stack_depth_limits_are_faults_not_ub() {
    // Infinite recursion eventually leaves the stack segment and faults.
    let src = "
main:   jal  f
        halt
f:      addi sp, sp, -64
        sw   ra, 0(sp)
        jal  f
        ret
";
    let p = ntp_isa::asm::assemble(src).unwrap();
    let mut m = Machine::with_config(
        p,
        MemoryConfig {
            data_capacity: 4096,
            stack_capacity: 64 * 128,
        },
    );
    let err = m.run(1_000_000).unwrap_err();
    assert!(matches!(err, SimError::MemFault { .. }), "{err}");
}

#[test]
fn visitor_sees_every_retired_instruction() {
    let src = "
main:   li   t0, 9
loop:   addi t0, t0, -1
        bnez t0, loop
        halt
";
    let p = ntp_isa::asm::assemble(src).unwrap();
    let mut m = Machine::new(p);
    let mut pcs = Vec::new();
    m.run_with(1000, |s| pcs.push(s.pc)).unwrap();
    assert_eq!(pcs.len() as u64, m.icount());
    // Consecutive steps chain: each next_pc equals the following pc.
    let p2 = ntp_isa::asm::assemble(src).unwrap();
    let mut m2 = Machine::new(p2);
    let mut prev_next: Option<u32> = None;
    m2.run_with(1000, |s| {
        if let Some(expect) = prev_next {
            assert_eq!(s.pc, expect);
        }
        prev_next = Some(s.next_pc());
    })
    .unwrap();
}

#[test]
fn out_is_ordered_and_unbounded() {
    let src = "
main:   li   t0, 200
loop:   out  t0
        addi t0, t0, -1
        bnez t0, loop
        halt
";
    let p = ntp_isa::asm::assemble(src).unwrap();
    let mut m = Machine::new(p);
    m.run(10_000).unwrap();
    assert_eq!(m.output().len(), 200);
    assert_eq!(m.output()[0], 200);
    assert_eq!(*m.output().last().unwrap(), 1);
}
