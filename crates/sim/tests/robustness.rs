//! Simulator robustness: no input program may panic the machine — faults
//! must surface as `SimError` values.
//!
//! The randomized tests draw from the deterministic xorshift generator of
//! the differential-verification harness: case `k` of a property uses
//! `XorShift64::new(SEED).fork(k)`, and every failure message names `k`.

use ntp_isa::{decode, Instr, Program, DATA_BASE, STACK_TOP, TEXT_BASE};
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

/// The reference semantics of grown memory: every segment allocated at
/// full capacity and zero-filled, looked up in the order data, stack,
/// text, with only data and stack writable.
struct FlatMemory {
    /// `(base, bytes, writable)` in lookup order.
    segments: [(u32, Vec<u8>, bool); 3],
}

impl FlatMemory {
    fn new(p: &Program, cfg: MemoryConfig) -> FlatMemory {
        let mut data = vec![0; cfg.data_capacity as usize];
        data[..p.data.len()].copy_from_slice(&p.data);
        let stack = vec![0; cfg.stack_capacity as usize];
        let text = p
            .encode_text()
            .into_iter()
            .flat_map(u32::to_le_bytes)
            .collect();
        FlatMemory {
            segments: [
                (p.data_base, data, true),
                (STACK_TOP - cfg.stack_capacity, stack, true),
                (p.text_base, text, false),
            ],
        }
    }

    /// The first segment holding all of `[addr, addr + width)`, and the
    /// offset in it; unaligned accesses hold nowhere.
    fn locate(&mut self, addr: u32, width: u32) -> Option<(&mut Vec<u8>, bool, usize)> {
        let end = addr.checked_add(width)?;
        if !addr.is_multiple_of(width) {
            return None;
        }
        self.segments
            .iter_mut()
            .find(|(base, bytes, _)| addr >= *base && end as usize <= *base as usize + bytes.len())
            .map(|(base, bytes, writable)| (bytes, *writable, (addr - *base) as usize))
    }

    fn load(&mut self, addr: u32, width: u32) -> Result<u32, SimError> {
        let (bytes, _, off) = self
            .locate(addr, width)
            .ok_or(SimError::MemFault { addr })?;
        let word = &bytes[off..off + width as usize];
        Ok(word.iter().rev().fold(0, |v, &b| v << 8 | u32::from(b)))
    }

    fn store(&mut self, addr: u32, width: u32, v: u32) -> Result<(), SimError> {
        match self.locate(addr, width) {
            Some((bytes, true, off)) => {
                let w = width as usize;
                bytes[off..off + w].copy_from_slice(&v.to_le_bytes()[..w]);
                Ok(())
            }
            _ => Err(SimError::MemFault { addr }),
        }
    }
}

/// Memory that grows on demand answers every load and store exactly as
/// flat, fully allocated memory does: the same value or the same fault,
/// at every segment edge, every page edge and anywhere inside a segment.
#[test]
fn grown_memory_answers_like_flat_memory() {
    const CAP: u32 = 1 << 16;
    const PAGE: u32 = 4096;
    const STEPS: u64 = 256;
    let cfg = MemoryConfig {
        data_capacity: CAP,
        stack_capacity: CAP,
    };
    for case in 0..CASES {
        let rng = &mut XorShift64::new(SEED).fork(case);
        let mut p = Program::new();
        p.instrs = (0..rng.range(1, 64))
            .filter_map(|_| decode(rng.next_u32()).ok())
            .collect();
        // Nonzero bytes, so a read past the image that returns image
        // bytes instead of zeros shows.
        p.data = (0..rng.below(300))
            .map(|_| rng.next_u32() as u8 | 1)
            .collect();
        let text_end = TEXT_BASE + 4 * p.instrs.len() as u32;
        let image_end = DATA_BASE + p.data.len() as u32;
        let stack_base = STACK_TOP - CAP;
        let mut flat = FlatMemory::new(&p, cfg);
        let mut m = Machine::with_config(p, cfg);
        for step in 0..STEPS {
            let width = [1, 2, 4][rng.below(3) as usize];
            let addr = match rng.below(4) {
                // Within 16 bytes of an edge.
                0 | 1 => {
                    let edges = [
                        DATA_BASE,
                        image_end,
                        DATA_BASE + CAP,
                        DATA_BASE + PAGE * rng.below(u64::from(CAP / PAGE)) as u32,
                        stack_base,
                        STACK_TOP,
                        STACK_TOP - PAGE * rng.below(u64::from(CAP / PAGE)) as u32,
                        TEXT_BASE,
                        text_end,
                        0,
                        u32::MAX - 3,
                    ];
                    let edge = edges[rng.below(edges.len() as u64) as usize];
                    edge.wrapping_add(rng.range(0, 32) as u32).wrapping_sub(16)
                }
                // Uniform inside a segment, aligned three times in four.
                _ => {
                    let (base, size) = [
                        (DATA_BASE, CAP),
                        (stack_base, CAP),
                        (TEXT_BASE, text_end - TEXT_BASE),
                    ][rng.below(3) as usize];
                    let addr = base + rng.below(u64::from(size)) as u32;
                    if rng.chance(3, 4) {
                        addr & !(width - 1)
                    } else {
                        addr
                    }
                }
            };
            let store = rng.chance(1, 2);
            let v = rng.next_u32() & (u32::MAX >> (32 - 8 * width));
            let op = if store { "store" } else { "load" };
            let what = format!("case {case} step {step}: {op}{} at {addr:#x}", 8 * width);
            let (got, want) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mem = m.mem_mut();
                if store {
                    let got = match width {
                        1 => mem.store8(addr, v as u8),
                        2 => mem.store16(addr, v as u16),
                        _ => mem.store32(addr, v),
                    };
                    (got.map(|()| v), flat.store(addr, width, v).map(|()| v))
                } else {
                    let got = match width {
                        1 => mem.load8(addr).map(u32::from),
                        2 => mem.load16(addr).map(u32::from),
                        _ => mem.load32(addr),
                    };
                    (got, flat.load(addr, width))
                }
            }))
            .unwrap_or_else(|_| panic!("{what}: panicked"));
            assert_eq!(got, want, "{what}");
        }
    }
}
