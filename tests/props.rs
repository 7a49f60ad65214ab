//! Property tests over the core data structures and invariants of the
//! stack, driven by the deterministic xorshift generator of the
//! differential-verification harness (`ntp::verify::XorShift64`).
//!
//! Each property runs [`CASES`] cases; case `k` draws its input from
//! `XorShift64::new(SEED).fork(k)`, and every failure message names `k`,
//! so a failure reproduces from the message alone.

use ntp::baselines::{MultiGAg, SequentialTracePredictor, TraceGshare};
use ntp::core::{Counter, CounterSpec, Dolc, PathHistory, ReturnHistoryStack, RhsConfig};
use ntp::isa::{decode, encode, ControlKind, Instr, Reg};
use ntp::sim::{ControlEvent, Step};
use ntp::telemetry::{json, MetricsRegistry, Snapshot, ToJson};
use ntp::trace::{ControlMix, HashedId, Trace, TraceBuilder, TraceConfig, TraceId};
use ntp::verify::XorShift64;

/// Seeded cases per property.
const CASES: u64 = 256;
/// Root seed every case stream forks from.
const SEED: u64 = 0x9E0B_5EED;

/// The input stream of case `case`.
fn case_rng(case: u64) -> XorShift64 {
    XorShift64::new(SEED).fork(case)
}

fn arb_reg(rng: &mut XorShift64) -> Reg {
    Reg::new(rng.below(32) as u8).unwrap()
}

fn arb_i16(rng: &mut XorShift64) -> i16 {
    rng.next_u32() as i16
}

fn arb_u16(rng: &mut XorShift64) -> u16 {
    rng.next_u32() as u16
}

/// One of 18 instruction shapes, uniformly, with arbitrary operands.
fn arb_instr(rng: &mut XorShift64) -> Instr {
    let r = arb_reg;
    match rng.below(18) {
        0 => Instr::Add(r(rng), r(rng), r(rng)),
        1 => Instr::Sub(r(rng), r(rng), r(rng)),
        2 => Instr::Sltu(r(rng), r(rng), r(rng)),
        3 => Instr::Mul(r(rng), r(rng), r(rng)),
        4 => Instr::Sll(r(rng), r(rng), rng.below(32) as u8),
        5 => Instr::Addi(r(rng), r(rng), arb_i16(rng)),
        6 => Instr::Ori(r(rng), r(rng), arb_u16(rng)),
        7 => Instr::Lui(r(rng), arb_u16(rng)),
        8 => Instr::Lw(r(rng), r(rng), arb_i16(rng)),
        9 => Instr::Sb(r(rng), r(rng), arb_i16(rng)),
        10 => Instr::Beq(r(rng), r(rng), arb_i16(rng)),
        11 => Instr::Bgeu(r(rng), r(rng), arb_i16(rng)),
        12 => Instr::J(rng.below(1 << 26) as u32),
        13 => Instr::Jal(rng.below(1 << 26) as u32),
        14 => Instr::Jr(r(rng)),
        15 => Instr::Jalr(r(rng), r(rng)),
        16 => Instr::Halt,
        _ => Instr::Out(r(rng)),
    }
}

/// `lo..hi` instructions.
fn arb_instrs(rng: &mut XorShift64, lo: u64, hi: u64) -> Vec<Instr> {
    let n = rng.range(lo, hi - 1);
    (0..n).map(|_| arb_instr(rng)).collect()
}

#[test]
fn encode_decode_roundtrip() {
    for case in 0..CASES {
        let instr = arb_instr(&mut case_rng(case));
        let word = encode(&instr);
        assert_eq!(decode(word), Ok(instr), "case {case}");
    }
}

#[test]
fn trace_id_packing_roundtrip() {
    for case in 0..CASES {
        let rng = &mut case_rng(case);
        let pc = (0x0040_0000 + rng.below(0x0040_0000) as u32) & !3;
        let bits = rng.below(64) as u8;
        let count = rng.range(0, 6) as u8;
        let id = TraceId::new(pc, bits, count);
        let back = TraceId::from_packed(id.packed());
        assert_eq!(back.start_pc, id.start_pc, "case {case}");
        assert_eq!(back.branch_bits, id.branch_bits, "case {case}");
        // Hash low two bits are the first two outcomes.
        assert_eq!(
            id.hashed().0 & 0b11,
            (id.branch_bits & 0b11) as u16,
            "case {case}"
        );
    }
}

#[test]
fn dolc_index_always_fits() {
    for case in 0..CASES {
        let rng = &mut case_rng(case);
        let ids: Vec<u16> = (0..rng.below(8)).map(|_| arb_u16(rng)).collect();
        let depth = rng.range(0, 7) as usize;
        let bits = [12u32, 15, 18][rng.below(3) as usize];
        let dolc = Dolc::standard(depth, bits);
        let mut h: PathHistory<HashedId> = PathHistory::new(8);
        for v in ids {
            h.push(HashedId(v));
        }
        assert!(dolc.index(&h, bits) < (1u32 << bits), "case {case}");
    }
}

#[test]
fn dolc_ignores_history_beyond_depth() {
    for case in 0..CASES {
        let rng = &mut case_rng(case);
        let ids: Vec<u16> = (0..8).map(|_| arb_u16(rng)).collect();
        let depth = rng.range(0, 6) as usize;
        let tweak = arb_u16(rng);
        let dolc = Dolc::standard(depth, 15);
        let mut a: PathHistory<HashedId> = PathHistory::new(8);
        let mut b: PathHistory<HashedId> = PathHistory::new(8);
        for (k, v) in ids.iter().enumerate() {
            a.push(HashedId(*v));
            // Change only entries older than the depth window.
            let altered = if k < 8 - (depth + 1) { v ^ tweak } else { *v };
            b.push(HashedId(altered));
        }
        assert_eq!(dolc.index(&a, 15), dolc.index(&b, 15), "case {case}");
    }
}

#[test]
fn counter_never_leaves_range() {
    for case in 0..CASES {
        let rng = &mut case_rng(case);
        let events: Vec<bool> = (0..rng.below(200)).map(|_| rng.chance(1, 2)).collect();
        let spec = CounterSpec {
            bits: rng.range(1, 4) as u8,
            inc: rng.range(1, 3) as u8,
            dec: rng.range(1, 15) as u8,
        };
        let mut c = Counter::new();
        for correct in events {
            if correct {
                c.on_correct(spec);
            } else {
                let _ = c.on_incorrect(spec);
            }
            assert!(c.value() <= spec.max(), "case {case}");
        }
    }
}

#[test]
fn path_history_matches_model() {
    for case in 0..CASES {
        let rng = &mut case_rng(case);
        let ops: Vec<u16> = (0..rng.below(64)).map(|_| arb_u16(rng)).collect();
        let cap = rng.range(1, 8) as usize;
        let mut h: PathHistory<u16> = PathHistory::new(cap);
        let mut model: Vec<u16> = Vec::new();
        for v in ops {
            h.push(v);
            model.insert(0, v);
            model.truncate(cap);
            assert_eq!(h.snapshot(), model, "case {case}");
            assert_eq!(h.newest().unwrap(), model[0], "case {case}");
        }
    }
}

#[test]
fn rhs_depth_bounded() {
    for case in 0..CASES {
        let rng = &mut case_rng(case);
        let events: Vec<(u8, bool)> = (0..rng.below(100))
            .map(|_| (rng.below(3) as u8, rng.chance(1, 2)))
            .collect();
        let max_depth = rng.range(1, 8) as usize;
        let mut h: PathHistory<u16> = PathHistory::new(4);
        h.push(1);
        let mut rhs: ReturnHistoryStack<u16> = ReturnHistoryStack::new(RhsConfig { max_depth });
        for (calls, ret) in events {
            rhs.on_trace(&mut h, calls, ret);
            assert!(rhs.depth() <= max_depth, "case {case}");
            assert!(h.len() <= h.capacity(), "case {case}");
        }
    }
}

/// Builds a synthetic retired-instruction step whose control transfer, if
/// any, targets `target`.
fn step(pc: u32, kind: ControlKind, taken: bool, target: u32) -> Step {
    let instr = match kind {
        ControlKind::None => Instr::Add(Reg::ZERO, Reg::ZERO, Reg::ZERO),
        ControlKind::CondBranch => Instr::Beq(Reg::ZERO, Reg::ZERO, 1),
        ControlKind::Jump => Instr::J(pc >> 2),
        ControlKind::Call => Instr::Jal(pc >> 2),
        ControlKind::IndirectJump => Instr::Jr(Reg::V0),
        ControlKind::IndirectCall => Instr::Jalr(Reg::RA, Reg::V0),
        ControlKind::Return => Instr::Jr(Reg::RA),
    };
    let control = (kind != ControlKind::None).then_some(ControlEvent {
        kind,
        taken: taken || kind != ControlKind::CondBranch,
        target,
    });
    Step { pc, instr, control }
}

/// A control kind weighted 5:2:1:1:1:1:1 over none, conditional branch,
/// jump, call, return, indirect jump and indirect call.
fn arb_kind(rng: &mut XorShift64) -> ControlKind {
    match rng.below(12) {
        0..=4 => ControlKind::None,
        5 | 6 => ControlKind::CondBranch,
        7 => ControlKind::Jump,
        8 => ControlKind::Call,
        9 => ControlKind::Return,
        10 => ControlKind::IndirectJump,
        _ => ControlKind::IndirectCall,
    }
}

/// A trace-selection policy with every limit and heuristic drawn.
fn arb_trace_config(rng: &mut XorShift64) -> TraceConfig {
    TraceConfig {
        max_len: rng.range(1, 16) as usize,
        max_branches: rng.range(1, 6) as usize,
        stop_at_calls: rng.chance(1, 2),
        stop_at_loop_back_edges: rng.chance(1, 2),
    }
}

/// A drawn selection policy, the number of steps in a drawn stream of
/// straight-line pcs, and the traces the policy selects from it. Branch
/// and indirect targets fall up to 16 words either side of their pc.
fn arb_traces(rng: &mut XorShift64) -> (TraceConfig, usize, Vec<Trace>) {
    let cfg = arb_trace_config(rng);
    let steps: Vec<(ControlKind, bool, i32)> = (0..rng.range(1, 399))
        .map(|_| {
            (
                arb_kind(rng),
                rng.chance(1, 2),
                rng.range(0, 32) as i32 - 16,
            )
        })
        .collect();
    let mut builder = TraceBuilder::new(cfg);
    let mut pc = 0x0040_0000u32;
    let mut traces = Vec::new();
    for &(kind, taken, words) in &steps {
        let target = pc.wrapping_add_signed(4 * words);
        builder.push(&step(pc, kind, taken, target), |t| traces.push(*t));
        pc = pc.wrapping_add(4);
    }
    builder.flush(|t| traces.push(*t));
    (cfg, steps.len(), traces)
}

#[test]
fn trace_builder_invariants_on_arbitrary_streams() {
    for case in 0..CASES {
        let rng = &mut case_rng(case);
        let (cfg, total_in, traces) = arb_traces(rng);
        let mut total_out = 0usize;
        for t in &traces {
            total_out += t.len();
            assert!(t.len() <= cfg.max_len, "case {case}: {cfg:?}");
            assert!(t.branch_count() <= cfg.max_branches, "case {case}: {cfg:?}");
            let controls = t.controls();
            for c in &controls[..controls.len().saturating_sub(1)] {
                assert!(!c.kind.is_indirect(), "case {case}");
            }
            // The identifier holds every conditional-branch outcome, in
            // order, and nothing past the last one.
            let id = t.id();
            let branches: Vec<bool> = controls
                .iter()
                .filter(|c| c.kind == ControlKind::CondBranch)
                .map(|c| c.taken)
                .collect();
            assert_eq!(
                id.branch_count as usize,
                branches.len(),
                "case {case}: {t:?}"
            );
            for (i, &taken) in branches.iter().enumerate() {
                assert_eq!((id.branch_bits >> i) & 1 == 1, taken, "case {case}: {t:?}");
            }
            assert_eq!(id.branch_bits >> id.branch_count, 0, "case {case}: {t:?}");
            // The flags name the trailing indirect transfer and count calls.
            let last = controls.last().map(|c| c.kind);
            assert_eq!(
                t.ends_in_indirect(),
                last.is_some_and(ControlKind::is_indirect),
                "case {case}: {t:?}"
            );
            assert_eq!(
                t.ends_in_return(),
                last == Some(ControlKind::Return),
                "case {case}: {t:?}"
            );
            let calls = controls
                .iter()
                .filter(|c| matches!(c.kind, ControlKind::Call | ControlKind::IndirectCall))
                .count();
            assert_eq!(t.call_count() as usize, calls, "case {case}: {t:?}");
        }
        assert_eq!(
            total_in, total_out,
            "case {case}: every instruction lands in exactly one trace ({cfg:?})"
        );
    }
}

/// The streaming baselines and `ControlMix::record_trace` as they were
/// before each came to fold a whole trace in one step: one dispatch per
/// control. The shipped folds must match these statistic for statistic.
mod per_control {
    use ntp::baselines::{IndirectTargetBuffer, MultiBranchStats, SequentialStats};
    use ntp::isa::ControlKind;
    use ntp::trace::{ControlMix, Trace, MAX_TRACE_BRANCHES};

    /// A two-bit saturating counter trained with one outcome.
    fn train(ctr: &mut u8, taken: bool) {
        *ctr = if taken {
            (*ctr + 1).min(3)
        } else {
            ctr.saturating_sub(1)
        };
    }

    /// §5.1's sequential predictor: a 16-bit gshare, a perfect BTB, a
    /// 4K-entry indirect-target buffer and a perfect return predictor,
    /// which never misses, so returns are only counted.
    pub struct Sequential {
        pht: Vec<u8>,
        bhr: u32,
        itb: IndirectTargetBuffer,
        pub stats: SequentialStats,
    }

    impl Sequential {
        pub fn paper() -> Sequential {
            Sequential {
                pht: vec![1; 1 << 16],
                bhr: 0,
                itb: IndirectTargetBuffer::paper(),
                stats: SequentialStats::default(),
            }
        }

        pub fn observe(&mut self, trace: &Trace) {
            let mut wrong = false;
            for c in trace.controls() {
                match c.kind {
                    ControlKind::CondBranch => {
                        self.stats.branches += 1;
                        let ctr = &mut self.pht[((c.pc >> 2) ^ self.bhr) as usize & 0xFFFF];
                        if (*ctr >= 2) != c.taken {
                            self.stats.branch_mispredicts += 1;
                            wrong = true;
                        }
                        train(ctr, c.taken);
                        self.bhr = ((self.bhr << 1) | c.taken as u32) & 0xFFFF;
                    }
                    ControlKind::IndirectJump | ControlKind::IndirectCall => {
                        self.stats.indirects += 1;
                        if self.itb.predict(c.pc) != c.target {
                            self.stats.indirect_mispredicts += 1;
                            wrong = true;
                        }
                        self.itb.update(c.pc, c.target);
                    }
                    ControlKind::Return => self.stats.returns += 1,
                    ControlKind::Jump | ControlKind::Call | ControlKind::None => {}
                }
            }
            self.stats.traces += 1;
            if wrong {
                self.stats.trace_mispredicts += 1;
            }
        }
    }

    /// `TraceGshare` (start pc XOR history, `with_pc`) or `MultiGAg`
    /// (history alone): six counters per entry, read in one access.
    pub struct MultiBranch {
        pht: Vec<[u8; MAX_TRACE_BRANCHES]>,
        bhr: u32,
        bits: u32,
        with_pc: bool,
        itb: IndirectTargetBuffer,
        pub stats: MultiBranchStats,
    }

    impl MultiBranch {
        pub fn new(bits: u32, with_pc: bool) -> MultiBranch {
            MultiBranch {
                pht: vec![[1; MAX_TRACE_BRANCHES]; 1 << bits],
                bhr: 0,
                bits,
                with_pc,
                itb: IndirectTargetBuffer::paper(),
                stats: MultiBranchStats::default(),
            }
        }

        pub fn observe(&mut self, trace: &Trace) {
            let pc = if self.with_pc {
                trace.id().start_pc >> 2
            } else {
                0
            };
            let idx = ((pc ^ self.bhr) as usize) & (self.pht.len() - 1);
            let mut wrong = false;
            let mut branch_i = 0usize;
            for c in trace.controls() {
                match c.kind {
                    ControlKind::CondBranch => {
                        self.stats.branches += 1;
                        if (self.pht[idx][branch_i] >= 2) != c.taken {
                            self.stats.branch_mispredicts += 1;
                            wrong = true;
                        }
                        branch_i += 1;
                    }
                    ControlKind::IndirectJump | ControlKind::IndirectCall => {
                        if self.itb.predict(c.pc) != c.target {
                            wrong = true;
                        }
                        self.itb.update(c.pc, c.target);
                    }
                    _ => {}
                }
            }
            let branches = trace
                .controls()
                .iter()
                .filter(|c| c.kind == ControlKind::CondBranch);
            for (branch_i, c) in branches.enumerate() {
                train(&mut self.pht[idx][branch_i], c.taken);
                self.bhr = ((self.bhr << 1) | c.taken as u32) & ((1 << self.bits) - 1);
            }
            self.stats.traces += 1;
            if wrong {
                self.stats.trace_mispredicts += 1;
            }
        }
    }

    pub fn record_trace(mix: &mut ControlMix, trace: &Trace) {
        mix.instrs += trace.len() as u64;
        for c in trace.controls() {
            match c.kind {
                ControlKind::CondBranch => {
                    mix.cond_branches += 1;
                    mix.taken_branches += u64::from(c.taken);
                }
                ControlKind::Jump => mix.jumps += 1,
                ControlKind::Call => mix.calls += 1,
                ControlKind::IndirectJump => mix.indirect_jumps += 1,
                ControlKind::IndirectCall => mix.indirect_calls += 1,
                ControlKind::Return => mix.returns += 1,
                ControlKind::None => {}
            }
        }
    }
}

/// The shipped baselines and `ControlMix` fold each trace in one step;
/// after every trace of every drawn stream their statistics equal the
/// per-control model's. The multiple-branch tables are drawn small (1–8
/// index bits) so that traces share entries.
#[test]
fn baselines_fold_traces_like_the_per_control_model() {
    for case in 0..CASES {
        let rng = &mut case_rng(case);
        let (cfg, _, traces) = arb_traces(rng);
        let bits = rng.range(1, 8) as u32;
        let mut seq = SequentialTracePredictor::paper();
        let mut gshare = TraceGshare::new(bits);
        let mut gag = MultiGAg::new(bits);
        let mut mix = ControlMix::new();
        let mut seq_model = per_control::Sequential::paper();
        let mut gshare_model = per_control::MultiBranch::new(bits, true);
        let mut gag_model = per_control::MultiBranch::new(bits, false);
        let mut mix_model = ControlMix::new();
        for (i, t) in traces.iter().enumerate() {
            seq.observe(t);
            gshare.observe(t);
            gag.observe(t);
            mix.record_trace(t);
            seq_model.observe(t);
            gshare_model.observe(t);
            gag_model.observe(t);
            per_control::record_trace(&mut mix_model, t);
            let at = || format!("case {case}, trace {i} ({cfg:?}, {bits} index bits): {t:?}");
            assert_eq!(seq.stats(), &seq_model.stats, "sequential, {}", at());
            assert_eq!(gshare.stats(), &gshare_model.stats, "TraceGshare, {}", at());
            assert_eq!(gag.stats(), &gag_model.stats, "MultiGAg, {}", at());
            assert_eq!(mix, mix_model, "ControlMix, {}", at());
        }
    }
}

/// A random metrics snapshot: 0–4 sections, names drawn from a pool so
/// that some repeat (the renderer keeps both), each with counters,
/// gauges and histograms drawn over the edges of their value ranges.
fn arb_snapshot(rng: &mut XorShift64) -> Snapshot {
    let mut snap = Snapshot::new();
    for _ in 0..rng.range(0, 4) {
        let mut m = MetricsRegistry::new();
        for k in 0..rng.range(0, 4) {
            let c = m.counter(&format!("counter.{k}"));
            let v = match rng.below(3) {
                0 => 0,
                1 => u64::MAX,
                _ => rng.next_u64() >> rng.below(64),
            };
            m.add(c, v);
        }
        for k in 0..rng.range(0, 4) {
            let g = m.gauge(&format!("gauge.{k}"));
            let v = match rng.below(6) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -(rng.below(1_000) as f64),
                4 => rng.next_u64() as f64 / 7.0,
                // Any bit pattern: subnormals, extremes, negative zero.
                _ => f64::from_bits(rng.next_u64()),
            };
            m.set(g, v);
        }
        for k in 0..rng.range(0, 3) {
            let h = m.histogram(&format!("hist.{k}"));
            match rng.below(4) {
                0 => {}
                1 => m.observe(h, rng.next_u64()),
                2 => {
                    m.observe(h, 0);
                    m.observe(h, u64::MAX);
                }
                _ => {
                    for _ in 0..rng.range(2, 200) {
                        m.observe(h, rng.next_u64() >> rng.below(64));
                    }
                }
            }
        }
        let name = ["server", "shard0", "total"][rng.below(3) as usize];
        snap.push(name, m);
    }
    snap
}

/// `Snapshot::from_json` is the exact inverse of the JSON rendering:
/// every rendered snapshot decodes, and renders back byte for byte.
#[test]
fn metrics_snapshot_json_roundtrip() {
    for case in 0..CASES {
        let text = arb_snapshot(&mut case_rng(case)).to_json().render();
        let parsed = json::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}: {text}"));
        let back =
            Snapshot::from_json(&parsed).unwrap_or_else(|e| panic!("case {case}: {e}: {text}"));
        assert_eq!(back.to_json().render(), text, "case {case}");
    }
}

/// Full tooling roundtrip: instruction list → disassembly text →
/// assembler → identical instruction list. Exercises the assembler's
/// numeric-target paths and the disassembler together.
#[test]
fn disassemble_reassemble_roundtrip() {
    use ntp::isa::{asm::assemble, disasm, TEXT_BASE};
    for case in 0..CASES {
        let instrs = arb_instrs(&mut case_rng(case), 1, 40);
        // Rewrite control-flow targets so they land inside this block
        // (the assembler validates branch range and jump region).
        let n = instrs.len() as u32;
        let fixed: Vec<Instr> = instrs
            .iter()
            .enumerate()
            .map(|(k, i)| match *i {
                Instr::Beq(a, b, _) => Instr::Beq(a, b, -(k as i16)),
                Instr::Bgeu(a, b, _) => Instr::Bgeu(a, b, (n - k as u32 - 1) as i16),
                Instr::J(_) => Instr::J(TEXT_BASE >> 2),
                Instr::Jal(_) => Instr::Jal((TEXT_BASE >> 2) + n - 1),
                other => other,
            })
            .collect();
        let mut text = String::new();
        for (k, i) in fixed.iter().enumerate() {
            let pc = TEXT_BASE + (k as u32) * 4;
            text.push_str("        ");
            text.push_str(&disasm::render(i, pc));
            text.push('\n');
        }
        let program = assemble(&text)
            .unwrap_or_else(|e| panic!("case {case}: disassembly is valid assembly: {e}"));
        assert_eq!(program.instrs, fixed, "case {case}");
    }
}

/// Encoded programs decode back through `Program::encode_text`.
#[test]
fn program_binary_roundtrip() {
    for case in 0..CASES {
        let instrs = arb_instrs(&mut case_rng(case), 1, 64);
        let mut p = ntp::isa::Program::new();
        p.instrs = instrs.clone();
        let words = p.encode_text();
        let back: Vec<Instr> = words
            .iter()
            .map(|&w| decode(w).unwrap_or_else(|e| panic!("case {case}: {w:#010x}: {e:?}")))
            .collect();
        assert_eq!(back, instrs, "case {case}");
    }
}
