//! `offline-sweep`: the capture stage as set-up, then the paper's Fig. 7
//! grid replayed in fixed-work rounds, scalar against batched.

use crate::refk::RefLog;
use crate::stats::{median, normalise_time, percentile};
use crate::tracer::Tracer;
use crate::{Args, Outcome, Rng};
use ntp_bench::{capture_with_cache, BenchData};
use ntp_core::{
    evaluate, evaluate_batch_fresh, NextTracePredictor, PredictorConfig, PredictorStats,
};
use ntp_trace::{TraceConfig, TraceRecord};
use ntp_workloads::{suite, ScalePreset};
use std::time::{Duration, Instant};

/// Simulated-instruction cap per workload (far above the default scale).
const BUDGET: u64 = 200_000_000;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Records per stream in one round: every round replays the same amount
/// of work, whichever grid cell it belongs to.
const WINDOW: usize = 1 << 15;
/// The grid: correlating-table index bits × DOLC depth.
const BITS: [u32; 3] = [12, 15, 18];
const DEPTHS: usize = 8;
/// Streams per batched job (two 3-lane jobs cover the six streams).
const LANES: usize = 3;
/// Passes over the grid a run makes at least, so its p90 has ten rounds
/// beyond it however short the run.
const MIN_PASSES: usize = 5;

pub fn run(args: &Args, tr: &mut Tracer, refs: &mut RefLog) -> Result<Outcome, String> {
    // Set-up: assemble the six workloads and capture them cold,
    // single-threaded, in memory, with no cache.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut raw_setups = Vec::with_capacity(SETUP_REPS);
    let mut data: Vec<BenchData> = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut data));
        let before = refs.sample();
        let start = Instant::now();
        data = capture(tr, ScalePreset::Default);
        let raw = start.elapsed().as_secs_f64();
        setups.push(normalise_time(raw, (before + refs.sample()) / 2.0));
        raw_setups.push(raw);
    }
    let instrs: u64 = data.iter().map(|d| d.icount).sum();
    if let Some(short) = data.iter().find(|d| d.records.len() < WINDOW) {
        return Err(format!(
            "{} captured {} records, fewer than one {WINDOW}-record window",
            short.name,
            short.records.len()
        ));
    }

    // Every round replays the middle window of each stream, so every
    // seed measures the same work; the seed orders the grid.
    let windows: Vec<&[TraceRecord]> = data
        .iter()
        .map(|d| {
            let at = (d.records.len() - WINDOW) / 2;
            &d.records[at..at + WINDOW]
        })
        .collect();
    let mut grid: Vec<(u32, usize)> = BITS
        .iter()
        .flat_map(|&b| (0..DEPTHS).map(move |d| (b, d)))
        .collect();
    Rng::new(args.seed).shuffle(&mut grid);
    let mut digest = ntp_hash::Fnv64::new();
    for w in &windows {
        for r in w.iter() {
            digest.update(&r.start_pc.to_le_bytes());
        }
    }
    for (b, d) in &grid {
        digest.update(&[*b as u8, *d as u8]);
    }
    let input_digest = digest.finish();

    // The sweep: whole passes over the grid until the time is up. Each
    // round replays one grid cell over the six windows twice, scalar and
    // batched (alternating which goes first), and is normalised by the
    // reference measurements on either side of it.
    let traced = tr.on();
    let per_round = (windows.len() * WINDOW) as f64;
    let mut rounds: Vec<Round> = Vec::new();
    let mut pass_digest: Option<u64> = None;
    let mut before = refs.sample();
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        let mut stats: Vec<Option<Vec<PredictorStats>>> = vec![None; grid.len()];
        for (i, &(bits, depth)) in grid.iter().enumerate() {
            let cfg = PredictorConfig::paper(bits, depth);
            // Over four passes every cell runs traced and untraced (so a
            // traced run measures its own overhead), each with scalar
            // first and with batched first.
            tr.set_on(traced && (pass + i).is_multiple_of(2));
            let scalar_first = (pass / 2 + i).is_multiple_of(2);
            tr.enter("sweep.round");
            let (mut scalar, mut batch) = (None, None);
            for step in 0..2 {
                if (step == 0) == scalar_first {
                    scalar = Some(scalar_job(tr, cfg, &windows));
                } else {
                    batch = Some(batch_job(tr, cfg, &windows));
                }
            }
            tr.exit();
            let ((scalar_t, scalar_s), (batch_t, batch_s)) =
                (scalar.expect("ran"), batch.expect("ran"));
            let after = refs.sample();
            let host = (before + after) / 2.0;
            before = after;
            if scalar_s != batch_s {
                return Err(format!(
                    "paper({bits},{depth}): batched stats differ from scalar stats"
                ));
            }
            let ns = |t: Duration| normalise_time(t.as_secs_f64(), host) * 1e9 / per_round;
            rounds.push(Round {
                bits,
                traced: tr.on(),
                raw_us: (scalar_t + batch_t).as_secs_f64() * 1e6,
                scalar_ns: ns(scalar_t),
                batch_ns: ns(batch_t),
            });
            stats[i] = Some(scalar_s);
        }
        // Every pass must reproduce the first pass's statistics exactly.
        let mut d = ntp_hash::Fnv64::new();
        for s in stats.iter().flatten().flatten() {
            for v in s.to_array() {
                d.update(&v.to_le_bytes());
            }
        }
        let d = d.finish();
        if *pass_digest.get_or_insert(d) != d {
            return Err(format!("pass {pass}: statistics digest {d:016x} changed"));
        }
        pass += 1;
    }
    tr.set_on(traced);

    let mut raw_us: Vec<f64> = rounds.iter().map(|r| r.raw_us).collect();
    let raw50 = percentile(&mut raw_us, 0.5).ok_or("too few rounds for p50")?;
    let mut round_us: Vec<f64> = rounds
        .iter()
        .map(|r| (r.scalar_ns + r.batch_ns) * per_round / 1e3)
        .collect();
    let p50 = percentile(&mut round_us, 0.5).ok_or("too few rounds for p50")?;
    let p90 = percentile(&mut round_us, 0.9).ok_or("too few rounds for p90")?;
    let setup_s = median(&mut setups).expect("set-up ran");
    let raw_setup = median(&mut raw_setups).expect("set-up ran");
    println!(
        "offline-sweep: inputs {input_digest:016x}, stats {:016x}, {pass} passes x {} cells",
        pass_digest.expect("one pass ran"),
        grid.len(),
    );
    println!(
        "  setup_s {setup_s:.4} (raw {raw_setup:.4}, n={SETUP_REPS}); round p50 {p50:.1} us (raw {raw50:.1}), p90 {p90:.1} us (n={})",
        rounds.len()
    );

    let mut out = Outcome::new((rounds.len() as f64 * per_round * 2.0) as u64, 0);
    if !traced {
        out.put("setup_s", setup_s);
        out.put("latency_p50_us", p50);
        out.put("latency_p90_us", p90);
        return Ok(out);
    }

    put_capture_metrics(
        tr,
        &mut out,
        ScalePreset::Default,
        instrs * SETUP_REPS as u64,
    )?;
    let traced_rounds: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    for (k, bits) in BITS.iter().enumerate() {
        let mut scalar: Vec<f64> = traced_rounds
            .iter()
            .filter(|r| r.bits == *bits)
            .map(|r| r.scalar_ns)
            .collect();
        let mut batch: Vec<f64> = traced_rounds
            .iter()
            .filter(|r| r.bits == *bits)
            .map(|r| r.batch_ns)
            .collect();
        let n = scalar.len();
        let scalar = percentile(&mut scalar, 0.5).ok_or("too few traced rounds per bits")?;
        let batch = percentile(&mut batch, 0.5).ok_or("too few traced rounds per bits")?;
        println!("  b{bits}: scalar {scalar:.2} ns/record, batch {batch:.2} ns/record (n={n})");
        out.put(SCALAR_NAMES[k], scalar);
        out.put(BATCH_NAMES[k], batch);
    }
    let mut scalar: Vec<f64> = traced_rounds.iter().map(|r| r.scalar_ns).collect();
    let mut batch: Vec<f64> = traced_rounds.iter().map(|r| r.batch_ns).collect();
    let scalar = percentile(&mut scalar, 0.5).ok_or("too few traced rounds")?;
    let batch = percentile(&mut batch, 0.5).ok_or("too few traced rounds")?;
    out.put("core.batch_speedup", scalar / batch);

    let mut on: Vec<f64> = Vec::new();
    let mut off: Vec<f64> = Vec::new();
    for r in &rounds {
        let us = (r.scalar_ns + r.batch_ns) * per_round / 1e3;
        if r.traced {
            on.push(us);
        } else {
            off.push(us);
        }
    }
    let on = percentile(&mut on, 0.5).ok_or("too few traced rounds")?;
    let off = percentile(&mut off, 0.5).ok_or("too few untraced rounds")?;
    out.put("bench.trace_overhead_pct", (on / off - 1.0) * 100.0);
    Ok(out)
}

/// Assembles the six workloads at `scale` and captures each cold,
/// single-threaded, in memory, with no cache.
pub fn capture(tr: &mut Tracer, scale: ScalePreset) -> Vec<BenchData> {
    let workloads = tr.span("isa.assemble", || suite(scale));
    workloads
        .iter()
        .map(|w| {
            tr.span("bench.capture_with_cache", || {
                capture_with_cache(w, BUDGET, TraceConfig::default(), None)
            })
        })
        .collect()
}

/// The capture-stage metrics from the spans [`capture`] recorded, which
/// simulated `instrs` instructions in all, plus one more simulation of
/// the suite with the simulator alone (no trace selection, no
/// baselines) for `sim.minstr_per_s`.
pub fn put_capture_metrics(
    tr: &mut Tracer,
    out: &mut Outcome,
    scale: ScalePreset,
    instrs: u64,
) -> Result<(), String> {
    let workloads = suite(scale);
    let mut simulated = 0;
    tr.enter("sim.run");
    for w in &workloads {
        let mut m = w.machine();
        m.run(BUDGET).map_err(|e| format!("{}: {e}", w.name))?;
        simulated += m.icount();
    }
    tr.exit();
    let (assembles, assemble_t) = tr.total("isa.assemble");
    let (_, capture_t) = tr.total("bench.capture_with_cache");
    let (_, sim_t) = tr.total("sim.run");
    out.put(
        "isa.assemble_ms",
        assemble_t.as_secs_f64() * 1e3 / assembles as f64,
    );
    out.put(
        "sim.minstr_per_s",
        simulated as f64 / sim_t.as_secs_f64() / 1e6,
    );
    out.put(
        "trace.capture_minstr_per_s",
        instrs as f64 / capture_t.as_secs_f64() / 1e6,
    );
    Ok(())
}

const SCALAR_NAMES: [&str; 3] = [
    "core.scalar_ns_per_record.b12",
    "core.scalar_ns_per_record.b15",
    "core.scalar_ns_per_record.b18",
];
const BATCH_NAMES: [&str; 3] = [
    "core.batch_ns_per_record.b12",
    "core.batch_ns_per_record.b15",
    "core.batch_ns_per_record.b18",
];

/// One timed round: its raw time and its normalised per-record costs.
struct Round {
    bits: u32,
    traced: bool,
    raw_us: f64,
    scalar_ns: f64,
    batch_ns: f64,
}

/// Replays every window through a fresh scalar predictor.
fn scalar_job(
    tr: &mut Tracer,
    cfg: PredictorConfig,
    windows: &[&[TraceRecord]],
) -> (Duration, Vec<PredictorStats>) {
    let start = Instant::now();
    let stats = windows
        .iter()
        .map(|w| {
            tr.span("core.evaluate", || {
                evaluate(&mut NextTracePredictor::new(cfg), std::hint::black_box(w))
            })
        })
        .collect();
    (start.elapsed(), stats)
}

/// Replays the windows through fresh predictors, three lanes per
/// gathered sweep.
fn batch_job(
    tr: &mut Tracer,
    cfg: PredictorConfig,
    windows: &[&[TraceRecord]],
) -> (Duration, Vec<PredictorStats>) {
    let start = Instant::now();
    let stats = windows
        .chunks(LANES)
        .flat_map(|lanes| {
            tr.span("core.evaluate_batch_fresh", || {
                evaluate_batch_fresh(std::hint::black_box(lanes), |_| {
                    NextTracePredictor::new(cfg)
                })
            })
        })
        .collect();
    (start.elapsed(), stats)
}
