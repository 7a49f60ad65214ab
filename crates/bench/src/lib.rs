//! # ntp-bench — experiment harnesses
//!
//! One binary per table/figure of the paper (see `src/bin/`), all built on
//! [`capture`]: a single functional-simulation pass per benchmark that
//! records the compact trace stream and runs every streaming baseline, so
//! that dozens of predictor configurations can replay the same stream
//! without re-simulating.
//!
//! The pass is one [`ntp_trace::run_traces`] call with one visitor: the
//! record stream, the trace and redundancy statistics, the control mix
//! and the three baselines each fold a whole trace at a time, and the
//! simulator's step compiles into the same loop. A capture checks that
//! its traces cover every retired instruction and that the program
//! printed its reference output, and panics if either fails.
//!
//! Environment knobs honoured by all binaries:
//!
//! * `NTP_SCALE` — `tiny` / `default` / `full` workload scale;
//! * `NTP_INSTR_BUDGET` — hard cap on simulated instructions per benchmark;
//! * `NTP_THREADS` — worker threads for capture and replay fan-out
//!   (default: available parallelism; `1` forces the serial path). Output
//!   is byte-identical at any thread count;
//! * `NTP_TRACE_CACHE` — persistent on-disk trace-capture cache (see
//!   [`ntp_tracefile`]): `1` caches under `.ntp-cache/`, any other
//!   non-empty value is the cache directory. Warm runs skip the
//!   `simulate` phase entirely and are byte-identical on stdout.

#![warn(missing_docs)]

pub mod exp;
pub mod report;

use ntp_baselines::{
    MultiBranchStats, MultiGAg, SequentialStats, SequentialTracePredictor, TraceGshare,
};
use ntp_telemetry::{PhaseTimes, ReplayThroughput, ScopeTimer};
use ntp_trace::{run_traces, ControlMix, RedundancyStats, TraceConfig, TraceRecord, TraceStats};
use ntp_tracefile::{format as ntc, CaptureArtifact, Fingerprint, TraceFileError};
use ntp_workloads::{suite, ScalePreset, Workload};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Everything one simulation pass learns about a benchmark.
pub struct BenchData {
    /// Benchmark name (paper's naming).
    pub name: &'static str,
    /// What it stands in for.
    pub analog_of: &'static str,
    /// Compact trace stream for predictor replay.
    pub records: Vec<TraceRecord>,
    /// Trace-selection statistics (Table 1).
    pub trace_stats: TraceStats,
    /// Trace-cache duplication accounting.
    pub redundancy: RedundancyStats,
    /// Idealized sequential baseline results (Table 2).
    pub seq_stats: SequentialStats,
    /// Single-access multiple-branch baseline results (Patel-style,
    /// PC-hashed).
    pub mb_stats: MultiBranchStats,
    /// Multiported-GAg baseline results (Yeh/Rotenberg-style, history
    /// only).
    pub gag_stats: MultiBranchStats,
    /// Dynamic instruction mix.
    pub mix: ControlMix,
    /// Instructions simulated.
    pub icount: u64,
    /// Wall-clock phase timings of the capture pass (`simulate`).
    pub phases: PhaseTimes,
}

/// Runs one benchmark once with the paper's selection policy.
///
/// # Panics
///
/// Panics on simulation faults (a workload bug).
pub fn capture(workload: &Workload, budget: u64) -> BenchData {
    capture_with(workload, budget, TraceConfig::default())
}

/// Runs one benchmark once under an explicit trace-selection policy,
/// collecting traces and all streaming baselines.
///
/// Honours the `NTP_TRACE_CACHE` knob: when the cache is enabled and
/// holds a valid artifact for this exact configuration, the simulation
/// pass is skipped entirely and the artifact is replayed from disk (see
/// [`capture_with_cache`]).
///
/// # Panics
///
/// Panics on simulation faults (a workload bug).
pub fn capture_with(workload: &Workload, budget: u64, cfg: TraceConfig) -> BenchData {
    let dir = ntp_tracefile::cache_dir_from_env();
    capture_with_cache(workload, budget, cfg, dir.as_deref())
}

/// The cache key for one `(workload, budget, policy)` capture
/// configuration. Public so `ntp capture --verify` can audit cache files
/// against the exact fingerprints the bench harness would use.
pub fn capture_fingerprint(workload: &Workload, budget: u64, cfg: &TraceConfig) -> Fingerprint {
    Fingerprint::new(
        workload.name,
        workload.analog_of,
        budget,
        cfg,
        &workload.program.to_image(),
    )
}

/// Like [`capture_with`], but with an explicit cache directory (`None`
/// disables the cache). On a valid cache hit the `simulate` phase is
/// replaced by a `cache_load` phase and the artifact is decoded from
/// disk; on a miss (no file) or an invalid file (stale fingerprint,
/// version skew, corruption — warned to stderr) the full capture pass
/// runs and, on success, the artifact is written back atomically.
///
/// # Panics
///
/// Panics on simulation faults (a workload bug).
pub fn capture_with_cache(
    workload: &Workload,
    budget: u64,
    cfg: TraceConfig,
    cache: Option<&Path>,
) -> BenchData {
    let Some(dir) = cache else {
        return capture_cold(workload, budget, cfg);
    };
    let fp = capture_fingerprint(workload, budget, &cfg);
    let path = dir.join(fp.file_name());
    let start = Instant::now();
    match ntc::read_file(&path, &fp) {
        Ok((artifact, bytes)) => {
            let elapsed = start.elapsed();
            ntp_tracefile::counters::record_hit(bytes, elapsed);
            let mut phases = PhaseTimes::new();
            phases.add("cache_load", elapsed);
            return bench_data_from_artifact(workload, artifact, phases);
        }
        Err(TraceFileError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
            ntp_tracefile::counters::record_miss();
        }
        Err(e) => {
            ntp_tracefile::counters::record_invalid();
            ntp_runner::progress().line(&format!(
                "[cache] {}: refused {} — re-capturing ({e})",
                workload.name,
                path.display()
            ));
        }
    }
    let data = capture_cold(workload, budget, cfg);
    let artifact = artifact_from_bench_data(&data);
    let store = Instant::now();
    match ntc::write_file(&path, &fp, &artifact) {
        Ok(bytes) => ntp_tracefile::counters::record_store(bytes, store.elapsed()),
        Err(e) => ntp_runner::progress().line(&format!(
            "[cache] {}: could not write {} ({e}); continuing uncached",
            workload.name,
            path.display()
        )),
    }
    data
}

/// Rehydrates a [`BenchData`] from a decoded cache artifact. The static
/// name/analog strings come from the workload (the fingerprint already
/// guarantees they match the artifact).
fn bench_data_from_artifact(
    workload: &Workload,
    artifact: CaptureArtifact,
    phases: PhaseTimes,
) -> BenchData {
    BenchData {
        name: workload.name,
        analog_of: workload.analog_of,
        records: artifact.records,
        trace_stats: TraceStats::from_raw(artifact.trace_stats),
        redundancy: RedundancyStats::from_raw(artifact.redundancy),
        seq_stats: artifact.seq_stats,
        mb_stats: artifact.mb_stats,
        gag_stats: artifact.gag_stats,
        mix: artifact.mix,
        icount: artifact.icount,
        phases,
    }
}

/// The persisted form of one capture pass (everything except the
/// wall-clock phase timings, which are volatile by definition).
fn artifact_from_bench_data(d: &BenchData) -> CaptureArtifact {
    CaptureArtifact {
        name: d.name.to_string(),
        analog_of: d.analog_of.to_string(),
        icount: d.icount,
        records: d.records.clone(),
        trace_stats: d.trace_stats.to_raw(),
        redundancy: d.redundancy.to_raw(),
        seq_stats: d.seq_stats.clone(),
        mb_stats: d.mb_stats.clone(),
        gag_stats: d.gag_stats.clone(),
        mix: d.mix.clone(),
    }
}

/// A conservative pre-reservation for the trace-record stream: the
/// paper's traces average well above 8 instructions, so `budget / 8`
/// never over-reserves by more than ~2x, clamped to keep tiny budgets
/// cheap and absurd budgets bounded (the Vec still grows if exceeded).
fn estimated_record_capacity(budget: u64) -> usize {
    usize::try_from(budget / 8)
        .unwrap_or(usize::MAX)
        .clamp(64, 1 << 20)
}

/// The uncached capture pass: one full functional simulation, with every
/// per-trace consumer folded in one visitor.
///
/// # Panics
///
/// Panics on a simulation fault, if the traces do not cover every
/// retired instruction exactly once, or if the program's output is not
/// its reference output (a prefix of it when the budget ran out first).
fn capture_cold(workload: &Workload, budget: u64, cfg: TraceConfig) -> BenchData {
    let mut machine = workload.machine();
    let mut records = Vec::with_capacity(estimated_record_capacity(budget));
    let mut trace_stats = TraceStats::new();
    let mut redundancy = RedundancyStats::new();
    let mut seq = SequentialTracePredictor::paper();
    let mut mb = TraceGshare::new(14);
    let mut gag = MultiGAg::new(14);
    let mut mix = ControlMix::new();
    let mut phases = PhaseTimes::new();

    {
        let _t = ScopeTimer::new(&mut phases, "simulate");
        run_traces(&mut machine, budget, cfg, |trace| {
            records.push(TraceRecord::from(trace));
            let static_traces = trace_stats.static_traces();
            trace_stats.record(trace);
            // Both sets key on the trace id, and redundancy folds only a
            // static trace's first occurrence: skip its lookup on repeats.
            if trace_stats.static_traces() != static_traces {
                redundancy.record(trace);
            }
            mix.record_trace(trace);
            seq.observe(trace);
            mb.observe(trace);
            gag.observe(trace);
        })
        .expect("workload executes without faults");
    }
    assert_eq!(
        trace_stats.instrs(),
        machine.icount(),
        "{}: the traces cover {} instructions, but {} retired",
        workload.name,
        trace_stats.instrs(),
        machine.icount()
    );
    // A run cut short by its budget has printed a prefix of the output.
    let (out, want) = (machine.output(), &workload.expected_output);
    let matches = if machine.halted() {
        out == want.as_slice()
    } else {
        want.starts_with(out)
    };
    assert!(
        matches,
        "{}: output word {} differs from the reference output ({} of {} words printed)",
        workload.name,
        out.iter().zip(want).take_while(|(a, b)| a == b).count(),
        out.len(),
        want.len()
    );

    BenchData {
        name: workload.name,
        analog_of: workload.analog_of,
        records,
        trace_stats,
        redundancy,
        seq_stats: seq.stats().clone(),
        mb_stats: mb.stats().clone(),
        gag_stats: gag.stats().clone(),
        mix,
        icount: machine.icount(),
        phases,
    }
}

/// Reads `NTP_SCALE` (default: `default`).
///
/// # Panics
///
/// Panics on an unrecognized value.
pub fn scale_from_env() -> ScalePreset {
    match std::env::var("NTP_SCALE").as_deref() {
        Ok("tiny") => ScalePreset::Tiny,
        Ok("full") => ScalePreset::Full,
        Ok("default") | Err(_) => ScalePreset::Default,
        Ok(other) => panic!("NTP_SCALE must be tiny|default|full, got `{other}`"),
    }
}

/// Reads `NTP_INSTR_BUDGET` (default: 200M, far above any preset's needs).
///
/// # Panics
///
/// Panics with a clear message on an unparsable value (a typo'd budget
/// must never silently fall back to the default).
pub fn budget_from_env() -> u64 {
    ntp_runner::parse_env("NTP_INSTR_BUDGET").unwrap_or(200_000_000)
}

/// Per-section replay-throughput samples recorded by [`capture_suite`] and
/// the parallelised sections in [`exp`] (all wall-clock derived, hence
/// volatile).
static SECTION_THROUGHPUT: Mutex<Vec<ReplayThroughput>> = Mutex::new(Vec::new());

/// Records one section's replay throughput for later reporting.
pub(crate) fn record_section_throughput(t: ReplayThroughput) {
    SECTION_THROUGHPUT
        .lock()
        .expect("throughput registry lock")
        .push(t);
}

/// Snapshot of every per-section throughput sample recorded so far in this
/// process (capture pass plus each experiment section), in recording
/// order. Wall-clock derived, so reports must keep it under a volatile
/// key.
pub fn section_throughput() -> Vec<ReplayThroughput> {
    SECTION_THROUGHPUT
        .lock()
        .expect("throughput registry lock")
        .clone()
}

/// Clears the per-section throughput registry. [`capture_suite`] calls
/// this at suite start so a process that captures more than once (tests,
/// long-lived drivers) reports only the samples of the current run
/// instead of accumulating across runs forever.
pub fn reset_section_throughput() {
    SECTION_THROUGHPUT
        .lock()
        .expect("throughput registry lock")
        .clear();
}

/// Captures the whole six-benchmark suite at the environment-selected
/// scale, fanning benchmarks out over `NTP_THREADS` workers.
///
/// Worker progress goes through the ordered [`ntp_runner::progress`]
/// reporter: `[capture]` start lines print as workers claim benchmarks
/// (whole lines, never interleaved), and the `[phase]` summaries are
/// emitted strictly in suite order, so multi-run logs stay comparable.
/// The returned data is in suite order regardless of thread count.
///
/// Resets the per-section throughput registry and the trace-cache
/// counters at suite start, so every report describes exactly one run.
pub fn capture_suite() -> Vec<BenchData> {
    let dir = ntp_tracefile::cache_dir_from_env();
    capture_suite_in(dir.as_deref())
}

/// Like [`capture_suite`], but with an explicit cache directory (`None`
/// disables the cache regardless of the environment). Used by the
/// `ntp capture` CLI subcommand to pre-warm an explicit directory.
pub fn capture_suite_in(cache: Option<&Path>) -> Vec<BenchData> {
    reset_section_throughput();
    ntp_tracefile::reset_counters();
    let scale = scale_from_env();
    let budget = budget_from_env();
    let workloads = suite(scale);
    let reporter = ntp_runner::progress();
    reporter.reset_order();
    let threads = ntp_runner::thread_count();
    let (data, stats) = ntp_runner::map_ordered_stats(threads, &workloads, |i, w| {
        reporter.line(&format!("[capture] simulating {} …", w.name));
        let d = capture_with_cache(w, budget, TraceConfig::default(), cache);
        reporter.submit(
            i,
            format!("[phase] {}: {}", d.name, d.phases.summary_line()),
        );
        d
    });
    let instrs: u64 = data.iter().map(|d| d.icount).sum();
    let sample = ReplayThroughput {
        label: "capture".to_string(),
        records: data.iter().map(|d| d.records.len() as u64).sum(),
        wall: stats.wall,
        busy: stats.busy,
        threads: stats.threads,
    };
    reporter.line(&format!(
        "[capture] suite done: {:.1} Minstr in {:.2} s ({:.2}x over serial, {} thread{})",
        instrs as f64 / 1e6,
        stats.wall.as_secs_f64(),
        stats.speedup(),
        stats.threads,
        if stats.threads == 1 { "" } else { "s" },
    ));
    record_section_throughput(sample);
    let cache_counters = ntp_tracefile::counters();
    if !cache_counters.is_empty() {
        reporter.line(&format!("[cache] {}", cache_counters.summary_line()));
    }
    data
}

/// Prints a row of cells: first column left-aligned 10 wide, the rest
/// right-aligned 9 wide.
pub fn row(cells: &[String]) -> String {
    let mut line = String::new();
    for (k, c) in cells.iter().enumerate() {
        if k == 0 {
            line.push_str(&format!("{c:<10}"));
        } else {
            line.push_str(&format!("{c:>9}"));
        }
    }
    line
}

/// Formats a percentage with two decimals.
pub fn pct(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_consistent_counts() {
        let w = ntp_workloads::compress::build(1);
        let d = capture(&w, 50_000_000);
        assert_eq!(d.trace_stats.traces(), d.records.len() as u64);
        assert_eq!(d.trace_stats.instrs(), d.icount);
        assert_eq!(d.seq_stats.traces, d.trace_stats.traces());
        assert!(d.trace_stats.avg_trace_len() > 4.0);
        assert!(d.seq_stats.branches > 0);
    }

    #[test]
    #[should_panic(expected = "jpeg: output word 2 differs from the reference output")]
    fn capture_refuses_a_wrong_output() {
        let mut w = ntp_workloads::by_name("jpeg", ScalePreset::Tiny);
        w.expected_output[2] ^= 1;
        capture_with_cache(&w, 1_000_000, TraceConfig::default(), None);
    }

    #[test]
    fn capture_cut_short_checks_the_printed_prefix() {
        let w = ntp_workloads::by_name("jpeg", ScalePreset::Tiny);
        let budget = 40_000;
        let mut m = w.machine();
        m.run(budget).unwrap();
        assert!(!m.halted() && !m.output().is_empty());
        let d = capture_with_cache(&w, budget, TraceConfig::default(), None);
        assert_eq!(d.icount, budget);
    }

    #[test]
    fn row_layout_is_stable() {
        let r = row(&["name".into(), "1.00".into(), "2.00".into()]);
        assert!(r.starts_with("name      "));
        assert!(r.ends_with("     2.00"));
    }

    #[test]
    fn record_capacity_estimate_is_clamped() {
        assert_eq!(estimated_record_capacity(0), 64);
        assert_eq!(estimated_record_capacity(8_000), 1_000);
        assert_eq!(estimated_record_capacity(u64::MAX), 1 << 20);
    }

    #[test]
    fn reset_clears_section_throughput() {
        record_section_throughput(ReplayThroughput {
            label: "test".to_string(),
            records: 1,
            wall: std::time::Duration::from_millis(1),
            busy: std::time::Duration::from_millis(1),
            threads: 1,
        });
        assert!(!section_throughput().is_empty());
        reset_section_throughput();
        assert!(section_throughput().is_empty());
    }

    /// Warm loads must reproduce every field the cold pass computed, skip
    /// the `simulate` phase, and a corrupted file must fall back to a
    /// (correct) re-capture.
    #[test]
    fn cache_warm_load_matches_cold_capture() {
        let dir = std::env::temp_dir().join(format!(
            "ntp-bench-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let w = ntp_workloads::compress::build(1);
        let budget = 2_000_000;
        let cfg = TraceConfig::default();

        let cold = capture_with_cache(&w, budget, cfg, Some(&dir));
        assert!(cold.phases.get("simulate") > std::time::Duration::ZERO);

        let warm = capture_with_cache(&w, budget, cfg, Some(&dir));
        assert_eq!(warm.phases.get("simulate"), std::time::Duration::ZERO);
        assert!(warm.phases.get("cache_load") > std::time::Duration::ZERO);
        assert_eq!(warm.records, cold.records);
        assert_eq!(warm.icount, cold.icount);
        assert_eq!(warm.trace_stats.to_raw(), cold.trace_stats.to_raw());
        assert_eq!(warm.redundancy.to_raw(), cold.redundancy.to_raw());
        assert_eq!(warm.seq_stats, cold.seq_stats);
        assert_eq!(warm.mb_stats, cold.mb_stats);
        assert_eq!(warm.gag_stats, cold.gag_stats);
        assert_eq!(warm.mix, cold.mix);

        // A different budget is a different fingerprint: its own file.
        let fp_a = capture_fingerprint(&w, budget, &cfg);
        let fp_b = capture_fingerprint(&w, budget + 1, &cfg);
        assert_ne!(fp_a.file_name(), fp_b.file_name());

        // Corrupt the stored file: the loader must refuse it and the
        // fallback re-capture must still match the cold pass.
        let path = dir.join(fp_a.file_name());
        let mut bytes = std::fs::read(&path).expect("cache file exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite corrupted file");
        let refetched = capture_with_cache(&w, budget, cfg, Some(&dir));
        assert!(refetched.phases.get("simulate") > std::time::Duration::ZERO);
        assert_eq!(refetched.records, cold.records);

        // The fallback rewrote a valid file behind itself.
        let rewarm = capture_with_cache(&w, budget, cfg, Some(&dir));
        assert_eq!(rewarm.records, cold.records);
        assert!(rewarm.phases.get("cache_load") > std::time::Duration::ZERO);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
