//! `ntp` — the command-line front end to the toolchain.
//!
//! ```text
//! ntp asm <file.s> [-o out.bin]        assemble to a flat NTPB image
//! ntp dis <file.s|file.bin>            disassemble
//! ntp run <file.s|file.bin> [--budget N]
//! ntp predict <file.s|file.bin|@workload> [--depth D] [--bits B] [--budget N]
//! ntp trace <file.s|file.bin|@workload> [--budget N] [--limit N]
//! ntp report <file.s|file.bin|@workload> [--budget N] [--depth D] [--bits B] [--json <path|->]
//! ntp verify [--seed 0xC0FFEE] [--points N]
//! ntp capture [--dir <path>] [--verify]
//! ntp snapshot save <file.s|file.bin|@workload> -o <out.nts>
//!              [--bits B] [--depth D] [--budget N] [--json <path|->]
//! ntp snapshot verify <file.nts> [--json <path|->]
//! ntp serve [--addr host:port] [--workers N] [--max-conns N]
//!           [--event-threads N] [--queue-depth N]
//!           [--metrics-addr host:port] [--stats-interval S]
//!           [--warm <file.nts|dir>] [--snapshot-on-drain <dir>]
//!           [--snapshot-interval S]
//! ntp route --backends a1,a2[,...] [--addr host:port]
//!           [--snapshot-dirs d1,d2[,...]] [--vnodes N] [--probe-interval S]
//!           [--max-conns N] [--migrate session:<to|next>:after]
//! ntp loadgen [--addr host:port] [--sessions N] [--clients N] [--chunk N]
//!             [--bits B] [--depth D] [--shutdown] [--json <path|->]
//!             [--open-loop] [--rate R] [--duration S] [--zipf Z] [--seed S]
//! ntp top [--addr host:port] [--interval S] [--once] [--json] [--cluster]
//!         [--shutdown]
//! ntp workloads                        list the built-in benchmarks
//! ```

use ntp_core::{
    evaluate, evaluate_with_sink, predictor_section, NextTracePredictor, PredictorConfig,
};
use ntp_engine::{DelayedUpdateEngine, EngineConfig};
use ntp_isa::{asm::assemble, disasm, Program, IMAGE_MAGIC};
use ntp_sim::Machine;
use ntp_telemetry::{Json, NullSink, PhaseTimes, Report, RunManifest, ScopeTimer, ToJson};
use ntp_trace::{run_traces, TraceConfig, TraceRecord, TraceStats};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("ntp: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "asm" => cmd_asm(rest),
        "dis" => cmd_dis(rest),
        "run" => cmd_run(rest),
        "predict" => cmd_predict(rest),
        "trace" => cmd_trace(rest),
        "report" => cmd_report(rest),
        "verify" => cmd_verify(rest),
        "capture" => cmd_capture(rest),
        "snapshot" => cmd_snapshot(rest),
        "serve" => cmd_serve(rest),
        "route" => cmd_route(rest),
        "loadgen" => cmd_loadgen(rest),
        "top" => cmd_top(rest),
        "workloads" => cmd_workloads(),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     ntp asm <file.s> [-o out.bin]\n  \
     ntp dis <file.s|file.bin>\n  \
     ntp run <file.s|file.bin> [--budget N]\n  \
     ntp predict <file.s|file.bin|@workload> [--depth D] [--bits B] [--budget N]\n  \
     ntp trace <file.s|file.bin|@workload> [--budget N] [--limit N]\n  \
     ntp report <file.s|file.bin|@workload> [--budget N] [--depth D] [--bits B] [--json <path|->]\n  \
     ntp verify [--seed 0xC0FFEE] [--points N]\n  \
     ntp capture [--dir <path>] [--verify]\n  \
     ntp snapshot save <file.s|file.bin|@workload> -o <out.nts> \
     [--bits B] [--depth D] [--budget N] [--json <path|->]\n  \
     ntp snapshot verify <file.nts> [--json <path|->]\n  \
     ntp serve [--addr host:port] [--workers N] [--max-conns N] \
     [--event-threads N] [--queue-depth N] \
     [--metrics-addr host:port] [--stats-interval S] \
     [--warm <file.nts|dir>] [--snapshot-on-drain <dir>] [--snapshot-interval S]\n  \
     ntp route --backends a1,a2[,...] [--addr host:port] \
     [--snapshot-dirs d1,d2[,...]] [--vnodes N] [--probe-interval S] \
     [--max-conns N] [--migrate session:<to|next>:after]\n  \
     ntp loadgen [--addr host:port] [--sessions N] [--clients N] [--chunk N] \
     [--bits B] [--depth D] [--shutdown] [--json <path|->] \
     [--open-loop] [--rate R] [--duration S] [--zipf Z] [--seed S]\n  \
     ntp top [--addr host:port] [--interval S] [--once] [--json] [--cluster] [--shutdown]\n  \
     ntp workloads"
        .to_string()
}

/// Loads a program from a source file, an NTPB image, or `@workload`.
fn load(spec: &str) -> Result<Program, String> {
    if let Some(name) = spec.strip_prefix('@') {
        if !ntp_workloads::NAMES.contains(&name) {
            return Err(format!("unknown workload `{name}` (see `ntp workloads`)"));
        }
        return Ok(ntp_workloads::by_name(name, ntp_workloads::ScalePreset::Tiny).program);
    }
    let bytes = std::fs::read(spec).map_err(|e| format!("cannot read {spec}: {e}"))?;
    if bytes.starts_with(IMAGE_MAGIC) {
        return Program::from_image(&bytes).map_err(|e| format!("{spec}: {e}"));
    }
    let src = String::from_utf8(bytes).map_err(|_| format!("{spec}: not UTF-8 assembly"))?;
    assemble(&src).map_err(|e| format!("{spec}:{e}"))
}

fn flag_value(rest: &[String], name: &str) -> Result<Option<u64>, String> {
    for pair in rest.windows(2) {
        if pair[0] == name {
            return pair[1]
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} expects a number, got `{}`", pair[1]));
        }
    }
    Ok(None)
}

fn positional(rest: &[String]) -> Result<&str, String> {
    rest.iter()
        .take_while(|a| !a.starts_with('-'))
        .map(String::as_str)
        .next()
        .ok_or_else(|| format!("missing input file\n{}", usage()))
}

fn cmd_asm(rest: &[String]) -> Result<(), String> {
    let input = positional(rest)?;
    let out = rest
        .windows(2)
        .find(|p| p[0] == "-o")
        .map(|p| p[1].clone())
        .unwrap_or_else(|| format!("{}.bin", input.trim_end_matches(".s")));
    let program = load(input)?;
    std::fs::write(&out, program.to_image()).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "{out}: {} instructions, {} data bytes, entry {:#010x}",
        program.len(),
        program.data.len(),
        program.entry
    );
    Ok(())
}

fn cmd_dis(rest: &[String]) -> Result<(), String> {
    let program = load(positional(rest)?)?;
    print!(
        "{}",
        disasm::disassemble_block(&program.encode_text(), program.text_base)
    );
    Ok(())
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    let program = load(positional(rest)?)?;
    let budget = flag_value(rest, "--budget")?.unwrap_or(100_000_000);
    let mut machine = Machine::new(program);
    let stop = machine.run(budget).map_err(|e| e.to_string())?;
    for v in machine.output() {
        println!("{v}");
    }
    eprintln!(
        "[{} after {} instructions]",
        match stop {
            ntp_sim::StopReason::Halted => "halted",
            ntp_sim::StopReason::BudgetExhausted => "budget exhausted",
        },
        machine.icount()
    );
    Ok(())
}

fn cmd_predict(rest: &[String]) -> Result<(), String> {
    let program = load(positional(rest)?)?;
    let budget = flag_value(rest, "--budget")?.unwrap_or(10_000_000);
    let depth = flag_value(rest, "--depth")?.unwrap_or(7) as usize;
    let bits = flag_value(rest, "--bits")?.unwrap_or(15) as u32;

    let mut machine = Machine::new(program);
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut stats = TraceStats::new();
    let mut sequential = ntp_baselines::SequentialTracePredictor::paper();
    run_traces(&mut machine, budget, TraceConfig::default(), |t| {
        records.push(TraceRecord::from(t));
        stats.record(t);
        sequential.observe(t);
    })
    .map_err(|e| e.to_string())?;

    let cfg = PredictorConfig::try_paper(bits, depth).map_err(|e| e.to_string())?;
    let mut predictor = NextTracePredictor::try_new(cfg).map_err(|e| e.to_string())?;
    let result = evaluate(&mut predictor, &records);

    println!(
        "instructions: {}   traces: {}   avg trace length: {:.1}   static traces: {}",
        machine.icount(),
        stats.traces(),
        stats.avg_trace_len(),
        stats.static_traces()
    );
    println!(
        "path-based predictor (2^{bits}, depth {depth}): {:.2}% misprediction",
        result.mispredict_pct()
    );
    println!(
        "  sources: correlated {}  secondary {}  cold {}",
        result.from_correlated, result.from_secondary, result.cold
    );
    println!(
        "idealized sequential baseline:           {:.2}% misprediction",
        sequential.stats().trace_mispredict_pct()
    );
    Ok(())
}

fn cmd_trace(rest: &[String]) -> Result<(), String> {
    let program = load(positional(rest)?)?;
    let budget = flag_value(rest, "--budget")?.unwrap_or(100_000);
    let limit = flag_value(rest, "--limit")?.unwrap_or(64) as usize;
    let mut machine = Machine::new(program);
    let mut printed = 0usize;
    let mut total = 0u64;
    run_traces(&mut machine, budget, TraceConfig::default(), |t| {
        total += 1;
        if printed < limit {
            println!(
                "{:<24} len={:<3} calls={} hashed={}{}",
                t.id().to_string(),
                t.len(),
                t.call_count(),
                t.id().hashed(),
                if t.ends_in_return() {
                    "  ret"
                } else if t.ends_in_indirect() {
                    "  ind"
                } else {
                    ""
                }
            );
            printed += 1;
        }
    })
    .map_err(|e| e.to_string())?;
    if total as usize > printed {
        eprintln!("[{} more traces; raise --limit]", total as usize - printed);
    }
    Ok(())
}

/// Scans for `--json <value>`, returning the string verbatim (unlike
/// [`flag_value`], which parses numbers).
fn flag_str<'a>(rest: &'a [String], name: &str) -> Option<&'a str> {
    rest.windows(2)
        .find(|p| p[0] == name)
        .map(|p| p[1].as_str())
}

/// Simulates `spec`, replays the predictor and the delayed-update engine
/// over the captured trace stream, and bundles everything into a
/// machine-readable [`Report`] (the same shape `BENCH_*.json` files use —
/// see OBSERVABILITY.md).
fn build_report(spec: &str, budget: u64, bits: u32, depth: usize) -> Result<Report, String> {
    // Reject a hostile design point before the (expensive) simulation, with
    // the typed diagnostic instead of a panic.
    let cfg = PredictorConfig::try_paper(bits, depth).map_err(|e| e.to_string())?;
    let program = load(spec)?;
    let mut phases = PhaseTimes::new();
    let mut machine = Machine::new(program);
    let mut records: Vec<TraceRecord> = Vec::new();
    let mut stats = TraceStats::new();
    {
        let _t = ScopeTimer::new(&mut phases, "simulate");
        run_traces(&mut machine, budget, TraceConfig::default(), |t| {
            records.push(TraceRecord::from(t));
            stats.record(t);
        })
        .map_err(|e| e.to_string())?;
    }

    let mut report = Report::new(RunManifest::capture(
        spec.trim_start_matches('@'),
        "cli",
        budget,
        &format!("paper({bits},{depth})"),
    ));
    report.phases_mut().merge(&phases);
    report.section(
        "capture",
        Json::object()
            .with("icount", Json::U64(machine.icount()))
            .with("records", Json::U64(records.len() as u64)),
    );
    report.section("trace_stats", stats.to_json());

    // The predictor replay and the delayed-update engine are independent
    // passes over the same captured records, so fan them out over the
    // `NTP_THREADS` worker pool. Results come back in submission order, so
    // section order, phase names, and all numbers are identical at any
    // thread count; only the wall-clock phase durations vary.
    enum Pass {
        Replay(
            Box<(
                NextTracePredictor,
                ntp_core::PredictorStats,
                ntp_telemetry::Histogram,
            )>,
        ),
        Engine(ntp_engine::EngineStats),
    }
    let passes = ntp_runner::map_ordered(&[0usize, 1], |_, &k| {
        let t0 = std::time::Instant::now();
        let pass = if k == 0 {
            let mut predictor = NextTracePredictor::new(cfg);
            let (pstats, streaks) = evaluate_with_sink(&mut predictor, &records, &mut NullSink);
            Pass::Replay(Box::new((predictor, pstats, streaks)))
        } else {
            Pass::Engine(
                DelayedUpdateEngine::new(NextTracePredictor::new(cfg), EngineConfig::default())
                    .run(&records),
            )
        };
        (pass, t0.elapsed())
    });
    for (pass, dur) in passes {
        match pass {
            Pass::Replay(boxed) => {
                let (predictor, pstats, streaks) = *boxed;
                report.phases_mut().add("replay", dur);
                report.section("predictor", predictor_section(&predictor, &pstats));
                report.section("mispredict_streaks", streaks.to_json());
            }
            Pass::Engine(stats) => {
                report.phases_mut().add("engine", dur);
                report.section("engine", stats.to_json());
            }
        }
    }
    Ok(report)
}

fn cmd_report(rest: &[String]) -> Result<(), String> {
    let input = positional(rest)?;
    let budget = flag_value(rest, "--budget")?.unwrap_or(10_000_000);
    let depth = flag_value(rest, "--depth")?.unwrap_or(7) as usize;
    let bits = flag_value(rest, "--bits")?.unwrap_or(15) as u32;
    let report = build_report(input, budget, bits, depth)?;

    match flag_str(rest, "--json") {
        Some("-") => {
            println!("{}", report.to_json().pretty());
        }
        Some(path) => {
            let mut text = report.to_json().pretty();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[json] wrote {path}");
        }
        None => {
            let j = report.to_json();
            let pct = |sec: &str, key: &str| {
                j.get(sec)
                    .and_then(|s| s.get("stats"))
                    .or_else(|| j.get(sec))
                    .and_then(|s| s.get(key))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0)
            };
            println!(
                "{}: {} traces from {} instructions",
                input,
                j.get("capture")
                    .and_then(|c| c.get("records"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                j.get("capture")
                    .and_then(|c| c.get("icount"))
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
            );
            println!(
                "predictor paper({bits},{depth}): {:.2}% misprediction",
                pct("predictor", "mispredict_pct")
            );
            println!("engine: {}", engine_line(&j));
            println!("phases: {}", report.phases().summary_line());
            println!("(re-run with `--json -` for the full machine-readable report)");
        }
    }
    Ok(())
}

/// One-line engine summary pulled back out of the JSON tree.
fn engine_line(j: &Json) -> String {
    let get = |key: &str| {
        j.get("engine")
            .and_then(|e| e.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    format!(
        "ipc {:.2}, squash cycles {}",
        get("ipc"),
        get("squash_cycles")
    )
}

/// Scans for `--seed <value>`, accepting decimal or `0x`-prefixed hex.
fn flag_seed(rest: &[String], name: &str, default: u64) -> Result<u64, String> {
    let Some(text) = flag_str(rest, name) else {
        return Ok(default);
    };
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("{name} expects a decimal or 0x-hex number, got `{text}`"))
}

/// `ntp verify`: the differential-testing and fault-injection sweep
/// (see VERIFICATION.md). Exit status is nonzero when any oracle reports a
/// divergence, so this doubles as a CI gate — `scripts/check.sh` pins
/// `--seed 0xC0FFEE`.
fn cmd_verify(rest: &[String]) -> Result<(), String> {
    let seed = flag_seed(rest, "--seed", 0xC0FFEE)?;
    let points = flag_value(rest, "--points")?.unwrap_or(64) as usize;
    if points == 0 {
        return Err("--points must be at least 1".to_string());
    }
    let report = ntp_verify::run_all(seed, points);
    println!("{report}");
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} divergence(s); re-run with `--seed {seed:#x}` to reproduce",
            report.total_divergences()
        ))
    }
}

/// `ntp capture`: pre-warms (or, with `--verify`, audits) the persistent
/// trace-capture cache for the whole suite at the environment-selected
/// scale and budget (see EXPERIMENTS.md, "Persistent trace cache").
///
/// Without `--dir` the directory comes from `NTP_TRACE_CACHE`, falling
/// back to the default `.ntp-cache/` so `ntp capture` is useful even
/// before the environment knob is set.
fn cmd_capture(rest: &[String]) -> Result<(), String> {
    const USAGE: &str = "usage: ntp capture [--dir <path>] [--verify]";
    // A capture writes the whole suite, so refuse anything unknown before
    // building a workload or touching the cache directory.
    let (mut dir, mut verify) = (None, false);
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dir" => match args.next() {
                Some(d) => dir = Some(PathBuf::from(d)),
                None => return Err(format!("capture: --dir expects a path ({USAGE})")),
            },
            "--verify" => verify = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("capture: unknown argument `{other}` ({USAGE})")),
        }
    }
    let dir = dir.unwrap_or_else(|| {
        ntp_tracefile::cache_dir_from_env()
            .unwrap_or_else(|| PathBuf::from(ntp_tracefile::DEFAULT_CACHE_DIR))
    });
    if verify {
        return capture_verify(&dir);
    }
    let data = ntp_bench::capture_suite_in(Some(&dir));
    for d in &data {
        println!(
            "{:<10}{:>12} instrs {:>10} traces",
            d.name,
            d.icount,
            d.records.len()
        );
    }
    let c = ntp_tracefile::counters();
    println!("[cache] {}: {}", dir.display(), c.summary_line());
    Ok(())
}

/// `ntp capture --verify`: decodes and validates every suite cache file
/// without simulating. Missing or invalid files make the exit status
/// nonzero, so this doubles as a CI audit of a pre-warmed cache.
fn capture_verify(dir: &Path) -> Result<(), String> {
    let scale = ntp_bench::scale_from_env();
    let budget = ntp_bench::budget_from_env();
    let (mut missing, mut invalid) = (0u32, 0u32);
    for w in ntp_workloads::suite(scale) {
        let fp = ntp_bench::capture_fingerprint(&w, budget, &TraceConfig::default());
        let path = dir.join(fp.file_name());
        match ntp_tracefile::format::read_file(&path, &fp) {
            Ok((artifact, bytes)) => println!(
                "{:<10}ok       {:>10} traces {:>12} bytes  {}",
                w.name,
                artifact.records.len(),
                bytes,
                path.display()
            ),
            Err(ntp_tracefile::TraceFileError::Io(e))
                if e.kind() == std::io::ErrorKind::NotFound =>
            {
                println!("{:<10}missing  {}", w.name, path.display());
                missing += 1;
            }
            Err(e) => {
                println!("{:<10}INVALID  {} ({e})", w.name, path.display());
                invalid += 1;
            }
        }
    }
    if invalid > 0 || missing > 0 {
        Err(format!(
            "cache audit failed under {}: {invalid} invalid, {missing} missing \
             (run `ntp capture` to pre-warm)",
            dir.display()
        ))
    } else {
        println!("[cache] {}: all suite entries valid", dir.display());
        Ok(())
    }
}

/// `ntp snapshot`: save and verify `.nts` predictor-state snapshots
/// (see SERVING.md, "Predictor state snapshots").
///
/// * `save` trains a `paper(bits, depth)` predictor on the workload's
///   captured trace stream and writes the learned state as a
///   single-session snapshot (session id 0, ready for `ntp serve
///   --warm`);
/// * `verify` decodes a snapshot, rebuilds every session's predictor
///   from it, and reports per-session statistics. Any refusal —
///   corruption, truncation, version skew, state that does not fit its
///   embedded config — is a nonzero exit, so this doubles as the
///   snapshot gate in `scripts/check.sh`.
///
/// Both subcommands emit the same `--json` shape, derived from the
/// instantiated predictors: diffing `save --json` against a later
/// `verify --json` proves the on-disk round trip preserved stats and
/// table state.
fn cmd_snapshot(rest: &[String]) -> Result<(), String> {
    match rest.first().map(String::as_str) {
        Some("save") => snapshot_save(&rest[1..]),
        Some("verify") => snapshot_verify(&rest[1..]),
        Some(other) => Err(format!(
            "unknown snapshot subcommand `{other}`\n{}",
            usage()
        )),
        None => Err(format!("snapshot needs `save` or `verify`\n{}", usage())),
    }
}

/// Renders the canonical per-session JSON both snapshot subcommands
/// print: stats plus occupancy of the *instantiated* predictor, so a
/// verify after a save re-derives every number from the decoded state.
fn snapshot_json(artifact: &ntp_tracefile::SnapshotArtifact) -> Result<Json, String> {
    let mut sessions = Vec::with_capacity(artifact.sessions.len());
    for s in &artifact.sessions {
        let predictor = s
            .instantiate()
            .map_err(|e| format!("session {}: {e}", s.session_id))?;
        let occ = predictor.occupancy();
        sessions.push(
            Json::object()
                .with("session", Json::U64(s.session_id))
                .with("config", Json::Str(ntp_tracefile::config_canon(&s.config)))
                .with("predictions", Json::U64(s.stats.predictions))
                .with("correct", Json::U64(s.stats.correct))
                .with("mispredict_pct", Json::F64(s.stats.mispredict_pct()))
                .with("corr_valid", Json::U64(occ.corr_valid))
                .with("sec_valid", Json::U64(occ.sec_valid)),
        );
    }
    Ok(Json::object()
        .with("sessions", Json::Array(sessions))
        .with("session_count", Json::U64(artifact.sessions.len() as u64)))
}

/// Writes or prints the snapshot JSON per the `--json` flag, and prints
/// the one-line-per-session summary otherwise.
fn snapshot_report(
    rest: &[String],
    artifact: &ntp_tracefile::SnapshotArtifact,
) -> Result<(), String> {
    let j = snapshot_json(artifact)?;
    match flag_str(rest, "--json") {
        Some("-") => println!("{}", j.pretty()),
        Some(path) => {
            let mut text = j.pretty();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[json] wrote {path}");
        }
        None => {
            for s in &artifact.sessions {
                println!(
                    "session {:<6} {:>10} predictions  {:>6.2}% mispredict  {}",
                    s.session_id,
                    s.stats.predictions,
                    s.stats.mispredict_pct(),
                    ntp_tracefile::config_canon(&s.config)
                );
            }
        }
    }
    Ok(())
}

/// `ntp snapshot save`: capture, train, persist.
fn snapshot_save(rest: &[String]) -> Result<(), String> {
    let input = positional(rest)?;
    let out = flag_str(rest, "-o")
        .map(PathBuf::from)
        .ok_or_else(|| format!("snapshot save needs -o <out.nts>\n{}", usage()))?;
    let budget = flag_value(rest, "--budget")?.unwrap_or(10_000_000);
    let depth = flag_value(rest, "--depth")?.unwrap_or(7) as usize;
    let bits = flag_value(rest, "--bits")?.unwrap_or(15) as u32;
    let cfg = PredictorConfig::try_paper(bits, depth).map_err(|e| e.to_string())?;

    let program = load(input)?;
    let mut machine = Machine::new(program);
    let mut records: Vec<TraceRecord> = Vec::new();
    run_traces(&mut machine, budget, TraceConfig::default(), |t| {
        records.push(TraceRecord::from(t));
    })
    .map_err(|e| e.to_string())?;

    let mut predictor = NextTracePredictor::try_new(cfg).map_err(|e| e.to_string())?;
    let stats = evaluate(&mut predictor, &records);
    let artifact = ntp_tracefile::SnapshotArtifact {
        sessions: vec![ntp_tracefile::SessionSnapshot::capture(
            0, &predictor, &stats,
        )],
    };
    let bytes = ntp_tracefile::write_snapshot_file(&out, &artifact)
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!(
        "[snapshot] {}: 1 session, {} records trained, {} bytes",
        out.display(),
        records.len(),
        bytes
    );
    snapshot_report(rest, &artifact)
}

/// `ntp snapshot verify`: decode, rebuild, report — nonzero on refusal.
fn snapshot_verify(rest: &[String]) -> Result<(), String> {
    let input = positional(rest)?;
    let (artifact, bytes) =
        ntp_tracefile::read_snapshot_file(Path::new(input)).map_err(|e| format!("{input}: {e}"))?;
    eprintln!(
        "[snapshot] {input}: {} session(s), {bytes} bytes, all states restore",
        artifact.sessions.len()
    );
    snapshot_report(rest, &artifact)
}

/// Scans for `<name> <seconds>` (fractional allowed, must be > 0).
fn flag_seconds(rest: &[String], name: &str) -> Result<Option<std::time::Duration>, String> {
    let Some(text) = flag_str(rest, name) else {
        return Ok(None);
    };
    let secs: f64 = text
        .parse()
        .map_err(|_| format!("{name} expects seconds, got `{text}`"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("{name} must be a positive number of seconds"));
    }
    Ok(Some(std::time::Duration::from_secs_f64(secs)))
}

/// `ntp serve`: runs the sharded prediction service until a client sends
/// a `Shutdown` frame (see SERVING.md). Each flag overrides one
/// [`ntp_serve::ServeConfig`] default, and the server validates the
/// result once before it binds. The bound addresses are printed on
/// stdout — with `--addr 127.0.0.1:0` the kernel picks the port, so
/// scripts parse these lines to find it. `--warm` preloads sessions from
/// a `.nts` snapshot (file or directory); `--snapshot-on-drain` writes
/// one `shard<k>.nts` per shard at graceful shutdown, and
/// `--snapshot-interval` additionally rewrites them every S seconds
/// while serving (bounding what a hard failure can lose). SIGTERM
/// drains gracefully, same as a client `Shutdown` frame.
fn cmd_serve(rest: &[String]) -> Result<(), String> {
    let mut cfg = ntp_serve::ServeConfig::default();
    if let Some(addr) = flag_str(rest, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(workers) = flag_value(rest, "--workers")? {
        cfg.workers = workers as usize;
    }
    if let Some(max_conns) = flag_value(rest, "--max-conns")? {
        cfg.max_conns = max_conns as usize;
    }
    if let Some(threads) = flag_value(rest, "--event-threads")? {
        // The epoll loops own every connection, so at least one must
        // run: `serve` refuses 0 with a one-line diagnostic.
        cfg.event_threads = threads as usize;
    }
    if let Some(depth) = flag_value(rest, "--queue-depth")? {
        cfg.queue_depth = depth as usize;
    }
    if let Some(maddr) = flag_str(rest, "--metrics-addr") {
        cfg.metrics_addr = Some(maddr.to_string());
    }
    if let Some(interval) = flag_seconds(rest, "--stats-interval")? {
        cfg.stats_interval = Some(interval);
    }
    if let Some(warm) = flag_str(rest, "--warm") {
        cfg.warm_path = Some(PathBuf::from(warm));
    }
    if let Some(dir) = flag_str(rest, "--snapshot-on-drain") {
        cfg.snapshot_dir = Some(PathBuf::from(dir));
    }
    if let Some(interval) = flag_seconds(rest, "--snapshot-interval")? {
        cfg.snapshot_interval = Some(interval);
    }
    let handle = ntp_serve::serve(cfg.clone()).map_err(|e| e.to_string())?;
    println!(
        "[serve] listening on {} ({} workers, {} max conns)",
        handle.local_addr(),
        cfg.workers,
        cfg.max_conns
    );
    if let Some(maddr) = handle.metrics_local_addr() {
        println!("[serve] metrics on {maddr}");
    }
    // SIGTERM drains the server exactly like a client `Shutdown` frame:
    // in-flight sessions finish, snapshots (if configured) land on
    // disk, and the drain marker is written — the contract the cluster
    // router's graceful failover leans on.
    if ntp_serve::install_sigterm_drain() {
        let trigger = handle.shutdown_trigger();
        let _ = std::thread::Builder::new()
            .name("ntp-sigterm".into())
            .spawn(move || loop {
                if ntp_serve::sigterm_pending() {
                    trigger.trigger();
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            });
    }
    let summary = handle.join();
    println!(
        "[serve] drained: {} sessions, {} requests, {} conns accepted, \
         {} refused, {} busy replies, {} protocol errors, {} resyncs, \
         {} read timeouts, {} sockopt errors, {} partial reads",
        summary.sessions,
        summary.requests,
        summary.accepted,
        summary.refused,
        summary.busy,
        summary.protocol_errors,
        summary.resyncs,
        summary.read_timeouts,
        summary.sockopt_errors,
        summary.partial_reads
    );
    for s in &summary.per_shard {
        println!(
            "[serve]   shard {}: {} sessions, {} requests, {} predictions \
             ({} correct), {} errors, {} batched, {} coalesced, {} warmed, \
             {} snapshotted",
            s.shard,
            s.sessions,
            s.requests,
            s.predictions,
            s.correct,
            s.errors,
            s.batched,
            s.coalesced,
            s.warmed,
            s.snapshotted
        );
    }
    Ok(())
}

/// `ntp route`: the cluster router — one listener fronting N `ntp
/// serve` backends behind consistent-hash session placement, live
/// migration and snapshot-backed failover (see SERVING.md § Cluster).
/// `--snapshot-dirs` names each backend's `--snapshot-on-drain`
/// directory, positionally aligned with `--backends` (`-` for a backend
/// without one); failover restores sessions from there. `--migrate
/// S:B:N` schedules one scripted migration: session S moves to backend
/// B after N of its frames have been forwarded.
fn cmd_route(rest: &[String]) -> Result<(), String> {
    let Some(backends) = flag_str(rest, "--backends") else {
        return Err(format!(
            "route: --backends a1,a2[,...] is required\n{}",
            usage()
        ));
    };
    let dirs: Vec<Option<PathBuf>> = match flag_str(rest, "--snapshot-dirs") {
        Some(list) => list
            .split(',')
            .map(|d| match d.trim() {
                "" | "-" => None,
                d => Some(PathBuf::from(d)),
            })
            .collect(),
        None => Vec::new(),
    };
    let specs: Vec<ntp_cluster::BackendSpec> = backends
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .enumerate()
        .map(|(i, addr)| ntp_cluster::BackendSpec {
            addr: addr.to_string(),
            snapshot_dir: dirs.get(i).cloned().flatten(),
        })
        .collect();
    if !dirs.is_empty() && dirs.len() != specs.len() {
        return Err(format!(
            "route: --snapshot-dirs names {} director{} for {} backends",
            dirs.len(),
            if dirs.len() == 1 { "y" } else { "ies" },
            specs.len()
        ));
    }
    let mut cfg = ntp_cluster::RouterConfig::new(specs);
    if let Some(addr) = flag_str(rest, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(vnodes) = flag_value(rest, "--vnodes")? {
        cfg.vnodes = vnodes as usize;
    }
    if let Some(interval) = flag_seconds(rest, "--probe-interval")? {
        cfg.probe_interval = interval;
    }
    if let Some(max_conns) = flag_value(rest, "--max-conns")? {
        cfg.max_conns = max_conns as usize;
    }
    if let Some(spec) = flag_str(rest, "--migrate") {
        let parts: Vec<&str> = spec.split(':').collect();
        let parsed = match parts.as_slice() {
            [s, b, n] => {
                let to = match *b {
                    "next" => Some(None),
                    b => b.parse().ok().map(Some),
                };
                s.parse()
                    .ok()
                    .zip(to)
                    .zip(n.parse().ok())
                    .map(|((s, b), n)| (s, b, n))
            }
            _ => None,
        };
        let Some((session, to, after_frames)) = parsed else {
            return Err(format!(
                "route: --migrate expects session:<backend|next>:after_frames, got `{spec}`"
            ));
        };
        cfg.migrate_trigger = Some(ntp_cluster::MigrateTrigger {
            session,
            to,
            after_frames,
        });
    }
    let n = cfg.backends.len();
    let handle = ntp_cluster::start(cfg)?;
    println!(
        "[route] listening on {} ({n} backend{})",
        handle.local_addr(),
        if n == 1 { "" } else { "s" }
    );
    let summary = handle.join();
    println!(
        "[route] drained: {} sessions, {} forwarded, {} migrations, \
         {} failovers, {} errors, {} sessions lost, {} restored",
        summary.sessions,
        summary.forwarded,
        summary.migrations,
        summary.failovers,
        summary.errors,
        summary.sessions_lost,
        summary.sessions_restored
    );
    Ok(())
}

/// `ntp top`: a live view of a running server's per-shard runtime
/// metrics, polled over the `Metrics` frame (see SERVING.md). With
/// `--json` each poll prints the raw snapshot instead of the table;
/// `--once` polls a single time, and `--shutdown` drains the server
/// after the final poll. `--cluster` points it at an `ntp route`
/// process instead, rendering the `route.*` counters and the
/// per-backend forwarding/latency table.
fn cmd_top(rest: &[String]) -> Result<(), String> {
    let addr = flag_str(rest, "--addr").unwrap_or(ntp_serve::config::DEFAULT_ADDR);
    let interval =
        flag_seconds(rest, "--interval")?.unwrap_or_else(|| std::time::Duration::from_secs(2));
    let once = rest.iter().any(|a| a == "--once");
    let as_json = rest.iter().any(|a| a == "--json");
    let cluster = rest.iter().any(|a| a == "--cluster");

    let mut client = ntp_serve::Client::connect(addr)
        .map_err(|e| format!("top: cannot connect to {addr}: {e}"))?;
    loop {
        let text = client.metrics_json().map_err(|e| format!("top: {e}"))?;
        let snap = ntp_telemetry::json::parse(&text)
            .map_err(|e| format!("top: bad metrics reply: {e}"))?;
        if cluster && snap.get("router").is_none() {
            return Err(format!(
                "top: {addr} is not a router (no `router` metrics section) — \
                 drop --cluster or point --addr at an `ntp route` process"
            ));
        }
        if as_json {
            println!("{}", snap.pretty());
        } else {
            if !once {
                // Repaint in place, like top(1).
                print!("\x1b[H\x1b[2J");
            }
            if cluster {
                print_cluster_top(addr, &snap);
            } else {
                print_top(addr, &snap);
            }
        }
        if once {
            break;
        }
        std::thread::sleep(interval);
    }
    if rest.iter().any(|a| a == "--shutdown") {
        client
            .shutdown_server()
            .map_err(|e| format!("top: shutdown: {e}"))?;
    }
    Ok(())
}

/// Renders one metrics snapshot as the `ntp top` table.
fn print_top(addr: &str, snap: &Json) {
    let counter = |sec: &str, name: &str| {
        snap.get(sec)
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let gauge = |sec: &str, name: &str| {
        snap.get(sec)
            .and_then(|s| s.get("gauges"))
            .and_then(|g| g.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let latency = |sec: &str, field: &str| {
        snap.get(sec)
            .and_then(|s| s.get("histograms"))
            .and_then(|h| h.get("latency_us.all"))
            .and_then(|h| h.get(field))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let frames = |sec: &str| -> u64 {
        FRAME_NAMES
            .iter()
            .map(|f| counter(sec, &format!("frames.{f}")))
            .sum()
    };
    let errors = |sec: &str| -> u64 {
        counter(sec, "errors.unknown_session")
            + counter(sec, "errors.bad_config")
            + counter(sec, "errors.other")
    };

    println!(
        "ntp top — {addr}  up {:.0}s  conns {} (refused {})  busy {}  \
         protocol errors {}  resyncs {}  read timeouts {}  sockopt errors {}",
        gauge("server", "uptime_s"),
        counter("server", "conns.accepted"),
        counter("server", "conns.refused"),
        counter("server", "busy.replies"),
        counter("server", "protocol.errors"),
        counter("server", "resyncs"),
        counter("server", "conn.read_timeouts"),
        counter("server", "conn.sockopt_errors"),
    );
    println!(
        "{:<7}{:>9}{:>10}{:>12}{:>9}{:>8}{:>8}{:>8}{:>7}{:>8}",
        "shard",
        "qps",
        "frames",
        "predictions",
        "sessions",
        "p50us",
        "p99us",
        "p999us",
        "queue",
        "errors"
    );
    let (mut shard, mut qps_sum, mut queue_sum) = (0usize, 0.0f64, 0.0f64);
    loop {
        let sec = format!("shard{shard}");
        if snap.get(&sec).is_none() {
            break;
        }
        let wsec = format!("{sec}.window");
        let qps = counter(&wsec, "frames") as f64 / counter(&wsec, "epochs").max(1) as f64;
        let queue = gauge(&sec, "queue.depth");
        qps_sum += qps;
        queue_sum += queue;
        println!(
            "{:<7}{:>9.1}{:>10}{:>12}{:>9}{:>8}{:>8}{:>8}{:>7.0}{:>8}",
            shard,
            qps,
            frames(&sec),
            counter(&sec, "predictions"),
            counter(&sec, "sessions.opened"),
            latency(&sec, "p50"),
            latency(&sec, "p99"),
            latency(&sec, "p999"),
            queue,
            errors(&sec),
        );
        shard += 1;
    }
    println!(
        "{:<7}{:>9.1}{:>10}{:>12}{:>9}{:>8}{:>8}{:>8}{:>7.0}{:>8}",
        "total",
        qps_sum,
        frames("total"),
        counter("total", "predictions"),
        counter("total", "sessions.opened"),
        latency("total", "p50"),
        latency("total", "p99"),
        latency("total", "p999"),
        queue_sum,
        errors("total"),
    );
}

/// Frame kinds as named in the shard metrics registries.
const FRAME_NAMES: [&str; 6] = ["hello", "predict", "update", "batch", "stats", "migrate"];

/// Renders one router metrics snapshot as the `ntp top --cluster`
/// table: the `route.*` counters up top, one row per backend below
/// (cumulative plus the rolling-window rate and latency percentiles).
fn print_cluster_top(addr: &str, snap: &Json) {
    let counter = |sec: &str, name: &str| {
        snap.get(sec)
            .and_then(|s| s.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let gauge = |sec: &str, name: &str| {
        snap.get(sec)
            .and_then(|s| s.get("gauges"))
            .and_then(|g| g.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let latency = |sec: &str, field: &str| {
        snap.get(sec)
            .and_then(|s| s.get("histograms"))
            .and_then(|h| h.get("latency_us"))
            .and_then(|h| h.get(field))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };

    println!(
        "ntp route — {addr}  up {:.0}s  sessions {}  forwarded {}  \
         migrations {}  failovers {}  errors {}  lost {}  restored {}  \
         conns {} (refused {})",
        gauge("router", "uptime_s"),
        counter("router", "route.sessions"),
        counter("router", "route.forwarded"),
        counter("router", "route.migrations"),
        counter("router", "route.failovers"),
        counter("router", "route.errors"),
        counter("router", "route.sessions_lost"),
        counter("router", "route.sessions_restored"),
        counter("router", "conns.accepted"),
        counter("router", "conns.refused"),
    );
    println!(
        "{:<9}{:>7}{:>9}{:>11}{:>9}{:>8}{:>8}{:>8}",
        "backend", "alive", "qps", "forwarded", "errors", "p50us", "p99us", "p999us"
    );
    let mut k = 0usize;
    loop {
        let sec = format!("backend{k}");
        if snap.get(&sec).is_none() {
            break;
        }
        let wsec = format!("{sec}.window");
        let qps = counter(&wsec, "forwarded") as f64 / counter(&wsec, "epochs").max(1) as f64;
        println!(
            "{:<9}{:>7}{:>9.1}{:>11}{:>9}{:>8}{:>8}{:>8}",
            k,
            if counter(&sec, "alive") == 1 {
                "yes"
            } else {
                "no"
            },
            qps,
            counter(&sec, "forwarded"),
            counter(&sec, "errors"),
            latency(&sec, "p50"),
            latency(&sec, "p99"),
            latency(&sec, "p999"),
        );
        k += 1;
    }
}

/// Scans for `<name> <value>` as a positive finite float.
fn flag_float(rest: &[String], name: &str) -> Result<Option<f64>, String> {
    let Some(text) = flag_str(rest, name) else {
        return Ok(None);
    };
    let v: f64 = text
        .parse()
        .map_err(|_| format!("{name} expects a number, got `{text}`"))?;
    if !v.is_finite() || v <= 0.0 {
        return Err(format!("{name} must be a positive number"));
    }
    Ok(Some(v))
}

/// `ntp loadgen`: replays the captured benchmark suite as concurrent
/// wire sessions against a running `ntp serve`, then checks every
/// session's served statistics against the offline oracle **exactly**
/// (see SERVING.md). Exit status is nonzero on any divergence, so this
/// doubles as the serving gate in `scripts/check.sh`. Records come from
/// the same persistent trace cache as `ntp capture`, so a pre-warmed
/// cache makes this simulation-free.
///
/// With `--open-loop` the generator switches from closed-loop replay to
/// a fixed-rate arrival schedule with Zipf session popularity: requests
/// go out on schedule whether or not earlier replies are back, `Busy`
/// replies are shed (not retried), and latency is measured from the
/// *scheduled* send time — so queueing delay under overload shows up in
/// p99/p99.9 instead of being coordinated away.
fn cmd_loadgen(rest: &[String]) -> Result<(), String> {
    let mut cfg = ntp_serve::LoadgenConfig::default();
    if let Some(addr) = flag_str(rest, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(clients) = flag_value(rest, "--clients")? {
        cfg.clients = clients as usize;
    }
    if let Some(chunk) = flag_value(rest, "--chunk")? {
        cfg.chunk = chunk as usize;
    }
    if let Some(bits) = flag_value(rest, "--bits")? {
        cfg.bits = bits as u32;
    }
    if let Some(depth) = flag_value(rest, "--depth")? {
        cfg.depth = depth as u32;
    }
    let sessions = flag_value(rest, "--sessions")?.unwrap_or(4) as usize;
    if sessions == 0 {
        return Err("--sessions must be at least 1".to_string());
    }
    // Reject a hostile design point before the (expensive) suite capture.
    PredictorConfig::try_paper(cfg.bits, cfg.depth as usize)
        .map_err(|e| format!("paper({},{}): {e}", cfg.bits, cfg.depth))?;

    // One stream per benchmark, cycled until `--sessions` are filled.
    let data = ntp_bench::capture_suite_in(ntp_tracefile::cache_dir_from_env().as_deref());
    let specs: Vec<ntp_serve::SessionSpec> = (0..sessions)
        .map(|i| {
            let d = &data[i % data.len()];
            ntp_serve::SessionSpec {
                name: format!("{}#{}", d.name, i),
                records: d.records.clone(),
            }
        })
        .collect();

    if rest.iter().any(|a| a == "--open-loop") {
        return loadgen_open_loop(rest, &cfg, &specs);
    }

    let report = ntp_serve::loadgen::run(&cfg, &specs).map_err(|e| e.to_string())?;

    if rest.iter().any(|a| a == "--shutdown") {
        let mut client =
            ntp_serve::Client::connect(&cfg.addr).map_err(|e| format!("shutdown: {e}"))?;
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
    }

    match flag_str(rest, "--json") {
        Some("-") => println!("{}", report.to_json().pretty()),
        Some(path) => {
            let mut text = report.to_json().pretty();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[json] wrote {path}");
        }
        None => {}
    }

    for s in &report.sessions {
        println!(
            "{:<14} shard {}  {:>8} records  {:>6.2}% mispredict  oracle {}",
            s.name,
            s.shard,
            s.served.predictions,
            s.served.mispredict_pct(),
            if s.matches() { "match" } else { "MISMATCH" }
        );
    }
    println!(
        "[loadgen] {} sessions, {} requests, {} records in {:.1} ms: \
         {:.0} req/s, {:.0} records/s, latency p50 {} us p99 {} us \
         p99.9 {} us max {} us, {} busy retries",
        report.sessions.len(),
        report.requests,
        report.records,
        report.wall.as_secs_f64() * 1e3,
        report.qps(),
        report.records_per_sec(),
        report.latency_us.p50(),
        report.latency_us.p99(),
        report.latency_us.p999(),
        report.latency_us.max(),
        report.busy_retries
    );
    if !report.drain_batched.is_empty() {
        let total: u64 = report.drain_batched.iter().sum();
        let per: Vec<String> = report
            .drain_batched
            .iter()
            .enumerate()
            .map(|(k, n)| format!("shard {k}: {n}"))
            .collect();
        println!(
            "[loadgen] {} requests resolved via batched drains ({})",
            total,
            per.join(", ")
        );
    }
    if report.all_match() {
        println!("[loadgen] served == offline oracle for every session");
        Ok(())
    } else {
        let bad = report.sessions.iter().filter(|s| !s.matches()).count();
        Err(format!(
            "{bad} session(s) diverged from the offline oracle (served != evaluate)"
        ))
    }
}

/// The `--open-loop` arm of `ntp loadgen`: fixed-rate Zipf schedule,
/// shed `Busy` replies, scheduled-send-time latency, exact oracle check
/// over the applied subsequence.
fn loadgen_open_loop(
    rest: &[String],
    cfg: &ntp_serve::LoadgenConfig,
    specs: &[ntp_serve::SessionSpec],
) -> Result<(), String> {
    let mut ocfg = ntp_serve::OpenLoopConfig {
        addr: cfg.addr.clone(),
        conns: cfg.clients,
        bits: cfg.bits,
        depth: cfg.depth,
        ..ntp_serve::OpenLoopConfig::default()
    };
    if let Some(rate) = flag_float(rest, "--rate")? {
        ocfg.rate = rate;
    }
    if let Some(duration) = flag_seconds(rest, "--duration")? {
        ocfg.duration = duration;
    }
    if let Some(zipf) = flag_float(rest, "--zipf")? {
        ocfg.zipf = zipf;
    }
    ocfg.seed = flag_seed(rest, "--seed", ocfg.seed)?;

    let report = ntp_serve::run_open_loop(&ocfg, specs).map_err(|e| e.to_string())?;

    if rest.iter().any(|a| a == "--shutdown") {
        let mut client =
            ntp_serve::Client::connect(&ocfg.addr).map_err(|e| format!("shutdown: {e}"))?;
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
    }

    match flag_str(rest, "--json") {
        Some("-") => println!("{}", report.to_json().pretty()),
        Some(path) => {
            let mut text = report.to_json().pretty();
            text.push('\n');
            std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("[json] wrote {path}");
        }
        None => {}
    }

    for s in &report.sessions {
        println!(
            "{:<14} shard {}  {:>8} sent  {:>8} applied  {:>7} busy  oracle {}",
            s.name,
            s.shard,
            s.sent,
            s.applied,
            s.busy,
            if s.matches() { "match" } else { "MISMATCH" }
        );
    }
    println!(
        "[loadgen] open loop: offered {} ({:.0}/s over {:.1}s, zipf {}, seed {:#x}), \
         applied {} ({:.0}/s achieved), {} busy, {} late sends",
        report.offered,
        report.offered_qps(),
        ocfg.duration.as_secs_f64(),
        ocfg.zipf,
        ocfg.seed,
        report.applied,
        report.achieved_qps(),
        report.busy,
        report.late
    );
    println!(
        "[loadgen] sojourn latency p50 {} us p99 {} us p99.9 {} us max {} us \
         (schedule digest {:016x})",
        report.latency_us.p50(),
        report.latency_us.p99(),
        report.latency_us.p999(),
        report.latency_us.max(),
        report.schedule_digest
    );
    if report.all_match() {
        println!("[loadgen] served == lockstep oracle over the applied subsequence");
        Ok(())
    } else {
        let bad = report.sessions.iter().filter(|s| !s.matches()).count();
        Err(format!(
            "{bad} session(s) diverged from the lockstep oracle under open loop"
        ))
    }
}

fn cmd_workloads() -> Result<(), String> {
    for w in ntp_workloads::suite(ntp_workloads::ScalePreset::Tiny) {
        println!("{:<10}{}", w.name, w.analog_of);
    }
    println!("\nuse as `ntp predict @<name>`");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ntp report @compress --json -` round-trips through the JSON
    /// parser: the pretty-printed report re-parses into the same values.
    #[test]
    fn report_json_round_trips_through_parser() {
        let report = build_report("@compress", 300_000, 15, 7).expect("report builds");
        let text = report.to_json().pretty();
        let parsed = ntp_telemetry::json::parse(&text).expect("report parses");
        let icount = parsed
            .get("capture")
            .and_then(|c| c.get("icount"))
            .and_then(Json::as_u64)
            .expect("capture.icount present");
        assert!(icount > 0);
        for key in [
            "manifest",
            "phases_ms",
            "capture",
            "trace_stats",
            "predictor",
            "mispredict_streaks",
            "engine",
        ] {
            assert!(parsed.get(key).is_some(), "missing section {key}");
        }
        assert!(parsed
            .get("predictor")
            .and_then(|p| p.get("stats"))
            .and_then(|s| s.get("mispredict_pct"))
            .and_then(Json::as_f64)
            .is_some());
    }

    #[test]
    fn flag_str_finds_values() {
        let args: Vec<String> = ["x", "--json", "-", "--budget", "5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_str(&args, "--json"), Some("-"));
        assert_eq!(flag_str(&args, "--budget"), Some("5"));
        assert_eq!(flag_str(&args, "--depth"), None);
    }
}
