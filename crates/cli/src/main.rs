//! `ntp` — the command-line front end to the toolchain.
//!
//! `ntp help` prints one usage line per subcommand ([`usage`]). Each line
//! is also the grammar that subcommand's arguments are checked against
//! before it runs, so an argument the line does not list is refused.

use ntp_core::{
    evaluate, evaluate_with_streaks, predictor_section, NextTracePredictor, PredictorConfig,
};
use ntp_engine::{DelayedUpdateEngine, EngineConfig};
use ntp_isa::{asm::assemble, disasm, Program, IMAGE_MAGIC};
use ntp_sim::Machine;
use ntp_telemetry::{
    Histogram, Json, PhaseTimes, Report, RunManifest, ScopeTimer, Snapshot, ToJson,
};
use ntp_trace::{run_traces, TraceConfig, TraceRecord, TraceStats};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

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
    let Some(first) = args.first() else {
        return Err(usage());
    };
    if matches!(first.as_str(), "help" | "--help" | "-h") {
        println!("{}", usage());
        return Ok(());
    }
    // `snapshot` names its subcommand in a second word.
    let (name, rest) = match args.get(1) {
        Some(sub) if first == "snapshot" && !sub.starts_with('-') => {
            (format!("snapshot {sub}"), &args[2..])
        }
        _ => (first.clone(), &args[1..]),
    };
    let Some(&(_, cmd)) = COMMANDS.iter().find(|c| c.0 == name) else {
        if name != "snapshot" {
            return Err(format!("unknown command `{name}`\n{}", usage()));
        }
        if !rest.iter().any(|a| a == "--help" || a == "-h") {
            return Err(format!("snapshot needs `save` or `verify`\n{}", usage()));
        }
        for line in usage().lines().filter(|l| l.contains("ntp snapshot ")) {
            println!("usage: {}", line.trim());
        }
        return Ok(());
    };
    let line = usage_line(&name);
    match Args::parse(&name, &line, rest)? {
        Some(args) => cmd(&args),
        None => {
            println!("usage: {line}");
            Ok(())
        }
    }
}

type Cmd = fn(&Args) -> Result<(), String>;

/// Every subcommand's entry point, by the words that follow `ntp`.
const COMMANDS: &[(&str, Cmd)] = &[
    ("asm", cmd_asm),
    ("dis", cmd_dis),
    ("run", cmd_run),
    ("predict", cmd_predict),
    ("trace", cmd_trace),
    ("report", cmd_report),
    ("verify", cmd_verify),
    ("capture", cmd_capture),
    ("snapshot save", snapshot_save),
    ("snapshot verify", snapshot_verify),
    ("serve", cmd_serve),
    ("route", cmd_route),
    ("loadgen", cmd_loadgen),
    ("top", cmd_top),
    ("workloads", cmd_workloads),
];

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
     [--warm <file.nts|dir>] [--snapshot-on-drain <dir>] [--snapshot-interval S]\n  \
     ntp route --backends a1,a2[,...] [--addr host:port] \
     [--snapshot-dirs d1,d2[,...]] [--vnodes N] [--probe-interval S] \
     [--max-conns N] [--migrate session:<to|next>:after]\n  \
     ntp loadgen [--addr host:port] [--sessions N] [--clients N] \
     [--bits B] [--depth D] [--shutdown] [--json <path|->] \
     [--rate R] [--duration S] [--zipf Z] [--seed S]\n  \
     ntp top [--addr host:port] [--interval S] [--once] [--json] [--shutdown]\n  \
     ntp workloads"
        .to_string()
}

/// The [`usage`] line of `ntp <name>`. The line is also the grammar
/// [`Args::parse`] checks: a leading `<input>` for a command that takes
/// one, `[--flag X]` (or `-o <out>`) for a flag followed by a value, and
/// `[--flag]` for a bare flag.
fn usage_line(name: &str) -> String {
    let head = format!("ntp {name}");
    usage()
        .lines()
        .map(str::trim)
        .find(|l| {
            l.strip_prefix(&head)
                .is_some_and(|r| r.is_empty() || r.starts_with(' '))
        })
        .unwrap_or_default()
        .to_string()
}

/// How `grammar` lists `arg`: `Some(true)` for a flag followed by a value,
/// `Some(false)` for a bare flag, `None` when it lists no such flag.
fn flag_kind(grammar: &str, arg: &str) -> Option<bool> {
    grammar.split_whitespace().find_map(|word| {
        let word = word.trim_start_matches('[');
        let flag = word.trim_end_matches(']');
        (flag.starts_with('-') && flag == arg).then_some(flag.len() == word.len())
    })
}

/// A subcommand's arguments, checked against its usage line.
struct Args<'a> {
    /// The subcommand, which prefixes every flag-value diagnostic.
    cmd: &'a str,
    /// The positional input; empty for a command that takes none.
    input: &'a str,
    /// Each flag given, with its value unless it is bare.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Checks `rest` against the usage line of `ntp <name>` once, before
    /// the subcommand runs: every flag must be one the line lists, a value
    /// flag must have its value, and only a command with an input takes one
    /// positional argument. `Ok(None)` means `--help` or `-h` asked for the
    /// usage line instead.
    fn parse(name: &'a str, line: &str, rest: &'a [String]) -> Result<Option<Args<'a>>, String> {
        if rest.iter().any(|a| a == "--help" || a == "-h") {
            return Ok(None);
        }
        let refuse = |what: String| format!("{name}: {what} (usage: {line})");
        let grammar = line.trim_start_matches(&format!("ntp {name}")).trim_start();
        let takes_input = grammar.starts_with('<');
        let (mut input, mut flags) = (None, Vec::new());
        let mut args = rest.iter().map(String::as_str);
        while let Some(a) = args.next() {
            match flag_kind(grammar, a) {
                Some(true) => match args.next() {
                    Some(v) => flags.push((a, Some(v))),
                    None => return Err(refuse(format!("{a} expects a value"))),
                },
                Some(false) => flags.push((a, None)),
                None if takes_input && input.is_none() && !a.starts_with('-') => input = Some(a),
                None => return Err(refuse(format!("unknown argument `{a}`"))),
            }
        }
        if takes_input && input.is_none() {
            return Err(refuse("missing input file".to_string()));
        }
        Ok(Some(Args {
            cmd: name,
            input: input.unwrap_or_default(),
            flags,
        }))
    }

    /// Whether the bare flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|&(f, _)| f == name)
    }

    /// The value of `name`, verbatim.
    fn flag_str(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|&&(f, _)| f == name)?.1
    }

    /// The value of `name` as a whole number.
    fn flag_value(&self, name: &str) -> Result<Option<u64>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("{}: {name} expects a number, got `{v}`", self.cmd))
        };
        self.flag_str(name).map(parse).transpose()
    }

    /// The value of `name` as a positive, finite number.
    fn flag_float(&self, name: &str) -> Result<Option<f64>, String> {
        let Some(text) = self.flag_str(name) else {
            return Ok(None);
        };
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() && v > 0.0 => Ok(Some(v)),
            _ => Err(format!(
                "{}: {name} expects a positive number, got `{text}`",
                self.cmd
            )),
        }
    }

    /// The value of `name` as a positive number of seconds that a
    /// [`Duration`] can hold.
    fn flag_seconds(&self, name: &str) -> Result<Option<Duration>, String> {
        let Some(secs) = self.flag_float(name)? else {
            return Ok(None);
        };
        Duration::try_from_secs_f64(secs)
            .map(Some)
            .map_err(|_| format!("{}: {name} is out of range, got `{secs:e}`", self.cmd))
    }

    /// The value of `name` in decimal or `0x`-prefixed hex.
    fn flag_seed(&self, name: &str, default: u64) -> Result<u64, String> {
        let Some(text) = self.flag_str(name) else {
            return Ok(default);
        };
        let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16),
            None => text.parse(),
        };
        parsed.map_err(|_| {
            format!(
                "{}: {name} expects a decimal or 0x-hex number, got `{text}`",
                self.cmd
            )
        })
    }
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

fn cmd_asm(args: &Args) -> Result<(), String> {
    let input = args.input;
    let out = args
        .flag_str("-o")
        .map(str::to_string)
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

fn cmd_dis(args: &Args) -> Result<(), String> {
    let program = load(args.input)?;
    print!(
        "{}",
        disasm::disassemble_block(&program.encode_text(), program.text_base)
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let program = load(args.input)?;
    let budget = args.flag_value("--budget")?.unwrap_or(100_000_000);
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

fn cmd_predict(args: &Args) -> Result<(), String> {
    let program = load(args.input)?;
    let budget = args.flag_value("--budget")?.unwrap_or(10_000_000);
    let depth = args.flag_value("--depth")?.unwrap_or(7) as usize;
    let bits = args.flag_value("--bits")?.unwrap_or(15) as u32;

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

fn cmd_trace(args: &Args) -> Result<(), String> {
    let program = load(args.input)?;
    let budget = args.flag_value("--budget")?.unwrap_or(100_000);
    let limit = args.flag_value("--limit")?.unwrap_or(64) as usize;
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
        Replay(Box<(NextTracePredictor, ntp_core::PredictorStats, Histogram)>),
        Engine(ntp_engine::EngineStats),
    }
    let passes = ntp_runner::map_ordered(&[0usize, 1], |_, &k| {
        let t0 = std::time::Instant::now();
        let pass = if k == 0 {
            let mut predictor = NextTracePredictor::new(cfg);
            let (pstats, streaks) = evaluate_with_streaks(&mut predictor, &records);
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

fn cmd_report(args: &Args) -> Result<(), String> {
    let input = args.input;
    let budget = args.flag_value("--budget")?.unwrap_or(10_000_000);
    let depth = args.flag_value("--depth")?.unwrap_or(7) as usize;
    let bits = args.flag_value("--bits")?.unwrap_or(15) as u32;
    let report = build_report(input, budget, bits, depth)?;

    match args.flag_str("--json") {
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

/// `ntp verify`: the differential-testing and fault-injection sweep
/// (see VERIFICATION.md). Exit status is nonzero when any oracle reports a
/// divergence, so this doubles as a CI gate — `scripts/check.sh` pins
/// `--seed 0xC0FFEE`.
fn cmd_verify(args: &Args) -> Result<(), String> {
    let seed = args.flag_seed("--seed", 0xC0FFEE)?;
    let points = args.flag_value("--points")?.unwrap_or(64) as usize;
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
fn cmd_capture(args: &Args) -> Result<(), String> {
    let dir = args
        .flag_str("--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            ntp_tracefile::cache_dir_from_env()
                .unwrap_or_else(|| PathBuf::from(ntp_tracefile::DEFAULT_CACHE_DIR))
        });
    if args.has("--verify") {
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

/// `ntp snapshot save` and `ntp snapshot verify`: `.nts` predictor-state
/// snapshots (see SERVING.md, "Predictor state snapshots").
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
/// Both print the canonical per-session JSON rendered here: stats plus
/// occupancy of the *instantiated* predictor, so a verify after a save
/// re-derives every number from the decoded state, and diffing `save
/// --json` against a later `verify --json` proves the on-disk round trip
/// preserved stats and table state.
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
fn snapshot_report(args: &Args, artifact: &ntp_tracefile::SnapshotArtifact) -> Result<(), String> {
    let j = snapshot_json(artifact)?;
    match args.flag_str("--json") {
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
fn snapshot_save(args: &Args) -> Result<(), String> {
    let input = args.input;
    let out = args
        .flag_str("-o")
        .map(PathBuf::from)
        .ok_or_else(|| format!("snapshot save needs -o <out.nts>\n{}", usage()))?;
    let budget = args.flag_value("--budget")?.unwrap_or(10_000_000);
    let depth = args.flag_value("--depth")?.unwrap_or(7) as usize;
    let bits = args.flag_value("--bits")?.unwrap_or(15) as u32;
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
    snapshot_report(args, &artifact)
}

/// `ntp snapshot verify`: decode, rebuild, report — nonzero on refusal.
fn snapshot_verify(args: &Args) -> Result<(), String> {
    let input = args.input;
    let (artifact, bytes) =
        ntp_tracefile::read_snapshot_file(Path::new(input)).map_err(|e| format!("{input}: {e}"))?;
    eprintln!(
        "[snapshot] {input}: {} session(s), {bytes} bytes, all states restore",
        artifact.sessions.len()
    );
    snapshot_report(args, &artifact)
}

/// `ntp serve`: runs the sharded prediction service until a client sends
/// a `Shutdown` frame (see SERVING.md). Each flag overrides one
/// [`ntp_serve::ServeConfig`] default, and the server validates the
/// result once before it binds. The bound address is printed on
/// stdout — with `--addr 127.0.0.1:0` the kernel picks the port, so
/// scripts parse that line to find it; a running server is read with
/// `ntp top`. `--warm` preloads sessions from
/// a `.nts` snapshot (file or directory); `--snapshot-on-drain` writes
/// one `shard<k>.nts` per shard at graceful shutdown, and
/// `--snapshot-interval` additionally rewrites them every S seconds
/// while serving (bounding what a hard failure can lose). SIGTERM
/// drains gracefully, same as a client `Shutdown` frame.
fn cmd_serve(args: &Args) -> Result<(), String> {
    let mut cfg = ntp_serve::ServeConfig::default();
    if let Some(addr) = args.flag_str("--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(workers) = args.flag_value("--workers")? {
        cfg.workers = workers as usize;
    }
    if let Some(max_conns) = args.flag_value("--max-conns")? {
        cfg.max_conns = max_conns as usize;
    }
    if let Some(threads) = args.flag_value("--event-threads")? {
        // The epoll loops own every connection, so at least one must
        // run: `serve` refuses 0 with a one-line diagnostic.
        cfg.event_threads = threads as usize;
    }
    if let Some(depth) = args.flag_value("--queue-depth")? {
        cfg.queue_depth = depth as usize;
    }
    if let Some(warm) = args.flag_str("--warm") {
        cfg.warm_path = Some(PathBuf::from(warm));
    }
    if let Some(dir) = args.flag_str("--snapshot-on-drain") {
        cfg.snapshot_dir = Some(PathBuf::from(dir));
    }
    if let Some(interval) = args.flag_seconds("--snapshot-interval")? {
        cfg.snapshot_interval = Some(interval);
    }
    let handle = ntp_serve::serve(cfg.clone()).map_err(|e| e.to_string())?;
    println!(
        "[serve] listening on {} ({} workers, {} max conns)",
        handle.local_addr(),
        cfg.workers,
        cfg.max_conns
    );
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
                std::thread::sleep(Duration::from_millis(100));
            });
    }
    let last = handle.join();
    let counter = |sec: &str, name: &str| counter_of(&last, sec, name);
    println!(
        "[serve] drained: {} sessions, {} requests, {} conns accepted, \
         {} refused, {} busy replies, {} protocol errors, {} resyncs, \
         {} read timeouts, {} sockopt errors, {} partial reads",
        counter("total", "sessions.opened"),
        ntp_serve::frame_count(&last, "total"),
        counter("server", "conns.accepted"),
        counter("server", "conns.refused"),
        counter("server", "busy.replies"),
        counter("server", "protocol.errors"),
        counter("server", "resyncs"),
        counter("server", "conn.read_timeouts"),
        counter("server", "conn.sockopt_errors"),
        counter("server", "conn.partial_reads")
    );
    for k in 0.. {
        let sec = format!("shard{k}");
        if last.get(&sec).is_none() {
            break;
        }
        println!(
            "[serve]   shard {k}: {} sessions, {} requests, {} predictions \
             ({} correct), {} errors, {} batched, {} coalesced, {} warmed, \
             {} snapshotted",
            counter(&sec, "sessions.opened"),
            ntp_serve::frame_count(&last, &sec),
            counter(&sec, "predictions"),
            counter(&sec, "predictions.correct"),
            ntp_serve::error_count(&last, &sec),
            counter(&sec, "drain.batched"),
            counter(&sec, "drain.coalesced"),
            counter(&sec, "sessions.warmed"),
            counter(&sec, "sessions.snapshotted")
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
fn cmd_route(args: &Args) -> Result<(), String> {
    let Some(backends) = args.flag_str("--backends") else {
        return Err(format!(
            "route: --backends a1,a2[,...] is required\n{}",
            usage()
        ));
    };
    let dirs: Vec<Option<PathBuf>> = match args.flag_str("--snapshot-dirs") {
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
    if let Some(addr) = args.flag_str("--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(vnodes) = args.flag_value("--vnodes")? {
        cfg.vnodes = vnodes as usize;
    }
    if let Some(interval) = args.flag_seconds("--probe-interval")? {
        cfg.probe_interval = interval;
    }
    if let Some(max_conns) = args.flag_value("--max-conns")? {
        cfg.max_conns = max_conns as usize;
    }
    if let Some(spec) = args.flag_str("--migrate") {
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
    let last = handle.join();
    let counter = |name: &str| counter_of(&last, "router", name);
    println!(
        "[route] drained: {} sessions, {} forwarded, {} migrations, \
         {} failovers, {} errors, {} sessions lost, {} restored",
        counter("route.sessions"),
        counter("route.forwarded"),
        counter("route.migrations"),
        counter("route.failovers"),
        counter("route.errors"),
        counter("route.sessions_lost"),
        counter("route.sessions_restored")
    );
    Ok(())
}

/// `ntp top`: a live view of a running server's per-shard runtime
/// metrics, polled over the `Metrics` frame (see SERVING.md). Each
/// poll's QPS is the [`ntp_serve::rate`] since the previous poll; the
/// first is measured against an empty snapshot at uptime 0, so it reads
/// the mean since start. With `--json` each poll prints the snapshot
/// instead of the table; `--once` polls a single time, and
/// `--shutdown` drains the server after the final poll. Pointed at an
/// `ntp route` process (a snapshot with a `router` section), it renders
/// the `route.*` counters and the per-backend forwarding/latency table.
fn cmd_top(args: &Args) -> Result<(), String> {
    let addr = args
        .flag_str("--addr")
        .unwrap_or(ntp_serve::config::DEFAULT_ADDR);
    let interval = args
        .flag_seconds("--interval")?
        .unwrap_or_else(|| Duration::from_secs(2));
    let once = args.has("--once");
    let as_json = args.has("--json");

    let mut client = ntp_serve::Client::connect(addr)
        .map_err(|e| format!("top: cannot connect to {addr}: {e}"))?;
    let mut prev = Snapshot::new();
    loop {
        let snap = client.metrics().map_err(|e| format!("top: {e}"))?;
        if as_json {
            println!("{}", snap.to_json().pretty());
        } else {
            if !once {
                // Repaint in place, like top(1).
                print!("\x1b[H\x1b[2J");
            }
            if snap.get("router").is_some() {
                print_cluster_top(addr, &prev, &snap);
            } else {
                print_top(addr, &prev, &snap);
            }
        }
        if once {
            break;
        }
        prev = snap;
        std::thread::sleep(interval);
    }
    if args.has("--shutdown") {
        client
            .shutdown_server()
            .map_err(|e| format!("top: shutdown: {e}"))?;
    }
    Ok(())
}

/// A counter of one snapshot section, 0 when either is absent.
fn counter_of(snap: &Snapshot, section: &str, name: &str) -> u64 {
    snap.get(section)
        .and_then(|m| m.counter_by_name(name))
        .unwrap_or(0)
}

/// Renders one metrics snapshot as the `ntp top` table; `prev` is the
/// previous poll's snapshot, which the QPS column is measured from.
fn print_top(addr: &str, prev: &Snapshot, snap: &Snapshot) {
    let counter = |sec: &str, name: &str| counter_of(snap, sec, name);
    let gauge = |sec: &str, name: &str| {
        snap.get(sec)
            .and_then(|m| m.gauge_by_name(name))
            .unwrap_or(0.0)
    };
    let latency = |sec: &str, quantile: fn(&Histogram) -> u64| {
        snap.get(sec)
            .and_then(|m| m.histogram_by_name("latency_us.all"))
            .map_or(0, quantile)
    };
    let qps = |sec: &str| ntp_serve::rate(prev, snap, "server", |s| ntp_serve::frame_count(s, sec));

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
    let mut queue_sum = 0.0f64;
    let row = |name: &str, sec: &str, queue: f64| {
        println!(
            "{:<7}{:>9.1}{:>10}{:>12}{:>9}{:>8}{:>8}{:>8}{:>7.0}{:>8}",
            name,
            qps(sec),
            ntp_serve::frame_count(snap, sec),
            counter(sec, "predictions"),
            counter(sec, "sessions.opened"),
            latency(sec, Histogram::p50),
            latency(sec, Histogram::p99),
            latency(sec, Histogram::p999),
            queue,
            ntp_serve::error_count(snap, sec),
        );
    };
    for shard in 0.. {
        let sec = format!("shard{shard}");
        if snap.get(&sec).is_none() {
            break;
        }
        let queue = gauge(&sec, "queue.depth");
        queue_sum += queue;
        row(&shard.to_string(), &sec, queue);
    }
    row("total", "total", queue_sum);
}

/// Renders one router metrics snapshot as the cluster `ntp top`
/// table: the `route.*` counters up top, one row per backend below
/// (its QPS since `prev`, the previous poll's snapshot, then cumulative
/// counts and latency percentiles).
fn print_cluster_top(addr: &str, prev: &Snapshot, snap: &Snapshot) {
    let counter = |sec: &str, name: &str| counter_of(snap, sec, name);
    let latency = |sec: &str, quantile: fn(&Histogram) -> u64| {
        snap.get(sec)
            .and_then(|m| m.histogram_by_name("latency_us"))
            .map_or(0, quantile)
    };

    println!(
        "ntp route — {addr}  up {:.0}s  sessions {}  forwarded {}  \
         migrations {}  failovers {}  errors {}  lost {}  restored {}  \
         conns {} (refused {})",
        snap.get("router")
            .and_then(|m| m.gauge_by_name("uptime_s"))
            .unwrap_or(0.0),
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
    for k in 0.. {
        let sec = format!("backend{k}");
        if snap.get(&sec).is_none() {
            break;
        }
        println!(
            "{:<9}{:>7}{:>9.1}{:>11}{:>9}{:>8}{:>8}{:>8}",
            k,
            if counter(&sec, "alive") == 1 {
                "yes"
            } else {
                "no"
            },
            ntp_serve::rate(prev, snap, "router", |s| counter_of(s, &sec, "forwarded")),
            counter(&sec, "forwarded"),
            counter(&sec, "errors"),
            latency(&sec, Histogram::p50),
            latency(&sec, Histogram::p99),
            latency(&sec, Histogram::p999),
        );
    }
}

/// `ntp loadgen`: offers the captured benchmark suite as concurrent wire
/// sessions to a running `ntp serve` (or `ntp route`) on a fixed-rate
/// arrival schedule with Zipf session popularity: requests go out on
/// schedule whether or not earlier replies are back, `Busy` replies are
/// shed (not retried), and latency is measured from the *scheduled* send
/// time, so queueing delay under overload shows up in p99/p99.9. Every
/// reply is scored against a lockstep oracle over the applied
/// subsequence, and each session's served statistics must equal it
/// **exactly** (see SERVING.md); the exit status is nonzero on any
/// divergence, so this doubles as the serving gate in `scripts/check.sh`.
/// Records come from the same persistent trace cache as `ntp capture`,
/// so a pre-warmed cache makes this simulation-free.
fn cmd_loadgen(args: &Args) -> Result<(), String> {
    let mut cfg = ntp_serve::OpenLoopConfig::default();
    if let Some(addr) = args.flag_str("--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(clients) = args.flag_value("--clients")? {
        cfg.conns = clients as usize;
    }
    if let Some(bits) = args.flag_value("--bits")? {
        cfg.bits = bits as u32;
    }
    if let Some(depth) = args.flag_value("--depth")? {
        cfg.depth = depth as u32;
    }
    if let Some(rate) = args.flag_float("--rate")? {
        cfg.rate = rate;
    }
    if let Some(duration) = args.flag_seconds("--duration")? {
        cfg.duration = duration;
    }
    if let Some(zipf) = args.flag_float("--zipf")? {
        cfg.zipf = zipf;
    }
    cfg.seed = args.flag_seed("--seed", cfg.seed)?;
    let sessions = args.flag_value("--sessions")?.unwrap_or(4) as usize;
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

    let report = ntp_serve::run_open_loop(&cfg, &specs).map_err(|e| e.to_string())?;

    if args.has("--shutdown") {
        let mut client =
            ntp_serve::Client::connect(&cfg.addr).map_err(|e| format!("shutdown: {e}"))?;
        client
            .shutdown_server()
            .map_err(|e| format!("shutdown: {e}"))?;
    }

    match args.flag_str("--json") {
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
        "[loadgen] offered {} ({:.0}/s over {:.1}s, zipf {}, seed {:#x}), \
         applied {} ({:.0}/s achieved), {} busy, {} late sends",
        report.offered,
        report.offered_qps(),
        cfg.duration.as_secs_f64(),
        cfg.zipf,
        cfg.seed,
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
            "{bad} session(s) diverged from the lockstep oracle (served != evaluate)"
        ))
    }
}

fn cmd_workloads(_: &Args) -> Result<(), String> {
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
        let args = Args::parse("report", &usage_line("report"), &args)
            .expect("report accepts these")
            .expect("no --help");
        assert_eq!(args.input, "x");
        assert_eq!(args.flag_str("--json"), Some("-"));
        assert_eq!(args.flag_str("--budget"), Some("5"));
        assert_eq!(args.flag_str("--depth"), None);
    }

    /// Each command's usage line says which flags take a value and which
    /// stand alone, and every command has one.
    #[test]
    fn usage_lines_are_the_grammar() {
        for &(name, _) in COMMANDS {
            assert!(
                usage_line(name).starts_with(&format!("ntp {name}")),
                "{name}"
            );
        }
        let kind = |name, flag| flag_kind(&usage_line(name), flag);
        assert_eq!(kind("report", "--json"), Some(true));
        assert_eq!(kind("top", "--json"), Some(false));
        assert_eq!(kind("snapshot save", "-o"), Some(true));
        assert_eq!(kind("route", "--backends"), Some(true));
        assert_eq!(kind("loadgen", "--shutdown"), Some(false));
        assert_eq!(kind("loadgen", "--chunk"), None);
        assert_eq!(kind("verify", "--pionts"), None);
    }
}
