//! `BENCH_<name>.json` assembly and the shared `--json` pass every
//! experiment binary runs after printing its text section.
//!
//! One report per benchmark bundles the capture-pass statistics (Tables 1
//! and 2 inputs), a full predictor replay at the headline design point
//! (accuracy, aliasing, occupancy, misprediction-streak histogram), the
//! delayed-update engine and fetch-engine runs, a metrics registry with
//! trace-shape histograms, and wall-clock phase timings. The schema is
//! documented in OBSERVABILITY.md at the repo root.
//!
//! Determinism: everything except the `"phases_ms"` and `"throughput"`
//! sections (and the manifest's volatile fields) is a pure function of the
//! captured records, so two runs of the same workload agree byte-for-byte
//! after [`Report::strip_volatile`].

use crate::BenchData;
use ntp_core::{evaluate_with_streaks, predictor_section, NextTracePredictor, PredictorConfig};
use ntp_engine::{DelayedUpdateEngine, EngineConfig, FetchConfig, FetchEngine};
use ntp_telemetry::{per_second, Json, MetricsRegistry, Report, RunManifest, ScopeTimer, ToJson};
use std::path::{Path, PathBuf};

/// The design point every report replays: `paper(15, 7)` — the
/// 2^15-entry, depth-7 configuration the paper's headline numbers use.
pub const REPORT_INDEX_BITS: u32 = 15;
/// History depth of the report's design point.
pub const REPORT_DEPTH: usize = 7;

/// Builds the full telemetry report for one captured benchmark.
pub fn bench_report(d: &BenchData) -> Report {
    let scale = crate::scale_from_env();
    let budget = crate::budget_from_env();
    let predictor_desc = format!("paper({REPORT_INDEX_BITS},{REPORT_DEPTH})");
    let mut report = Report::new(RunManifest::capture(
        d.name,
        scale.name(),
        budget,
        &predictor_desc,
    ));
    report.phases_mut().merge(&d.phases);

    // Capture-pass identity and Table-1/Table-2 inputs.
    report.section(
        "capture",
        Json::object()
            .with("analog_of", Json::Str(d.analog_of.to_string()))
            .with("icount", Json::U64(d.icount))
            .with("records", Json::U64(d.records.len() as u64)),
    );
    report.section("trace_stats", d.trace_stats.to_json());
    report.section("redundancy", d.redundancy.to_json());
    report.section("mix", d.mix.to_json());
    report.section(
        "baselines",
        Json::object()
            .with("sequential", d.seq_stats.to_json())
            .with("multibranch", d.mb_stats.to_json())
            .with("gag", d.gag_stats.to_json()),
    );

    // Trace-shape histograms through the metrics registry.
    let mut metrics = MetricsRegistry::new();
    let traces = metrics.counter("trace.count");
    let lens = metrics.histogram("trace.len");
    let branches = metrics.histogram("trace.branches");
    for r in &d.records {
        metrics.inc(traces);
        metrics.observe(lens, r.len as u64);
        metrics.observe(branches, r.branch_count as u64);
    }

    // Replay the headline predictor, timing the phase and collecting the
    // misprediction-streak histogram.
    let cfg = PredictorConfig::try_paper(REPORT_INDEX_BITS, REPORT_DEPTH).unwrap_or_else(|e| {
        panic!(
            "bench: headline design point paper({REPORT_INDEX_BITS},{REPORT_DEPTH}) rejected: {e}"
        )
    });
    let mut p = NextTracePredictor::try_new(cfg)
        .unwrap_or_else(|e| panic!("bench: headline predictor config rejected: {e}"));
    let (stats, streaks) = {
        let _t = ScopeTimer::new(report.phases_mut(), "replay");
        evaluate_with_streaks(&mut p, &d.records)
    };
    report.section("predictor", predictor_section(&p, &stats));
    report.section("mispredict_streaks", streaks.to_json());

    // Delayed-update engine (Table 4) and fetch engine, each timed.
    let engine_stats = {
        let _t = ScopeTimer::new(report.phases_mut(), "engine");
        DelayedUpdateEngine::new(NextTracePredictor::new(cfg), EngineConfig::default())
            .run(&d.records)
    };
    report.section("engine", engine_stats.to_json());

    let (fetch_stats, cache_stats) = {
        let _t = ScopeTimer::new(report.phases_mut(), "fetch");
        let mut fe = FetchEngine::new(NextTracePredictor::new(cfg), FetchConfig::default());
        let fs = fe.run(&d.records);
        let cs = fe.cache().stats();
        (fs, cs)
    };
    report.section(
        "fetch",
        Json::object()
            .with("stats", fetch_stats.to_json())
            .with("cache", cache_stats.to_json()),
    );

    report.section("metrics", metrics.to_json());

    // Wall-clock throughput gauges — volatile by construction, stripped by
    // determinism checks alongside phases_ms.
    let simulate = report.phases().get("simulate");
    let replay = report.phases().get("replay");
    let mut sections = Json::object();
    for t in crate::section_throughput() {
        sections = sections.with(&t.label, t.to_json());
    }
    report.section(
        "throughput",
        Json::object()
            .with(
                "simulate_instrs_per_sec",
                Json::F64(per_second(d.icount, simulate)),
            )
            .with(
                "replay_traces_per_sec",
                Json::F64(per_second(d.records.len() as u64, replay)),
            )
            .with("threads", Json::U64(ntp_runner::thread_count() as u64))
            .with("sections", sections)
            .with("trace_cache", ntp_tracefile::counters().to_json()),
    );
    report
}

/// The experiment binaries' whole command line: nothing, or `--json <dir>`
/// to also write `BENCH_<name>.json` reports into `<dir>`. Each binary
/// calls this first in `main`, before any capture; anything else, a bare
/// `--json` included, prints one usage line and exits with status 2.
pub fn json_request() -> Option<PathBuf> {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    match args.collect::<Vec<_>>().as_slice() {
        [] => None,
        [flag, dir] if flag == "--json" && !dir.starts_with('-') => Some(PathBuf::from(dir)),
        _ => {
            let name = Path::new(&bin).file_name().unwrap_or_default();
            eprintln!("usage: {} [--json <dir>]", name.to_string_lossy());
            std::process::exit(2)
        }
    }
}

/// Writes one `BENCH_<name>.json` per benchmark into `dir` (created if
/// missing). Returns the written paths.
pub fn write_reports(data: &[BenchData], dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(data.len());
    for d in data {
        let report = bench_report(d);
        let path = dir.join(format!("BENCH_{}.json", d.name));
        let mut text = report.to_json().pretty();
        text.push('\n');
        std::fs::write(&path, text)?;
        paths.push(path);
    }
    Ok(paths)
}

/// The shared tail of every data-driven experiment binary: if `--json`
/// asked for reports (`dir` from [`json_request`]), write them and say
/// where they went.
///
/// Exits the process with an error status if the reports cannot be
/// written (the run's numbers are already on stdout at that point).
pub fn emit_from_cli(data: &[BenchData], dir: Option<&Path>) {
    let Some(dir) = dir else {
        return;
    };
    match write_reports(data, dir) {
        Ok(paths) => {
            for p in &paths {
                eprintln!("[json] wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("[json] failed writing to {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

/// `--json` support for text-only binaries (table3, selection_study,
/// measure): wraps the rendered section in a minimal report.
pub fn emit_text_from_cli(name: &str, text: &str, dir: Option<&Path>) {
    let Some(dir) = dir else {
        return;
    };
    let scale = crate::scale_from_env();
    let mut report = Report::new(RunManifest::capture(
        name,
        scale.name(),
        crate::budget_from_env(),
        "n/a",
    ));
    report.section("text", Json::Str(text.to_string()));
    let path = dir.join(format!("BENCH_{name}.json"));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = report.to_json().pretty();
        out.push('\n');
        std::fs::write(&path, out)
    };
    match write() {
        Ok(()) => eprintln!("[json] wrote {}", path.display()),
        Err(e) => {
            eprintln!("[json] failed writing to {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture;

    fn tiny_data() -> BenchData {
        let w = ntp_workloads::compress::build(1);
        capture(&w, 300_000)
    }

    #[test]
    fn report_contains_required_sections_and_histograms() {
        let d = tiny_data();
        let j = bench_report(&d).to_json();
        for key in [
            "manifest",
            "phases_ms",
            "capture",
            "trace_stats",
            "redundancy",
            "mix",
            "baselines",
            "predictor",
            "mispredict_streaks",
            "engine",
            "fetch",
            "metrics",
            "throughput",
        ] {
            assert!(j.get(key).is_some(), "missing section {key}");
        }
        // ≥ 2 histograms: the streak histogram plus the registry's two.
        assert!(j
            .get("mispredict_streaks")
            .and_then(|h| h.get("buckets"))
            .is_some());
        let hists = j.get("metrics").and_then(|m| m.get("histograms")).unwrap();
        assert!(hists.get("trace.len").is_some());
        assert!(hists.get("trace.branches").is_some());
        // The capture phase made it into phases_ms.
        assert!(j.get("phases_ms").and_then(|p| p.get("simulate")).is_some());
        assert!(j.get("phases_ms").and_then(|p| p.get("replay")).is_some());
        // The trace-cache counters ride in the volatile throughput section.
        let cache = j
            .get("throughput")
            .and_then(|t| t.get("trace_cache"))
            .expect("throughput.trace_cache present");
        for key in ["hits", "misses", "invalid", "stores"] {
            assert!(cache.get(key).is_some(), "missing trace_cache.{key}");
        }
    }

    #[test]
    fn report_round_trips_through_parser() {
        let d = tiny_data();
        let text = bench_report(&d).to_json().pretty();
        let parsed = ntp_telemetry::json::parse(&text).expect("report parses");
        assert_eq!(
            parsed
                .get("capture")
                .and_then(|c| c.get("icount"))
                .and_then(Json::as_u64),
            Some(d.icount)
        );
    }

    #[test]
    fn two_reports_agree_after_stripping_volatiles() {
        let d = tiny_data();
        let mut a = bench_report(&d).to_json();
        let mut b = bench_report(&d).to_json();
        Report::strip_volatile(&mut a);
        Report::strip_volatile(&mut b);
        assert_eq!(a.render(), b.render());
    }
}
