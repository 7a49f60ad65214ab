//! The repository's benchmark: one command per workload that sets up,
//! runs for a fixed time, checks every output, and prints every metric
//! by name with its unit. The last line of standard output is one JSON
//! object; anything else goes before it or to standard error.
//!
//! ```text
//! perfbench --workload <offline-sweep|serve-burst|route-steady>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records
//! spans around the benchmark's calls into each layer and reports the
//! per-layer metrics instead. See `README.md` beside this crate.

mod offline;
mod refk;
mod serving;
mod stats;
mod sys;
mod tracer;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports each one.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer that a
/// workload does not pass through reports 0.
const PER_LAYER: [(&str, &str); 29] = [
    ("isa.assemble_ms", "ms"),
    ("sim.minstr_per_s", "Minstr/s"),
    ("trace.capture_minstr_per_s", "Minstr/s"),
    ("core.scalar_ns_per_record.b12", "ns"),
    ("core.scalar_ns_per_record.b15", "ns"),
    ("core.scalar_ns_per_record.b18", "ns"),
    ("core.batch_ns_per_record.b12", "ns"),
    ("core.batch_ns_per_record.b15", "ns"),
    ("core.batch_ns_per_record.b18", "ns"),
    ("core.batch_speedup", "x"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("event.frames_per_wakeup", "frames"),
    ("event.partial_reads_per_frame", "ratio"),
    ("server.busy_us_per_frame", "us"),
    ("server.busy_share", "ratio"),
    ("server.drain_batched_share", "ratio"),
    ("server.drain_coalesced_share", "ratio"),
    ("server.busy_rejections", "count"),
    ("router.backend_rtt_mean_us", "us"),
    ("router.hop_mean_us", "us"),
    ("router.backend_frame_share", "ratio"),
    ("router.errors", "count"),
    ("bench.send_lag_us.p50", "us"),
    ("bench.send_lag_us.p90", "us"),
    ("bench.sojourn_p99_us", "us"),
    ("bench.ref_mops", "Mops"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.failed_share", "ratio"),
];

/// The command line.
pub struct Args {
    workload: String,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad(&"expected 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds}: expected (0, 600]"));
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What one workload run produced.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: BTreeMap::new(),
        }
    }

    /// Records a metric; the name must be in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }
}

/// xorshift64: the benchmark's only source of randomness, seeded from
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // Spread small seeds over the state; xorshift must not start at 0.
        Rng((seed ^ 0x9E37_79B9_7F4A_7C15).wrapping_mul(0xBF58_476D_1CE4_E5B9) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    // Everything, servers included, shares one CPU: on a small virtual
    // machine a wakeup across CPUs costs tens of microseconds, and where
    // the scheduler happened to place each thread moved serving latency
    // by a fifth from run to run.
    let cpu = sys::pin_to_one_cpu()?;
    sys::single_malloc_arena()?;
    println!(
        "{}: seed {}, {} s, pinned to CPU {cpu}",
        args.workload, args.seed, args.seconds
    );
    let mut tr = tracer::Tracer::new(args.trace);
    let mut refs = refk::RefLog::new();
    let mut out = match args.workload.as_str() {
        "offline-sweep" => offline::run(args, &mut tr, &mut refs)?,
        "serve-burst" => serving::run(args, serving::SERVE_BURST, &mut tr, &mut refs)?,
        "route-steady" => serving::run(args, serving::ROUTE_STEADY, &mut tr, &mut refs)?,
        other => return Err(format!("unknown workload {other}")),
    };
    let rss = sys::peak_rss_mb()?;
    let mut ref_mops = refs.samples().to_vec();
    let ref_mops = stats::median(&mut ref_mops).expect("reference measured");
    println!(
        "  peak_rss_mb {rss:.1}; reference {ref_mops:.2} Mops (n={}); attempted {}, failed {}",
        refs.samples().len(),
        out.attempted,
        out.failed
    );
    if args.trace {
        tr.report(&args.workload);
        out.put("bench.ref_mops", ref_mops);
        out.put(
            "bench.failed_share",
            out.failed as f64 / out.attempted as f64,
        );
    } else {
        out.put("peak_rss_mb", rss);
    }
    Ok(out)
}

/// Renders the result line: exactly the listed metrics, in list order.
fn render(out: &Outcome, trace: bool) -> String {
    let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = list
        .iter()
        .map(|(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            let missing: Vec<&str> = END_TO_END
                .iter()
                .filter(|(n, _)| !args.trace && !out.metrics.contains_key(n))
                .map(|(n, _)| *n)
                .collect();
            let bad: Vec<&str> = out
                .metrics
                .iter()
                .filter(|(_, v)| !v.is_finite())
                .map(|(n, _)| *n)
                .collect();
            if !missing.is_empty() || !bad.is_empty() || out.attempted == 0 {
                eprintln!("perfbench: missing {missing:?}, non-finite {bad:?}");
                return ExitCode::FAILURE;
            }
            println!("{}", render(&out, args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_telemetry::json::{parse, Json};

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_manifest_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the crate");
        let doc = parse(&text).expect("valid JSON");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Array(items)) = doc.get(key) else {
                panic!("{key} is not a list")
            };
            let listed: Vec<(&str, &str)> = items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(listed, table, "{key}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut out = Outcome::new(10, 0);
        out.put("setup_s", 1.25);
        let line = render(&out, false);
        let doc = parse(&line).expect("valid JSON");
        let Some(Json::Object(metrics)) = doc.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("setup_s"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(1.25)
        );
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0));
        assert_ne!(draw(0), draw(1));
        let mut v: Vec<u32> = (0..10).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
