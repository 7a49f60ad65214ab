//! The experiment sections: one function per table/figure of the paper.
//!
//! Each takes captured benchmark data and returns the formatted section as
//! a string, so `experiments` can run everything and the per-figure
//! binaries can run one.

use crate::{pct, record_section_throughput, row, BenchData};
use ntp_core::{
    evaluate, evaluate_batch_fresh, CounterSpec, Dolc, NextTracePredictor, PredictorConfig,
    RhsConfig, StoredTarget, UnboundedConfig, UnboundedPredictor,
};
use ntp_engine::{DelayedUpdateEngine, EngineConfig};
use ntp_runner::{map_ordered_stats, thread_count};
use ntp_telemetry::ReplayThroughput;

/// Depths studied throughout the evaluation (0–7, as in §5.2).
pub const DEPTHS: std::ops::RangeInclusive<usize> = 0..=7;

/// Bounded table sizes studied (log2 entries): our reconstruction of the
/// paper's three sizes (the OCR drops the exponents; Table 3's index widths
/// are 12/15/18).
pub const TABLE_BITS: [u32; 3] = [12, 15, 18];

/// Fans a section's independent replay jobs out over `NTP_THREADS` scoped
/// workers, records the section's replay throughput (`records` = predictor
/// lookups across all jobs), and returns results **in submission order** —
/// so section text formatted from the result vector is byte-identical at
/// any thread count.
fn fan_out<T, R>(label: &str, records: u64, jobs: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let (results, stats) = map_ordered_stats(thread_count(), jobs, |_, job| f(job));
    record_section_throughput(ReplayThroughput {
        label: label.to_string(),
        records,
        wall: stats.wall,
        busy: stats.busy,
        threads: stats.threads,
    });
    results
}

/// Total records replayed when every benchmark is evaluated `per_bench`
/// times (the usual shape of a section's job grid).
fn replayed(data: &[BenchData], per_bench: u64) -> u64 {
    data.iter().map(|d| d.records.len() as u64).sum::<u64>() * per_bench
}

fn header(title: &str) -> String {
    format!("\n==== {title} ====\n")
}

/// Table 1: benchmark summary.
pub fn table1(data: &[BenchData]) -> String {
    let mut s = header("Table 1: benchmark summary");
    s += &row(&[
        "bench".into(),
        "Minstr".into(),
        "traces".into(),
        "avg-len".into(),
        "static".into(),
        "br/tr".into(),
        "dup".into(),
    ]);
    s.push('\n');
    for d in data {
        s += &row(&[
            d.name.into(),
            format!("{:.1}", d.icount as f64 / 1e6),
            format!("{}", d.trace_stats.traces()),
            format!("{:.1}", d.trace_stats.avg_trace_len()),
            format!("{}", d.trace_stats.static_traces()),
            format!("{:.2}", d.trace_stats.branches_per_trace()),
            format!("{:.2}", d.redundancy.duplication_factor()),
        ]);
        s.push('\n');
    }
    s
}

/// Table 2: the idealized sequential predictor (16-bit gshare + perfect
/// BTB/RAS + 4K correlated indirect buffer), plus the realizable
/// single-access multiple-branch predictor for context.
pub fn table2(data: &[BenchData]) -> String {
    let mut s = header("Table 2: prediction accuracy of sequential predictors");
    s += &row(&[
        "bench".into(),
        "gshare%".into(),
        "br/tr".into(),
        "seq-tr%".into(),
        "multi%".into(),
        "gag%".into(),
    ]);
    s.push('\n');
    let mut seq_sum = 0.0;
    for d in data {
        seq_sum += d.seq_stats.trace_mispredict_pct();
        s += &row(&[
            d.name.into(),
            pct(d.seq_stats.branch_mispredict_pct()),
            format!("{:.2}", d.seq_stats.branches_per_trace()),
            pct(d.seq_stats.trace_mispredict_pct()),
            pct(d.mb_stats.trace_mispredict_pct()),
            pct(d.gag_stats.trace_mispredict_pct()),
        ]);
        s.push('\n');
    }
    s += &format!(
        "mean sequential trace misprediction: {:.2}%\n",
        seq_sum / data.len() as f64
    );
    s
}

/// Table 3: the DOLC index-generation configurations in use.
pub fn table3() -> String {
    let mut s = header("Table 3: index generation configurations (D-O-L-C)");
    s += &row(&[
        "depth".into(),
        "12-bit".into(),
        "parts".into(),
        "15-bit".into(),
        "parts".into(),
        "18-bit".into(),
        "parts".into(),
    ]);
    s.push('\n');
    for depth in DEPTHS {
        let mut cells = vec![format!("{depth}")];
        for bits in TABLE_BITS {
            let d = Dolc::standard(depth, bits);
            cells.push(format!("{d}"));
            cells.push(format!("({}p)", d.parts(bits)));
        }
        s += &row(&cells);
        s.push('\n');
    }
    s
}

/// Figure 6: unbounded tables, depths 0–7, for the correlated-only, hybrid,
/// and hybrid+RHS predictors, with the sequential baseline as reference.
pub fn fig6(data: &[BenchData]) -> String {
    let mut s = header("Figure 6: next trace prediction with unbounded tables (mispredict %)");
    // One job per (benchmark, depth); each replays the three predictor
    // variants. Results come back in submission order, so the serial
    // formatting below is byte-identical at any thread count.
    let jobs: Vec<(usize, usize)> = (0..data.len())
        .flat_map(|b| DEPTHS.map(move |depth| (b, depth)))
        .collect();
    let per_bench = 3 * DEPTHS.count() as u64;
    let results = fan_out("fig6", replayed(data, per_bench), &jobs, |&(b, depth)| {
        let d = &data[b];
        [
            UnboundedConfig::correlated_only(depth),
            UnboundedConfig::hybrid_no_rhs(depth),
            UnboundedConfig::paper(depth),
        ]
        .map(|cfg| {
            let mut p = UnboundedPredictor::new(cfg);
            evaluate(&mut p, &d.records).mispredict_pct()
        })
    });
    let mut results = results.into_iter();
    let mut means = [0.0f64; 3];
    for d in data {
        s += &format!(
            "-- {} (sequential reference: {:.2}%)\n",
            d.name,
            d.seq_stats.trace_mispredict_pct()
        );
        s += &row(&[
            "depth".into(),
            "corr".into(),
            "hybrid".into(),
            "hyb+RHS".into(),
        ]);
        s.push('\n');
        for depth in DEPTHS {
            let pcts = results.next().expect("one result per (bench, depth)");
            let mut cells = vec![format!("{depth}")];
            for (k, p) in pcts.iter().enumerate() {
                cells.push(pct(*p));
                if depth == *DEPTHS.end() {
                    means[k] += *p;
                }
            }
            s += &row(&cells);
            s.push('\n');
        }
    }
    s += &format!(
        "means at depth {} — corr {:.2}%, hybrid {:.2}%, hybrid+RHS {:.2}%\n",
        DEPTHS.end(),
        means[0] / data.len() as f64,
        means[1] / data.len() as f64,
        means[2] / data.len() as f64,
    );
    s
}

/// Figure 7: bounded tables (2^12 / 2^15 / 2^18 entries), hybrid + RHS,
/// across history depths, with the sequential baseline as reference.
pub fn fig7(data: &[BenchData]) -> String {
    let mut s = header("Figure 7: next trace prediction with bounded tables (mispredict %)");
    // One job per (benchmark, depth), replaying the three table sizes.
    let jobs: Vec<(usize, usize)> = (0..data.len())
        .flat_map(|b| DEPTHS.map(move |depth| (b, depth)))
        .collect();
    let per_bench = TABLE_BITS.len() as u64 * DEPTHS.count() as u64;
    let results = fan_out("fig7", replayed(data, per_bench), &jobs, |&(b, depth)| {
        // The three table sizes are independent sessions over the same
        // stream, replayed back to back through fresh predictors.
        let d = &data[b];
        let stats = evaluate_batch_fresh(&[&d.records[..]; TABLE_BITS.len()], |k| {
            NextTracePredictor::new(PredictorConfig::paper(TABLE_BITS[k], depth))
        });
        std::array::from_fn::<f64, { TABLE_BITS.len() }, _>(|k| stats[k].mispredict_pct())
    });
    let mut results = results.into_iter();
    let mut means = vec![0.0f64; TABLE_BITS.len()];
    for d in data {
        s += &format!(
            "-- {} (sequential reference: {:.2}%)\n",
            d.name,
            d.seq_stats.trace_mispredict_pct()
        );
        s += &row(&["depth".into(), "2^12".into(), "2^15".into(), "2^18".into()]);
        s.push('\n');
        for depth in DEPTHS {
            let pcts = results.next().expect("one result per (bench, depth)");
            let mut cells = vec![format!("{depth}")];
            for (k, p) in pcts.iter().enumerate() {
                cells.push(pct(*p));
                if depth == *DEPTHS.end() {
                    means[k] += *p;
                }
            }
            s += &row(&cells);
            s.push('\n');
        }
    }
    s += &format!(
        "means at depth {} — 2^12: {:.2}%, 2^15: {:.2}%, 2^18: {:.2}%\n",
        DEPTHS.end(),
        means[0] / data.len() as f64,
        means[1] / data.len() as f64,
        means[2] / data.len() as f64,
    );
    s
}

/// Table 4: immediate (ideal) vs retire-time (real) updates at 2^15
/// entries, maximum depth.
pub fn table4(data: &[BenchData]) -> String {
    let mut s = header("Table 4: impact of real (retire-time) updates, 2^15 entries, depth 7");
    s += &row(&[
        "bench".into(),
        "ideal%".into(),
        "real%".into(),
        "IPC".into(),
    ]);
    s.push('\n');
    // One job per benchmark: ideal replay plus the delayed-update engine.
    let results = fan_out("table4", replayed(data, 2), data, |d| {
        let cfg = PredictorConfig::paper(15, 7);
        let mut ideal = NextTracePredictor::new(cfg);
        let ideal_stats = evaluate(&mut ideal, &d.records);
        let mut engine =
            DelayedUpdateEngine::new(NextTracePredictor::new(cfg), EngineConfig::default());
        let real = engine.run(&d.records);
        (
            ideal_stats.mispredict_pct(),
            real.prediction.mispredict_pct(),
            real.ipc(),
        )
    });
    for (d, (ideal, real, ipc)) in data.iter().zip(results) {
        s += &row(&[d.name.into(), pct(ideal), pct(real), format!("{ipc:.2}")]);
        s.push('\n');
    }
    s
}

/// Figure 8: alternate trace prediction — primary misprediction rate vs
/// the rate at which both primary and alternate miss, per depth.
pub fn fig8(data: &[BenchData]) -> String {
    let mut s = header("Figure 8: alternate trace prediction, 2^15 entries (mispredict %)");
    let jobs: Vec<(usize, usize)> = (0..data.len())
        .flat_map(|b| DEPTHS.map(move |depth| (b, depth)))
        .collect();
    let per_bench = DEPTHS.count() as u64;
    let results = fan_out("fig8", replayed(data, per_bench), &jobs, |&(b, depth)| {
        let mut p = NextTracePredictor::new(PredictorConfig::paper_with_alternate(15, depth));
        let stats = evaluate(&mut p, &data[b].records);
        (
            stats.mispredict_pct(),
            stats.both_mispredict_pct(),
            stats.alternate_rescue_fraction(),
        )
    });
    let mut results = results.into_iter();
    for d in data {
        s += &format!("-- {}\n", d.name);
        s += &row(&[
            "depth".into(),
            "primary".into(),
            "both".into(),
            "rescued".into(),
        ]);
        s.push('\n');
        for depth in DEPTHS {
            let (primary, both, rescued) = results.next().expect("one result per (bench, depth)");
            s += &row(&[
                format!("{depth}"),
                pct(primary),
                pct(both),
                format!("{:.0}%", 100.0 * rescued),
            ]);
            s.push('\n');
        }
    }
    s
}

/// §5.5: the cost-reduced predictor (tables store the 16-bit hashed index
/// instead of the 36-bit identifier).
pub fn cost_reduced(data: &[BenchData]) -> String {
    let mut s = header("Sec. 5.5: cost-reduced predictor (hashed-target entries), 2^15, depth 7");
    let full_cfg = PredictorConfig::paper(15, 7);
    let hashed_cfg = PredictorConfig {
        stored_target: StoredTarget::Hashed,
        ..full_cfg
    };
    s += &format!(
        "entry: {} bits -> {} bits; table: {} KB -> {} KB\n",
        full_cfg.corr_entry_bits(),
        hashed_cfg.corr_entry_bits(),
        full_cfg.corr_table_bits() / 8192,
        hashed_cfg.corr_table_bits() / 8192,
    );
    s += &row(&["bench".into(), "full%".into(), "hashed%".into()]);
    s.push('\n');
    // One job per benchmark: the full-target and hashed-target sessions
    // replay the same stream, back to back.
    let results = fan_out("cost_reduced", replayed(data, 2), data, |d| {
        let cfgs = [full_cfg, hashed_cfg];
        let stats =
            evaluate_batch_fresh(&[&d.records[..]; 2], |k| NextTracePredictor::new(cfgs[k]));
        (stats[0].mispredict_pct(), stats[1].mispredict_pct())
    });
    for (d, (fs, hs)) in data.iter().zip(results) {
        s += &row(&[d.name.into(), pct(fs), pct(hs)]);
        s.push('\n');
    }
    s
}

/// Ablations over the design choices DESIGN.md calls out: counter policy,
/// tag width, RHS depth, and secondary-table size, on the two
/// aliasing-stressed benchmarks (cc, go).
pub fn ablations(data: &[BenchData]) -> String {
    let stressed: Vec<&BenchData> = data
        .iter()
        .filter(|d| d.name == "cc" || d.name == "go")
        .collect();
    let base = PredictorConfig::paper(15, 7);
    let mut s = header("Ablations (2^15 entries, depth 7; cc and go)");

    // Declarative form of the five ablation blocks: (block title, rows of
    // (label, config)). Built once, fanned out as a flat row × benchmark
    // grid, then formatted serially in the same order.
    let mut blocks: Vec<(&str, Vec<(String, PredictorConfig)>)> = Vec::new();
    blocks.push((
        "-- correlating-counter policy",
        [
            ("inc1/dec2 (paper)", CounterSpec::PRIMARY),
            ("2-bit classic", CounterSpec::TWO_BIT),
            ("1-bit", CounterSpec::ONE_BIT),
        ]
        .map(|(label, ctr)| {
            (
                label.to_string(),
                PredictorConfig {
                    primary_counter: ctr,
                    ..base
                },
            )
        })
        .into(),
    ));
    blocks.push((
        "-- tag width (bits)",
        [0u32, 4, 8, 10, 16]
            .map(|tag_bits| {
                (
                    format!("tag={tag_bits}"),
                    PredictorConfig { tag_bits, ..base },
                )
            })
            .into(),
    ));
    blocks.push((
        "-- return history stack",
        [
            ("RHS off", None),
            ("RHS depth 1", Some(RhsConfig { max_depth: 1 })),
            ("RHS depth 4", Some(RhsConfig { max_depth: 4 })),
            ("RHS depth 16", Some(RhsConfig { max_depth: 16 })),
        ]
        .map(|(label, rhs)| (label.to_string(), PredictorConfig { rhs, ..base }))
        .into(),
    ));
    blocks.push((
        "-- secondary table size (log2 entries)",
        [8u32, 11, 14, 16]
            .map(|bits| {
                (
                    format!("secondary=2^{bits}"),
                    PredictorConfig {
                        secondary_index_bits: bits,
                        ..base
                    },
                )
            })
            .into(),
    ));
    blocks.push((
        "-- secondary counter decrement (4-bit counter)",
        [1u8, 4, 8, 15]
            .map(|dec| {
                (
                    format!("dec={dec}"),
                    PredictorConfig {
                        secondary_counter: CounterSpec {
                            bits: 4,
                            inc: 1,
                            dec,
                        },
                        ..base
                    },
                )
            })
            .into(),
    ));

    // Flat job grid: every (row config, stressed benchmark) pair.
    let jobs: Vec<(PredictorConfig, usize)> = blocks
        .iter()
        .flat_map(|(_, rows)| rows.iter().map(|(_, cfg)| *cfg))
        .flat_map(|cfg| (0..stressed.len()).map(move |b| (cfg, b)))
        .collect();
    let records: u64 = jobs
        .iter()
        .map(|&(_, b)| stressed[b].records.len() as u64)
        .sum();
    let results = fan_out("ablations", records, &jobs, |&(cfg, b)| {
        let mut p = NextTracePredictor::new(cfg);
        evaluate(&mut p, &stressed[b].records).mispredict_pct()
    });
    let mut results = results.into_iter();

    for (title, rows) in &blocks {
        s += title;
        s.push('\n');
        for (label, _) in rows {
            let cells: Vec<String> = (0..stressed.len())
                .map(|_| pct(results.next().expect("one result per (row, bench)")))
                .collect();
            s += &format!("{label:<20}{}\n", row(&cells));
        }
    }
    s
}

/// Extension: confidence estimation for trace predictions (resetting
/// counters, after the authors' MICRO-29 confidence paper) — coverage of
/// the high-confidence class and misprediction inside each class.
pub fn confidence(data: &[BenchData]) -> String {
    use ntp_core::{evaluate_with_confidence, ConfidenceConfig, ConfidenceEstimator};
    let mut s =
        header("Extension: prediction confidence (2^14 resetting counters, 2^15 predictor)");
    s += &row(&[
        "bench".into(),
        "cover%".into(),
        "hi-mis%".into(),
        "lo-mis%".into(),
        "caught%".into(),
    ]);
    s.push('\n');
    let results = fan_out("confidence", replayed(data, 1), data, |d| {
        let mut p = NextTracePredictor::new(PredictorConfig::paper(15, 7));
        let mut est = ConfidenceEstimator::new(ConfidenceConfig {
            threshold: 8,
            ..ConfidenceConfig::paper_like()
        });
        let stats = evaluate_with_confidence(&mut p, &mut est, &d.records);
        (
            stats.coverage(),
            stats.high_mispredict_pct(),
            stats.low_mispredict_pct(),
            stats.mispredictions_caught(),
        )
    });
    for (d, (cover, hi, lo, caught)) in data.iter().zip(results) {
        s += &row(&[
            d.name.into(),
            pct(100.0 * cover),
            pct(hi),
            pct(lo),
            pct(100.0 * caught),
        ]);
        s.push('\n');
    }
    s
}

/// The headline comparison the abstract quotes: mean misprediction of the
/// paper predictor at depth 7 vs the idealized sequential baseline, at
/// each bounded table size and unbounded (Figure 6's depth-7 hybrid+RHS
/// mean).
pub fn headline(data: &[BenchData]) -> String {
    let mut s = header("Headline: paper predictor vs idealized sequential baseline");
    // Job `k` replays table size `TABLE_BITS[k]`; the last `k` replays
    // the unbounded model.
    let jobs: Vec<(usize, usize)> = (0..data.len())
        .flat_map(|b| (0..=TABLE_BITS.len()).map(move |k| (b, k)))
        .collect();
    let per_bench = TABLE_BITS.len() as u64 + 1;
    let results = fan_out("headline", replayed(data, per_bench), &jobs, |&(b, k)| {
        let records = &data[b].records;
        match TABLE_BITS.get(k) {
            Some(&bits) => {
                let mut p = NextTracePredictor::new(PredictorConfig::paper(bits, 7));
                evaluate(&mut p, records).mispredict_pct()
            }
            None => {
                let mut p = UnboundedPredictor::new(UnboundedConfig::paper(7));
                evaluate(&mut p, records).mispredict_pct()
            }
        }
    });
    let mut seq_mean = 0.0;
    let mut ours = vec![0.0f64; TABLE_BITS.len() + 1];
    for d in data {
        seq_mean += d.seq_stats.trace_mispredict_pct();
    }
    for (&(_, k), m) in jobs.iter().zip(results) {
        ours[k] += m;
    }
    let n = data.len() as f64;
    seq_mean /= n;
    s += &format!("sequential (idealized) mean: {seq_mean:.2}%\n");
    let sizes = TABLE_BITS.iter().map(|bits| format!("2^{bits}"));
    for (size, sum) in sizes.chain(["unbounded".to_string()]).zip(ours) {
        let m = sum / n;
        s += &format!(
            "{size} path-based predictor:  {m:.2}%  ({:+.0}% relative)\n",
            100.0 * (m - seq_mean) / seq_mean
        );
    }
    s
}

/// Extension: the trace-selection study the paper defers (§4.2) — how
/// selection heuristics trade trace length against predictability. The
/// useful composite is *predicted fetch rate*: average trace length times
/// the fraction of traces correctly predicted.
pub fn selection_study() -> String {
    use crate::capture_with;
    use ntp_trace::TraceConfig;
    use ntp_workloads::by_name;

    let scale = crate::scale_from_env();
    let budget = crate::budget_from_env();
    let policies: [(&str, TraceConfig); 5] = [
        ("paper (16/6)", TraceConfig::default()),
        ("short (8/6)", TraceConfig::with_max_len(8)),
        (
            "few-branches (16/3)",
            TraceConfig {
                max_branches: 3,
                ..TraceConfig::default()
            },
        ),
        (
            "stop-at-calls",
            TraceConfig {
                stop_at_calls: true,
                ..TraceConfig::default()
            },
        ),
        (
            "stop-at-back-edges",
            TraceConfig {
                stop_at_loop_back_edges: true,
                ..TraceConfig::default()
            },
        ),
    ];

    let mut s = header("Extension: trace selection vs predictability (2^15, depth 7)");
    let names = ["cc", "go", "xlisp"];
    // One job per (benchmark, policy); each re-simulates under the policy
    // and replays the captured stream. Record counts are only known after
    // capture, so throughput is recorded from the jobs' own tallies.
    let jobs: Vec<(usize, usize)> = (0..names.len())
        .flat_map(|n| (0..policies.len()).map(move |p| (n, p)))
        .collect();
    let (results, stats) = map_ordered_stats(thread_count(), &jobs, |_, &(n, p)| {
        let w = by_name(names[n], scale);
        let d = capture_with(&w, budget, policies[p].1);
        let mut pred = NextTracePredictor::new(PredictorConfig::paper(15, 7));
        let pstats = evaluate(&mut pred, &d.records);
        let fetch_rate = d.trace_stats.avg_trace_len() * (1.0 - pstats.mispredict_pct() / 100.0);
        (
            d.trace_stats.avg_trace_len(),
            d.trace_stats.static_traces(),
            d.redundancy.duplication_factor(),
            pstats.mispredict_pct(),
            fetch_rate,
            d.records.len() as u64,
        )
    });
    record_section_throughput(ReplayThroughput {
        label: "selection_study".to_string(),
        records: results.iter().map(|r| r.5).sum(),
        wall: stats.wall,
        busy: stats.busy,
        threads: stats.threads,
    });
    let mut results = results.into_iter();
    for name in names {
        s += &format!("-- {name}\n");
        s += &format!(
            "{:<22}{:>9}{:>9}{:>7}{:>9}{:>11}\n",
            "policy", "avg-len", "static", "dup", "mis%", "fetch-rate"
        );
        for (label, _) in &policies {
            let (avg_len, static_traces, dup, mis, fetch_rate, _) =
                results.next().expect("one result per (bench, policy)");
            s += &format!(
                "{label:<22}{avg_len:>9.1}{static_traces:>9}{dup:>7.2}{mis:>9.2}{fetch_rate:>11.2}\n",
            );
        }
    }
    s
}

/// Extension: trace-processor throughput (the consumer architecture) —
/// IPC with 4 PEs at depth 0 vs depth 7, per benchmark.
pub fn trace_processor(data: &[BenchData]) -> String {
    use ntp_engine::{TraceProcessor, TraceProcessorConfig};
    let mut s = header("Extension: trace-processor throughput (4 PEs x 4-wide, 2^15 predictor)");
    s += &row(&[
        "bench".into(),
        "d0 IPC".into(),
        "d7 IPC".into(),
        "d0 mis%".into(),
        "d7 mis%".into(),
    ]);
    s.push('\n');
    let results = fan_out("trace_processor", replayed(data, 2), data, |d| {
        [0usize, 7].map(|depth| {
            let mut tp = TraceProcessor::new(
                NextTracePredictor::new(PredictorConfig::paper(15, depth)),
                TraceProcessorConfig::default(),
            );
            let stats = tp.run(&d.records);
            (stats.ipc(), stats.mispredict_pct())
        })
    });
    for (d, depth_stats) in data.iter().zip(results) {
        let mut cells = vec![d.name.to_string()];
        let mut mis = Vec::new();
        for (ipc, mispct) in depth_stats {
            cells.push(format!("{ipc:.2}"));
            mis.push(pct(mispct));
        }
        cells.extend(mis);
        s += &row(&cells);
        s.push('\n');
    }
    s
}
