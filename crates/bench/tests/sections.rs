//! Smoke tests: every experiment section renders on a small capture, with
//! the structural elements the tables and figures need.

use ntp_bench::{capture, exp, BenchData};

fn tiny_data() -> Vec<BenchData> {
    ["compress", "cc", "go"]
        .iter()
        .map(|name| {
            let w = ntp_workloads::by_name(name, ntp_workloads::ScalePreset::Tiny);
            capture(&w, 2_000_000)
        })
        .collect()
}

#[test]
fn every_section_renders() {
    let data = tiny_data();
    let sections: Vec<(&str, String)> = vec![
        ("table1", exp::table1(&data)),
        ("table2", exp::table2(&data)),
        ("table3", exp::table3()),
        ("fig6", exp::fig6(&data)),
        ("fig7", exp::fig7(&data)),
        ("table4", exp::table4(&data)),
        ("fig8", exp::fig8(&data)),
        ("cost_reduced", exp::cost_reduced(&data)),
        ("ablations", exp::ablations(&data)),
        ("confidence", exp::confidence(&data)),
        ("trace_processor", exp::trace_processor(&data)),
        ("headline", exp::headline(&data)),
    ];
    for (name, text) in &sections {
        assert!(text.starts_with("\n===="), "{name} has a banner");
        assert!(text.len() > 100, "{name} has content");
        for d in &data {
            if *name != "table3" && *name != "headline" && *name != "ablations" {
                assert!(text.contains(d.name), "{name} mentions {}", d.name);
            }
        }
    }
}

#[test]
fn figure_sections_cover_all_depths() {
    let data = tiny_data();
    let fig7 = exp::fig7(&data);
    for depth in 0..=7 {
        assert!(
            fig7.lines()
                .any(|l| l.trim_start().starts_with(&format!("{depth} "))
                    || l.trim_start().starts_with(&format!("{depth}\t"))
                    || l.starts_with(&format!("{depth}         "))),
            "fig7 has a row for depth {depth}:\n{fig7}"
        );
    }
}

#[test]
fn table3_lists_all_standard_configs() {
    let t3 = exp::table3();
    for needle in ["0-0-0-12", "7-4-8-10", "7-5-9-13", "(1p)", "(3p)"] {
        assert!(t3.contains(needle), "missing {needle}:\n{t3}");
    }
}

#[test]
fn headline_reports_relative_change() {
    let data = tiny_data();
    let h = exp::headline(&data);
    assert!(h.contains("sequential (idealized) mean"));
    assert!(h.contains("relative"));
    // The unbounded line is Figure 6's depth-7 hybrid+RHS mean.
    let fig6 = exp::fig6(&data);
    let mean = fig6.rsplit("hybrid+RHS ").next().unwrap().trim_end();
    assert!(
        h.contains(&format!("unbounded path-based predictor:  {mean}  (")),
        "headline lacks Figure 6's mean {mean}:\n{h}\n{fig6}"
    );
}

#[test]
fn capture_is_deterministic() {
    let w = ntp_workloads::by_name("compress", ntp_workloads::ScalePreset::Tiny);
    let a = capture(&w, 1_000_000);
    let b = capture(&w, 1_000_000);
    assert_eq!(a.records, b.records);
    assert_eq!(a.seq_stats, b.seq_stats);
    assert_eq!(a.mb_stats, b.mb_stats);
    assert_eq!(a.gag_stats, b.gag_stats);
}
