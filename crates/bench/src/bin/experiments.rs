//! Runs every experiment of the paper in order, printing all tables and
//! figures. `tee` this into a file to refresh EXPERIMENTS.md data:
//!
//! ```text
//! NTP_SCALE=default cargo run --release -p ntp-bench --bin experiments
//! ```
//!
//! Pass `--json <dir>` to also write one
//! machine-readable `BENCH_<name>.json` per benchmark — see
//! OBSERVABILITY.md for the schema.

use ntp_bench::exp;

fn main() {
    let json = ntp_bench::report::json_request();
    let data = ntp_bench::capture_suite();
    print!("{}", exp::table1(&data));
    print!("{}", exp::table2(&data));
    print!("{}", exp::table3());
    print!("{}", exp::fig6(&data));
    print!("{}", exp::fig7(&data));
    print!("{}", exp::table4(&data));
    print!("{}", exp::fig8(&data));
    print!("{}", exp::cost_reduced(&data));
    print!("{}", exp::ablations(&data));
    print!("{}", exp::confidence(&data));
    print!("{}", exp::selection_study());
    print!("{}", exp::trace_processor(&data));
    print!("{}", exp::headline(&data));
    // Per-section replay throughput (stderr: wall-clock derived, so it
    // must stay out of the deterministic stdout stream).
    for t in ntp_bench::section_throughput() {
        eprintln!("[throughput] {}", t.summary_line());
    }
    ntp_bench::report::emit_from_cli(&data, json.as_deref());
}
