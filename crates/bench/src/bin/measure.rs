//! Reports per-round instruction costs of each workload (used to calibrate
//! the scale presets).

use std::fmt::Write as _;

fn main() {
    let mut text = String::new();
    for name in ntp_workloads::NAMES {
        let w = ntp_workloads::by_name(name, ntp_workloads::ScalePreset::Tiny);
        let mut m = w.machine();
        m.run(2_000_000_000).unwrap();
        let rounds = match name {
            "jpeg" => 4,
            _ => 2,
        };
        writeln!(
            text,
            "{name}: total {} instrs, {} per round, static {} instrs",
            m.icount(),
            m.icount() / rounds,
            w.program.len()
        )
        .unwrap();
    }
    print!("{text}");
    ntp_bench::report::emit_text_from_cli("measure", &text);
}
