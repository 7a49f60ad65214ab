//! Regenerates the confidence-estimation extension section.

fn main() {
    let json = ntp_bench::report::json_request();
    let data = ntp_bench::capture_suite();
    print!("{}", ntp_bench::exp::confidence(&data));
    ntp_bench::report::emit_from_cli(&data, json.as_deref());
}
