//! Regenerates one section of the paper's evaluation. See `experiments`
//! for all sections at once.

fn main() {
    let json = ntp_bench::report::json_request();
    let data = ntp_bench::capture_suite();
    print!("{}", ntp_bench::exp::table4(&data));
    ntp_bench::report::emit_from_cli(&data, json.as_deref());
}
