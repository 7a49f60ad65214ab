//! Regenerates the trace-processor throughput extension section.

fn main() {
    let json = ntp_bench::report::json_request();
    let data = ntp_bench::capture_suite();
    print!("{}", ntp_bench::exp::trace_processor(&data));
    ntp_bench::report::emit_from_cli(&data, json.as_deref());
}
