//! Prints the DOLC index-generation configurations (Table 3).

fn main() {
    let json = ntp_bench::report::json_request();
    let text = ntp_bench::exp::table3();
    print!("{text}");
    ntp_bench::report::emit_text_from_cli("table3", &text, json.as_deref());
}
