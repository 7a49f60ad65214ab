//! Regenerates the trace-selection-policy study (an extension; §4.2 of the
//! paper explicitly defers this question).

fn main() {
    let json = ntp_bench::report::json_request();
    let text = ntp_bench::exp::selection_study();
    print!("{text}");
    ntp_bench::report::emit_text_from_cli("selection_study", &text, json.as_deref());
}
