//! Exit-code contract tests for the `ntp` binary: every failure mode
//! must exit nonzero with a **one-line** `ntp: …` diagnostic on stderr
//! (scripts and CI gates branch on both).

use std::net::TcpListener;
use std::process::{Command, Output};

/// Runs `ntp` at tiny scale, so a command a build wrongly accepts still
/// finishes quickly.
fn ntp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ntp"))
        .args(args)
        .env("NTP_SCALE", "tiny")
        .output()
        .expect("binary runs")
}

/// An address nothing listens on: a port bound and dropped again.
fn dead_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("grab a port");
    l.local_addr().unwrap().to_string()
}

/// The stderr diagnostic: prefixed, and on one line (usage text aside).
fn diagnostic(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stderr);
    let first = text.lines().next().unwrap_or("").to_string();
    assert!(
        first.starts_with("ntp: "),
        "diagnostic must start with `ntp: `, got {first:?}"
    );
    first
}

#[test]
fn unknown_subcommand_is_refused() {
    let out = ntp(&["launch-missiles"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("unknown command `launch-missiles`"));
}

#[test]
fn bad_flag_values_are_refused() {
    // Non-numeric value for a numeric flag.
    let out = ntp(&["verify", "--points", "several"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("--points"));

    // Zero where at least one is required.
    let out = ntp(&["verify", "--points", "0"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("at least 1"));

    // Bad seed literal.
    let out = ntp(&["verify", "--seed", "0xZZ"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("--seed"));

    // Loadgen with zero sessions.
    let out = ntp(&["loadgen", "--sessions", "0"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("--sessions"));

    // Serve with a hostile worker count dies in config validation.
    let out = ntp(&["serve", "--addr", "127.0.0.1:0", "--workers", "0"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("workers"));

    // So does a server with no event loop to own its connections.
    let out = ntp(&["serve", "--addr", "127.0.0.1:0", "--event-threads", "0"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("event_threads"));

    // And one whose shards could queue nothing.
    let out = ntp(&["serve", "--addr", "127.0.0.1:0", "--queue-depth", "0"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("queue_depth"));
}

/// `ntp serve` on a port something else already owns: nonzero exit and a
/// single diagnostic line naming the address.
#[test]
fn serve_bind_in_use_is_one_clean_error() {
    let holder = TcpListener::bind("127.0.0.1:0").expect("grab a port");
    let addr = holder.local_addr().unwrap().to_string();

    let out = ntp(&["serve", "--addr", &addr]);
    assert!(!out.status.success(), "bind to {addr} must fail");
    let line = diagnostic(&out);
    assert!(
        line.contains("cannot bind") && line.contains(&addr),
        "diagnostic should name the address: {line:?}"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().count(),
        1,
        "exactly one diagnostic line"
    );
}

/// `ntp route` misconfigurations die with one-line diagnostics: no
/// backends at all, and a router port something else already owns.
#[test]
fn route_misconfigurations_are_refused() {
    let out = ntp(&["route"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("--backends"));

    let out = ntp(&[
        "route",
        "--backends",
        "127.0.0.1:9001,127.0.0.1:9002",
        "--snapshot-dirs",
        "/tmp/only-one",
    ]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("--snapshot-dirs"));

    let holder = TcpListener::bind("127.0.0.1:0").expect("grab a port");
    let addr = holder.local_addr().unwrap().to_string();
    let out = ntp(&["route", "--addr", &addr, "--backends", "127.0.0.1:9001"]);
    assert!(!out.status.success(), "bind to {addr} must fail");
    let line = diagnostic(&out);
    assert!(
        line.contains("cannot bind") && line.contains(&addr),
        "diagnostic should name the address: {line:?}"
    );
}

/// `ntp loadgen` against a dead address: an invalid design point is
/// diagnosed before any connection attempt.
#[test]
fn loadgen_unreachable_server_is_refused() {
    let addr = dead_addr();
    let out = ntp(&["loadgen", "--addr", &addr, "--bits", "9"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("paper(9,7)"));
}

/// `ntp top` against a dead address: nonzero with a one-line diagnostic
/// naming the address; a bad `--interval` is refused before connecting.
#[test]
fn top_unreachable_server_is_refused() {
    let addr = dead_addr();
    let out = ntp(&["top", "--addr", &addr, "--once"]);
    assert!(!out.status.success());
    let line = diagnostic(&out);
    assert!(
        line.contains("top: cannot connect") && line.contains(&addr),
        "diagnostic should name the address: {line:?}"
    );

    let out = ntp(&["top", "--addr", &addr, "--interval", "0"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("--interval"));
}

/// Runs tiny-scale `ntp capture --dir <fresh dir> <arg>` and reports
/// whether the directory was still empty afterwards.
fn capture_with_arg(tag: &str, arg: &str) -> (Output, bool) {
    let dir = std::env::temp_dir().join(format!("ntp-capture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_ntp"))
        .arg("capture")
        .arg("--dir")
        .arg(&dir)
        .arg(arg)
        .env("NTP_SCALE", "tiny")
        .output()
        .expect("binary runs");
    let empty = std::fs::read_dir(&dir).unwrap().next().is_none();
    let _ = std::fs::remove_dir_all(&dir);
    (out, empty)
}

/// `ntp capture` takes only `--dir <path>` and `--verify`: anything else
/// is refused with one line naming it, before a workload is built or a
/// file is written.
#[test]
fn capture_refuses_an_unknown_argument() {
    let (out, empty) = capture_with_arg("bogus", "--bogus");
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("--bogus"));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().count(),
        1,
        "exactly one diagnostic line"
    );
    assert!(empty, "a refused capture writes nothing");
}

/// `ntp capture --help` (and `-h`) prints usage and captures nothing.
#[test]
fn capture_help_prints_usage_and_writes_nothing() {
    for help in ["--help", "-h"] {
        let (out, empty) = capture_with_arg("help", help);
        assert!(out.status.success(), "{help}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("usage: ntp capture"),
            "{help}"
        );
        assert!(empty, "{help} writes nothing");
    }
}

/// `ntp <args>` is refused, before it simulates, connects, binds or
/// writes anything, with one `ntp: <cmd>: …` line that names `arg` and
/// exit status 1 (a panic exits 101).
fn refused(args: &[&str], arg: &str) {
    let out = ntp(args);
    assert_eq!(out.status.code(), Some(1), "{args:?} must be refused");
    let line = diagnostic(&out);
    assert!(
        line.starts_with(&format!("ntp: {}: ", args[0])) && line.contains(arg),
        "diagnostic should name `{arg}`: {line:?}"
    );
    assert_eq!(
        String::from_utf8_lossy(&out.stderr).lines().count(),
        1,
        "exactly one diagnostic line"
    );
}

#[test]
fn verify_refuses_a_misspelt_flag() {
    refused(&["verify", "--pionts", "1"], "unknown argument `--pionts`");
}

#[test]
fn report_refuses_a_misspelt_flag() {
    refused(&["report", "@compress", "--bitz", "12"], "`--bitz`");
}

#[test]
fn report_refuses_a_value_flag_without_its_value() {
    refused(&["report", "@compress", "--json"], "--json expects a value");
}

#[test]
fn top_refuses_a_misspelt_flag() {
    refused(&["top", "--addr", "127.0.0.1:1", "--onse"], "`--onse`");
}

/// More seconds than a `Duration` holds is refused, not a panic.
#[test]
fn top_refuses_an_out_of_range_interval() {
    let addr = dead_addr();
    refused(
        &["top", "--addr", &addr, "--once", "--interval", "1e20"],
        "--interval is out of range",
    );
}

/// `ntp loadgen` has one mode: the closed-loop replay's `--chunk` and the
/// `--open-loop` switch are gone.
#[test]
fn loadgen_refuses_the_closed_loop_flags() {
    let addr = dead_addr();
    refused(&["loadgen", "--addr", &addr, "--chunk", "8"], "`--chunk`");
    refused(
        &["loadgen", "--addr", &addr, "--open-loop"],
        "`--open-loop`",
    );
}

/// A running server is read one way, through the `Metrics` frame
/// (`ntp top`): the HTTP sidecar's `--metrics-addr` and the stderr
/// heartbeat's `--stats-interval` are gone. `--workers 0` makes a build
/// that still knows a flag exit on config validation instead of serving.
#[test]
fn serve_refuses_the_retired_metrics_flags() {
    refused(
        &["serve", "--workers", "0", "--metrics-addr", "127.0.0.1:0"],
        "unknown argument `--metrics-addr`",
    );
    refused(
        &["serve", "--workers", "0", "--stats-interval", "0.2"],
        "unknown argument `--stats-interval`",
    );
}

/// `--workers 0` makes a build that skips the unknown flag exit on config
/// validation instead of serving.
#[test]
fn serve_refuses_a_misspelt_flag() {
    refused(
        &["serve", "--workers", "0", "--adr", "127.0.0.1:0"],
        "`--adr`",
    );
}

/// `--help` and `-h` print the subcommand's own usage line and exit 0.
#[test]
fn help_prints_the_subcommand_usage() {
    for (args, usage) in [
        (["report", "--help"], "usage: ntp report <file.s"),
        (["asm", "-h"], "usage: ntp asm <file.s>"),
    ] {
        let out = ntp(&args);
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with(usage), "{args:?}: {stdout:?}");
    }
}
