//! Exit-code contract tests for the `ntp` binary: every failure mode
//! must exit nonzero with a **one-line** `ntp: …` diagnostic on stderr
//! (scripts and CI gates branch on both).

use std::net::TcpListener;
use std::process::{Command, Output};

fn ntp(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ntp"))
        .args(args)
        .output()
        .expect("binary runs")
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

/// The metrics sidecar on a port something else already owns: the server
/// must not come up half-configured — nonzero exit, one diagnostic line
/// naming the *metrics* address (distinct from the serving address).
#[test]
fn serve_metrics_bind_in_use_is_one_clean_error() {
    let holder = TcpListener::bind("127.0.0.1:0").expect("grab a port");
    let maddr = holder.local_addr().unwrap().to_string();

    let out = ntp(&["serve", "--addr", "127.0.0.1:0", "--metrics-addr", &maddr]);
    assert!(!out.status.success(), "metrics bind to {maddr} must fail");
    let line = diagnostic(&out);
    assert!(
        line.contains("cannot bind metrics address") && line.contains(&maddr),
        "diagnostic should name the metrics address: {line:?}"
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

/// `ntp loadgen` against a dead address: nonzero with an i/o diagnostic,
/// before any records are replayed. Uses a port we bound and dropped, so
/// nothing is listening.
#[test]
fn loadgen_unreachable_server_is_refused() {
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("grab a port");
        l.local_addr().unwrap().to_string()
        // listener drops here; the port is free but silent
    };
    // An invalid design point is diagnosed before any connection attempt.
    let out = ntp(&["loadgen", "--addr", &addr, "--bits", "9"]);
    assert!(!out.status.success());
    assert!(diagnostic(&out).contains("paper(9,7)"));
}

/// `ntp top` against a dead address: nonzero with a one-line diagnostic
/// naming the address; a bad `--interval` is refused before connecting.
#[test]
fn top_unreachable_server_is_refused() {
    let addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("grab a port");
        l.local_addr().unwrap().to_string()
    };
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
