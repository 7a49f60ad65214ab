//! The experiment binaries take nothing or `--json <dir>`: any other
//! command line is refused with one usage line and status 2, before a
//! capture runs or a file is written.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh, empty scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntp-bench-args-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `bin` at tiny scale in `cwd`, so a build that wrongly accepts
/// the arguments still finishes quickly.
fn run(bin: &str, args: &[&str], cwd: &Path) -> Output {
    Command::new(bin)
        .args(args)
        .current_dir(cwd)
        .env("NTP_SCALE", "tiny")
        .output()
        .expect("binary runs")
}

fn is_empty(dir: &Path) -> bool {
    std::fs::read_dir(dir).unwrap().next().is_none()
}

/// Refused: status 2, nothing on stdout, and exactly one usage line.
fn assert_refused(out: &Output, name: &str) {
    assert_eq!(out.status.code(), Some(2), "{name} must be refused");
    assert!(out.stdout.is_empty(), "{name} ran before refusing");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        format!("usage: {name} [--json <dir>]\n")
    );
}

#[test]
fn a_misspelt_flag_is_refused_before_any_capture() {
    for (bin, name) in [
        (env!("CARGO_BIN_EXE_table3"), "table3"),
        (env!("CARGO_BIN_EXE_table1"), "table1"),
    ] {
        let dir = scratch(name);
        let out = run(bin, &["--jsn", dir.to_str().unwrap()], &dir);
        assert_refused(&out, name);
        assert!(is_empty(&dir), "{name} wrote into {}", dir.display());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn json_without_a_directory_is_refused() {
    let cwd = scratch("bare-json");
    let out = run(env!("CARGO_BIN_EXE_table3"), &["--json"], &cwd);
    assert_refused(&out, "table3");
    assert!(
        is_empty(&cwd),
        "a bare --json wrote into the working directory"
    );
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn json_with_a_directory_writes_the_report() {
    let cwd = scratch("json");
    let out = run(env!("CARGO_BIN_EXE_table3"), &["--json", "reports"], &cwd);
    assert!(out.status.success());
    assert!(!out.stdout.is_empty(), "the table is printed");
    assert!(cwd.join("reports/BENCH_table3.json").is_file());
    let _ = std::fs::remove_dir_all(&cwd);
}
