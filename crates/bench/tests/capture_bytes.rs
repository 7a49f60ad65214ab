//! The bytes of captured `.ntc` artifacts are pinned. Each cold capture
//! here writes one file through `capture_with_cache`; its length and
//! FNV-1a 64 hash must not drift. Later runs read those files back as
//! cache hits, so a change to trace selection, the streaming baselines or
//! any statistic folded during capture that alters a recorded value must
//! show up here, not as a silently different warm run.

use ntp_bench::capture_with_cache;
use ntp_trace::TraceConfig;
use ntp_tracefile::fnv64;
use ntp_workloads::{by_name, ScalePreset};

/// Instruction budget per capture: enough to cover every workload phase at
/// tiny scale while keeping the test fast.
const BUDGET: u64 = 300_000;

/// Captures tiny-scale `name` cold under `cfg` into a fresh directory and
/// returns the written file's length and hash.
fn written(name: &str, cfg: TraceConfig, tag: &str) -> (usize, u64) {
    let dir = std::env::temp_dir().join(format!(
        "ntp-capture-bytes-{}-{name}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = by_name(name, ScalePreset::Tiny);
    let data = capture_with_cache(&workload, BUDGET, cfg, Some(&dir));
    assert!(
        data.phases.get("simulate") > std::time::Duration::ZERO,
        "cold"
    );
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache directory exists")
        .map(|e| e.expect("directory entry").path())
        .collect();
    assert_eq!(files.len(), 1, "{name} {tag}: one artifact, {files:?}");
    let bytes = std::fs::read(&files[0]).expect("artifact reads back");
    let _ = std::fs::remove_dir_all(&dir);
    (bytes.len(), fnv64(&bytes))
}

#[test]
fn captured_artifacts_are_pinned() {
    let back_edges = TraceConfig {
        stop_at_loop_back_edges: true,
        ..TraceConfig::default()
    };
    let cases = [
        (
            "go",
            TraceConfig::default(),
            "default",
            171_847,
            0x31ee_e292_fc9f_ed04,
        ),
        (
            "go",
            back_edges,
            "back-edges",
            232_246,
            0xf22d_eb0b_06b9_e8f6,
        ),
        (
            "xlisp",
            TraceConfig::default(),
            "default",
            183_765,
            0x1195_1b3b_e93e_d418,
        ),
        (
            "xlisp",
            back_edges,
            "back-edges",
            241_532,
            0x80fb_7e9b_8de2_b563,
        ),
    ];
    for (name, cfg, tag, len, hash) in cases {
        let (got_len, got_hash) = written(name, cfg, tag);
        assert_eq!(
            (got_len, got_hash),
            (len, hash),
            "{name} {tag}: length and hash of the written artifact"
        );
    }
}
