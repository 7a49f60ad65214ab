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
            "compress",
            TraceConfig::default(),
            "default",
            110_656,
            0x7a52_2c0a_621a_58c1,
        ),
        (
            "cc",
            TraceConfig::default(),
            "default",
            208_156,
            0xf3ad_459f_b11b_eb45,
        ),
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
            "jpeg",
            TraceConfig::default(),
            "default",
            42_653,
            0x72dd_dbfc_a268_efb7,
        ),
        (
            "m88ksim",
            TraceConfig::default(),
            "default",
            171_675,
            0xb699_1676_b0e6_9a3f,
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

/// Every workload's program image is pinned too: the assembled text, the
/// data segment with its generated inputs written in, the symbols and the
/// entry. A change to how a workload is built that alters one byte of its
/// image shows up here before it shows up as a different capture.
#[test]
fn program_images_are_pinned() {
    let pins = [
        (
            ScalePreset::Tiny,
            [
                ("compress", 37_284, 0x4f47_bd17_a129_281e),
                ("cc", 33_615, 0x01d2_8f68_1a4a_dd5a),
                ("go", 2_084, 0x8523_9d60_1687_3dc3),
                ("jpeg", 2_248, 0x14a0_808e_226c_d868),
                ("m88ksim", 2_282, 0x2491_099c_fc01_f593),
                ("xlisp", 231_774, 0x073f_c7ee_a729_d5b6),
            ],
        ),
        (
            ScalePreset::Default,
            [
                ("compress", 37_284, 0xa875_578f_45e5_09e0),
                ("cc", 33_615, 0x5f92_8744_3673_7ba5),
                ("go", 2_084, 0x8fa9_322d_86e0_956f),
                ("jpeg", 2_248, 0x7345_f2fd_8cab_0e07),
                ("m88ksim", 2_282, 0x0605_6777_7c52_bd4f),
                ("xlisp", 231_774, 0x7fc3_1ead_b113_912e),
            ],
        ),
    ];
    for (scale, pins) in pins {
        let suite = ntp_workloads::suite(scale);
        assert_eq!(suite.len(), pins.len());
        for (w, (name, len, hash)) in suite.iter().zip(pins) {
            assert_eq!(w.name, name);
            let image = w.program.to_image();
            assert_eq!(
                (image.len(), fnv64(&image)),
                (len, hash),
                "{name} at {} scale: length and hash of the program image",
                scale.name()
            );
        }
    }
}
