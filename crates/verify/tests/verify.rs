//! End-to-end acceptance tests for the verification harness:
//!
//! * the full fixed-seed sweep (`--seed 0xC0FFEE`, 64 points per oracle —
//!   the exact gate `scripts/check.sh` runs through the CLI) is clean;
//! * the harness is deterministic in its reporting;
//! * a long-stream lockstep run of the bounded/unbounded pair holds for
//!   tens of thousands of predictions;
//! * divergence reports carry everything needed to reproduce (seed, case,
//!   index, config, both sides' state).

use ntp_core::{NextTracePredictor, TracePredictor, UnboundedPredictor};
use ntp_verify::{
    alias_free_point, run_all, Divergence, OracleOutcome, VerifyReport, XorShift64,
    MAX_CLUSTER_CASES,
};

#[test]
fn full_sweep_at_the_pinned_seed_is_clean() {
    // The acceptance gate: all six differential oracles plus the fault
    // sweep over 64 generated points each, zero divergences. The cluster
    // oracle clamps itself (each of its cases boots a real router and two
    // real servers) and reports the clamped count rather than pretending
    // it ran 64.
    let report = run_all(0xC0FFEE, 64);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.oracles.len(), 7);
    for oracle in &report.oracles {
        let expected = if oracle.name == "cluster-lockstep" {
            64.min(MAX_CLUSTER_CASES)
        } else {
            64
        };
        assert_eq!(oracle.cases, expected, "{}", oracle.name);
        assert!(oracle.comparisons >= expected as u64, "{}", oracle.name);
    }
    // The per-prediction oracle alone contributes tens of thousands of
    // comparisons.
    assert!(
        report.total_comparisons() > 10_000,
        "sweep breadth: {}",
        report.total_comparisons()
    );
}

#[test]
fn report_text_is_reproducible_across_runs() {
    let a = run_all(0xDECAF, 8).to_string();
    let b = run_all(0xDECAF, 8).to_string();
    assert_eq!(a, b);
}

#[test]
fn bounded_tracks_unbounded_over_a_long_stream() {
    // One deep soak beyond the sweep's per-case lengths: ~20k predictions
    // in perfect lockstep on a single alias-free point.
    let mut rng = XorShift64::new(0x0050_A4E5 ^ 0x1234_5678);
    let point = alias_free_point(&mut rng);
    let stream = point.stream(&mut rng, 20_000);
    let mut bounded = NextTracePredictor::try_new(point.cfg).unwrap();
    let mut unbounded = UnboundedPredictor::try_new(point.ucfg).unwrap();
    for (i, r) in stream.iter().enumerate() {
        let (pb, pu) = (bounded.predict(), unbounded.predict());
        assert_eq!(pb, pu, "lockstep broke at {i}: {pb:?} vs {pu:?}");
        bounded.update(r);
        unbounded.update(r);
    }
}

/// Oracle 1's divergence report prints both models' history depth, so
/// the unbounded model must report its own path history, which on an
/// alias-free point holds exactly what the bounded one holds.
#[test]
fn bounded_and_unbounded_report_the_same_history_len() {
    let master = XorShift64::new(0x0048_15E7);
    for case in 0..16 {
        let mut rng = master.fork(case);
        let point = alias_free_point(&mut rng);
        let stream = point.stream(&mut rng, 200);
        let mut bounded = NextTracePredictor::try_new(point.cfg).unwrap();
        let mut unbounded = UnboundedPredictor::try_new(point.ucfg).unwrap();
        for (i, r) in stream.iter().enumerate() {
            bounded.update(r);
            unbounded.update(r);
            assert!(bounded.history_len() > 0, "case {case} at {i}");
            assert_eq!(
                bounded.history_len(),
                unbounded.history_len(),
                "case {case} at {i}"
            );
        }
    }
}

#[test]
fn dirty_reports_render_every_divergence_with_context() {
    // Build a synthetic dirty report (as produced when a validation or
    // equivalence regression is injected) and check the operator-facing
    // rendering names seed, case, index and both sides.
    let divergence = Divergence {
        oracle: "fault-injection",
        seed: 0xC0FFEE,
        case: 9,
        index: None,
        config: "EngineConfig { issue_width: 4, window: 8, mispredict_penalty: 8 }".into(),
        detail: "hostile config of class `engine-window-too-small` was ACCEPTED by \
                 try_validate; the validation layer has regressed"
            .into(),
    };
    let report = VerifyReport {
        seed: 0xC0FFEE,
        points: 64,
        oracles: vec![OracleOutcome {
            name: "fault-injection",
            cases: 64,
            comparisons: 68,
            divergences: vec![divergence],
        }],
    };
    assert!(!report.is_clean());
    assert_eq!(report.total_divergences(), 1);
    let text = report.to_string();
    for needle in [
        "1 DIVERGENCES",
        "seed 0xc0ffee",
        "case 9",
        "window: 8",
        "engine-window-too-small",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

#[test]
fn distinct_seeds_generate_distinct_workloads() {
    // Sanity that the seed actually steers generation (a constant stream
    // would make the sweep vacuous): comparison counts depend on the
    // random stream lengths, so two seeds should disagree somewhere.
    let a = run_all(1, 6);
    let b = run_all(2, 6);
    assert!(a.is_clean() && b.is_clean());
    assert_ne!(
        a.total_comparisons(),
        b.total_comparisons(),
        "two seeds produced identical workloads — generator ignoring seed?"
    );
}
