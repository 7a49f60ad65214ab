//! # ntp-verify — differential testing and fault injection for the stack
//!
//! A zero-dependency verification harness that cross-checks independent
//! implementations of the same contract against each other over
//! deterministically generated adversarial inputs:
//!
//! * [`bounded_vs_unbounded`] — the finite tagged predictor must agree with
//!   the unbounded no-aliasing model *on every prediction* when the stream
//!   and configuration are constructed so that aliasing is impossible;
//! * [`evaluate_equivalence`] — the three replay drivers (`evaluate`,
//!   `evaluate_with_streaks`, the delayed-update engine at a latency-free
//!   operating point) must report identical statistics;
//! * [`runner_determinism`] — the worker pool's ordered merge must equal
//!   the serial result vector at any thread count;
//! * [`batch_vs_scalar`] — `evaluate_batch_fresh` must equal per-lane
//!   `evaluate`, and a lane replayed with the shard drain's
//!   `prefetch_tables` hint must equal the same lane without it, on every
//!   prediction, statistic and final table state;
//! * [`snapshot_restore_lockstep`] — a predictor torn down and rebuilt
//!   through `save_state`/`restore_state` at random cut points must stay
//!   in prediction-by-prediction lockstep with one never snapshotted, and
//!   end in identical table state (the in-memory core of the `.nts`
//!   warm-start contract);
//! * [`fault_sweep`] — hostile configurations (stall-inducing engine
//!   windows, phantom DOLC history bits, out-of-range table geometry,
//!   stuck counters) must be *rejected* by the `try_validate` layer, and
//!   known-good configurations must stay accepted;
//! * [`cluster_lockstep`] — a real router fronting two real loopback
//!   servers must stay in per-prediction lockstep with the offline
//!   replay across one live session migration and one graceful backend
//!   failover per case (capped at [`MAX_CLUSTER_CASES`] cases — the cap
//!   shows up in the reported case count, never silently).
//!
//! Everything reproduces from a single `u64` seed: each case derives its
//! own sub-stream via [`XorShift64::fork`], so a [`Divergence`] report
//! (oracle, seed, case, first divergent index, state dump) is enough to
//! rebuild the failing input exactly.
//!
//! # Example
//!
//! ```
//! use ntp_verify::run_all;
//! let report = run_all(0xC0FFEE, 4);
//! assert!(report.is_clean(), "{report}");
//! ```

#![warn(missing_docs)]

mod cluster;
mod fault;
mod gen;
mod oracle;
mod rng;

pub use cluster::{cluster_lockstep, MAX_CLUSTER_CASES};
pub use fault::fault_sweep;
pub use gen::{
    alias_free_point, paper_point, random_id, random_stream, AliasFreePoint, PAPER_DEPTHS,
    PAPER_INDEX_BITS,
};
pub use oracle::{
    batch_vs_scalar, bounded_vs_unbounded, evaluate_equivalence, runner_determinism,
    snapshot_restore_lockstep, Divergence, OracleOutcome,
};
pub use rng::XorShift64;

use std::fmt;

/// The aggregated result of a full verification run.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Master seed the run derived every case from.
    pub seed: u64,
    /// Cases per oracle.
    pub points: usize,
    /// Per-oracle outcomes, in the order they ran.
    pub oracles: Vec<OracleOutcome>,
}

impl VerifyReport {
    /// Total disagreements across all oracles.
    pub fn total_divergences(&self) -> usize {
        self.oracles.iter().map(|o| o.divergences.len()).sum()
    }

    /// Total individual comparisons performed.
    pub fn total_comparisons(&self) -> u64 {
        self.oracles.iter().map(|o| o.comparisons).sum()
    }

    /// True when every oracle agreed on every comparison.
    pub fn is_clean(&self) -> bool {
        self.total_divergences() == 0
    }

    /// Every divergence, across oracles, for detailed reporting.
    pub fn divergences(&self) -> impl Iterator<Item = &Divergence> {
        self.oracles.iter().flat_map(|o| o.divergences.iter())
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verification sweep: seed {:#x}, {} points/oracle, {} comparisons",
            self.seed,
            self.points,
            self.total_comparisons()
        )?;
        for o in &self.oracles {
            writeln!(f, "  {o}")?;
        }
        if self.is_clean() {
            write!(f, "result: CLEAN")
        } else {
            writeln!(f, "result: {} DIVERGENCES", self.total_divergences())?;
            for d in self.divergences() {
                writeln!(f, "{d}")?;
            }
            Ok(())
        }
    }
}

/// Runs all six differential oracles plus the fault-injection sweep with
/// `points` generated cases each (the cluster oracle clamps itself to
/// [`MAX_CLUSTER_CASES`] cases and reports the clamped count).
///
/// Deterministic: the same `(seed, points)` always replays the same streams
/// and configurations, so this is usable as a CI gate
/// (`scripts/check.sh` pins `--seed 0xC0FFEE`).
pub fn run_all(seed: u64, points: usize) -> VerifyReport {
    VerifyReport {
        seed,
        points,
        oracles: vec![
            bounded_vs_unbounded(seed, points),
            evaluate_equivalence(seed, points),
            runner_determinism(seed, points),
            batch_vs_scalar(seed, points),
            snapshot_restore_lockstep(seed, points),
            fault_sweep(seed, points),
            cluster_lockstep(seed, points),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_all_is_clean_and_reports_counts() {
        let r = run_all(0xC0FFEE, 4);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.oracles.len(), 7);
        assert!(r.total_comparisons() > 100);
        let text = r.to_string();
        assert!(text.contains("CLEAN"), "{text}");
        assert!(text.contains("0xc0ffee"), "{text}");
    }

    #[test]
    fn run_all_is_deterministic() {
        let a = run_all(7, 3);
        let b = run_all(7, 3);
        assert_eq!(a.total_comparisons(), b.total_comparisons());
        assert_eq!(a.to_string(), b.to_string());
    }
}
