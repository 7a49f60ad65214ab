//! Configuration of the bounded path-based next trace predictor.

use crate::error::in_range;
use crate::{ConfigError, CounterSpec, Dolc, RhsConfig, RHS_SNAPSHOT_CAP};

/// Widest tag [`PredictorConfig::try_validate`] admits.
pub(crate) const MAX_TAG_BITS: u32 = 16;

/// What the correlating/secondary tables store as the predicted target.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StoredTarget {
    /// The full 36-bit trace identifier (the baseline design, 48-bit
    /// entries).
    Full,
    /// Only the 16-bit hashed identifier — the cost-reduced predictor of
    /// §5.5. The trace cache validates the full identifier, so accuracy is
    /// essentially unchanged while the entry shrinks.
    Hashed,
}

/// Full configuration of a [`crate::NextTracePredictor`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct PredictorConfig {
    /// log2 of the correlating-table entry count (the paper studies 12, 15
    /// and 18).
    pub index_bits: u32,
    /// Index-generation configuration.
    pub dolc: Dolc,
    /// Tag width; the paper finds 10 bits eliminate practically all
    /// unintended cross-path hits.
    pub tag_bits: u32,
    /// Correlating-table counter policy (+1/−2 two-bit by default).
    pub primary_counter: CounterSpec,
    /// log2 of the secondary-table entry count (indexed by the hashed
    /// identifier of the most recent trace).
    pub secondary_index_bits: u32,
    /// Secondary-table counter policy (4-bit, heavy decrement).
    pub secondary_counter: CounterSpec,
    /// Return history stack, if enabled.
    pub rhs: Option<RhsConfig>,
    /// Maintain and report an alternate (second-choice) prediction (§6).
    pub alternate: bool,
    /// Entry format (§5.5 cost reduction).
    pub stored_target: StoredTarget,
}

impl PredictorConfig {
    /// The paper's configuration for a given table size and history depth:
    /// standard DOLC, 10-bit tags, a 2^14-entry secondary table, RHS on,
    /// alternate prediction off, full identifiers stored.
    ///
    /// # Panics
    ///
    /// Panics if there is no standard DOLC for `(depth, index_bits)` —
    /// see [`Dolc::standard`].
    pub fn paper(index_bits: u32, depth: usize) -> PredictorConfig {
        match PredictorConfig::try_paper(index_bits, depth) {
            Ok(cfg) => cfg,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`PredictorConfig::paper`] returning an error instead of panicking,
    /// for front ends handed the design point by a user.
    pub fn try_paper(index_bits: u32, depth: usize) -> Result<PredictorConfig, ConfigError> {
        let cfg = PredictorConfig {
            index_bits,
            dolc: Dolc::try_standard(depth, index_bits)?,
            tag_bits: 10,
            primary_counter: CounterSpec::PRIMARY,
            secondary_index_bits: 14,
            secondary_counter: CounterSpec::SECONDARY,
            rhs: Some(RhsConfig::default()),
            alternate: false,
            stored_target: StoredTarget::Full,
        };
        cfg.try_validate()?;
        Ok(cfg)
    }

    /// Same as [`PredictorConfig::paper`] with alternate prediction enabled
    /// (Figure 8).
    pub fn paper_with_alternate(index_bits: u32, depth: usize) -> PredictorConfig {
        PredictorConfig {
            alternate: true,
            ..PredictorConfig::paper(index_bits, depth)
        }
    }

    /// History register capacity needed by this configuration.
    pub fn history_capacity(&self) -> usize {
        self.dolc.depth + 1
    }

    /// Correlating-table entry count.
    pub fn corr_entries(&self) -> usize {
        1usize << self.index_bits
    }

    /// Secondary-table entry count.
    pub fn secondary_entries(&self) -> usize {
        1usize << self.secondary_index_bits
    }

    /// Bits per correlating-table entry (§5.5's cost accounting): target +
    /// counter + tag (+ alternate target if enabled).
    pub fn corr_entry_bits(&self) -> u64 {
        let target = match self.stored_target {
            StoredTarget::Full => 36,
            StoredTarget::Hashed => 16,
        };
        let alt = if self.alternate { target } else { 0 };
        target + alt + self.primary_counter.bits as u64 + self.tag_bits as u64
    }

    /// Total correlating-table size in bits.
    pub fn corr_table_bits(&self) -> u64 {
        self.corr_entry_bits() * self.corr_entries() as u64
    }

    /// Validates the configuration without panicking: table sizes, tag
    /// width, counter policies and DOLC consistency (see
    /// [`Dolc::try_validate`]). With the RHS on, the history register must
    /// also fit an RHS snapshot ([`RHS_SNAPSHOT_CAP`] identifiers), so the
    /// DOLC depth is at most 15.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        in_range("predictor.index_bits", self.index_bits as u64, 1, 30)?;
        in_range(
            "predictor.secondary_index_bits",
            self.secondary_index_bits as u64,
            1,
            20,
        )?;
        in_range(
            "predictor.tag_bits",
            self.tag_bits as u64,
            0,
            MAX_TAG_BITS as u64,
        )?;
        self.primary_counter.try_validate()?;
        self.secondary_counter.try_validate()?;
        self.dolc.try_validate()?;
        if let Some(rhs) = &self.rhs {
            in_range("predictor.rhs.max_depth", rhs.max_depth as u64, 1, 1 << 20)?;
            in_range(
                "dolc.depth",
                self.dolc.depth as u64,
                0,
                RHS_SNAPSHOT_CAP as u64 - 1,
            )?;
        }
        Ok(())
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero-sized tables, tags wider than 16 bits, invalid
    /// counters, an inconsistent DOLC, or a history too deep for the RHS —
    /// see [`PredictorConfig::try_validate`].
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid predictor config: {e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_shape() {
        let c = PredictorConfig::paper(15, 7);
        c.validate();
        assert_eq!(c.corr_entries(), 1 << 15);
        assert_eq!(c.history_capacity(), 8);
        assert_eq!(c.corr_entry_bits(), 48); // 36 + 2 + 10, the paper's number
    }

    #[test]
    fn cost_reduced_entry_is_smaller() {
        let mut c = PredictorConfig::paper(15, 7);
        c.stored_target = StoredTarget::Hashed;
        assert_eq!(c.corr_entry_bits(), 28); // 16 + 2 + 10
        assert!(c.corr_table_bits() < PredictorConfig::paper(15, 7).corr_table_bits());
    }

    #[test]
    fn alternate_doubles_target_storage() {
        let c = PredictorConfig::paper_with_alternate(12, 3);
        assert_eq!(c.corr_entry_bits(), 36 + 36 + 2 + 10);
    }

    #[test]
    fn try_paper_rejects_unknown_design_points_cleanly() {
        use crate::ConfigError;
        assert!(matches!(
            PredictorConfig::try_paper(13, 3),
            Err(ConfigError::NoStandardDolc { .. })
        ));
        assert!(matches!(
            PredictorConfig::try_paper(15, 9),
            Err(ConfigError::NoStandardDolc { .. })
        ));
        assert_eq!(
            PredictorConfig::try_paper(15, 3).unwrap(),
            PredictorConfig::paper(15, 3)
        );
    }

    #[test]
    fn try_validate_names_hostile_fields() {
        use crate::ConfigError;
        let mut c = PredictorConfig::paper(15, 3);
        c.index_bits = 0;
        assert!(matches!(
            c.try_validate(),
            Err(ConfigError::OutOfRange {
                field: "predictor.index_bits",
                value: 0,
                ..
            })
        ));
        let mut c = PredictorConfig::paper(15, 3);
        c.tag_bits = 17;
        assert!(matches!(
            c.try_validate(),
            Err(ConfigError::OutOfRange {
                field: "predictor.tag_bits",
                value: 17,
                ..
            })
        ));
        let mut c = PredictorConfig::paper(15, 3);
        c.dolc.older = 9; // depth-3 DOLC with a legal-but-different width is fine...
        assert!(c.try_validate().is_ok());
        c.dolc = Dolc {
            depth: 0,
            older: 4,
            last: 0,
            current: 12,
        }; // ...but phantom history bits are not.
        assert!(matches!(
            c.try_validate(),
            Err(ConfigError::UnusedHistoryBits { .. })
        ));
    }

    #[test]
    fn deep_history_with_rhs_is_refused_and_the_limits_replay() {
        use crate::{evaluate, ConfigError, NextTracePredictor, TracePredictor};
        use ntp_trace::{TraceId, TraceRecord};
        let deep = |depth| PredictorConfig {
            dolc: Dolc {
                depth,
                older: 1,
                last: 1,
                current: 1,
            },
            ..PredictorConfig::paper(12, 3)
        };
        // An RHS snapshot holds 16 identifiers: a depth-20 register (21
        // identifiers) cannot be saved at a call.
        assert!(deep(20).dolc.try_validate().is_ok());
        let refused = Err(ConfigError::OutOfRange {
            field: "dolc.depth",
            value: 20,
            min: 0,
            max: 15,
        });
        assert_eq!(deep(20).try_validate(), refused);
        assert_eq!(NextTracePredictor::try_new(deep(20)).err(), refused.err());

        // The deepest register the RHS can save, and a deeper one with the
        // RHS off, both run a stream of nested calls and returns.
        let records: Vec<TraceRecord> = (0..600u32)
            .map(|k| {
                let calls = (k % 7 == 0) as u8 + (k % 11 == 0) as u8;
                let ret = k % 5 == 0;
                let id = TraceId::new(0x0040_0000 + (k % 37) * 0x40, 0, 0);
                TraceRecord::new(id, 8, calls, ret, ret)
            })
            .collect();
        let no_rhs = PredictorConfig {
            rhs: None,
            ..deep(20)
        };
        for cfg in [deep(15), no_rhs] {
            let mut p = NextTracePredictor::try_new(cfg).expect("valid");
            let stats = evaluate(&mut p, &records);
            assert_eq!(stats.predictions, 600, "{cfg:?}");
            assert!(stats.correct > 0, "{cfg:?}");
            assert_eq!(p.history_len(), cfg.history_capacity(), "{cfg:?}");
        }
    }
}
