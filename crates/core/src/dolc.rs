//! DOLC index generation (Depth, Older, Last, Current), §3.2 / Table 3.
//!
//! The index into the correlating table is built from the low-order bits of
//! the hashed identifiers in the path history register: `C` bits from the
//! current (most recent) trace, `L` bits from the one before it, and `O`
//! bits from each of the `D − 1` older traces. More bits come from more
//! recent traces. If the collected bits exceed the index width, they are
//! folded onto themselves with XOR (into two or three parts).

use crate::error::in_range;
use crate::{ConfigError, PathHistory};
use ntp_trace::HashedId;
use std::fmt;

/// A DOLC index-generation configuration.
///
/// `depth` is the number of traces used *besides* the most recent one, so
/// `depth + 1` hashed identifiers participate in total: the newest
/// contributes `current` bits, the second-newest `last` bits, and each of
/// the remaining `depth − 1` contributes `older` bits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Dolc {
    /// Traces used besides the most recent (0 ⇒ only the newest trace).
    pub depth: usize,
    /// Bits taken from each trace older than the last.
    pub older: u32,
    /// Bits taken from the last (second-newest) trace.
    pub last: u32,
    /// Bits taken from the current (newest) trace.
    pub current: u32,
}

impl Dolc {
    /// Total bits gathered before folding.
    pub fn total_bits(&self) -> u32 {
        match self.depth {
            0 => self.current,
            _ => self.older * (self.depth as u32 - 1) + self.last + self.current,
        }
    }

    /// Number of XOR folds required for an index of `index_bits` (1 = no
    /// folding). This is the "(1p)/(2p)/(3p)" annotation of Table 3.
    pub fn parts(&self, index_bits: u32) -> u32 {
        self.total_bits().div_ceil(index_bits).max(1)
    }

    /// Validates field widths and depth/field consistency without
    /// panicking.
    ///
    /// Rejected configurations:
    ///
    /// * any per-trace field above 16 bits (hashed identifiers are 16 bits
    ///   wide);
    /// * a gathered total above 120 bits (the folding stage's `u128`
    ///   accumulator budget);
    /// * `depth > 32` (history registers are small shift registers);
    /// * **unused history bits**: `depth == 0` with nonzero `older`/`last`,
    ///   or `depth == 1` with nonzero `older`. Indexing silently ignores
    ///   those fields ([`Dolc::index`] only gathers `older` bits for slots
    ///   `2..=depth` and `last` bits when `depth >= 1`), so accepting them
    ///   would let a swept configuration claim history it never reads.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        in_range("dolc.older", self.older as u64, 0, 16)?;
        in_range("dolc.last", self.last as u64, 0, 16)?;
        in_range("dolc.current", self.current as u64, 0, 16)?;
        in_range("dolc.depth", self.depth as u64, 0, 32)?;
        if (self.depth == 0 && (self.older != 0 || self.last != 0))
            || (self.depth == 1 && self.older != 0)
        {
            return Err(ConfigError::UnusedHistoryBits {
                depth: self.depth,
                older: self.older,
                last: self.last,
            });
        }
        let total = self.total_bits();
        if total > 120 {
            return Err(ConfigError::TooManyGatheredBits { total, max: 120 });
        }
        Ok(())
    }

    /// Validates field widths.
    ///
    /// # Panics
    ///
    /// Panics if [`Dolc::try_validate`] rejects the configuration.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid DOLC {self}: {e}");
        }
    }

    /// Computes the table index from the history register.
    ///
    /// Identifiers older than the history currently holds contribute zero
    /// bits (cold start). The gathered bit string places older traces in
    /// higher positions, then folds with XOR down to `index_bits`.
    ///
    /// This runs once per retired trace (the predictor refreshes its cached
    /// index at every history shift), so the gather walks the history's
    /// contiguous newest-first slice directly, and configurations whose
    /// gathered total fits in 64 bits — every standard Table 3 tuple — take
    /// a `u64` accumulator path instead of the general `u128` one. Both
    /// paths produce identical indexes.
    #[inline]
    pub fn index(&self, history: &PathHistory<HashedId>, index_bits: u32) -> u32 {
        debug_assert!((1..=30).contains(&index_bits));
        if self.total_bits() <= 64 {
            self.index_u64(history.as_slice(), index_bits)
        } else {
            self.index_u128(history.as_slice(), index_bits)
        }
    }

    /// Fast accumulator path: gathered bits fit in a `u64`.
    #[inline]
    fn index_u64(&self, h: &[HashedId], index_bits: u32) -> u32 {
        let mut acc: u64 = 0;
        let mut width: u32 = 0;

        let mut gather = |slot: usize, bits: u32| {
            if bits == 0 {
                return;
            }
            let v = h.get(slot).map(|id| id.low_bits(bits.min(16))).unwrap_or(0);
            acc = (acc << bits) | v as u64;
            width += bits;
        };

        // Oldest first so the newest trace ends up in the low bits.
        if self.depth >= 2 {
            for slot in (2..=self.depth).rev() {
                gather(slot, self.older);
            }
        }
        if self.depth >= 1 {
            gather(1, self.last);
        }
        gather(0, self.current);

        let mask = (1u64 << index_bits) - 1;
        let mut idx: u64 = 0;
        let mut rest = acc;
        let mut remaining = width as i64;
        while remaining > 0 {
            idx ^= rest & mask;
            rest >>= index_bits;
            remaining -= index_bits as i64;
        }
        idx as u32
    }

    /// General path for experimental configurations gathering 65–120 bits.
    fn index_u128(&self, h: &[HashedId], index_bits: u32) -> u32 {
        let mut acc: u128 = 0;
        let mut width: u32 = 0;

        let mut gather = |slot: usize, bits: u32| {
            if bits == 0 {
                return;
            }
            let v = h.get(slot).map(|id| id.low_bits(bits.min(16))).unwrap_or(0);
            acc = (acc << bits) | v as u128;
            width += bits;
        };

        if self.depth >= 2 {
            for slot in (2..=self.depth).rev() {
                gather(slot, self.older);
            }
        }
        if self.depth >= 1 {
            gather(1, self.last);
        }
        gather(0, self.current);

        let mask = (1u128 << index_bits) - 1;
        let mut idx: u128 = 0;
        let mut rest = acc;
        let mut remaining = width as i64;
        while remaining > 0 {
            idx ^= rest & mask;
            rest >>= index_bits;
            remaining -= index_bits as i64;
        }
        idx as u32
    }

    /// The configuration our reproduction uses for a given history depth and
    /// index width (our reconstruction of Table 3; the paper's exact tuples
    /// were chosen by trial and error and are unrecoverable from the OCR).
    ///
    /// # Panics
    ///
    /// Panics if `depth > 7` or `index_bits` is not 12, 15 or 18; see
    /// [`Dolc::try_standard`] for the non-panicking form front ends should
    /// use on user-supplied design points.
    pub fn standard(depth: usize, index_bits: u32) -> Dolc {
        match Dolc::try_standard(depth, index_bits) {
            Ok(d) => d,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Dolc::standard`] returning an error instead of panicking when the
    /// requested design point has no standard tuple.
    pub fn try_standard(depth: usize, index_bits: u32) -> Result<Dolc, ConfigError> {
        let (older, last, current) = match (index_bits, depth) {
            (12, 0) => (0, 0, 12),
            (12, 1) => (0, 8, 12),
            (12, 2) => (6, 8, 10),
            (12, 3) => (5, 7, 10),
            (12, 4) => (4, 7, 9),
            (12, 5) => (4, 6, 9),
            (12, 6) => (3, 6, 9),
            (12, 7) => (3, 6, 9),
            (15, 0) => (0, 0, 15),
            (15, 1) => (0, 10, 15),
            (15, 2) => (8, 10, 12),
            (15, 3) => (6, 9, 12),
            (15, 4) => (5, 8, 12),
            (15, 5) => (5, 8, 11),
            (15, 6) => (4, 8, 11),
            (15, 7) => (4, 8, 10),
            (18, 0) => (0, 0, 16),
            (18, 1) => (0, 12, 16),
            (18, 2) => (10, 12, 14),
            (18, 3) => (8, 11, 14),
            (18, 4) => (7, 10, 14),
            (18, 5) => (6, 10, 14),
            (18, 6) => (5, 10, 13),
            (18, 7) => (5, 9, 13),
            _ => return Err(ConfigError::NoStandardDolc { depth, index_bits }),
        };
        let d = Dolc {
            depth,
            older,
            last,
            current,
        };
        d.try_validate()?;
        Ok(d)
    }
}

impl fmt::Display for Dolc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-{}-{}-{}",
            self.depth, self.older, self.last, self.current
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(vals: &[u16]) -> PathHistory<HashedId> {
        let mut h = PathHistory::new(8);
        for &v in vals {
            h.push(HashedId(v));
        }
        h
    }

    #[test]
    fn depth_zero_uses_only_newest() {
        let d = Dolc {
            depth: 0,
            older: 0,
            last: 0,
            current: 12,
        };
        let h = hist(&[0x0AAA, 0x0BBB]); // newest = 0x0BBB
        assert_eq!(d.index(&h, 12), 0x0BBB);
    }

    #[test]
    fn concatenation_orders_newest_low() {
        let d = Dolc {
            depth: 1,
            older: 0,
            last: 4,
            current: 8,
        };
        // newest = 0xAB (8 bits), last = 0xC (4 bits) ⇒ 0xCAB, no folding at 12 bits.
        let h = hist(&[0x000C, 0x00AB]);
        assert_eq!(d.index(&h, 12), 0xCAB);
    }

    #[test]
    fn folding_xors_high_part() {
        let d = Dolc {
            depth: 1,
            older: 0,
            last: 8,
            current: 8,
        };
        // 16 gathered bits folded into 8: high byte XOR low byte.
        let h = hist(&[0x0055, 0x00F0]);
        assert_eq!(d.index(&h, 8), 0x55 ^ 0xF0);
        assert_eq!(d.parts(8), 2);
    }

    #[test]
    fn missing_history_contributes_zero() {
        let d = Dolc {
            depth: 3,
            older: 4,
            last: 4,
            current: 8,
        };
        let h = hist(&[0x00AB]); // only the newest exists
        assert_eq!(d.index(&h, 16), 0xAB);
    }

    #[test]
    fn different_paths_different_indexes() {
        let d = Dolc::standard(3, 15);
        let a = d.index(&hist(&[1, 2, 3, 4]), 15);
        let b = d.index(&hist(&[1, 2, 3, 5]), 15);
        let c = d.index(&hist(&[9, 2, 3, 4]), 15);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn standard_configs_are_valid_and_bounded() {
        for &w in &[12u32, 15, 18] {
            for depth in 0..=7usize {
                let d = Dolc::standard(depth, w);
                assert_eq!(d.depth, depth);
                assert!(
                    d.parts(w) <= 3,
                    "{d} needs {} parts at {w} bits",
                    d.parts(w)
                );
                // Index always fits.
                let h = hist(&[0xFFFF; 8]);
                assert!(d.index(&h, w) < (1 << w));
            }
        }
    }

    #[test]
    fn depth_zero_rejects_phantom_history_bits() {
        // With depth == 0 only `current` participates in indexing; nonzero
        // older/last used to be silently accepted and ignored, letting an
        // ablation config lie about its history depth.
        for (older, last) in [(1, 0), (0, 1), (8, 8)] {
            let d = Dolc {
                depth: 0,
                older,
                last,
                current: 12,
            };
            assert_eq!(
                d.try_validate(),
                Err(ConfigError::UnusedHistoryBits {
                    depth: 0,
                    older,
                    last
                }),
                "depth 0 with older={older}/last={last} must be rejected"
            );
        }
        // Depth 1 reads `last` but never `older`.
        let d1 = Dolc {
            depth: 1,
            older: 3,
            last: 8,
            current: 12,
        };
        assert!(matches!(
            d1.try_validate(),
            Err(ConfigError::UnusedHistoryBits { depth: 1, .. })
        ));
        // The honest forms are fine.
        assert!(Dolc {
            depth: 0,
            older: 0,
            last: 0,
            current: 12
        }
        .try_validate()
        .is_ok());
        assert!(Dolc {
            depth: 1,
            older: 0,
            last: 8,
            current: 12
        }
        .try_validate()
        .is_ok());
    }

    #[test]
    #[should_panic(expected = "never reads")]
    fn validate_panics_on_phantom_history_bits() {
        Dolc {
            depth: 0,
            older: 4,
            last: 4,
            current: 12,
        }
        .validate();
    }

    #[test]
    fn try_validate_rejects_wide_fields_and_totals() {
        assert!(matches!(
            Dolc {
                depth: 2,
                older: 17,
                last: 8,
                current: 8
            }
            .try_validate(),
            Err(ConfigError::OutOfRange {
                field: "dolc.older",
                ..
            })
        ));
        // 16 * (depth - 1) + 16 + 16 > 120 for depth >= 8.
        assert!(matches!(
            Dolc {
                depth: 9,
                older: 16,
                last: 16,
                current: 16
            }
            .try_validate(),
            Err(ConfigError::TooManyGatheredBits { total: 160, .. })
        ));
    }

    #[test]
    fn try_standard_rejects_unknown_points_without_panicking() {
        assert!(matches!(
            Dolc::try_standard(8, 15),
            Err(ConfigError::NoStandardDolc {
                depth: 8,
                index_bits: 15
            })
        ));
        assert!(Dolc::try_standard(3, 13).is_err());
        assert_eq!(Dolc::try_standard(3, 15).unwrap(), Dolc::standard(3, 15));
    }

    #[test]
    fn deeper_history_changes_index_only_within_depth() {
        let d = Dolc::standard(2, 15);
        // Changing the 4th-newest id must not affect a depth-2 index.
        let a = d.index(&hist(&[7, 1, 2, 3]), 15);
        let b = d.index(&hist(&[8, 1, 2, 3]), 15);
        assert_eq!(a, b);
    }
}
