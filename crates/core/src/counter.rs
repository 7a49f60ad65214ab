//! Saturating confidence counters with configurable increment/decrement
//! policies.
//!
//! The paper found that an increment-by-1 / decrement-by-2 two-bit counter
//! slightly outperforms the conventional two-bit counter for the correlating
//! table, and uses a larger 4-bit counter with a heavy decrement in the
//! secondary table so that only strongly-biased traces suppress correlated
//! updates.

use std::fmt;

/// Widest counter [`CounterSpec::try_validate`] admits.
pub(crate) const MAX_COUNTER_BITS: u32 = 8;

/// The shape of a saturating counter: bit width and the amounts it moves on
/// correct/incorrect predictions.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CounterSpec {
    /// Counter width in bits (1–8).
    pub bits: u8,
    /// Added on a correct prediction (saturating at the maximum).
    pub inc: u8,
    /// Subtracted on an incorrect prediction (saturating at zero).
    pub dec: u8,
}

impl CounterSpec {
    /// The paper's correlating-table counter: 2 bits, +1 / −2.
    pub const PRIMARY: CounterSpec = CounterSpec {
        bits: 2,
        inc: 1,
        dec: 2,
    };

    /// The paper's secondary-table counter: 4 bits, +1, heavy decrement.
    /// (The OCR of the paper drops the decrement amount; 8 is our
    /// reconstruction and is swept in the ablation bench.)
    pub const SECONDARY: CounterSpec = CounterSpec {
        bits: 4,
        inc: 1,
        dec: 8,
    };

    /// A conventional two-bit counter (+1 / −1), for ablations.
    pub const TWO_BIT: CounterSpec = CounterSpec {
        bits: 2,
        inc: 1,
        dec: 1,
    };

    /// A one-bit counter, for ablations.
    pub const ONE_BIT: CounterSpec = CounterSpec {
        bits: 1,
        inc: 1,
        dec: 1,
    };

    /// The saturation maximum for this width.
    pub fn max(self) -> u8 {
        ((1u16 << self.bits) - 1) as u8
    }

    /// Validates the spec without panicking: the width must be 1–8 bits and
    /// both steps nonzero (a counter that cannot move encodes nothing).
    pub fn try_validate(self) -> Result<(), crate::ConfigError> {
        crate::error::in_range("counter.bits", self.bits as u64, 1, MAX_COUNTER_BITS as u64)?;
        if self.inc == 0 {
            return Err(crate::ConfigError::ZeroCounterStep { field: "inc" });
        }
        if self.dec == 0 {
            return Err(crate::ConfigError::ZeroCounterStep { field: "dec" });
        }
        Ok(())
    }

    /// Validates the spec.
    ///
    /// # Panics
    ///
    /// Panics if [`CounterSpec::try_validate`] rejects the spec.
    pub fn validate(self) {
        if let Err(e) = self.try_validate() {
            panic!("invalid counter spec {self}: {e}");
        }
    }
}

impl fmt::Display for CounterSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b +{} -{}", self.bits, self.inc, self.dec)
    }
}

/// A saturating counter value; the policy lives in a [`CounterSpec`] so that
/// a table entry stores only the value, in at most eight bits.
#[derive(Copy, Clone, Default, PartialEq, Eq, Debug)]
pub struct Counter(u8);

impl Counter {
    /// A counter at zero (no confidence).
    pub const fn new() -> Counter {
        Counter(0)
    }

    /// Current value.
    #[inline]
    pub fn value(self) -> u8 {
        self.0
    }

    /// Rebuilds a counter from a raw stored value (state restore). The
    /// caller is responsible for range-checking the value against its
    /// [`CounterSpec::max`] — the predictor's
    /// [`restore_state`](crate::NextTracePredictor::restore_state) does.
    #[inline]
    pub const fn from_value(value: u8) -> Counter {
        Counter(value)
    }

    /// True if at the saturation maximum for `spec`.
    #[inline]
    pub fn is_saturated(self, spec: CounterSpec) -> bool {
        self.0 >= spec.max()
    }

    /// Registers a correct prediction.
    #[inline]
    pub fn on_correct(&mut self, spec: CounterSpec) {
        self.0 = self.0.saturating_add(spec.inc).min(spec.max());
    }

    /// Registers an incorrect prediction. Returns `true` if the counter was
    /// at zero, meaning the owning entry should replace its stored target
    /// (the counter then stays at zero).
    #[inline]
    pub fn on_incorrect(&mut self, spec: CounterSpec) -> bool {
        if self.0 == 0 {
            true
        } else {
            self.0 = self.0.saturating_sub(spec.dec);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_policy_walk() {
        let spec = CounterSpec::PRIMARY;
        let mut c = Counter::new();
        assert!(c.on_incorrect(spec), "zero counter requests replacement");
        c.on_correct(spec);
        assert_eq!(c.value(), 1);
        c.on_correct(spec);
        c.on_correct(spec);
        assert_eq!(c.value(), 3, "saturates at 3");
        assert!(c.is_saturated(spec));
        assert!(!c.on_incorrect(spec));
        assert_eq!(c.value(), 1, "decrement by 2");
        assert!(!c.on_incorrect(spec));
        assert_eq!(c.value(), 0, "saturating subtract");
        assert!(c.on_incorrect(spec));
    }

    #[test]
    fn secondary_counter_needs_many_hits_to_saturate() {
        let spec = CounterSpec::SECONDARY;
        let mut c = Counter::new();
        for _ in 0..14 {
            c.on_correct(spec);
            assert!(!c.is_saturated(spec));
        }
        c.on_correct(spec);
        assert!(c.is_saturated(spec));
        // One miss drops confidence by 8.
        assert!(!c.on_incorrect(spec));
        assert_eq!(c.value(), 7);
    }

    #[test]
    fn one_bit_flips() {
        let spec = CounterSpec::ONE_BIT;
        let mut c = Counter::new();
        c.on_correct(spec);
        assert!(c.is_saturated(spec));
        assert!(!c.on_incorrect(spec));
        assert!(c.on_incorrect(spec));
    }

    #[test]
    #[should_panic]
    fn zero_width_rejected() {
        CounterSpec {
            bits: 0,
            inc: 1,
            dec: 1,
        }
        .validate();
    }

    #[test]
    fn try_validate_names_the_fault() {
        use crate::ConfigError;
        let wide = CounterSpec {
            bits: 9,
            inc: 1,
            dec: 1,
        };
        assert!(matches!(
            wide.try_validate(),
            Err(ConfigError::OutOfRange {
                field: "counter.bits",
                value: 9,
                ..
            })
        ));
        let stuck = CounterSpec {
            bits: 2,
            inc: 0,
            dec: 1,
        };
        assert_eq!(
            stuck.try_validate(),
            Err(ConfigError::ZeroCounterStep { field: "inc" })
        );
        let frozen = CounterSpec {
            bits: 2,
            inc: 1,
            dec: 0,
        };
        assert_eq!(
            frozen.try_validate(),
            Err(ConfigError::ZeroCounterStep { field: "dec" })
        );
        assert!(CounterSpec::PRIMARY.try_validate().is_ok());
        assert!(CounterSpec::SECONDARY.try_validate().is_ok());
    }
}
