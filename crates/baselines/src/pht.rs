//! Pattern history tables of two-bit saturating counters.

/// A table of classic two-bit saturating counters (predict taken at 2 or 3).
#[derive(Clone, Debug)]
pub(crate) struct PatternHistoryTable {
    counters: Vec<u8>,
}

impl PatternHistoryTable {
    /// Creates a table with `2^index_bits` counters, initialized to weakly
    /// not-taken (1).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 28.
    pub fn new(index_bits: u32) -> PatternHistoryTable {
        assert!((1..=28).contains(&index_bits), "index bits must be 1..=28");
        PatternHistoryTable {
            counters: vec![1; 1 << index_bits],
        }
    }

    fn slot(&self, index: u32) -> usize {
        (index as usize) & (self.counters.len() - 1)
    }

    /// Predicted direction for `index`.
    pub fn predict(&self, index: u32) -> bool {
        self.counters[self.slot(index)] >= 2
    }

    /// Trains the counter at `index` with the actual direction.
    pub fn update(&mut self, index: u32, taken: bool) {
        let slot = (index as usize) & (self.counters.len() - 1);
        let c = &mut self.counters[slot];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_learn_direction() {
        let mut pht = PatternHistoryTable::new(4);
        assert!(!pht.predict(3), "weakly not-taken initially");
        pht.update(3, true);
        assert!(pht.predict(3));
        pht.update(3, true);
        pht.update(3, false);
        assert!(pht.predict(3), "hysteresis keeps taken after one miss");
        pht.update(3, false);
        pht.update(3, false);
        assert!(!pht.predict(3));
    }

    #[test]
    fn index_wraps() {
        let mut pht = PatternHistoryTable::new(4);
        pht.update(0x10, true); // aliases slot 0
        pht.update(0x10, true);
        assert!(pht.predict(0));
    }
}
