//! Target prediction: the correlated indirect-target buffer of Chang, Hao &
//! Patt (ISCA 1997).

/// A correlated indirect-target buffer: a table of last-seen targets indexed
/// by the jump PC XORed with a path history of recent indirect targets
/// (after Chang, Hao & Patt's "target cache"). The paper's baseline uses a
/// 4K-entry instance.
#[derive(Clone, Debug)]
pub struct IndirectTargetBuffer {
    targets: Vec<u32>,
    hist: u32,
    hist_bits: u32,
}

impl IndirectTargetBuffer {
    /// Creates a buffer with `2^index_bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> IndirectTargetBuffer {
        assert!((1..=24).contains(&index_bits));
        IndirectTargetBuffer {
            targets: vec![0; 1 << index_bits],
            hist: 0,
            hist_bits: index_bits.min(12),
        }
    }

    /// The paper's 4K-entry configuration.
    pub fn paper() -> IndirectTargetBuffer {
        IndirectTargetBuffer::new(12)
    }

    fn index(&self, pc: u32) -> usize {
        (((pc >> 2) ^ self.hist) as usize) & (self.targets.len() - 1)
    }

    /// Predicted target for the indirect jump at `pc` (0 if never trained —
    /// treated as a miss by callers since 0 is not a valid text address).
    pub fn predict(&self, pc: u32) -> u32 {
        self.targets[self.index(pc)]
    }

    /// Trains with the actual target and shifts it into the path history.
    pub fn update(&mut self, pc: u32, target: u32) {
        let idx = self.index(pc);
        self.targets[idx] = target;
        let mask = (1u32 << self.hist_bits) - 1;
        self.hist = ((self.hist << 2) ^ (target >> 2)) & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn itb_learns_stable_target() {
        let mut itb = IndirectTargetBuffer::new(8);
        for _ in 0..3 {
            itb.update(0x500, 0x900);
        }
        // Same history state recurs when the update pattern is periodic.
        let p = itb.predict(0x500);
        assert_eq!(p, 0x900);
    }

    #[test]
    fn itb_correlates_on_target_path() {
        // A dispatch jump whose target alternates; the preceding indirect
        // target disambiguates.
        let mut itb = IndirectTargetBuffer::new(10);
        let mut wrong = 0;
        let mut last = 0x900;
        for round in 0..60 {
            let next = if last == 0x900 { 0xA00 } else { 0x900 };
            if round > 20 && itb.predict(0x500) != next {
                wrong += 1;
            }
            itb.update(0x500, next);
            last = next;
        }
        assert!(
            wrong <= 2,
            "correlated ITB tracks alternating targets: {wrong}"
        );
    }
}
