//! Single-branch direction prediction: the paper's 16-bit gshare.

use crate::pht::PatternHistoryTable;

/// GSHARE (McFarling): global history XORed with the branch PC indexes the
/// PHT. The paper's sequential baseline uses a 16-bit gshare.
#[derive(Clone, Debug)]
pub struct Gshare {
    pht: PatternHistoryTable,
    bhr: u32,
    hist_bits: u32,
}

impl Gshare {
    /// Creates a gshare predictor with `hist_bits` of history and a PHT of
    /// `2^hist_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `hist_bits` is out of range.
    pub fn new(hist_bits: u32) -> Gshare {
        Gshare {
            pht: PatternHistoryTable::new(hist_bits),
            bhr: 0,
            hist_bits,
        }
    }

    /// The paper's configuration: 16 history bits, 2^16 counters.
    pub fn paper() -> Gshare {
        Gshare::new(16)
    }

    fn index(&self, pc: u32) -> u32 {
        (pc >> 2) ^ self.bhr
    }

    /// Predicted direction for the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: u32) -> bool {
        self.pht.predict(self.index(pc))
    }

    /// Trains with the actual direction of the branch at `pc` and shifts
    /// it into the global history.
    #[inline]
    pub fn update(&mut self, pc: u32, taken: bool) {
        self.pht.update(self.index(pc), taken);
        self.bhr = ((self.bhr << 1) | taken as u32) & ((1 << self.hist_bits) - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn train(p: &mut Gshare, seq: &[(u32, bool)], rounds: usize) -> u32 {
        let mut wrong = 0;
        for _ in 0..rounds {
            for &(pc, taken) in seq {
                if p.predict(pc) != taken {
                    wrong += 1;
                }
                p.update(pc, taken);
            }
        }
        wrong
    }

    #[test]
    fn gshare_learns_alternation() {
        let mut p = Gshare::new(10);
        let seq: Vec<(u32, bool)> = (0..40).map(|k| (0x100, k % 2 == 0)).collect();
        // After warm-up, history disambiguates the alternation perfectly.
        train(&mut p, &seq, 1);
        let wrong = train(&mut p, &seq, 1);
        assert!(wrong <= 2, "gshare should track alternation: {wrong}");
    }

    #[test]
    fn gshare_history_shifts() {
        let mut p = Gshare::new(6);
        p.update(0, true);
        p.update(0, false);
        p.update(0, true);
        assert_eq!(p.bhr, 0b101);
    }
}
