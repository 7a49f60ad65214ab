//! Shared helpers: deterministic input generation, and writing generated
//! data into an assembled image.
//!
//! A workload's code is assembled from text, but its generated data is
//! not: the source reserves each block with `label: .space <bytes>`, and
//! after [`assemble`](ntp_isa::asm::assemble) the builder writes the bytes
//! in at that label with the crate's checked `fill`. The image is the same
//! as if the bytes had been spelled out as `.word`/`.byte` directives,
//! without formatting them as text and parsing them back.

use ntp_isa::Program;

/// The 32-bit linear congruential generator used both by workload host code
/// (in Rust, to generate embedded inputs) and inside several TRISC programs
/// (mirrored instruction-for-instruction).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Lcg {
    state: u32,
}

/// LCG multiplier (Numerical Recipes).
pub const LCG_MUL: u32 = 1664525;
/// LCG increment (Numerical Recipes).
pub const LCG_ADD: u32 = 1013904223;

impl Lcg {
    /// Seeds the generator.
    pub fn new(seed: u32) -> Lcg {
        Lcg { state: seed }
    }

    /// Advances and returns the full 32-bit state.
    pub fn next_u32(&mut self) -> u32 {
        self.state = self.state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        self.state
    }

    /// A value in `0..bound` (bound must be nonzero). Uses the high bits,
    /// which have the longest period.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0);
        (self.next_u32() >> 8) % bound
    }
}

/// Writes `bytes` into `program`'s data segment at `label`, which the
/// source reserved with `label: .space <bytes.len()>`.
///
/// # Panics
///
/// Panics with a message naming `label` if the label is missing or lies
/// outside the data segment, if the span runs past the image, if another
/// label lies inside the span, or if any byte of the span is non-zero
/// (so it was not a `.space` reservation).
pub(crate) fn fill(program: &mut Program, label: &str, bytes: &[u8]) {
    let addr = program
        .symbol(label)
        .unwrap_or_else(|| panic!("fill `{label}`: no such label"));
    let base = program.data_base;
    let len = program.data.len();
    let start = match addr.checked_sub(base) {
        Some(off) if off as usize <= len => off as usize,
        _ => panic!("fill `{label}`: {addr:#x} lies outside the data segment"),
    };
    let end = start + bytes.len();
    if end > len {
        panic!(
            "fill `{label}`: {} bytes at offset {start} run past the {len}-byte image",
            bytes.len()
        );
    }
    let inside = |a: u32| {
        a.checked_sub(base)
            .is_some_and(|off| (start..end).contains(&(off as usize)))
    };
    if let Some(other) = program
        .symbols
        .iter()
        .find(|&(name, &a)| name != label && inside(a))
        .map(|(name, _)| name)
    {
        panic!("fill `{label}`: label `{other}` lies inside the span");
    }
    let span = &mut program.data[start..end];
    if let Some(k) = span.iter().position(|&b| b != 0) {
        panic!("fill `{label}`: byte {k} of the span is already non-zero");
    }
    span.copy_from_slice(bytes);
}

/// Little-endian bytes of `words`, as `.word` would lay them out.
pub(crate) fn word_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg::new(42);
        let mut b = Lcg::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut l = Lcg::new(7);
        for _ in 0..1000 {
            assert!(l.below(13) < 13);
        }
    }

    const FILL_SRC: &str = "main: halt\n.data\nhead: .word 7\nbuf: .space 8\ntail: .word 9\n";

    fn fill_panic(label: &str, bytes: &[u8]) -> String {
        let mut p = ntp_isa::asm::assemble(FILL_SRC).unwrap();
        let err = std::panic::catch_unwind(move || fill(&mut p, label, bytes))
            .expect_err("fill must refuse");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn fill_writes_at_the_label() {
        let mut p = ntp_isa::asm::assemble(FILL_SRC).unwrap();
        fill(&mut p, "buf", &word_bytes(&[0x0102_0304, 0xFFFF_FFFF]));
        let spelled = ntp_isa::asm::assemble(
            "main: halt\n.data\nhead: .word 7\nbuf: .word 0x01020304, 0xffffffff\ntail: .word 9\n",
        )
        .unwrap();
        assert_eq!(p.to_image(), spelled.to_image());
    }

    #[test]
    fn fill_refuses_a_missing_label() {
        let msg = fill_panic("nowhere", &[1]);
        assert!(
            msg.contains("`nowhere`") && msg.contains("no such label"),
            "{msg}"
        );
    }

    #[test]
    fn fill_refuses_a_label_outside_the_data_segment() {
        let msg = fill_panic("main", &[1]);
        assert!(msg.contains("`main`") && msg.contains("outside"), "{msg}");
    }

    #[test]
    fn fill_refuses_a_span_past_the_image() {
        let msg = fill_panic("tail", &[0; 5]);
        assert!(msg.contains("`tail`") && msg.contains("run past"), "{msg}");
    }

    #[test]
    fn fill_refuses_a_span_over_another_label() {
        let msg = fill_panic("buf", &[0; 9]);
        assert!(
            msg.contains("`buf`") && msg.contains("label `tail` lies inside"),
            "{msg}"
        );
    }

    #[test]
    fn fill_refuses_a_non_zero_span() {
        let msg = fill_panic("head", &[1; 4]);
        assert!(
            msg.contains("`head`") && msg.contains("byte 0 of the span"),
            "{msg}"
        );
    }
}
