//! Segmented byte-addressable memory for the TRISC machine.
//!
//! A segment's capacity is a fault limit, not an allocation. The data
//! segment holds its initialized image plus whatever the program stores
//! past it, grown in 4 KiB steps to the highest byte written; the stack
//! holds a buffer that ends at [`ntp_isa::STACK_TOP`], grown downward by
//! doubling to the deepest byte written. Bytes inside a capacity but
//! outside its buffer were never written and read as zero, so a program
//! sees exactly the memory it would see if every segment were allocated
//! and zero-filled up front.

use crate::SimError;
use ntp_isa::STACK_TOP;

/// Fault limits for a [`Memory`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Bytes of data segment (default 16 MiB). A limit, not an
    /// allocation: storage grows to the highest byte written, and
    /// untouched bytes read as zero.
    pub data_capacity: u32,
    /// Bytes of stack segment (default 4 MiB), growing down from
    /// [`ntp_isa::STACK_TOP`]. A limit, not an allocation: storage grows
    /// to the deepest byte written, and untouched bytes read as zero.
    pub stack_capacity: u32,
}

impl Default for MemoryConfig {
    fn default() -> MemoryConfig {
        MemoryConfig {
            data_capacity: 16 << 20,
            stack_capacity: 4 << 20,
        }
    }
}

/// Bytes the data segment grows by, and the stack's first allocation.
const PAGE: usize = 4096;

/// The segment an access lands in.
#[derive(Copy, Clone)]
enum Segment {
    Data,
    Stack,
    Text,
}

/// Byte-addressable memory with three segments: read-only text, a data
/// segment (initialized data + heap) and a downward-growing stack.
///
/// Accesses must be naturally aligned; unaligned or out-of-segment accesses
/// return [`SimError::MemFault`].
#[derive(Clone, Debug)]
pub struct Memory {
    text: Vec<u8>,
    text_base: u32,
    /// The data segment from `data_base` up to the highest page written.
    data: Vec<u8>,
    data_base: u32,
    data_capacity: u32,
    /// The stack from the deepest byte written up to `STACK_TOP`.
    stack: Vec<u8>,
    stack_capacity: u32,
}

impl Memory {
    /// Creates memory with the given text/data images and capacities.
    ///
    /// # Panics
    ///
    /// Panics if the initialized data image exceeds `config.data_capacity`,
    /// if a segment does not fit in the 32-bit address space, or if two
    /// segments overlap.
    pub fn new(
        text: Vec<u8>,
        text_base: u32,
        data_image: &[u8],
        data_base: u32,
        config: MemoryConfig,
    ) -> Memory {
        assert!(
            data_image.len() <= config.data_capacity as usize,
            "data image ({} bytes) exceeds data capacity ({})",
            data_image.len(),
            config.data_capacity
        );
        assert!(
            config.stack_capacity <= STACK_TOP,
            "stack segment of {:#x} bytes below {STACK_TOP:#x} starts below address 0",
            config.stack_capacity
        );
        let span = |base: u32, len: u64| (u64::from(base), u64::from(base) + len);
        let data = ("data", span(data_base, config.data_capacity.into()));
        let stack_base = STACK_TOP - config.stack_capacity;
        let stack = ("stack", span(stack_base, config.stack_capacity.into()));
        let code = ("text", span(text_base, text.len() as u64));
        for (name, (lo, hi)) in [data, code] {
            assert!(
                hi <= 1 << 32,
                "{name} segment [{lo:#x}, {hi:#x}) ends past 2^32"
            );
        }
        for ((a, (alo, ahi)), (b, (blo, bhi))) in [(data, stack), (data, code), (stack, code)] {
            assert!(
                ahi.min(bhi) <= alo.max(blo),
                "{a} segment [{alo:#x}, {ahi:#x}) overlaps {b} segment [{blo:#x}, {bhi:#x})"
            );
        }
        Memory {
            text,
            text_base,
            data: data_image.to_vec(),
            data_base,
            data_capacity: config.data_capacity,
            stack: Vec::new(),
            stack_capacity: config.stack_capacity,
        }
    }

    /// The segment that holds all of `[addr, addr + len)`, and the access's
    /// offset from that segment's lowest address; `None` is a fault.
    #[inline]
    fn locate(&self, addr: u32, len: u32) -> Option<(Segment, u32)> {
        // Every segment ends at or below 2^32, so an `addr` below `base`
        // wraps to an offset of at least `size` and fails the test.
        let within = |base: u32, size: u64| {
            let off = addr.wrapping_sub(base);
            (u64::from(off) + u64::from(len) <= size).then_some(off)
        };
        if let Some(off) = within(self.data_base, self.data_capacity.into()) {
            Some((Segment::Data, off))
        } else if let Some(off) =
            within(STACK_TOP - self.stack_capacity, self.stack_capacity.into())
        {
            Some((Segment::Stack, off))
        } else {
            within(self.text_base, self.text.len() as u64).map(|off| (Segment::Text, off))
        }
    }

    fn fault(addr: u32) -> SimError {
        SimError::MemFault { addr }
    }

    /// Reads the `N` bytes at `addr` (alignment already checked).
    #[inline]
    fn read<const N: usize>(&self, addr: u32) -> Result<[u8; N], SimError> {
        // The buffer holding the segment, and the index in it of the
        // access's first byte, which lies outside it when negative.
        let (buf, start) = match self.locate(addr, N as u32) {
            Some((Segment::Data, off)) => (&self.data, i64::from(off)),
            Some((Segment::Stack, off)) => (
                &self.stack,
                i64::from(off) + self.stack.len() as i64 - i64::from(self.stack_capacity),
            ),
            Some((Segment::Text, off)) => (&self.text, i64::from(off)),
            None => return Err(Self::fault(addr)),
        };
        if let Some(bytes) = usize::try_from(start).ok().and_then(|s| buf.get(s..s + N)) {
            return Ok(bytes.try_into().expect("a slice of N bytes"));
        }
        // Bytes outside the buffer were never written: they read as zero.
        Ok(std::array::from_fn(|i| {
            usize::try_from(start + i as i64)
                .ok()
                .and_then(|j| buf.get(j).copied())
                .unwrap_or(0)
        }))
    }

    /// Writes `bytes` at `addr` (alignment already checked), growing the
    /// data or stack buffer to hold them. Text is not writable.
    #[inline]
    fn write<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) -> Result<(), SimError> {
        let slot = match self.locate(addr, N as u32) {
            Some((Segment::Data, off)) => {
                let (start, end) = (off as usize, off as usize + N);
                if end > self.data.len() {
                    self.grow_data(end);
                }
                &mut self.data[start..end]
            }
            Some((Segment::Stack, off)) => {
                // Bytes from the access's first byte up to STACK_TOP.
                let depth = (self.stack_capacity - off) as usize;
                if depth > self.stack.len() {
                    self.grow_stack(depth);
                }
                let start = self.stack.len() - depth;
                &mut self.stack[start..start + N]
            }
            Some((Segment::Text, _)) | None => return Err(Self::fault(addr)),
        };
        slot.copy_from_slice(&bytes);
        Ok(())
    }

    /// Grows the data buffer to the first page boundary at or past `end`,
    /// at most to the capacity.
    #[cold]
    fn grow_data(&mut self, end: usize) {
        let len = end.next_multiple_of(PAGE).min(self.data_capacity as usize);
        self.data.resize(len, 0);
    }

    /// Grows the stack buffer downward, doubling from one page, until it
    /// holds the `depth` bytes below `STACK_TOP`, at most to the capacity.
    #[cold]
    fn grow_stack(&mut self, depth: usize) {
        let mut len = self.stack.len().max(PAGE);
        while len < depth {
            len *= 2;
        }
        let len = len.min(self.stack_capacity as usize);
        let mut grown = vec![0; len];
        grown[len - self.stack.len()..].copy_from_slice(&self.stack);
        self.stack = grown;
    }

    /// Loads a byte.
    #[inline]
    pub fn load8(&self, addr: u32) -> Result<u8, SimError> {
        self.read(addr).map(u8::from_le_bytes)
    }

    /// Loads a naturally-aligned halfword (little-endian).
    #[inline]
    pub fn load16(&self, addr: u32) -> Result<u16, SimError> {
        if addr & 1 != 0 {
            return Err(Self::fault(addr));
        }
        self.read(addr).map(u16::from_le_bytes)
    }

    /// Loads a naturally-aligned word (little-endian).
    #[inline]
    pub fn load32(&self, addr: u32) -> Result<u32, SimError> {
        if addr & 3 != 0 {
            return Err(Self::fault(addr));
        }
        self.read(addr).map(u32::from_le_bytes)
    }

    /// Stores a byte. Text is not writable.
    #[inline]
    pub fn store8(&mut self, addr: u32, v: u8) -> Result<(), SimError> {
        self.write(addr, [v])
    }

    /// Stores a naturally-aligned halfword.
    #[inline]
    pub fn store16(&mut self, addr: u32, v: u16) -> Result<(), SimError> {
        if addr & 1 != 0 {
            return Err(Self::fault(addr));
        }
        self.write(addr, v.to_le_bytes())
    }

    /// Stores a naturally-aligned word.
    #[inline]
    pub fn store32(&mut self, addr: u32, v: u32) -> Result<(), SimError> {
        if addr & 3 != 0 {
            return Err(Self::fault(addr));
        }
        self.write(addr, v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntp_isa::{DATA_BASE, TEXT_BASE};

    fn with(config: MemoryConfig) -> Memory {
        Memory::new(
            vec![1, 2, 3, 4],
            TEXT_BASE,
            &[10, 20, 30, 40],
            DATA_BASE,
            config,
        )
    }

    fn mem() -> Memory {
        with(MemoryConfig {
            data_capacity: 4096,
            stack_capacity: 4096,
        })
    }

    #[test]
    fn data_roundtrip() {
        let mut m = mem();
        m.store32(DATA_BASE + 8, 0xDEADBEEF).unwrap();
        assert_eq!(m.load32(DATA_BASE + 8).unwrap(), 0xDEADBEEF);
        m.store16(DATA_BASE + 12, 0xBEAD).unwrap();
        assert_eq!(m.load16(DATA_BASE + 12).unwrap(), 0xBEAD);
        m.store8(DATA_BASE + 14, 0x7F).unwrap();
        assert_eq!(m.load8(DATA_BASE + 14).unwrap(), 0x7F);
    }

    #[test]
    fn initialized_image_visible() {
        let m = mem();
        assert_eq!(
            m.load32(DATA_BASE).unwrap(),
            u32::from_le_bytes([10, 20, 30, 40])
        );
    }

    #[test]
    fn stack_accessible() {
        let mut m = mem();
        m.store32(STACK_TOP - 8, 99).unwrap();
        assert_eq!(m.load32(STACK_TOP - 8).unwrap(), 99);
    }

    #[test]
    fn text_readable_not_writable() {
        let mut m = mem();
        assert_eq!(
            m.load32(TEXT_BASE).unwrap(),
            u32::from_le_bytes([1, 2, 3, 4])
        );
        assert!(m.store32(TEXT_BASE, 0).is_err());
    }

    #[test]
    fn unaligned_faults() {
        let m = mem();
        assert!(m.load32(DATA_BASE + 1).is_err());
        assert!(m.load16(DATA_BASE + 1).is_err());
    }

    #[test]
    fn out_of_segment_faults() {
        let mut m = mem();
        assert!(m.load32(0).is_err());
        assert!(m.load32(DATA_BASE + 4096).is_err());
        assert!(m.store8(STACK_TOP - 4096 - 1, 0).is_err());
        assert!(m.load32(u32::MAX - 2).is_err());
    }

    #[test]
    fn cross_segment_end_faults() {
        let m = mem();
        // Word straddling the end of data capacity.
        assert!(m.load32(DATA_BASE + 4094).is_err());
    }

    #[test]
    fn storage_grows_only_to_what_is_written() {
        let mut m = with(MemoryConfig::default());
        assert_eq!((m.data.len(), m.stack.len()), (4, 0));
        // Untouched bytes inside the capacities read as zero.
        assert_eq!(m.load32(DATA_BASE + 10_000).unwrap(), 0);
        assert_eq!(m.load8(STACK_TOP - 1).unwrap(), 0);
        assert_eq!((m.data.len(), m.stack.len()), (4, 0));
        // Data grows to the page holding the highest byte written.
        m.store32(DATA_BASE + 10_000, 7).unwrap();
        assert_eq!(m.data.len(), 3 * PAGE);
        assert_eq!(m.load32(DATA_BASE).unwrap(), 0x281E_140A);
        // The stack grows from one page, doubling, below STACK_TOP.
        m.store32(STACK_TOP - 4, 1).unwrap();
        assert_eq!(m.stack.len(), PAGE);
        m.store8(STACK_TOP - PAGE as u32 - 1, 2).unwrap();
        assert_eq!(m.stack.len(), 2 * PAGE);
        m.store16(STACK_TOP - 5 * PAGE as u32, 3).unwrap();
        assert_eq!(m.stack.len(), 8 * PAGE);
        assert_eq!(m.load32(STACK_TOP - 4).unwrap(), 1);
        assert_eq!(m.load8(STACK_TOP - PAGE as u32 - 1).unwrap(), 2);
        assert_eq!(m.load16(STACK_TOP - 5 * PAGE as u32).unwrap(), 3);
        assert_eq!(m.load32(DATA_BASE + 10_000).unwrap(), 7);
    }

    #[test]
    fn layouts_in_use_construct() {
        for (data_capacity, stack_capacity) in [
            (4096, 4096),
            (1 << 16, 1 << 16),
            (4096, 64 * 128),
            (16 << 20, 4 << 20),
        ] {
            with(MemoryConfig {
                data_capacity,
                stack_capacity,
            });
        }
    }

    #[test]
    #[should_panic(
        expected = "data segment [0x10000000, 0x100000000) overlaps stack segment [0x7fbfff00, 0x7fffff00)"
    )]
    fn data_to_the_top_of_memory_is_refused() {
        with(MemoryConfig {
            data_capacity: 0xF000_0000,
            ..MemoryConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "data segment [0x10000000, 0x100000004) ends past 2^32")]
    fn data_past_the_address_space_is_refused() {
        with(MemoryConfig {
            data_capacity: 0xF000_0004,
            ..MemoryConfig::default()
        });
    }

    #[test]
    #[should_panic(
        expected = "stack segment of 0x80000000 bytes below 0x7fffff00 starts below address 0"
    )]
    fn stack_larger_than_its_top_is_refused() {
        with(MemoryConfig {
            stack_capacity: 0x8000_0000,
            ..MemoryConfig::default()
        });
    }

    #[test]
    #[should_panic(
        expected = "data segment [0x10000000, 0x80000000) overlaps stack segment [0x7fbfff00, 0x7fffff00)"
    )]
    fn data_over_the_stack_is_refused() {
        with(MemoryConfig {
            data_capacity: 0x7000_0000,
            ..MemoryConfig::default()
        });
    }
}
