//! The path history register: a shift register of recent trace identifiers.

/// A bounded shift register of the most recent trace identifiers, newest
/// first.
///
/// Bounded predictors store 16-bit hashed identifiers
/// ([`ntp_trace::HashedId`]); the unbounded ("no aliasing") model stores full
/// packed identifiers (`u64`). The register is generic over the element so
/// both share the return-history-stack machinery.
///
/// Storage is a flat `Vec` kept newest-first (index 0 = newest): registers
/// are at most a few dozen elements, so a push is one small `memmove`, and
/// — unlike a ring buffer — every reader ([`Dolc::index`](crate::Dolc)'s
/// gather above all, which runs once per retired trace) sees a contiguous
/// slice with no wraparound arithmetic.
///
/// # Examples
///
/// ```
/// use ntp_core::PathHistory;
/// let mut h: PathHistory<u16> = PathHistory::new(3);
/// h.push(1);
/// h.push(2);
/// h.push(3);
/// h.push(4);
/// assert_eq!(h.iter_newest_first().copied().collect::<Vec<_>>(), vec![4, 3, 2]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathHistory<T> {
    /// Newest-first; `entries.len() <= cap` always.
    entries: Vec<T>,
    cap: usize,
}

impl<T: Copy> PathHistory<T> {
    /// Creates an empty history holding at most `cap` identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> PathHistory<T> {
        assert!(cap > 0, "history capacity must be nonzero");
        PathHistory {
            entries: Vec::with_capacity(cap),
            cap,
        }
    }

    /// The maximum number of identifiers retained.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Identifiers currently held (≤ capacity; fewer during warm-up).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no identifier has been pushed yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Shifts in the newest identifier, evicting the oldest if full.
    #[inline]
    pub fn push(&mut self, id: T) {
        if self.entries.len() == self.cap {
            // Steady state: shift everything down one slot (the oldest
            // falls off the end) and write the newcomer at the front.
            self.entries.copy_within(..self.cap - 1, 1);
            self.entries[0] = id;
        } else {
            // Warm-up: capacity was reserved up front, so this never
            // reallocates.
            self.entries.insert(0, id);
        }
    }

    /// The `i`-th most recent identifier (0 = newest).
    #[inline]
    pub fn get(&self, i: usize) -> Option<T> {
        self.entries.get(i).copied()
    }

    /// The most recent identifier.
    #[inline]
    pub fn newest(&self) -> Option<T> {
        self.get(0)
    }

    /// The whole register as a newest-first slice — the zero-cost read port
    /// index generation gathers from.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.entries
    }

    /// Iterates newest → oldest.
    pub fn iter_newest_first(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Snapshot of the whole register, newest first (used by
    /// [`crate::NextTracePredictor::save_state`]; the return history stack
    /// uses the allocation-free [`PathHistory::copy_into`] instead).
    pub fn snapshot(&self) -> Vec<T> {
        self.entries.clone()
    }

    /// Copies the register (newest first) into `buf` without allocating,
    /// returning how many identifiers were written. If `buf` is shorter
    /// than the register, only the newest `buf.len()` identifiers are
    /// copied.
    #[inline]
    pub fn copy_into(&self, buf: &mut [T]) -> usize {
        let n = self.entries.len().min(buf.len());
        buf[..n].copy_from_slice(&self.entries[..n]);
        n
    }

    /// Restores a snapshot taken with [`PathHistory::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is longer than this register's capacity.
    pub fn restore(&mut self, snapshot: &[T]) {
        assert!(snapshot.len() <= self.cap, "snapshot exceeds capacity");
        self.entries.clear();
        self.entries.extend_from_slice(snapshot);
    }

    /// Replaces all but the `keep` newest entries with identifiers from
    /// `saved` (a history snapshot from before a call), preserving order.
    ///
    /// This is the return-history-stack merge of §3.4: after a return, the
    /// history should reflect the path *before* the call plus the last one
    /// or two traces inside the subroutine.
    /// (Allocation-free: this runs once per returning trace on the replay
    /// hot path.)
    #[inline]
    pub fn merge_after_return(&mut self, keep: usize, saved: &[T]) {
        // Truncation keeps the *newest* identifiers (stored first).
        self.entries.truncate(keep.min(self.entries.len()));
        let room = self.cap - self.entries.len();
        let take = saved.len().min(room);
        self.entries.extend_from_slice(&saved[..take]);
    }

    /// Forgets everything (used between benchmark runs).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_evicts_oldest() {
        let mut h: PathHistory<u64> = PathHistory::new(2);
        h.push(10);
        h.push(20);
        h.push(30);
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(0), Some(30));
        assert_eq!(h.get(1), Some(20));
        assert_eq!(h.get(2), None);
        assert_eq!(h.newest(), Some(30));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut h: PathHistory<u16> = PathHistory::new(4);
        for v in [1u16, 2, 3] {
            h.push(v);
        }
        let snap = h.snapshot();
        h.push(9);
        h.push(8);
        h.restore(&snap);
        assert_eq!(h.snapshot(), vec![3, 2, 1]);
    }

    #[test]
    fn merge_keeps_newest_and_splices_saved() {
        let mut h: PathHistory<u16> = PathHistory::new(5);
        // Inside subroutine: newest-first [50, 40, 30, 20, 10].
        for v in [10u16, 20, 30, 40, 50] {
            h.push(v);
        }
        // Pre-call history snapshot [5, 4, 3, 2, 1].
        h.merge_after_return(2, &[5, 4, 3, 2, 1]);
        assert_eq!(h.snapshot(), vec![50, 40, 5, 4, 3]);
    }

    #[test]
    fn merge_with_short_saved_history() {
        let mut h: PathHistory<u16> = PathHistory::new(4);
        h.push(1);
        h.push(2);
        h.merge_after_return(1, &[9]);
        assert_eq!(h.snapshot(), vec![2, 9]);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _: PathHistory<u16> = PathHistory::new(0);
    }

    #[test]
    fn copy_into_matches_snapshot_and_truncates() {
        let mut h: PathHistory<u16> = PathHistory::new(4);
        for v in [1u16, 2, 3] {
            h.push(v);
        }
        let mut buf = [0u16; 8];
        let n = h.copy_into(&mut buf);
        assert_eq!(n, 3);
        assert_eq!(&buf[..n], h.snapshot().as_slice());

        let mut short = [0u16; 2];
        let n = h.copy_into(&mut short);
        assert_eq!(n, 2);
        assert_eq!(short, [3, 2], "newest two survive a short buffer");
    }
}
