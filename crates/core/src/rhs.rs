//! The return history stack (RHS), §3.4 of the paper.
//!
//! Control flow after a subroutine returns is tightly correlated with the
//! path *before* the call, but a long subroutine flushes that path out of the
//! history register. The RHS saves a copy of the history at each call and,
//! at the matching return, splices it back in — keeping only the newest one
//! or two identifiers from inside the subroutine.

use crate::PathHistory;

/// Configuration of a [`ReturnHistoryStack`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RhsConfig {
    /// Maximum saved histories (the paper uses a depth comfortably larger
    /// than any benchmark's call depth except xlisp's recursion; we default
    /// to 16).
    pub max_depth: usize,
}

impl Default for RhsConfig {
    fn default() -> RhsConfig {
        RhsConfig { max_depth: 16 }
    }
}

/// Maximum history-register capacity an inline RHS snapshot can hold.
///
/// Both predictors cap the register at `depth + 1 <= 8`; 16 leaves slack
/// for experimental configurations while keeping snapshots `Copy` and the
/// call/return hot path allocation-free.
pub const RHS_SNAPSHOT_CAP: usize = 16;

/// An inline (stack-allocated) path-history snapshot: the newest
/// [`RHS_SNAPSHOT_CAP`] identifiers plus a length. Copying one is a
/// fixed-size memcpy, so pushing at a call site never touches the heap.
#[derive(Copy, Clone, Debug)]
struct InlineSnapshot<T> {
    buf: [T; RHS_SNAPSHOT_CAP],
    len: u8,
}

impl<T: Copy + Default> InlineSnapshot<T> {
    fn capture(history: &PathHistory<T>) -> InlineSnapshot<T> {
        debug_assert!(
            history.capacity() <= RHS_SNAPSHOT_CAP,
            "history capacity {} exceeds the inline RHS snapshot ({RHS_SNAPSHOT_CAP})",
            history.capacity()
        );
        let mut buf = [T::default(); RHS_SNAPSHOT_CAP];
        let len = history.copy_into(&mut buf) as u8;
        InlineSnapshot { buf, len }
    }

    fn as_slice(&self) -> &[T] {
        &self.buf[..self.len as usize]
    }
}

/// A stack of path-history snapshots pushed at calls and popped at returns.
///
/// Generic over the history element so it serves both the bounded (hashed
/// IDs) and unbounded (full IDs) predictors. Snapshots are stored inline
/// (fixed [`RHS_SNAPSHOT_CAP`]-element arrays) and the stack itself is
/// preallocated at `max_depth`, so [`ReturnHistoryStack::on_trace`] — which
/// runs once per trace on the replay hot path — performs no heap
/// allocation.
#[derive(Clone, Debug)]
pub struct ReturnHistoryStack<T> {
    stack: Vec<InlineSnapshot<T>>,
    cfg: RhsConfig,
}

impl<T: Copy + Default> ReturnHistoryStack<T> {
    /// Creates an empty stack.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` is zero.
    pub fn new(cfg: RhsConfig) -> ReturnHistoryStack<T> {
        assert!(cfg.max_depth > 0, "RHS depth must be nonzero");
        ReturnHistoryStack {
            stack: Vec::with_capacity(cfg.max_depth),
            cfg,
        }
    }

    /// Current number of saved histories.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// How many of the newest in-subroutine identifiers survive a merge:
    /// one when the history holds five or fewer identifiers, two otherwise
    /// (§3.4).
    pub fn keep_for(history_capacity: usize) -> usize {
        if history_capacity <= 5 {
            1
        } else {
            2
        }
    }

    /// Reacts to a newly retired trace *after* it has been shifted into
    /// `history`: pushes one snapshot per net call, or pops and merges on a
    /// net return.
    ///
    /// A trace that both calls and returns (`calls >= 1 && ends_in_return`)
    /// nets out: `calls - 1` pushes and no pop.
    #[inline]
    pub fn on_trace(&mut self, history: &mut PathHistory<T>, calls: u8, ends_in_return: bool) {
        let mut net_calls = calls as i32;
        if ends_in_return {
            net_calls -= 1;
        }
        if net_calls >= 1 {
            let snap = InlineSnapshot::capture(history);
            for _ in 0..net_calls {
                if self.stack.len() == self.cfg.max_depth {
                    // Hardware would overwrite; we drop the *oldest* so the
                    // most recent calls still find their context.
                    self.stack.remove(0);
                }
                self.stack.push(snap); // Copy: no allocation
            }
        } else if net_calls < 0 {
            if let Some(saved) = self.stack.pop() {
                let keep = Self::keep_for(history.capacity());
                history.merge_after_return(keep, saved.as_slice());
            }
        }
    }

    /// Snapshot for [`crate::NextTracePredictor::save_state`]. (Saving is
    /// off the replay hot path, so the heap-allocated exchange format is
    /// fine.)
    pub fn snapshot(&self) -> Vec<Vec<T>> {
        self.stack.iter().map(|s| s.as_slice().to_vec()).collect()
    }

    /// Restores a snapshot taken with [`ReturnHistoryStack::snapshot`].
    ///
    /// # Panics
    ///
    /// Panics if a saved history exceeds [`RHS_SNAPSHOT_CAP`] identifiers.
    pub fn restore(&mut self, snapshot: Vec<Vec<T>>) {
        self.stack.clear();
        for saved in snapshot {
            assert!(
                saved.len() <= RHS_SNAPSHOT_CAP,
                "RHS snapshot of {} ids exceeds the inline capacity {RHS_SNAPSHOT_CAP}",
                saved.len()
            );
            let mut buf = [T::default(); RHS_SNAPSHOT_CAP];
            buf[..saved.len()].copy_from_slice(&saved);
            self.stack.push(InlineSnapshot {
                buf,
                len: saved.len() as u8,
            });
        }
    }

    /// Forgets everything.
    pub fn clear(&mut self) {
        self.stack.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(vals: &[u16], cap: usize) -> PathHistory<u16> {
        let mut h = PathHistory::new(cap);
        for &v in vals {
            h.push(v);
        }
        h
    }

    #[test]
    fn call_then_return_restores_pre_call_path() {
        let mut h = hist(&[1, 2, 3], 4); // newest-first [3,2,1]
        let mut rhs: ReturnHistoryStack<u16> = ReturnHistoryStack::new(RhsConfig::default());

        // Trace containing one call retires (already shifted in as `4`).
        h.push(4);
        rhs.on_trace(&mut h, 1, false);
        assert_eq!(rhs.depth(), 1);

        // Deep subroutine activity overwrites the register.
        for v in [100, 101, 102, 103] {
            h.push(v);
        }
        // Returning trace (no calls) retires as 104.
        h.push(104);
        rhs.on_trace(&mut h, 0, true);
        assert_eq!(rhs.depth(), 0);
        // cap=4 ⇒ keep 1 newest, splice pre-call snapshot [4,3,2].
        assert_eq!(h.snapshot(), vec![104, 4, 3, 2]);
    }

    #[test]
    fn keep_two_for_deep_histories() {
        assert_eq!(ReturnHistoryStack::<u16>::keep_for(5), 1);
        assert_eq!(ReturnHistoryStack::<u16>::keep_for(6), 2);
        let mut h = hist(&[1, 2, 3, 4, 5, 6], 6);
        let mut rhs: ReturnHistoryStack<u16> = ReturnHistoryStack::new(RhsConfig::default());
        h.push(7);
        rhs.on_trace(&mut h, 1, false); // snapshot [7,6,5,4,3,2]
        h.push(50);
        h.push(51);
        rhs.on_trace(&mut h, 0, true);
        assert_eq!(h.snapshot(), vec![51, 50, 7, 6, 5, 4]);
    }

    #[test]
    fn call_and_return_in_same_trace_cancels() {
        let mut h = hist(&[1], 4);
        let mut rhs: ReturnHistoryStack<u16> = ReturnHistoryStack::new(RhsConfig::default());
        rhs.on_trace(&mut h, 1, true);
        assert_eq!(rhs.depth(), 0);
        assert_eq!(h.snapshot(), vec![1]);
    }

    #[test]
    fn multiple_calls_push_multiple_copies() {
        let mut h = hist(&[9], 4);
        let mut rhs: ReturnHistoryStack<u16> = ReturnHistoryStack::new(RhsConfig::default());
        rhs.on_trace(&mut h, 3, false);
        assert_eq!(rhs.depth(), 3);
        // Three returns peel them off one at a time.
        for _ in 0..3 {
            rhs.on_trace(&mut h, 0, true);
        }
        assert_eq!(rhs.depth(), 0);
    }

    #[test]
    fn underflow_pop_is_harmless() {
        let mut h = hist(&[5, 6], 4);
        let mut rhs: ReturnHistoryStack<u16> = ReturnHistoryStack::new(RhsConfig::default());
        rhs.on_trace(&mut h, 0, true);
        assert_eq!(h.snapshot(), vec![6, 5], "history untouched on empty pop");
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut h = hist(&[1], 4);
        let mut rhs: ReturnHistoryStack<u16> = ReturnHistoryStack::new(RhsConfig { max_depth: 2 });
        h.push(10);
        rhs.on_trace(&mut h, 1, false);
        h.push(20);
        rhs.on_trace(&mut h, 1, false);
        h.push(30);
        rhs.on_trace(&mut h, 1, false); // overflows: snapshot(10) dropped
        assert_eq!(rhs.depth(), 2);
        h.push(99);
        rhs.on_trace(&mut h, 0, true);
        // Popped the snapshot taken after 30 was pushed: [30,20,10,1].
        assert_eq!(h.snapshot(), vec![99, 30, 20, 10]);
    }
}
