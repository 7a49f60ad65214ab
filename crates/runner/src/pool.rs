//! The scoped-thread worker pool with ordered result merging.
//!
//! Jobs are the elements of an input slice; a job's identity is its index.
//! Workers pull the next unclaimed index from a shared atomic cursor
//! (work-stealing over a flat queue), run the job closure, and keep
//! `(index, result)` pairs locally. After the scope joins, results are
//! merged back into a `Vec` in **submission order**, so callers that format
//! output from the result vector produce byte-identical text at any thread
//! count.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Scheduling statistics for one [`map_ordered_stats`] run.
///
/// `busy` sums the wall-clock time spent inside job closures across all
/// workers, so `busy / wall` estimates the parallel speedup actually
/// realised versus running the same jobs serially (on an unloaded machine
/// the serial run would take ≈ `busy`).
///
/// **Caveat:** `busy` is thread *residency*, not CPU time (std has no
/// portable per-thread CPU clock). When the pool is oversubscribed —
/// more workers than available cores — descheduled time counts as busy
/// and inflates [`RunStats::speedup`]. Trust the estimate only when
/// `threads` ≤ physical cores; cross-check against the end-to-end wall
/// clock of a `NTP_THREADS=1` run when it matters.
#[derive(Clone, Copy, Debug)]
pub struct RunStats {
    /// Jobs executed.
    pub jobs: usize,
    /// Worker threads used (1 = serial path, no threads spawned).
    pub threads: usize,
    /// Wall-clock time from first claim to last merge.
    pub wall: Duration,
    /// Total time spent inside job closures, summed over workers.
    pub busy: Duration,
}

impl RunStats {
    /// Estimated speedup versus a serial run of the same jobs
    /// (`busy / wall`; 1.0 when `wall` is zero).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.busy.as_secs_f64() / wall
        }
    }
}

/// [`map_ordered_with`] at the [`crate::thread_count`] pool width.
pub fn map_ordered<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_ordered_with(crate::thread_count(), items, f)
}

/// [`map_ordered_stats`] discarding the statistics.
pub fn map_ordered_with<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_ordered_stats(threads, items, f).0
}

/// Runs `f(index, &items[index])` for every item on a pool of `threads`
/// scoped workers and returns the results in input order, plus scheduling
/// statistics.
///
/// * `threads <= 1` (or one item) takes the serial path: plain in-order
///   iteration on the calling thread, no threads spawned, no atomics.
/// * Otherwise `min(threads, items.len())` workers race a shared cursor.
///
/// The result vector is **identical** (not just equivalent) to the serial
/// `items.iter().enumerate().map(..)` for any thread count, as long as `f`
/// is a pure function of its arguments.
///
/// # Panics
///
/// Propagates the first worker panic after all workers have stopped.
pub fn map_ordered_stats<T, R, F>(threads: usize, items: &[T], f: F) -> (Vec<R>, RunStats)
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let start = Instant::now();
    if threads <= 1 || items.len() <= 1 {
        let results: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        let wall = start.elapsed();
        return (
            results,
            RunStats {
                jobs: items.len(),
                threads: 1,
                wall,
                busy: wall,
            },
        );
    }

    let workers = threads.min(items.len());
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let per_worker: Vec<(Vec<(usize, R)>, Duration)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut busy = Duration::ZERO;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let t0 = Instant::now();
                        let r = f(i, &items[i]);
                        busy += t0.elapsed();
                        out.push((i, r));
                    }
                    (out, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => panic::resume_unwind(payload),
            })
            .collect()
    });

    let mut busy = Duration::ZERO;
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (pairs, worker_busy) in per_worker {
        busy += worker_busy;
        for (i, r) in pairs {
            debug_assert!(slots[i].is_none(), "job {i} claimed twice");
            slots[i] = Some(r);
        }
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every job index claimed exactly once"))
        .collect();
    (
        results,
        RunStats {
            jobs: items.len(),
            threads: workers,
            wall: start.elapsed(),
            busy,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn ordered_merge_equals_serial_map_at_1_2_and_8_threads() {
        let items: Vec<u64> = (0..103).collect();
        let f = |i: usize, &x: &u64| -> u64 {
            // Index-dependent so a merge bug cannot cancel out.
            x.wrapping_mul(2654435761).rotate_left((i % 63) as u32) ^ i as u64
        };
        let serial: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for threads in [1usize, 2, 8] {
            let (got, stats) = map_ordered_stats(threads, &items, f);
            assert_eq!(got, serial, "threads={threads}");
            assert_eq!(stats.jobs, items.len());
            assert!(stats.threads <= threads.max(1));
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let items: Vec<usize> = (0..57).collect();
        let out = map_ordered_with(4, &items, |i, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 57);
        assert_eq!(out, items);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        let (out, stats) = map_ordered_stats(4, &empty, |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(stats.jobs, 0);
        assert_eq!(stats.threads, 1, "nothing to parallelise");

        let one = [7u32];
        assert_eq!(map_ordered_with(8, &one, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let result = panic::catch_unwind(|| {
            map_ordered_with(4, &items, |_, &x| {
                if x == 9 {
                    panic!("job 9 exploded");
                }
                x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn stats_are_sane() {
        let items: Vec<u32> = (0..8).collect();
        let (_, stats) = map_ordered_stats(2, &items, |_, &x| {
            std::thread::sleep(Duration::from_millis(1));
            x
        });
        assert_eq!(stats.jobs, 8);
        assert!(stats.busy >= Duration::from_millis(8));
        assert!(stats.speedup() > 0.0);
    }
}
