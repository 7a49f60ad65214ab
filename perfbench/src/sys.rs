//! The scheduling and allocator calls the benchmark makes, declared
//! directly against the C library `std` already links.

use std::os::raw::{c_int, c_ulong};

extern "C" {
    fn prctl(option: c_int, arg2: c_ulong, arg3: c_ulong, arg4: c_ulong, arg5: c_ulong) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u8) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u8) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s, the
/// first of which is the peak resident set size in KiB.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: c_int = 0;

/// The process's peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable `struct rusage`.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return Err("getrusage failed".into());
    }
    Ok(usage.maxrss as f64 / 1024.0)
}

const M_ARENA_MAX: c_int = -8;
const M_MMAP_THRESHOLD: c_int = -3;

/// `mallopt(param, value)`, which must come before the process spawns
/// any thread.
fn tune_malloc(param: c_int, value: c_int, name: &str) -> Result<(), String> {
    // SAFETY: mallopt only adjusts allocator tuning.
    if unsafe { mallopt(param, value) } == 1 {
        Ok(())
    } else {
        Err(format!("mallopt({name}) failed"))
    }
}

/// Makes every thread allocate from one malloc arena. With one arena
/// per thread, peak RSS depended on which threads happened to allocate
/// first and moved by a tenth from run to run.
pub fn single_malloc_arena() -> Result<(), String> {
    tune_malloc(M_ARENA_MAX, 1, "M_ARENA_MAX")
}

/// Maps every block of 128 KiB or more on its own, and so turns off
/// malloc's own raising of that threshold. With it raised, the predictor
/// tables one serving set-up freed lingered as heap under the next, and
/// peak RSS depended on how they fragmented.
pub fn map_large_blocks() -> Result<(), String> {
    tune_malloc(M_MMAP_THRESHOLD, 128 << 10, "M_MMAP_THRESHOLD")
}

const PR_SET_TIMERSLACK: c_int = 29;
/// Bytes in a `cpu_set_t`.
const CPU_SET: usize = 128;

/// Lowers the calling thread's timer slack to 1 ns so the pacer's
/// sleeps end on time instead of up to the default 50 us late.
pub fn tighten_timer_slack() -> Result<(), String> {
    // SAFETY: PR_SET_TIMERSLACK reads one integer argument and changes
    // only the calling thread's timer slack.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!("prctl(PR_SET_TIMERSLACK) returned {rc}"))
    }
}

/// Binds the calling thread, and every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on, and returns that CPU.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u8; CPU_SET];
    // SAFETY: `mask` is a writable cpu_set_t of the size passed; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..CPU_SET * 8)
        .rev()
        .find(|c| mask[c / 8] >> (c % 8) & 1 == 1)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u8; CPU_SET];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable cpu_set_t of the size passed; pid 0 is
    // the calling thread.
    if unsafe { sched_setaffinity(0, CPU_SET, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity(cpu {cpu}) failed"));
    }
    Ok(cpu)
}
