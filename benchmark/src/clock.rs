//! Wall-clock timing that refuses samples the host interrupted.
//!
//! The containers this benchmark runs in are guests on a shared host: the
//! hypervisor takes the CPU away for 3–25 ms about every 10 ms (measured
//! while sizing: 6–63 % of a given second), which lands in whatever op
//! was running. A single-threaded query loop can tell: its thread CPU
//! clock stops while it is descheduled, the wall clock does not. Ops are
//! therefore timed in small chunks, and a chunk whose wall time exceeds
//! its CPU time is run again later instead of being counted.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time consumed by the calling thread, in nanoseconds (a syscall,
/// ≈ 0.9 µs here — call it per chunk, not per op).
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target this benchmark supports)
    // and the clock id is a constant the kernel defines; the call writes
    // `ts` and touches nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A chunk counts as interrupted when it spent more than this off-CPU …
const MAX_OFF_CPU_NS: f64 = 20_000.0;
/// … and more than this share of its wall time.
const MAX_OFF_CPU_SHARE: f64 = 0.02;
/// A chunk is re-run at most this often before it is counted as it is,
/// so a saturated host degrades the numbers instead of hanging the run.
const MAX_RETRIES: u32 = 8;

/// One pass over `ops` in chunks of `chunk`, single-threaded.
#[derive(Debug, Default)]
pub struct PassTiming {
    /// Wall time of op `i`'s counted run, µs.
    pub latencies_us: Vec<f64>,
    /// Summed wall time of the counted chunks, seconds.
    pub busy_s: f64,
    /// Chunks that were re-run because the host interrupted them.
    pub interrupted_chunks: usize,
}

impl PassTiming {
    /// Counted ops per second of counted time.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies_us.len() as f64 / self.busy_s
    }
}

/// Runs `op(i)` for every `i in 0..ops`, `chunk` consecutive ops at a
/// time, timing each op on the wall clock. A chunk the host interrupted
/// goes to the back of the queue (so a retry does not find its own rows
/// still in cache) and only its clean run is counted.
pub fn timed_pass(ops: usize, chunk: usize, mut op: impl FnMut(usize)) -> PassTiming {
    let chunks = ops.div_ceil(chunk);
    let mut queue: std::collections::VecDeque<(usize, u32)> = (0..chunks).map(|c| (c, 0)).collect();
    let mut out = PassTiming { latencies_us: vec![0.0; ops], ..Default::default() };
    while let Some((c, tries)) = queue.pop_front() {
        let cpu0 = thread_cpu_ns();
        let start = Instant::now();
        let mut prev = start;
        for i in c * chunk..((c + 1) * chunk).min(ops) {
            op(i);
            let now = Instant::now();
            out.latencies_us[i] = (now - prev).as_nanos() as f64 / 1e3;
            prev = now;
        }
        let wall = (prev - start).as_nanos() as f64;
        let off_cpu = wall - (thread_cpu_ns() - cpu0) as f64;
        if off_cpu > MAX_OFF_CPU_NS.max(MAX_OFF_CPU_SHARE * wall) && tries < MAX_RETRIES {
            out.interrupted_chunks += 1;
            queue.push_back((c, tries + 1));
        } else {
            out.busy_s += wall / 1e9;
        }
    }
    out
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_counts_every_op_once() {
        let mut seen = [0u32; 37];
        let t = timed_pass(37, 8, |i| seen[i] += 1);
        assert_eq!(t.latencies_us.len(), 37);
        // Interrupted chunks re-run, so an op may execute more than once,
        // but each is counted exactly once.
        assert!(seen.iter().all(|&n| n >= 1));
        assert!(t.busy_s > 0.0 && t.ops_per_s() > 0.0);
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let a = thread_cpu_ns();
        let mut x = 1u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        assert!(thread_cpu_ns() > a, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
