//! Measurement helpers: order statistics, the process CPU clock, process
//! counters read from `/proc`, and the fixed memory-touching reference
//! probe.

use std::time::Instant;

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`; 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive `values`; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` in `time.h`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// The process CPU clock in milliseconds, to the nanosecond: the time
/// all threads of the process, exited ones included, have run. Every
/// timing of the end-to-end metrics is read on this clock. On a shared
/// virtual machine the host takes the virtual CPUs away for stretches
/// (steal time: up to 40% of a second on a 2-vCPU Xeon guest); wall
/// time counts those stretches, the process CPU clock does not, since
/// the kernel charges steal time to no task.
pub fn cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`; the clock id is a
    // constant every Linux kernel supports.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(status, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Milliseconds of process CPU time since `start`, a [`cpu_ms`] reading.
pub fn cpu_ms_since(start: f64) -> f64 {
    cpu_ms() - start
}

/// The machine's total steal time so far, in clock ticks of 1/100 s
/// summed over its CPUs (`/proc/stat`): a diagnostic of how much CPU the
/// host took away during a run.
pub fn steal_ticks() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) in MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Caps glibc's malloc arenas at 2, the most threads that do work at
/// once. Left uncapped, glibc adds an arena whenever a thread finds the
/// others locked, so how many a run ends with, and with them up to half
/// of `serve_mix`'s peak RSS, depends on lock timing; capped, the peak
/// measures the program's own memory (±2% run to run instead of ±5%),
/// and no workload runs measurably slower.
pub fn cap_malloc_arenas() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        /// `M_ARENA_MAX` in glibc's `malloc.h`.
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` only sets an allocator tunable; it is called
        // first thing in `main`, before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 2);
        }
    }
}

/// Words in a `cpu_set_t` (glibc: 1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the process to the last CPU it may run on.
/// Every workload has one job in flight, and the thread that hands it to
/// a worker blocks until the reply, so one thread runs at a time; on one
/// CPU each hand-off is a switch on that CPU. Unpinned, on a 2-vCPU
/// Xeon guest of a shared host, each hand-off woke the other, halted
/// virtual CPU:
/// a cached `tune_sweep` job took 0.33 ms of CPU instead of 0.24, its
/// 90th percentile 0.57 ms instead of 0.30, and the host stole five
/// times as much time from the run.
pub fn pin_to_one_cpu() -> Result<(), String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 is this
    // thread, the only one at this point.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid mask of `size` bytes with one CPU the
    // process may already run on.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// Words in the probe's buffer: 8 MiB, larger than a typical last-level
/// cache share, so the probe feels the memory system as compiler work does.
const PROBE_WORDS: usize = 1 << 20;
/// The probe buffer's resident size in MB (the unit of [`peak_rss_mb`]).
pub const PROBE_MB: f64 = (PROBE_WORDS * 8) as f64 / (1024.0 * 1024.0);
/// Read-modify-write steps per probe.
const PROBE_STEPS: u64 = 1 << 21;

/// The fixed reference loop behind `env.probe_ms`: pseudo-random
/// read-modify-writes over an 8 MiB buffer. Its time moves only with the
/// machine, so a run taken during a slow phase shows as a high probe
/// time. Diagnostic only: no sample is ever rescaled by it. The buffer is
/// allocated and fully touched once, so it adds a constant [`PROBE_MB`]
/// to the peak RSS.
pub struct Probe {
    buffer: Vec<u64>,
}

impl Probe {
    /// Allocates and touches the probe's buffer.
    pub fn new() -> Probe {
        Probe {
            buffer: vec![1; PROBE_WORDS],
        }
    }

    /// Runs the reference loop once and returns its time in ms.
    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for step in 0..PROBE_STEPS {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let slot = (state >> 44) as usize;
            self.buffer[slot] = self.buffer[slot].wrapping_add(step);
        }
        std::hint::black_box(&self.buffer);
        ms_since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&values), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&values, 0.5), 3.0);
        assert_eq!(percentile(&values, 0.9), 5.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let start = cpu_ms();
        std::hint::black_box((0..std::hint::black_box(1_000_000u64)).sum::<u64>());
        assert!(cpu_ms_since(start) > 0.0);
    }
}
