//! Host readings recorded next to the measurements: a fixed CPU-bound
//! reference loop and the process's peak resident memory.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference loop: a few milliseconds on a current core.
const REF_ITERATIONS: u64 = 2_000_000;

/// Runs the fixed reference loop once and returns its wall time in
/// milliseconds.  It is recorded so a reader can tell a slow host phase
/// from a regression; no metric is divided by it.
pub fn ref_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc: u64 = 0;
    for i in 0..black_box(REF_ITERATIONS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The host's available parallelism.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads for a workload: `wanted`, but never more than the
/// host's cores.
pub fn workers(wanted: usize) -> usize {
    cores().min(wanted).max(1)
}
