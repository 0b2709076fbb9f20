//! The host-side instruments: wall clock, process CPU time, peak resident
//! memory. Everything the benchmark labels *host* is read here.

use std::time::Instant;

/// The single host-clock read of the benchmark.
#[inline]
pub fn now() -> Instant {
    // inc-lint: allow(wall-clock): the benchmark measures host time
    Instant::now()
}

/// Seconds from `start` to now.
pub fn secs_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64()
}

/// CPU seconds (user + system) this process has consumed, all threads.
///
/// `/proc/self/schedstat` has nanosecond resolution; where the kernel
/// does not provide it, `/proc/self/stat` does in clock ticks (10 ms).
pub fn cpu_seconds() -> f64 {
    if let Ok(s) = std::fs::read_to_string("/proc/self/schedstat") {
        if let Some(ns) = s
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
        {
            if ns > 0 {
                return ns as f64 / 1e9;
            }
        }
    }
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12 and 13 after the name.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
