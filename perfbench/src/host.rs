//! What the benchmark reads about its own process and host.

use std::fs;

/// Kernel clock ticks per second. `/proc/self/stat` counts CPU time in
/// these; every Linux ABI this repository builds for fixes it at 100,
/// and the build has no libc crate to ask `sysconf`.
const CLK_TCK: f64 = 100.0;

/// Cores the host grants this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads a workload may use: never more than two (the benchmark's
/// definition) and never more than the host has.
pub fn thread_cap() -> usize {
    host_cores().min(2)
}

/// User plus system CPU seconds this process has used, all threads,
/// including threads that already exited.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis. utime and stime are fields 14, 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut ticks = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (ticks(), ticks()) {
        (Some(user), Some(system)) => (user + system) / CLK_TCK,
        _ => 0.0,
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MB
/// (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_plausible() {
        assert!(host_cores() >= 1);
        assert!((1..=2).contains(&thread_cap()));
        assert!(peak_rss_mb() > 0.5, "a test binary is resident");
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() < before + 0.02 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(cpu_seconds() > before);
    }
}
