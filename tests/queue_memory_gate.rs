//! Queue-memory gate: one small hybrid cell must fit in what its queued
//! packets need at once. With 104-byte queue entries and FIFOs that kept
//! the buffer of their deepest burst for the rest of the run, this test
//! peaked at 9.2–9.3 MB, test harness included; with 48-byte entries
//! and drained FIFOs giving their buffer back it peaks at 6.0–6.2 MB.
//! The bound is 0.75 × the former.
//!
//! Alone in its file on purpose: `VmHWM` is the process's high-water
//! mark, so any other test in this binary would be charged to it.
//!
//! ```text
//! cargo test --release --test queue_memory_gate -- --nocapture
//! ```

use dcn_experiments::{run_hybrid, ExperimentScale, HybridConfig};
use dcn_fabric::PolicyChoice;
use dcn_sim::SimDuration;

/// Peak resident set of this process so far, in MB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

#[test]
#[cfg_attr(
    any(debug_assertions, not(target_os = "linux")),
    ignore = "measures an optimized build and reads /proc/self/status"
)]
fn small_hybrid_cell_peaks_under_three_quarters_of_the_104_byte_layout() {
    const BOUND_MB: f64 = 6.9;
    let point = run_hybrid(&HybridConfig {
        scale: ExperimentScale::small().with_window(SimDuration::from_millis(10)),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    let peak = vm_hwm_mb();
    eprintln!("small L2BM cell, RDMA 0.4 + TCP 0.8, 10 ms: VmHWM {peak:.1} MB");
    assert_eq!(point.unfinished, 0, "the cell must run to completion");
    assert!(
        peak < BOUND_MB,
        "peaked at {peak:.1} MB, bound {BOUND_MB} MB"
    );
}
