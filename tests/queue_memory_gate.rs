//! Queue-memory gate: one small hybrid cell must fit in what its queued
//! packets need at once. With one `VecDeque` per priority FIFO, each
//! giving its buffer back only after draining from above 1 024 slots,
//! this test peaked at 5.4–5.7 MB, test harness included; with every
//! FIFO a chain of 16-packet chunks from its switch's (or the hosts')
//! one packet pool it peaks at 4.1–4.3 MB. The bound is 0.8 × the
//! former.
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
fn small_hybrid_cell_peaks_under_four_fifths_of_per_fifo_buffers() {
    const BOUND_MB: f64 = 4.6;
    let point = run_hybrid(&HybridConfig {
        scale: ExperimentScale::small().with_window(SimDuration::from_millis(10)),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    let peak = vm_hwm_mb();
    eprintln!("small L2BM cell, RDMA 0.4 + TCP 0.8, 10 ms: VmHWM {peak:.1} MB");
    assert_eq!(
        point.results.unfinished_flows, 0,
        "the cell must run to completion"
    );
    assert!(
        peak < BOUND_MB,
        "peaked at {peak:.1} MB, bound {BOUND_MB} MB"
    );
}
