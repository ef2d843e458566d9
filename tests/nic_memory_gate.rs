//! NIC-memory gate: the golden paper cell (128 hosts, 2 ms, L2BM, RDMA
//! 0.4 + TCP 0.8) must not pay one 48-byte queue entry per segment that
//! waits at a source NIC. DCTCP releases a whole window at a time, and
//! up to 30 905 packets wait in host FIFOs at once, 29 098 of them TCP
//! data. With one entry per packet this test peaked at 5.38–5.70 MB,
//! test harness included; with each run of consecutive segments in one
//! entry it peaked at 4.29–4.50 MB (13 runs each, alternated, release
//! build, 2-core x86-64 host). The bound sits between the two. Measured
//! again, 6 runs each: 4.33–4.39 MB with 48-byte run entries, 4.16–4.27
//! MB with 16-byte NIC send records.
//!
//! Alone in its file on purpose: `VmHWM` is the process's high-water
//! mark, so any other test in this binary would be charged to it.
//!
//! ```text
//! cargo test --release --test nic_memory_gate -- --nocapture
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
fn paper_cell_queues_a_window_per_entry_not_a_segment() {
    const BOUND_MB: f64 = 4.9;
    let point = run_hybrid(&HybridConfig {
        scale: ExperimentScale::paper().with_window(SimDuration::from_millis(2)),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    let peak = vm_hwm_mb();
    eprintln!("paper L2BM cell, RDMA 0.4 + TCP 0.8, 2 ms: VmHWM {peak:.2} MB");
    assert_eq!(
        point.results.unfinished_flows, 0,
        "the cell must run to completion"
    );
    assert!(
        peak < BOUND_MB,
        "peaked at {peak:.2} MB, bound {BOUND_MB} MB"
    );
}
