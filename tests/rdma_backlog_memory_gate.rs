//! RDMA-backlog memory gate: one small hybrid cell run for 50 ms (L2BM,
//! RDMA 0.4 + TCP 0.8) must not pay a 48-byte queue entry for every
//! packet that waits at a source NIC. Paced DCQCN flows sharing a host
//! interleave packet by packet, so runs of segments barely shorten that
//! backlog. With a switch-style entry per waiting packet this test
//! peaked at 5.45–5.57 MB, test harness included; with a 16-byte send
//! record per packet, built into the packet when the NIC starts it, it
//! peaks at 4.59–4.69 MB (8 runs each, alternated, release build,
//! 2-core x86-64 host). The bound sits between the two.
//!
//! Alone in its file on purpose: `VmHWM` is the process's high-water
//! mark, so any other test in this binary would be charged to it.
//!
//! ```text
//! cargo test --release --test rdma_backlog_memory_gate -- --nocapture
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
fn paced_rdma_backlog_costs_a_send_record_per_packet() {
    const BOUND_MB: f64 = 5.0;
    let point = run_hybrid(&HybridConfig {
        scale: ExperimentScale::small().with_window(SimDuration::from_millis(50)),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    let peak = vm_hwm_mb();
    eprintln!("small L2BM cell, RDMA 0.4 + TCP 0.8, 50 ms: VmHWM {peak:.2} MB");
    assert_eq!(
        point.results.unfinished_flows, 0,
        "the cell must run to completion"
    );
    assert!(
        peak < BOUND_MB,
        "peaked at {peak:.2} MB, bound {BOUND_MB} MB"
    );
}
