//! Scale gate: a k = 32 fat-tree (8192 hosts, 1280 switches) must be
//! cheap to set up. With one route `Vec` per (node, host) it took 41 s
//! and 4.5 GB; the anchor-indexed table, with leaf rows filled rather
//! than searched, takes ≈ 0.1 s and ≈ 43 MB (2-core host).
//!
//! Alone in its file on purpose: `VmHWM` is the process's high-water
//! mark, so any other test in this binary would be charged to it.
//!
//! ```text
//! cargo test --release --test scale_gate
//! ```

use std::time::Instant;

use dcn_fabric::{FabricConfig, FabricSim};
use dcn_net::{FatTreeConfig, Topology};

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
    ignore = "times an optimized build and reads /proc/self/status"
)]
fn k32_fat_tree_fabric_builds_in_2s_and_256mb() {
    let t0 = Instant::now();
    let topo = Topology::fat_tree(&FatTreeConfig::new(32));
    let sim = FabricSim::new(topo, FabricConfig::default());
    let took = t0.elapsed().as_secs_f64();
    let peak = vm_hwm_mb();
    eprintln!("k=32 FabricSim::new: {took:.3} s, VmHWM {peak:.1} MB");
    assert_eq!(sim.world().topology().hosts().count(), 8192);
    assert!(took < 2.0, "k=32 set-up took {took:.2} s");
    assert!(peak < 256.0, "k=32 set-up peaked at {peak:.0} MB");
}
