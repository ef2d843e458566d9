//! The paper's headline scenario: RDMA and TCP share a clos fabric's
//! switch buffers, and the buffer-management policy decides whether TCP
//! starves the lossless class.
//!
//! Runs the same hybrid web-search workload (RDMA at load 0.4, TCP at
//! load 0.8) under all four policies and prints the Fig. 7-style
//! comparison.
//!
//! ```text
//! cargo run --release --example hybrid_isolation
//! ```

use dcn_experiments::{fmt_bytes, fmt_f64, paper_policies, ExperimentScale, HybridConfig, Table};

fn main() {
    let scale = ExperimentScale::small();
    println!(
        "hybrid web search on a {}-host clos ({} window, seed {})\n",
        scale.host_count(),
        scale.window,
        scale.seed
    );

    let mut table = Table::new(&[
        "policy",
        "rdma p99 slowdown",
        "tcp p99 slowdown",
        "occupancy p99",
        "pause frames",
        "lossy drops",
    ]);
    for policy in paper_policies() {
        let point = dcn_experiments::run_hybrid(&HybridConfig {
            scale: scale.clone(),
            policy,
            rdma_load: 0.4,
            tcp_load: 0.8,
        });
        let r = &point.results;
        assert_eq!(
            r.drops.lossless_packets, 0,
            "lossless traffic must never drop"
        );
        table.row(vec![
            point.label.clone(),
            fmt_f64(point.rdma_p99_slowdown),
            fmt_f64(point.tcp_p99_slowdown),
            fmt_bytes(point.tor_occupancy_p99),
            r.pause_frames().to_string(),
            r.drops.lossy_packets.to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(run `repro fig7 --scale paper` for the full-size sweep)");
}
