//! The burst deep dive (paper §IV-B): RDMA incast queries against heavy
//! TCP background traffic. Prints per-policy query-latency error bars —
//! the paper's Fig. 10(b).
//!
//! ```text
//! cargo run --release --example incast_burst
//! ```

use dcn_experiments::{fmt_f64, paper_policies, run_incast, ExperimentScale, IncastConfig, Table};

fn main() {
    let scale = ExperimentScale::small();
    let fanout = 5;
    println!(
        "incast deep dive: x = 25% of buffer striped over N = {fanout} servers, \
         TCP background load 0.8, {} hosts\n",
        scale.host_count()
    );

    let mut table = Table::new(&[
        "policy",
        "queries",
        "mean delay (ms)",
        "median (ms)",
        "max (ms)",
        "p99 slowdown",
        "pause frames",
    ]);
    for policy in paper_policies() {
        let point = run_incast(&IncastConfig::paper_defaults(scale.clone(), policy, fanout));
        let eb = point.query_delay.expect("queries completed");
        table.row(vec![
            point.label.clone(),
            format!("{}/{}", point.completed_queries, point.queries),
            fmt_f64(eb.mean * 1e3),
            fmt_f64(eb.median * 1e3),
            fmt_f64(eb.max * 1e3),
            fmt_f64(point.incast_p99_slowdown),
            point.results.pause_frames().to_string(),
        ]);
    }
    println!("{}", table.render());
}
