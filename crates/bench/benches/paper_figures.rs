//! One bench per paper table/figure (scaled-down variants of the exact
//! experiment code the `repro` CLI runs at full size).

use std::hint::black_box;

use dcn_bench::{bench_n, bench_scale};
use dcn_experiments::{fig10, fig11, fig3a, fig7, fig8, fig9, table2, SweepOptions};

fn main() {
    let scale = bench_scale();
    let opts = SweepOptions::default();
    bench_n("fig3/fig3a_occupancy_tcp_vs_rdma", 3, || {
        black_box(fig3a(&scale, &opts))
    });
    bench_n("fig7/hybrid_sweep_load_0.4", 3, || {
        black_box(fig7(&scale, &[0.4], &opts))
    });
    bench_n("table2/pause_frames_loads_0.4_0.8", 3, || {
        black_box(table2(&scale, &[0.4, 0.8], &opts))
    });
    bench_n("fig8/tor_occupancy_cdfs", 3, || {
        black_box(fig8(&scale, &opts))
    });
    bench_n("fig9/fct_cdfs_high_load", 3, || {
        black_box(fig9(&scale, &opts))
    });
    bench_n("fig10/incast_deep_dive_n3", 3, || {
        black_box(fig10(&scale, 3, &opts))
    });
    bench_n("fig11/incast_degree_sweep_n2_n3", 3, || {
        black_box(fig11(&scale, &[2, 3], &opts))
    });
}
