//! Experiment harness reproducing every table and figure of the L2BM
//! paper's evaluation (§IV).
//!
//! Each `figN`/`tableN` function runs the corresponding experiment and
//! returns an [`Outcome`]: the same rows/series the paper plots, plus
//! one labelled digest per run. [`FIGURES`] binds each to the paper's
//! grid and [`SWEEPS`] lists the three beyond-paper experiments
//! ([`chaos`], [`irn`], [`tournament`]); every row has one shape, and
//! the `repro` binary dispatches its subcommands from the two tables.
//!
//! | id | paper artifact | function |
//! |----|----------------|----------|
//! | fig3a | buffer occupancy, TCP-only vs RDMA-only | [`fig3a`] |
//! | fig3b | RDMA tail latency vs TCP load (DT/DT2/ABM) | [`fig3b`] |
//! | fig7  | hybrid sweep: RDMA/TCP p99 slowdown, occupancy, pauses | [`fig7`] |
//! | table2 | PFC pause frames per load × policy | [`table2`] |
//! | fig8  | occupancy CDF of the four ToR switches @ 0.8 | [`fig8`] |
//! | fig9  | FCT CDFs of RDMA and TCP flows @ 0.8 | [`fig9`] |
//! | fig10 | incast: slowdown CDF, query-delay error bars, occupancy CDF | [`fig10`] |
//! | fig11 | incast degree sweep N ∈ {5,10,15} | [`fig11`] |
//! | ablations | L2BM knobs and the DT α family | [`ablations`] |
//!
//! A sweep keeps every seed replicate ([`run_hybrid_cells`],
//! [`run_incast_cells`]); `mean±CI` is computed where a table cell is
//! rendered. Rows given one [`Runs`] store through their
//! [`SweepOptions`] simulate a cell they share once, fault cells
//! included: a cell is its own key.
//!
//! # Example
//!
//! ```no_run
//! use dcn_experiments::{fig7, ExperimentScale, SweepOptions, FIG7_LOADS};
//! let out = fig7(&ExperimentScale::small(), &FIG7_LOADS, &SweepOptions::new(2, 3));
//! println!("{}", out.text);
//! for (run, digest) in &out.digests {
//!     eprintln!("{run}: {digest:#x}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablations;
mod fault;
mod figures;
mod hybrid;
mod incast;
mod report;
mod scale;
mod sweep;
mod tournament;

pub use ablations::ablations;
pub use fault::{chaos, irn, sample_fault_schedule};
pub use figures::{
    fig10, fig11, fig3a, fig3b, fig7, fig8, fig9, table2, FIG11_FANOUTS, FIG7_LOADS, FIGURES,
    SWEEPS, TABLE2_LOADS,
};
pub use hybrid::{run_hybrid, HybridConfig, HybridPoint};
pub use incast::{run_incast, IncastConfig, IncastPoint};
pub use report::{fmt_bytes, fmt_f64, Outcome, Table};
pub use scale::ExperimentScale;
pub use sweep::{run_hybrid_cells, run_incast_cells, Runs, SweepOptions};
pub use tournament::tournament;

/// The four policies every comparison sweeps, in the paper's order.
pub fn paper_policies() -> Vec<dcn_fabric::PolicyChoice> {
    use dcn_fabric::PolicyChoice;
    vec![
        PolicyChoice::l2bm(),
        PolicyChoice::dt(),
        PolicyChoice::abm(),
        PolicyChoice::dt2(),
    ]
}

/// The full six-policy arena: the paper's four plus the extended
/// policies (Occamy's preemptive eviction, BShare's delay-target
/// sharing). This is the lineup the tournament, the chaos battery and
/// the invariant test suites sweep.
pub fn all_policies() -> Vec<dcn_fabric::PolicyChoice> {
    use dcn_fabric::PolicyChoice;
    let mut v = paper_policies();
    v.push(PolicyChoice::occamy());
    v.push(PolicyChoice::bshare());
    v
}
