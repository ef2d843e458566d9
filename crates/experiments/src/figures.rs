//! One entry point per paper figure/table. Each takes the figure's own
//! parameter (where it has one) and the [`SweepOptions`] its cells run
//! under, and returns an [`Outcome`]: the rendered panels plus every
//! replicate's digest. [`FIGURES`] binds each to the paper's grid, and
//! [`SWEEPS`] lists the three beyond-paper experiments.

use dcn_fabric::PolicyChoice;
use dcn_net::TrafficClass;

use crate::ablations::ablations;
use crate::fault::{chaos, irn};
use crate::hybrid::{tor_occupancy, HybridConfig, HybridPoint};
use crate::incast::{IncastConfig, IncastPoint};
use crate::paper_policies;
use crate::report::{fmt_bytes, fmt_f64, Outcome, Table};
use crate::scale::ExperimentScale;
use crate::sweep::{
    run_hybrid_cells, run_incast_cells, seed_cell, sweep_outcome, Replicate, SweepOptions,
};
use crate::tournament::tournament;

/// The TCP loads the paper sweeps in Fig. 7 (x-axis 0.1 → 0.8).
pub const FIG7_LOADS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
/// The loads of Table II's columns.
pub const TABLE2_LOADS: [f64; 5] = [0.4, 0.5, 0.6, 0.7, 0.8];
/// The incast degrees of Fig. 11.
pub const FIG11_FANOUTS: [usize; 3] = [5, 10, 15];

/// An experiment bound to its grid: it runs at a scale under a sweep's
/// options.
type Experiment = fn(&ExperimentScale, &SweepOptions) -> Outcome;

/// Every paper figure and table bound to the paper's grid, in `repro
/// all` order: `repro <name>` runs the row of that name.
pub const FIGURES: &[(&str, Experiment)] = &[
    ("fig3a", fig3a),
    ("fig3b", fig3b),
    ("fig7", |s, o| fig7(s, &FIG7_LOADS, o)),
    ("table2", |s, o| table2(s, &TABLE2_LOADS, o)),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", |s, o| fig10(s, 5, o)),
    ("fig11", |s, o| fig11(s, &FIG11_FANOUTS, o)),
    ("ablations", ablations),
];

/// The beyond-paper experiments: the fault battery, the lossless-vs-lossy
/// universe comparison and the six-policy tournament. Each asserts an
/// invariant battery, so its [`Outcome`] carries violations, and each
/// has a `repro <name> --check` gate. `repro all` does not run them.
pub const SWEEPS: &[(&str, Experiment)] =
    &[("chaos", chaos), ("irn", irn), ("tournament", tournament)];

/// A grid panel's columns: the header prefix, and each point's `(row
/// label, column key)`.
type Columns<P> = (&'static str, fn(&P) -> (&str, f64));

/// Columns of the load sweeps (Figs. 3(b), 7, Table II).
const BY_LOAD: Columns<HybridPoint> = ("load", |p| (p.label.as_str(), p.tcp_load));
/// Columns of the incast-degree sweep (Fig. 11).
const BY_FANOUT: Columns<IncastPoint> = ("N", |p| (p.label.as_str(), p.fanout as f64));

/// One panel of a sweep: a row per label (in cell order), a column per
/// distinct key (ascending), and in each cell `value` over that cell's
/// replicates.
fn render_grid<P>(
    title: &str,
    cells: &[Vec<P>],
    (prefix, key): Columns<P>,
    value: impl Fn(&[P]) -> String,
) -> String {
    // A cell's coordinates are its base replicate's.
    let mut keys: Vec<f64> = cells.iter().map(|reps| key(&reps[0]).1).collect();
    keys.sort_by(|a, b| a.partial_cmp(b).expect("column keys are finite"));
    keys.dedup();
    let mut header: Vec<String> = vec!["policy".into()];
    header.extend(keys.iter().map(|k| format!("{prefix}={k}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    let mut labels: Vec<&str> = cells.iter().map(|reps| key(&reps[0]).0).collect();
    labels.dedup();
    for label in labels {
        let mut row = vec![label.to_string()];
        for &k in &keys {
            let cell = cells
                .iter()
                .find(|reps| key(&reps[0]) == (label, k))
                .map(|reps| value(reps))
                .unwrap_or_else(|| "-".into());
            row.push(cell);
        }
        t.row(row);
    }
    format!("{title}\n{}", t.render())
}

/// A pause-frame cell (Fig. 7(d), Table II, Fig. 11(c)): a single run
/// prints its integer count.
fn pause_frames<P: Replicate>(reps: &[P]) -> String {
    let frames = |p: &P| p.results().pause_frames() as f64;
    seed_cell(reps, frames, fmt_f64, |x| x.to_string())
}

// --------------------------------------------------------------------
// Fig. 3(a)
// --------------------------------------------------------------------

/// Fig. 3(a): switch buffer occupancy of TCP-only vs RDMA-only traffic
/// under the same web-search workload (motivation: TCP hogs buffers),
/// one run each at load 0.6: mean/quantile/peak occupancy of the first
/// ToR.
pub fn fig3a(scale: &ExperimentScale, opts: &SweepOptions) -> Outcome {
    let load = 0.6;
    let cells = run_hybrid_cells(
        &[
            HybridConfig {
                scale: scale.clone(),
                policy: PolicyChoice::dt(),
                rdma_load: 0.0,
                tcp_load: load,
            },
            HybridConfig {
                scale: scale.clone(),
                policy: PolicyChoice::dt(),
                rdma_load: load,
                tcp_load: 0.0,
            },
        ],
        opts,
    );
    let mut t = Table::new(&["traffic", "mean", "p50", "p90", "p99", "peak"]);
    for (name, reps) in ["TCP", "RDMA"].into_iter().zip(&cells) {
        // The first ToR's series, the one `tor_occupancy` reads.
        let occupancy = &reps[0].results.occupancy;
        let s = occupancy.values().next().cloned().unwrap_or_default();
        t.row(vec![
            name.into(),
            fmt_bytes(s.mean()),
            fmt_bytes(s.quantile(0.5).unwrap_or(0.0)),
            fmt_bytes(s.quantile(0.9).unwrap_or(0.0)),
            fmt_bytes(s.quantile(0.99).unwrap_or(0.0)),
            fmt_bytes(s.peak().as_f64()),
        ]);
    }
    let text = format!(
        "Fig 3(a): ToR buffer occupancy, single-class web search @ load {load}\n{}",
        t.render()
    );
    sweep_outcome(text, &cells, scale.seed)
}

// --------------------------------------------------------------------
// Fig. 3(b)
// --------------------------------------------------------------------

/// Fig. 3(b): RDMA tail latency under hybrid traffic with the classic
/// policies only (DT, DT2, ABM) — the motivation figure.
pub fn fig3b(scale: &ExperimentScale, opts: &SweepOptions) -> Outcome {
    let mut cells = Vec::new();
    for policy in [PolicyChoice::dt(), PolicyChoice::dt2(), PolicyChoice::abm()] {
        for &load in &FIG7_LOADS {
            cells.push(HybridConfig::paper(scale, policy, load));
        }
    }
    let cells = run_hybrid_cells(&cells, opts);
    let text = render_grid(
        "Fig 3(b): 99% FCT slowdown of RDMA flows (motivation: DT/DT2/ABM)",
        &cells,
        BY_LOAD,
        |reps| seed_cell(reps, |p| p.rdma_p99_slowdown, fmt_f64, fmt_f64),
    );
    sweep_outcome(text, &cells, scale.seed)
}

// --------------------------------------------------------------------
// Fig. 7 and Table II
// --------------------------------------------------------------------

/// The Fig. 7 cell grid: all four policies × the given TCP loads.
fn fig7_cells(scale: &ExperimentScale, loads: &[f64]) -> Vec<HybridConfig> {
    let mut cells = Vec::new();
    for policy in paper_policies() {
        for &load in loads {
            cells.push(HybridConfig::paper(scale, policy, load));
        }
    }
    cells
}

/// Fig. 7: the headline hybrid sweep — all four policies over the given
/// TCP loads (the paper's are [`FIG7_LOADS`]), reporting (a) RDMA p99
/// slowdown, (b) TCP p99 slowdown, (c) ToR occupancy, (d) PFC pause
/// frames.
pub fn fig7(scale: &ExperimentScale, loads: &[f64], opts: &SweepOptions) -> Outcome {
    let cells = run_hybrid_cells(&fig7_cells(scale, loads), opts);
    let panel = |title: &str, value: fn(&HybridPoint) -> f64, fmt: fn(f64) -> String| {
        render_grid(title, &cells, BY_LOAD, |reps| {
            seed_cell(reps, value, fmt, fmt)
        })
    };
    let text = [
        panel(
            "Fig 7(a): 99% FCT slowdown, RDMA flows",
            |p| p.rdma_p99_slowdown,
            fmt_f64,
        ),
        panel(
            "Fig 7(b): 99% FCT slowdown, TCP flows",
            |p| p.tcp_p99_slowdown,
            fmt_f64,
        ),
        panel(
            "Fig 7(c): ToR buffer occupancy (p99 of 1 ms samples)",
            |p| p.tor_occupancy_p99,
            fmt_bytes,
        ),
        render_grid("Fig 7(d): PFC pause frames", &cells, BY_LOAD, |reps| {
            pause_frames(reps)
        }),
    ]
    .join("\n");
    sweep_outcome(text, &cells, scale.seed)
}

/// Table II: PFC pause-frame counts for all four policies over the
/// given load columns (the paper's are [`TABLE2_LOADS`]).
pub fn table2(scale: &ExperimentScale, loads: &[f64], opts: &SweepOptions) -> Outcome {
    let cells = run_hybrid_cells(&fig7_cells(scale, loads), opts);
    let text = render_grid(
        "Table II: number of PFC pause frames",
        &cells,
        BY_LOAD,
        pause_frames,
    );
    sweep_outcome(text, &cells, scale.seed)
}

// --------------------------------------------------------------------
// Fig. 8
// --------------------------------------------------------------------

/// Fig. 8: occupancy CDFs of every ToR switch at TCP load 0.8, per
/// policy: quantiles per (policy, ToR).
pub fn fig8(scale: &ExperimentScale, opts: &SweepOptions) -> Outcome {
    let cells = run_hybrid_cells(&fig7_cells(scale, &[0.8]), opts);
    let mut t = Table::new(&["policy", "tor", "p50", "p90", "p99", "peak"]);
    for p in cells.iter().map(|reps| &reps[0]) {
        // Every switch is sampled at once; the ToRs hold the lowest ids.
        for (tor, s) in p.results.occupancy.iter().take(scale.clos.tors) {
            t.row(vec![
                p.label.clone(),
                format!("{tor}"),
                fmt_bytes(s.quantile(0.5).unwrap_or(0.0)),
                fmt_bytes(s.quantile(0.9).unwrap_or(0.0)),
                fmt_bytes(s.quantile(0.99).unwrap_or(0.0)),
                fmt_bytes(s.peak().as_f64()),
            ]);
        }
    }
    let text = format!(
        "Fig 8: ToR occupancy CDFs @ TCP load 0.8 (1 ms samples)\n{}",
        t.render()
    );
    sweep_outcome(text, &cells, scale.seed)
}

// --------------------------------------------------------------------
// Fig. 9
// --------------------------------------------------------------------

/// Fig. 9: FCT CDFs of RDMA and TCP flows under high load (TCP load
/// 0.8), per policy: quantiles in ms for both classes.
pub fn fig9(scale: &ExperimentScale, opts: &SweepOptions) -> Outcome {
    let cells = run_hybrid_cells(&fig7_cells(scale, &[0.8]), opts);
    let mut t = Table::new(&[
        "policy", "class", "p50(ms)", "p90(ms)", "p99(ms)", "mean(ms)",
    ]);
    for p in cells.iter().map(|reps| &reps[0]) {
        for (class, name) in [
            (TrafficClass::Lossless, "RDMA"),
            (TrafficClass::Lossy, "TCP"),
        ] {
            let mut cdf = p.results.fct.fct_cdf(class);
            let q = |cdf: &mut dcn_metrics::Cdf, p: f64| {
                cdf.quantile(p).map(|v| v * 1e3).unwrap_or(f64::NAN)
            };
            let mean = cdf.mean().map(|v| v * 1e3).unwrap_or(f64::NAN);
            t.row(vec![
                p.label.clone(),
                name.into(),
                fmt_f64(q(&mut cdf, 0.5)),
                fmt_f64(q(&mut cdf, 0.9)),
                fmt_f64(q(&mut cdf, 0.99)),
                fmt_f64(mean),
            ]);
        }
    }
    let text = format!(
        "Fig 9: FCT CDFs under high load (TCP load 0.8)\n{}",
        t.render()
    );
    sweep_outcome(text, &cells, scale.seed)
}

// --------------------------------------------------------------------
// Fig. 10
// --------------------------------------------------------------------

/// Fig. 10: the incast deep dive with TCP background load 0.8 at the
/// given fanout (the paper's is 5, clamped to the responders a small
/// fabric has): (a) CDF of incast-flow slowdown, (b) query-delay error
/// bars, (c) ToR occupancy CDF.
pub fn fig10(scale: &ExperimentScale, fanout: usize, opts: &SweepOptions) -> Outcome {
    let cells: Vec<IncastConfig> = paper_policies()
        .into_iter()
        .map(|policy| IncastConfig::paper_defaults(scale.clone(), policy, fanout))
        .collect();
    let cells = run_incast_cells(&cells, opts);
    let points: Vec<&IncastPoint> = cells.iter().map(|reps| &reps[0]).collect();
    // The fanout the cells ran, clamped to the scale's responder pool.
    let fanout = points[0].fanout;
    let mut a = Table::new(&["policy", "frac(slowdown<=10)", "p50", "p90", "p99"]);
    for p in &points {
        let q = |v: f64| dcn_metrics::percentile(&p.incast_slowdowns, v).unwrap_or(f64::NAN);
        a.row(vec![
            p.label.clone(),
            fmt_f64(p.frac_slowdown_le_10),
            fmt_f64(q(0.5)),
            fmt_f64(q(0.9)),
            fmt_f64(q(0.99)),
        ]);
    }
    let mut b = Table::new(&[
        "policy",
        "mean(ms)",
        "min(ms)",
        "q25(ms)",
        "median(ms)",
        "q75(ms)",
        "max(ms)",
    ]);
    for p in &points {
        if let Some(e) = &p.query_delay {
            b.row(vec![
                p.label.clone(),
                fmt_f64(e.mean * 1e3),
                fmt_f64(e.min * 1e3),
                fmt_f64(e.q25 * 1e3),
                fmt_f64(e.median * 1e3),
                fmt_f64(e.q75 * 1e3),
                fmt_f64(e.max * 1e3),
            ]);
        }
    }
    let mut c = Table::new(&["policy", "occ p50", "occ p90", "occ p99"]);
    for p in &points {
        c.row(vec![
            p.label.clone(),
            fmt_bytes(tor_occupancy(&p.results, 0.5)),
            fmt_bytes(tor_occupancy(&p.results, 0.9)),
            fmt_bytes(p.tor_occupancy_p99),
        ]);
    }
    let text = format!(
        "Fig 10(a): CDF of incast FCT slowdown (N={fanout}, TCP bg 0.8)\n{}\n\
         Fig 10(b): query response delay error bars\n{}\n\
         Fig 10(c): ToR occupancy under incast\n{}",
        a.render(),
        b.render(),
        c.render()
    );
    sweep_outcome(text, &cells, scale.seed)
}

// --------------------------------------------------------------------
// Fig. 11
// --------------------------------------------------------------------

/// Fig. 11: the incast-degree sweep over the given fanouts (the paper's
/// are [`FIG11_FANOUTS`]): (a) 99% slowdown, (b) average query response
/// time, (c) PFC pause frames.
pub fn fig11(scale: &ExperimentScale, fanouts: &[usize], opts: &SweepOptions) -> Outcome {
    let mut cells = Vec::new();
    for policy in paper_policies() {
        for &n in fanouts {
            cells.push(IncastConfig::paper_defaults(scale.clone(), policy, n));
        }
    }
    // Degrees the scale clamps to one fanout run once.
    cells.dedup_by(|a, b| (a.policy, a.fanout) == (b.policy, b.fanout));
    let cells = run_incast_cells(&cells, opts);
    let query_ms = |x: f64| fmt_f64(x * 1e3);
    let a = render_grid(
        "Fig 11(a): 99% FCT slowdown of incast flows",
        &cells,
        BY_FANOUT,
        |reps| seed_cell(reps, |p| p.incast_p99_slowdown, fmt_f64, fmt_f64),
    );
    let b = render_grid(
        "Fig 11(b): average query response time (ms)",
        &cells,
        BY_FANOUT,
        |reps| {
            let mean_s = |p: &IncastPoint| p.query_delay.as_ref().map_or(f64::NAN, |e| e.mean);
            seed_cell(reps, mean_s, query_ms, query_ms)
        },
    );
    let c = render_grid("Fig 11(c): PFC pause frames", &cells, BY_FANOUT, |reps| {
        pause_frames(reps)
    });
    sweep_outcome(format!("{a}\n{b}\n{c}"), &cells, scale.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_tiny_renders_all_cells() {
        let out = fig7(&ExperimentScale::tiny(), &[0.4], &SweepOptions::default());
        assert_eq!(out.digests.len(), 4);
        assert_eq!(out.digests[0].0, "L2BM load=0.4 seed 42");
        for label in ["L2BM", "DT", "DT2", "ABM"] {
            assert!(
                out.text.contains(label),
                "missing {label} in:\n{}",
                out.text
            );
        }
        assert!(out.text.contains("Fig 7(a)"));
        assert!(out.text.contains("Fig 7(d)"));
    }

    /// Fig. 10(a)'s title names the fanout the cells ran: tiny scale
    /// clamps the paper's N=5 to its responder pool less one.
    #[test]
    fn fig10_title_prints_the_clamped_fanout() {
        let out = fig10(&ExperimentScale::tiny(), 5, &SweepOptions::default());
        assert!(out.text.contains("(N=3, TCP bg 0.8)"), "{}", out.text);
        assert_eq!(out.digests[0].0, "L2BM N=3 seed 42");
    }

    #[test]
    fn render_grid_orders_loads() {
        let out = fig7(
            &ExperimentScale::tiny(),
            &[0.4, 0.2],
            &SweepOptions::default(),
        );
        let a = out.text.find("load=0.2").expect("0.2 column");
        let b = out.text.find("load=0.4").expect("0.4 column");
        assert!(a < b, "columns must be sorted by load");
    }
}
