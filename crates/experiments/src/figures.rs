//! One entry point per paper figure/table. Each takes the figure's own
//! parameter (where it has one) and the [`SweepOptions`] its cells run
//! under; `SweepOptions::default()` with [`FIG7_LOADS`],
//! [`TABLE2_LOADS`] and [`FIG11_FANOUTS`] is the paper's sweep, serial
//! and single-seed.

use dcn_fabric::PolicyChoice;
use dcn_metrics::OccupancySeries;
use dcn_net::{NodeId, Topology, TrafficClass};

use crate::hybrid::{HybridConfig, HybridPoint};
use crate::incast::{IncastConfig, IncastPoint};
use crate::paper_policies;
use crate::report::{fmt_bytes, fmt_f64, Table};
use crate::scale::ExperimentScale;
use crate::sweep::{fmt_stat, run_hybrid_cells, run_incast_cells, SweepOptions};

/// The TCP loads the paper sweeps in Fig. 7 (x-axis 0.1 → 0.8).
pub const FIG7_LOADS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
/// The loads of Table II's columns.
pub const TABLE2_LOADS: [f64; 5] = [0.4, 0.5, 0.6, 0.7, 0.8];
/// The incast degrees of Fig. 11.
pub const FIG11_FANOUTS: [usize; 3] = [5, 10, 15];

// --------------------------------------------------------------------
// Fig. 3(a)
// --------------------------------------------------------------------

/// Fig. 3(a): switch buffer occupancy of TCP-only vs RDMA-only traffic
/// under the same web-search workload (motivation: TCP hogs buffers).
#[derive(Debug)]
pub struct Fig3aReport {
    /// Occupancy trace of the first ToR under TCP-only traffic.
    pub tcp: OccupancySeries,
    /// Occupancy trace of the first ToR under RDMA-only traffic.
    pub rdma: OccupancySeries,
    /// Load used for both runs.
    pub load: f64,
}

impl Fig3aReport {
    /// Renders mean/quantile/peak occupancy for both classes.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["traffic", "mean", "p50", "p90", "p99", "peak"]);
        for (name, s) in [("TCP", &self.tcp), ("RDMA", &self.rdma)] {
            t.row(vec![
                name.into(),
                fmt_bytes(s.mean()),
                fmt_bytes(s.quantile(0.5).unwrap_or(0.0)),
                fmt_bytes(s.quantile(0.9).unwrap_or(0.0)),
                fmt_bytes(s.quantile(0.99).unwrap_or(0.0)),
                fmt_bytes(s.peak().as_f64()),
            ]);
        }
        format!(
            "Fig 3(a): ToR buffer occupancy, single-class web search @ load {}\n{}",
            self.load,
            t.render()
        )
    }
}

fn first_tor_series(point: &HybridPoint, topo_first_switch: NodeId) -> OccupancySeries {
    point
        .results
        .occupancy
        .get(&topo_first_switch)
        .cloned()
        .unwrap_or_default()
}

/// Runs Fig. 3(a): one TCP-only and one RDMA-only run at the same load.
pub fn fig3a(scale: &ExperimentScale, opts: &SweepOptions) -> Fig3aReport {
    let load = 0.6;
    let topo = Topology::clos(&scale.clos);
    let first = topo.switches().next().expect("clos has switches");
    let cells = vec![
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
    ];
    let mut points = run_hybrid_cells(&cells, opts);
    let rdma_point = points.pop().expect("two cells");
    let tcp_point = points.pop().expect("two cells");
    Fig3aReport {
        tcp: first_tor_series(&tcp_point, first),
        rdma: first_tor_series(&rdma_point, first),
        load,
    }
}

// --------------------------------------------------------------------
// Fig. 3(b)
// --------------------------------------------------------------------

/// Fig. 3(b): RDMA tail latency under hybrid traffic with the classic
/// policies only (DT, DT2, ABM) — the motivation figure.
#[derive(Debug)]
pub struct Fig3bReport {
    /// One point per (policy, load).
    pub points: Vec<HybridPoint>,
}

impl Fig3bReport {
    /// Renders the 99% RDMA FCT slowdown series.
    pub fn render(&self) -> String {
        render_series(
            "Fig 3(b): 99% FCT slowdown of RDMA flows (motivation: DT/DT2/ABM)",
            &self.points,
            |p| {
                fmt_stat(
                    p.stats.as_ref().and_then(|s| s.rdma_p99_slowdown.as_ref()),
                    fmt_f64(p.rdma_p99_slowdown),
                )
            },
        )
    }
}

/// Runs Fig. 3(b).
pub fn fig3b(scale: &ExperimentScale, opts: &SweepOptions) -> Fig3bReport {
    let mut cells = Vec::new();
    for policy in [PolicyChoice::dt(), PolicyChoice::dt2(), PolicyChoice::abm()] {
        for &load in &FIG7_LOADS {
            cells.push(HybridConfig {
                scale: scale.clone(),
                policy,
                rdma_load: 0.4,
                tcp_load: load,
            });
        }
    }
    Fig3bReport {
        points: run_hybrid_cells(&cells, opts),
    }
}

// --------------------------------------------------------------------
// Fig. 7 and Table II
// --------------------------------------------------------------------

/// Fig. 7: the headline hybrid sweep — all four policies × TCP loads,
/// reporting (a) RDMA p99 slowdown, (b) TCP p99 slowdown, (c) ToR
/// occupancy, (d) PFC pause frames.
#[derive(Debug)]
pub struct Fig7Report {
    /// One point per (policy, load).
    pub points: Vec<HybridPoint>,
}

fn render_series(
    title: &str,
    points: &[HybridPoint],
    value: impl Fn(&HybridPoint) -> String,
) -> String {
    // Collect the distinct loads in order.
    let mut loads: Vec<f64> = points.iter().map(|p| p.tcp_load).collect();
    loads.sort_by(|a, b| a.partial_cmp(b).expect("loads are finite"));
    loads.dedup();
    let mut header: Vec<String> = vec!["policy".into()];
    header.extend(loads.iter().map(|l| format!("load={l}")));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut t = Table::new(&header_refs);

    let mut labels: Vec<String> = points.iter().map(|p| p.label.clone()).collect();
    labels.dedup();
    for label in labels {
        let mut row = vec![label.clone()];
        for &l in &loads {
            let cell = points
                .iter()
                .find(|p| p.label == label && (p.tcp_load - l).abs() < 1e-9)
                .map(&value)
                .unwrap_or_else(|| "-".into());
            row.push(cell);
        }
        t.row(row);
    }
    format!("{title}\n{}", t.render())
}

impl Fig7Report {
    /// Renders all four panels.
    pub fn render(&self) -> String {
        let a = render_series(
            "Fig 7(a): 99% FCT slowdown, RDMA flows",
            &self.points,
            |p| {
                fmt_stat(
                    p.stats.as_ref().and_then(|s| s.rdma_p99_slowdown.as_ref()),
                    fmt_f64(p.rdma_p99_slowdown),
                )
            },
        );
        let b = render_series("Fig 7(b): 99% FCT slowdown, TCP flows", &self.points, |p| {
            fmt_stat(
                p.stats.as_ref().and_then(|s| s.tcp_p99_slowdown.as_ref()),
                fmt_f64(p.tcp_p99_slowdown),
            )
        });
        let c = render_series(
            "Fig 7(c): ToR buffer occupancy (p99 of 1 ms samples)",
            &self.points,
            |p| match p.stats.as_ref().and_then(|s| s.tor_occupancy_p99.as_ref()) {
                Some(s) if s.n > 1 => {
                    format!("{}±{}", fmt_bytes(s.mean), fmt_bytes(s.ci95_half))
                }
                _ => fmt_bytes(p.tor_occupancy_p99),
            },
        );
        let d = render_series("Fig 7(d): PFC pause frames", &self.points, |p| {
            fmt_stat(
                p.stats.as_ref().and_then(|s| s.pause_frames.as_ref()),
                p.pause_frames.to_string(),
            )
        });
        format!("{a}\n{b}\n{c}\n{d}")
    }
}

/// The Fig. 7 cell grid: all four policies × the given TCP loads.
fn fig7_cells(scale: &ExperimentScale, loads: &[f64]) -> Vec<HybridConfig> {
    let mut cells = Vec::new();
    for policy in paper_policies() {
        for &load in loads {
            cells.push(HybridConfig {
                scale: scale.clone(),
                policy,
                rdma_load: 0.4,
                tcp_load: load,
            });
        }
    }
    cells
}

/// Runs the Fig. 7 sweep over the given TCP loads (the paper's are
/// [`FIG7_LOADS`]).
pub fn fig7(scale: &ExperimentScale, loads: &[f64], opts: &SweepOptions) -> Fig7Report {
    Fig7Report {
        points: run_hybrid_cells(&fig7_cells(scale, loads), opts),
    }
}

/// Table II: PFC pause-frame counts at loads 0.4–0.8 for all policies.
#[derive(Debug)]
pub struct Table2Report {
    /// One point per (policy, load).
    pub points: Vec<HybridPoint>,
}

impl Table2Report {
    /// Renders the table in the paper's layout.
    pub fn render(&self) -> String {
        render_series("Table II: number of PFC pause frames", &self.points, |p| {
            fmt_stat(
                p.stats.as_ref().and_then(|s| s.pause_frames.as_ref()),
                p.pause_frames.to_string(),
            )
        })
    }

    /// Pause frames for (policy label, load), if that cell was run.
    pub fn pause_frames(&self, label: &str, load: f64) -> Option<u64> {
        self.points
            .iter()
            .find(|p| p.label == label && (p.tcp_load - load).abs() < 1e-9)
            .map(|p| p.pause_frames)
    }
}

/// Runs Table II over the given load columns (the paper's are
/// [`TABLE2_LOADS`]).
pub fn table2(scale: &ExperimentScale, loads: &[f64], opts: &SweepOptions) -> Table2Report {
    Table2Report {
        points: run_hybrid_cells(&fig7_cells(scale, loads), opts),
    }
}

// --------------------------------------------------------------------
// Fig. 8
// --------------------------------------------------------------------

/// Fig. 8: occupancy CDFs of every ToR switch at TCP load 0.8, per
/// policy.
#[derive(Debug)]
pub struct Fig8Report {
    /// (policy label, ToR id, occupancy trace).
    pub series: Vec<(String, NodeId, OccupancySeries)>,
}

impl Fig8Report {
    /// Renders occupancy quantiles per (policy, ToR).
    pub fn render(&self) -> String {
        let mut t = Table::new(&["policy", "tor", "p50", "p90", "p99", "peak"]);
        for (label, tor, s) in &self.series {
            t.row(vec![
                label.clone(),
                format!("{tor}"),
                fmt_bytes(s.quantile(0.5).unwrap_or(0.0)),
                fmt_bytes(s.quantile(0.9).unwrap_or(0.0)),
                fmt_bytes(s.quantile(0.99).unwrap_or(0.0)),
                fmt_bytes(s.peak().as_f64()),
            ]);
        }
        format!(
            "Fig 8: ToR occupancy CDFs @ TCP load 0.8 (1 ms samples)\n{}",
            t.render()
        )
    }
}

/// Runs Fig. 8.
pub fn fig8(scale: &ExperimentScale, opts: &SweepOptions) -> Fig8Report {
    let topo = Topology::clos(&scale.clos);
    let tors: Vec<NodeId> = topo.switches().take(scale.clos.tors).collect();
    let cells = fig7_cells(scale, &[0.8]);
    let mut series = Vec::new();
    for p in run_hybrid_cells(&cells, opts) {
        for &tor in &tors {
            let s = p.results.occupancy.get(&tor).cloned().unwrap_or_default();
            series.push((p.label.clone(), tor, s));
        }
    }
    Fig8Report { series }
}

// --------------------------------------------------------------------
// Fig. 9
// --------------------------------------------------------------------

/// Fig. 9: FCT CDFs of RDMA and TCP flows under high load, per policy.
#[derive(Debug)]
pub struct Fig9Report {
    /// One point per policy, all at TCP load 0.8.
    pub points: Vec<HybridPoint>,
}

impl Fig9Report {
    /// Renders FCT quantiles (ms) for both classes.
    pub fn render(&self) -> String {
        let mut t = Table::new(&[
            "policy", "class", "p50(ms)", "p90(ms)", "p99(ms)", "mean(ms)",
        ]);
        for p in &self.points {
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
        format!(
            "Fig 9: FCT CDFs under high load (TCP load 0.8)\n{}",
            t.render()
        )
    }
}

/// Runs Fig. 9.
pub fn fig9(scale: &ExperimentScale, opts: &SweepOptions) -> Fig9Report {
    Fig9Report {
        points: run_hybrid_cells(&fig7_cells(scale, &[0.8]), opts),
    }
}

// --------------------------------------------------------------------
// Fig. 10
// --------------------------------------------------------------------

/// Fig. 10: the incast deep dive at N = 5 with TCP background load 0.8:
/// (a) CDF of incast-flow slowdown, (b) query-delay error bars, (c) ToR
/// occupancy CDF.
#[derive(Debug)]
pub struct Fig10Report {
    /// One point per policy.
    pub points: Vec<IncastPoint>,
}

impl Fig10Report {
    /// Renders all three panels.
    pub fn render(&self) -> String {
        let mut a = Table::new(&["policy", "frac(slowdown<=10)", "p50", "p90", "p99"]);
        for p in &self.points {
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
        for p in &self.points {
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
        for p in &self.points {
            let tor_p50 = p
                .results
                .occupancy
                .values()
                .next()
                .and_then(|s| s.quantile(0.5))
                .unwrap_or(0.0);
            let tor_p90 = p
                .results
                .occupancy
                .values()
                .next()
                .and_then(|s| s.quantile(0.9))
                .unwrap_or(0.0);
            c.row(vec![
                p.label.clone(),
                fmt_bytes(tor_p50),
                fmt_bytes(tor_p90),
                fmt_bytes(p.tor_occupancy_p99),
            ]);
        }
        format!(
            "Fig 10(a): CDF of incast FCT slowdown (N=5, TCP bg 0.8)\n{}\n\
             Fig 10(b): query response delay error bars\n{}\n\
             Fig 10(c): ToR occupancy under incast\n{}",
            a.render(),
            b.render(),
            c.render()
        )
    }
}

/// Runs Fig. 10 at the given fanout (the paper's is 5), clamped to
/// the responders a small fabric has.
pub fn fig10(scale: &ExperimentScale, fanout: usize, opts: &SweepOptions) -> Fig10Report {
    let fanout = fanout.min(scale.host_count() / 2 - 1);
    let cells: Vec<IncastConfig> = paper_policies()
        .into_iter()
        .map(|policy| IncastConfig::paper_defaults(scale.clone(), policy, fanout))
        .collect();
    Fig10Report {
        points: run_incast_cells(&cells, opts),
    }
}

// --------------------------------------------------------------------
// Fig. 11
// --------------------------------------------------------------------

/// Fig. 11: incast-degree sweep (N ∈ {5, 10, 15}): (a) 99% slowdown,
/// (b) average query response time, (c) PFC pause frames.
#[derive(Debug)]
pub struct Fig11Report {
    /// One point per (policy, fanout).
    pub points: Vec<IncastPoint>,
}

impl Fig11Report {
    fn render_one(&self, title: &str, value: impl Fn(&IncastPoint) -> String) -> String {
        let mut fanouts: Vec<usize> = self.points.iter().map(|p| p.fanout).collect();
        fanouts.sort_unstable();
        fanouts.dedup();
        let mut header: Vec<String> = vec!["policy".into()];
        header.extend(fanouts.iter().map(|n| format!("N={n}")));
        let refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(&refs);
        let mut labels: Vec<String> = self.points.iter().map(|p| p.label.clone()).collect();
        labels.dedup();
        for label in labels {
            let mut row = vec![label.clone()];
            for &n in &fanouts {
                let cell = self
                    .points
                    .iter()
                    .find(|p| p.label == label && p.fanout == n)
                    .map(&value)
                    .unwrap_or_else(|| "-".into());
                row.push(cell);
            }
            t.row(row);
        }
        format!("{title}\n{}", t.render())
    }

    /// Renders all three panels.
    pub fn render(&self) -> String {
        let a = self.render_one("Fig 11(a): 99% FCT slowdown of incast flows", |p| {
            fmt_stat(
                p.stats
                    .as_ref()
                    .and_then(|s| s.incast_p99_slowdown.as_ref()),
                fmt_f64(p.incast_p99_slowdown),
            )
        });
        let b = self.render_one("Fig 11(b): average query response time (ms)", |p| {
            match p.stats.as_ref().and_then(|s| s.query_delay_mean_s.as_ref()) {
                Some(s) if s.n > 1 => {
                    format!("{}±{}", fmt_f64(s.mean * 1e3), fmt_f64(s.ci95_half * 1e3))
                }
                _ => p
                    .query_delay
                    .as_ref()
                    .map(|e| fmt_f64(e.mean * 1e3))
                    .unwrap_or_else(|| "-".into()),
            }
        });
        let c = self.render_one("Fig 11(c): PFC pause frames", |p| {
            fmt_stat(
                p.stats.as_ref().and_then(|s| s.pause_frames.as_ref()),
                p.pause_frames.to_string(),
            )
        });
        format!("{a}\n{b}\n{c}")
    }
}

/// Runs Fig. 11 over the given incast degrees (the paper's are
/// [`FIG11_FANOUTS`]).
pub fn fig11(scale: &ExperimentScale, fanouts: &[usize], opts: &SweepOptions) -> Fig11Report {
    // Degrees larger than the scaled-down responder pool are clamped to
    // pool − 1 so small fabrics can still run the sweep.
    let pool = scale.host_count() / 2; // the RDMA half of the servers
    let mut fanouts: Vec<usize> = fanouts.iter().map(|&n| n.min(pool - 1)).collect();
    fanouts.dedup();
    let mut cells = Vec::new();
    for policy in paper_policies() {
        for &n in &fanouts {
            cells.push(IncastConfig::paper_defaults(scale.clone(), policy, n));
        }
    }
    Fig11Report {
        points: run_incast_cells(&cells, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_tiny_renders_all_cells() {
        let report = fig7(&ExperimentScale::tiny(), &[0.4], &SweepOptions::default());
        assert_eq!(report.points.len(), 4);
        let text = report.render();
        for label in ["L2BM", "DT", "DT2", "ABM"] {
            assert!(text.contains(label), "missing {label} in:\n{text}");
        }
        assert!(text.contains("Fig 7(a)"));
        assert!(text.contains("Fig 7(d)"));
    }

    #[test]
    fn render_series_orders_loads() {
        let report = fig7(
            &ExperimentScale::tiny(),
            &[0.4, 0.2],
            &SweepOptions::default(),
        );
        let text = report.render();
        let a = text.find("load=0.2").expect("0.2 column");
        let b = text.find("load=0.4").expect("0.4 column");
        assert!(a < b, "columns must be sorted by load");
    }
}
