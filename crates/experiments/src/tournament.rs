//! The policy tournament: all six buffer-management policies compete
//! across four arenas — the fig. 7 hybrid mix, a websearch-heavy
//! variant, the incast deep-dive and the chaos fault battery — each
//! replicated over multiple seeds, reported as a Pareto table of
//! p99 slowdown vs goodput vs pause frames vs fault degradation.
//!
//! The tournament rides the existing sweep engine: its hybrid and
//! incast arenas are one cell per policy and its chaos arena one cell
//! per `(policy, fault seed)`, replicated by [`run_hybrid_cells`],
//! [`run_incast_cells`] and [`run_fault_cells`] with replicate `r` at
//! `seed + r`, all through the options' store (so the chaos arena's
//! base-seed cells are `repro chaos`'s). So the jobs-invariance contract
//! carries over verbatim — the same tournament specification renders a
//! byte-identical report (and the same per-cell digests) at any
//! `--jobs` value.

use dcn_fabric::{RdmaTransport, RunResults};
use dcn_net::TrafficClass;
use dcn_sim::SimDuration;

use crate::fault::{FaultCell, FaultPoint, CHAOS_CHECK_SEEDS};
use crate::hybrid::{goodput_gbps, HybridConfig};
use crate::incast::IncastConfig;
use crate::report::{delta_pct, fmt_f64, mean_finite, Outcome, Table};
use crate::scale::ExperimentScale;
use crate::sweep::{run_fault_cells, run_hybrid_cells, run_incast_cells, seed_cell, SweepOptions};

/// Responders per incast query in the incast arena (the paper's
/// headline fanout).
const FANOUT: usize = 5;

/// Seed replicates per cell unless the options ask for a count.
const DEFAULT_SEEDS: u64 = 3;

/// One `(arena, policy)` row: per-replicate samples of every reported
/// metric, the digests of all underlying runs, and any invariant
/// violations the battery collected.
#[derive(Debug, Clone)]
struct TournamentRow {
    /// Arena name (`hybrid` / `websearch` / `incast` / `chaos`).
    arena: &'static str,
    /// Policy label (DT / DT2 / ABM / L2BM / Occamy / BShare).
    label: String,
    /// Lossless-class p99 FCT slowdown per replicate (incast arena:
    /// p99 over the incast flows; chaos arena: mean over fault cells).
    p99_slowdown: Vec<f64>,
    /// Delivered goodput in Gbit/s per replicate.
    goodput_gbps: Vec<f64>,
    /// PFC pause frames per replicate (chaos arena: mean over fault
    /// cells).
    pause_frames: Vec<f64>,
    /// Chaos arena only: goodput delta under faults relative to the
    /// same replicate's zero-fault baseline, in percent (≤ 0 is a
    /// degradation). Empty for the other arenas.
    fault_delta_pct: Vec<f64>,
    /// Digests of every underlying run, in cell order — the byte-level
    /// jobs-invariance witness.
    digests: Vec<u64>,
    /// Invariant violations (empty = the battery passed).
    violations: Vec<String>,
}

impl TournamentRow {
    fn new(arena: &'static str, label: String) -> Self {
        TournamentRow {
            arena,
            label,
            p99_slowdown: Vec::new(),
            goodput_gbps: Vec::new(),
            pause_frames: Vec::new(),
            fault_delta_pct: Vec::new(),
            digests: Vec::new(),
            violations: Vec::new(),
        }
    }

    /// A fault-free arena's row from one policy's `(p99, results)`
    /// replicates; any lossless drop is a violation there.
    fn fault_free<'a>(
        arena: &'static str,
        label: String,
        reps: impl Iterator<Item = (f64, &'a RunResults)>,
        window: SimDuration,
    ) -> Self {
        let mut row = TournamentRow::new(arena, label);
        for (p99, r) in reps {
            row.p99_slowdown.push(p99);
            row.goodput_gbps.push(goodput_gbps(r, window));
            row.pause_frames.push(r.pause_frames() as f64);
            row.digests.push(r.digest());
            if r.drops.lossless_packets != 0 {
                row.violations.push(format!(
                    "{} lossless drops in a fault-free run",
                    r.drops.lossless_packets
                ));
            }
        }
        row
    }
}

/// Policies on the Pareto front of one arena's `rows`, judged on
/// replicate means: lower p99 slowdown, higher goodput, fewer pause
/// frames (and, in the chaos arena, smaller goodput degradation) — a
/// policy is dropped only if another is at least as good on every axis
/// and strictly better on one.
fn pareto_front(rows: &[TournamentRow]) -> Vec<String> {
    let axes = |r: &TournamentRow| -> Vec<f64> {
        // All axes oriented "smaller is better".
        let mean = |s: &[f64]| mean_finite(s.iter().copied());
        let mut v = vec![
            mean(&r.p99_slowdown),
            -mean(&r.goodput_gbps),
            mean(&r.pause_frames),
        ];
        if !r.fault_delta_pct.is_empty() {
            v.push(-mean(&r.fault_delta_pct));
        }
        v
    };
    let dominates = |a: &[f64], b: &[f64]| -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
    };
    rows.iter()
        .filter(|r| {
            let mine = axes(r);
            mine.iter().all(|v| v.is_finite())
                && !rows
                    .iter()
                    .any(|other| other.label != r.label && dominates(&axes(other), &mine))
        })
        .map(|r| r.label.clone())
        .collect()
}

/// The Pareto table plus per-arena front summaries, every run's digest
/// and every violation. `rows` are grouped arena-major in policy order.
fn render(rows: &[TournamentRow], seeds: u64) -> Outcome {
    let mut t = Table::new(&[
        "arena",
        "policy",
        "p99 slowdown",
        "goodput Gbps",
        "pause frames",
        "fault Δ%",
        "violations",
    ]);
    let mut out = Outcome::default();
    // A cell summarizes the finite replicates, as the front judges
    // them: a replicate with no completed flow has no p99.
    let cell = |samples: &[f64]| {
        let finite: Vec<f64> = samples.iter().copied().filter(|v| v.is_finite()).collect();
        seed_cell(&finite, |&v| v, fmt_f64, fmt_f64)
    };
    for row in rows {
        t.row(vec![
            row.arena.to_string(),
            row.label.clone(),
            cell(&row.p99_slowdown),
            cell(&row.goodput_gbps),
            cell(&row.pause_frames),
            cell(&row.fault_delta_pct),
            row.violations.len().to_string(),
        ]);
        let name = format!("{}/{}", row.arena, row.label);
        out.digests.extend(
            row.digests
                .iter()
                .enumerate()
                .map(|(i, &d)| (format!("{name} run {i}"), d)),
        );
        out.violations
            .extend(row.violations.iter().map(|v| format!("{name}: {v}")));
    }
    out.text = format!(
        "tournament: 6 policies x 4 arenas x {seeds} seed(s)\n{}",
        t.render()
    );
    for arena in rows.chunk_by(|a, b| a.arena == b.arena) {
        out.text.push_str(&format!(
            "pareto front [{}]: {}\n",
            arena[0].arena,
            pareto_front(arena).join(", ")
        ));
    }
    out
}

/// `repro tournament`: all six policies over the four arenas, each
/// `(policy, arena)` cell replicated `opts.seeds` times (three unless
/// asked), fanned over `opts.jobs` workers, rendered as the Pareto
/// table. Row order (and therefore the rendered report and the digest
/// vector) depends only on the specification.
pub fn tournament(scale: &ExperimentScale, opts: &SweepOptions) -> Outcome {
    let opts = SweepOptions {
        seeds: opts.seeds_or(DEFAULT_SEEDS),
        ..*opts
    };
    render(&play(scale, &opts), opts.seeds)
}

/// Runs every tournament cell, `opts.seeds` replicates each, and folds the
/// runs into `(arena, policy)` rows.
fn play(scale: &ExperimentScale, opts: &SweepOptions) -> Vec<TournamentRow> {
    let policies = crate::all_policies();
    let mut rows: Vec<TournamentRow> = Vec::new();

    // Hybrid arenas: the fig. 7 mix (RDMA 0.4) at moderate and
    // websearch-heavy TCP load.
    for (arena, tcp_load) in [("hybrid", 0.4), ("websearch", 0.8)] {
        let cells: Vec<HybridConfig> = policies
            .iter()
            .map(|&policy| HybridConfig::paper(scale, policy, tcp_load))
            .collect();
        for reps in run_hybrid_cells(&cells, opts) {
            rows.push(TournamentRow::fault_free(
                arena,
                reps[0].label.clone(),
                reps.iter().map(|p| (p.rdma_p99_slowdown, &*p.results)),
                scale.window,
            ));
        }
    }

    // Incast arena: paper §IV-B defaults at the headline fanout
    // (clamped to the scale's RDMA host pool by `paper_defaults`).
    let cells: Vec<IncastConfig> = policies
        .iter()
        .map(|&policy| IncastConfig::paper_defaults(scale.clone(), policy, FANOUT))
        .collect();
    for reps in run_incast_cells(&cells, opts) {
        rows.push(TournamentRow::fault_free(
            "incast",
            reps[0].label.clone(),
            reps.iter().map(|p| (p.incast_p99_slowdown, &*p.results)),
            scale.window,
        ));
    }

    // Chaos arena: per replicate, a zero-fault baseline plus one cell
    // per fault seed; the reported metrics come from the fault cells,
    // the degradation is relative to the same replicate's baseline. The
    // arena injects the first two of `repro chaos`'s fault seeds (the
    // full battery is its job).
    let fault_seeds = &CHAOS_CHECK_SEEDS[..2];
    let cells = FaultCell::grid(&policies, scale, &[RdmaTransport::Dcqcn], fault_seeds);
    let points = run_fault_cells(&cells, opts);
    for (cells, policy) in points.chunks(1 + fault_seeds.len()).zip(&policies) {
        let mut row = TournamentRow::new("chaos", policy.label());
        for rep in 0..opts.seeds as usize {
            let (base, faulted) = (&cells[0][rep], &cells[1..]);
            let mean =
                |f: &dyn Fn(&FaultPoint) -> f64| mean_finite(faulted.iter().map(|c| f(&c[rep])));
            let goodput = mean(&FaultPoint::goodput_gbps);
            row.p99_slowdown
                .push(mean(&|p| p.p99(TrafficClass::Lossless)));
            row.goodput_gbps.push(goodput);
            row.pause_frames
                .push(mean(&|p| p.results.pause_frames() as f64));
            row.fault_delta_pct
                .push(delta_pct(goodput, base.goodput_gbps()));
            for p in cells.iter().map(|c| &c[rep]) {
                row.digests.push(p.results.digest());
                row.violations.extend(
                    p.violations
                        .iter()
                        .map(|v| format!("seed {:?}: {v}", p.cell.fault_seed)),
                );
            }
        }
        rows.push(row);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_tournament_covers_all_cells_and_passes_battery() {
        let rows = play(&ExperimentScale::tiny(), &SweepOptions::new(4, 1));
        assert_eq!(rows.len(), 4 * 6, "4 arenas x 6 policies");
        let out = render(&rows, 1);
        assert_eq!(out.violations, Vec::<String>::new());
        let labels: Vec<&str> = rows[..6].iter().map(|x| x.label.as_str()).collect();
        assert_eq!(labels, ["L2BM", "DT", "ABM", "DT2", "Occamy", "BShare"]);
        // Chaos rows carry a degradation sample per replicate; the
        // others do not.
        assert!(rows
            .iter()
            .filter(|x| x.arena == "chaos")
            .all(|x| x.fault_delta_pct.len() == 1));
        assert!(rows
            .iter()
            .filter(|x| x.arena != "chaos")
            .all(|x| x.fault_delta_pct.is_empty()));
        assert!(out.text.contains("pareto front [hybrid]"));
        assert!(out.text.contains("Occamy"));
    }

    #[test]
    fn pareto_front_drops_dominated_rows() {
        let mk = |label: &str, p99: f64, goodput: f64, pause: f64| {
            let mut row = TournamentRow::new("hybrid", label.into());
            row.p99_slowdown.push(p99);
            row.goodput_gbps.push(goodput);
            row.pause_frames.push(pause);
            row
        };
        let rows = [
            mk("A", 2.0, 10.0, 5.0),
            mk("B", 3.0, 9.0, 6.0), // dominated by A
            mk("C", 1.5, 8.0, 7.0), // better p99, worse elsewhere
        ];
        assert_eq!(pareto_front(&rows), ["A", "C"]);
    }
}
