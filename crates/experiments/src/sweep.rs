//! The parallel sweep engine: fans independent experiment cells across
//! worker threads and replicates each cell over multiple seeds.
//!
//! Every figure/table of the paper is a sweep over independent cells
//! (one `(policy, load)` or `(policy, fanout)` simulation each). The
//! engine runs the flattened `(cell, replicate)` grid through
//! [`dcn_sim::par_map`], whose output is ordered by **input index**
//! regardless of which worker finished first, then folds the replicates
//! of each cell — always in seed order — into [`SeedStats`]. The result
//! is the determinism contract the reports rely on:
//!
//! > The same sweep specification produces bit-identical reports at any
//! > `--jobs` value.
//!
//! Replicate `r` of a cell reruns it with `scale.seed + r`, so
//! `--seeds 1` (the default) reproduces the historical single-seed
//! output exactly.

use dcn_metrics::SeedStats;
use dcn_sim::par_map;

use crate::hybrid::{run_hybrid, HybridConfig, HybridPoint};
use crate::incast::{run_incast, IncastConfig, IncastPoint};
use crate::report::fmt_f64;

/// How a sweep's cells are executed: worker threads and seed
/// replicates. The default (`jobs = 1`, `seeds = 1`) is the historical
/// serial, single-seed behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads the cells are fanned across (0 is treated as 1).
    pub jobs: usize,
    /// Seed replicates per cell (0 is treated as 1). With more than one
    /// replicate each cell's report value becomes `mean ± 95% CI` over
    /// the replicates.
    pub seeds: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { jobs: 1, seeds: 1 }
    }
}

impl SweepOptions {
    /// Options with the given worker count and replicate count.
    pub fn new(jobs: usize, seeds: u64) -> Self {
        SweepOptions { jobs, seeds }
    }

    /// The effective replicate count (at least 1).
    pub fn effective_seeds(&self) -> u64 {
        self.seeds.max(1)
    }
}

/// Per-metric replication statistics of one hybrid cell, aggregated
/// over its seed replicates. `None` for a metric means no replicate
/// produced a finite value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridSeedStats {
    /// RDMA p99 FCT slowdown across seeds (Fig. 7(a)).
    pub rdma_p99_slowdown: Option<SeedStats>,
    /// TCP p99 FCT slowdown across seeds (Fig. 7(b)).
    pub tcp_p99_slowdown: Option<SeedStats>,
    /// ToR p99 occupancy (bytes) across seeds (Fig. 7(c)).
    pub tor_occupancy_p99: Option<SeedStats>,
    /// PFC pause frames across seeds (Fig. 7(d) / Table II).
    pub pause_frames: Option<SeedStats>,
}

/// Per-metric replication statistics of one incast cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncastSeedStats {
    /// Incast p99 FCT slowdown across seeds (Fig. 11(a)).
    pub incast_p99_slowdown: Option<SeedStats>,
    /// Mean query response delay in seconds across seeds (Fig. 11(b)).
    pub query_delay_mean_s: Option<SeedStats>,
    /// PFC pause frames across seeds (Fig. 11(c)).
    pub pause_frames: Option<SeedStats>,
}

/// Renders a replicated metric as `mean±halfwidth` (95% CI); falls back
/// to the single-seed point value when no replication stats exist.
pub fn fmt_stat(stats: Option<&SeedStats>, point_value: String) -> String {
    match stats {
        Some(s) if s.n > 1 => format!("{}±{}", fmt_f64(s.mean), fmt_f64(s.ci95_half)),
        _ => point_value,
    }
}

/// Runs the flattened `(cell, replicate)` grid in parallel and folds
/// each cell's replicates (in seed order) with `aggregate`. The output
/// index `i` corresponds to `cells[i]` — never to completion order.
fn run_replicated<C, P>(
    cells: &[C],
    opts: &SweepOptions,
    reseed: impl Fn(&C, u64) -> C + Sync,
    run: impl Fn(&C) -> P + Sync,
    aggregate: impl Fn(Vec<P>) -> P,
) -> Vec<P>
where
    C: Sync + Send,
    P: Send,
{
    let seeds = opts.effective_seeds();
    let mut work: Vec<C> = Vec::with_capacity(cells.len() * seeds as usize);
    for cell in cells {
        for rep in 0..seeds {
            work.push(reseed(cell, rep));
        }
    }
    let mut results = par_map(opts.jobs, &work, run);
    let mut out = Vec::with_capacity(cells.len());
    // Drain front-to-back so replicates stay in seed order.
    while results.len() >= seeds as usize {
        let rest = results.split_off(seeds as usize);
        let reps = std::mem::replace(&mut results, rest);
        out.push(aggregate(reps));
    }
    debug_assert!(results.is_empty(), "grid size must be cells × seeds");
    out
}

/// Folds the seed replicates of one hybrid cell: the base-seed
/// replicate keeps its full results (CDF post-processing reads them)
/// and gains the cross-seed [`HybridSeedStats`].
pub(crate) fn aggregate_hybrid(mut reps: Vec<HybridPoint>) -> HybridPoint {
    assert!(!reps.is_empty(), "a cell has at least one replicate");
    if reps.len() == 1 {
        return reps.pop().expect("one replicate");
    }
    let collect = |f: fn(&HybridPoint) -> f64| -> Option<SeedStats> {
        SeedStats::from_samples(&reps.iter().map(f).collect::<Vec<f64>>())
    };
    let stats = HybridSeedStats {
        rdma_p99_slowdown: collect(|p| p.rdma_p99_slowdown),
        tcp_p99_slowdown: collect(|p| p.tcp_p99_slowdown),
        tor_occupancy_p99: collect(|p| p.tor_occupancy_p99),
        pause_frames: collect(|p| p.pause_frames as f64),
    };
    let mut base = reps.swap_remove(0);
    base.stats = Some(stats);
    base
}

/// Folds the seed replicates of one incast cell (see
/// [`aggregate_hybrid`]).
pub(crate) fn aggregate_incast(mut reps: Vec<IncastPoint>) -> IncastPoint {
    assert!(!reps.is_empty(), "a cell has at least one replicate");
    if reps.len() == 1 {
        return reps.pop().expect("one replicate");
    }
    let collect = |f: fn(&IncastPoint) -> f64| -> Option<SeedStats> {
        SeedStats::from_samples(&reps.iter().map(f).collect::<Vec<f64>>())
    };
    let stats = IncastSeedStats {
        incast_p99_slowdown: collect(|p| p.incast_p99_slowdown),
        query_delay_mean_s: collect(|p| p.query_delay.as_ref().map(|e| e.mean).unwrap_or(f64::NAN)),
        pause_frames: collect(|p| p.pause_frames as f64),
    };
    let mut base = reps.swap_remove(0);
    base.stats = Some(stats);
    base
}

/// Runs a set of hybrid cells through the parallel engine. Output index
/// `i` is `cells[i]`'s (replicated) point.
pub fn run_hybrid_cells(cells: &[HybridConfig], opts: &SweepOptions) -> Vec<HybridPoint> {
    let reseed = |c: &HybridConfig, rep: u64| HybridConfig {
        scale: c.scale.clone().with_seed(c.scale.seed.wrapping_add(rep)),
        ..c.clone()
    };
    run_replicated(cells, opts, reseed, run_hybrid, aggregate_hybrid)
}

/// Runs a set of incast cells through the parallel engine.
pub fn run_incast_cells(cells: &[IncastConfig], opts: &SweepOptions) -> Vec<IncastPoint> {
    let reseed = |c: &IncastConfig, rep: u64| IncastConfig {
        scale: c.scale.clone().with_seed(c.scale.seed.wrapping_add(rep)),
        ..c.clone()
    };
    run_replicated(cells, opts, reseed, run_incast, aggregate_incast)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;
    use dcn_fabric::PolicyChoice;

    fn tiny_cell(policy: PolicyChoice, tcp_load: f64) -> HybridConfig {
        HybridConfig {
            scale: ExperimentScale::tiny(),
            policy,
            rdma_load: 0.4,
            tcp_load,
        }
    }

    #[test]
    fn single_seed_matches_serial_run() {
        let cell = tiny_cell(PolicyChoice::l2bm(), 0.4);
        let serial = run_hybrid(&cell);
        let par = run_hybrid_cells(std::slice::from_ref(&cell), &SweepOptions::new(4, 1));
        assert_eq!(par.len(), 1);
        assert!(par[0].stats.is_none(), "single seed attaches no stats");
        assert_eq!(par[0].pause_frames, serial.pause_frames);
        assert_eq!(
            par[0].results.events_processed,
            serial.results.events_processed
        );
        assert_eq!(par[0].results.digest(), serial.results.digest());
    }

    #[test]
    fn cells_come_back_in_input_order() {
        let cells = vec![
            tiny_cell(PolicyChoice::l2bm(), 0.2),
            tiny_cell(PolicyChoice::dt(), 0.4),
            tiny_cell(PolicyChoice::abm(), 0.2),
        ];
        let points = run_hybrid_cells(&cells, &SweepOptions::new(8, 1));
        let labels: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["L2BM", "DT", "ABM"]);
        assert_eq!(points[0].tcp_load, 0.2);
        assert_eq!(points[1].tcp_load, 0.4);
    }

    #[test]
    fn multi_seed_attaches_stats_and_is_job_count_invariant() {
        let cells = vec![tiny_cell(PolicyChoice::l2bm(), 0.4)];
        let opts1 = SweepOptions::new(1, 3);
        let opts8 = SweepOptions::new(8, 3);
        let a = run_hybrid_cells(&cells, &opts1);
        let b = run_hybrid_cells(&cells, &opts8);
        let sa = a[0].stats.expect("3 seeds aggregate");
        let sb = b[0].stats.expect("3 seeds aggregate");
        // Bit-identical aggregation at any thread count.
        assert_eq!(sa, sb);
        assert_eq!(a[0].results.digest(), b[0].results.digest());
        let pf = sa.pause_frames.expect("pause frames always finite");
        assert_eq!(pf.n, 3);
        assert!(pf.min <= pf.mean && pf.mean <= pf.max);
    }

    #[test]
    fn replicates_use_distinct_seeds() {
        // The base replicate must equal the plain single run; a later
        // replicate must be the run at seed + rep.
        let cell = tiny_cell(PolicyChoice::dt(), 0.6);
        let agg = run_hybrid_cells(std::slice::from_ref(&cell), &SweepOptions::new(2, 2));
        let base = run_hybrid(&cell);
        assert_eq!(agg[0].results.digest(), base.results.digest());
        let reseeded = run_hybrid(&HybridConfig {
            scale: cell.scale.clone().with_seed(cell.scale.seed + 1),
            ..cell.clone()
        });
        assert_ne!(
            reseeded.results.digest(),
            base.results.digest(),
            "different seeds must change the run"
        );
    }

    #[test]
    fn fmt_stat_falls_back_without_replication() {
        assert_eq!(fmt_stat(None, "7.00".into()), "7.00");
        let s = SeedStats::from_samples(&[2.0, 4.0]).unwrap();
        let txt = fmt_stat(Some(&s), "x".into());
        assert!(txt.starts_with("3.00±"), "got {txt}");
        let one = SeedStats::from_samples(&[2.0]).unwrap();
        assert_eq!(fmt_stat(Some(&one), "2.00".into()), "2.00");
    }

    #[test]
    fn aggregation_is_completion_order_independent() {
        // Feed the same replicate set to the aggregator in two seed
        // orders that both claim rep 0 as base: stats must be
        // bit-identical (SeedStats sorts internally).
        let cell = tiny_cell(PolicyChoice::abm(), 0.4);
        let reps: Vec<HybridPoint> = (0..3u64)
            .map(|r| {
                run_hybrid(&HybridConfig {
                    scale: cell.scale.clone().with_seed(cell.scale.seed + r),
                    ..cell.clone()
                })
            })
            .collect();
        let mut swapped = reps.clone();
        swapped.swap(1, 2);
        let a = aggregate_hybrid(reps);
        let b = aggregate_hybrid(swapped);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.pause_frames, b.pause_frames, "base replicate unchanged");
    }
}
