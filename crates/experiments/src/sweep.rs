//! The parallel sweep engine: fans independent experiment cells across
//! worker threads and replicates each cell over multiple seeds.
//!
//! Every experiment is a sweep over independent cells (one `(policy,
//! load)`, `(policy, fanout)` or fault-cell simulation each). The
//! engine runs the flattened `(cell, replicate)` grid through
//! [`dcn_sim::par_map`], whose output is ordered by **input index**
//! regardless of which worker finished first, and hands back every
//! replicate of every cell in seed order. Statistics over the
//! replicates are computed where a table cell is rendered
//! ([`seed_cell`]). The result is the determinism contract the
//! experiments rely on:
//!
//! > The same sweep specification produces bit-identical outcomes at
//! > any `--jobs` value.
//!
//! Replicate `r` of a cell reruns it with `scale.seed + r`, so
//! `--seeds 1` (the default) reproduces the historical single-seed
//! output exactly.
//!
//! Hybrid and incast cells go through a [`Runs`] store, keyed by their
//! complete input: a cell whose key has run is answered from the
//! store, so rows that share cells (Fig. 3(b)'s are Fig. 7's, Table II
//! repeats three of its columns) simulate each once. `repro` keeps one
//! store for its whole invocation; a sweep given none uses its own.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::fmt;

use dcn_fabric::{PolicyChoice, RunResults};
use dcn_metrics::SeedStats;
use dcn_net::ClosConfig;
use dcn_sim::{par_map, SimDuration};
use l2bm::{L2bmConfig, Normalization};

use crate::fault::{run_fault_cell, FaultCell, FaultPoint};
use crate::hybrid::{run_hybrid, HybridConfig, HybridPoint};
use crate::incast::{run_incast, IncastConfig, IncastPoint};
use crate::report::Outcome;
use crate::scale::ExperimentScale;

/// How a sweep's cells are executed: worker threads, seed replicates
/// and the store runs are shared through. The default (`jobs = 1`,
/// `seeds = 1`, no store) is the historical serial, single-seed
/// behaviour.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions<'a> {
    /// Worker threads the cells are fanned across (0 is treated as 1).
    pub jobs: usize,
    /// Seed replicates per cell; 0 asks for the experiment's own
    /// default (one for a paper figure, three for the tournament). With
    /// more than one replicate each swept table cell reads `mean ± 95%
    /// CI` over the replicates.
    pub seeds: u64,
    /// The store hybrid and incast runs are kept in and looked up from;
    /// `None` gives each sweep a store of its own.
    pub runs: Option<&'a Runs>,
}

impl Default for SweepOptions<'_> {
    fn default() -> Self {
        SweepOptions::new(1, 1)
    }
}

impl SweepOptions<'_> {
    /// Options with the given worker count and replicate count, and no
    /// shared store.
    pub fn new(jobs: usize, seeds: u64) -> Self {
        SweepOptions {
            jobs,
            seeds,
            runs: None,
        }
    }

    /// These options with every hybrid and incast run going through
    /// `runs`.
    pub fn sharing(self, runs: &Runs) -> SweepOptions<'_> {
        SweepOptions {
            jobs: self.jobs,
            seeds: self.seeds,
            runs: Some(runs),
        }
    }

    /// The replicate count, `default` if none was asked for.
    pub fn seeds_or(&self, default: u64) -> u64 {
        if self.seeds == 0 {
            default
        } else {
            self.seeds
        }
    }
}

/// The complete input of one stored run, every float as its bits:
/// cells with equal keys are one simulation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct RunKey {
    clos: ClosConfig,
    window: SimDuration,
    drain: SimDuration,
    seed: u64,
    policy: PolicyKey,
    cell: CellKey,
}

/// A [`PolicyChoice`] with its floats as bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PolicyKey {
    Dt(u64),
    Abm,
    L2bm {
        alpha: u64,
        max_weight: u64,
        fixed_c: Option<u64>,
        pause_freeze: bool,
    },
    Occamy,
    BShare,
}

/// What a cell adds to its scale and policy, floats as bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CellKey {
    Hybrid {
        rdma_load: u64,
        tcp_load: u64,
    },
    Incast {
        fanout: usize,
        request_size: u64,
        query_gap: SimDuration,
        tcp_load: u64,
    },
}

impl RunKey {
    pub(crate) fn new(scale: &ExperimentScale, policy: PolicyChoice, cell: CellKey) -> RunKey {
        let ExperimentScale {
            clos,
            window,
            drain,
            seed,
        } = scale;
        let policy = match policy {
            PolicyChoice::Dt(alpha) => PolicyKey::Dt(alpha.to_bits()),
            PolicyChoice::Abm => PolicyKey::Abm,
            PolicyChoice::L2bm(L2bmConfig {
                alpha,
                max_weight,
                normalization,
                pause_freeze,
            }) => PolicyKey::L2bm {
                alpha: alpha.to_bits(),
                max_weight: max_weight.to_bits(),
                fixed_c: match normalization {
                    Normalization::SumActiveTau => None,
                    Normalization::Fixed(c) => Some(c.to_bits()),
                },
                pause_freeze,
            },
            PolicyChoice::Occamy => PolicyKey::Occamy,
            PolicyChoice::BShare => PolicyKey::BShare,
        };
        RunKey {
            clos: clos.clone(),
            window: *window,
            drain: *drain,
            seed: *seed,
            policy,
            cell,
        }
    }
}

/// Every hybrid and incast simulation a sweep, or a whole `repro`
/// invocation, ran, by its complete input, and the key of every cell
/// asked for. A stored point is handed out as a copy that shares its
/// [`RunResults`], so a row may relabel its points without touching
/// another row's.
#[derive(Default)]
pub struct Runs {
    hybrid: RefCell<HashMap<RunKey, HybridPoint>>,
    incast: RefCell<HashMap<RunKey, IncastPoint>>,
    asked: RefCell<Vec<RunKey>>,
}

impl Runs {
    /// Simulations run: one per distinct key.
    pub fn simulations(&self) -> usize {
        self.hybrid.borrow().len() + self.incast.borrow().len()
    }

    /// Cells asked for, each replicate counted.
    pub fn cells(&self) -> usize {
        self.asked.borrow().len()
    }

    /// `N simulations for M cells`.
    pub fn summary(&self) -> String {
        format!(
            "{} simulations for {} cells",
            self.simulations(),
            self.cells()
        )
    }
}

impl fmt::Debug for Runs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Renders one table cell from a cell's replicates (base seed first):
/// `mean±halfwidth` (95% CI) of `value` when more than one replicate is
/// finite, each printed by `fmt`; otherwise the base replicate's value
/// printed by `point`, the metric's own single-run format (`NaN` when
/// `reps` is empty).
pub(crate) fn seed_cell<P>(
    reps: &[P],
    value: impl Fn(&P) -> f64,
    fmt: fn(f64) -> String,
    point: fn(f64) -> String,
) -> String {
    let samples: Vec<f64> = reps.iter().map(value).collect();
    match SeedStats::from_samples(&samples) {
        Some(s) if s.n > 1 => format!("{}±{}", fmt(s.mean), fmt(s.ci95_half)),
        _ => point(samples.first().copied().unwrap_or(f64::NAN)),
    }
}

/// One simulation of a sweep, as its digest is filed in an [`Outcome`].
pub(crate) trait Replicate {
    /// The run's results.
    fn results(&self) -> &RunResults;
    /// The cell's coordinates, e.g. `L2BM load=0.4`.
    fn name(&self) -> String;
    /// Invariant violations the run's battery found (none without one).
    fn violations(&self) -> &[String] {
        &[]
    }
}

impl Replicate for HybridPoint {
    fn results(&self) -> &RunResults {
        &self.results
    }
    fn name(&self) -> String {
        format!("{} load={}", self.label, self.tcp_load)
    }
}

impl Replicate for IncastPoint {
    fn results(&self) -> &RunResults {
        &self.results
    }
    fn name(&self) -> String {
        format!("{} N={}", self.label, self.fanout)
    }
}

impl Replicate for FaultPoint {
    fn results(&self) -> &RunResults {
        &self.results
    }
    fn name(&self) -> String {
        let cell = &self.cell;
        let (policy, transport) = (cell.hybrid.policy.label(), cell.transport.label());
        format!("{policy}/{transport} faults={:?}", cell.fault_seed)
    }
    fn violations(&self) -> &[String] {
        &self.violations
    }
}

/// An experiment's outcome: `text` plus every replicate's digest and
/// violations, filed as `{name} seed {s}` where replicate `r` of each
/// cell ran at `seed + r`.
pub(crate) fn sweep_outcome<P: Replicate>(text: String, cells: &[Vec<P>], seed: u64) -> Outcome {
    let mut out = Outcome {
        text,
        ..Outcome::default()
    };
    for reps in cells {
        for (p, r) in reps.iter().zip(0..) {
            let label = format!("{} seed {}", p.name(), seed.wrapping_add(r));
            let violations = p.violations().iter().map(|v| format!("{label}: {v}"));
            out.violations.extend(violations);
            out.digests.push((label, p.results().digest()));
        }
    }
    out
}

/// The flattened `(cell, replicate)` grid: replicate `r` of each cell
/// with the seed of its `scale` advanced by `r`.
fn replicate<C: Clone>(
    cells: &[C],
    seeds: u64,
    scale: fn(&mut C) -> &mut ExperimentScale,
) -> Vec<C> {
    cells
        .iter()
        .flat_map(|cell| {
            (0..seeds).map(|rep| {
                let mut cell = cell.clone();
                let s = scale(&mut cell);
                s.seed = s.seed.wrapping_add(rep);
                cell
            })
        })
        .collect()
}

/// A flattened grid's runs, `seeds` to a cell, back in cells.
fn regroup<P>(runs: impl IntoIterator<Item = P>, seeds: u64) -> Vec<Vec<P>> {
    let mut runs = runs.into_iter().peekable();
    let mut cells = Vec::new();
    while runs.peek().is_some() {
        cells.push(runs.by_ref().take(seeds as usize).collect());
    }
    cells
}

/// Runs the flattened `(cell, replicate)` grid in parallel. Output `i`
/// holds `cells[i]`'s replicates in seed order — never completion order.
fn run_replicated<C, P>(
    cells: &[C],
    opts: &SweepOptions,
    scale: fn(&mut C) -> &mut ExperimentScale,
    run: impl Fn(&C) -> P + Sync,
) -> Vec<Vec<P>>
where
    C: Clone + Sync,
    P: Send,
{
    let seeds = opts.seeds_or(1);
    regroup(
        par_map(opts.jobs, &replicate(cells, seeds, scale), run),
        seeds,
    )
}

/// [`run_replicated`] through the options' store (or one of its own):
/// each key of the grid that `table` lacks runs once, in parallel, and
/// every replicate is a copy of its key's stored point.
fn run_stored<C, P>(
    cells: &[C],
    opts: &SweepOptions,
    scale: fn(&mut C) -> &mut ExperimentScale,
    key: fn(&C) -> RunKey,
    run: fn(&C) -> P,
    table: fn(&Runs) -> &RefCell<HashMap<RunKey, P>>,
) -> Vec<Vec<P>>
where
    C: Clone + Sync,
    P: Clone + Send,
{
    let own = Runs::default();
    let runs = opts.runs.unwrap_or(&own);
    let seeds = opts.seeds_or(1);
    let grid = replicate(cells, seeds, scale);
    let keys: Vec<RunKey> = grid.iter().map(key).collect();
    let mut table = table(runs).borrow_mut();
    let mut fresh = HashSet::new();
    let (todo, todo_keys): (Vec<C>, Vec<&RunKey>) = grid
        .into_iter()
        .zip(&keys)
        .filter(|&(_, k)| !table.contains_key(k) && fresh.insert(k))
        .unzip();
    table.extend(
        todo_keys
            .into_iter()
            .cloned()
            .zip(par_map(opts.jobs, &todo, run)),
    );
    let points = regroup(keys.iter().map(|k| table[k].clone()), seeds);
    runs.asked.borrow_mut().extend(keys);
    points
}

/// Runs a set of hybrid cells through the parallel engine and the
/// options' store. Output `i` holds `cells[i]`'s replicates, base seed
/// first.
pub fn run_hybrid_cells(cells: &[HybridConfig], opts: &SweepOptions) -> Vec<Vec<HybridPoint>> {
    let key = HybridConfig::key;
    run_stored(
        cells,
        opts,
        |c| &mut c.scale,
        key,
        run_hybrid,
        |r| &r.hybrid,
    )
}

/// Runs a set of incast cells through the parallel engine and the
/// options' store (see [`run_hybrid_cells`]).
pub fn run_incast_cells(cells: &[IncastConfig], opts: &SweepOptions) -> Vec<Vec<IncastPoint>> {
    let key = IncastConfig::key;
    run_stored(
        cells,
        opts,
        |c| &mut c.scale,
        key,
        run_incast,
        |r| &r.incast,
    )
}

/// Runs a set of fault cells, each with its invariant battery, through
/// the parallel engine (see [`run_hybrid_cells`]).
pub(crate) fn run_fault_cells(cells: &[FaultCell], opts: &SweepOptions) -> Vec<Vec<FaultPoint>> {
    run_replicated(cells, opts, |c| &mut c.hybrid.scale, run_fault_cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::fmt_f64;
    use crate::scale::ExperimentScale;
    use dcn_fabric::PolicyChoice;

    fn tiny_cell(policy: PolicyChoice, tcp_load: f64) -> HybridConfig {
        HybridConfig::paper(&ExperimentScale::tiny(), policy, tcp_load)
    }

    fn digests(cells: &[Vec<HybridPoint>]) -> Vec<Vec<u64>> {
        cells
            .iter()
            .map(|reps| reps.iter().map(|p| p.results.digest()).collect())
            .collect()
    }

    #[test]
    fn single_seed_matches_serial_run() {
        let cell = tiny_cell(PolicyChoice::l2bm(), 0.4);
        let serial = run_hybrid(&cell);
        let par = run_hybrid_cells(std::slice::from_ref(&cell), &SweepOptions::new(4, 1));
        assert_eq!(par.len(), 1);
        assert_eq!(par[0].len(), 1, "one seed, one replicate");
        assert_eq!(
            par[0][0].results.pause_frames(),
            serial.results.pause_frames()
        );
        assert_eq!(
            par[0][0].results.events_processed,
            serial.results.events_processed
        );
        assert_eq!(par[0][0].results.digest(), serial.results.digest());
    }

    #[test]
    fn cells_come_back_in_input_order() {
        let cells = vec![
            tiny_cell(PolicyChoice::l2bm(), 0.2),
            tiny_cell(PolicyChoice::dt(), 0.4),
            tiny_cell(PolicyChoice::abm(), 0.2),
        ];
        let points = run_hybrid_cells(&cells, &SweepOptions::new(8, 2));
        let labels: Vec<&str> = points.iter().map(|r| r[0].label.as_str()).collect();
        assert_eq!(labels, ["L2BM", "DT", "ABM"]);
        assert!(points.iter().all(|r| r.len() == 2), "two replicates each");
        assert_eq!(points[0][1].tcp_load, 0.2);
        assert_eq!(points[1][1].tcp_load, 0.4);
    }

    #[test]
    fn replicates_are_job_count_invariant() {
        let cells = vec![
            tiny_cell(PolicyChoice::l2bm(), 0.4),
            tiny_cell(PolicyChoice::dt(), 0.4),
        ];
        let a = run_hybrid_cells(&cells, &SweepOptions::new(1, 3));
        let b = run_hybrid_cells(&cells, &SweepOptions::new(8, 3));
        assert!(a.iter().all(|r| r.len() == 3));
        assert_eq!(digests(&a), digests(&b), "every replicate, in seed order");
        let cell = |cells: &[Vec<HybridPoint>]| {
            seed_cell(
                &cells[0],
                |p| p.results.pause_frames() as f64,
                fmt_f64,
                |x| x.to_string(),
            )
        };
        assert_eq!(cell(&a), cell(&b));
    }

    #[test]
    fn replicates_use_distinct_seeds() {
        // Replicate 0 must equal the plain single run; replicate `r`
        // must be the run at seed + r.
        let cell = tiny_cell(PolicyChoice::dt(), 0.6);
        let reps = run_hybrid_cells(std::slice::from_ref(&cell), &SweepOptions::new(2, 2));
        let reps = &reps[0];
        let base = run_hybrid(&cell);
        let reseeded = run_hybrid(&HybridConfig {
            scale: cell.scale.clone().with_seed(cell.scale.seed + 1),
            ..cell.clone()
        });
        assert_eq!(reps[0].results.digest(), base.results.digest());
        assert_eq!(reps[1].results.digest(), reseeded.results.digest());
        assert_ne!(
            reps[1].results.digest(),
            reps[0].results.digest(),
            "different seeds must change the run"
        );
    }

    #[test]
    fn seed_cell_falls_back_without_replication() {
        let cell = |samples: &[f64]| seed_cell(samples, |&v| v, fmt_f64, |x| x.to_string());
        assert_eq!(
            cell(&[7.0]),
            "7",
            "one replicate prints in the point format"
        );
        assert!(
            cell(&[2.0, 4.0]).starts_with("3.00±"),
            "{}",
            cell(&[2.0, 4.0])
        );
        // One finite replicate is no statistic: the base value stands.
        assert_eq!(cell(&[2.0, f64::NAN]), "2");
        let dash = |samples: &[f64]| seed_cell(samples, |&v| v, fmt_f64, fmt_f64);
        assert_eq!(dash(&[f64::NAN, 5.0]), "-", "an undefined base is a dash");
        assert_eq!(dash(&[]), "-", "so is no replicate at all");
    }

    /// Every `FIGURES` cell files one digest under one key, and cells
    /// that share a key, each run by its row alone, share a digest: the
    /// key holds every input a run reads. One store over all rows then
    /// runs one simulation per key, and says so.
    #[test]
    fn every_figure_cell_has_one_key_and_equal_keys_equal_digests() {
        let scale = ExperimentScale::tiny().with_window(SimDuration::from_millis(1));
        let shared = Runs::default();
        let mut digest_of: HashMap<RunKey, (String, u64)> = HashMap::new();
        let mut cells = 0;
        for (name, run) in crate::FIGURES {
            let alone = Runs::default();
            let out = run(&scale, &SweepOptions::new(2, 2).sharing(&alone));
            let asked = alone.asked.borrow();
            assert_eq!(asked.len(), out.digests.len(), "{name}: one key per cell");
            for (key, (label, digest)) in asked.iter().zip(&out.digests) {
                let (first, d) = digest_of
                    .entry(key.clone())
                    .or_insert_with(|| (format!("{name} {label}"), *digest));
                assert_eq!(d, digest, "{name} {label} and {first} share a key");
            }
            cells += asked.len();
            run(&scale, &SweepOptions::new(2, 2).sharing(&shared));
        }
        assert_eq!(shared.cells(), cells);
        assert_eq!(shared.simulations(), digest_of.len());
        assert!(shared.simulations() < cells, "{}", shared.summary());
        assert_eq!(
            shared.summary(),
            format!("{} simulations for {cells} cells", digest_of.len())
        );
    }
}
