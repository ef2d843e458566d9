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
//! Every cell, hybrid, incast or fault, goes through a [`Runs`] store,
//! where the cell is its own key: a cell equal to one that has run is
//! answered from the store, so rows that share cells (Fig. 3(b)'s are
//! Fig. 7's, Table II repeats three of its columns, `irn` reruns
//! `chaos`'s L2BM/DCQCN cells) simulate each once. `repro` keeps one
//! store for its whole invocation; a sweep given none uses its own.

use std::cell::{Cell, RefCell};
use std::fmt;

use dcn_fabric::RunResults;
use dcn_metrics::SeedStats;
use dcn_sim::par_map;

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
    /// The store runs are kept in and looked up from; `None` gives each
    /// sweep a store of its own.
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

    /// These options with every run going through `runs`.
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

/// Every hybrid, incast and fault simulation a sweep, or a whole
/// `repro` invocation, ran, each filed under its cell, and the count of
/// cells asked for. A cell is its own key: a stored cell answers every
/// cell `==` to it. Loads compare as `f64 ==`, so `0.0` and `-0.0` are
/// one cell (they run the same simulation: every load is read through
/// `> 0.0`), and a cell holding a NaN equals nothing, so it is rerun
/// each time it is asked for, never shared. A table holds at most a few
/// hundred cells, so a lookup scans it. A stored point is handed out as
/// a copy that shares its [`RunResults`], so a row may relabel its
/// points without touching another row's.
#[derive(Default)]
pub struct Runs {
    hybrid: Stored<HybridConfig, HybridPoint>,
    incast: Stored<IncastConfig, IncastPoint>,
    fault: Stored<FaultCell, FaultPoint>,
    asked: Cell<usize>,
}

/// One cell type's runs, each beside its cell, in the order they ran.
type Stored<C, P> = RefCell<Vec<(C, P)>>;

impl Runs {
    /// Simulations run: one per distinct cell.
    pub fn simulations(&self) -> usize {
        self.hybrid.borrow().len() + self.incast.borrow().len() + self.fault.borrow().len()
    }

    /// Cells asked for, each replicate counted.
    pub fn cells(&self) -> usize {
        self.asked.get()
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

/// Runs the flattened `(cell, replicate)` grid through the options'
/// store (or one of its own): each cell that `table` lacks runs once, in
/// parallel, and every replicate is a copy of its cell's stored point.
/// Output `i` holds `cells[i]`'s replicates in seed order — never
/// completion order.
fn run_stored<C, P>(
    cells: &[C],
    opts: &SweepOptions,
    scale: fn(&mut C) -> &mut ExperimentScale,
    run: fn(&C) -> P,
    table: fn(&Runs) -> &Stored<C, P>,
) -> Vec<Vec<P>>
where
    C: Clone + PartialEq + Sync,
    P: Clone + Send,
{
    let own = Runs::default();
    let runs = opts.runs.unwrap_or(&own);
    let seeds = opts.seeds_or(1);
    let grid = replicate(cells, seeds, scale);
    let mut table = table(runs).borrow_mut();
    let stored = table.len();
    let mut todo: Vec<C> = Vec::new();
    let at: Vec<usize> = grid
        .iter()
        .map(|cell| {
            let found = table
                .iter()
                .map(|(c, _)| c)
                .chain(&todo)
                .position(|c| c == cell);
            found.unwrap_or_else(|| {
                todo.push(cell.clone());
                stored + todo.len() - 1
            })
        })
        .collect();
    let points = par_map(opts.jobs, &todo, run);
    table.extend(todo.into_iter().zip(points));
    runs.asked.set(runs.asked.get() + grid.len());
    regroup(at.into_iter().map(|i| table[i].1.clone()), seeds)
}

/// Runs a set of hybrid cells through the parallel engine and the
/// options' store. Output `i` holds `cells[i]`'s replicates, base seed
/// first.
pub fn run_hybrid_cells(cells: &[HybridConfig], opts: &SweepOptions) -> Vec<Vec<HybridPoint>> {
    run_stored(cells, opts, |c| &mut c.scale, run_hybrid, |r| &r.hybrid)
}

/// Runs a set of incast cells through the parallel engine and the
/// options' store (see [`run_hybrid_cells`]).
pub fn run_incast_cells(cells: &[IncastConfig], opts: &SweepOptions) -> Vec<Vec<IncastPoint>> {
    run_stored(cells, opts, |c| &mut c.scale, run_incast, |r| &r.incast)
}

/// Runs a set of fault cells, each with its invariant battery, through
/// the parallel engine and the options' store (see
/// [`run_hybrid_cells`]).
pub(crate) fn run_fault_cells(cells: &[FaultCell], opts: &SweepOptions) -> Vec<Vec<FaultPoint>> {
    run_stored(
        cells,
        opts,
        |c| &mut c.hybrid.scale,
        run_fault_cell,
        |r| &r.fault,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::fmt_f64;
    use dcn_fabric::{PolicyChoice, RdmaTransport};
    use dcn_net::ClosConfig;
    use dcn_sim::SimDuration;
    use l2bm::{L2bmConfig, Normalization};

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

    /// Every `FIGURES` row alone counts one cell per filed digest, and
    /// gives the outcome it gives through one store shared by all rows,
    /// where it may be answered from another row's runs. That store runs
    /// fewer simulations than cells, and says so.
    #[test]
    fn every_figure_cell_is_counted_and_a_shared_store_changes_no_outcome() {
        let scale = ExperimentScale::tiny().with_window(SimDuration::from_millis(1));
        let shared = Runs::default();
        let mut cells = 0;
        for (name, run) in crate::FIGURES {
            let alone = Runs::default();
            let out = run(&scale, &SweepOptions::new(2, 2).sharing(&alone));
            assert_eq!(
                alone.cells(),
                out.digests.len(),
                "{name}: one cell per digest"
            );
            cells += alone.cells();
            let through_shared = run(&scale, &SweepOptions::new(2, 2).sharing(&shared));
            assert_eq!(through_shared, out, "{name}");
        }
        assert_eq!(shared.cells(), cells);
        assert!(shared.simulations() < cells, "{}", shared.summary());
        assert_eq!(
            shared.summary(),
            format!("{} simulations for {cells} cells", shared.simulations())
        );
    }

    /// A scale short enough that each store test's dozen runs are cheap.
    fn short_scale() -> ExperimentScale {
        ExperimentScale::tiny().with_window(SimDuration::from_micros(300))
    }

    /// Asks one store for `base` twice, then for each variant (a copy of
    /// `base` with one input changed, named by it) between two copies of
    /// itself and one of `base`: an equal copy runs nothing, each variant
    /// runs once.
    fn assert_one_simulation_per_variant<C: Clone, P>(
        base: &C,
        variants: &[(&str, C)],
        run: fn(&[C], &SweepOptions) -> Vec<Vec<P>>,
    ) {
        let runs = Runs::default();
        let opts = SweepOptions::new(2, 1).sharing(&runs);
        run(&[base.clone(), base.clone()], &opts);
        assert_eq!(runs.summary(), "1 simulations for 2 cells");
        for (i, (field, cell)) in variants.iter().enumerate() {
            run(&[cell.clone(), base.clone(), cell.clone()], &opts);
            assert_eq!(runs.simulations(), 2 + i, "another {field} is another run");
        }
        assert_eq!(runs.cells(), 2 + 3 * variants.len());
    }

    /// Copies of `cell` with one input changed each: every field of the
    /// scale and of the L2BM configuration (the destructuring fails to
    /// compile until a new field is listed), two other policies, and
    /// both loads.
    fn hybrid_variants(cell: &HybridConfig) -> Vec<(&'static str, HybridConfig)> {
        let HybridConfig {
            scale,
            policy,
            rdma_load,
            tcp_load,
        } = cell;
        assert_eq!(*policy, PolicyChoice::l2bm(), "the variants vary L2BM");
        let ExperimentScale {
            clos,
            window,
            drain,
            seed,
        } = scale;
        let base = L2bmConfig::default();
        let L2bmConfig {
            alpha,
            max_weight,
            normalization: _,
            pause_freeze,
        } = base;
        let scales = [
            (
                "clos",
                ExperimentScale {
                    clos: ClosConfig {
                        hosts_per_tor: clos.hosts_per_tor + 2,
                        ..clos.clone()
                    },
                    ..scale.clone()
                },
            ),
            ("window", scale.clone().with_window(*window * 2)),
            (
                "drain",
                ExperimentScale {
                    drain: *drain * 2,
                    ..scale.clone()
                },
            ),
            ("seed", scale.clone().with_seed(seed + 1)),
        ];
        let l2bm = PolicyChoice::L2bm;
        let policies = [
            ("policy", PolicyChoice::dt()),
            ("DT alpha", PolicyChoice::dt2()),
            (
                "L2BM alpha",
                l2bm(L2bmConfig {
                    alpha: alpha * 2.0,
                    ..base
                }),
            ),
            (
                "L2BM max_weight",
                l2bm(L2bmConfig {
                    max_weight: max_weight / 2.0,
                    ..base
                }),
            ),
            (
                "L2BM normalization",
                l2bm(L2bmConfig {
                    normalization: Normalization::Fixed(1e-4),
                    ..base
                }),
            ),
            (
                "L2BM pause_freeze",
                l2bm(L2bmConfig {
                    pause_freeze: !pause_freeze,
                    ..base
                }),
            ),
        ];
        let mut out: Vec<_> = scales
            .into_iter()
            .map(|(f, scale)| {
                (
                    f,
                    HybridConfig {
                        scale,
                        ..cell.clone()
                    },
                )
            })
            .chain(policies.map(|(f, policy)| {
                (
                    f,
                    HybridConfig {
                        policy,
                        ..cell.clone()
                    },
                )
            }))
            .collect();
        out.push((
            "rdma_load",
            HybridConfig {
                rdma_load: rdma_load / 2.0,
                ..cell.clone()
            },
        ));
        out.push((
            "tcp_load",
            HybridConfig {
                tcp_load: tcp_load * 2.0,
                ..cell.clone()
            },
        ));
        out
    }

    #[test]
    fn a_hybrid_cell_differing_in_one_input_is_one_more_simulation() {
        let base = HybridConfig::paper(&short_scale(), PolicyChoice::l2bm(), 0.4);
        assert_one_simulation_per_variant(&base, &hybrid_variants(&base), run_hybrid_cells);

        // Loads compare as `f64`: -0.0 is 0.0's cell, a NaN cell is
        // nobody's. Both read as "no TCP", so all four run alike.
        let runs = Runs::default();
        let opts = SweepOptions::new(1, 1).sharing(&runs);
        let tcp = |tcp_load| HybridConfig {
            tcp_load,
            ..base.clone()
        };
        let zeros = run_hybrid_cells(&[tcp(0.0), tcp(-0.0)], &opts);
        assert_eq!(runs.summary(), "1 simulations for 2 cells");
        let nans = run_hybrid_cells(&[tcp(f64::NAN), tcp(f64::NAN)], &opts);
        assert_eq!(runs.summary(), "3 simulations for 4 cells");
        let digest = |p: &Vec<HybridPoint>| p[0].results.digest();
        let all: Vec<u64> = zeros.iter().chain(&nans).map(digest).collect();
        assert!(all.iter().all(|&d| d == all[0]), "{all:?}");
    }

    #[test]
    fn an_incast_cell_differing_in_one_input_is_one_more_simulation() {
        let base = IncastConfig::paper_defaults(short_scale(), PolicyChoice::l2bm(), 3);
        let IncastConfig {
            scale: _,
            policy: _,
            fanout,
            request_size,
            query_gap,
            tcp_load,
        } = &base;
        let mut variants: Vec<(&str, IncastConfig)> =
            hybrid_variants(&HybridConfig::paper(&base.scale, base.policy, *tcp_load))
                .into_iter()
                .filter(|(f, _)| !f.ends_with("_load"))
                .map(|(f, h)| {
                    let cell = IncastConfig {
                        scale: h.scale,
                        policy: h.policy,
                        ..base.clone()
                    };
                    (f, cell)
                })
                .collect();
        variants.extend([
            (
                "fanout",
                IncastConfig {
                    fanout: fanout - 1,
                    ..base.clone()
                },
            ),
            (
                "request_size",
                IncastConfig {
                    request_size: *request_size * 2,
                    ..base.clone()
                },
            ),
            (
                "query_gap",
                IncastConfig {
                    query_gap: *query_gap / 2,
                    ..base.clone()
                },
            ),
            (
                "tcp_load",
                IncastConfig {
                    tcp_load: tcp_load / 2.0,
                    ..base.clone()
                },
            ),
        ]);
        assert_one_simulation_per_variant(&base, &variants, run_incast_cells);
    }

    #[test]
    fn a_fault_cell_differing_in_one_input_is_one_more_simulation() {
        let base = FaultCell {
            hybrid: HybridConfig::paper(&short_scale(), PolicyChoice::l2bm(), 0.4),
            transport: RdmaTransport::Dcqcn,
            fault_seed: Some(11),
        };
        let FaultCell {
            hybrid,
            transport: _,
            fault_seed: _,
        } = &base;
        let mut variants: Vec<(&str, FaultCell)> = hybrid_variants(hybrid)
            .into_iter()
            .map(|(f, hybrid)| {
                (
                    f,
                    FaultCell {
                        hybrid,
                        ..base.clone()
                    },
                )
            })
            .collect();
        variants.extend([
            (
                "transport",
                FaultCell {
                    transport: RdmaTransport::Irn,
                    ..base.clone()
                },
            ),
            (
                "fault_seed",
                FaultCell {
                    fault_seed: Some(23),
                    ..base.clone()
                },
            ),
            (
                "no fault_seed",
                FaultCell {
                    fault_seed: None,
                    ..base.clone()
                },
            ),
        ]);
        assert_one_simulation_per_variant(&base, &variants, run_fault_cells);
    }
}
