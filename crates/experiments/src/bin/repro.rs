//! `repro` — regenerate the L2BM paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|paper] [--seed N] [--window-ms N]
//!                    [--jobs N] [--seeds N] [--shards N|auto] [--check]
//!
//! experiments: fig3a fig3b fig7 table2 fig8 fig9 fig10 fig11 ablations
//!              chaos irn tournament all
//! ```
//!
//! `--check` exists only for `chaos`, `irn` and `tournament` (below);
//! on any other experiment it is refused, as is a zero `--window-ms`.
//!
//! Scaled-down runs (`--scale small`, the default) finish in about a
//! minute per figure and preserve the qualitative ordering; `--scale
//! paper` uses the full 128-server fabric of the paper's §IV setup.
//!
//! `--jobs N` fans the independent sweep cells across N worker threads
//! (`--jobs 0` = all available cores); the output is bit-identical at
//! any thread count. `--seeds N` replicates every cell over N seeds and
//! reports `mean ± 95% CI` per table cell.
//!
//! `--shards N` parallelizes each *single run* on the spatially sharded
//! executor with up to N threads (clamped to the fabric's ToR count;
//! `auto` = all available cores). Results stay byte-identical to the
//! serial engine at every shard count. Composes with `--jobs`: jobs
//! parallelize across sweep cells, shards within each cell.
//!
//! `repro chaos` runs the failure-resilience sweep: the hybrid workload
//! under sampled fault schedules (link flaps, corruption windows, stuck
//! PFC pauses) for every policy, with the invariant battery asserted
//! after each run. `repro chaos --check` is the CI mode: tiny scale, the
//! 8 fixed fault seeds × 6 policies at `--jobs 1` and `--jobs 8`,
//! failing on any digest divergence or invariant violation.
//!
//! `repro irn` runs the lossless-vs-lossy universe comparison: the
//! six-policy × {DCQCN, IRN} grid on the healthy hybrid mix, then the
//! fault-resilience table (identical sampled fault schedules in both
//! universes, counting the flows IRN rescues that DCQCN strands).
//! `repro irn --check` is the CI gate: tiny scale at `--jobs 1` and
//! `--jobs 8`, failing on digest divergence, a drifted IRN golden
//! digest, any battery violation, or zero rescued flows.
//!
//! `repro tournament` runs the six-policy arena — hybrid, websearch-
//! heavy, incast and chaos cells, multi-seed — and renders the Pareto
//! table (p99 slowdown / goodput / pause frames / fault degradation,
//! `mean±CI` per cell). `repro tournament --check` is the CI gate: tiny
//! scale, two seeds, run at `--jobs 1` and `--jobs 8`, failing on any
//! per-run digest divergence or invariant violation.

use std::env;
use std::process::ExitCode;

use dcn_experiments::{
    ablations, chaos, fig10, fig11, fig3a, fig3b, fig7, fig8, fig9, irn_grid, irn_resilience,
    standard_variants, table2, tournament, ExperimentScale, SweepOptions, CHAOS_CHECK_SEEDS,
    FIG11_FANOUTS, FIG7_LOADS, TABLE2_LOADS,
};
use dcn_sim::SimDuration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <fig3a|fig3b|fig7|table2|fig8|fig9|fig10|fig11|ablations|chaos|irn|tournament|all> \
         [--scale tiny|small|paper] [--seed N] [--window-ms N] [--jobs N] [--seeds N] \
         [--shards N|auto] [--check]"
    );
    ExitCode::FAILURE
}

/// Golden digest of the tiny-scale IRN universe cell (L2BM policy,
/// zero faults) asserted by `repro irn --check`: pins the IRN
/// transport's behavior the same way the DCQCN goldens pin the
/// lossless path.
const IRN_TINY_GOLDEN_DIGEST: u64 = 0xa67c_8a7f_b276_895c;

/// CI lossy-RDMA gate: the healthy six-policy × two-transport grid and
/// the 8-fault-seed DCQCN↔IRN comparison at tiny scale, run at
/// `--jobs 1` and `--jobs 8`. Fails on digest divergence, any battery
/// violation, a drifted IRN golden digest, or a fault set where the
/// lossy universe rescues nothing (the whole point of IRN).
fn irn_check() -> ExitCode {
    let scale = ExperimentScale::tiny();
    eprintln!(
        "# irn --check: 6 policies x 2 transports + {} fault seeds, jobs 1 vs 8",
        CHAOS_CHECK_SEEDS.len()
    );
    let mut failed = false;

    let grid_serial = irn_grid(&scale, 1);
    let grid_parallel = irn_grid(&scale, 8);
    for (a, b) in grid_serial.points.iter().zip(grid_parallel.points.iter()) {
        if a.digest != b.digest {
            eprintln!(
                "FAIL: grid {}/{}: digest {:#x} (jobs 1) != {:#x} (jobs 8)",
                a.label, a.transport, a.digest, b.digest
            );
            failed = true;
        }
    }
    if let Some(p) = grid_serial
        .points
        .iter()
        .find(|p| p.label == "L2BM" && p.transport == "IRN")
    {
        if p.digest != IRN_TINY_GOLDEN_DIGEST {
            eprintln!(
                "FAIL: tiny IRN golden digest drifted: {:#x} != {IRN_TINY_GOLDEN_DIGEST:#x}",
                p.digest
            );
            failed = true;
        }
    }

    let res_serial = irn_resilience(&scale, &CHAOS_CHECK_SEEDS, 1);
    let res_parallel = irn_resilience(&scale, &CHAOS_CHECK_SEEDS, 8);
    for (a, b) in res_serial
        .dcqcn
        .iter()
        .chain(res_serial.irn.iter())
        .zip(res_parallel.dcqcn.iter().chain(res_parallel.irn.iter()))
    {
        if a.digest != b.digest {
            eprintln!(
                "FAIL: resilience {}/{} seed {:?}: digest {:#x} (jobs 1) != {:#x} (jobs 8)",
                a.label, a.transport, a.fault_seed, a.digest, b.digest
            );
            failed = true;
        }
    }
    for v in grid_serial
        .violations()
        .iter()
        .chain(grid_parallel.violations().iter())
        .chain(res_serial.violations().iter())
        .chain(res_parallel.violations().iter())
    {
        eprintln!("FAIL: invariant violation: {v}");
        failed = true;
    }
    let rescued: usize = res_serial.rescued().iter().map(|&(_, n)| n).sum();
    if rescued == 0 {
        eprintln!("FAIL: no DCQCN-stranded flow was rescued by IRN across any fault seed");
        failed = true;
    }

    println!("{}", grid_serial.render());
    println!("{}", res_serial.render());
    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!(
            "# irn --check passed: digests jobs-invariant, golden pinned, \
             {rescued} flows rescued, no violations"
        );
        ExitCode::SUCCESS
    }
}

/// CI chaos gate: the fixed fault seeds × every policy at tiny scale,
/// run serially and in parallel; any digest divergence or invariant
/// violation fails the process.
fn chaos_check() -> ExitCode {
    let scale = ExperimentScale::tiny();
    eprintln!(
        "# chaos --check: {} fault seeds x 6 policies, jobs 1 vs 8",
        CHAOS_CHECK_SEEDS.len()
    );
    let serial = chaos(&scale, &CHAOS_CHECK_SEEDS, 1);
    let parallel = chaos(&scale, &CHAOS_CHECK_SEEDS, 8);
    let mut failed = false;
    let points = |r: &dcn_experiments::ChaosReport| -> Vec<(String, Option<u64>, u64)> {
        r.baselines
            .iter()
            .chain(r.points.iter().flatten())
            .map(|p| (p.label.clone(), p.fault_seed, p.digest))
            .collect()
    };
    for ((label, seed, a), (_, _, b)) in points(&serial).iter().zip(points(&parallel).iter()) {
        if a != b {
            eprintln!("FAIL: {label} seed {seed:?}: digest {a:#x} (jobs 1) != {b:#x} (jobs 8)");
            failed = true;
        }
    }
    for v in serial
        .violations()
        .iter()
        .chain(parallel.violations().iter())
    {
        eprintln!("FAIL: invariant violation: {v}");
        failed = true;
    }
    println!("{}", serial.render());
    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("# chaos --check passed: all digests jobs-invariant, no violations");
        ExitCode::SUCCESS
    }
}

/// CI tournament gate: tiny scale, two seed replicates, the full
/// six-policy × four-arena grid at `--jobs 1` and `--jobs 8`; any
/// digest divergence, report divergence or invariant violation fails
/// the process.
fn tournament_check(seeds: u64) -> ExitCode {
    let scale = ExperimentScale::tiny();
    let seeds = seeds.max(2);
    eprintln!("# tournament --check: 6 policies x 4 arenas x {seeds} seeds, jobs 1 vs 8");
    let serial = tournament(&scale, seeds, 1);
    let parallel = tournament(&scale, seeds, 8);
    let mut failed = false;
    let (a, b) = (serial.digests(), parallel.digests());
    if a != b {
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            if x != y {
                eprintln!("FAIL: run {i}: digest {x:#x} (jobs 1) != {y:#x} (jobs 8)");
            }
        }
        failed = true;
    }
    if serial.render() != parallel.render() {
        eprintln!("FAIL: rendered reports differ between jobs 1 and jobs 8");
        failed = true;
    }
    for v in serial
        .violations()
        .iter()
        .chain(parallel.violations().iter())
    {
        eprintln!("FAIL: invariant violation: {v}");
        failed = true;
    }
    println!("{}", serial.render());
    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("# tournament --check passed: all digests jobs-invariant, no violations");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(which) = args.first().cloned() else {
        return usage();
    };

    let mut scale = ExperimentScale::small();
    let mut opts = SweepOptions::default();
    let mut check = false;
    let mut shards: Option<usize> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => {
                check = true;
                i += 1;
            }
            "--shards" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                shards = match v.as_str() {
                    "auto" => Some(dcn_sim::effective_jobs(0)),
                    n => match n.parse::<usize>() {
                        Ok(n) if n >= 1 => Some(n),
                        _ => return usage(),
                    },
                };
                i += 2;
            }
            "--jobs" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) else {
                    return usage();
                };
                opts.jobs = if v == 0 { dcn_sim::default_jobs() } else { v };
                i += 2;
            }
            "--seeds" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    return usage();
                };
                opts.seeds = v.max(1);
                i += 2;
            }
            "--scale" => {
                let Some(v) = args.get(i + 1) else {
                    return usage();
                };
                scale = match v.as_str() {
                    "tiny" => ExperimentScale::tiny(),
                    "small" => ExperimentScale::small(),
                    "paper" => ExperimentScale::paper(),
                    other => {
                        eprintln!("unknown scale '{other}'");
                        return usage();
                    }
                };
                i += 2;
            }
            "--seed" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    return usage();
                };
                scale = scale.with_seed(v);
                i += 2;
            }
            "--window-ms" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<u64>().ok()) else {
                    return usage();
                };
                if v == 0 {
                    eprintln!("--window-ms must be at least 1: a 0 ms window generates no flows");
                    return usage();
                }
                scale = scale.with_window(SimDuration::from_millis(v));
                i += 2;
            }
            other => {
                eprintln!("unknown flag '{other}'");
                return usage();
            }
        }
    }
    if check && !matches!(which.as_str(), "chaos" | "irn" | "tournament") {
        eprintln!("'{which}' has no --check mode (only chaos, irn and tournament do)");
        return usage();
    }
    if let Some(n) = shards {
        // Applied last so `--shards` composes with `--scale` in any
        // flag order.
        scale = scale.with_shards(n);
    }

    if which == "tournament" {
        return if check {
            tournament_check(opts.seeds)
        } else {
            // Three seeds by default so every table cell is mean±CI.
            let seeds = if opts.seeds > 1 { opts.seeds } else { 3 };
            eprintln!(
                "# tournament: {} hosts, window {}, seed {}, jobs {}, seeds {seeds}",
                scale.host_count(),
                scale.window,
                scale.seed,
                opts.jobs,
            );
            let report = tournament(&scale, seeds, opts.jobs);
            println!("{}", report.render());
            let violations = report.violations();
            for v in &violations {
                eprintln!("invariant violation: {v}");
            }
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        };
    }

    if which == "irn" {
        return if check {
            irn_check()
        } else {
            let grid = irn_grid(&scale, opts.jobs);
            println!("{}", grid.render());
            let res = irn_resilience(&scale, &CHAOS_CHECK_SEEDS, opts.jobs);
            println!("{}", res.render());
            let violations: Vec<String> = grid
                .violations()
                .into_iter()
                .chain(res.violations())
                .collect();
            for v in &violations {
                eprintln!("invariant violation: {v}");
            }
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        };
    }

    if which == "chaos" {
        return if check {
            chaos_check()
        } else {
            let report = chaos(&scale, &CHAOS_CHECK_SEEDS, opts.jobs);
            println!("{}", report.render());
            let violations = report.violations();
            for v in &violations {
                eprintln!("invariant violation: {v}");
            }
            if violations.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        };
    }

    eprintln!(
        "# scale: {} hosts, window {}, seed {}, jobs {}, seeds {}",
        scale.host_count(),
        scale.window,
        scale.seed,
        opts.jobs,
        opts.effective_seeds()
    );

    let run_one = |name: &str, scale: &ExperimentScale| -> Option<String> {
        let out = match name {
            "fig3a" => fig3a(scale, &opts).render(),
            "fig3b" => fig3b(scale, &opts).render(),
            "fig7" => fig7(scale, &FIG7_LOADS, &opts).render(),
            "table2" => table2(scale, &TABLE2_LOADS, &opts).render(),
            "fig8" => fig8(scale, &opts).render(),
            "fig9" => fig9(scale, &opts).render(),
            "fig10" => fig10(scale, 5, &opts).render(),
            "fig11" => fig11(scale, &FIG11_FANOUTS, &opts).render(),
            "ablations" => ablations(scale, &standard_variants(), 0.8, &opts).render(),
            _ => return None,
        };
        Some(out)
    };

    if which == "all" {
        for name in [
            "fig3a",
            "fig3b",
            "fig7",
            "table2",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "ablations",
        ] {
            eprintln!("# running {name} ...");
            println!("{}", run_one(name, &scale).expect("known name"));
        }
        return ExitCode::SUCCESS;
    }

    match run_one(&which, &scale) {
        Some(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown experiment '{which}'");
            usage()
        }
    }
}
