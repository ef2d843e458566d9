//! `repro` — regenerate the L2BM paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|paper] [--seed N] [--window-ms N]
//!                    [--jobs N] [--seeds N] [--shards N|auto] [--check]
//!
//! experiments: fig3a fig3b fig7 table2 fig8 fig9 fig10 fig11 ablations
//!              chaos irn tournament all
//! repro trace
//! ```
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
//! after each run. `repro irn` runs the lossless-vs-lossy universe
//! comparison: the six-policy × {DCQCN, IRN} grid on the healthy hybrid
//! mix, then the fault-resilience table (identical sampled fault
//! schedules in both universes, counting the flows IRN rescues that
//! DCQCN strands). Both run the 8 fixed fault seeds with every cell
//! traced, hence serial, and refuse `--seeds` and `--shards`.
//! `repro tournament` runs the six-policy arena — hybrid, websearch-
//! heavy, incast and chaos cells over 3 seeds unless `--seeds` says
//! otherwise — and renders the Pareto table (p99 slowdown / goodput /
//! pause frames / fault degradation, `mean±CI` per cell).
//!
//! `--check` exists only for these three (it is refused elsewhere, as
//! is a zero `--window-ms`): the CI gate runs the sweep at tiny scale (the tournament over 2 seeds
//! unless `--seeds` says otherwise) at `--jobs 1` and `--jobs 8` and
//! fails on any digest or report divergence between the two or any
//! invariant violation; `irn --check` also fails on a drifted IRN golden
//! digest or zero rescued flows.
//!
//! `repro trace` is the flight-recorder dump: one fixed-seed hybrid run
//! with the recorder on, every lifecycle event as JSON Lines on stdout,
//! and the totals plus a causal summary of the slowest TCP flow on
//! stderr. It takes no flags and is not part of `all` (the dump is
//! about 26 MB).

use std::env;
use std::io::Write;
use std::process::ExitCode;

use dcn_experiments::{
    ablations, chaos, fig10, fig11, fig3a, fig3b, fig7, fig8, fig9, irn_grid, irn_resilience,
    standard_variants, table2, tournament, ExperimentScale, Outcome, SweepOptions,
    CHAOS_CHECK_SEEDS, FIG11_FANOUTS, FIG7_LOADS, TABLE2_LOADS,
};
use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice};
use dcn_net::{ClosConfig, Priority, Topology, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimRng, SimTime, TraceConfig};
use dcn_switch::SwitchConfig;
use dcn_workload::{web_search_cdf, PoissonTraffic};

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <fig3a|fig3b|fig7|table2|fig8|fig9|fig10|fig11|ablations|chaos|irn|tournament|all> \
         [--scale tiny|small|paper] [--seed N] [--window-ms N] [--jobs N] [--seeds N] \
         [--shards N|auto] [--check]\n       repro trace"
    );
    ExitCode::FAILURE
}

/// The flight-recorder dump: one fixed-seed hybrid run on a small Clos
/// under L2BM with a buffer small enough to exercise drops, recovery
/// and PFC (the golden-digest scenario's shape). Writes every recorded
/// event as JSON Lines to stdout; the totals and the slowest TCP flow's
/// causal summary go to stderr.
fn trace() -> ExitCode {
    let topo = Topology::clos(&ClosConfig::small(4));
    let (rdma_hosts, tcp_hosts): (Vec<_>, Vec<_>) = topo.hosts().partition(|h| h.index() % 2 == 0);
    let mut rng = SimRng::seed_from_u64(42);
    let window = SimDuration::from_millis(2);
    let rdma = PoissonTraffic::builder(rdma_hosts.clone(), web_search_cdf())
        .load(0.4)
        .link_rate(BitRate::from_gbps(25))
        .class(TrafficClass::Lossless, Priority::new(3))
        .dests(rdma_hosts)
        .build();
    let tcp = PoissonTraffic::builder(tcp_hosts.clone(), web_search_cdf())
        .load(0.8)
        .link_rate(BitRate::from_gbps(25))
        .class(TrafficClass::Lossy, Priority::new(1))
        .dests(tcp_hosts)
        .first_flow_id(1 << 40)
        .build();
    let cfg = FabricConfig {
        policy: PolicyChoice::l2bm(),
        seed: 42,
        switch: SwitchConfig {
            total_buffer: Bytes::from_kb(96),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        trace: TraceConfig::enabled(),
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flows(rdma.generate(window, &mut rng.fork(1)));
    sim.add_flows(tcp.generate(window, &mut rng.fork(2)));
    sim.run_until_done(SimTime::ZERO + window + SimDuration::from_millis(60));

    let slowest_tcp = sim
        .results()
        .fct
        .records()
        .iter()
        .filter(|r| r.class == TrafficClass::Lossy)
        .max_by(|a, b| a.slowdown().total_cmp(&b.slowdown()))
        .map(|r| r.flow.as_u64());
    sim.trace()
        .with(|rec| {
            let t = rec.totals();
            eprintln!(
                "recorded {} events ({} evicted): {} drops ({} ingress, {} egress, {} headroom), \
                 {} pauses, {} resumes, {} RTO fires",
                rec.len(),
                rec.evicted(),
                t.drops(),
                t.drops_ingress,
                t.drops_egress,
                t.drops_headroom,
                t.pfc_pauses,
                t.pfc_resumes,
                t.rto_fires,
            );
            eprintln!("--- slowest TCP flow ---");
            eprint!(
                "{}",
                slowest_tcp
                    .map(|f| rec.summarize_flow(f))
                    .unwrap_or_else(|| "no completed TCP flows\n".into())
            );
            std::io::stdout().write_all(rec.to_jsonl().as_bytes())
        })
        .expect("recorder enabled")
        .map_or(ExitCode::FAILURE, |()| ExitCode::SUCCESS)
}

/// Golden digest of the tiny-scale IRN universe cell (L2BM policy,
/// zero faults) asserted by `repro irn --check`: pins the IRN
/// transport's behavior the same way the DCQCN goldens pin the
/// lossless path.
const IRN_TINY_GOLDEN_DIGEST: u64 = 0x3e04_2bb5_1e4d_279f;

/// Runs one of the sweeps that have a `--check` mode at `jobs` workers.
/// With `gates`, also returns the failures of the gates only that sweep
/// has: IRN's tiny golden digest, and that the lossy universe rescues
/// at least one flow DCQCN strands (the whole point of IRN).
fn sweep(
    which: &str,
    scale: &ExperimentScale,
    seeds: u64,
    jobs: usize,
    gates: bool,
) -> (Outcome, Vec<String>) {
    match which {
        "chaos" => (chaos(scale, &CHAOS_CHECK_SEEDS, jobs), Vec::new()),
        "tournament" => (tournament(scale, seeds, jobs).outcome(), Vec::new()),
        _ => {
            let grid = irn_grid(scale, jobs);
            let res = irn_resilience(scale, &CHAOS_CHECK_SEEDS, jobs);
            let mut failed = Vec::new();
            if gates {
                let golden = grid
                    .digests
                    .iter()
                    .find(|(name, _)| name == "L2BM/IRN seed None");
                let golden = golden.map(|&(_, d)| d);
                if golden != Some(IRN_TINY_GOLDEN_DIGEST) {
                    failed.push(format!(
                        "tiny IRN golden digest drifted: {golden:x?} != {IRN_TINY_GOLDEN_DIGEST:#x}"
                    ));
                }
                if res.rescued().iter().all(|&(_, n)| n == 0) {
                    failed.push(
                        "no DCQCN-stranded flow was rescued by IRN across any fault seed".into(),
                    );
                }
            }
            let res = res.outcome();
            let mut out = grid;
            out.text = format!("{}\n{}", out.text, res.text);
            out.digests.extend(res.digests);
            out.violations.extend(res.violations);
            (out, failed)
        }
    }
}

/// Runs a sweep and reports it: its table on stdout, every invariant
/// violation on stderr. With `check`, the sweep runs at `--jobs 1` and
/// `--jobs 8` and also fails on any digest or report divergence between
/// the two, and on its own extra gates.
fn run_sweep(
    which: &str,
    scale: &ExperimentScale,
    seeds: u64,
    jobs: usize,
    check: bool,
) -> ExitCode {
    let (out, mut failed) = sweep(which, scale, seeds, if check { 1 } else { jobs }, check);
    if check {
        let (par, _) = sweep(which, scale, seeds, 8, false);
        for ((name, a), (_, b)) in out.digests.iter().zip(&par.digests) {
            if a != b {
                failed.push(format!("{name}: digest {a:#x} (jobs 1) != {b:#x} (jobs 8)"));
            }
        }
        if out.text != par.text || out.digests.len() != par.digests.len() {
            failed.push("rendered reports differ between jobs 1 and jobs 8".into());
        }
        failed.extend(
            par.violations
                .iter()
                .map(|v| format!("invariant violation: {v}")),
        );
    }
    failed.extend(
        out.violations
            .iter()
            .map(|v| format!("invariant violation: {v}")),
    );
    println!("{}", out.text);
    for f in &failed {
        eprintln!("FAIL: {f}");
    }
    if !failed.is_empty() {
        return ExitCode::FAILURE;
    }
    if check {
        eprintln!(
            "# {which} --check passed: {} digests jobs-invariant, no violations",
            out.digests.len()
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(which) = args.first().cloned() else {
        return usage();
    };
    if which == "trace" {
        if args.len() > 1 {
            eprintln!("'trace' takes no flags: it replays one fixed scenario");
            return usage();
        }
        return trace();
    }

    let mut scale = ExperimentScale::small();
    let mut opts = SweepOptions::default();
    let mut check = false;
    let mut seeds: Option<u64> = None;
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
                seeds = Some(v);
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
    let sweep = matches!(which.as_str(), "chaos" | "irn" | "tournament");
    if check && !sweep {
        eprintln!("'{which}' has no --check mode (only chaos, irn and tournament do)");
        return usage();
    }
    if matches!(which.as_str(), "chaos" | "irn") && (seeds.is_some() || shards.is_some()) {
        eprintln!(
            "'{which}' takes no --seeds or --shards: it runs the fixed fault seeds, \
             each cell traced and serial"
        );
        return usage();
    }
    opts.seeds = seeds.unwrap_or(1).max(1);
    if let Some(n) = shards {
        // Applied last so `--shards` composes with `--scale` in any
        // flag order.
        scale = scale.with_shards(n);
    }

    if sweep {
        // `--check` runs at tiny scale; the tournament replicates every
        // cell over 2 seeds there and 3 otherwise (so every table cell
        // is mean±CI) unless `--seeds` says otherwise.
        let (scale, default_seeds) = if check {
            (ExperimentScale::tiny(), 2)
        } else {
            (scale, 3)
        };
        eprintln!(
            "# {which}{}: {} hosts, window {}, seed {}",
            if check { " --check, jobs 1 vs 8" } else { "" },
            scale.host_count(),
            scale.window,
            scale.seed,
        );
        return run_sweep(
            &which,
            &scale,
            seeds.unwrap_or(default_seeds),
            opts.jobs,
            check,
        );
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
