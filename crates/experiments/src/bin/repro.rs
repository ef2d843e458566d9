//! `repro` — regenerate the L2BM paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale tiny|small|paper] [--seed N] [--window-ms N]
//!                    [--jobs N] [--seeds N] [--check]
//!
//! experiments: fig3a fig3b fig7 table2 fig8 fig9 fig10 fig11 ablations
//!              chaos irn tournament all
//! repro trace
//! ```
//!
//! Scaled-down runs (`--scale small`, the default) preserve the
//! qualitative ordering: `repro all --scale small` takes about 3.5 s
//! on one core of a 2-core host. `--scale paper` uses the full 128-server
//! fabric of the paper's §IV setup: `repro fig7 --scale paper --jobs 2`
//! took 71–97 s (136 s CPU) on the same host.
//!
//! The rows of one invocation share a store of runs in which each cell
//! is its own key, so a cell several figures show (Fig. 7's 0.8 column
//! is also Table II's, Fig. 8's and Fig. 9's) is simulated once, as is
//! each fault cell `irn` asks for twice; stderr reports `# N
//! simulations for M cells` (`all --scale small`: 39 for 78; `irn`: 28
//! for 30).
//!
//! `--jobs N` fans the independent sweep cells across N worker threads
//! (`--jobs 0` = all available cores); the output is bit-identical at
//! any thread count. `--seeds N` replicates every cell over N seeds and
//! reports `mean ± 95% CI` per table cell. `--scale` picks the base
//! scale; `--seed` and `--window-ms` replace its seed and window in any
//! flag order.
//!
//! Every experiment is a row of `dcn_experiments::FIGURES` (the paper's
//! figures, all of which `all` runs) or `SWEEPS` (`chaos`, `irn`,
//! `tournament`: the beyond-paper sweeps, each with an invariant
//! battery). `chaos` and `irn` run fixed fault seeds with every cell
//! traced, so they refuse `--seeds`; the tournament
//! replicates over 3 seeds unless `--seeds` says otherwise.
//!
//! `--check` exists only for the `SWEEPS` rows: it runs the row at tiny
//! scale (2 seeds unless `--seeds` says otherwise) at `--jobs 1` and
//! `--jobs 8`, and fails unless both outcomes are equal and carry no
//! invariant violation. It refuses every flag that picks a scale or a
//! worker count, as `repro` refuses a zero `--window-ms` or `--seeds`.
//!
//! `repro trace` is the flight-recorder dump: one fixed-seed hybrid run
//! with the recorder on, every lifecycle event as JSON Lines on stdout,
//! and the totals plus a causal summary of the slowest TCP flow on
//! stderr. It takes no flags and is not part of `all` (the dump is
//! about 26 MB).

use std::env;
use std::io::Write;
use std::process::ExitCode;

use dcn_experiments::{ExperimentScale, Runs, SweepOptions, FIGURES, SWEEPS};
use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice};
use dcn_net::{ClosConfig, Priority, Topology, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimRng, SimTime, TraceConfig, TraceDropCause};
use dcn_switch::SwitchConfig;
use dcn_workload::{web_search_cdf, PoissonTraffic};

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <fig3a|fig3b|fig7|table2|fig8|fig9|fig10|fig11|ablations|chaos|irn|tournament|all> \
         [--scale tiny|small|paper] [--seed N] [--window-ms N] [--jobs N] [--seeds N] \
         [--check]\n       repro trace"
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
                t.drops_by(TraceDropCause::AdmissionDeniedIngress),
                t.drops_by(TraceDropCause::AdmissionDeniedEgress),
                t.drops_by(TraceDropCause::HeadroomExhausted),
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
    let mut seed: Option<u64> = None;
    let mut window_ms: Option<u64> = None;
    let mut jobs = 1;
    let mut check = false;
    let mut seeds: Option<u64> = None;
    // The first flag `--check` fixes itself: it runs at tiny scale, jobs 1 vs 8.
    let mut fixed: Option<&str> = None;
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--check" {
            check = true;
            i += 1;
            continue;
        }
        // A missing value reads as "", which every flag refuses.
        let v = args.get(i + 1).map_or("", String::as_str);
        match flag {
            "--jobs" => {
                let Ok(v) = v.parse::<usize>() else {
                    return usage();
                };
                jobs = if v == 0 { dcn_sim::default_jobs() } else { v };
            }
            "--seeds" => {
                let Ok(v) = v.parse::<u64>() else {
                    return usage();
                };
                if v == 0 {
                    eprintln!("--seeds must be at least 1");
                    return usage();
                }
                seeds = Some(v);
            }
            "--scale" => {
                scale = match v {
                    "tiny" => ExperimentScale::tiny(),
                    "small" => ExperimentScale::small(),
                    "paper" => ExperimentScale::paper(),
                    other => {
                        eprintln!("unknown scale '{other}'");
                        return usage();
                    }
                };
            }
            "--seed" => {
                let Ok(v) = v.parse::<u64>() else {
                    return usage();
                };
                seed = Some(v);
            }
            "--window-ms" => {
                let Ok(v) = v.parse::<u64>() else {
                    return usage();
                };
                if v == 0 {
                    eprintln!("--window-ms must be at least 1: a 0 ms window generates no flows");
                    return usage();
                }
                window_ms = Some(v);
            }
            other => {
                eprintln!("unknown flag '{other}'");
                return usage();
            }
        }
        if flag != "--seeds" {
            fixed.get_or_insert(flag);
        }
        i += 2;
    }

    let rows = if which == "all" {
        FIGURES.to_vec()
    } else {
        match FIGURES
            .iter()
            .chain(SWEEPS)
            .find(|(name, _)| *name == which)
        {
            Some(&row) => vec![row],
            None => {
                eprintln!("unknown experiment '{which}'");
                return usage();
            }
        }
    };
    if check && !SWEEPS.iter().any(|(name, _)| *name == which) {
        let names: Vec<&str> = SWEEPS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "'{which}' has no --check mode (only {} do)",
            names.join(", ")
        );
        return usage();
    }
    if matches!(which.as_str(), "chaos" | "irn") && seeds.is_some() {
        eprintln!("'{which}' takes no --seeds: it runs the fixed fault seeds, each cell traced");
        return usage();
    }
    if let (true, Some(flag)) = (check, fixed) {
        eprintln!(
            "'{which} --check' takes no {flag}: it runs at tiny scale at --jobs 1 and --jobs 8"
        );
        return usage();
    }
    // Two replicates under `--check`, else the experiment's own default
    // (`SweepOptions::seeds == 0`), unless `--seeds` says otherwise.
    // Every row shares one store: a cell another row ran is not rerun.
    let runs = Runs::default();
    let opts = SweepOptions::new(jobs, seeds.unwrap_or(if check { 2 } else { 0 })).sharing(&runs);
    if check {
        scale = ExperimentScale::tiny();
    }
    // Applied after the loop, so `--scale` never resets them.
    if let Some(seed) = seed {
        scale = scale.with_seed(seed);
    }
    if let Some(ms) = window_ms {
        // The run ends at window + drain nanoseconds: both must fit a
        // `SimTime`, or the window silently wraps.
        let end_ns = ms
            .checked_mul(1_000_000)
            .and_then(|ns| ns.checked_add(scale.drain.as_nanos()));
        if end_ns.is_none() {
            eprintln!("--window-ms {ms} overflows the simulated clock with the scale's drain");
            return usage();
        }
        scale = scale.with_window(SimDuration::from_millis(ms));
    }

    eprintln!(
        "# {which}: {} hosts, window {}, seed {}, jobs {jobs}{}",
        scale.host_count(),
        scale.window,
        scale.seed,
        if check { " vs 8 (--check)" } else { "" },
    );
    let mut failed = Vec::new();
    for (name, run) in rows {
        if which == "all" {
            eprintln!("# running {name} ...");
        }
        let out = run(&scale, &opts);
        if check {
            // A store of its own, or the second run would read the first's.
            let par = run(&scale, &SweepOptions::new(8, opts.seeds));
            let diverged = out.digests.iter().zip(&par.digests).find(|(a, b)| a != b);
            match (out == par, diverged) {
                (true, _) => eprintln!("# {name} --check: {} digests", out.digests.len()),
                (false, Some(((label, _), _))) => failed.push(format!(
                    "{name}: the digest of {label} differs at --jobs 1 and 8"
                )),
                (false, None) => failed.push(format!(
                    "{name}: the digest count, report text or violations differ at --jobs 1 and 8"
                )),
            }
        }
        failed.extend(
            out.violations
                .iter()
                .map(|v| format!("invariant violation: {v}")),
        );
        println!("{}", out.text);
    }
    if runs.cells() > 0 {
        eprintln!("# {}", runs.summary());
    }
    for f in &failed {
        eprintln!("FAIL: {f}");
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
