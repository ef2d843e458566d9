//! The repository's benchmark: six named workloads, five end-to-end
//! metrics, and a from-outside per-layer ledger. README.md in this
//! directory is the manual; `/BENCHMARK.json` is the contract.
//!
//! ```text
//! bench [--seed N] [--reps N] [--workload NAME]... [--out FILE] [--trace-out BASE]
//! bench --workload NAME --seed N --seconds S --trace 0|1     (one result line, for the driver)
//! bench --compare A.json B.json
//! bench --print-benchmark-json
//! ```

#![forbid(unsafe_code)]

mod cell;
mod child;
mod compare;
mod host;
mod json;
mod layers;
mod metrics;
mod report;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;

use cell::Mode;
use json::Json;
use workloads::{Workload, GOLDEN_SEED, WORKLOADS};

const USAGE: &str =
    "usage: bench [--seed N] [--reps N] [--workload NAME]... [--out FILE] [--trace-out BASE]
       bench --workload NAME --seed N --seconds S --trace 0|1
       bench --compare A.json B.json
       bench --print-benchmark-json";

/// Default timed reps per workload of a full run.
const DEFAULT_REPS: usize = 5;

#[derive(Debug, Default)]
struct Args {
    seed: Option<u64>,
    reps: Option<usize>,
    workloads: Vec<&'static Workload>,
    out: Option<String>,
    trace_out: Option<String>,
    seconds: Option<f64>,
    trace: bool,
    compare: Option<(String, String)>,
    print_benchmark_json: bool,
    child: Option<&'static Workload>,
    mode: Option<Mode>,
    jobs: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let workload = |name: &str| {
        workloads::find(name).ok_or_else(|| {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: {text:?} is not a valid number"))
        }
        match flag.as_str() {
            "--seed" => args.seed = Some(number(flag, value()?)?),
            "--reps" => args.reps = Some(number::<usize>(flag, value()?)?.max(1)),
            "--workload" => args.workloads.push(workload(value()?)?),
            "--out" => args.out = Some(value()?.to_string()),
            "--trace-out" => args.trace_out = Some(value()?.to_string()),
            "--seconds" => args.seconds = Some(number(flag, value()?)?),
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--compare" => args.compare = Some((value()?.to_string(), value()?.to_string())),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--child" => args.child = Some(workload(value()?)?),
            "--mode" => {
                args.mode = Some(match value()? {
                    "timed" => Mode::Timed,
                    "recorder" => Mode::Recorder,
                    "traced" => Mode::Traced,
                    other => return Err(format!("unknown --mode {other:?}")),
                })
            }
            "--jobs" => args.jobs = Some(number::<usize>(flag, value()?)?.max(1)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(GOLDEN_SEED);
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json().to_pretty());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let outcome = compare::compare(&read_json(a)?, &read_json(b)?)?;
        print!("{}", outcome.table);
        return Ok(outcome.passed());
    }
    if let Some(w) = args.child {
        let report = child::run(
            w,
            &child::ChildArgs {
                seed,
                mode: args.mode.unwrap_or(Mode::Timed),
                jobs: args.jobs.unwrap_or(1).min(host::thread_cap()),
                trace_out: args.trace_out,
                driver_ops: layers::OPS,
                setup_seconds: child::SETUP_SECONDS,
            },
        );
        println!("{}", report.to_line());
        return Ok(true);
    }
    if let Some(seconds) = args.seconds {
        let [w] = args.workloads[..] else {
            return Err("--seconds measures exactly one --workload".into());
        };
        return report::run_contract(w, seed, seconds, args.trace);
    }
    let selected: Vec<&'static Workload> = if args.workloads.is_empty() {
        WORKLOADS.iter().collect()
    } else {
        args.workloads
    };
    println!(
        "bench: seed {seed}, host_cores {}, threads per child <= {}",
        host::host_cores(),
        host::thread_cap()
    );
    let (doc, ok) = report::run_full(
        &selected,
        seed,
        args.reps.unwrap_or(DEFAULT_REPS),
        args.trace_out.as_deref(),
    )?;
    if let Some(path) = &args.out {
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
