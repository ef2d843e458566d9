//! Benchmarks for the L2BM reproduction, with a small self-contained
//! timing harness (the build is offline, so no criterion).
//!
//! Two suites live under `benches/` (both `harness = false` binaries):
//!
//! * `paper_figures` — one bench per paper table/figure, running a
//!   scaled-down (tiny fabric, short window) variant of the exact code
//!   path the `repro` CLI uses. These measure end-to-end experiment
//!   cost and keep every figure's pipeline exercised under `cargo
//!   bench`.
//! * `hot_paths` — micro-benchmarks of the simulator's hot paths: MMU
//!   charge/discharge, policy threshold evaluation (DT / ABM / L2BM) at
//!   full 36-port × 8-priority radix with hundreds of active queues,
//!   sojourn-module updates, the event queue, routing lookups, and a
//!   full switch receive→transmit cycle.
//!
//! The one binary, `cargo run --release -p dcn-bench --bin trace`, is
//! the flight-recorder dump tool (JSONL + slowest-flow summary).
//! End-to-end wall-clock, memory and per-layer measurement lives in the
//! stand-alone `perfbench/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use dcn_experiments::ExperimentScale;
use dcn_sim::SimDuration;

/// The scale used by figure benches: tiny fabric, 1 ms of traffic —
/// around a hundred milliseconds of wall time per iteration.
pub fn bench_scale() -> ExperimentScale {
    ExperimentScale::tiny().with_window(SimDuration::from_millis(1))
}

/// One timed benchmark's outcome.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name, `group/function` style.
    pub name: String,
    /// Iterations timed (after warmup).
    pub iters: u64,
    /// Mean wall time per iteration, nanoseconds.
    pub ns_per_iter: f64,
}

impl BenchResult {
    /// Iterations per second implied by the mean.
    pub fn per_sec(&self) -> f64 {
        1e9 / self.ns_per_iter
    }
}

/// Times `f` and prints one aligned result line.
///
/// The harness warms up for ~50 ms, then runs batches until ~300 ms of
/// measurement has accumulated, and reports the mean. That is enough to
/// compare order-of-magnitude hot-path costs (the use these suites are
/// put to) without criterion's statistical machinery.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchResult {
    let warmup = Duration::from_millis(50);
    let measure = Duration::from_millis(300);

    // Warmup, and calibrate a batch size of roughly 10 ms.
    let start = Instant::now();
    let mut warm_iters = 0u64;
    while start.elapsed() < warmup {
        std::hint::black_box(f());
        warm_iters += 1;
    }
    let est_ns = (warmup.as_nanos() as f64 / warm_iters as f64).max(1.0);
    let batch = ((10e6 / est_ns) as u64).max(1);

    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < measure {
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        iters += batch;
    }
    let ns_per_iter = start.elapsed().as_nanos() as f64 / iters as f64;
    let result = BenchResult {
        name: name.to_string(),
        iters,
        ns_per_iter,
    };
    println!(
        "{:<44} {:>12.1} ns/iter {:>16.0} /s ({} iters)",
        result.name,
        result.ns_per_iter,
        result.per_sec(),
        result.iters
    );
    result
}

/// Like [`bench`] but for expensive end-to-end runs: times `n` back-to-
/// back iterations with no warmup batching.
pub fn bench_n<T>(name: &str, n: u64, mut f: impl FnMut() -> T) -> BenchResult {
    std::hint::black_box(f()); // one warmup run
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    let ns_per_iter = start.elapsed().as_nanos() as f64 / n as f64;
    let result = BenchResult {
        name: name.to_string(),
        iters: n,
        ns_per_iter,
    };
    println!(
        "{:<44} {:>12.3} ms/iter ({} iters)",
        result.name,
        result.ns_per_iter / 1e6,
        result.iters
    );
    result
}
