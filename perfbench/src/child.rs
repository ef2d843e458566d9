//! One run of one workload in a fresh process (`bench --child`), so
//! `VmHWM` is the run's own. Prints one JSON line: the run's numbers
//! under their final metric names, its digests, and what its
//! correctness checks found.

use std::time::Instant;

use dcn_sim::par_map;

use crate::cell::{run_cell, time_setup, CellRun, Mode, Totals};
use crate::host::{cpu_seconds, peak_rss_mb};
use crate::json::Json;
use crate::layers;
use crate::metrics::hash48;
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::Workload;

/// What the parent asks of a child.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildArgs {
    pub seed: u64,
    pub mode: Mode,
    /// Worker threads of the sweep's pool (a traced sweep runs at 1).
    pub jobs: usize,
    /// Where to write the spans as JSON Lines.
    pub trace_out: Option<String>,
    /// Ops per pass of the layer drivers a traced child runs.
    pub driver_ops: u64,
    /// Wall seconds spent repeating the set-up before the run.
    pub setup_seconds: f64,
}

/// [`ChildArgs::setup_seconds`] of a benchmark run (the unit tests take
/// less).
pub const SETUP_SECONDS: f64 = 0.4;

/// Runs the workload and returns the child's report.
pub fn run(w: &Workload, args: &ChildArgs) -> Json {
    let cells = w.cells();
    let shards = w.shards();
    // The sharded engine exposes neither `run_until` nor the recorder:
    // its traced rep is phase spans, `ShardStats` and the drivers.
    let mode = if shards > 0 { Mode::Timed } else { args.mode };
    let mut spans = Spans::new(0);

    // Set-up, repeated for a fixed stretch of wall time and dropped: a
    // millisecond-sized set-up timed a few times in a row is not a
    // steady number on a shared host, its median over 0.4 s is. The run
    // below starts from a warm allocator either way.
    let mut setups: Vec<f64> = Vec::new();
    let setup_start = Instant::now();
    while setups.len() < 3 || setup_start.elapsed().as_secs_f64() < args.setup_seconds {
        setups.push(cells.iter().map(|c| time_setup(c, args.seed, shards)).sum());
    }

    // `par_map` runs inline when it has one job or one cell.
    let indexed: Vec<_> = cells.iter().enumerate().collect();
    let cpu_before = cpu_seconds();
    let start = Instant::now();
    let runs: Vec<CellRun> = par_map(args.jobs, &indexed, |&(ix, cell)| {
        let mut local = Spans::new(ix as u32);
        (run_cell(cell, args.seed, shards, mode, &mut local), local)
    })
    .into_iter()
    .map(|(run, local)| {
        spans.absorb(local);
        run
    })
    .collect();
    let run_wall_s = start.elapsed().as_secs_f64();
    let run_cpu_s = cpu_seconds() - cpu_before;
    let totals = Totals::of(&runs);
    // Read before the drivers allocate anything of their own.
    let rss_mb = peak_rss_mb();

    let mut num = Json::obj();
    let mut put = |name: &str, value: f64| num.set(name, value.into());
    put("run_wall_s", run_wall_s);
    put("run_cpu_s", run_cpu_s);
    put("setup_s", median(&setups));
    put("peak_rss_mb", rss_mb);
    put("flows", totals.flows as f64);
    put("unfinished", totals.unfinished as f64);
    for (name, value) in layer_numbers(&totals) {
        put(name, value);
    }
    if args.mode == Mode::Traced {
        let largest = runs.iter().max_by_key(|r| r.flows).expect("a cell ran");
        let dims = layers::Dims {
            topo: cells[0].fabric.topology(),
            max_pending: totals.max_pending as usize,
            flows: largest.flows,
            seed: args.seed,
            ops: args.driver_ops,
        };
        for (name, value) in layers::run(&dims) {
            put(name, value);
        }
    }

    if let Some(path) = &args.trace_out {
        if let Err(e) = std::fs::write(path, spans.to_jsonl()) {
            eprintln!("bench: cannot write spans to {path}: {e}");
        }
    }

    let cell_behavior_digests: Vec<Json> = runs
        .iter()
        .map(|r| {
            format!("{:#018x}", r.results.behavior_digest())
                .as_str()
                .into()
        })
        .collect();
    Json::obj()
        .with("workload", w.name.into())
        .with("seed", (args.seed as f64).into())
        .with("mode", format!("{:?}", args.mode).as_str().into())
        .with("jobs", (args.jobs as f64).into())
        .with("digest", format!("{:#018x}", totals.digest).as_str().into())
        .with(
            "behavior_digest",
            format!("{:#018x}", totals.behavior_digest).as_str().into(),
        )
        .with("cell_behavior_digests", Json::Arr(cell_behavior_digests))
        .with(
            "violations",
            Json::Arr(
                totals
                    .violations()
                    .iter()
                    .map(|v| v.as_str().into())
                    .collect(),
            ),
        )
        .with("num", num)
}

/// The per-layer metrics one run can state on its own: counts from
/// `RunResults`, span totals, and — for a traced run — the recorder
/// tally and slice costs.
fn layer_numbers(t: &Totals) -> Vec<(&'static str, f64)> {
    let per = |wall_ns: u64, events: u64| {
        if events == 0 {
            0.0
        } else {
            wall_ns as f64 / events as f64
        }
    };
    let mut v = vec![
        ("sim.queue.events", t.events as f64),
        ("sim.queue.dispatched", t.dispatched as f64),
        ("sim.queue.timer_cancels", t.timer_cancels as f64),
        ("sim.queue.ghost_pops", t.ghost_pops as f64),
        ("sim.queue.max_pending", t.max_pending as f64),
        ("sim.queue.slab_slots", t.slab_slots as f64),
        ("fabric.shard.barriers", t.shard_barriers as f64),
        ("fabric.shard.handoffs", t.shard_handoffs as f64),
        ("fabric.shard.max_event_share", t.shard_max_event_share),
        (
            "fabric.shard.stamp_ambiguities",
            t.shard_stamp_ambiguities as f64,
        ),
        ("net.nodes", t.nodes as f64),
        ("net.links", t.links as f64),
        ("net.topology_s", t.phases.topology_s),
        ("workload.flows", t.flows as f64),
        ("workload.bytes", t.offered_bytes as f64),
        ("workload.generate_s", t.phases.generate_s),
        ("metrics.fct_records", t.fct_records as f64),
        ("metrics.summarize_s", t.phases.summarize_s),
        ("fabric.new_s", t.phases.new_s),
        ("fabric.add_flows_s", t.phases.add_flows_s),
        ("fabric.run_s", t.phases.run_s),
        ("fabric.results_s", t.phases.results_s),
        ("experiments.sweep.cells", t.cells as f64),
        ("experiments.sweep.cell_s_sum", t.phases.cell_s()),
        ("model.digest", hash48(t.digest)),
        ("model.behavior_digest", hash48(t.behavior_digest)),
        ("model.rdma_p99_slowdown", t.summary.rdma_p99_slowdown),
        ("model.tcp_p99_slowdown", t.summary.tcp_p99_slowdown),
        ("model.pause_frames", t.pause_frames as f64),
        ("model.lossy_drops", t.lossy_drops as f64),
        ("model.lossless_drops", t.lossless_drops as f64),
        (
            "model.tor_occupancy_p99_bytes",
            t.summary.tor_occupancy_p99_bytes,
        ),
        ("model.sim_end_us", t.sim_end_us),
    ];
    if let Some(tally) = &t.tally {
        v.extend([
            ("switch.enqueues", tally.kind("enqueue") as f64),
            ("switch.dequeues", tally.kind("dequeue") as f64),
            ("switch.drops", tally.kind("drop") as f64),
            ("switch.ecn_marks", tally.kind("ecn_mark") as f64),
            ("switch.pfc_pauses", tally.kind("pfc_pause") as f64),
            ("switch.pfc_resumes", tally.kind("pfc_resume") as f64),
            (
                "switch.busiest_enqueue_share",
                tally.busiest_enqueue_share(),
            ),
            (
                "transport.dctcp.cwnd_updates",
                tally.kind("tcp_cwnd") as f64,
            ),
            (
                "transport.dctcp.recoveries",
                tally.kind("tcp_enter_recovery") as f64,
            ),
            (
                "transport.dctcp.partial_ack_rtx",
                tally.kind("tcp_partial_ack_rtx") as f64,
            ),
            ("transport.rto_fires", tally.kind("rto_fire") as f64),
            (
                "transport.dcqcn.rate_updates",
                tally.kind("rdma_rate") as f64,
            ),
            (
                "fabric.ns_per_event.window",
                per(t.window_slices.0, t.window_slices.1),
            ),
            (
                "fabric.ns_per_event.drain",
                per(t.drain_slices.0, t.drain_slices.1),
            ),
        ]);
    }
    v
}
