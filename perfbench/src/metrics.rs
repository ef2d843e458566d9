//! The names, units and bounds of every metric the benchmark emits.
//! `/BENCHMARK.json` is generated from these tables (`bench
//! --print-benchmark-json`) and a unit test holds the two together.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one contract-mode run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 15;

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before `--compare` (and the driver) call it a regression.
    pub bound: f64,
}

/// The end-to-end metrics, measured per workload with tracing and the
/// flight recorder off. Events per second is deliberately not here: a
/// change that removes events lowers it while serving the user better
/// (it is `fabric.events_per_s` below).
///
/// The time bounds are what this shared 2-core host supports: its speed
/// wanders by ±12 % over a minute or so, which no number of repetitions
/// inside a 15 s run averages out (README.md has the measurements). Peak
/// RSS repeats to ±0.5 % at one seed; its bound covers the ±6 % by which
/// host placement moves peak queue occupancy from seed to seed.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_cpu_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "flow_done_share",
        unit: "ratio",
        lower_is_better: false,
        bound: 0.001,
    },
];

/// `(name, unit, lower_is_better)` of every per-layer metric; the layer
/// is the crate or module name the metric starts with. A metric a
/// workload cannot observe reads 0 there (README.md lists which).
pub const PER_LAYER: [(&str, &str, bool); 84] = [
    // sim: event queue and timing wheel.
    ("sim.queue.events", "count", true),
    ("sim.queue.dispatched", "count", true),
    ("sim.queue.timer_cancels", "count", true),
    ("sim.queue.ghost_pops", "count", true),
    ("sim.queue.max_pending", "count", true),
    ("sim.queue.slab_slots", "count", true),
    ("sim.queue.churn_ns", "ns", true),
    ("sim.wheel.arm_cancel_ns", "ns", true),
    // sim: stamps and barriers, and what the sharded engine does with them.
    ("sim.stamp.order_ns", "ns", true),
    ("sim.barrier.round_ns", "ns", true),
    ("fabric.shard.barriers", "count", true),
    ("fabric.shard.handoffs", "count", true),
    ("fabric.shard.max_event_share", "ratio", true),
    ("fabric.shard.stamp_ambiguities", "count", true),
    ("fabric.shard.cpu_over_wall", "ratio", true),
    ("fabric.shard.wall_ratio_vs_serial", "ratio", true),
    ("fabric.shard.rss_ratio_vs_serial", "ratio", true),
    // sim: flight recorder.
    ("sim.trace.record_ns", "ns", true),
    ("sim.trace.recorder_overhead_ratio", "ratio", true),
    // net.
    ("net.nodes", "count", true),
    ("net.links", "count", true),
    ("net.topology_s", "s", true),
    ("net.routing.build_s", "s", true),
    ("net.routing.next_port_ns", "ns", true),
    // switch.
    ("switch.enqueues", "count", true),
    ("switch.dequeues", "count", true),
    ("switch.drops", "count", true),
    ("switch.ecn_marks", "count", true),
    ("switch.pfc_pauses", "count", true),
    ("switch.pfc_resumes", "count", true),
    ("switch.busiest_enqueue_share", "ratio", true),
    ("switch.mmu.charge_discharge_ns", "ns", true),
    ("switch.receive_tx_ns.l2bm", "ns", true),
    ("switch.receive_tx_ns.dt", "ns", true),
    ("switch.receive_tx_ns.abm", "ns", true),
    ("switch.receive_tx_ns.occamy", "ns", true),
    ("switch.receive_tx_ns.bshare", "ns", true),
    // l2bm.
    ("l2bm.threshold_ns", "ns", true),
    ("l2bm.sojourn.update_ns", "ns", true),
    // transport.
    ("transport.dctcp.cwnd_updates", "count", true),
    ("transport.dctcp.recoveries", "count", true),
    ("transport.dctcp.partial_ack_rtx", "count", true),
    ("transport.rto_fires", "count", true),
    ("transport.dcqcn.rate_updates", "count", true),
    ("transport.dctcp.on_ack_ns", "ns", true),
    ("transport.dctcp.emit_ns", "ns", true),
    ("transport.dcqcn.emit_ns", "ns", true),
    ("transport.dcqcn.timer_ns", "ns", true),
    // workload.
    ("workload.flows", "count", true),
    ("workload.bytes", "B", true),
    ("workload.generate_s", "s", true),
    ("workload.poisson.ns_per_flow", "ns", true),
    // metrics.
    ("metrics.fct_records", "count", true),
    ("metrics.summarize_s", "s", true),
    ("metrics.fct.percentile_ns_per_record", "ns", true),
    // fabric.
    ("fabric.new_s", "s", true),
    ("fabric.add_flows_s", "s", true),
    ("fabric.run_s", "s", true),
    ("fabric.results_s", "s", true),
    ("fabric.ns_per_event", "ns", true),
    ("fabric.ns_per_event.window", "ns", true),
    ("fabric.ns_per_event.drain", "ns", true),
    ("fabric.events_per_s", "1/s", false),
    ("fabric.sim_us_per_wall_s", "us/s", false),
    ("fabric.rss_mb_per_sim_ms", "MB/ms", true),
    ("fabric.share.sim_queue", "ratio", true),
    ("fabric.share.switch", "ratio", true),
    ("fabric.share.transport", "ratio", true),
    ("fabric.share.unattributed", "ratio", true),
    // experiments.
    ("experiments.sweep.cells", "count", true),
    ("experiments.sweep.cell_s_sum", "s", true),
    ("experiments.sweep.parallel_efficiency", "ratio", false),
    // model: simulated, exact; a simulator-speed change leaves all of
    // them bit-identical.
    ("model.digest", "hash48", true),
    ("model.behavior_digest", "hash48", true),
    ("model.rdma_p99_slowdown", "x", true),
    ("model.tcp_p99_slowdown", "x", true),
    ("model.pause_frames", "count", true),
    ("model.lossy_drops", "count", true),
    ("model.lossless_drops", "count", true),
    ("model.tor_occupancy_p99_bytes", "B", true),
    ("model.sim_end_us", "us", true),
    // bench: the runner itself.
    ("bench.trace_overhead_ratio", "ratio", true),
    ("bench.trace_overshoot_events", "count", true),
    ("bench.host_cores", "count", false),
];

/// Unit of a per-layer metric.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    PER_LAYER
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, unit, _)| unit)
}

/// Whether two runs of the same inputs must agree exactly on `name`:
/// every `model.*` metric and every count the simulator (not the host
/// or the runner) produces.
pub fn is_exact(name: &str) -> bool {
    name.starts_with("model.") || (layer_unit(name) == Some("count") && !name.starts_with("bench."))
}

/// The low 48 bits of a digest: what a JSON number holds exactly.
pub fn hash48(digest: u64) -> f64 {
    (digest & 0xffff_ffff_ffff) as f64
}

fn direction(lower_is_better: bool) -> Json {
    if lower_is_better { "lower" } else { "higher" }.into()
}

/// The contents of `/BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|&s| s.into()).collect());
    Json::obj()
        .with(
            "command",
            strings(&[
                "cargo",
                "run",
                "--quiet",
                "--release",
                "--offline",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--bin",
                "bench",
                "--",
            ]),
        )
        .with("paths", strings(&["perfbench"]))
        .with("run_seconds", (RUN_SECONDS as f64).into())
        .with(
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj()
                            .with("name", w.name.into())
                            .with("why", w.why.into())
                    })
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj()
                            .with("name", m.name.into())
                            .with("unit", m.unit.into())
                            .with("better", direction(m.lower_is_better))
                            .with("bound", m.bound.into())
                    })
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, lower)| {
                        Json::obj()
                            .with("name", name.into())
                            .with("unit", unit.into())
                            .with("better", direction(lower))
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let names: Vec<&str> = (WORKLOADS.iter().map(|w| w.name))
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let unique: BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        let units = (END_TO_END.iter().map(|m| m.unit)).chain(PER_LAYER.iter().map(|m| m.1));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(unit.bytes().all(
                |b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')
            ));
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&committed).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with `bench --print-benchmark-json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn exactness_covers_model_and_simulator_counts_only() {
        assert!(is_exact("model.digest") && is_exact("model.rdma_p99_slowdown"));
        assert!(is_exact("sim.queue.events") && is_exact("switch.enqueues"));
        assert!(!is_exact("bench.host_cores") && !is_exact("fabric.run_s"));
        assert!(!is_exact("run_wall_s"));
    }
}
