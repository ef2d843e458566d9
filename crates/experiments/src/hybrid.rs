//! The hybrid-traffic experiment (paper §IV-A): 16 servers per ToR send
//! RDMA web-search traffic at load 0.4 ([`RDMA_LOAD`]), the other 16
//! send TCP web-search traffic at a swept load, and the four policies
//! compete on RDMA/TCP tail FCT, buffer occupancy and PFC pause frames.

use std::sync::Arc;

use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice, RunResults};
use dcn_net::{NodeId, Priority, Topology, TrafficClass};
use dcn_sim::{SimDuration, SimRng, SimTime};
use dcn_workload::{web_search_cdf, FlowSpec, PoissonTraffic};

use crate::scale::ExperimentScale;

/// The RDMA load the paper holds fixed while it sweeps TCP (§IV-A).
pub(crate) const RDMA_LOAD: f64 = 0.4;

/// One hybrid run's parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridConfig {
    /// The scale (topology, window, seed).
    pub scale: ExperimentScale,
    /// Buffer-management policy under test.
    pub policy: PolicyChoice,
    /// Load of the RDMA half (paper: fixed 0.4).
    pub rdma_load: f64,
    /// Load of the TCP half (paper: swept 0.1 → 0.8).
    pub tcp_load: f64,
}

impl HybridConfig {
    /// The paper's hybrid cell: RDMA at [`RDMA_LOAD`], TCP at `tcp_load`.
    pub(crate) fn paper(scale: &ExperimentScale, policy: PolicyChoice, tcp_load: f64) -> Self {
        HybridConfig {
            scale: scale.clone(),
            policy,
            rdma_load: RDMA_LOAD,
            tcp_load,
        }
    }
}

/// Summary of one hybrid run — one x-axis point of Figs. 3(b)/7 and one
/// cell column of Table II. Counters (pause frames, drops, unfinished
/// flows) are read from `results`.
#[derive(Debug, Clone)]
pub struct HybridPoint {
    /// Policy label (DT / DT2 / ABM / L2BM); an ablation files its runs
    /// under the variant's name instead.
    pub label: String,
    /// TCP load of this run.
    pub tcp_load: f64,
    /// 99th-percentile FCT slowdown of RDMA flows (Fig. 7(a)).
    pub rdma_p99_slowdown: f64,
    /// 99th-percentile FCT slowdown of TCP flows (Fig. 7(b)).
    pub tcp_p99_slowdown: f64,
    /// 99th-percentile sampled occupancy of the first ToR switch, bytes
    /// (Fig. 7(c)).
    pub tor_occupancy_p99: f64,
    /// Full results for figure-specific post-processing (CDFs etc.),
    /// shared by every copy of the point.
    pub results: Arc<RunResults>,
}

/// What one run hands the engine: the fabric, its configuration, the
/// flows and the deadline. The only place this crate builds a
/// [`FabricConfig`] or a [`FabricSim`]; a fault cell edits `cfg` before
/// it runs.
pub(crate) struct RunInputs {
    pub(crate) topo: Topology,
    pub(crate) cfg: FabricConfig,
    pub(crate) flows: Vec<FlowSpec>,
    pub(crate) deadline: SimTime,
}

impl RunInputs {
    /// `flows` on `topo` under `policy`, with `scale`'s seed and buffer,
    /// until the end of `scale`'s window and drain.
    pub(crate) fn new(
        scale: &ExperimentScale,
        policy: PolicyChoice,
        topo: Topology,
        flows: Vec<FlowSpec>,
    ) -> RunInputs {
        RunInputs {
            cfg: FabricConfig {
                policy,
                seed: scale.seed,
                switch: scale.switch_config(),
                ..FabricConfig::default()
            },
            deadline: SimTime::ZERO + scale.window + scale.drain,
            topo,
            flows,
        }
    }

    /// Runs the inputs on the serial engine and hands back the finished
    /// simulation, for callers that read more than its results.
    pub(crate) fn simulate(self) -> FabricSim {
        let mut sim = FabricSim::new(self.topo, self.cfg);
        sim.add_flows(self.flows);
        sim.run_until_done(self.deadline);
        sim
    }

    /// Runs the inputs on the serial engine.
    pub(crate) fn run(self) -> RunResults {
        self.simulate().results()
    }
}

/// Splits the hosts of each rack into an (RDMA, TCP) half, and returns
/// the host→rack map used to keep traffic inter-rack.
pub(crate) fn split_hosts(
    topo: &Topology,
    hosts_per_tor: usize,
) -> (Vec<NodeId>, Vec<NodeId>, Vec<(NodeId, usize)>) {
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let mut rdma = Vec::new();
    let mut tcp = Vec::new();
    let mut rack_of = Vec::new();
    for (i, &h) in hosts.iter().enumerate() {
        let rack = i / hosts_per_tor;
        rack_of.push((h, rack));
        if i % hosts_per_tor < hosts_per_tor / 2 {
            rdma.push(h);
        } else {
            tcp.push(h);
        }
    }
    (rdma, tcp, rack_of)
}

/// Priority queues the paper assigns: one lossless class for RDMA, one
/// lossy class for TCP (two of the eight queues in use).
pub(crate) const RDMA_PRIO: Priority = Priority::new(3);
/// The lossy priority.
pub(crate) const TCP_PRIO: Priority = Priority::new(1);

/// p99 FCT slowdown of one class's completed flows (`NaN` if none).
pub(crate) fn p99_slowdown(results: &RunResults, class: TrafficClass) -> f64 {
    results
        .fct
        .slowdown_percentile(class, 0.99)
        .unwrap_or(f64::NAN)
}

/// Delivered goodput in Gbit/s: completed flows' payload over the
/// traffic window.
pub(crate) fn goodput_gbps(results: &RunResults, window: SimDuration) -> f64 {
    let delivered: u64 = results.fct.records().iter().map(|x| x.size.as_u64()).sum();
    delivered as f64 * 8.0 / window.as_secs_f64() / 1e9
}

/// Quantile `q` of the first ToR's sampled occupancy in bytes (0 if
/// nothing was sampled). Every switch is sampled at once and the ToRs
/// hold the lowest switch ids, so the first series is the first ToR's.
pub(crate) fn tor_occupancy(results: &RunResults, q: f64) -> f64 {
    results
        .occupancy
        .values()
        .next()
        .and_then(|s| s.quantile(q))
        .unwrap_or(0.0)
}

/// The inputs of one hybrid run: RDMA web-search traffic among the
/// RDMA half of each rack, TCP among the other half. §IV-A: "data is
/// randomly sent to all other servers" — no rack restriction, for
/// every caller including both Fig. 3(a) cells; only the incast
/// background TCP (`incast_inputs`) is kept inter-rack.
pub(crate) fn hybrid_inputs(cfg: &HybridConfig) -> RunInputs {
    let topo = Topology::clos(&cfg.scale.clos);
    let (rdma_hosts, tcp_hosts, _) = split_hosts(&topo, cfg.scale.clos.hosts_per_tor);
    let mut rng = SimRng::seed_from_u64(cfg.scale.seed);
    let mut flows = Vec::new();
    if cfg.rdma_load > 0.0 {
        let rdma = PoissonTraffic::builder(rdma_hosts.clone(), web_search_cdf())
            .load(cfg.rdma_load)
            .link_rate(cfg.scale.clos.host_rate)
            .class(TrafficClass::Lossless, RDMA_PRIO)
            .dests(rdma_hosts)
            .build();
        flows.extend(rdma.generate(cfg.scale.window, &mut rng.fork(1)));
    }
    if cfg.tcp_load > 0.0 {
        let tcp = PoissonTraffic::builder(tcp_hosts.clone(), web_search_cdf())
            .load(cfg.tcp_load)
            .link_rate(cfg.scale.clos.host_rate)
            .class(TrafficClass::Lossy, TCP_PRIO)
            .dests(tcp_hosts)
            .first_flow_id(1 << 40)
            .build();
        flows.extend(tcp.generate(cfg.scale.window, &mut rng.fork(2)));
    }
    RunInputs::new(&cfg.scale, cfg.policy, topo, flows)
}

/// Runs one hybrid experiment point.
pub fn run_hybrid(cfg: &HybridConfig) -> HybridPoint {
    let results = hybrid_inputs(cfg).run();
    HybridPoint {
        label: cfg.policy.label(),
        tcp_load: cfg.tcp_load,
        rdma_p99_slowdown: p99_slowdown(&results, TrafficClass::Lossless),
        tcp_p99_slowdown: p99_slowdown(&results, TrafficClass::Lossy),
        tor_occupancy_p99: tor_occupancy(&results, 0.99),
        results: Arc::new(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_fabric::ShardedFabricSim;

    impl RunInputs {
        /// Runs the inputs on the sharded executor with up to `shards`
        /// threads: every digest must equal the serial engine's.
        pub(crate) fn run_sharded(&self, shards: usize) -> RunResults {
            let mut sim = ShardedFabricSim::new(self.topo.clone(), self.cfg.clone(), shards);
            sim.add_flows(self.flows.iter().copied());
            sim.run_until_done(self.deadline);
            sim.results()
        }
    }

    /// Fig. 7 cells on the sharded executor: the sharded oracle (one
    /// shard, full stamp machinery), a real split and more shards than
    /// ToRs (clamped) match the serial run. The small cell is the golden
    /// one (`golden_digests`), reached with no ambiguous comparison.
    #[test]
    fn fig7_cell_digest_is_shard_invariant() {
        let cells = [
            (ExperimentScale::tiny(), None),
            (ExperimentScale::tiny().with_seed(7), None),
            (
                ExperimentScale::small(),
                Some((876_393, 0x51a4_082e_0ecc_b7db)),
            ),
        ];
        for (scale, golden) in cells {
            let cfg = HybridConfig::paper(&scale, PolicyChoice::l2bm(), 0.8);
            let seed = cfg.scale.seed;
            let serial = run_hybrid(&cfg).results;
            assert!(!serial.fct.is_empty(), "cell carried traffic");
            let inputs = hybrid_inputs(&cfg);
            for shards in [1, 2, 8] {
                let sharded = inputs.run_sharded(shards);
                assert_eq!(
                    serial.digest(),
                    sharded.digest(),
                    "fig7 cell seed {seed}: serial vs {shards} shards \
                     (fct {} vs {}, events {} vs {})",
                    serial.fct.len(),
                    sharded.fct.len(),
                    serial.events_processed,
                    sharded.events_processed,
                );
                assert!(!sharded.shards.is_empty(), "ShardStats surfaced");
                if let Some((events, digest)) = golden {
                    assert_eq!(sharded.events_processed, events, "{shards} shards");
                    assert_eq!(sharded.digest(), digest, "{shards} shards");
                    let ambiguous: u64 = sharded.shards.iter().map(|s| s.stamp_ambiguities).sum();
                    assert_eq!(ambiguous, 0, "{shards} shards: ambiguous stamp comparisons");
                }
            }
        }
    }

    /// One load column of Table II across the four paper policies.
    #[test]
    fn table2_cells_digest_is_shard_invariant() {
        for policy in crate::paper_policies() {
            let cfg = HybridConfig::paper(&ExperimentScale::tiny(), policy, 0.6);
            let serial = run_hybrid(&cfg).results.digest();
            let inputs = hybrid_inputs(&cfg);
            for shards in [1, 2] {
                assert_eq!(
                    serial,
                    inputs.run_sharded(shards).digest(),
                    "table2 cell {}: serial vs {shards} shards",
                    policy.label()
                );
            }
        }
    }

    #[test]
    fn tiny_hybrid_run_produces_both_classes() {
        let cfg = HybridConfig::paper(&ExperimentScale::tiny(), PolicyChoice::l2bm(), 0.4);
        let p = run_hybrid(&cfg);
        assert_eq!(p.label, "L2BM");
        assert!(p.results.fct.by_class(TrafficClass::Lossless).count() > 0);
        assert!(p.results.fct.by_class(TrafficClass::Lossy).count() > 0);
        assert_eq!(
            p.results.drops.lossless_packets, 0,
            "lossless class must not drop"
        );
        assert!(p.rdma_p99_slowdown >= 1.0);
    }

    #[test]
    fn split_is_half_and_inter_rack_map_is_complete() {
        let scale = ExperimentScale::tiny();
        let topo = Topology::clos(&scale.clos);
        let (rdma, tcp, rack_of) = split_hosts(&topo, scale.clos.hosts_per_tor);
        assert_eq!(rdma.len(), 4);
        assert_eq!(tcp.len(), 4);
        assert_eq!(rack_of.len(), 8);
        // Two racks, four hosts each.
        assert_eq!(rack_of.iter().filter(|&&(_, r)| r == 0).count(), 4);
    }

    #[test]
    fn rdma_only_run() {
        let cfg = HybridConfig::paper(&ExperimentScale::tiny(), PolicyChoice::dt(), 0.0);
        let p = run_hybrid(&cfg);
        assert_eq!(p.results.fct.by_class(TrafficClass::Lossy).count(), 0);
        assert!(!p.results.fct.is_empty());
    }
}
