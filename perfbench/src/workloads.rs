//! The six named workloads: what each simulates and how its inputs are
//! made from `--seed`.
//!
//! Inputs are built here through the crates' public constructors and
//! handed to the simulator. At the golden seed (42, the default) they
//! are the inputs `throughput --check` (`hybrid_paper_2ms`) and
//! `sharded` (`fattree_k16_200us`) run; the golden event counts and
//! digests in README.md prove it.
//!
//! **What the seed changes.** Flow sizes and arrival times always come
//! from generator stream 42, so every seed offers the same bytes. Any
//! other seed shuffles the host lists the generator draws endpoints
//! from (who talks to whom, hence which links and buffers collide) and
//! seeds the switches' ECN marking. Re-drawing the sizes too was
//! measured and rejected: a 2 ms window of heavy-tailed web-search
//! flows offers 370–640 MB depending on the seed, and wall time, CPU
//! time and peak RSS follow the offered bytes, so a cross-seed spread
//! would measure the flow-size lottery, not the simulator.

use dcn_experiments::all_policies;
use dcn_fabric::{FabricConfig, PolicyChoice};
use dcn_net::{ClosConfig, FatTreeConfig, NodeId, Priority, Topology, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimRng, TraceConfig};
use dcn_switch::SwitchConfig;
use dcn_workload::{web_search_cdf, FlowSpec, PoissonTraffic};

/// The seed whose inputs the repository's golden digests pin; also the
/// generator stream every seed draws flow sizes and arrivals from.
pub const GOLDEN_SEED: u64 = 42;
/// RDMA load of every hybrid cell (the paper fixes it at 0.4).
pub const RDMA_LOAD: f64 = 0.4;
/// TCP web-search load of the single-run workloads.
pub const TCP_LOAD: f64 = 0.8;
/// TCP loads the policy sweep crosses with the six policies.
pub const SWEEP_TCP_LOADS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
/// Lossless (RDMA) and lossy (TCP) priorities, as `run_hybrid` assigns.
const RDMA_PRIO: Priority = Priority::new(3);
const TCP_PRIO: Priority = Priority::new(1);
/// Ring capacity of the traced rep's flight recorder.
pub const TRACE_CAPACITY: usize = 1 << 21;

/// The fabric a cell simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// `ClosConfig::paper()`: 128 hosts, 4 MB switch buffers.
    ClosPaper,
    /// `ClosConfig::small(8)`: 16 hosts, 500 KB switch buffers
    /// (`ExperimentScale::small()`).
    ClosSmall,
    /// `ClosConfig::small(4)`: 8 hosts, 250 KB (`ExperimentScale::tiny()`);
    /// only the unit tests run it.
    #[cfg(test)]
    ClosTiny,
    /// `FatTreeConfig::new(16)`: 1024 hosts, 4 MB switch buffers.
    FatTree16,
}

/// One simulation: a fabric, a policy, a hybrid load and a horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub fabric: Fabric,
    pub policy: PolicyChoice,
    pub tcp_load: f64,
    /// Flows arrive in `[0, window)`.
    pub window: SimDuration,
    /// Extra simulated time allowed for stragglers.
    pub drain: SimDuration,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One L2BM cell at [`TCP_LOAD`]; `shards == 0` is the serial engine.
    Single {
        fabric: Fabric,
        window: SimDuration,
        drain: SimDuration,
        shards: usize,
    },
    /// Six policies × four TCP loads on the small Clos, fanned over
    /// `dcn_sim::par_map` the way `run_hybrid_cells` fans them.
    Sweep { window: SimDuration },
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line on why the workload exists (mirrored in BENCHMARK.json).
    pub why: &'static str,
    pub kind: Kind,
}

const fn single(fabric: Fabric, window: SimDuration, drain_ms: u64, shards: usize) -> Kind {
    Kind::Single {
        fabric,
        window,
        drain: SimDuration::from_millis(drain_ms),
        shards,
    }
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "hybrid_paper_2ms",
        why: "128-host Clos, 2 ms ramp-up: pure admit-and-forward fast path; equals the golden run_hybrid cell",
        kind: single(Fabric::ClosPaper, SimDuration::from_millis(2), 400, 0),
    },
    Workload {
        name: "hybrid_paper_10ms",
        why: "same fabric in steady state with congestion: flow and FCT storage and cache footprint show, RSS grows with the window",
        kind: single(Fabric::ClosPaper, SimDuration::from_millis(10), 400, 0),
    },
    Workload {
        name: "hybrid_small_50ms",
        why: "16-host Clos, 50 ms: PFC edges, DCTCP recovery and RTO, timer cancels on a cache-resident working set; bypasses fast-path-only gains",
        kind: single(Fabric::ClosSmall, SimDuration::from_millis(50), 200, 0),
    },
    Workload {
        name: "fattree_k16_200us",
        why: "1024-host k=16 fat-tree, serial engine: largest working set, deepest event queue, visible set-up cost",
        kind: single(Fabric::FatTree16, SimDuration::from_micros(200), 100, 0),
    },
    Workload {
        name: "fattree_k16_200us_shards2",
        why: "identical flows on the 2-shard engine: stamps, barriers, handoffs; a serial-path gain that taxes the sharded path shows here",
        kind: single(Fabric::FatTree16, SimDuration::from_micros(200), 100, 2),
    },
    Workload {
        name: "policy_sweep_small",
        why: "6 policies x 4 TCP loads as repro fig7 runs them: per-cell set-up, the par pool and the five non-L2BM policies",
        kind: Kind::Sweep {
            window: SimDuration::from_millis(10),
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The cells this workload simulates, in run order.
    pub fn cells(&self) -> Vec<Cell> {
        match self.kind {
            Kind::Single {
                fabric,
                window,
                drain,
                ..
            } => vec![Cell {
                fabric,
                policy: PolicyChoice::l2bm(),
                tcp_load: TCP_LOAD,
                window,
                drain,
            }],
            Kind::Sweep { window } => all_policies()
                .into_iter()
                .flat_map(|policy| {
                    SWEEP_TCP_LOADS.into_iter().map(move |tcp_load| Cell {
                        fabric: Fabric::ClosSmall,
                        policy,
                        tcp_load,
                        window,
                        drain: SimDuration::from_millis(200),
                    })
                })
                .collect(),
        }
    }

    /// Worker shards of a single run (0 = serial engine, also for the
    /// sweep, whose cells each run serially).
    pub fn shards(&self) -> usize {
        match self.kind {
            Kind::Single { shards, .. } => shards,
            Kind::Sweep { .. } => 0,
        }
    }

    /// Length of the flow-arrival window, in simulated milliseconds.
    pub fn window_ms(&self) -> f64 {
        let (Kind::Single { window, .. } | Kind::Sweep { window }) = self.kind;
        window.as_secs_f64() * 1e3
    }

    /// Threads the workload wants: on a host with fewer cores it
    /// measures oversubscription, not the engine.
    pub fn threads(&self) -> usize {
        match self.kind {
            Kind::Single { shards, .. } => shards.max(1),
            Kind::Sweep { .. } => 2,
        }
    }
}

impl Fabric {
    /// The Clos configuration, or `None` for the k=16 fat-tree.
    fn clos(self) -> Option<ClosConfig> {
        match self {
            Fabric::ClosPaper => Some(ClosConfig::paper()),
            Fabric::ClosSmall => Some(ClosConfig::small(8)),
            #[cfg(test)]
            Fabric::ClosTiny => Some(ClosConfig::small(4)),
            Fabric::FatTree16 => None,
        }
    }

    /// Builds the topology (the `net.topology` span wraps this call).
    pub fn topology(self) -> Topology {
        match self.clos() {
            Some(clos) => Topology::clos(&clos),
            None => Topology::fat_tree(&FatTreeConfig::new(16)),
        }
    }

    fn host_rate(self) -> BitRate {
        self.clos()
            .map_or(FatTreeConfig::new(16).host_rate, |clos| clos.host_rate)
    }

    /// Shared buffer per switch: 4 MB at 128 hosts and above, scaled
    /// with the host count below (`ExperimentScale`'s rule).
    fn buffer(self) -> Bytes {
        match self {
            Fabric::ClosPaper | Fabric::FatTree16 => Bytes::from_mb(4),
            Fabric::ClosSmall => Bytes::from_kb(500),
            #[cfg(test)]
            Fabric::ClosTiny => Bytes::from_kb(250),
        }
    }
}

/// The (RDMA, TCP) host lists the generators draw endpoints from,
/// shuffled by every seed but the golden one.
fn sender_lists(fabric: Fabric, topo: &Topology, seed: u64) -> (Vec<NodeId>, Vec<NodeId>) {
    let hosts: Vec<NodeId> = topo.hosts().collect();
    // On a Clos the first half of each rack sends RDMA and the second
    // half TCP (`run_hybrid`'s split); on the fat-tree every host sends
    // both (`sharded`'s workload).
    let (mut rdma, mut tcp) = match fabric.clos().map(|clos| clos.hosts_per_tor) {
        None => (hosts.clone(), hosts),
        Some(per_tor) => {
            let is_rdma = |i: usize| i % per_tor < per_tor / 2;
            let pick = |want: bool| -> Vec<NodeId> {
                hosts
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| is_rdma(i) == want)
                    .map(|(_, &h)| h)
                    .collect()
            };
            (pick(true), pick(false))
        }
    };
    if seed != GOLDEN_SEED {
        let mut rng = SimRng::seed_from_u64(seed);
        rng.shuffle(&mut rdma);
        rng.shuffle(&mut tcp);
    }
    (rdma, tcp)
}

impl Cell {
    /// Generates the hybrid flow set: RDMA web-search at [`RDMA_LOAD`]
    /// on generator stream 1, TCP web-search at `tcp_load` on stream 2
    /// (the `workload.generate` span wraps this call).
    pub fn flows(&self, topo: &Topology, seed: u64) -> Vec<FlowSpec> {
        let (rdma_hosts, tcp_hosts) = sender_lists(self.fabric, topo, seed);
        let mut rng = SimRng::seed_from_u64(GOLDEN_SEED);
        let rdma = PoissonTraffic::builder(rdma_hosts.clone(), web_search_cdf())
            .load(RDMA_LOAD)
            .link_rate(self.fabric.host_rate())
            .class(TrafficClass::Lossless, RDMA_PRIO)
            .dests(rdma_hosts)
            .build();
        let mut flows = rdma.generate(self.window, &mut rng.fork(1));
        let tcp = PoissonTraffic::builder(tcp_hosts.clone(), web_search_cdf())
            .load(self.tcp_load)
            .link_rate(self.fabric.host_rate())
            .class(TrafficClass::Lossy, TCP_PRIO)
            .dests(tcp_hosts)
            .first_flow_id(1 << 40)
            .build();
        flows.extend(tcp.generate(self.window, &mut rng.fork(2)));
        flows
    }

    /// The fabric configuration: the cell's policy, `seed` for the
    /// switches' ECN marking, and the flight recorder on or off.
    pub fn fabric_config(&self, seed: u64, trace: bool) -> FabricConfig {
        FabricConfig {
            policy: self.policy,
            seed,
            switch: SwitchConfig {
                total_buffer: self.fabric.buffer(),
                ..SwitchConfig::default()
            },
            trace: TraceConfig {
                enabled: trace,
                capacity: TRACE_CAPACITY,
                ..TraceConfig::default()
            },
            ..FabricConfig::default()
        }
    }
}
