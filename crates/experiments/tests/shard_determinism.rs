//! Determinism gates for the spatially sharded executor: the paper's
//! experiment cells must produce **byte-identical digests** on the
//! serial engine and on the sharded executor at every shard count —
//! including a sharded-oracle run (`shards = 1`, full stamp machinery,
//! no real parallelism) and a request beyond the ToR count (clamped).
//!
//! Serial (`shards = 0`) is always the reference: these tests failing
//! means the conservative window protocol reordered, double-counted or
//! dropped an event somewhere, not that behavior legitimately changed.

use dcn_experiments::{
    paper_policies, run_hybrid, run_incast, sample_fault_schedule, ExperimentScale, HybridConfig,
    IncastConfig,
};
use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice, RunResults, ShardedFabricSim};
use dcn_net::{Topology, TrafficClass};
use dcn_sim::{Bytes, SimDuration, SimRng, SimTime};
use dcn_workload::{web_search_cdf, PoissonTraffic};

/// Shard counts every cell is checked at: the oracle, a real split, and
/// more than the tiny fabric's two ToRs (exercises the clamp).
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn fig7_cell_digest_is_shard_invariant() {
    // The last cell is the small-scale golden one (`golden_digests`):
    // every shard count must land on the golden itself, with no stamp
    // comparison left to the fallback order.
    let cells = [
        (ExperimentScale::tiny(), None),
        (ExperimentScale::tiny().with_seed(7), None),
        (
            ExperimentScale::small(),
            Some((930_146, 0x972d_5f4e_f9da_3109)),
        ),
    ];
    for (scale, golden) in cells {
        let seed = scale.seed;
        let cell = |shards: usize| {
            let cfg = HybridConfig {
                scale: scale.clone().with_shards(shards),
                policy: PolicyChoice::l2bm(),
                rdma_load: 0.4,
                tcp_load: 0.8,
            };
            run_hybrid(&cfg).results
        };
        let serial = cell(0);
        assert!(!serial.fct.is_empty(), "cell carried traffic");
        for shards in SHARD_COUNTS {
            let sharded = cell(shards);
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

#[test]
fn table2_cells_digest_is_shard_invariant() {
    // One load column of Table II across all four paper policies.
    for policy in paper_policies() {
        let cell = |shards: usize| {
            let cfg = HybridConfig {
                scale: ExperimentScale::tiny().with_shards(shards),
                policy,
                rdma_load: 0.4,
                tcp_load: 0.6,
            };
            run_hybrid(&cfg).results.digest()
        };
        let serial = cell(0);
        for shards in [1, 2] {
            assert_eq!(
                serial,
                cell(shards),
                "table2 cell {}: serial vs {shards} shards",
                policy.label()
            );
        }
    }
}

#[test]
fn incast_cell_digest_is_shard_invariant() {
    let cell = |shards: usize| {
        let mut cfg = IncastConfig::paper_defaults(
            ExperimentScale::tiny().with_shards(shards),
            PolicyChoice::l2bm(),
            3,
        );
        cfg.request_size = Bytes::from_kb(300);
        cfg.query_gap = SimDuration::from_micros(400);
        cfg.tcp_load = 0.4;
        run_incast(&cfg)
    };
    let serial = cell(0);
    assert!(serial.completed_queries > 0, "cell carried queries");
    for shards in SHARD_COUNTS {
        let sharded = cell(shards);
        assert_eq!(
            serial.results.digest(),
            sharded.results.digest(),
            "incast cell: serial vs {shards} shards"
        );
        assert_eq!(serial.completed_queries, sharded.completed_queries);
        assert_eq!(serial.query_delays_s, sharded.query_delays_s);
    }
}

/// A chaos-style cell — the hybrid mix under a sampled fault schedule
/// (link flaps, corruption windows, stuck PFC pauses) — without the
/// flight recorder, which the sharded executor rejects. Fault events
/// replicate across shards; their endpoint work stays owner-local.
#[test]
fn faulted_cell_digest_is_shard_invariant() {
    let scale = ExperimentScale::tiny();
    let topo = Topology::clos(&scale.clos);
    let hosts: Vec<_> = topo.hosts().collect();
    let mut rng = SimRng::seed_from_u64(scale.seed);
    let mut flows = Vec::new();
    let rdma = PoissonTraffic::builder(hosts.clone(), web_search_cdf())
        .load(0.4)
        .link_rate(scale.clos.host_rate)
        .class(TrafficClass::Lossless, dcn_net::Priority::new(3))
        .dests(hosts.clone())
        .build();
    flows.extend(rdma.generate(scale.window, &mut rng.fork(1)));
    let tcp = PoissonTraffic::builder(hosts.clone(), web_search_cdf())
        .load(0.6)
        .link_rate(scale.clos.host_rate)
        .class(TrafficClass::Lossy, dcn_net::Priority::new(1))
        .dests(hosts)
        .first_flow_id(1 << 40)
        .build();
    flows.extend(tcp.generate(scale.window, &mut rng.fork(2)));
    let deadline = SimTime::ZERO + scale.window + scale.drain;

    for fault_seed in [11, 13] {
        let fabric_cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            seed: scale.seed,
            switch: scale.switch_config(),
            faults: sample_fault_schedule(&topo, scale.window, fault_seed),
            ..FabricConfig::default()
        };
        let serial: RunResults = {
            let mut sim = FabricSim::new(topo.clone(), fabric_cfg.clone());
            sim.add_flows(flows.iter().copied());
            sim.run_until_done(deadline);
            sim.results()
        };
        for shards in [1, 2] {
            let sharded = {
                let mut sim = ShardedFabricSim::new(topo.clone(), fabric_cfg.clone(), shards);
                sim.add_flows(flows.iter().copied());
                sim.run_until_done(deadline);
                sim.results()
            };
            assert_eq!(
                serial.digest(),
                sharded.digest(),
                "faulted cell seed {fault_seed}: serial vs {shards} shards \
                 (events {} vs {})",
                serial.events_processed,
                sharded.events_processed,
            );
        }
    }
}
