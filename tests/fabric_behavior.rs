//! Behavioural integration tests for the fabric: hand-checked FCT
//! arithmetic, the ECN→DCTCP control loop, PFC chains across multiple
//! switch hops, and partial-run semantics.

use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice};
use dcn_net::{ClosConfig, FlowId, NodeId, Priority, Topology, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimRng, SimTime};
use dcn_switch::{EcnConfig, SwitchConfig};
use dcn_workload::{web_search_cdf, FlowSpec, PoissonTraffic};

fn flow(id: u64, src: u32, dst: u32, size: u64, class: TrafficClass) -> FlowSpec {
    FlowSpec {
        id: FlowId::new(id),
        src: NodeId::new(src),
        dst: NodeId::new(dst),
        size: Bytes::new(size),
        start: SimTime::ZERO,
        class,
        priority: match class {
            TrafficClass::Lossless | TrafficClass::LossyRdma => Priority::new(3),
            TrafficClass::Lossy => Priority::new(1),
        },
    }
}

#[test]
fn single_rdma_packet_fct_matches_hand_computation() {
    // host -> switch -> host at 25 Gbps, 1 µs propagation each hop.
    // One 1000 B payload packet = 1048 B wire:
    //   serialize at host: 336 ns (ceil of 1048*8/25)
    //   propagate:        1000 ns
    //   serialize at sw:   336 ns
    //   propagate:        1000 ns          => 2672 ns total
    let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let mut sim = FabricSim::new(
        topo,
        FabricConfig {
            sample_interval: None,
            ..FabricConfig::default()
        },
    );
    sim.add_flow(flow(1, 0, 1, 1_000, TrafficClass::Lossless));
    assert!(sim.run_until_done(SimTime::from_millis(1)));
    let r = sim.results();
    let rec = r.fct.records()[0];
    assert_eq!(rec.fct(), SimDuration::from_nanos(2_672));
    // The ideal-FCT model must agree exactly for a single packet, so
    // slowdown is 1.0.
    assert_eq!(rec.slowdown(), 1.0);
}

#[test]
fn rdma_flow_throughput_is_line_rate_when_alone() {
    // 1 MB alone on an idle path must complete at ≈ link rate: ideal
    // transfer of 1048×1000 wire bytes at 25 Gbps is ~335 µs.
    let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let mut sim = FabricSim::new(
        topo,
        FabricConfig {
            sample_interval: None,
            ..FabricConfig::default()
        },
    );
    sim.add_flow(flow(1, 0, 1, 1_000_000, TrafficClass::Lossless));
    assert!(sim.run_until_done(SimTime::from_millis(10)));
    let rec = sim.results().fct.records()[0];
    let fct = rec.fct().as_secs_f64();
    assert!((3.3e-4..3.6e-4).contains(&fct), "fct {fct}");
    assert!(rec.slowdown() < 1.05, "slowdown {}", rec.slowdown());
}

#[test]
fn dctcp_backs_off_under_aggressive_marking() {
    // Force marking from the first byte: two competing TCP flows into
    // one receiver must still complete, with ECN (not loss) doing the
    // regulation — no drops expected with a huge buffer.
    let topo = Topology::single_switch(3, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let cfg = FabricConfig {
        switch: SwitchConfig {
            total_buffer: Bytes::from_mb(16),
            ecn_lossy: EcnConfig::step(Bytes::new(3_000)),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flow(flow(1, 0, 2, 500_000, TrafficClass::Lossy));
    sim.add_flow(flow(2, 1, 2, 500_000, TrafficClass::Lossy));
    assert!(sim.run_until_done(SimTime::from_secs(1)));
    let r = sim.results();
    assert_eq!(r.drops.lossy_packets, 0, "ECN should prevent drops here");
    assert_eq!(r.fct.len(), 2);
    // Sharing a 25G link: each flow takes at least ~2x its solo time.
    for rec in r.fct.records() {
        assert!(
            rec.slowdown() > 1.5,
            "flow {} slowdown {}",
            rec.flow,
            rec.slowdown()
        );
    }
}

#[test]
fn pfc_chain_propagates_through_the_fabric_core() {
    // Cross-rack lossless incast with a small buffer: pauses must
    // appear not only at the destination ToR but also reach upstream
    // (aggregation) switches or hosts — i.e. the chain works across
    // hops without losing packets.
    let topo = Topology::clos(&ClosConfig::small(4));
    let cfg = FabricConfig {
        policy: PolicyChoice::dt(),
        switch: SwitchConfig {
            total_buffer: Bytes::from_kb(64),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        ..FabricConfig::default()
    };
    let dst_tor = topo.host_uplink_switch(NodeId::new(0)).expect("host 0");
    let mut sim = FabricSim::new(topo, cfg);
    // Hosts 4..8 are rack 1; they all blast host 0 in rack 0.
    for (i, src) in (4..8).enumerate() {
        sim.add_flow(flow(i as u64, src, 0, 400_000, TrafficClass::Lossless));
    }
    assert!(sim.run_until_done(SimTime::from_secs(2)));
    let r = sim.results();
    assert_eq!(r.drops.lossless_packets, 0);
    let tor = sim.world().switch(dst_tor).expect("a switch");
    assert!(
        tor.pfc_counters().pause_frames() > 0,
        "the destination ToR must pause"
    );
    // All four flows complete despite the back-pressure.
    assert_eq!(r.fct.len(), 4);
}

#[test]
fn run_until_is_resumable() {
    let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let mut sim = FabricSim::new(
        topo,
        FabricConfig {
            sample_interval: None,
            ..FabricConfig::default()
        },
    );
    sim.add_flow(flow(1, 0, 1, 1_000_000, TrafficClass::Lossless));
    // Stop in the middle of the transfer...
    sim.run_until(SimTime::from_micros(100));
    assert_eq!(sim.results().fct.len(), 0, "not finished yet");
    assert_eq!(sim.results().unfinished_flows, 1);
    // ...and resume to completion.
    assert!(sim.run_until_done(SimTime::from_millis(10)));
    assert_eq!(sim.results().fct.len(), 1);
    assert_eq!(sim.results().unfinished_flows, 0);
}

#[test]
fn lossy_and_lossless_classes_are_isolated_by_priority_queues() {
    // A TCP elephant and an RDMA mouse to the same receiver: the mouse
    // must not wait behind the elephant's queue (separate priority
    // queues + round-robin), so its slowdown stays moderate.
    let topo = Topology::single_switch(3, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let mut sim = FabricSim::new(
        topo,
        FabricConfig {
            sample_interval: None,
            ..FabricConfig::default()
        },
    );
    sim.add_flow(flow(1, 0, 2, 5_000_000, TrafficClass::Lossy)); // elephant
    sim.add_flow(flow(2, 1, 2, 20_000, TrafficClass::Lossless)); // mouse
    assert!(sim.run_until_done(SimTime::from_secs(1)));
    let r = sim.results();
    let mouse = r
        .fct
        .records()
        .iter()
        .find(|x| x.flow == FlowId::new(2))
        .expect("mouse completed");
    // Round-robin halves its bandwidth at worst; far from the ~100x it
    // would suffer in a shared FIFO behind 5 MB.
    assert!(
        mouse.slowdown() < 5.0,
        "mouse slowdown {}",
        mouse.slowdown()
    );
}

/// One fixed-seed hybrid run on a small Clos under L2BM, reduced to a
/// digest of `RunResults`. The golden values below were re-captured
/// after the NewReno recovery fixes (partial-ACK retransmit, RTO
/// backoff): Σ FCT dropped from 38,185,641 ns to 24,797,131 ns because
/// multi-loss windows now repair via fast recovery instead of stalling
/// until RTO, drops rose 217 → 286 (retransmits arrive while queues are
/// still congested instead of after a 2 ms idle wait), and events fell
/// 412,733 → 387,544 (fewer go-back-N full-window resends). Pause
/// frames are unchanged at 10 — the lossless path is untouched. Events
/// then fell to 363,746 when cancelled timers stopped counting as
/// events, with every other value unchanged (`REGOLDEN.md`).
fn hybrid_golden_digest() -> (usize, u64, u64, u64, u64, usize) {
    let topo = Topology::clos(&ClosConfig::small(4));
    let hosts: Vec<NodeId> = topo.hosts().collect();
    let (rdma_hosts, tcp_hosts): (Vec<NodeId>, Vec<NodeId>) =
        hosts.iter().partition(|h| h.index() % 2 == 0);
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
        // Small enough that the lossless class has to pause under this
        // load, so the digest covers the PFC machinery too.
        switch: SwitchConfig {
            total_buffer: Bytes::from_kb(96),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flows(rdma.generate(window, &mut rng.fork(1)));
    sim.add_flows(tcp.generate(window, &mut rng.fork(2)));
    sim.run_until_done(SimTime::ZERO + window + SimDuration::from_millis(20));

    let r = sim.results();
    assert_eq!(
        r.queue.past_clamps, 0,
        "a correct model never schedules into the past"
    );
    let fct_nanos: u64 = r.fct.records().iter().map(|rec| rec.fct().as_nanos()).sum();
    (
        r.fct.len(),
        fct_nanos,
        r.pause_frames(),
        r.drops.lossless_packets + r.drops.lossy_packets,
        r.events_processed,
        r.unfinished_flows,
    )
}

#[test]
fn fixed_seed_run_matches_golden_results() {
    let digest = hybrid_golden_digest();
    assert_eq!(
        digest,
        (17, 24_797_131, 10, 286, 363_746, 0),
        "fixed-seed RunResults digest changed: (completed flows, Σ fct ns, \
         pause frames, drops, events processed, unfinished flows)"
    );
}

#[test]
fn occupancy_sampling_interval_is_respected() {
    let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let mut sim = FabricSim::new(
        topo,
        FabricConfig {
            sample_interval: Some(SimDuration::from_micros(250)),
            ..FabricConfig::default()
        },
    );
    sim.add_flow(flow(1, 0, 1, 100_000, TrafficClass::Lossless));
    sim.run_until(SimTime::from_millis(2));
    let r = sim.results();
    let series = r.occupancy.values().next().expect("sampled");
    // 2 ms / 250 µs = 8 samples expected (first at t=250 µs).
    assert!((7..=8).contains(&series.len()), "{} samples", series.len());
    for w in series.samples().windows(2) {
        assert_eq!(
            (w[1].0 - w[0].0),
            SimDuration::from_micros(250),
            "uniform sampling grid"
        );
    }
}

/// Wheel timers keep the pending-event population of a long-lived flow
/// bounded: every RTO re-arm cancels its predecessor instead of
/// tombstoning it, so the queue never accumulates dead deadlines and
/// never pops a stale one.
#[test]
fn long_lived_flow_pending_events_stay_bounded() {
    let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let mut sim = FabricSim::new(
        topo,
        FabricConfig {
            policy: PolicyChoice::l2bm(),
            sample_interval: None,
            ..FabricConfig::default()
        },
    );
    sim.add_flow(flow(1, 0, 1, 5_000_000, TrafficClass::Lossy));
    assert!(sim.run_until_done(SimTime::from_millis(50)));
    let r = sim.results();
    assert_eq!(r.unfinished_flows, 0);
    assert!(
        r.fct.len() == 1 && r.events_processed > 10_000,
        "the transfer must be long-lived ({} events)",
        r.events_processed
    );
    assert!(
        r.queue.max_pending < 100,
        "pending events must stay bounded for a single flow, got {}",
        r.queue.max_pending
    );
    assert_eq!(r.queue.stale_timer_pops, 0, "no cancelled timer may pop");
    assert_eq!(r.queue.past_clamps, 0, "wheel timers never clamp");
}
