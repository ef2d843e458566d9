//! Fault-injection recovery tests: link flaps, stuck PFC pauses and
//! routing blackouts must be survivable, counted, and deterministic.

use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice, RunResults};
use dcn_net::{
    ClosConfig, FlowId, LinkId, NodeId, NodeKind, PortId, Priority, Topology, TrafficClass,
};
use dcn_sim::{
    par_map, BitRate, Bytes, FaultEvent, FaultSchedule, SimDuration, SimRng, SimTime, TraceConfig,
    TraceDropCause, TraceEvent,
};
use dcn_switch::SwitchConfig;
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

/// The first inter-switch link of a clos fabric (a ToR uplink).
fn first_uplink(topo: &Topology) -> LinkId {
    topo.links()
        .iter()
        .find(|l| {
            topo.node(l.a.node).kind == NodeKind::Switch
                && topo.node(l.b.node).kind == NodeKind::Switch
        })
        .expect("clos has switch-switch links")
        .id
}

/// Every uplink of `tor` (links to other switches).
fn uplinks_of(topo: &Topology, tor: NodeId) -> Vec<LinkId> {
    topo.links()
        .iter()
        .filter(|l| {
            (l.a.node == tor || l.b.node == tor)
                && topo.node(l.a.node).kind == NodeKind::Switch
                && topo.node(l.b.node).kind == NodeKind::Switch
        })
        .map(|l| l.id)
        .collect()
}

/// Cross-rack TCP transfers through a 1 ms uplink flap: ECMP reroutes
/// around the dead link, RTO recovers what was lost on the wire, and
/// every flow still completes.
fn run_flap(seed: u64) -> RunResults {
    let topo = Topology::clos(&ClosConfig::small(4));
    let uplink = first_uplink(&topo);
    let mut faults = FaultSchedule::none();
    // Down 100 µs into the transfers, back up 1 ms later.
    faults.link_flap(
        uplink.index() as u32,
        SimTime::from_micros(100),
        SimDuration::from_millis(1),
    );
    let cfg = FabricConfig {
        policy: PolicyChoice::l2bm(),
        seed,
        sample_interval: None,
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    // Hosts 0–3 are rack 0, hosts 4–7 rack 1 in ClosConfig::small(4):
    // all flows cross the flapped tier.
    for i in 0..4u32 {
        sim.add_flow(flow(
            u64::from(i) + 1,
            i,
            i + 4,
            200_000,
            TrafficClass::Lossy,
        ));
    }
    assert!(
        sim.run_until_done(SimTime::from_millis(80)),
        "flows must finish despite the flap (seed {seed})"
    );
    sim.results()
}

#[test]
fn link_flap_mid_transfer_every_tcp_flow_completes() {
    let r = run_flap(42);
    assert_eq!(r.unfinished_flows, 0);
    assert_eq!(r.fct.len(), 4, "all four transfers complete");
    assert_eq!(r.drops.lossless_packets, 0, "no lossless traffic to harm");
}

#[test]
fn link_flap_digest_is_jobs_invariant() {
    let seeds: Vec<u64> = vec![1, 2, 3, 42];
    let digests = |jobs: usize| -> Vec<u64> { par_map(jobs, &seeds, |&s| run_flap(s).digest()) };
    assert_eq!(
        digests(1),
        digests(8),
        "post-recovery digest must not depend on worker count"
    );
}

/// An uplink blackout carried by lossy RDMA: every uplink of the source
/// rack's ToR flaps 20 µs into the transfers (mid-window — IRN's full-
/// window start finishes a clean 200 KB run in ~70 µs, so a later fault
/// would miss it). In-flight packets die as NoRoute/LinkDown drops; IRN
/// recovers them via NACK/go-back-N, or the backed-off RTO when the
/// feedback itself was lost, and completes — with zero PFC frames.
fn run_irn_flap(seed: u64) -> RunResults {
    let topo = Topology::clos(&ClosConfig::small(4));
    let tor = topo
        .host_uplink_switch(NodeId::new(0))
        .expect("host 0 has a ToR");
    let mut faults = FaultSchedule::none();
    for l in uplinks_of(&topo, tor) {
        faults.link_flap(
            l.index() as u32,
            SimTime::from_micros(20),
            SimDuration::from_millis(1),
        );
    }
    let cfg = FabricConfig {
        policy: PolicyChoice::l2bm(),
        rdma_transport: dcn_fabric::RdmaTransport::Irn,
        seed,
        sample_interval: None,
        trace: TraceConfig::enabled(),
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    for i in 0..4u32 {
        sim.add_flow(flow(
            u64::from(i) + 1,
            i,
            i + 4,
            200_000,
            TrafficClass::Lossless,
        ));
    }
    assert!(
        sim.run_until_done(SimTime::from_millis(80)),
        "IRN flows must finish despite the flap (seed {seed})"
    );
    let totals = sim.trace().with(|rec| rec.totals()).expect("trace enabled");
    let r = sim.results();
    assert_eq!(
        totals.irn_nacks,
        r.irn.nacks(),
        "traced NACKs reconcile with counters (seed {seed})"
    );
    assert_eq!(
        totals.irn_retransmits, r.irn.retransmitted_packets,
        "traced retransmissions reconcile with counters (seed {seed})"
    );
    r
}

#[test]
fn link_flap_mid_transfer_every_irn_flow_completes_without_pfc() {
    let r = run_irn_flap(42);
    assert_eq!(r.unfinished_flows, 0);
    assert_eq!(r.fct.len(), 4, "all four lossy-RDMA transfers complete");
    assert_eq!(r.irn.flows, 4);
    assert_eq!(r.pause_frames(), 0, "lossy RDMA must never ask for PFC");
    assert_eq!(r.rdma_stranded, 0, "no DCQCN senders involved or stranded");
    // The flap happens mid-transfer, so recovery machinery must have
    // actually engaged: wire losses, NACKs (or RTOs) and retransmissions.
    assert!(
        r.drops.lossy_rdma_packets > 0,
        "the flap must cost lossy-RDMA packets"
    );
    assert!(
        r.irn.retransmitted_packets > 0,
        "losses must be repaired by retransmission"
    );
    assert!(
        r.irn.nacks() > 0 || r.irn.rto_fires > 0,
        "recovery must be driven by NACKs or RTOs"
    );
}

#[test]
fn irn_flap_digest_is_jobs_invariant() {
    let seeds: Vec<u64> = vec![1, 2, 3, 42];
    let digests =
        |jobs: usize| -> Vec<u64> { par_map(jobs, &seeds, |&s| run_irn_flap(s).digest()) };
    assert_eq!(
        digests(1),
        digests(8),
        "post-recovery IRN digest must not depend on worker count"
    );
}

/// A stuck XOFF against the switch's egress toward the receiver: the
/// PFC storm watchdog must force-resume the queue within its threshold,
/// and no lossless packet may be dropped before it fires.
#[test]
fn stuck_pause_is_bounded_by_the_watchdog() {
    const WATCHDOG: SimDuration = SimDuration::from_micros(500);
    let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let sw = topo
        .switches()
        .next()
        .expect("single_switch has one switch");
    // The receiver's one port faces the switch port we want.
    let end = topo.wire(NodeId::new(1), PortId::new(0)).peer;
    assert_eq!(end.node, sw, "the receiver hangs off the switch");
    let to_receiver = end.port;

    let mut faults = FaultSchedule::none();
    let pause_at = SimTime::from_micros(50);
    // Held for 20 ms — far beyond the transfer. Only the watchdog can
    // unblock the queue inside this run.
    faults.pause_stuck(
        sw.index() as u32,
        to_receiver.index() as u16,
        3,
        pause_at,
        SimDuration::from_millis(20),
    );
    let cfg = FabricConfig {
        switch: SwitchConfig {
            pfc_watchdog: Some(WATCHDOG),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        trace: TraceConfig::enabled(),
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    // ~335 µs of line-rate transfer: still sending when the XOFF lands.
    sim.add_flow(flow(1, 0, 1, 1_000_000, TrafficClass::Lossless));
    assert!(
        sim.run_until_done(SimTime::from_millis(10)),
        "watchdog must unblock the transfer long before the 20 ms release"
    );
    let r = sim.results();
    assert_eq!(r.pfc.watchdog_fires(), 1, "exactly one forced resume");
    assert_eq!(r.drops.lossless_packets, 0, "PFC held the flow lossless");

    let (fired_at, first_lossless_drop, finish) = sim
        .trace()
        .with(|rec| {
            let mut fired = None;
            let mut first_drop = None;
            for record in rec.records() {
                match record.event {
                    TraceEvent::PfcWatchdogFired { .. } if fired.is_none() => {
                        fired = Some(record.at);
                    }
                    TraceEvent::Drop { lossless: true, .. } if first_drop.is_none() => {
                        first_drop = Some(record.at);
                    }
                    _ => {}
                }
            }
            (fired, first_drop, rec.totals().watchdog_fires)
        })
        .expect("trace enabled");
    let fired_at = fired_at.expect("watchdog fired");
    assert_eq!(finish, 1, "trace total agrees with the PFC counter");
    assert!(
        fired_at <= pause_at + WATCHDOG + SimDuration::from_micros(1),
        "watchdog fired at {fired_at}, beyond threshold after the {pause_at} XOFF"
    );
    if let Some(at) = first_lossless_drop {
        assert!(at >= fired_at, "lossless drop at {at} before the watchdog");
    }
}

/// A pause that is released and later re-asserted: the resume retires
/// the first pause's watchdog deadline, so the one fire comes a full
/// threshold after the *second* XOFF, not after the first.
#[test]
fn watchdog_deadline_restarts_after_resume_and_re_pause() {
    const WATCHDOG: SimDuration = SimDuration::from_micros(200);
    let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let end = topo.wire(NodeId::new(1), PortId::new(0)).peer;
    let (node, port) = (end.node.index() as u32, end.port.index() as u16);
    let mut faults = FaultSchedule::none();
    // Held 50 µs, well inside the threshold; then held for 20 ms.
    faults.pause_stuck(
        node,
        port,
        3,
        SimTime::from_micros(50),
        SimDuration::from_micros(50),
    );
    let re_pause = SimTime::from_micros(200);
    faults.pause_stuck(node, port, 3, re_pause, SimDuration::from_millis(20));
    let cfg = FabricConfig {
        switch: SwitchConfig {
            pfc_watchdog: Some(WATCHDOG),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        trace: TraceConfig::enabled(),
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flow(flow(1, 0, 1, 1_000_000, TrafficClass::Lossless));
    assert!(sim.run_until_done(SimTime::from_millis(10)));
    let r = sim.results();
    assert_eq!(r.pfc.watchdog_fires(), 1, "exactly one forced resume");
    assert_eq!(r.drops.lossless_packets, 0);
    let fires: Vec<SimTime> = sim
        .trace()
        .with(|rec| {
            rec.records()
                .filter(|x| matches!(x.event, TraceEvent::PfcWatchdogFired { .. }))
                .map(|x| x.at)
                .collect()
        })
        .expect("trace enabled");
    let due = re_pause + WATCHDOG;
    assert!(
        fires.len() == 1 && fires[0] >= due && fires[0] <= due + SimDuration::from_micros(1),
        "watchdog fired at {fires:?}, want one fire at {due} (+1 µs)"
    );
}

/// All uplinks of a ToR go down: cross-rack packets reaching it have no
/// route and must be *counted* drops (`DropCause::NoRoute`), not a
/// panic; once the uplinks return, RTO retransmission completes the
/// flow, and trace totals reconcile with the run's drop counters.
#[test]
fn routing_blackout_counts_no_route_drops_and_recovers() {
    let topo = Topology::clos(&ClosConfig::small(4));
    let tor = topo
        .host_uplink_switch(NodeId::new(0))
        .expect("host 0 has a ToR");
    let uplinks = uplinks_of(&topo, tor);
    assert!(uplinks.len() >= 2, "clos ToR has multiple uplinks");
    let mut faults = FaultSchedule::none();
    for l in &uplinks {
        faults.link_flap(
            l.index() as u32,
            SimTime::from_micros(50),
            SimDuration::from_millis(1),
        );
    }
    let cfg = FabricConfig {
        sample_interval: None,
        trace: TraceConfig::enabled(),
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flow(flow(1, 0, 4, 500_000, TrafficClass::Lossy));
    assert!(
        sim.run_until_done(SimTime::from_millis(80)),
        "flow must recover once the uplinks return"
    );
    let r = sim.results();
    assert_eq!(r.unfinished_flows, 0);
    let totals = sim.trace().with(|rec| rec.totals()).expect("trace enabled");
    assert!(
        totals.drops_by(TraceDropCause::NoRoute) > 0,
        "the blackout must surface as counted NoRoute drops"
    );
    assert_eq!(
        totals.drops(),
        r.drops.lossy_packets + r.drops.lossless_packets,
        "every traced drop is in the drop counters and vice versa"
    );
    assert_eq!(totals.defects, 0, "no defensive-path defects");
}

/// An explicitly *empty* fault schedule must reproduce the pre-fault
/// golden digest bit-for-bit: fault support is free when unused.
#[test]
fn zero_fault_schedule_matches_golden_digest() {
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
        switch: SwitchConfig {
            total_buffer: Bytes::from_kb(96),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        faults: FaultSchedule::none(),
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flows(rdma.generate(window, &mut rng.fork(1)));
    sim.add_flows(tcp.generate(window, &mut rng.fork(2)));
    sim.run_until_done(SimTime::ZERO + window + SimDuration::from_millis(20));

    let r = sim.results();
    let fct_nanos: u64 = r.fct.records().iter().map(|rec| rec.fct().as_nanos()).sum();
    assert_eq!(
        (
            r.fct.len(),
            fct_nanos,
            r.pause_frames(),
            r.drops.lossless_packets + r.drops.lossy_packets,
            r.events_processed,
            r.unfinished_flows,
        ),
        (17, 24_797_131, 10, 286, 363_746, 0),
        "an empty FaultSchedule must be byte-identical to no fault support"
    );
}

/// A `PauseRelease` that arrives after the watchdog already forced the
/// resume must be a harmless no-op.
#[test]
fn late_release_after_watchdog_is_a_noop() {
    let topo = Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let sw = topo.switches().next().expect("switch");
    let end = topo.wire(NodeId::new(1), PortId::new(0)).peer;
    assert_eq!(end.node, sw, "the receiver hangs off the switch");
    let port = end.port;
    let mut faults = FaultSchedule::none();
    // Watchdog (200 µs) fires first; the scheduled release lands at
    // 2 ms on an already-resumed queue.
    faults.push(
        SimTime::from_micros(50),
        FaultEvent::PauseStuck {
            node: sw.index() as u32,
            port: port.index() as u16,
            prio: 3,
        },
    );
    faults.push(
        SimTime::from_millis(2),
        FaultEvent::PauseRelease {
            node: sw.index() as u32,
            port: port.index() as u16,
            prio: 3,
        },
    );
    let cfg = FabricConfig {
        switch: SwitchConfig {
            pfc_watchdog: Some(SimDuration::from_micros(200)),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        faults,
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flow(flow(1, 0, 1, 500_000, TrafficClass::Lossless));
    assert!(sim.run_until_done(SimTime::from_millis(10)));
    let r = sim.results();
    assert_eq!(r.pfc.watchdog_fires(), 1);
    assert_eq!(r.unfinished_flows, 0);
    assert_eq!(r.drops.lossless_packets, 0);
}
