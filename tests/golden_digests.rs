//! Golden-digest regression suite: the eviction hook added for Occamy
//! must be *free* for every other policy — zero extra events, zero
//! extra RNG draws, byte-identical results. These tests pin the exact
//! event counts and `RunResults` digests, plus a clean event queue: no
//! past-time clamp, no stale timer pop, and an event count of
//! dispatched events only. `REGOLDEN.md` records every deliberate move
//! of these values and its cause.
//!
//! The two faulted scenarios pin every `FaultEvent` kind, both
//! watchdogs and the eviction path, in each RDMA universe. The same
//! faulted DCQCN run also pins every other policy, and two L2BM
//! ablations, so a policy's digest cannot move unnoticed.
//!
//! The small-scale scenarios run in the plain tier-1 suite; the
//! paper-scale scenario (~7.1M events) is `#[ignore]`d for debug runs
//! and exercised in release CI with `--include-ignored`.

use dcn_experiments::{run_hybrid, run_incast, ExperimentScale, HybridConfig, IncastConfig};
use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice, RdmaTransport, RunResults};
use dcn_net::{ClosConfig, FlowId, NodeId, PortId, Priority, Topology, TrafficClass};
use dcn_sim::{
    BitRate, Bytes, FaultEvent, FaultSchedule, SimDuration, SimRng, SimTime, TraceConfig,
    TraceTotals,
};
use dcn_switch::SwitchConfig;
use dcn_workload::{web_search_cdf, FlowSpec, PoissonTraffic};
use l2bm::{L2bmConfig, Normalization};

fn assert_golden(r: &RunResults, events: u64, digest: u64) {
    assert_eq!(r.events_processed, events, "event count drifted");
    assert_eq!(
        r.events_processed, r.queue.processed,
        "counts dispatched events only"
    );
    assert_eq!(r.digest(), digest, "digest drifted");
    assert_eq!(r.rdma_stranded, 0, "no DCQCN sender may strand");
    assert_eq!(r.queue.past_clamps, 0, "no event scheduled in the past");
    assert_eq!(r.queue.stale_timer_pops, 0, "no cancelled timer may pop");
}

#[test]
fn hybrid_small_golden_digest_is_unchanged() {
    let p = run_hybrid(&HybridConfig {
        scale: ExperimentScale::small(),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    assert_golden(&p.results, 876_393, 0x51a4_082e_0ecc_b7db);
    assert_eq!(p.results.drops.evicted_packets, 0, "no policy evicts here");
}

#[test]
fn incast_small_golden_digest_is_unchanged() {
    let p = run_incast(&IncastConfig::paper_defaults(
        ExperimentScale::small(),
        PolicyChoice::l2bm(),
        5,
    ));
    assert_golden(&p.results, 818_971, 0x6cd8_6f5e_0a8f_2f76);
    assert_eq!(p.results.drops.evicted_packets, 0, "no policy evicts here");
}

/// A small clos (hosts 0–7, ToRs 8–9, aggs 10–11, cores 12–13) under a
/// hand-written schedule holding every `FaultEvent` kind, with both
/// watchdogs armed, sampling on, a TCP + RDMA Poisson mix and `policy`
/// over a 96 KB buffer (Occamy's eviction path runs there), plus the
/// `extra` flows. Returns the results and the flight recorder's totals.
fn run_faulted(
    policy: PolicyChoice,
    transport: RdmaTransport,
    extra: Vec<FlowSpec>,
) -> (RunResults, TraceTotals) {
    let topo = Topology::clos(&ClosConfig::small(4));
    let link =
        |node: u32, port: u16| topo.wire(NodeId::new(node), PortId::new(port)).link.index() as u32;
    let us = SimTime::from_micros;
    let mut faults = FaultSchedule::none();
    // A ToR uplink and a host link flap (switch and host port resets).
    faults.link_flap(link(8, 4), us(300), SimDuration::from_micros(400));
    faults.link_flap(link(4, 0), us(150), SimDuration::from_micros(300));
    faults.corruption_window(link(8, 5), us(200), SimDuration::from_millis(1), 2e-5);
    // Stuck XOFFs against ToR egresses toward hosts (the storm watchdog
    // clears them long before the release) and against a host NIC. The
    // lossy one lets the TCP incast into host 2 pile up.
    faults.pause_stuck(9, 2, 3, us(400), SimDuration::from_millis(3));
    faults.pause_stuck(8, 2, 1, us(200), SimDuration::from_millis(3));
    faults.push(
        us(600),
        FaultEvent::PauseStuck {
            node: 2,
            port: 0,
            prio: 3,
        },
    );
    faults.push(
        us(900),
        FaultEvent::PauseRelease {
            node: 2,
            port: 0,
            prio: 3,
        },
    );

    let hosts: Vec<NodeId> = topo.hosts().collect();
    let (rdma_hosts, tcp_hosts): (Vec<NodeId>, Vec<NodeId>) =
        hosts.iter().partition(|h| h.index() % 2 == 0);
    let mut rng = SimRng::seed_from_u64(7);
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
        policy,
        rdma_transport: transport,
        seed: 7,
        switch: SwitchConfig {
            total_buffer: Bytes::from_kb(96),
            pfc_watchdog: Some(SimDuration::from_micros(500)),
            ..SwitchConfig::default()
        },
        flow_watchdog: Some(SimDuration::from_micros(500)),
        sample_interval: Some(SimDuration::from_micros(250)),
        trace: TraceConfig::enabled(),
        faults,
        ..FabricConfig::default()
    };
    // On top of the Poisson mix, a TCP incast into host 2 across both
    // ToR uplinks (one sender is the flapped host 4, which also starts
    // an RDMA transfer into the flap), and an RDMA transfer into the
    // stuck ToR egress toward host 6.
    let burst = |i: u64, src: u32, dst: u32, kb: u64, class: TrafficClass| FlowSpec {
        id: FlowId::new((1 << 20) + i),
        src: NodeId::new(src),
        dst: NodeId::new(dst),
        size: Bytes::from_kb(kb),
        start: us(100),
        class,
        priority: Priority::new(if class == TrafficClass::Lossy { 1 } else { 3 }),
    };
    let mut flows = vec![
        burst(0, 0, 6, 800, TrafficClass::Lossless),
        burst(1, 4, 1, 600, TrafficClass::Lossless),
    ];
    for (i, src) in [1, 3, 5, 7, 4, 6].into_iter().enumerate() {
        flows.push(burst(2 + i as u64, src, 2, 400, TrafficClass::Lossy));
    }
    // A shallower lossy queue, started once the incast queue is deep:
    // its rejected arrivals evict from the deeper one.
    for (i, src) in [0, 7, 1].into_iter().enumerate() {
        let mut f = burst(8 + i as u64, src, 3, 300, TrafficClass::Lossy);
        f.start = us(250);
        flows.push(f);
    }
    let mut sim = FabricSim::new(topo, cfg);
    sim.add_flows(rdma.generate(window, &mut rng.fork(1)));
    sim.add_flows(tcp.generate(window, &mut rng.fork(2)));
    sim.add_flows(flows);
    sim.add_flows(extra);
    sim.run_until_done(SimTime::ZERO + window + SimDuration::from_millis(10));
    let totals = sim.trace().with(|rec| rec.totals()).expect("trace enabled");
    (sim.results(), totals)
}

/// The paths only a faulted run reaches: the storm watchdog, both wire
/// drop causes, eviction and timer cancellation.
fn assert_fault_paths_reached(r: &RunResults, t: &TraceTotals) {
    assert!(r.pfc.watchdog_fires() > 0, "storm watchdog fired");
    assert!(t.drops_link_down > 0, "a packet died on a dead link");
    assert!(t.drops_corrupted > 0, "a packet was corrupted");
    assert!(r.drops.evicted_packets > 0, "Occamy evicted");
    assert!(r.queue.timer_cancels > 0, "a timer was cancelled");
    assert!(r.flow_stalls > 0, "the flow watchdog saw a stall");
}

#[test]
fn faulted_small_golden_digest_is_unchanged() {
    let (r, t) = run_faulted(PolicyChoice::occamy(), RdmaTransport::Dcqcn, vec![]);
    assert_fault_paths_reached(&r, &t);
    assert_golden(&r, 73_397, 0x032a_2505_416b_13e4);
}

#[test]
fn faulted_small_irn_golden_digest_is_unchanged() {
    let (r, t) = run_faulted(PolicyChoice::occamy(), RdmaTransport::Irn, vec![]);
    assert_fault_paths_reached(&r, &t);
    assert!(r.irn.retransmitted_packets > 0, "IRN repaired losses");
    assert_golden(&r, 93_694, 0xdeb5_7eab_8983_8f63);
}

/// The faulted DCQCN run under a policy other than Occamy: the link
/// flaps drain queues through `port_down` and the stuck pauses drive the
/// pause-edge hook. An RDMA incast into host 0 during the uplink flap
/// (hosts 1, 2, 3 and 5, 200 KB each) makes every policy's threshold
/// pause a queue, which the Poisson mix alone does not.
fn assert_faulted_policy_golden(policy: PolicyChoice, events: u64, digest: u64) {
    let incast = [1, 2, 3, 5]
        .into_iter()
        .enumerate()
        .map(|(i, src)| FlowSpec {
            id: FlowId::new((1 << 21) + i as u64),
            src: NodeId::new(src),
            dst: NodeId::new(0),
            size: Bytes::from_kb(200),
            start: SimTime::from_micros(500),
            class: TrafficClass::Lossless,
            priority: Priority::new(3),
        })
        .collect();
    let (r, _) = run_faulted(policy, RdmaTransport::Dcqcn, incast);
    assert!(r.pfc.pause_frames() > 0, "the threshold paused a queue");
    assert_golden(&r, events, digest);
}

#[test]
fn faulted_small_dt_golden_digest_is_unchanged() {
    assert_faulted_policy_golden(PolicyChoice::dt(), 76_857, 0xb756_a4cc_4c8e_97e0);
}

#[test]
fn faulted_small_dt2_golden_digest_is_unchanged() {
    assert_faulted_policy_golden(PolicyChoice::dt2(), 78_101, 0x88b4_16f1_9dcb_39b6);
}

#[test]
fn faulted_small_abm_golden_digest_is_unchanged() {
    assert_faulted_policy_golden(PolicyChoice::abm(), 76_945, 0x12ff_534e_04fa_30b3);
}

#[test]
fn faulted_small_l2bm_golden_digest_is_unchanged() {
    assert_faulted_policy_golden(PolicyChoice::l2bm(), 76_847, 0xb124_894c_f409_0489);
}

#[test]
fn faulted_small_bshare_golden_digest_is_unchanged() {
    assert_faulted_policy_golden(PolicyChoice::bshare(), 78_375, 0x9db8_1fea_09ed_cd91);
}

#[test]
fn faulted_small_l2bm_no_pause_freeze_golden_digest_is_unchanged() {
    let cfg = L2bmConfig {
        pause_freeze: false,
        ..L2bmConfig::default()
    };
    assert_faulted_policy_golden(PolicyChoice::L2bm(cfg), 77_023, 0x0c68_6d5b_79b3_c4ed);
}

#[test]
fn faulted_small_l2bm_fixed_c_golden_digest_is_unchanged() {
    let cfg = L2bmConfig {
        normalization: Normalization::Fixed(1e-4),
        ..L2bmConfig::default()
    };
    assert_faulted_policy_golden(PolicyChoice::L2bm(cfg), 78_345, 0xbbb0_fb5c_5abe_4a8b);
}

#[test]
#[ignore = "paper scale (~7.1M events); run with --include-ignored in release"]
fn hybrid_paper_golden_digest_is_unchanged() {
    let p = run_hybrid(&HybridConfig {
        scale: ExperimentScale::paper().with_window(SimDuration::from_millis(2)),
        policy: PolicyChoice::l2bm(),
        rdma_load: 0.4,
        tcp_load: 0.8,
    });
    assert_golden(&p.results, 7_058_481, 0xc473_a229_a950_926c);
}
