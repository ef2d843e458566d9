//! PFC safety invariants over a full traced fabric run, for all six
//! policies:
//!
//! * every `PfcResume` edge is preceded by a matching `PfcPause` on the
//!   same (switch, port, priority), and pause edges never double-fire
//!   (one XOFF per episode);
//! * no lossless-class queue ever drops while its (port, priority) is
//!   paused — upstream was told to stop, so headroom must absorb the
//!   in-flight tail;
//! * the recorder's edge counts reconcile with the PFC counters;
//! * two identical runs dump byte-identical JSONL.

use std::collections::BTreeMap;

use dcn_fabric::{FabricConfig, FabricSim, PolicyChoice};
use dcn_net::{FlowId, NodeId, Priority, Topology, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimTime, TraceConfig, TraceEvent};
use dcn_switch::SwitchConfig;
use dcn_workload::FlowSpec;

/// An 8-into-1 lossless incast (which must pause) plus a 2-into-1 lossy
/// incast on another port (which drops under the small buffer), through
/// one shared-memory switch with the recorder on.
fn run_traced(policy: PolicyChoice) -> (Vec<(u64, TraceEvent)>, u64, u64, u64, String) {
    let topo = Topology::single_switch(12, BitRate::from_gbps(25), SimDuration::from_micros(1));
    let cfg = FabricConfig {
        policy,
        seed: 7,
        switch: SwitchConfig {
            // Small enough to force PFC episodes on every policy.
            total_buffer: Bytes::from_kb(200),
            ..SwitchConfig::default()
        },
        sample_interval: None,
        trace: TraceConfig::enabled(),
        ..FabricConfig::default()
    };
    let mut sim = FabricSim::new(topo, cfg);
    for i in 0..8u64 {
        sim.add_flow(FlowSpec {
            id: FlowId::new(i),
            src: NodeId::new(i as u32),
            dst: NodeId::new(8),
            size: Bytes::new(500_000),
            start: SimTime::ZERO,
            class: TrafficClass::Lossless,
            priority: Priority::new(3),
        });
    }
    for i in 0..2u64 {
        sim.add_flow(FlowSpec {
            id: FlowId::new(100 + i),
            src: NodeId::new(9 + i as u32),
            dst: NodeId::new(11),
            size: Bytes::new(500_000),
            start: SimTime::ZERO,
            class: TrafficClass::Lossy,
            priority: Priority::new(1),
        });
    }
    assert!(sim.run_until_done(SimTime::from_secs(2)));

    let results = sim.results();
    let (events, jsonl) = sim
        .trace()
        .with(|rec| {
            let totals = rec.totals();
            assert!(!rec.is_empty() && totals.drops() > 0 && totals.pfc_pauses > 0);
            let events = rec.records().map(|r| (r.at.as_nanos(), r.event)).collect();
            (events, rec.to_jsonl())
        })
        .expect("recorder enabled");
    assert!(
        results.drops.lossy_packets > 0,
        "lossy incast must exercise drops"
    );
    (
        events,
        results.pause_frames(),
        results.pfc.resume_frames(),
        results.drops.lossless_packets,
        jsonl,
    )
}

#[test]
fn pfc_edges_match_and_lossless_never_drops_while_paused() {
    for policy in [
        PolicyChoice::l2bm(),
        PolicyChoice::dt(),
        PolicyChoice::dt2(),
        PolicyChoice::abm(),
        PolicyChoice::occamy(),
        PolicyChoice::bshare(),
    ] {
        let label = policy.label();
        let (events, pause_frames, resume_frames, lossless_drops, jsonl) = run_traced(policy);
        assert!(
            jsonl == run_traced(policy).4,
            "{label}: JSONL dumps differ between identical runs"
        );

        let mut paused: BTreeMap<(u32, u16, u8), bool> = BTreeMap::new();
        let mut pauses = 0u64;
        let mut resumes = 0u64;
        for (at, ev) in &events {
            match *ev {
                TraceEvent::PfcPause { node, port, prio } => {
                    let key = (node, port, prio);
                    assert!(
                        !paused.get(&key).copied().unwrap_or(false),
                        "{label}: double XOFF on {key:?} at {at} ns"
                    );
                    paused.insert(key, true);
                    pauses += 1;
                }
                TraceEvent::PfcResume { node, port, prio } => {
                    let key = (node, port, prio);
                    assert!(
                        paused.get(&key).copied().unwrap_or(false),
                        "{label}: XON without a preceding XOFF on {key:?} at {at} ns"
                    );
                    paused.insert(key, false);
                    resumes += 1;
                }
                TraceEvent::Drop {
                    node,
                    in_port,
                    prio,
                    lossless,
                    ..
                } if lossless => {
                    assert!(
                        !paused.get(&(node, in_port, prio)).copied().unwrap_or(false),
                        "{label}: lossless drop on paused queue \
                         (node {node}, port {in_port}, prio {prio}) at {at} ns"
                    );
                }
                _ => {}
            }
        }

        assert!(
            pauses > 0,
            "{label}: the scenario must exercise PFC (no pause edges recorded)"
        );
        assert_eq!(
            pauses, pause_frames,
            "{label}: trace pause edges != PfcCounters"
        );
        assert_eq!(
            resumes, resume_frames,
            "{label}: trace resume edges != PfcCounters"
        );
        assert!(
            resumes <= pauses,
            "{label}: more resumes than pauses ({resumes} > {pauses})"
        );
        assert_eq!(
            lossless_drops, 0,
            "{label}: auto-sized headroom must keep the lossless class lossless"
        );
    }
}
