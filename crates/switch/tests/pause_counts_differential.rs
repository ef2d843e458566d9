//! The pause hook's per-ingress counts against a reference model.
//!
//! At every downstream pause or resume edge of an egress queue, the
//! switch tells its policy how many packets of each ingress port are
//! charged to that queue and not yet departed (L2BM freezes exactly
//! those). This test drives seeded sequences of arrivals, transmission
//! completions, Occamy evictions, port-down drains and PFC pause/resume
//! edges (frames, the storm watchdog and link resets), and checks every
//! hook call against a model kept from the switch's outputs alone: a
//! packet is charged from its admission until its `tx_complete`, its
//! eviction or its port-down drain. The packet on the wire counts; other
//! priorities do not.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use dcn_net::{FlowId, NodeId, Packet, PfcFrame, PortId, Priority, TrafficClass};
use dcn_sim::{
    BitRate, Bytes, SimDuration, SimRng, SimTime, TraceConfig, TraceDropCause, TraceEvent,
    TraceHandle,
};
use dcn_switch::{
    BufferPolicy, DtPolicy, MmuState, QueueIndex, SharedMemorySwitch, SwitchConfig, TxStart,
};

const PORTS: u16 = 4;
/// Lossless RDMA, and two lossy classes that share its ports.
const PRIOS: [u8; 3] = [3, 1, 5];

/// One pause hook call: the egress queue, the new state, the counts.
type HookCall = (QueueIndex, bool, Vec<u32>);

/// Occamy (DT 0.5, evicting lossy backlog), recording every pause hook.
#[derive(Debug)]
struct Recording {
    inner: DtPolicy,
    calls: Rc<RefCell<Vec<HookCall>>>,
}

impl BufferPolicy for Recording {
    fn pfc_threshold(&mut self, mmu: &MmuState, q: QueueIndex, now: SimTime) -> Bytes {
        self.inner.pfc_threshold(mmu, q, now)
    }

    fn on_egress_pause_changed(
        &mut self,
        _now: SimTime,
        q_out: QueueIndex,
        paused: bool,
        queued_from: &[u32],
    ) {
        let call = (q_out, paused, queued_from.to_vec());
        self.calls.borrow_mut().push(call);
    }

    fn plan_eviction(&self, mmu: &MmuState, q_out: QueueIndex) -> Option<QueueIndex> {
        self.inner.plan_eviction(mmu, q_out)
    }
}

/// The reference: every charged, not yet departed packet by `(flow,
/// seq)`, with its ingress port, egress queue and size.
#[derive(Default)]
struct Model {
    charged: BTreeMap<(u64, u64), (PortId, QueueIndex, Bytes)>,
}

impl Model {
    fn counts(&self, q_out: QueueIndex) -> Vec<u32> {
        let mut from = vec![0; usize::from(PORTS)];
        for &(in_port, q, _) in self.charged.values() {
            if q == q_out {
                from[in_port.index()] += 1;
            }
        }
        from
    }

    fn bytes(&self, q_out: QueueIndex) -> Bytes {
        let held = self.charged.values().filter(|e| e.1 == q_out);
        held.fold(Bytes::ZERO, |sum, e| sum + e.2)
    }

    fn depart(&mut self, flow: FlowId, seq: u64, ctx: &str) {
        let gone = self.charged.remove(&(flow.as_u64(), seq));
        assert!(gone.is_some(), "{ctx}: departed packet was not charged");
    }
}

/// Notes a transmission start in `wire`.
fn started(wire: &mut [Option<(u64, u64)>], tx: Option<TxStart>) {
    if let Some(tx) = tx {
        wire[tx.port.index()] = Some((tx.packet.flow.as_u64(), tx.packet.seq));
    }
}

#[test]
fn pause_hook_counts_match_charged_packets() {
    let (mut edges, mut nonzero, mut evictions, mut drains) = (0, 0, 0, 0);
    // Edges on a port serializing a packet of that priority, or another.
    let (mut same_wire, mut other_wire) = (0, 0);
    for case in 0..48u64 {
        let mut rng = SimRng::seed_from_u64(0x9A05E + case);
        let calls = Rc::new(RefCell::new(Vec::new()));
        let policy = Recording {
            inner: DtPolicy::new(0.5).preempting(&[Priority::new(3)]),
            calls: Rc::clone(&calls),
        };
        let cfg = SwitchConfig {
            total_buffer: Bytes::new(40_000),
            headroom_per_queue: Bytes::new(8_000),
            ..SwitchConfig::default()
        };
        let rates = vec![BitRate::from_gbps(25); usize::from(PORTS)];
        let mut sw = SharedMemorySwitch::new(NodeId::new(0), cfg, rates, Box::new(policy), case);
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        sw.set_trace(trace.clone());
        let mut model = Model::default();
        // The packet each port is serializing.
        let mut wire: [Option<(u64, u64)>; PORTS as usize] = [None; PORTS as usize];
        let (mut t, mut traced) = (SimTime::ZERO, 0);
        for step in 0..400 + rng.below(400) {
            let ctx = format!("case {case} step {step}");
            t += SimDuration::from_nanos(rng.below(400));
            let port = PortId::new(rng.below(u64::from(PORTS)) as u16);
            let prio = Priority::new(PRIOS[rng.below(3) as usize]);
            let before = calls.borrow().len();
            match rng.below(16) {
                0..=6 => {
                    let class = if prio.as_u8() == 3 {
                        TrafficClass::Lossless
                    } else {
                        TrafficClass::Lossy
                    };
                    let (src, dst) = (NodeId::new(100), NodeId::new(101));
                    let payload = Bytes::new(200 + rng.below(800));
                    let flow = FlowId::new(step);
                    let pkt = Packet::data(flow, src, dst, prio, class, 0, payload, Bytes::new(48));
                    let size = pkt.size();
                    let in_port = PortId::new(rng.below(u64::from(PORTS)) as u16);
                    let r = sw.receive(t, pkt, in_port, port);
                    if r.admitted() {
                        let q = QueueIndex::new(port, prio);
                        model.charged.insert((step, 0), (in_port, q, size));
                    }
                    started(&mut wire, r.tx);
                }
                7..=10 if wire[port.index()].is_some() => {
                    let done = sw.tx_complete(t, port);
                    model.depart(done.departed.flow, done.departed.seq, &ctx);
                    wire[port.index()] = None;
                    started(&mut wire, done.next);
                }
                11 | 12 => {
                    let frame = if rng.below(2) == 0 {
                        PfcFrame::pause(prio)
                    } else {
                        PfcFrame::resume(prio)
                    };
                    started(&mut wire, sw.handle_pfc(t, port, frame));
                }
                13 => started(&mut wire, sw.pfc_watchdog_fire(t, port, prio)),
                14 if rng.below(4) == 0 => {
                    sw.port_down(t, port);
                    drains += 1;
                }
                15 => started(&mut wire, sw.reset_port_pfc(t, port)),
                _ => {}
            }
            // No step both departs packets and changes a pause state, so
            // the model still stands as this step's hooks saw it.
            for (q_out, paused, from) in &calls.borrow()[before..] {
                assert_eq!(sw.mmu().egress_paused(*q_out), *paused, "{ctx}: hook state");
                assert_eq!(from, &model.counts(*q_out), "{ctx}: counts for {q_out:?}");
                edges += 1;
                nonzero += u32::from(from.iter().any(|&c| c > 0));
                if let Some(key) = wire[q_out.port.index()] {
                    let same = model.charged[&key].1 == *q_out;
                    (same_wire, other_wire) =
                        (same_wire + u32::from(same), other_wire + u32::from(!same));
                }
            }
            // Evictions and port-down drains leave the switch as drops.
            let drops: Vec<(u64, u64, TraceDropCause)> = trace
                .with(|r| {
                    let new = r.records().skip(traced);
                    new.filter_map(|rec| match rec.event {
                        TraceEvent::Drop {
                            flow, seq, cause, ..
                        } => Some((flow, seq, cause)),
                        _ => None,
                    })
                    .collect()
                })
                .unwrap();
            traced = trace.with(|r| r.records().count()).unwrap();
            for (flow, seq, cause) in drops {
                match cause {
                    TraceDropCause::Evicted => evictions += 1,
                    TraceDropCause::LinkDown => {}
                    _ => continue,
                }
                model.depart(FlowId::new(flow), seq, &ctx);
            }
            // The model and the MMU agree on every egress queue's bytes.
            for p in 0..PORTS {
                for prio in PRIOS.map(Priority::new) {
                    let q = QueueIndex::new(PortId::new(p), prio);
                    let bytes = sw.mmu().egress_bytes(q);
                    assert_eq!(model.bytes(q), bytes, "{ctx}: bytes of {q:?}");
                }
            }
        }
    }
    // The battery must reach what it is a test of.
    assert!(edges >= 2_000, "{edges} pause edges");
    assert!(nonzero >= 500, "{nonzero} edges with packets behind them");
    assert!(
        same_wire >= 100,
        "{same_wire} edges with their priority on the wire"
    );
    assert!(
        other_wire >= 100,
        "{other_wire} edges with another priority on the wire"
    );
    assert!(evictions >= 100, "{evictions} evictions");
    assert!(drains >= 50, "{drains} port-down drains");
}
