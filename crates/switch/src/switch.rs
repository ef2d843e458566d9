//! The shared-memory switch: admission, PFC, ECN and scheduling.

use std::collections::HashMap;

use dcn_net::{FlowId, NodeId, Packet, PfcFrame, PortId, TrafficClass};
use dcn_sim::{
    BitRate, Bytes, SimDuration, SimRng, SimTime, TraceDropCause, TraceEvent, TraceHandle,
};

use dcn_metrics::{DropCounters, PfcCounters};

use crate::config::SwitchConfig;
use crate::mmu::{Charge, MmuState, Pool, QueueIndex};
use crate::policy::BufferPolicy;
use crate::queue::{EgressPort, InFlight, PacketPool, QueuedPacket};

/// The one path for a lost packet, wherever it was lost: classifies it
/// into `counters` ([`DropCounters::record`]) and records the `Drop`
/// trace event against `node`, the node it was arriving at or queued
/// in. A switch calls it for its admission, eviction, link-down and
/// no-route drops, the fabric's wires for dead-link and corrupted
/// packets; every lost packet thus reconciles with both the counters and
/// the recorder's drop totals.
pub fn record_loss(
    counters: &mut DropCounters,
    trace: &TraceHandle,
    now: SimTime,
    node: NodeId,
    in_port: PortId,
    packet: &Packet,
    cause: TraceDropCause,
) {
    counters.record(packet.class, packet.size(), cause);
    trace.record_with(now, || TraceEvent::Drop {
        node: node.index() as u32,
        in_port: in_port.index() as u16,
        prio: packet.priority.index() as u8,
        flow: packet.flow.as_u64(),
        seq: packet.seq,
        size: packet.size().as_u64(),
        lossless: packet.class.is_lossless(),
        cause,
    });
}

/// A PFC frame the switch wants transmitted out of `port` (to the
/// upstream device attached there).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfcEmit {
    /// The ingress port whose upstream neighbour must pause/resume.
    pub port: PortId,
    /// The pause or resume frame.
    pub frame: PfcFrame,
}

/// An instruction to the event loop: `packet` starts serializing out of
/// `port` now and completes after `serialize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxStart {
    /// The transmitting egress port.
    pub port: PortId,
    /// The packet, moved out of its queue for delivery to the link peer.
    pub packet: Packet,
    /// Serialization time at the port's link rate.
    pub serialize: SimDuration,
}

/// Outcome of [`SharedMemorySwitch::receive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveOutcome {
    /// The packet was admitted and queued.
    Admitted {
        /// Whether the switch set the CE mark on it.
        ecn_marked: bool,
    },
    /// The packet was dropped at admission (`AdmissionDeniedIngress`,
    /// `AdmissionDeniedEgress` or `HeadroomExhausted`).
    Dropped(TraceDropCause),
}

/// Full result of processing one arriving packet.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceiveResult {
    /// Admitted or dropped.
    pub outcome: ReceiveOutcome,
    /// An XOFF to send upstream, if the arrival crossed the threshold.
    pub pfc: Option<PfcEmit>,
    /// A transmission to start, if the egress port was idle.
    pub tx: Option<TxStart>,
    /// An IRN NACK toward the flow's sender, generated when a lossy-RDMA
    /// data arrival exposed a sequence gap (a drop at some upstream hop).
    /// The event loop injects it into this switch for normal forwarding.
    pub nack: Option<Packet>,
}

impl ReceiveResult {
    /// Whether the packet was admitted.
    pub fn admitted(&self) -> bool {
        matches!(self.outcome, ReceiveOutcome::Admitted { .. })
    }
}

/// Result of completing a transmission.
#[derive(Debug, Clone, PartialEq)]
pub struct TxCompleteResult {
    /// Bookkeeping of the packet that just left the switch (the packet
    /// itself was moved to the peer when serialization started).
    pub departed: InFlight,
    /// The next transmission on this port, if one is eligible.
    pub next: Option<TxStart>,
    /// An XON to send upstream, if the departure cleared the hysteresis.
    pub pfc: Option<PfcEmit>,
}

/// Upper bound on preemptive evictions a single arrival may trigger — a
/// termination backstop for the plan/evict/re-test admission loop (the
/// loop normally ends much earlier, when the arrival fits or the policy
/// stops naming victims).
const MAX_EVICTIONS_PER_ARRIVAL: u32 = 32;

/// An output-queued shared-memory switch with PFC and a pluggable
/// buffer-management policy. See the crate docs for the protocol between
/// the switch and the event loop.
#[derive(Debug)]
pub struct SharedMemorySwitch {
    id: NodeId,
    cfg: SwitchConfig,
    mmu: MmuState,
    ports: Vec<EgressPort>,
    /// The packets queued at every port (the shared buffer itself).
    pool: PacketPool,
    policy: Box<dyn BufferPolicy>,
    /// Ingress queues that have an outstanding XOFF, by flat queue index.
    pause_sent: Vec<bool>,
    pfc_counters: PfcCounters,
    drop_counters: DropCounters,
    /// Scratch for the pause hook's per-ingress-port counts; allocated
    /// at the first pause edge.
    queued_from: Vec<u32>,
    /// Per-flow next-expected sequence offset of lossy-RDMA (IRN) data
    /// transiting this switch, updated on *every* arrival — admitted or
    /// dropped — so a gap opened by a drop at an upstream hop is
    /// detected here and NACKed toward the sender. Lookup-only (never
    /// iterated), so a hash map cannot perturb determinism.
    irn_expected: HashMap<FlowId, u64>,
    rng: SimRng,
    trace: TraceHandle,
}

impl SharedMemorySwitch {
    /// Creates a switch with one port per entry of `link_rates`.
    ///
    /// `seed` drives only probabilistic ECN marking, keeping runs
    /// reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation or `link_rates` is empty.
    pub fn new(
        id: NodeId,
        cfg: SwitchConfig,
        link_rates: Vec<BitRate>,
        policy: Box<dyn BufferPolicy>,
        seed: u64,
    ) -> SharedMemorySwitch {
        cfg.validate().expect("invalid switch config");
        let n = link_rates.len();
        let mmu = MmuState::new(&cfg, link_rates);
        SharedMemorySwitch {
            id,
            cfg,
            mmu,
            ports: (0..n).map(|_| EgressPort::new()).collect(),
            pool: PacketPool::default(),
            policy,
            pause_sent: vec![false; n * dcn_net::Priority::COUNT],
            pfc_counters: PfcCounters::new(),
            drop_counters: DropCounters::new(),
            queued_from: Vec::new(),
            irn_expected: HashMap::new(),
            rng: SimRng::seed_from_u64(seed ^ (id.index() as u64).wrapping_mul(0xA5A5_5A5A)),
            trace: TraceHandle::disabled(),
        }
    }

    /// Attaches a flight recorder. The default handle is disabled, in
    /// which case every record site is a single untaken branch.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// This switch's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The MMU counter state (read-only).
    pub fn mmu(&self) -> &MmuState {
        &self.mmu
    }

    /// Sets the headroom cap of one port's queues (see
    /// [`MmuState::set_headroom_cap`]).
    pub fn set_port_headroom(&mut self, port: PortId, cap: Bytes) {
        self.mmu.set_headroom_cap(port, cap);
    }

    /// Total bytes currently stored (the paper's "buffer occupancy").
    pub fn occupancy(&self) -> Bytes {
        self.mmu.total_stored()
    }

    /// PFC frame counters.
    pub fn pfc_counters(&self) -> &PfcCounters {
        &self.pfc_counters
    }

    /// Drop counters.
    pub fn drop_counters(&self) -> &DropCounters {
        &self.drop_counters
    }

    /// Processes a packet arriving on `in_port`, destined (per routing)
    /// to leave via `out_port`.
    pub fn receive(
        &mut self,
        now: SimTime,
        mut packet: Packet,
        in_port: PortId,
        out_port: PortId,
    ) -> ReceiveResult {
        let q_in = QueueIndex::new(in_port, packet.priority);
        let q_out = QueueIndex::new(out_port, packet.priority);
        let size = packet.size();
        // Copy the identifiers the trace closures need up front, so the
        // closures capture only `Copy` locals and never borrow `self` or
        // the packet (which is mutated and ultimately moved below).
        let t_node = self.id.index() as u32;
        let t_in = in_port.index() as u16;
        let t_out = out_port.index() as u16;
        let t_prio = packet.priority.index() as u8;
        let t_flow = packet.flow.as_u64();
        let t_seq = packet.seq;

        // --- IRN gap detection (lossy RDMA only) ------------------------
        // Runs before admission, on every arrival: a drop at an upstream
        // hop shows up here as a sequence jump, and the switch — like an
        // IRN-aware receiver NIC — NACKs the first missing byte toward
        // the sender. The high-water mark then jumps past the gap so one
        // loss episode produces one NACK from this switch.
        let nack = if packet.class.is_lossy_rdma() && packet.is_data() {
            let end = packet.seq + packet.payload().as_u64();
            let expected = self.irn_expected.entry(packet.flow).or_insert(0);
            let gap = packet.seq > *expected;
            let nack_seq = *expected;
            *expected = (*expected).max(end);
            if gap {
                self.trace.record_with(now, || TraceEvent::IrnNack {
                    flow: t_flow,
                    nack_seq,
                    node: t_node,
                    from_switch: true,
                });
                Some(Packet::nack(
                    packet.flow,
                    packet.dst,
                    packet.src,
                    packet.priority,
                    nack_seq,
                    0,
                ))
            } else {
                None
            }
        } else {
            None
        };

        // --- admission ------------------------------------------------
        // A preemptive policy (Occamy) may evict already-queued lossy
        // packets to admit an arrival the thresholds would reject; every
        // non-preemptive policy returns `None` from `plan_eviction`, so
        // this loop runs exactly once for them and the rejection path is
        // byte-identical to the pre-hook switch (zero extra events, zero
        // extra RNG draws).
        let mut evictions = 0u32;
        let charge = loop {
            let threshold = self.policy.pfc_threshold(&self.mmu, q_in, now);
            let plan = self.mmu.plan_charge(q_in, size, Pool::Shared);
            let fits_shared = self.mmu.ingress_shared(q_in) + size <= threshold
                && size <= self.mmu.shared_remaining();

            let rejection = match packet.class {
                TrafficClass::Lossless => {
                    if fits_shared {
                        break plan;
                    } else if size <= self.mmu.headroom_available(q_in) {
                        break self.mmu.plan_charge(q_in, size, Pool::Headroom);
                    } else {
                        TraceDropCause::HeadroomExhausted
                    }
                }
                TrafficClass::Lossy | TrafficClass::LossyRdma => {
                    if !fits_shared {
                        TraceDropCause::AdmissionDeniedIngress
                    } else {
                        let t_egress = self
                            .mmu
                            .shared_remaining()
                            .scale(self.cfg.egress_alpha_lossy);
                        if self.mmu.egress_bytes(q_out) + size > t_egress {
                            TraceDropCause::AdmissionDeniedEgress
                        } else {
                            break plan;
                        }
                    }
                }
            };

            // Rejected: let a preemptive policy make room, then re-test.
            if evictions >= MAX_EVICTIONS_PER_ARRIVAL || !self.try_evict(now, q_out) {
                self.record_drop(now, &packet, in_port, rejection);
                return ReceiveResult {
                    outcome: ReceiveOutcome::Dropped(rejection),
                    pfc: None,
                    tx: None,
                    nack,
                };
            }
            evictions += 1;
        };

        // --- commit -----------------------------------------------------
        self.mmu.charge(q_in, q_out, charge);
        self.policy.on_enqueue(&self.mmu, now, q_in, q_out, size);

        // ECN marking on the egress queue depth after enqueue.
        let ecn_marked = if packet.is_data() {
            let ecn = match packet.class {
                // Lossy RDMA shares the RDMA queues and their shallow
                // marking curve even though it is droppable.
                TrafficClass::Lossless | TrafficClass::LossyRdma => &self.cfg.ecn_lossless,
                TrafficClass::Lossy => &self.cfg.ecn_lossy,
            };
            let p = ecn.mark_probability(self.mmu.egress_bytes(q_out));
            p > 0.0 && self.rng.uniform_f64() < p && packet.mark_ce()
        } else {
            false
        };
        if ecn_marked {
            let depth = self.mmu.egress_bytes(q_out).as_u64();
            self.trace.record_with(now, || TraceEvent::EcnMark {
                node: t_node,
                port: t_out,
                prio: t_prio,
                flow: t_flow,
                seq: t_seq,
                queue_depth: depth,
            });
        }

        // --- PFC XOFF check (lossless only) ----------------------------
        let mut pfc = None;
        if packet.class.is_lossless() && !self.pause_sent[q_in.flat()] {
            let t_now = self.policy.pfc_threshold(&self.mmu, q_in, now);
            let over = charge.pool == Pool::Headroom || self.mmu.ingress_shared(q_in) >= t_now;
            if over {
                self.pause_sent[q_in.flat()] = true;
                self.pfc_counters.record_pause();
                self.trace.record_with(now, || TraceEvent::PfcPause {
                    node: t_node,
                    port: t_in,
                    prio: t_prio,
                });
                pfc = Some(PfcEmit {
                    port: in_port,
                    frame: PfcFrame::pause(packet.priority),
                });
            }
        }

        // --- enqueue & maybe start transmitting -------------------------
        self.trace.record_with(now, || TraceEvent::Enqueue {
            node: t_node,
            in_port: t_in,
            out_port: t_out,
            prio: t_prio,
            flow: t_flow,
            seq: t_seq,
            size: size.as_u64(),
        });
        let qp = QueuedPacket::new(packet, in_port, charge);
        self.ports[out_port.index()].enqueue(&mut self.pool, qp);
        let tx = self.try_start(out_port);

        ReceiveResult {
            outcome: ReceiveOutcome::Admitted { ecn_marked },
            pfc,
            tx,
            nack,
        }
    }

    /// Attempts one policy-planned preemptive eviction to make room for
    /// a rejected arrival bound for `q_out`: asks the policy for a victim
    /// egress queue, pops that queue's *newest* packet, reverses its MMU
    /// charge and records an `Evicted` drop. Returns whether a packet was
    /// actually evicted.
    ///
    /// Only lossy packets may be evicted; a victim whose tail is
    /// lossless is restored untouched and the attempt aborts. Because
    /// `pause_sent` is only ever set by lossless arrivals, an evicted
    /// (lossy) packet's ingress queue never holds an outstanding XOFF,
    /// so eviction never needs to emit XON.
    fn try_evict(&mut self, now: SimTime, q_out: QueueIndex) -> bool {
        let Some(victim) = self.policy.plan_eviction(&self.mmu, q_out) else {
            return false;
        };
        let eport = &mut self.ports[victim.port.index()];
        let Some(qp) = eport.pop_back(&mut self.pool, victim.priority) else {
            // The victim queue's remaining MMU bytes belong to a packet
            // already serializing, which cannot be recalled.
            return false;
        };
        if qp.packet.class.is_lossless() {
            eport.enqueue(&mut self.pool, qp);
            return false;
        }
        let v_in = QueueIndex::new(qp.in_port, qp.packet.priority);
        self.depart(now, v_in, victim, qp.charge);
        self.record_drop(now, &qp.packet, qp.in_port, TraceDropCause::Evicted);
        true
    }

    /// Reverses a departing packet's charge and tells the policy.
    fn depart(&mut self, now: SimTime, q_in: QueueIndex, q_out: QueueIndex, charge: Charge) {
        self.mmu.discharge(now, q_in, q_out, charge);
        self.policy
            .on_dequeue(&self.mmu, now, q_in, q_out, charge.total());
    }

    /// Completes the in-flight transmission on `port`: discharges the
    /// MMU, may emit XON, and starts the next eligible packet.
    ///
    /// # Panics
    ///
    /// Panics if `port` has nothing in flight.
    pub fn tx_complete(&mut self, now: SimTime, port: PortId) -> TxCompleteResult {
        let qp = self.ports[port.index()].finish_tx();
        let q_in = QueueIndex::new(qp.in_port, qp.priority);
        self.depart(now, q_in, QueueIndex::new(port, qp.priority), qp.charge);
        let t_node = self.id.index() as u32;
        self.trace.record_with(now, || TraceEvent::Dequeue {
            node: t_node,
            port: port.index() as u16,
            prio: qp.priority.index() as u8,
            flow: qp.flow.as_u64(),
            seq: qp.seq,
            size: qp.size().as_u64(),
        });

        // --- PFC XON check ----------------------------------------------
        let pfc = self.maybe_xon(now, q_in);

        let next = self.try_start(port);
        TxCompleteResult {
            departed: qp,
            next,
            pfc,
        }
    }

    /// Emits an XON for an ingress queue whose XOFF is outstanding, once
    /// its shared occupancy has fallen below the hysteresis point.
    /// Shared by the departure path and the port-down discharge.
    fn maybe_xon(&mut self, now: SimTime, q_in: QueueIndex) -> Option<PfcEmit> {
        if !self.pause_sent[q_in.flat()] {
            return None;
        }
        let t = self.policy.pfc_threshold(&self.mmu, q_in, now);
        // Resume only when the queue's headroom has fully drained —
        // otherwise the next pause episode would start with less
        // than a round trip of absorption and lose lossless packets.
        if self.mmu.ingress_headroom(q_in) != Bytes::ZERO
            || self.mmu.ingress_shared(q_in) > t.scale(self.cfg.xon_fraction)
        {
            return None;
        }
        self.pause_sent[q_in.flat()] = false;
        self.pfc_counters.record_resume();
        let t_node = self.id.index() as u32;
        self.trace.record_with(now, || TraceEvent::PfcResume {
            node: t_node,
            port: q_in.port.index() as u16,
            prio: q_in.priority.index() as u8,
        });
        Some(PfcEmit {
            port: q_in.port,
            frame: PfcFrame::resume(q_in.priority),
        })
    }

    /// Applies a PFC frame received from the downstream device on
    /// `port` (pausing or resuming one egress priority). A resume may
    /// immediately start a transmission.
    pub fn handle_pfc(&mut self, now: SimTime, port: PortId, frame: PfcFrame) -> Option<TxStart> {
        self.set_egress_paused(now, QueueIndex::new(port, frame.priority), frame.pause);
        if frame.pause {
            None
        } else {
            self.try_start(port)
        }
    }

    /// Fires the PFC storm watchdog for one egress queue: if the queue
    /// is paused, the pause is force-cleared (as real ASIC pause
    /// watchdogs do), a `PfcWatchdogFired` trace event and counter are
    /// recorded, and a blocked transmission may start. On a queue that
    /// is not paused it is a no-op.
    pub fn pfc_watchdog_fire(
        &mut self,
        now: SimTime,
        port: PortId,
        prio: dcn_net::Priority,
    ) -> Option<TxStart> {
        let q_out = QueueIndex::new(port, prio);
        if !self.mmu.egress_paused(q_out) {
            return None;
        }
        self.set_egress_paused(now, q_out, false);
        self.pfc_counters.record_watchdog();
        let t_node = self.id.index() as u32;
        self.trace
            .record_with(now, || TraceEvent::PfcWatchdogFired {
                node: t_node,
                port: port.index() as u16,
                prio: prio.index() as u8,
            });
        self.try_start(port)
    }

    /// Discharges every byte queued to `port` (the link behind it went
    /// down), reusing the normal departure bookkeeping so buffer
    /// conservation holds throughout. Drained packets are counted as
    /// drops (cause `link_down`) and freed shared/headroom space may
    /// emit XONs for the ingress queues the drained bytes arrived on.
    /// Any packet already serializing is left to its pending
    /// `tx_complete`; the wire itself drops it at the dead link.
    pub fn port_down(&mut self, now: SimTime, port: PortId) -> Vec<PfcEmit> {
        let drained = self.ports[port.index()].drain_all(&mut self.pool);
        let mut affected: Vec<QueueIndex> = Vec::new();
        for qp in drained {
            let q_in = QueueIndex::new(qp.in_port, qp.packet.priority);
            let q_out = QueueIndex::new(port, qp.packet.priority);
            self.depart(now, q_in, q_out, qp.charge);
            self.record_drop(now, &qp.packet, qp.in_port, TraceDropCause::LinkDown);
            if !affected.contains(&q_in) {
                affected.push(q_in);
            }
        }
        affected
            .into_iter()
            .filter_map(|q_in| self.maybe_xon(now, q_in))
            .collect()
    }

    /// Resets PFC state on `port` after its link renegotiates (link
    /// up): any downstream pause asserted across the old link is
    /// cleared, and an outstanding XOFF we sent over it is forgotten —
    /// the peer resets symmetrically, and a still-congested ingress
    /// queue simply re-emits XOFF on its next lossless arrival. May
    /// start a transmission that the stale pause was blocking.
    pub fn reset_port_pfc(&mut self, now: SimTime, port: PortId) -> Option<TxStart> {
        for prio in dcn_net::Priority::all() {
            let q = QueueIndex::new(port, prio);
            self.set_egress_paused(now, q, false);
            self.pause_sent[q.flat()] = false;
        }
        self.try_start(port)
    }

    /// Sets the downstream pause state of an egress queue and, on an
    /// edge, tells the policy how many packets of each ingress port wait
    /// behind it.
    fn set_egress_paused(&mut self, now: SimTime, q_out: QueueIndex, paused: bool) {
        if self.mmu.set_egress_paused(q_out, paused) {
            let from = &mut self.queued_from;
            from.clear();
            from.resize(self.ports.len(), 0);
            self.ports[q_out.port.index()].count_by_ingress(&self.pool, q_out.priority, from);
            self.policy
                .on_egress_pause_changed(now, q_out, paused, &self.queued_from);
        }
    }

    /// Counts and traces a packet lost at this switch (see
    /// [`record_loss`]): its own admission drops, evictions and
    /// link-down drains, and packets the fabric found no live route for.
    pub fn record_drop(
        &mut self,
        now: SimTime,
        packet: &Packet,
        in_port: PortId,
        cause: TraceDropCause,
    ) {
        record_loss(
            &mut self.drop_counters,
            &self.trace,
            now,
            self.id,
            in_port,
            packet,
            cause,
        );
    }

    /// Starts the next eligible transmission on `port`, if it is idle.
    fn try_start(&mut self, port: PortId) -> Option<TxStart> {
        let mmu = &self.mmu;
        let eport = &mut self.ports[port.index()];
        let paused = |prio| mmu.egress_paused(QueueIndex::new(port, prio));
        let packet = eport.start_next(&mut self.pool, paused)?;
        let serialize = mmu.link_rate(port).tx_time(packet.size());
        Some(TxStart {
            port,
            packet,
            serialize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DtPolicy;
    use dcn_net::{FlowId, Priority};

    const MTU_PAYLOAD: u64 = 1_000;
    const HDR: u64 = 48;

    fn lossless_pkt(seq: u64) -> Packet {
        Packet::data(
            FlowId::new(1),
            NodeId::new(100),
            NodeId::new(101),
            Priority::new(3),
            TrafficClass::Lossless,
            seq,
            Bytes::new(MTU_PAYLOAD),
            Bytes::new(HDR),
        )
    }

    fn lossy_pkt(seq: u64) -> Packet {
        Packet::data(
            FlowId::new(2),
            NodeId::new(100),
            NodeId::new(101),
            Priority::new(1),
            TrafficClass::Lossy,
            seq,
            Bytes::new(MTU_PAYLOAD),
            Bytes::new(HDR),
        )
    }

    fn small_switch(alpha: f64, buffer: Bytes) -> SharedMemorySwitch {
        let cfg = SwitchConfig {
            total_buffer: buffer,
            headroom_per_queue: Bytes::new(8_000),
            ..SwitchConfig::default()
        };
        SharedMemorySwitch::new(
            NodeId::new(0),
            cfg,
            vec![BitRate::from_gbps(25); 4],
            Box::new(DtPolicy::new(alpha)),
            42,
        )
    }

    #[test]
    fn admit_and_transmit_one_packet() {
        let mut sw = small_switch(0.5, Bytes::from_mb(4));
        let r = sw.receive(
            SimTime::ZERO,
            lossless_pkt(0),
            PortId::new(0),
            PortId::new(1),
        );
        assert!(r.admitted());
        assert!(r.pfc.is_none());
        let tx = r.tx.expect("idle port starts immediately");
        assert_eq!(tx.port, PortId::new(1));
        // 1048 B at 25 Gbps = 336 ns (rounded up).
        assert_eq!(tx.serialize.as_nanos(), 336);
        assert_eq!(sw.occupancy(), Bytes::new(1_048));

        let done = sw.tx_complete(SimTime::from_nanos(336), PortId::new(1));
        assert_eq!(done.departed.seq, 0);
        assert!(done.next.is_none());
        assert_eq!(sw.occupancy(), Bytes::ZERO);
        sw.mmu().check_conservation().unwrap();
    }

    #[test]
    fn second_packet_waits_for_first() {
        let mut sw = small_switch(0.5, Bytes::from_mb(4));
        let r1 = sw.receive(
            SimTime::ZERO,
            lossless_pkt(0),
            PortId::new(0),
            PortId::new(1),
        );
        assert!(r1.tx.is_some());
        let r2 = sw.receive(
            SimTime::ZERO,
            lossless_pkt(1),
            PortId::new(0),
            PortId::new(1),
        );
        assert!(r2.admitted());
        assert!(r2.tx.is_none(), "port busy");
        let done = sw.tx_complete(SimTime::from_nanos(336), PortId::new(1));
        let next = done.next.expect("second packet starts");
        assert_eq!(next.packet.seq, 1);
    }

    #[test]
    fn lossless_overflow_triggers_pause_and_uses_headroom() {
        // Tiny buffer so a few packets cross the DT threshold.
        let mut sw = small_switch(0.125, Bytes::new(10_000));
        let mut paused_at = None;
        for i in 0..8 {
            let r = sw.receive(
                SimTime::ZERO,
                lossless_pkt(i),
                PortId::new(0),
                PortId::new(1),
            );
            assert!(r.admitted(), "lossless must not drop while headroom lasts");
            if let Some(e) = r.pfc {
                if paused_at.is_none() {
                    assert!(e.frame.pause);
                    assert_eq!(e.port, PortId::new(0));
                    paused_at = Some(i);
                }
            }
        }
        assert!(paused_at.is_some(), "threshold crossing must emit XOFF");
        assert_eq!(sw.pfc_counters().pause_frames(), 1, "one XOFF per episode");
        assert!(sw.mmu().headroom_used() > Bytes::ZERO);
        assert!(sw.pause_sent[QueueIndex::new(PortId::new(0), Priority::new(3)).flat()]);
        sw.mmu().check_conservation().unwrap();
    }

    #[test]
    fn headroom_exhaustion_drops_lossless() {
        let cfg = SwitchConfig {
            total_buffer: Bytes::new(2_000),
            headroom_per_queue: Bytes::new(2_000),
            ..SwitchConfig::default()
        };
        let mut sw = SharedMemorySwitch::new(
            NodeId::new(0),
            cfg,
            vec![BitRate::from_gbps(25); 2],
            Box::new(DtPolicy::new(0.125)),
            1,
        );
        let mut dropped = 0;
        for i in 0..6 {
            let r = sw.receive(
                SimTime::ZERO,
                lossless_pkt(i),
                PortId::new(0),
                PortId::new(1),
            );
            if !r.admitted() {
                assert_eq!(
                    r.outcome,
                    ReceiveOutcome::Dropped(TraceDropCause::HeadroomExhausted)
                );
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert_eq!(sw.drop_counters().lossless_packets, dropped);
    }

    #[test]
    fn lossy_over_threshold_is_dropped_not_paused() {
        let mut sw = small_switch(0.125, Bytes::new(10_000));
        let mut dropped = 0;
        for i in 0..10 {
            let r = sw.receive(SimTime::ZERO, lossy_pkt(i), PortId::new(0), PortId::new(1));
            assert!(r.pfc.is_none(), "lossy traffic never pauses");
            if !r.admitted() {
                dropped += 1;
            }
        }
        assert!(dropped > 0);
        assert_eq!(sw.pfc_counters().pause_frames(), 0);
        assert_eq!(sw.drop_counters().lossy_packets, dropped);
    }

    #[test]
    fn xon_emitted_after_drain() {
        let mut sw = small_switch(0.125, Bytes::new(10_000));
        // Fill until paused.
        for i in 0..8 {
            sw.receive(
                SimTime::ZERO,
                lossless_pkt(i),
                PortId::new(0),
                PortId::new(1),
            );
        }
        assert!(sw.pause_sent[QueueIndex::new(PortId::new(0), Priority::new(3)).flat()]);
        // Drain everything; XON must appear before the queue is empty or
        // at worst on the last departure.
        let mut resumed = false;
        let mut t = SimTime::from_nanos(336);
        for _ in 0..8 {
            let done = sw.tx_complete(t, PortId::new(1));
            if let Some(e) = done.pfc {
                assert!(!e.frame.pause);
                resumed = true;
            }
            t += SimDuration::from_nanos(336);
            if done.next.is_none() {
                break;
            }
        }
        assert!(resumed, "draining must emit XON");
        assert!(!sw.pause_sent[QueueIndex::new(PortId::new(0), Priority::new(3)).flat()]);
        assert_eq!(sw.pfc_counters().resume_frames(), 1);
    }

    #[test]
    fn downstream_pause_stops_and_resume_restarts() {
        let mut sw = small_switch(0.5, Bytes::from_mb(4));
        // Two packets queued; first in flight.
        sw.receive(
            SimTime::ZERO,
            lossless_pkt(0),
            PortId::new(0),
            PortId::new(1),
        );
        sw.receive(
            SimTime::ZERO,
            lossless_pkt(1),
            PortId::new(0),
            PortId::new(1),
        );
        // Downstream pauses priority 3 on port 1.
        let none = sw.handle_pfc(
            SimTime::from_nanos(100),
            PortId::new(1),
            PfcFrame::pause(Priority::new(3)),
        );
        assert!(none.is_none());
        // In-flight packet completes; nothing new starts (paused).
        let done = sw.tx_complete(SimTime::from_nanos(336), PortId::new(1));
        assert!(done.next.is_none(), "paused priority must not start");
        // Resume: the waiting packet starts.
        let tx = sw.handle_pfc(
            SimTime::from_nanos(500),
            PortId::new(1),
            PfcFrame::resume(Priority::new(3)),
        );
        assert_eq!(tx.expect("resume starts tx").packet.seq, 1);
    }

    #[test]
    fn lossy_egress_threshold_drops() {
        // Huge ingress alpha so only the egress check can fail.
        let cfg = SwitchConfig {
            total_buffer: Bytes::from_mb(4),
            egress_alpha_lossy: 0.001, // 4 KB egress cap on an empty switch
            ..SwitchConfig::default()
        };
        let mut sw = SharedMemorySwitch::new(
            NodeId::new(0),
            cfg,
            vec![BitRate::from_gbps(25); 2],
            Box::new(DtPolicy::new(8.0)),
            1,
        );
        let mut egress_drops = 0;
        for i in 0..10 {
            let r = sw.receive(SimTime::ZERO, lossy_pkt(i), PortId::new(0), PortId::new(1));
            if r.outcome == ReceiveOutcome::Dropped(TraceDropCause::AdmissionDeniedEgress) {
                egress_drops += 1;
            }
        }
        assert!(egress_drops > 0);
    }

    #[test]
    fn dctcp_step_marking_kicks_in() {
        let cfg = SwitchConfig {
            ecn_lossy: crate::config::EcnConfig::step(Bytes::new(2_000)),
            ..SwitchConfig::default()
        };
        let mut sw = SharedMemorySwitch::new(
            NodeId::new(0),
            cfg,
            vec![BitRate::from_gbps(25); 2],
            Box::new(DtPolicy::new(0.5)),
            1,
        );
        let mut marked = 0;
        for i in 0..5 {
            let r = sw.receive(SimTime::ZERO, lossy_pkt(i), PortId::new(0), PortId::new(1));
            if let ReceiveOutcome::Admitted { ecn_marked: true } = r.outcome {
                marked += 1;
            }
        }
        // Queue depths: 1048, 2096, 3144, ... -> packets 2..5 marked.
        assert_eq!(marked, 4);
    }

    #[test]
    fn trace_records_causes_that_reconcile_with_counters() {
        use dcn_sim::{TraceConfig, TraceHandle};
        let mut sw = small_switch(0.125, Bytes::new(10_000));
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        sw.set_trace(trace.clone());
        // Overflow with lossy traffic (drops), then with lossless
        // (pause + headroom), then drain (resume + dequeues).
        for i in 0..10 {
            sw.receive(SimTime::ZERO, lossy_pkt(i), PortId::new(0), PortId::new(1));
        }
        for i in 0..8 {
            sw.receive(
                SimTime::ZERO,
                lossless_pkt(i),
                PortId::new(2),
                PortId::new(1),
            );
        }
        let mut t = SimTime::from_nanos(336);
        loop {
            let done = sw.tx_complete(t, PortId::new(1));
            t += SimDuration::from_nanos(336);
            if done.next.is_none() {
                break;
            }
        }
        let totals = trace.with(|r| r.totals()).unwrap();
        assert_eq!(
            totals.drops(),
            sw.drop_counters().lossy_packets + sw.drop_counters().lossless_packets,
            "trace drop causes must sum to the drop counters"
        );
        assert_eq!(totals.pfc_pauses, sw.pfc_counters().pause_frames());
        assert_eq!(totals.pfc_resumes, sw.pfc_counters().resume_frames());
        // Everything admitted was both enqueued and dequeued.
        let (enq, deq) = trace
            .with(|r| {
                let mut enq = 0u64;
                let mut deq = 0u64;
                for rec in r.records() {
                    match rec.event {
                        dcn_sim::TraceEvent::Enqueue { .. } => enq += 1,
                        dcn_sim::TraceEvent::Dequeue { .. } => deq += 1,
                        _ => {}
                    }
                }
                (enq, deq)
            })
            .unwrap();
        assert!(enq > 0);
        assert_eq!(enq, deq, "switch drained: every enqueue has a dequeue");
    }

    #[test]
    fn port_down_discharges_everything_and_can_emit_xon() {
        use dcn_sim::{TraceConfig, TraceHandle};
        let mut sw = small_switch(0.125, Bytes::new(10_000));
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        sw.set_trace(trace.clone());
        // Fill until the ingress queue pauses (headroom in use).
        for i in 0..8 {
            sw.receive(
                SimTime::ZERO,
                lossless_pkt(i),
                PortId::new(0),
                PortId::new(1),
            );
        }
        assert!(sw.pause_sent[QueueIndex::new(PortId::new(0), Priority::new(3)).flat()]);
        let queued_before = sw.occupancy();
        assert!(queued_before > Bytes::ZERO);

        // Port 1's link dies: all queued bytes must discharge; the one
        // in-flight packet stays charged until its tx_complete, and its
        // shared charge alone still exceeds the XON hysteresis.
        let pfc = sw.port_down(SimTime::from_nanos(500), PortId::new(1));
        assert!(pfc.is_empty(), "in-flight charge still above hysteresis");
        sw.mmu().check_conservation().unwrap();
        assert_eq!(sw.mmu().headroom_used(), Bytes::ZERO);

        // Finish the in-flight packet: switch fully empty, XON emitted.
        let done = sw.tx_complete(SimTime::from_nanos(600), PortId::new(1));
        let xon = done.pfc.expect("final departure clears the pause");
        assert!(!xon.frame.pause);
        assert!(!sw.pause_sent[QueueIndex::new(PortId::new(0), Priority::new(3)).flat()]);
        assert_eq!(sw.occupancy(), Bytes::ZERO);
        sw.mmu().check_conservation().unwrap();

        // Drained packets were counted as lossless drops and traced.
        assert_eq!(sw.drop_counters().lossless_packets, 7);
        let totals = trace.with(|r| r.totals()).unwrap();
        assert_eq!(totals.drops_by(TraceDropCause::LinkDown), 7);
        assert_eq!(
            totals.drops(),
            sw.drop_counters().lossless_packets + sw.drop_counters().lossy_packets
        );
    }

    #[test]
    fn watchdog_force_resumes_stuck_pause_and_is_a_noop_when_not_paused() {
        use dcn_sim::{TraceConfig, TraceHandle};
        let mut sw = small_switch(0.5, Bytes::from_mb(4));
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        sw.set_trace(trace.clone());
        sw.receive(
            SimTime::ZERO,
            lossless_pkt(0),
            PortId::new(0),
            PortId::new(1),
        );
        sw.receive(
            SimTime::ZERO,
            lossless_pkt(1),
            PortId::new(0),
            PortId::new(1),
        );
        let q = QueueIndex::new(PortId::new(1), Priority::new(3));

        // Stuck XOFF against egress port 1.
        sw.handle_pfc(
            SimTime::from_nanos(100),
            PortId::new(1),
            PfcFrame::pause(Priority::new(3)),
        );
        sw.tx_complete(SimTime::from_nanos(336), PortId::new(1));
        assert!(sw.mmu().egress_paused(q));

        // The watchdog fires: pause cleared, blocked packet starts.
        let tx = sw.pfc_watchdog_fire(SimTime::from_micros(10), PortId::new(1), Priority::new(3));
        assert_eq!(tx.expect("forced resume starts tx").packet.seq, 1);
        assert!(!sw.mmu().egress_paused(q));
        assert_eq!(sw.pfc_counters().watchdog_fires(), 1);
        assert_eq!(trace.with(|r| r.totals()).unwrap().watchdog_fires, 1);

        // A fire on a queue that is not paused changes nothing.
        let tx = sw.pfc_watchdog_fire(SimTime::from_micros(11), PortId::new(1), Priority::new(3));
        assert!(tx.is_none());
        assert_eq!(sw.pfc_counters().watchdog_fires(), 1);
        assert_eq!(trace.with(|r| r.totals()).unwrap().watchdog_fires, 1);
    }

    #[test]
    fn reset_port_pfc_clears_both_directions() {
        let mut sw = small_switch(0.125, Bytes::new(10_000));
        // Ingress port 0 pauses (XOFF outstanding) and downstream pause
        // lands on egress port 1.
        for i in 0..8 {
            sw.receive(
                SimTime::ZERO,
                lossless_pkt(i),
                PortId::new(0),
                PortId::new(1),
            );
        }
        sw.handle_pfc(
            SimTime::from_nanos(10),
            PortId::new(0),
            PfcFrame::pause(Priority::new(3)),
        );
        assert!(sw.pause_sent[QueueIndex::new(PortId::new(0), Priority::new(3)).flat()]);
        assert!(sw
            .mmu()
            .egress_paused(QueueIndex::new(PortId::new(0), Priority::new(3))));

        // Port 0's link renegotiates: both the XOFF we sent and the
        // pause we honour across it are forgotten.
        sw.reset_port_pfc(SimTime::from_micros(1), PortId::new(0));
        assert!(!sw.pause_sent[QueueIndex::new(PortId::new(0), Priority::new(3)).flat()]);
        assert!(!sw
            .mmu()
            .egress_paused(QueueIndex::new(PortId::new(0), Priority::new(3))));
        sw.mmu().check_conservation().unwrap();
    }

    #[test]
    fn forwarding_drop_reconciles_counters_and_trace() {
        use dcn_sim::{TraceConfig, TraceHandle};
        let mut sw = small_switch(0.5, Bytes::from_mb(4));
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        sw.set_trace(trace.clone());
        let pkt = lossy_pkt(0);
        sw.record_drop(SimTime::ZERO, &pkt, PortId::new(2), TraceDropCause::NoRoute);
        assert_eq!(sw.drop_counters().lossy_packets, 1);
        let totals = trace.with(|r| r.totals()).unwrap();
        assert_eq!(totals.drops_by(TraceDropCause::NoRoute), 1);
        assert_eq!(totals.drops(), 1);
    }

    #[test]
    fn record_loss_classifies_counts_and_traces_each_class() {
        use dcn_sim::{TraceConfig, TraceHandle};
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        let b = MTU_PAYLOAD + HDR;
        let lossy = DropCounters {
            lossy_packets: 1,
            lossy_bytes: b,
            ..DropCounters::new()
        };
        for (pkt, cause, expect) in [
            (
                lossless_pkt(0),
                TraceDropCause::HeadroomExhausted,
                DropCounters {
                    lossless_packets: 1,
                    lossless_bytes: b,
                    ..DropCounters::new()
                },
            ),
            (lossy_pkt(0), TraceDropCause::AdmissionDeniedIngress, lossy),
            (
                lossy_rdma_pkt(0),
                TraceDropCause::Corrupted,
                DropCounters {
                    lossy_rdma_packets: 1,
                    lossy_rdma_bytes: b,
                    ..lossy
                },
            ),
            (
                lossy_pkt(1),
                TraceDropCause::Evicted,
                DropCounters {
                    evicted_packets: 1,
                    evicted_bytes: b,
                    ..lossy
                },
            ),
        ] {
            let mut counters = DropCounters::new();
            let (node, port) = (NodeId::new(9), PortId::new(2));
            record_loss(
                &mut counters,
                &trace,
                SimTime::ZERO,
                node,
                port,
                &pkt,
                cause,
            );
            assert_eq!(counters, expect, "{}", cause.name());
            let last = trace.with(|r| r.records().last().unwrap().event).unwrap();
            let TraceEvent::Drop {
                node: 9,
                in_port: 2,
                cause: traced,
                lossless,
                ..
            } = last
            else {
                panic!("{}: not a drop at n9 port 2: {last:?}", cause.name());
            };
            assert_eq!(traced, cause);
            assert_eq!(lossless, pkt.class.is_lossless(), "{}", cause.name());
        }
        assert_eq!(trace.with(|r| r.totals().drops()), Some(4));
    }

    fn occamy_switch(buffer: Bytes) -> SharedMemorySwitch {
        let cfg = SwitchConfig {
            total_buffer: buffer,
            headroom_per_queue: Bytes::new(8_000),
            ..SwitchConfig::default()
        };
        SharedMemorySwitch::new(
            NodeId::new(0),
            cfg,
            vec![BitRate::from_gbps(25); 4],
            Box::new(DtPolicy::new(0.5).preempting(&[Priority::new(3)])),
            42,
        )
    }

    #[test]
    fn occamy_evicts_lossy_backlog_to_admit_lossless() {
        use dcn_sim::{TraceConfig, TraceHandle};
        let mut sw = occamy_switch(Bytes::new(10_000));
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        sw.set_trace(trace.clone());
        // Fill the shared pool with lossy backlog on port 1 (first
        // packet goes in flight; the rest queue).
        let mut lossy_admitted = 0u64;
        for i in 0..10 {
            if sw
                .receive(SimTime::ZERO, lossy_pkt(i), PortId::new(0), PortId::new(1))
                .admitted()
            {
                lossy_admitted += 1;
            }
        }
        assert!(lossy_admitted >= 3, "need a queued lossy backlog");
        // Exhaust the lossless queue's headroom so arrivals hit the
        // rejection path where preemption kicks in.
        let mut evicted_seen = 0u64;
        for i in 0..24 {
            sw.receive(
                SimTime::ZERO,
                lossless_pkt(i),
                PortId::new(2),
                PortId::new(1),
            );
            evicted_seen = sw.drop_counters().evicted_packets;
            if evicted_seen > 0 {
                break;
            }
        }
        assert!(
            evicted_seen > 0,
            "preemption must evict lossy backlog for lossless arrivals"
        );
        assert_eq!(
            sw.drop_counters().lossless_packets,
            0,
            "eviction made room before any lossless drop"
        );
        sw.mmu().check_conservation().unwrap();
        let totals = trace.with(|r| r.totals()).unwrap();
        assert_eq!(
            totals.drops_by(TraceDropCause::Evicted),
            sw.drop_counters().evicted_packets
        );
        assert_eq!(
            totals.drops(),
            sw.drop_counters().lossy_packets + sw.drop_counters().lossless_packets,
            "evictions reconcile: counted once in trace, once in lossy"
        );
    }

    #[test]
    fn eviction_then_drain_conserves_buffer() {
        let mut sw = occamy_switch(Bytes::new(10_000));
        let mut t = SimTime::ZERO;
        for i in 0..10 {
            sw.receive(t, lossy_pkt(i), PortId::new(0), PortId::new(1));
            t += SimDuration::from_nanos(30);
        }
        for i in 0..16 {
            sw.receive(t, lossless_pkt(i), PortId::new(2), PortId::new(1));
            sw.mmu().check_conservation().unwrap();
            t += SimDuration::from_nanos(30);
        }
        assert!(sw.drop_counters().evicted_packets > 0);
        // Drain to empty: every surviving charge reverses exactly once.
        loop {
            t += SimDuration::from_nanos(400);
            if sw.tx_complete(t, PortId::new(1)).next.is_none() {
                break;
            }
            sw.mmu().check_conservation().unwrap();
        }
        assert_eq!(sw.occupancy(), Bytes::ZERO);
        sw.mmu().check_conservation().unwrap();
    }

    #[test]
    fn eviction_never_touches_lossless_packets() {
        // Occamy with *no* protected priorities: the switch-level guard
        // alone must keep lossless packets unevictable.
        let cfg = SwitchConfig {
            total_buffer: Bytes::new(10_000),
            headroom_per_queue: Bytes::new(8_000),
            ..SwitchConfig::default()
        };
        let mut sw = SharedMemorySwitch::new(
            NodeId::new(0),
            cfg,
            vec![BitRate::from_gbps(25); 4],
            Box::new(DtPolicy::new(0.125).preempting(&[])),
            42,
        );
        // Only lossless backlog exists; lossy arrivals that get rejected
        // must not evict it.
        for i in 0..8 {
            sw.receive(
                SimTime::ZERO,
                lossless_pkt(i),
                PortId::new(0),
                PortId::new(1),
            );
        }
        let queued = sw.occupancy();
        for i in 0..10 {
            sw.receive(SimTime::ZERO, lossy_pkt(i), PortId::new(2), PortId::new(1));
        }
        assert_eq!(sw.drop_counters().evicted_packets, 0);
        assert!(sw.occupancy() >= queued, "lossless backlog untouched");
        sw.mmu().check_conservation().unwrap();
    }

    #[test]
    fn non_preemptive_rejection_path_is_unchanged() {
        // DT on the eviction-hook switch must behave exactly as before:
        // same drops, no evictions, no extra trace events.
        use dcn_sim::{TraceConfig, TraceHandle};
        let mut sw = small_switch(0.125, Bytes::new(10_000));
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        sw.set_trace(trace.clone());
        for i in 0..10 {
            sw.receive(SimTime::ZERO, lossy_pkt(i), PortId::new(0), PortId::new(1));
        }
        assert!(sw.drop_counters().lossy_packets > 0);
        assert_eq!(sw.drop_counters().evicted_packets, 0);
        let evicted = trace.with(|r| r.totals().drops_by(TraceDropCause::Evicted));
        assert_eq!(evicted, Some(0));
    }

    fn lossy_rdma_pkt(seq: u64) -> Packet {
        Packet::data(
            FlowId::new(3),
            NodeId::new(100),
            NodeId::new(101),
            Priority::new(3),
            TrafficClass::LossyRdma,
            seq,
            Bytes::new(MTU_PAYLOAD),
            Bytes::new(HDR),
        )
    }

    #[test]
    fn lossy_rdma_gap_emits_one_nack_per_episode() {
        use dcn_net::PacketKind;
        use dcn_sim::{TraceConfig, TraceHandle};
        let mut sw = small_switch(0.5, Bytes::from_mb(4));
        let trace = TraceHandle::from_config(&TraceConfig::enabled());
        sw.set_trace(trace.clone());
        // In-order arrivals: no NACK.
        for seq in [0, MTU_PAYLOAD] {
            let r = sw.receive(
                SimTime::ZERO,
                lossy_rdma_pkt(seq),
                PortId::new(0),
                PortId::new(1),
            );
            assert!(r.admitted());
            assert!(r.nack.is_none());
        }
        // Segment 2 lost upstream: segment 3 arrives, exposing the gap.
        let r = sw.receive(
            SimTime::ZERO,
            lossy_rdma_pkt(3 * MTU_PAYLOAD),
            PortId::new(0),
            PortId::new(1),
        );
        let nack = r.nack.expect("gap must be NACKed");
        assert_eq!(nack.class, TrafficClass::LossyRdma);
        // Addressed receiver→sender so normal routing carries it back.
        assert_eq!(nack.src, NodeId::new(101));
        assert_eq!(nack.dst, NodeId::new(100));
        assert_eq!(
            (nack.kind, nack.seq, nack.ack),
            (PacketKind::Nack, 2 * MTU_PAYLOAD, 0)
        );
        // The same episode does not re-NACK on the next in-order packet,
        // and a retransmission filling the hole does not NACK either.
        let r = sw.receive(
            SimTime::ZERO,
            lossy_rdma_pkt(4 * MTU_PAYLOAD),
            PortId::new(0),
            PortId::new(1),
        );
        assert!(r.nack.is_none());
        let r = sw.receive(
            SimTime::ZERO,
            lossy_rdma_pkt(2 * MTU_PAYLOAD),
            PortId::new(0),
            PortId::new(1),
        );
        assert!(r.nack.is_none(), "retransmission below high-water");
        assert_eq!(trace.with(|r| r.totals()).unwrap().irn_nacks, 1);
    }

    #[test]
    fn lossy_rdma_drops_refine_lossy_counters_without_pfc() {
        let mut sw = small_switch(0.125, Bytes::new(10_000));
        let mut dropped = 0;
        for i in 0..10 {
            let r = sw.receive(
                SimTime::ZERO,
                lossy_rdma_pkt(i * MTU_PAYLOAD),
                PortId::new(0),
                PortId::new(1),
            );
            assert!(r.pfc.is_none(), "lossy RDMA must never pause");
            if !r.admitted() {
                dropped += 1;
            }
        }
        assert!(dropped > 0, "overflow must drop lossy RDMA");
        assert_eq!(sw.pfc_counters().pause_frames(), 0);
        assert_eq!(sw.drop_counters().lossy_rdma_packets, dropped);
        assert_eq!(
            sw.drop_counters().lossy_packets,
            dropped,
            "lossy-RDMA drops also count in the lossy total"
        );
        assert_eq!(sw.drop_counters().lossless_packets, 0);
    }

    #[test]
    fn conservation_through_mixed_traffic() {
        let mut sw = small_switch(0.5, Bytes::from_mb(4));
        let mut t = SimTime::ZERO;
        let mut in_flight_ports: Vec<PortId> = Vec::new();
        for i in 0..50 {
            let out = PortId::new((i % 3 + 1) as u16);
            let pkt = if i % 2 == 0 {
                lossless_pkt(i)
            } else {
                lossy_pkt(i)
            };
            let r = sw.receive(t, pkt, PortId::new(0), out);
            if r.tx.is_some() {
                in_flight_ports.push(out);
            }
            t += SimDuration::from_nanos(50);
        }
        sw.mmu().check_conservation().unwrap();
        // Drain every port to empty.
        while let Some(port) = in_flight_ports.pop() {
            t += SimDuration::from_nanos(400);
            let done = sw.tx_complete(t, port);
            if done.next.is_some() {
                in_flight_ports.push(port);
            }
            sw.mmu().check_conservation().unwrap();
        }
        assert_eq!(sw.occupancy(), Bytes::ZERO);
    }
}
