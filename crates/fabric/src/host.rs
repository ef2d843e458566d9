//! End hosts: a PFC-reactive NIC per host, and the flows whose transport
//! endpoints run on them.
//!
//! The NIC reuses the switch crate's [`EgressPort`] (eight priority
//! FIFOs, round-robin, one packet in flight) but has no buffer limits —
//! host memory is not the bottleneck the paper studies. Every NIC of a
//! world queues into the one [`PacketPool`] [`Hosts`] owns, and queues a
//! transport's consecutive data segments as one run entry
//! ([`EgressPort::enqueue_run`]): a DCTCP window released at once costs
//! one 48-byte entry, not one per segment, and is sent exactly as before.
//! It honours PFC pause frames from its ToR per priority, which is how
//! switch-side back-pressure reaches DCQCN/DCTCP senders.

use dcn_metrics::{FctRecord, IrnCounters};
use dcn_net::{
    FlowId, NodeId, NodeKind, Packet, PacketKind, PfcFrame, PortId, Priority, TrafficClass,
};
use dcn_sim::{BitRate, Bytes, SimDuration, SimTime, TraceEvent, TraceHandle};
use dcn_switch::{Charge, EgressPort, PacketPool, QueuedPacket, TxStart};
use dcn_transport::{
    AckAction, DcqcnConfig, DcqcnReceiver, DcqcnSender, DctcpConfig, DctcpReceiver, DctcpSender,
    IrnConfig, IrnReceiver, IrnSender, RpTimerKind, TcpEvent,
};
use dcn_workload::FlowSpec;

use crate::config::{FabricConfig, RdmaTransport};
use crate::flows::{FlowRuntime, FlowState, FlowTable, FlowTimers};
use crate::results::RunResults;
use crate::wires::Wires;
use crate::world::{Event, Queue};

/// One end host's transmit path.
#[derive(Debug)]
pub(crate) struct Host {
    nic: EgressPort,
    paused: [bool; Priority::COUNT],
    link_rate: BitRate,
}

impl Host {
    /// Creates a host whose single NIC port runs at `link_rate`.
    pub fn new(link_rate: BitRate) -> Host {
        Host {
            nic: EgressPort::new(),
            paused: [false; Priority::COUNT],
            link_rate,
        }
    }

    /// Applies a PFC pause/resume for one priority.
    pub fn set_paused(&mut self, priority: Priority, paused: bool) {
        self.paused[priority.index()] = paused;
    }

    /// Queues a packet for transmission in `pool`, as part of the tail
    /// entry's run when it is the data segment that run sends next.
    pub fn enqueue(&mut self, pool: &mut PacketPool, packet: Packet) {
        let qp = QueuedPacket::new(packet, PortId::new(0), Charge::NONE);
        self.nic.enqueue_run(pool, qp);
    }

    /// Starts the next transmission if the NIC is idle and an unpaused
    /// priority has a packet. Mirrors the switch's [`TxStart`] protocol.
    pub fn try_start(&mut self, pool: &mut PacketPool) -> Option<TxStart> {
        let paused = self.paused;
        let packet = self.nic.start_next(pool, |p| paused[p.index()])?;
        let serialize = self.link_rate.tx_time(packet.size());
        Some(TxStart {
            port: PortId::new(0),
            packet,
            serialize,
        })
    }

    /// Completes the in-flight transmission.
    ///
    /// # Panics
    ///
    /// Panics if nothing was in flight.
    pub(crate) fn finish_tx(&mut self) {
        let _ = self.nic.finish_tx();
    }
}

/// Every host this world simulates, and every registered flow.
#[derive(Debug)]
pub(crate) struct Hosts {
    /// Indexed by `NodeId::index()`; `None` for switches and for hosts
    /// another shard owns.
    nics: Vec<Option<Host>>,
    /// The packets queued at every NIC in `nics`.
    pool: PacketPool,
    flows: Vec<FlowState>,
    flow_ix: FlowTable,
    /// FCT records in completion order.
    pub(crate) fct: Vec<FctRecord>,
    /// Completed flows this world counts.
    pub(crate) done_flows: usize,
    /// Reusable buffer for the packets a transport endpoint emits while
    /// handling one event. Taken (`std::mem::take`), drained, and put
    /// back by each handler, so the per-packet hot path never allocates.
    outs_scratch: Vec<Packet>,
    /// IRN transport counters (all zero in a DCQCN-only run).
    pub(crate) irn: IrnCounters,
    /// DCQCN senders found stranded (see [`Hosts::rdma_pace`]) — a
    /// liveness defect that must stay zero.
    rdma_stranded: u64,
    /// Liveness-watchdog stall episodes across all RDMA flows.
    flow_stalls: u64,
    dctcp: DctcpConfig,
    dcqcn: DcqcnConfig,
    irn_cfg: IrnConfig,
    rdma_transport: RdmaTransport,
    flow_watchdog: Option<SimDuration>,
    trace: TraceHandle,
}

impl Hosts {
    /// Builds the NICs of the hosts `wires` says this world owns.
    pub fn new(wires: &Wires, cfg: &FabricConfig) -> Hosts {
        let nics = wires
            .topo
            .nodes()
            .iter()
            .map(|node| {
                (node.kind == NodeKind::Host && wires.owns(node.id))
                    .then(|| Host::new(wires.topo.link_at(node.id, PortId::new(0)).rate))
            })
            .collect();
        Hosts {
            nics,
            pool: PacketPool::default(),
            flows: Vec::new(),
            flow_ix: FlowTable::new(),
            fct: Vec::new(),
            done_flows: 0,
            outs_scratch: Vec::new(),
            irn: IrnCounters::new(),
            rdma_stranded: 0,
            flow_stalls: 0,
            dctcp: cfg.dctcp,
            dcqcn: cfg.dcqcn,
            irn_cfg: cfg.irn,
            rdma_transport: cfg.rdma_transport,
            flow_watchdog: cfg.flow_watchdog,
            trace: wires.trace.clone(),
        }
    }

    /// Registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Makes room for `additional` more [`Hosts::register_flow`] calls.
    pub fn reserve_flows(&mut self, additional: usize) {
        self.flows.reserve(additional);
    }

    /// Builds a flow's transport endpoints and returns its index.
    pub fn register_flow(&mut self, spec: FlowSpec, wires: &Wires) -> usize {
        assert!(
            self.flow_ix.get(spec.id).is_none(),
            "duplicate flow id {}",
            spec.id
        );
        // The spec declares *what* the flow is; `rdma_transport` decides
        // *how* RDMA is carried. A `LossyRdma` spec class requests IRN
        // explicitly, regardless of the fabric default.
        let (id, src, dst, prio, size) = (spec.id, spec.src, spec.dst, spec.priority, spec.size);
        let (runtime, mtu, header) = match spec.class {
            TrafficClass::Lossy => (
                FlowRuntime::Tcp {
                    sender: DctcpSender::new(self.dctcp, id, src, dst, prio, size),
                    receiver: DctcpReceiver::new(id, dst, src, prio, size),
                },
                self.dctcp.mss,
                self.dctcp.header,
            ),
            TrafficClass::Lossless if self.rdma_transport == RdmaTransport::Dcqcn => {
                let rate = wires.topo.link_at(src, PortId::new(0)).rate;
                let rdma = FlowRuntime::Rdma {
                    sender: DcqcnSender::new(self.dcqcn, id, src, dst, prio, size, rate),
                    receiver: DcqcnReceiver::new(id, dst, src, prio, size),
                };
                (rdma, self.dcqcn.mtu, self.dcqcn.header)
            }
            TrafficClass::Lossless | TrafficClass::LossyRdma => {
                self.irn.flows += 1;
                let irn = FlowRuntime::Irn {
                    sender: IrnSender::new(self.irn_cfg, id, src, dst, prio, size),
                    receiver: IrnReceiver::new(id, dst, src, prio, size),
                };
                (irn, self.irn_cfg.mtu, self.irn_cfg.header)
            }
        };
        let ix = self.flows.len();
        let ideal = ideal_fct(&spec, mtu, header, wires);
        self.flow_ix.insert(spec.id, ix);
        self.flows.push(FlowState {
            spec,
            runtime,
            timers: FlowTimers::default(),
            recorded: false,
            counted: false,
            ideal,
            watchdog_progress: 0,
            stall_flagged: false,
        });
        ix
    }

    /// How many registered flows this world counts toward the global
    /// done total: those whose counting endpoint it owns (all of them
    /// for the serial engine).
    pub fn counting_flows(&self, wires: &Wires) -> usize {
        self.flows
            .iter()
            .filter(|f| wires.owns(f.counting_endpoint()))
            .count()
    }

    /// Settles flow `ix` after a delivery: emits its FCT record once the
    /// receiver holds the last byte, and counts it done once
    /// [`FlowState::is_done`] holds, in the one world that owns its
    /// counting endpoint.
    fn settle(&mut self, ix: usize, wires: &Wires) {
        let flow = &mut self.flows[ix];
        if !flow.recorded {
            if let Some(finish) = flow.finished_at() {
                let spec = flow.spec;
                self.fct.push(FctRecord {
                    flow: spec.id,
                    class: spec.class,
                    size: spec.size,
                    start: spec.start,
                    finish,
                    ideal: flow.ideal,
                });
                flow.recorded = true;
            }
        }
        if !flow.counted && flow.is_done() && wires.owns(flow.counting_endpoint()) {
            flow.counted = true;
            self.done_flows += 1;
        }
    }

    /// Starts `host`'s next transmission if its NIC is idle and an
    /// unpaused priority has a packet.
    fn start(&mut self, now: SimTime, host: NodeId, wires: &mut Wires, q: &mut Queue) {
        let nic = self.nics[host.index()].as_mut().expect("not a host");
        if let Some(tx) = nic.try_start(&mut self.pool) {
            wires.schedule_host_tx(now, host, tx, q);
        }
    }

    /// Hands `p` to `host`'s NIC.
    fn inject(&mut self, now: SimTime, host: NodeId, p: Packet, wires: &mut Wires, q: &mut Queue) {
        let nic = self.nics[host.index()].as_mut().expect("not a host");
        nic.enqueue(&mut self.pool, p);
        self.start(now, host, wires, q);
    }

    /// Injects every packet of `outs` in order, then puts the emptied
    /// buffer back as the scratch.
    fn inject_all(
        &mut self,
        now: SimTime,
        host: NodeId,
        mut outs: Vec<Packet>,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        for p in outs.drain(..) {
            self.inject(now, host, p, wires, q);
        }
        self.outs_scratch = outs;
    }

    /// A pre-registered flow starts sending.
    pub fn start_flow(&mut self, now: SimTime, ix: usize, wires: &mut Wires, q: &mut Queue) {
        let mut burst = std::mem::take(&mut self.outs_scratch);
        let flow = &mut self.flows[ix];
        let spec = flow.spec;
        // Window transports send what the window allows under an RTO;
        // DCQCN sends one packet and paces the rest.
        let rto = match &mut flow.runtime {
            FlowRuntime::Tcp { sender, .. } => {
                sender.take_ready(now, &mut burst);
                Some(sender.rto())
            }
            FlowRuntime::Irn { sender, .. } => {
                sender.take_ready(now, &mut burst);
                Some(sender.rto())
            }
            FlowRuntime::Rdma { sender, .. } => {
                if let Some(p) = sender.emit_next(now) {
                    let gap = sender.gap_for(p.size());
                    q.schedule_after(now, gap, Event::RdmaPace { flow: spec.id });
                    burst.push(p);
                }
                None
            }
        };
        if let Some(rto) = rto {
            flow.timers.rto = Some(q.schedule_timer_after(now, rto, Event::Rto { flow: spec.id }));
        }
        self.inject_all(now, spec.src, burst, wires, q);
        // Opt-in liveness watchdog covers RDMA flows of both universes
        // (DCQCN and IRN); DCTCP's own RTO machinery already guarantees
        // liveness for the lossy class. Serial runs only: the sharded
        // executor refuses it.
        let Some(interval) = self.flow_watchdog else {
            return;
        };
        if matches!(self.flows[ix].runtime, FlowRuntime::Tcp { .. }) {
            return;
        }
        self.flows[ix].timers.flow_watchdog =
            Some(q.schedule_timer_after(now, interval, Event::FlowWatchdog { flow: spec.id }));
    }

    /// A packet reaches its destination host's transport endpoint.
    pub fn receive(
        &mut self,
        now: SimTime,
        host: NodeId,
        packet: Packet,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        debug_assert_eq!(packet.dst, host, "misrouted packet");
        let Some(ix) = self.flow_ix.get(packet.flow) else {
            return; // stray packet from an unregistered flow
        };
        let mut outs = std::mem::take(&mut self.outs_scratch);
        // A window sender's verdict on its RTO, and the RTO to re-arm.
        let mut rto_action: Option<(AckAction, SimDuration)> = None;
        let mut arm_rp: Option<[(RpTimerKind, SimDuration); 2]> = None;
        let mut irn_watermark: Option<u64> = None;
        let t_flow = packet.flow.as_u64();

        match (&mut self.flows[ix].runtime, packet.kind) {
            (FlowRuntime::Tcp { receiver, .. }, PacketKind::Data) => {
                let ack = receiver.on_data(now, packet.seq, packet.payload(), packet.ecn.is_ce());
                outs.push(ack);
            }
            (FlowRuntime::Tcp { sender, .. }, PacketKind::Ack { ecn_echo }) => {
                let action = sender.on_ack(now, packet.ack, ecn_echo, &mut outs);
                if let Some(tr) = action.transition {
                    let ev = match tr {
                        TcpEvent::EnterRecovery { recover_seq } => TraceEvent::TcpEnterRecovery {
                            flow: t_flow,
                            recover_seq,
                        },
                        TcpEvent::PartialAckRetransmit { snd_una } => {
                            TraceEvent::TcpPartialAckRetransmit {
                                flow: t_flow,
                                snd_una,
                            }
                        }
                        TcpEvent::ExitRecovery => TraceEvent::TcpExitRecovery { flow: t_flow },
                    };
                    self.trace.record_with(now, || ev);
                }
                // `as` saturates: an unset (`f64::MAX`) ssthresh reads u64::MAX.
                self.trace.record_with(now, || TraceEvent::TcpCwnd {
                    flow: t_flow,
                    cwnd: sender.cwnd() as u64,
                    ssthresh: sender.ssthresh() as u64,
                    in_recovery: sender.in_recovery(),
                });
                rto_action = Some((action, sender.rto()));
            }
            (FlowRuntime::Rdma { receiver, .. }, PacketKind::Data) => {
                if let Some(cnp) = receiver.on_data(now, packet.payload(), packet.ecn.is_ce()) {
                    outs.push(cnp);
                }
            }
            (FlowRuntime::Irn { receiver, .. }, PacketKind::Data) => {
                let fb = receiver.on_data(now, packet.seq, packet.payload(), packet.ecn.is_ce());
                if fb.kind == PacketKind::Nack {
                    // A new gap at the receiver that no switch on the
                    // path spotted first (e.g. the loss was on the
                    // last hop).
                    self.irn.nacks_receiver += 1;
                    self.trace.record_with(now, || TraceEvent::IrnNack {
                        flow: t_flow,
                        nack_seq: fb.seq,
                        node: host.index() as u32,
                        from_switch: false,
                    });
                }
                outs.push(fb);
            }
            (FlowRuntime::Irn { sender, .. }, PacketKind::Ack { .. }) => {
                irn_watermark = Some(sender.snd_max());
                let action = sender.on_ack(now, packet.ack, &mut outs);
                rto_action = Some((action, sender.rto()));
            }
            (FlowRuntime::Irn { sender, .. }, PacketKind::Nack) => {
                irn_watermark = Some(sender.snd_max());
                let action = sender.on_nack(now, packet.seq, packet.ack, &mut outs);
                rto_action = Some((action, sender.rto()));
            }
            (FlowRuntime::Rdma { sender, .. }, PacketKind::Cnp) => {
                if sender.on_cnp(now) {
                    let cfg = sender.config();
                    arm_rp = Some([
                        (RpTimerKind::Alpha, cfg.alpha_timer),
                        (RpTimerKind::Rate, cfg.rate_timer),
                    ]);
                }
                self.trace.record_with(now, || TraceEvent::RdmaRate {
                    flow: t_flow,
                    rate_bps: sender.rate().as_bps(),
                });
            }
            // Cross-protocol packets (e.g. an ACK for an RDMA flow)
            // indicate a wiring bug or a corrupted delivery. Recorded
            // as a Defect and dropped rather than panicking, so one bad
            // packet cannot abort a whole sweep worker.
            _ => {
                self.trace.record_with(now, || TraceEvent::Defect {
                    what: "unexpected_packet_kind",
                    node: host.index() as u32,
                    flow: t_flow,
                });
                outs.clear();
                self.outs_scratch = outs;
                return;
            }
        }

        if let Some(watermark) = irn_watermark {
            self.count_irn_retransmits(now, &outs, watermark);
        }
        self.settle(ix, wires);

        let flow = packet.flow;
        let timers = &mut self.flows[ix].timers;
        if let Some((action, rto)) = rto_action {
            // A re-arm removes the old deadline from the wheel (no
            // tombstone left behind) and arms a fresh one; the last byte
            // ACKed only retires the outstanding deadline.
            if action.rearm_timer || action.completed {
                if let Some(h) = timers.rto.take() {
                    q.cancel_timer(h);
                }
            }
            if action.rearm_timer {
                timers.rto = Some(q.schedule_timer_after(now, rto, Event::Rto { flow }));
            }
        }
        if let Some(rp) = arm_rp {
            for (kind, _) in rp {
                if let Some(h) = timers.rp(kind).take() {
                    q.cancel_timer(h);
                }
            }
            for (kind, after) in rp {
                let ev = Event::RpTimer { flow, kind };
                *timers.rp(kind) = Some(q.schedule_timer_after(now, after, ev));
            }
        }
        self.inject_all(now, host, outs, wires, q);
    }

    /// Counts and traces the retransmissions in an IRN sender's output
    /// burst: any data packet at a sequence below the sender's pre-call
    /// `snd_max` re-covers previously sent bytes. Called with the burst
    /// produced by `on_ack`/`on_nack`/`on_timeout`, so every counted
    /// retransmission is causally downstream of a NACK or RTO event —
    /// the invariant the flight-recorder causality check verifies.
    fn count_irn_retransmits(&mut self, now: SimTime, outs: &[Packet], watermark: u64) {
        for p in outs {
            if p.is_data() && p.seq < watermark {
                self.irn.retransmitted_packets += 1;
                self.irn.retransmitted_bytes += p.payload().as_u64();
                self.trace.record_with(now, || TraceEvent::IrnRetransmit {
                    flow: p.flow.as_u64(),
                    seq: p.seq,
                });
            }
        }
    }

    /// A host NIC finished serializing: start the next packet.
    pub fn tx_complete(&mut self, now: SimTime, host: NodeId, wires: &mut Wires, q: &mut Queue) {
        self.nics[host.index()]
            .as_mut()
            .expect("not a host")
            .finish_tx();
        self.start(now, host, wires, q);
    }

    /// A DCQCN sender's pacing tick: emit the next packet.
    pub fn rdma_pace(&mut self, now: SimTime, flow: FlowId, wires: &mut Wires, q: &mut Queue) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        let src = self.flows[ix].spec.src;
        let FlowRuntime::Rdma { sender, .. } = &mut self.flows[ix].runtime else {
            return;
        };
        if let Some(p) = sender.emit_next(now) {
            let gap = sender.gap_for(p.size());
            q.schedule_after(now, gap, Event::RdmaPace { flow });
            self.inject(now, src, p, wires, q);
        } else {
            // Dropping the pacing chain is only legal once every payload
            // byte has been emitted (retransmission is not modelled for
            // the lossless class; CNPs only modulate the rate). A sender
            // with bytes still unsent and no future RdmaPace scheduled
            // would be silently stranded — flag it loudly so a future
            // sender change can't stall lossless flows undetected.
            let stranded = sender.has_more();
            debug_assert!(
                !stranded,
                "DCQCN sender of flow {flow} stranded at snd_nxt={} with no pacing event",
                sender.snd_nxt(),
            );
            if stranded {
                self.rdma_stranded += 1;
                self.trace.record_with(now, || TraceEvent::RdmaStranded {
                    flow: flow.as_u64(),
                    snd_nxt: sender.snd_nxt(),
                });
            }
        }
    }

    /// A DCTCP or IRN retransmission timer fired.
    pub fn rto(&mut self, now: SimTime, flow: FlowId, wires: &mut Wires, q: &mut Queue) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        let src = self.flows[ix].spec.src;
        // Firing consumed the wheel entry; the stored handle is dead.
        self.flows[ix].timers.rto = None;
        let mut outs = std::mem::take(&mut self.outs_scratch);
        // A wheel timer only fires while live, so every arrival here is
        // a real timeout; `fired` records exactly the RTOs that fired.
        let mut fired: Option<(SimDuration, u32)> = None;
        let mut irn_watermark: Option<u64> = None;
        match &mut self.flows[ix].runtime {
            FlowRuntime::Tcp { sender, .. } => {
                if sender.on_timeout(now, &mut outs).rearm_timer {
                    fired = Some((sender.rto(), sender.backoff()));
                }
            }
            FlowRuntime::Irn { sender, .. } => {
                irn_watermark = Some(sender.snd_max());
                if sender.on_timeout(now, &mut outs).rearm_timer {
                    fired = Some((sender.rto(), sender.backoff()));
                    self.irn.rto_fires += 1;
                }
            }
            FlowRuntime::Rdma { .. } => {}
        }
        if let Some((rto, backoff)) = fired {
            self.trace.record_with(now, || TraceEvent::RtoFire {
                flow: flow.as_u64(),
                backoff,
                next_rto_ns: rto.as_nanos(),
            });
            self.flows[ix].timers.rto = Some(q.schedule_timer_after(now, rto, Event::Rto { flow }));
        }
        if let Some(watermark) = irn_watermark {
            self.count_irn_retransmits(now, &outs, watermark);
        }
        self.inject_all(now, src, outs, wires, q);
    }

    /// Opt-in RDMA liveness watchdog: fires every `flow_watchdog`
    /// interval per unfinished RDMA flow, comparing receiver progress
    /// against the previous fire. A whole interval with zero new
    /// in-order bytes is one stall *episode* — counted once, and again
    /// only after progress resumes and stalls anew.
    pub fn flow_watchdog(&mut self, now: SimTime, flow: FlowId, q: &mut Queue) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        let f = &mut self.flows[ix];
        // Firing consumed the wheel entry; the stored handle is dead.
        f.timers.flow_watchdog = None;
        if f.is_done() {
            return;
        }
        let received = f.received();
        if received > f.watchdog_progress {
            f.watchdog_progress = received;
            f.stall_flagged = false;
        } else if !f.stall_flagged {
            f.stall_flagged = true;
            self.flow_stalls += 1;
            self.trace.record_with(now, || TraceEvent::FlowStalled {
                flow: flow.as_u64(),
                received,
            });
        }
        let interval = self.flow_watchdog.expect("watchdog fired while disabled");
        f.timers.flow_watchdog =
            Some(q.schedule_timer_after(now, interval, Event::FlowWatchdog { flow }));
    }

    /// A DCQCN reaction-point timer (α decay or rate increase) fired.
    pub fn rp_timer(&mut self, now: SimTime, flow: FlowId, kind: RpTimerKind, q: &mut Queue) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        let f = &mut self.flows[ix];
        // Firing consumed the wheel entry; the stored handle is dead.
        *f.timers.rp(kind) = None;
        let FlowRuntime::Rdma { sender, .. } = &mut f.runtime else {
            return;
        };
        if sender.on_timer(kind) {
            let period = match kind {
                RpTimerKind::Alpha => sender.config().alpha_timer,
                RpTimerKind::Rate => sender.config().rate_timer,
            };
            *f.timers.rp(kind) =
                Some(q.schedule_timer_after(now, period, Event::RpTimer { flow, kind }));
        }
    }

    /// Applies a PFC frame from the ToR to a host NIC. Hosts have no
    /// storm watchdog — their ToR protects them.
    pub fn pfc(
        &mut self,
        now: SimTime,
        host: NodeId,
        frame: PfcFrame,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        let nic = self.nics[host.index()].as_mut().expect("not a host");
        nic.set_paused(frame.priority, frame.pause);
        if !frame.pause {
            self.start(now, host, wires, q);
        }
    }

    /// The host's uplink came back: renegotiation clears every pause
    /// (they can only have come from this uplink).
    pub fn port_up(&mut self, now: SimTime, host: NodeId, wires: &mut Wires, q: &mut Queue) {
        let nic = self.nics[host.index()].as_mut().expect("not a host");
        nic.paused = [false; Priority::COUNT];
        self.start(now, host, wires, q);
    }

    /// Folds the liveness diagnostics and IRN counters into `r`.
    pub fn fold_into(&self, r: &mut RunResults) {
        r.irn.merge(&self.irn);
        r.rdma_stranded += self.rdma_stranded;
        r.flow_stalls += self.flow_stalls;
    }
}

/// Ideal FCT on an empty network for a flow cut into `mtu`-byte
/// payloads with `header` bytes each: pipeline fill (per-hop
/// propagation plus first-packet serialization) plus draining the
/// remaining bytes at the bottleneck link. Evaluated at registration
/// time, while every route is healthy; panicking here on a disconnected
/// endpoint is a configuration error, not a runtime fault.
fn ideal_fct(spec: &FlowSpec, mtu: u64, header: Bytes, wires: &Wires) -> SimDuration {
    let n_pkts = spec.size.div_ceil_by(Bytes::new(mtu));
    let total_wire = spec.size + header * n_pkts;
    let first_wire = Bytes::new(spec.size.as_u64().min(mtu)) + header;

    let mut node = spec.src;
    let mut fill = SimDuration::ZERO;
    let mut bottleneck = BitRate::from_gbps(100_000);
    let mut hops = 0;
    while node != spec.dst {
        let port = wires
            .routes
            .next_port(node, spec.dst, spec.id)
            .expect("flow endpoints must be connected");
        let wire = wires.topo.wire(node, port);
        let rate = wires.topo.link(wire.link).rate;
        fill += wire.propagation + rate.tx_time(first_wire);
        bottleneck = bottleneck.min(rate);
        node = wire.peer.node;
        hops += 1;
        assert!(hops <= 64, "routing loop computing ideal FCT");
    }
    fill + bottleneck.tx_time(total_wire.saturating_sub(first_wire))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(prio: u8, seq: u64) -> Packet {
        Packet::data(
            FlowId::new(1),
            NodeId::new(0),
            NodeId::new(1),
            Priority::new(prio),
            TrafficClass::Lossless,
            seq,
            Bytes::new(1_000),
            Bytes::new(48),
        )
    }

    #[test]
    fn sends_in_order_when_unpaused() {
        let (mut pool, mut h) = (PacketPool::default(), Host::new(BitRate::from_gbps(25)));
        h.enqueue(&mut pool, pkt(3, 0));
        h.enqueue(&mut pool, pkt(3, 1));
        let t0 = h.try_start(&mut pool).expect("idle NIC starts");
        assert_eq!(t0.packet.seq, 0);
        assert_eq!(t0.serialize.as_nanos(), 336);
        assert!(h.try_start(&mut pool).is_none(), "busy");
        h.finish_tx();
        let t1 = h.try_start(&mut pool).expect("next starts");
        assert_eq!(t1.packet.seq, 1);
        h.finish_tx();
        assert!(h.try_start(&mut pool).is_none());
    }

    #[test]
    fn pause_blocks_only_that_priority() {
        let (mut pool, mut h) = (PacketPool::default(), Host::new(BitRate::from_gbps(25)));
        h.set_paused(Priority::new(3), true);
        h.enqueue(&mut pool, pkt(3, 0));
        h.enqueue(&mut pool, pkt(1, 1));
        let t = h.try_start(&mut pool).expect("lossy priority unaffected");
        assert_eq!(t.packet.priority, Priority::new(1));
        // Priority 3 stays queued.
        h.finish_tx();
        assert!(
            h.try_start(&mut pool).is_none(),
            "only paused traffic remains"
        );
        h.set_paused(Priority::new(3), false);
        let t = h.try_start(&mut pool).expect("resume releases it");
        assert_eq!(t.packet.seq, 0);
    }

    #[test]
    fn nics_share_one_pool_in_their_own_order() {
        let mut pool = PacketPool::default();
        let mut hosts: Vec<Host> = (0..2).map(|_| Host::new(BitRate::from_gbps(25))).collect();
        // Interleave two NICs' windows so their chunks alternate in the pool.
        for seq in 0..100 {
            hosts[(seq % 2) as usize].enqueue(&mut pool, pkt(3, seq));
        }
        for (i, h) in hosts.iter_mut().enumerate() {
            let mut sent = Vec::new();
            while let Some(t) = h.try_start(&mut pool) {
                sent.push(t.packet.seq);
                h.finish_tx();
            }
            let want: Vec<u64> = (0..100).filter(|s| s % 2 == i as u64).collect();
            assert_eq!(sent, want, "NIC {i}");
        }
    }
}
