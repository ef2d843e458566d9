//! End hosts: a PFC-reactive NIC per host, and the flows whose transport
//! endpoints run on them.
//!
//! A NIC schedules like a switch port (eight priority FIFOs,
//! round-robin, one packet in flight: the switch crate's
//! [`PriorityFifos`]) but has no buffer limits — host memory is not the
//! bottleneck the paper studies. What it queues is a 16-byte
//! [`SendRecord`] per packet, not the packet: the flow, one number
//! (`seq`, or the cumulative ack), a run length and a kind. The NIC
//! builds the packet from its flow's fixed wire shape
//! ([`FlowState::data`], [`FlowState::ack`], [`FlowState::cnp`]) when it
//! starts it, so it sends the packet the transport emitted, bit for bit.
//! A record extends into a run when a transport pushes the data segment
//! that continues it, so a DCTCP window released at once costs one
//! record. The one packet a record cannot describe, an IRN receiver's
//! NACK, waits whole in a side table. Every NIC of a world queues into
//! the one [`Sends`] that [`Hosts`] owns. A NIC honours PFC pause frames
//! from its ToR per priority, which is how switch-side back-pressure
//! reaches DCQCN/DCTCP senders.

use dcn_metrics::{FctRecord, IrnCounters};
use dcn_net::{
    FlowId, NodeId, NodeKind, Packet, PacketKind, PfcFrame, PortId, Priority, TrafficClass,
};
use dcn_sim::{BitRate, Bytes, SimDuration, SimTime, TraceEvent, TraceHandle};
use dcn_switch::{ChunkPool, PriorityFifos, TxStart};
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

/// What a NIC queues for one packet, or for a run of data segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendRecord {
    /// Data: the `seq` of the run's head. ACK: the cumulative ack.
    /// Whole: the packet's slot in [`Sends::whole`]. CNP: zero.
    value: u64,
    /// The flow's index in [`Hosts`]'s flow table.
    flow: u32,
    /// Data segments queued behind the head, each one MSS further on.
    run: u16,
    kind: SendKind,
}

/// Which packet a [`SendRecord`] stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SendKind {
    Data,
    Ack,
    /// An ACK with ECN-echo set.
    AckEce,
    Cnp,
    /// A packet stored whole.
    Whole,
}

impl SendRecord {
    /// Folds `next` into this record's run if it is the data segment the
    /// run sends next (same flow, `seq` one MSS past the run's last) and
    /// the run has room; reports whether it did.
    #[inline]
    fn extend(&mut self, next: &SendRecord, mss: u64) -> bool {
        let joins = self.kind == SendKind::Data
            && next.kind == SendKind::Data
            && next.flow == self.flow
            && self.run < u16::MAX
            && next.value == self.value + (u64::from(self.run) + 1) * mss;
        self.run += u16::from(joins);
        joins
    }

    /// Moves a run on to its next segment once its head has been
    /// started; reports whether the record stays queued.
    #[inline]
    fn advance(&mut self, mss: u64) -> bool {
        if self.run == 0 {
            return false;
        }
        self.value += mss;
        self.run -= 1;
        true
    }
}

/// What every NIC of a world queues into: the record pool and the
/// packets kept whole.
#[derive(Debug, Default)]
pub(crate) struct Sends {
    pool: ChunkPool<SendRecord>,
    /// Queued packets no record can describe; a slot is free while
    /// listed in `vacant`.
    whole: Vec<Packet>,
    vacant: Vec<u32>,
}

impl Sends {
    /// The record of `packet`, which `flows[flow]` emitted.
    fn record(&mut self, flows: &[FlowState], flow: usize, packet: &Packet) -> SendRecord {
        let (kind, value) = match packet.kind {
            PacketKind::Data => (SendKind::Data, packet.seq),
            PacketKind::Ack { ecn_echo: false } => (SendKind::Ack, packet.ack),
            PacketKind::Ack { ecn_echo: true } => (SendKind::AckEce, packet.ack),
            PacketKind::Cnp => (SendKind::Cnp, 0),
            PacketKind::Nack => (SendKind::Whole, self.keep(*packet)),
        };
        let flow = u32::try_from(flow).expect("flow count fits u32");
        let rec = SendRecord {
            value,
            flow,
            run: 0,
            kind,
        };
        debug_assert_eq!(
            self.packet(flows, &rec),
            *packet,
            "a record rebuilds its packet"
        );
        rec
    }

    /// Stores `packet` whole and returns its slot.
    fn keep(&mut self, packet: Packet) -> u64 {
        match self.vacant.pop() {
            Some(slot) => {
                self.whole[slot as usize] = packet;
                u64::from(slot)
            }
            None => {
                self.whole.push(packet);
                self.whole.len() as u64 - 1
            }
        }
    }

    /// The packet `rec` stands for (the head of a run).
    fn packet(&self, flows: &[FlowState], rec: &SendRecord) -> Packet {
        let flow = &flows[rec.flow as usize];
        match rec.kind {
            SendKind::Data => flow.data(rec.value),
            SendKind::Ack => flow.ack(rec.value, false),
            SendKind::AckEce => flow.ack(rec.value, true),
            SendKind::Cnp => flow.cnp(),
            SendKind::Whole => self.whole[rec.value as usize],
        }
    }

    /// The packet a dequeued `rec` stands for, freeing its whole slot.
    fn take(&mut self, flows: &[FlowState], rec: &SendRecord) -> Packet {
        let packet = self.packet(flows, rec);
        if rec.kind == SendKind::Whole {
            self.vacant
                .push(u32::try_from(rec.value).expect("a slot of `whole`"));
        }
        packet
    }
}

/// One end host's transmit path.
#[derive(Debug)]
pub(crate) struct Host {
    fifos: PriorityFifos,
    busy: bool,
    paused: [bool; Priority::COUNT],
    link_rate: BitRate,
}

impl Host {
    /// Creates a host whose single NIC port runs at `link_rate`.
    pub fn new(link_rate: BitRate) -> Host {
        Host {
            fifos: PriorityFifos::default(),
            busy: false,
            paused: [false; Priority::COUNT],
            link_rate,
        }
    }

    /// Applies a PFC pause/resume for one priority.
    pub fn set_paused(&mut self, priority: Priority, paused: bool) {
        self.paused[priority.index()] = paused;
    }

    /// Queues `packet`, which `flows[flow]` emitted, as a record in
    /// `sends`: as part of the tail record's run when it is the data
    /// segment that run sends next.
    pub fn enqueue(&mut self, sends: &mut Sends, flows: &[FlowState], flow: usize, packet: Packet) {
        let rec = sends.record(flows, flow, &packet);
        let mss = u64::from(flows[flow].mss);
        let tail = self.fifos.back_mut(&mut sends.pool, packet.priority);
        if !tail.is_some_and(|tail| tail.extend(&rec, mss)) {
            self.fifos.push(&mut sends.pool, packet.priority, rec);
        }
    }

    /// Starts the next transmission if the NIC is idle and an unpaused
    /// priority has a packet, building the packet from its record.
    /// Mirrors the switch's [`TxStart`] protocol.
    pub fn try_start(&mut self, sends: &mut Sends, flows: &[FlowState]) -> Option<TxStart> {
        if self.busy {
            return None;
        }
        let paused = self.paused;
        let rec = self.fifos.serve(
            &mut sends.pool,
            |p| paused[p.index()],
            |head: &mut SendRecord| head.advance(u64::from(flows[head.flow as usize].mss)),
        )?;
        let packet = sends.take(flows, &rec);
        self.busy = true;
        Some(TxStart {
            port: PortId::new(0),
            packet,
            serialize: self.link_rate.tx_time(packet.size()),
        })
    }

    /// Completes the in-flight transmission.
    ///
    /// # Panics
    ///
    /// Panics if nothing was in flight.
    pub(crate) fn finish_tx(&mut self) {
        assert!(self.busy, "tx_complete with idle NIC");
        self.busy = false;
    }
}

/// Every host this world simulates, and every registered flow.
#[derive(Debug)]
pub(crate) struct Hosts {
    /// Indexed by `NodeId::index()`; `None` for switches and for hosts
    /// another shard owns.
    nics: Vec<Option<Host>>,
    /// What every NIC in `nics` queues.
    sends: Sends,
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
            sends: Sends::default(),
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
        let (runtime, wire_class, mss, header) = match spec.class {
            TrafficClass::Lossy => (
                FlowRuntime::Tcp {
                    sender: DctcpSender::new(self.dctcp, id, src, dst, prio, size),
                    receiver: DctcpReceiver::new(id, dst, src, prio, size),
                },
                TrafficClass::Lossy,
                self.dctcp.mss,
                self.dctcp.header,
            ),
            TrafficClass::Lossless if self.rdma_transport == RdmaTransport::Dcqcn => {
                let rate = wires.topo.link_at(src, PortId::new(0)).rate;
                let rdma = FlowRuntime::Rdma {
                    sender: DcqcnSender::new(self.dcqcn, id, src, dst, prio, size, rate),
                    receiver: DcqcnReceiver::new(id, dst, src, prio, size),
                };
                let lossless = TrafficClass::Lossless;
                (rdma, lossless, self.dcqcn.mtu, self.dcqcn.header)
            }
            TrafficClass::Lossless | TrafficClass::LossyRdma => {
                self.irn.flows += 1;
                let irn = FlowRuntime::Irn {
                    sender: IrnSender::new(self.irn_cfg, id, src, dst, prio, size),
                    receiver: IrnReceiver::new(id, dst, src, prio, size),
                };
                let lossy_rdma = TrafficClass::LossyRdma;
                (irn, lossy_rdma, self.irn_cfg.mtu, self.irn_cfg.header)
            }
        };
        let ix = self.flows.len();
        let ideal = ideal_fct(&spec, mss, header, wires);
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
            mss: u16::try_from(mss).expect("a segment fits one frame"),
            header: u16::try_from(header).expect("a header fits one frame"),
            wire_class,
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
        if let Some(tx) = nic.try_start(&mut self.sends, &self.flows) {
            wires.schedule_host_tx(now, host, tx, q);
        }
    }

    /// Hands `p`, which flow `ix` emitted, to `host`'s NIC.
    fn inject(
        &mut self,
        now: SimTime,
        host: NodeId,
        ix: usize,
        p: Packet,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        let nic = self.nics[host.index()].as_mut().expect("not a host");
        nic.enqueue(&mut self.sends, &self.flows, ix, p);
        self.start(now, host, wires, q);
    }

    /// Injects every packet of `outs`, which flow `ix` emitted, in
    /// order, then puts the emptied buffer back as the scratch.
    fn inject_all(
        &mut self,
        now: SimTime,
        host: NodeId,
        ix: usize,
        mut outs: Vec<Packet>,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        for p in outs.drain(..) {
            self.inject(now, host, ix, p, wires, q);
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
        self.inject_all(now, spec.src, ix, burst, wires, q);
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
        self.inject_all(now, host, ix, outs, wires, q);
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
            self.inject(now, src, ix, p, wires, q);
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
        self.inject_all(now, src, ix, outs, wires, q);
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
    use dcn_net::Topology;
    use dcn_sim::SimRng;
    use std::collections::VecDeque;

    /// The default DCTCP segment.
    const MSS: u64 = 1_000;

    fn two_hosts() -> Topology {
        Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1))
    }

    /// Flow `id` of `size` bytes from host 0 to host 1.
    fn spec(id: u64, class: TrafficClass, prio: u8, size: u64) -> FlowSpec {
        FlowSpec {
            id: FlowId::new(id),
            src: NodeId::new(0),
            dst: NodeId::new(1),
            size: Bytes::new(size),
            start: SimTime::ZERO,
            class,
            priority: Priority::new(prio),
        }
    }

    /// The flow table of a two-host world whose flow `f` is a DCTCP
    /// flow at priority `flows[f].0` of `flows[f].1` bytes.
    fn dctcp_flows(flows: &[(u8, u64)]) -> Vec<FlowState> {
        let cfg = FabricConfig::default();
        let wires = Wires::new(two_hosts(), &cfg, None);
        let mut hosts = Hosts::new(&wires, &cfg);
        for (f, &(prio, size)) in flows.iter().enumerate() {
            hosts.register_flow(spec(f as u64, TrafficClass::Lossy, prio, size), &wires);
        }
        hosts.flows
    }

    fn nic() -> Host {
        Host::new(BitRate::from_gbps(25))
    }

    #[test]
    fn sends_in_order_when_unpaused() {
        let flows = dctcp_flows(&[(3, 10 * MSS)]);
        let (mut sends, mut h) = (Sends::default(), nic());
        h.enqueue(&mut sends, &flows, 0, flows[0].data(0));
        h.enqueue(&mut sends, &flows, 0, flows[0].data(MSS));
        let t0 = h.try_start(&mut sends, &flows).expect("idle NIC starts");
        assert_eq!(t0.packet, flows[0].data(0));
        assert_eq!(t0.serialize.as_nanos(), 336);
        assert!(h.try_start(&mut sends, &flows).is_none(), "busy");
        h.finish_tx();
        let t1 = h.try_start(&mut sends, &flows).expect("next starts");
        assert_eq!(t1.packet.seq, MSS);
        h.finish_tx();
        assert!(h.try_start(&mut sends, &flows).is_none());
    }

    #[test]
    fn pause_blocks_only_that_priority() {
        let flows = dctcp_flows(&[(3, 10 * MSS), (1, 10 * MSS)]);
        let (mut sends, mut h) = (Sends::default(), nic());
        h.set_paused(Priority::new(3), true);
        h.enqueue(&mut sends, &flows, 0, flows[0].data(0));
        h.enqueue(&mut sends, &flows, 1, flows[1].data(0));
        let t = h
            .try_start(&mut sends, &flows)
            .expect("lossy priority unaffected");
        assert_eq!(t.packet.priority, Priority::new(1));
        // Priority 3 stays queued.
        h.finish_tx();
        assert!(
            h.try_start(&mut sends, &flows).is_none(),
            "only paused traffic remains"
        );
        h.set_paused(Priority::new(3), false);
        let t = h.try_start(&mut sends, &flows).expect("resume releases it");
        assert_eq!(t.packet, flows[0].data(0));
    }

    #[test]
    fn nics_share_one_pool_in_their_own_order() {
        let flows = dctcp_flows(&[(3, 10 * MSS), (3, 10 * MSS)]);
        let mut sends = Sends::default();
        let mut hosts = [nic(), nic()];
        // Interleave two NICs' ACKs (which never join a run) so their
        // chunks alternate in the pool.
        for cum in 0..100 {
            let f = (cum % 2) as usize;
            hosts[f].enqueue(&mut sends, &flows, f, flows[f].ack(cum, cum % 3 == 0));
        }
        for (i, h) in hosts.iter_mut().enumerate() {
            let mut sent = Vec::new();
            while let Some(t) = h.try_start(&mut sends, &flows) {
                sent.push(t.packet.ack);
                h.finish_tx();
            }
            let want: Vec<u64> = (0..100).filter(|s| s % 2 == i as u64).collect();
            assert_eq!(sent, want, "NIC {i}");
        }
    }

    /// A NIC record is what a queued packet costs, and the fields it is
    /// rebuilt from fit the flow's padding; growing either is a
    /// deliberate edit of these bounds (DESIGN.md §3.5).
    #[test]
    fn send_records_stay_small() {
        assert!(std::mem::size_of::<SendRecord>() <= 16);
        assert!(std::mem::size_of::<FlowState>() <= 360);
    }

    /// The NIC written the slow way: one `VecDeque` of whole packets per
    /// priority, served round-robin.
    #[derive(Default)]
    struct Model {
        queues: [VecDeque<Packet>; Priority::COUNT],
        rr_next: usize,
    }

    impl Model {
        fn start_next(&mut self, paused: u8) -> Option<Packet> {
            let ix = (0..Priority::COUNT)
                .map(|off| (self.rr_next + off) % Priority::COUNT)
                .find(|&ix| !self.queues[ix].is_empty() && paused & (1 << ix) == 0)?;
            self.rr_next = (ix + 1) % Priority::COUNT;
            self.queues[ix].pop_front()
        }
    }

    /// Serves `nic` and `model` under `paused` until both stop, for at
    /// most `limit` packets, checking every packet.
    fn serve(
        (nic, sends, flows): (&mut Host, &mut Sends, &[FlowState]),
        model: &mut Model,
        paused: u8,
        limit: u64,
    ) {
        for p in 0..Priority::COUNT {
            nic.set_paused(Priority::new(p as u8), paused & (1 << p) != 0);
        }
        for n in 0..limit {
            let got = nic.try_start(sends, flows).map(|tx| tx.packet);
            assert_eq!(got, model.start_next(paused), "served packet {n}");
            if got.is_none() {
                return;
            }
            nic.finish_tx();
        }
    }

    /// NIC traffic through records against the one-packet-per-entry
    /// `Model`: windows of 1–3 flows on two priorities, interleaved or
    /// not, short last segments, ACKs with and without ECE, CNPs and
    /// NACKs, re-sent old segments, and packets that differ in one field
    /// from the one the tail's run sends next. Every service returns what
    /// the model does, a near miss never joins a run, and the NIC ends
    /// empty with every whole-packet slot free.
    #[test]
    fn nic_runs_are_invisible_to_the_scheduler() {
        let (mut coalesced, mut mutants) = (0u32, 0u32);
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0x4E1C_0000 + case);
            let n = 1 + rng.below(3) as usize;
            let prio: Vec<u8> = (0..n).map(|_| [1, 3][rng.below(2) as usize]).collect();
            let size: Vec<u64> = (0..n).map(|_| 200 * MSS + 1 + rng.below(MSS - 1)).collect();
            let flows = dctcp_flows(
                &prio
                    .iter()
                    .copied()
                    .zip(size.iter().copied())
                    .collect::<Vec<_>>(),
            );
            let (mut sends, mut nic, mut model) = (Sends::default(), nic(), Model::default());
            let mut next_seq = vec![0u64; n];
            for step in 0..80 + rng.below(80) {
                let ctx = format!("case {case} step {step}");
                let mut push = |nic: &mut Host, sends: &mut Sends, f: usize, p: Packet| {
                    let before = nic.fifos.len();
                    nic.enqueue(sends, &flows, f, p);
                    model.queues[p.priority.index()].push_back(p);
                    let joined = nic.fifos.len() == before;
                    coalesced += u32::from(joined);
                    joined
                };
                let f = rng.below(n as u64) as usize;
                match rng.below(10) {
                    // A window: one flow's, or two flows' packet by packet,
                    // starting a flow over after its short last segment.
                    0..=3 => {
                        let g = if rng.below(3) == 0 {
                            rng.below(n as u64) as usize
                        } else {
                            f
                        };
                        for i in 0..1 + rng.below(80) {
                            let h = if i % 2 == 0 { f } else { g };
                            let p = flows[h].data(next_seq[h]);
                            push(&mut nic, &mut sends, h, p);
                            next_seq[h] = (p.seq + p.payload().as_u64()) % size[h];
                        }
                    }
                    // Feedback: an ACK, an ECE ACK, a CNP or a NACK, twice.
                    4 => {
                        let p = match rng.below(4) {
                            0 => flows[f].ack(next_seq[f], false),
                            1 => flows[f].ack(next_seq[f], true),
                            2 => flows[f].cnp(),
                            _ => {
                                let (id, a, b) =
                                    (FlowId::new(f as u64), NodeId::new(1), NodeId::new(0));
                                Packet::nack(
                                    id,
                                    a,
                                    b,
                                    Priority::new(prio[f]),
                                    next_seq[f],
                                    next_seq[f] / 2,
                                )
                            }
                        };
                        for _ in 0..2 {
                            assert!(!push(&mut nic, &mut sends, f, p), "{ctx}: feedback joined");
                        }
                    }
                    // A re-sent window from an old `seq`.
                    5 => {
                        let mut seq = rng.below(next_seq[f] / MSS + 1) * MSS;
                        for _ in 0..1 + rng.below(4) {
                            if seq < size[f] {
                                push(&mut nic, &mut sends, f, flows[f].data(seq));
                            }
                            seq += MSS;
                        }
                    }
                    // A near miss of the segment the tail's run sends next:
                    // another flow at that `seq`, one byte off, one segment
                    // too far, or an ACK of that `seq`.
                    6 => {
                        let p = Priority::new(prio[f]);
                        let Some(tail) = nic.fifos.back_mut(&mut sends.pool, p).copied() else {
                            continue;
                        };
                        let t = tail.flow as usize;
                        let next = tail.value + (u64::from(tail.run) + 1) * MSS;
                        if tail.kind != SendKind::Data || next + MSS >= size[t] {
                            continue;
                        }
                        let other = (0..n).find(|&o| o != t && prio[o] == prio[t]);
                        let (h, p) = match (rng.below(5), other) {
                            (0, Some(o)) => (o, flows[o].data(next)),
                            (1, _) => (t, flows[t].data(next + 1)),
                            (2, _) => (t, flows[t].data(next - 1)),
                            (3, _) => (t, flows[t].data(next + MSS)),
                            _ => (t, flows[t].ack(next, false)),
                        };
                        assert!(
                            !push(&mut nic, &mut sends, h, p),
                            "{ctx}: {p:?} joined {tail:?}"
                        );
                        mutants += 1;
                    }
                    // Serve for a while under a random pause mask.
                    _ => {
                        let paused = if rng.below(3) == 0 {
                            rng.below(256) as u8
                        } else {
                            0
                        };
                        let limit = rng.below(150);
                        serve((&mut nic, &mut sends, &flows), &mut model, paused, limit);
                    }
                }
            }
            serve((&mut nic, &mut sends, &flows), &mut model, 0, u64::MAX);
            assert!(nic.fifos.is_empty(), "case {case}: NIC drained");
            assert_eq!(
                sends.vacant.len(),
                sends.whole.len(),
                "case {case}: whole slots"
            );
        }
        // The battery must exercise what it is a test of.
        assert!(coalesced >= 50_000, "{coalesced} pushes joined a run");
        assert!(mutants >= 300, "{mutants} near misses pushed");
    }

    /// A window of one flow is one record, and a run stops at `u16::MAX`
    /// segments behind its head.
    #[test]
    fn a_run_takes_one_entry_up_to_its_limit() {
        let flows = dctcp_flows(&[(3, 70_000 * MSS)]);
        let (mut sends, mut nic) = (Sends::default(), nic());
        for n in [64, 65_537] {
            for i in 0..n {
                nic.enqueue(&mut sends, &flows, 0, flows[0].data(i * MSS));
            }
            assert_eq!(nic.fifos.len(), if n == 64 { 1 } else { 2 }, "{n} segments");
            let mut want = 0;
            while let Some(tx) = nic.try_start(&mut sends, &flows) {
                assert_eq!(tx.packet, flows[0].data(want * MSS));
                nic.finish_tx();
                want += 1;
            }
            assert_eq!(want, n);
            assert!(nic.fifos.is_empty());
        }
    }

    /// What the round-trip battery has checked, by kind of packet.
    #[derive(Debug, Default)]
    struct Seen {
        first: u32,
        middle: u32,
        short_last: u32,
        resent: u32,
        ack: u32,
        ack_ece: u32,
        cnp: u32,
        nack: u32,
    }

    /// Records `p`, which `flows[ix]` emitted, checks that the record
    /// rebuilds it bit for bit, and files it in `seen`. `sent` is where
    /// the flow's data has reached so far.
    fn round_trip(
        (sends, flows): (&mut Sends, &[FlowState]),
        ix: usize,
        p: &Packet,
        sent: &mut u64,
        seen: &mut Seen,
    ) {
        let rec = sends.record(flows, ix, p);
        assert_eq!(sends.take(flows, &rec), *p, "{rec:?}");
        match p.kind {
            PacketKind::Data => {
                let end = p.seq + p.payload().as_u64();
                seen.resent += u32::from(end <= *sent);
                *sent = (*sent).max(end);
                match () {
                    _ if p.seq == 0 => seen.first += 1,
                    _ if p.payload().as_u64() < u64::from(flows[ix].mss) => seen.short_last += 1,
                    _ => seen.middle += 1,
                }
            }
            PacketKind::Ack { ecn_echo: false } => seen.ack += 1,
            PacketKind::Ack { ecn_echo: true } => seen.ack_ece += 1,
            PacketKind::Cnp => seen.cnp += 1,
            PacketKind::Nack => seen.nack += 1,
        }
    }

    /// One step of a flow's exchange: the receiver takes the next data
    /// packet unless it is `lost` on a lossy path; else the sender takes the next
    /// feedback; else a DCQCN sender paces its next packet and a window
    /// sender times out. What either end emits goes to `out`. Returns
    /// whether the flow is done.
    fn step(
        runtime: &mut FlowRuntime,
        (now, ce, lost): (SimTime, bool, bool),
        (to_rx, to_tx): (&mut VecDeque<Packet>, &mut VecDeque<Packet>),
        out: &mut Vec<Packet>,
    ) -> bool {
        if let Some(d) = to_rx.pop_front() {
            match runtime {
                // The lossless class loses nothing.
                FlowRuntime::Tcp { .. } | FlowRuntime::Irn { .. } if lost => {}
                FlowRuntime::Tcp { receiver, .. } => {
                    out.push(receiver.on_data(now, d.seq, d.payload(), ce))
                }
                FlowRuntime::Irn { receiver, .. } => {
                    out.push(receiver.on_data(now, d.seq, d.payload(), ce))
                }
                FlowRuntime::Rdma { receiver, .. } => {
                    out.extend(receiver.on_data(now, d.payload(), ce))
                }
            }
            return false;
        }
        if let Some(fb) = to_tx.pop_front() {
            match (runtime, fb.kind) {
                (FlowRuntime::Tcp { sender, .. }, PacketKind::Ack { ecn_echo }) => {
                    sender.on_ack(now, fb.ack, ecn_echo, out);
                }
                (FlowRuntime::Irn { sender, .. }, PacketKind::Nack) => {
                    sender.on_nack(now, fb.seq, fb.ack, out);
                }
                (FlowRuntime::Irn { sender, .. }, _) => {
                    sender.on_ack(now, fb.ack, out);
                }
                (FlowRuntime::Rdma { sender, .. }, _) => {
                    sender.on_cnp(now);
                }
                (_, kind) => panic!("a DCTCP sender got {kind:?}"),
            }
            return false;
        }
        match runtime {
            FlowRuntime::Rdma { sender, receiver } => match sender.emit_next(now) {
                Some(p) => out.push(p),
                None => return receiver.finished_at().is_some(),
            },
            FlowRuntime::Tcp { sender, .. } if !sender.is_completed() => {
                sender.on_timeout(now, out);
            }
            FlowRuntime::Irn { sender, .. } if !sender.is_completed() => {
                sender.on_timeout(now, out);
            }
            _ => return true,
        }
        false
    }

    /// Runs flow `ix` to completion between its two endpoints over a
    /// path that marks one data packet in three and, unless lossless,
    /// loses one in ten,
    /// putting every packet either end emits through [`round_trip`].
    fn exchange(hosts: &mut Hosts, ix: usize, rng: &mut SimRng, seen: &mut Seen) {
        let (mut sent, mut now, mut out) = (0, SimTime::ZERO, Vec::new());
        let (mut to_rx, mut to_tx) = (VecDeque::new(), VecDeque::new());
        match &mut hosts.flows[ix].runtime {
            FlowRuntime::Tcp { sender, .. } => sender.take_ready(now, &mut out),
            FlowRuntime::Irn { sender, .. } => sender.take_ready(now, &mut out),
            FlowRuntime::Rdma { .. } => {}
        }
        for _ in 0..100_000 {
            for p in out.drain(..) {
                round_trip((&mut hosts.sends, &hosts.flows), ix, &p, &mut sent, seen);
                if p.is_data() { &mut to_rx } else { &mut to_tx }.push_back(p);
            }
            now += SimDuration::from_micros(5);
            let (ce, lost) = (rng.below(3) == 0, rng.below(10) == 0);
            let runtime = &mut hosts.flows[ix].runtime;
            if step(runtime, (now, ce, lost), (&mut to_rx, &mut to_tx), &mut out) {
                return;
            }
        }
        panic!("flow {ix} did not finish");
    }

    /// Every packet DCTCP, DCQCN and IRN hand a NIC comes back from its
    /// record bit for bit: first, middle and short last segments,
    /// retransmissions after a loss, ACKs with and without ECE, CNPs and
    /// receiver NACKs, for flows registered the way a run registers them
    /// under seeded segment and header sizes.
    #[test]
    fn every_transport_packet_rebuilds_from_its_record() {
        let mut seen = Seen::default();
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0x5E4D_0000 + case);
            let mut cfg = FabricConfig::default();
            cfg.dctcp.mss = 200 + rng.below(1_400);
            cfg.dctcp.header = Bytes::new(20 + rng.below(60));
            cfg.dcqcn.mtu = 200 + rng.below(4_000);
            cfg.dcqcn.header = Bytes::new(20 + rng.below(60));
            cfg.irn.mtu = 200 + rng.below(4_000);
            cfg.irn.header = Bytes::new(20 + rng.below(60));
            if case % 2 == 1 {
                cfg.rdma_transport = RdmaTransport::Irn;
            }
            let wires = Wires::new(two_hosts(), &cfg, None);
            let mut hosts = Hosts::new(&wires, &cfg);
            let classes = [
                (TrafficClass::Lossy, 1),
                (TrafficClass::Lossless, 3),
                (TrafficClass::LossyRdma, 3),
            ];
            for (id, (class, prio)) in classes.into_iter().enumerate() {
                let mss = match (class, cfg.rdma_transport) {
                    (TrafficClass::Lossy, _) => cfg.dctcp.mss,
                    (TrafficClass::Lossless, RdmaTransport::Dcqcn) => cfg.dcqcn.mtu,
                    _ => cfg.irn.mtu,
                };
                let segments = 1 + rng.below(30);
                let size = match rng.below(3) {
                    0 => 1 + rng.below(mss - 1),
                    1 => segments * mss,
                    _ => segments * mss + 1 + rng.below(mss - 1),
                };
                let ix = hosts.register_flow(spec(id as u64, class, prio, size), &wires);
                exchange(&mut hosts, ix, &mut rng, &mut seen);
            }
            assert_eq!(hosts.sends.vacant.len(), hosts.sends.whole.len());
        }
        // The battery must exercise what it is a test of.
        let Seen {
            first,
            middle,
            short_last,
            resent,
            ack,
            ack_ece,
            cnp,
            nack,
        } = seen;
        assert!(
            first >= 192 && middle >= 1_000 && short_last >= 30,
            "{seen:?}"
        );
        assert!(resent >= 50 && ack >= 500 && ack_ece >= 200, "{seen:?}");
        assert!(cnp >= 30 && nack >= 30, "{seen:?}");
    }
}
