//! End hosts: a PFC-reactive NIC per host, and the flows whose transport
//! endpoints run on them. A NIC takes what a sender's `poll` yields at
//! flow start, after feedback or an RTO, and at each DCQCN pacing slot
//! (an `RdmaPace` event armed where `poll` answers `At`), and the
//! [`Feedback`] a receiver answers each data packet with.
//!
//! Endpoints yield numbers, not packets. A NIC schedules like a switch
//! port (eight priority FIFOs, round-robin, one packet in flight: the
//! switch crate's [`PriorityFifos`]) but has no buffer limits — host
//! memory is not the bottleneck the paper studies. What it queues is a
//! 16-byte [`SendRecord`] per packet: the flow, one number (`seq`, or
//! the cumulative ack), a run length and a kind. When the NIC starts a
//! record it builds the packet from its flow's fixed wire shape
//! ([`FlowState::data`], [`FlowState::ack`], [`FlowState::cnp`],
//! [`FlowState::nack`]), the only place a flow's packets are made. A
//! record extends into a run when a sender polls the data segment that
//! continues it, so a DCTCP window released at once costs one record.
//! An IRN receiver's NACK carries a second number, so its two wait in a
//! side table. Every NIC of a world queues into the one [`Sends`] that
//! [`Hosts`] owns. A NIC honours PFC pause frames from its ToR per
//! priority, which is how switch-side back-pressure reaches DCQCN/DCTCP
//! senders.

use dcn_metrics::{FctRecord, IrnCounters};
use dcn_net::{
    FlowId, NodeId, NodeKind, Packet, PacketKind, PfcFrame, PortId, Priority, TrafficClass,
};
use dcn_sim::{BitRate, Bytes, SimDuration, SimTime, TraceEvent, TraceHandle};
use dcn_switch::{ChunkPool, PriorityFifos, TxStart};
use dcn_transport::{
    DcqcnConfig, DcqcnReceiver, DcqcnSender, DctcpConfig, DctcpReceiver, DctcpSender, Feedback,
    IrnConfig, IrnReceiver, IrnSender, Poll, RpTimerKind,
};
use dcn_workload::FlowSpec;

use crate::config::{FabricConfig, RdmaTransport};
use crate::flows::{FlowRuntime, FlowState, FlowTable, FlowTimers, Reaction};
use crate::results::RunResults;
use crate::wires::Wires;
use crate::world::{Event, Queue};

/// What a NIC queues for one packet, or for a run of data segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendRecord {
    /// Data: the `seq` of the run's head. ACK: the cumulative ack.
    /// NACK: its slot in [`Sends::nacks`]. CNP: zero.
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
    /// An IRN receiver's NACK, its numbers kept in [`Sends::nacks`].
    Nack,
}

impl SendRecord {
    /// The record of `flow`'s data segment at `seq`.
    fn data(flow: usize, seq: u64) -> SendRecord {
        SendRecord::new(flow, SendKind::Data, seq)
    }

    fn new(flow: usize, kind: SendKind, value: u64) -> SendRecord {
        let flow = u32::try_from(flow).expect("flow count fits u32");
        SendRecord {
            value,
            flow,
            run: 0,
            kind,
        }
    }

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
/// numbers of queued NACKs.
#[derive(Debug, Default)]
pub(crate) struct Sends {
    pool: ChunkPool<SendRecord>,
    /// Each queued NACK's gap start and cumulative ack; a slot is free
    /// while listed in `vacant`.
    nacks: Vec<[u64; 2]>,
    vacant: Vec<u32>,
}

impl Sends {
    /// The record of `flow`'s receiver feedback `fb`.
    fn feedback(&mut self, flow: usize, fb: Feedback) -> SendRecord {
        let (kind, value) = match fb {
            Feedback::Ack {
                cumulative,
                ecn_echo: false,
            } => (SendKind::Ack, cumulative),
            Feedback::Ack {
                cumulative,
                ecn_echo: true,
            } => (SendKind::AckEce, cumulative),
            Feedback::Cnp => (SendKind::Cnp, 0),
            Feedback::Nack { seq, cumulative } => (SendKind::Nack, self.keep([seq, cumulative])),
        };
        SendRecord::new(flow, kind, value)
    }

    /// Stores a NACK's numbers and returns their slot.
    fn keep(&mut self, nack: [u64; 2]) -> u64 {
        match self.vacant.pop() {
            Some(slot) => {
                self.nacks[slot as usize] = nack;
                u64::from(slot)
            }
            None => {
                self.nacks.push(nack);
                self.nacks.len() as u64 - 1
            }
        }
    }

    /// The packet a dequeued `rec` stands for (the head of a run),
    /// freeing a NACK's slot.
    fn take(&mut self, flows: &[FlowState], rec: &SendRecord) -> Packet {
        let flow = &flows[rec.flow as usize];
        match rec.kind {
            SendKind::Data => flow.data(rec.value),
            SendKind::Ack => flow.ack(rec.value, false),
            SendKind::AckEce => flow.ack(rec.value, true),
            SendKind::Cnp => flow.cnp(),
            SendKind::Nack => {
                let slot = u32::try_from(rec.value).expect("a slot of `nacks`");
                self.vacant.push(slot);
                let [seq, cumulative] = self.nacks[slot as usize];
                flow.nack(seq, cumulative)
            }
        }
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

    /// Queues `rec` in `sends` at its flow's priority: as part of the
    /// tail record's run when it is the data segment that run sends
    /// next.
    pub fn enqueue(&mut self, sends: &mut Sends, flows: &[FlowState], rec: SendRecord) {
        let flow = &flows[rec.flow as usize];
        let (mss, priority) = (u64::from(flow.mss), flow.spec.priority);
        let tail = self.fifos.back_mut(&mut sends.pool, priority);
        if !tail.is_some_and(|tail| tail.extend(&rec, mss)) {
            self.fifos.push(&mut sends.pool, priority, rec);
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
                    receiver: DctcpReceiver::new(size),
                },
                TrafficClass::Lossy,
                self.dctcp.mss,
                self.dctcp.header,
            ),
            TrafficClass::Lossless if self.rdma_transport == RdmaTransport::Dcqcn => {
                let rate = wires.topo.link_at(src, PortId::new(0)).rate;
                let rdma = FlowRuntime::Rdma {
                    sender: DcqcnSender::new(self.dcqcn, id, src, dst, prio, size, rate),
                    receiver: DcqcnReceiver::new(size),
                };
                let lossless = TrafficClass::Lossless;
                (rdma, lossless, self.dcqcn.mtu, self.dcqcn.header)
            }
            TrafficClass::Lossless | TrafficClass::LossyRdma => {
                self.irn.flows += 1;
                let irn = FlowRuntime::Irn {
                    sender: IrnSender::new(self.irn_cfg, size),
                    receiver: IrnReceiver::new(size),
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
            if let Some(finish) = flow.runtime.progress().1 {
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

    /// Queues at its host's NIC what flow `ix`'s sender has ready at
    /// `now`, counting IRN resends (data below the sender's high-water
    /// mark), and wakes a paced sender at its slot; returns its last
    /// answer. Callers arm timers before they start the NIC: schedule
    /// order is in every digest.
    fn send(&mut self, now: SimTime, ix: usize, q: &mut Queue) -> Poll {
        let (flow, host) = (self.flows[ix].spec.id, self.flows[ix].spec.src);
        loop {
            let runtime = &mut self.flows[ix].runtime;
            let mark = match runtime {
                FlowRuntime::Irn { sender, .. } => sender.snd_max(),
                _ => 0,
            };
            let seg = match runtime.poll(now) {
                Poll::Ready(seg) => seg,
                Poll::At(slot) => {
                    q.schedule_at(slot, Event::RdmaPace { flow });
                    return Poll::At(slot);
                }
                Poll::Idle => return Poll::Idle,
            };
            if seg.seq < mark {
                self.irn.retransmitted_packets += 1;
                self.irn.retransmitted_bytes += seg.payload.as_u64();
                let (flow, seq) = (flow.as_u64(), seg.seq);
                self.trace
                    .record_with(now, || TraceEvent::IrnRetransmit { flow, seq });
            }
            let nic = self.nics[host.index()].as_mut().expect("not a host");
            nic.enqueue(&mut self.sends, &self.flows, SendRecord::data(ix, seg.seq));
        }
    }

    /// A pre-registered flow starts sending: a window sender under an
    /// RTO, a DCQCN sender one packet and then at its pacing slots.
    pub fn start_flow(&mut self, now: SimTime, ix: usize, wires: &mut Wires, q: &mut Queue) {
        let flow = &mut self.flows[ix];
        let spec = flow.spec;
        if let Some(window) = flow.runtime.window() {
            let rto = Event::Rto { flow: spec.id };
            flow.timers.rto = Some(q.schedule_timer_after(now, window.rto, rto));
        }
        self.send(now, ix, q);
        self.start(now, spec.src, wires, q);
        // Opt-in liveness watchdog covers RDMA flows of both universes
        // (DCQCN and IRN); DCTCP's own RTO machinery already guarantees
        // liveness for the lossy class. Serial runs only: the sharded
        // executor refuses it.
        let Some(interval) = self.flow_watchdog else {
            return;
        };
        if self.flows[ix].wire_class == TrafficClass::Lossy {
            return;
        }
        self.flows[ix].timers.flow_watchdog =
            Some(q.schedule_timer_after(now, interval, Event::FlowWatchdog { flow: spec.id }));
    }

    /// A packet reaches its destination host's transport endpoint: data
    /// goes to the receiver, whose feedback `host` sends back; feedback
    /// goes to the sender, whose host then sends what it has ready.
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
        let runtime = &mut self.flows[ix].runtime;
        let reaction = if packet.kind == PacketKind::Data {
            if let Some(fb) = runtime.on_data(now, &packet) {
                if let Feedback::Nack { seq, .. } = fb {
                    // A new gap at the receiver that no switch on the
                    // path spotted first (e.g. the loss was on the last
                    // hop).
                    self.irn.nacks_receiver += 1;
                    self.trace.record_with(now, || TraceEvent::IrnNack {
                        flow: packet.flow.as_u64(),
                        nack_seq: seq,
                        node: host.index() as u32,
                        from_switch: false,
                    });
                }
                let rec = self.sends.feedback(ix, fb);
                let nic = self.nics[host.index()].as_mut().expect("not a host");
                nic.enqueue(&mut self.sends, &self.flows, rec);
            }
            None
        } else {
            let Some(reaction) = runtime.feedback(now, &packet, &self.trace) else {
                // Cross-protocol packets (e.g. an ACK for an RDMA flow)
                // indicate a wiring bug or a corrupted delivery. Recorded
                // as a Defect and dropped rather than panicking, so one
                // bad packet cannot abort a whole sweep worker.
                self.trace.record_with(now, || TraceEvent::Defect {
                    what: "unexpected_packet_kind",
                    node: host.index() as u32,
                    flow: packet.flow.as_u64(),
                });
                return;
            };
            // A window sender sends what its feedback released; a paced
            // one waits for its slot.
            if let Reaction::Rto(_) = reaction {
                self.send(now, ix, q);
            }
            Some(reaction)
        };
        self.settle(ix, wires);

        let flow = packet.flow;
        let FlowState {
            runtime, timers, ..
        } = &mut self.flows[ix];
        match reaction {
            Some(Reaction::Rto(action)) => {
                // A re-arm removes the old deadline from the wheel (no
                // tombstone left behind) and arms a fresh one; the last
                // byte ACKed only retires the outstanding deadline.
                if action.rearm_timer || action.completed {
                    if let Some(h) = timers.rto.take() {
                        q.cancel_timer(h);
                    }
                }
                if action.rearm_timer {
                    let rto = runtime.window().expect("a window sender").rto;
                    timers.rto = Some(q.schedule_timer_after(now, rto, Event::Rto { flow }));
                }
            }
            Some(Reaction::RateCut) => {
                let rp = [
                    (RpTimerKind::Alpha, self.dcqcn.alpha_timer),
                    (RpTimerKind::Rate, self.dcqcn.rate_timer),
                ];
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
            _ => {}
        }
        self.start(now, host, wires, q);
    }

    /// A host NIC finished serializing: start the next packet.
    pub fn tx_complete(&mut self, now: SimTime, host: NodeId, wires: &mut Wires, q: &mut Queue) {
        self.nics[host.index()]
            .as_mut()
            .expect("not a host")
            .finish_tx();
        self.start(now, host, wires, q);
    }

    /// A DCQCN sender's pacing slot: send the next packet.
    pub fn rdma_pace(&mut self, now: SimTime, flow: FlowId, wires: &mut Wires, q: &mut Queue) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        // A paced sender answers `Idle` once every byte has left (the
        // lossless class never retransmits). One with bytes unsent and no
        // pacing slot is stranded: flag it loudly, so no sender change
        // can stall lossless flows undetected.
        let idle = self.send(now, ix, q) == Poll::Idle;
        if let (true, FlowRuntime::Rdma { sender, .. }) = (idle, &self.flows[ix].runtime) {
            let snd_nxt = sender.snd_nxt();
            debug_assert!(!sender.has_more(), "flow {flow} stranded at {snd_nxt}");
            if sender.has_more() {
                self.rdma_stranded += 1;
                let flow = flow.as_u64();
                let ev = TraceEvent::RdmaStranded { flow, snd_nxt };
                self.trace.record_with(now, || ev);
            }
        }
        self.start(now, self.flows[ix].spec.src, wires, q);
    }

    /// A DCTCP or IRN retransmission timer fired: go back N.
    pub fn rto(&mut self, now: SimTime, flow: FlowId, wires: &mut Wires, q: &mut Queue) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        let f = &mut self.flows[ix];
        let src = f.spec.src;
        // Firing consumed the wheel entry; the stored handle is dead.
        f.timers.rto = None;
        // A wheel timer only fires while live, so every arrival here is
        // a real timeout; a re-arm records exactly the RTOs that fired.
        let Some(action) = f.runtime.on_timeout(now) else {
            return;
        };
        let window = f.runtime.window().expect("a window sender timed out");
        if action.rearm_timer {
            if f.wire_class == TrafficClass::LossyRdma {
                self.irn.rto_fires += 1;
            }
            self.trace.record_with(now, || TraceEvent::RtoFire {
                flow: flow.as_u64(),
                backoff: window.backoff,
                next_rto_ns: window.rto.as_nanos(),
            });
            f.timers.rto = Some(q.schedule_timer_after(now, window.rto, Event::Rto { flow }));
        }
        self.send(now, ix, q);
        self.start(now, src, wires, q);
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
        let received = f.runtime.progress().0;
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
                RpTimerKind::Alpha => self.dcqcn.alpha_timer,
                RpTimerKind::Rate => self.dcqcn.rate_timer,
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
    use dcn_net::{Topology, NACK_SIZE};
    use dcn_sim::SimRng;
    use dcn_transport::Segment;
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
        h.enqueue(&mut sends, &flows, SendRecord::data(0, 0));
        h.enqueue(&mut sends, &flows, SendRecord::data(0, MSS));
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
        h.enqueue(&mut sends, &flows, SendRecord::data(0, 0));
        h.enqueue(&mut sends, &flows, SendRecord::data(1, 0));
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
            let ack = Feedback::Ack {
                cumulative: cum,
                ecn_echo: cum % 3 == 0,
            };
            let rec = sends.feedback(f, ack);
            hosts[f].enqueue(&mut sends, &flows, rec);
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
        assert!(std::mem::size_of::<FlowState>() <= 320);
    }

    /// What an endpoint of a flow hands its host's NIC.
    #[derive(Debug, Clone, Copy)]
    enum Item {
        /// A sender's data segment.
        Data(Segment),
        /// A receiver's feedback.
        Feedback(Feedback),
    }

    /// Queues `item`, which an endpoint of `flows[f]` yielded, at `nic`;
    /// reports whether it joined the tail's run.
    fn push(nic: &mut Host, sends: &mut Sends, flows: &[FlowState], f: usize, item: Item) -> bool {
        let rec = match item {
            Item::Data(seg) => SendRecord::data(f, seg.seq),
            Item::Feedback(fb) => sends.feedback(f, fb),
        };
        let before = nic.fifos.len();
        nic.enqueue(sends, flows, rec);
        nic.fifos.len() == before
    }

    /// The data segment of `flow` at `seq`, cut as its sender cuts it.
    fn segment(flow: &FlowState, seq: u64) -> Item {
        let payload = u64::from(flow.mss).min(flow.spec.size.as_u64() - seq);
        Item::Data(Segment {
            seq,
            payload: Bytes::new(payload),
        })
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

        /// Queues the packet `item` stands for, built by `flow`.
        fn push(&mut self, flow: &FlowState, item: Item) {
            let p = match item {
                Item::Data(seg) => flow.data(seg.seq),
                Item::Feedback(Feedback::Ack {
                    cumulative,
                    ecn_echo,
                }) => flow.ack(cumulative, ecn_echo),
                Item::Feedback(Feedback::Cnp) => flow.cnp(),
                Item::Feedback(Feedback::Nack { seq, cumulative }) => flow.nack(seq, cumulative),
            };
            self.queues[p.priority.index()].push_back(p);
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
    /// NACKs, re-sent old segments, and segments that differ from the
    /// one the tail's run sends next. Every service returns what the
    /// model does, a near miss never joins a run, and the NIC ends empty
    /// with every NACK slot free.
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
                let mut push = |nic: &mut Host, sends: &mut Sends, f: usize, item: Item| {
                    model.push(&flows[f], item);
                    let joined = push(nic, sends, &flows, f, item);
                    coalesced += u32::from(joined);
                    joined
                };
                let f = rng.below(n as u64) as usize;
                match rng.below(10) {
                    // A window: one flow's, or two flows' segment by
                    // segment, starting a flow over after its short last
                    // segment.
                    0..=3 => {
                        let g = if rng.below(3) == 0 {
                            rng.below(n as u64) as usize
                        } else {
                            f
                        };
                        for i in 0..1 + rng.below(80) {
                            let h = if i % 2 == 0 { f } else { g };
                            let item = segment(&flows[h], next_seq[h]);
                            push(&mut nic, &mut sends, h, item);
                            let Item::Data(seg) = item else {
                                unreachable!()
                            };
                            next_seq[h] = (seg.seq + seg.payload.as_u64()) % size[h];
                        }
                    }
                    // Feedback: an ACK, an ECE ACK, a CNP or a NACK, twice.
                    4 => {
                        let cumulative = next_seq[f];
                        let fb = match rng.below(4) {
                            0 => Feedback::Ack {
                                cumulative,
                                ecn_echo: false,
                            },
                            1 => Feedback::Ack {
                                cumulative,
                                ecn_echo: true,
                            },
                            2 => Feedback::Cnp,
                            _ => Feedback::Nack {
                                seq: cumulative,
                                cumulative: cumulative / 2,
                            },
                        };
                        for _ in 0..2 {
                            let joined = push(&mut nic, &mut sends, f, Item::Feedback(fb));
                            assert!(!joined, "{ctx}: feedback joined");
                        }
                    }
                    // A re-sent window from an old `seq`.
                    5 => {
                        let mut seq = rng.below(next_seq[f] / MSS + 1) * MSS;
                        for _ in 0..1 + rng.below(4) {
                            if seq < size[f] {
                                push(&mut nic, &mut sends, f, segment(&flows[f], seq));
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
                        let (h, item) = match (rng.below(5), other) {
                            (0, Some(o)) => (o, segment(&flows[o], next)),
                            (1, _) => (t, segment(&flows[t], next + 1)),
                            (2, _) => (t, segment(&flows[t], next - 1)),
                            (3, _) => (t, segment(&flows[t], next + MSS)),
                            _ => {
                                let ack = Feedback::Ack {
                                    cumulative: next,
                                    ecn_echo: false,
                                };
                                (t, Item::Feedback(ack))
                            }
                        };
                        assert!(
                            !push(&mut nic, &mut sends, h, item),
                            "{ctx}: {item:?} joined {tail:?}"
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
                sends.nacks.len(),
                "case {case}: NACK slots"
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
                nic.enqueue(&mut sends, &flows, SendRecord::data(0, i * MSS));
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

    /// A world of two hosts under `cfg` with one flow of `spec`.
    fn one_flow(cfg: &FabricConfig, spec: FlowSpec) -> Hosts {
        let wires = Wires::new(two_hosts(), cfg, None);
        let mut hosts = Hosts::new(&wires, cfg);
        hosts.register_flow(spec, &wires);
        hosts
    }

    /// A receiver's NACK goes from the receiver to the sender at the
    /// flow's priority in the lossy-RDMA class, header only, with the
    /// gap start in `seq` and the cumulative ack in `ack`; through a
    /// NIC, its slot is reused once sent.
    #[test]
    fn flow_state_builds_the_receivers_nack() {
        let cfg = FabricConfig::default();
        let mut hosts = one_flow(&cfg, spec(7, TrafficClass::LossyRdma, 3, 20 * MSS));
        let nack = hosts.flows[0].nack(4_000, 1_000);
        assert_eq!(
            (nack.kind, nack.seq, nack.ack),
            (PacketKind::Nack, 4_000, 1_000)
        );
        assert_eq!((nack.src, nack.dst), (NodeId::new(1), NodeId::new(0)));
        assert_eq!(
            (nack.flow, nack.priority),
            (FlowId::new(7), Priority::new(3))
        );
        assert_eq!(
            (nack.class, nack.size()),
            (TrafficClass::LossyRdma, NACK_SIZE)
        );
        let mut nic = nic();
        for (seq, cumulative) in [(4_000, 1_000), (9_000, 5_000)] {
            let rec = hosts.sends.feedback(0, Feedback::Nack { seq, cumulative });
            nic.enqueue(&mut hosts.sends, &hosts.flows, rec);
            let tx = nic
                .try_start(&mut hosts.sends, &hosts.flows)
                .expect("starts");
            assert_eq!(tx.packet, hosts.flows[0].nack(seq, cumulative));
            nic.finish_tx();
        }
        assert_eq!((hosts.sends.nacks.len(), hosts.sends.vacant.len()), (1, 1));
    }

    /// Under `RdmaTransport::Irn` a lossless spec runs IRN, and every
    /// packet of it rides the lossy-RDMA class at the spec's priority,
    /// cut by IRN's MTU and header.
    #[test]
    fn an_irn_flow_of_a_lossless_spec_rides_lossy_rdma() {
        let mut cfg = FabricConfig {
            rdma_transport: RdmaTransport::Irn,
            ..FabricConfig::default()
        };
        cfg.irn.mtu = 1_500;
        let hosts = one_flow(&cfg, spec(3, TrafficClass::Lossless, 3, 4 * MSS));
        let flow = &hosts.flows[0];
        assert!(matches!(flow.runtime, FlowRuntime::Irn { .. }));
        let data = flow.data(0);
        assert_eq!(data.payload(), Bytes::new(1_500));
        assert_eq!(data.size(), Bytes::new(1_500) + cfg.irn.header);
        for p in [data, flow.ack(1_500, true), flow.nack(1_500, 0)] {
            assert_eq!(
                (p.class, p.priority),
                (TrafficClass::LossyRdma, Priority::new(3))
            );
        }
        assert_eq!(hosts.irn.flows, 1);
    }

    /// What the battery has checked, by kind of packet.
    #[derive(Debug, Default)]
    struct Seen {
        first: u32,
        middle: u32,
        short_last: u32,
        /// Segments that joined a run in the NIC.
        in_run: u32,
        resent: u32,
        ack: u32,
        ack_ece: u32,
        cnp: u32,
        /// Receiver NACKs whose two numbers differ.
        nack: u32,
    }

    impl Seen {
        /// Files `p`, a packet of a flow whose segments are `mss` bytes
        /// and whose data has reached `sent` so far.
        fn file(&mut self, p: &Packet, mss: u64, sent: &mut u64) {
            match p.kind {
                PacketKind::Data => {
                    let end = p.seq + p.payload().as_u64();
                    self.resent += u32::from(end <= *sent);
                    *sent = (*sent).max(end);
                    match () {
                        _ if p.seq == 0 => self.first += 1,
                        _ if p.payload().as_u64() < mss => self.short_last += 1,
                        _ => self.middle += 1,
                    }
                }
                PacketKind::Ack { ecn_echo: false } => self.ack += 1,
                PacketKind::Ack { ecn_echo: true } => self.ack_ece += 1,
                PacketKind::Cnp => self.cnp += 1,
                PacketKind::Nack => self.nack += u32::from(p.seq != p.ack),
            }
        }
    }

    /// The packet `item` describes for a flow of `spec` under `cfg`,
    /// built from the wire format alone: the transport's class and
    /// header, the spec's endpoints and priority, and the endpoint's
    /// numbers.
    fn described(cfg: &FabricConfig, spec: &FlowSpec, item: Item) -> Packet {
        let (class, header) = match (spec.class, cfg.rdma_transport) {
            (TrafficClass::Lossy, _) => (TrafficClass::Lossy, cfg.dctcp.header),
            (TrafficClass::Lossless, RdmaTransport::Dcqcn) => {
                (TrafficClass::Lossless, cfg.dcqcn.header)
            }
            _ => (TrafficClass::LossyRdma, cfg.irn.header),
        };
        let FlowSpec {
            id,
            src,
            dst,
            priority: prio,
            ..
        } = *spec;
        match item {
            Item::Data(Segment { seq, payload }) => {
                Packet::data(id, src, dst, prio, class, seq, payload, header)
            }
            Item::Feedback(Feedback::Ack {
                cumulative,
                ecn_echo,
            }) => Packet::ack(id, dst, src, prio, class, cumulative, ecn_echo),
            Item::Feedback(Feedback::Cnp) => Packet::cnp(id, dst, src, prio),
            Item::Feedback(Feedback::Nack { seq, cumulative }) => {
                Packet::nack(id, dst, src, prio, seq, cumulative)
            }
        }
    }

    /// One step of a flow's exchange: the receiver takes the next data
    /// packet, `ce`-marked, unless it is `lost` on a lossy path; else
    /// the sender takes the next feedback, or times out if it is a
    /// window sender with bytes unacknowledged. Then whatever the sender
    /// has ready goes to `out`, as does the receiver's feedback. Returns
    /// whether the flow is done.
    fn step(
        flow: &mut FlowState,
        (now, ce, lost): (SimTime, bool, bool),
        (to_rx, to_tx): (&mut VecDeque<Packet>, &mut VecDeque<Packet>),
        out: &mut Vec<Item>,
    ) -> bool {
        let runtime = &mut flow.runtime;
        if let Some(mut d) = to_rx.pop_front() {
            // The lossless class loses nothing.
            if !lost || d.class == TrafficClass::Lossless {
                if ce {
                    d.mark_ce();
                }
                out.extend(runtime.on_data(now, &d).map(Item::Feedback));
            }
            return false;
        }
        if let Some(fb) = to_tx.pop_front() {
            let trace = TraceHandle::disabled();
            runtime
                .feedback(now, &fb, &trace)
                .expect("feedback its sender takes");
        } else if runtime.window().is_some_and(|w| !w.completed) {
            runtime.on_timeout(now);
        }
        let before = out.len();
        while let Poll::Ready(seg) = runtime.poll(now) {
            out.push(Item::Data(seg));
        }
        out.len() == before && flow.is_done()
    }

    /// Runs flow `ix` to completion between its two endpoints over a
    /// path that marks one data packet in three and, unless lossless,
    /// loses one in ten. What either endpoint yields queues at one NIC,
    /// which must start exactly the packets [`described`] by it, in
    /// order; those packets are what the other endpoint then takes.
    fn exchange(
        hosts: &mut Hosts,
        cfg: &FabricConfig,
        ix: usize,
        rng: &mut SimRng,
        seen: &mut Seen,
    ) {
        let (spec, mss) = (hosts.flows[ix].spec, u64::from(hosts.flows[ix].mss));
        let (mut sent, mut now, mut out) = (0, SimTime::ZERO, Vec::new());
        let (mut to_rx, mut to_tx, mut want) = (VecDeque::new(), VecDeque::new(), VecDeque::new());
        let mut nic = nic();
        while let Poll::Ready(seg) = hosts.flows[ix].runtime.poll(now) {
            out.push(Item::Data(seg));
        }
        for _ in 0..100_000 {
            for item in out.drain(..) {
                let joined = push(&mut nic, &mut hosts.sends, &hosts.flows, ix, item);
                seen.in_run += u32::from(joined);
                want.push_back(described(cfg, &spec, item));
            }
            while let Some(tx) = nic.try_start(&mut hosts.sends, &hosts.flows) {
                nic.finish_tx();
                let p = tx.packet;
                assert_eq!(Some(p), want.pop_front(), "flow {spec:?}");
                seen.file(&p, mss, &mut sent);
                if p.is_data() { &mut to_rx } else { &mut to_tx }.push_back(p);
            }
            assert!(want.is_empty(), "the NIC sent everything");
            now += SimDuration::from_micros(5);
            let (ce, lost) = (rng.below(3) == 0, rng.below(10) == 0);
            let flow = &mut hosts.flows[ix];
            if step(flow, (now, ce, lost), (&mut to_rx, &mut to_tx), &mut out) {
                return;
            }
        }
        panic!("flow {ix} did not finish");
    }

    /// Every packet a NIC starts for DCTCP, DCQCN and IRN is the one the
    /// endpoint's numbers describe: first, middle and short last
    /// segments, runs, retransmissions after a loss, ACKs with and
    /// without ECE, CNPs and both numbers of receiver NACKs, for flows
    /// registered the way a run registers them under seeded segment and
    /// header sizes.
    #[test]
    fn every_nic_packet_is_the_one_its_endpoint_yielded() {
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
                exchange(&mut hosts, &cfg, ix, &mut rng, &mut seen);
            }
            assert_eq!(hosts.sends.vacant.len(), hosts.sends.nacks.len());
        }
        // The battery must exercise what it is a test of.
        let Seen {
            first,
            middle,
            short_last,
            in_run,
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
        assert!(in_run >= 200 && resent >= 50, "{seen:?}");
        assert!(ack >= 500 && ack_ece >= 200, "{seen:?}");
        assert!(cnp >= 30 && nack >= 30, "{seen:?}");
    }
}
