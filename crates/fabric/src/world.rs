//! The event loop: dispatches deliveries, transmissions, PFC frames and
//! transport timers across every host and switch.
//!
//! The per-packet hot path performs no hashing: flow lookup goes through
//! the dense banked [`FlowTable`] and occupancy sampling through a
//! node-indexed `Vec` — see DESIGN.md §3.5.

use std::sync::Arc;

use dcn_metrics::{DropCounters, FctRecord, IrnCounters, OccupancySeries, PfcCounters};
use dcn_net::{
    FlowId, LinkId, NodeId, Packet, PacketKind, Partition, PfcFrame, PortId, Priority,
    RoutingTable, Topology, TrafficClass, Wire,
};
use dcn_sim::{
    run_while, BitRate, Bytes, EventQueue, FaultEvent, SimDuration, SimRng, SimTime, Simulation,
    Stamp, TimerHandle, TraceDropCause, TraceEvent, TraceHandle,
};
use dcn_switch::{PfcEmit, QueueIndex, SharedMemorySwitch, TxStart};
use dcn_transport::{
    DcqcnReceiver, DcqcnSender, DctcpReceiver, DctcpSender, IrnReceiver, IrnSender, RpTimerKind,
    TcpEvent,
};
use dcn_workload::FlowSpec;

use crate::config::{FabricConfig, RdmaTransport};
use crate::flows::{FlowRuntime, FlowState, FlowTable, FlowTimers};
use crate::host::Host;
use crate::results::RunResults;

/// Events dispatched through the fabric's queue.
#[derive(Debug)]
pub enum Event {
    /// A pre-registered flow starts sending.
    FlowStart {
        /// Index into the world's flow table.
        index: usize,
    },
    /// A packet finishes propagating to `node` on `in_port`.
    Deliver {
        /// Receiving node (host or switch).
        node: NodeId,
        /// Port the packet arrives on.
        in_port: PortId,
        /// The packet.
        packet: Packet,
    },
    /// A PFC frame reaches the upstream device.
    PfcDeliver {
        /// Receiving node.
        node: NodeId,
        /// Port the frame arrives on (the egress port it pauses).
        in_port: PortId,
        /// Pause or resume, per priority.
        frame: PfcFrame,
    },
    /// A switch finishes serializing a packet out of `port`.
    SwitchTxComplete {
        /// The switch.
        node: NodeId,
        /// The transmitting port.
        port: PortId,
    },
    /// A host NIC finishes serializing a packet.
    HostTxComplete {
        /// The host.
        host: NodeId,
    },
    /// A DCQCN sender's pacing tick: emit the next packet.
    RdmaPace {
        /// The flow.
        flow: FlowId,
    },
    /// A DCTCP or IRN retransmission timer. Armed on the timing wheel
    /// through a [`TimerHandle`]; a firing timer is live by
    /// construction because every re-arm cancels the previous deadline.
    Rto {
        /// The flow.
        flow: FlowId,
    },
    /// An RDMA-flow liveness-watchdog deadline (opt-in via
    /// [`crate::FabricConfig::flow_watchdog`]): compare the receiver's
    /// progress with the previous fire; no progress on an unfinished
    /// flow flags a stall episode.
    FlowWatchdog {
        /// The flow.
        flow: FlowId,
    },
    /// A DCQCN reaction-point timer (α decay or rate increase), armed
    /// on the timing wheel like [`Event::Rto`].
    RpTimer {
        /// The flow.
        flow: FlowId,
        /// Which timer.
        kind: RpTimerKind,
    },
    /// Periodic buffer-occupancy sampling tick.
    Sample,
    /// An injected fault fires (link state change, corruption window
    /// edge, or stuck PFC pause). Compiled from the configured
    /// [`dcn_sim::FaultSchedule`] at build time, so fault ordering obeys
    /// the same deterministic `(time, seq)` tie-break as every other
    /// event.
    Fault {
        /// The fault to apply.
        fault: FaultEvent,
    },
    /// A PFC storm-watchdog deadline: if the egress queue is still
    /// paused and still in the same pause episode, force-resume it.
    /// Also wheel-armed; deadlines are cancelled at every point where a
    /// fire is provably a no-op (resume, re-pause, port reset). The
    /// generation stamp stays as defence in depth: a deadline that
    /// survives to fire against a later episode degrades to exactly the
    /// legacy stale no-op.
    PfcWatchdog {
        /// The switch.
        node: NodeId,
        /// The paused egress port.
        port: PortId,
        /// The paused priority.
        prio: Priority,
        /// Pause-episode stamp; stale deadlines are no-ops.
        generation: u64,
    },
}

/// What a shard hands to a peer at a window barrier.
#[derive(Debug)]
pub(crate) enum HandoffPayload {
    /// A fully formed event (a cross-shard `Deliver` or `PfcDeliver`).
    Event(Event),
    /// Arm the flow-liveness watchdog in the destination's shard (the
    /// receiver state the watchdog measures lives there).
    WatchdogArm {
        /// The flow to watch.
        flow: FlowId,
    },
}

/// A stamped cross-shard message, generated during one window and
/// admitted by its destination shard at the next barrier. The stamp was
/// drawn in emission order at the source, so the destination dispatches
/// it at exactly the `(time, stamp)` key the serial engine would have
/// used.
#[derive(Debug)]
pub(crate) struct Handoff {
    /// Fire time (provably ≥ the next window's start).
    pub(crate) at: SimTime,
    /// Admission stamp carried verbatim across the shard boundary.
    pub(crate) stamp: Stamp,
    /// The message.
    pub(crate) payload: HandoffPayload,
}

/// Spatial-sharding context: which shard this world is, the global
/// node→shard map, and the cross-shard messages generated in the
/// current window, one batch per destination shard. `None` for the
/// serial engine.
#[derive(Debug)]
struct ShardCtx {
    part: Arc<Partition>,
    shard: u32,
    outbox: Vec<Vec<Handoff>>,
}

/// What the fault schedule has done to one link.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    /// Whether the link carries traffic.
    up: bool,
    /// Bit-error rate (0.0 = clean).
    ber: f64,
}

/// The complete simulated fabric.
#[derive(Debug)]
pub struct World {
    topo: Topology,
    routes: RoutingTable,
    cfg: FabricConfig,
    switches: Vec<Option<SharedMemorySwitch>>,
    hosts: Vec<Option<Host>>,
    flows: Vec<FlowState>,
    flow_ix: FlowTable,
    fct: Vec<FctRecord>,
    /// Per-switch occupancy series, indexed by `NodeId::index()` (empty
    /// for hosts and for switches never sampled).
    occupancy: Vec<OccupancySeries>,
    done_flows: usize,
    counted_done: Vec<bool>,
    trace: TraceHandle,
    /// Per-link fault state, indexed by `LinkId::index()`.
    link_state: Vec<LinkState>,
    /// Corruption-loss RNG streams, one per `(link, direction)` so each
    /// delivery direction draws from its own stream regardless of how
    /// the fabric is sharded (indexed `link.index() * 2 + dir`, where
    /// dir 0 receives at `link.a`). Only populated when the fault
    /// schedule contains a corruption window — zero-fault runs make no
    /// draws and allocate nothing.
    fault_rng: Vec<SimRng>,
    /// Packets lost on the wire (dead link or corruption) — charged to
    /// the fabric, not any switch's admission counters.
    wire_drops: DropCounters,
    /// Outstanding storm-watchdog deadlines, indexed
    /// `[NodeId::index()][QueueIndex::flat()]` (empty for hosts). Each
    /// slot holds the newest armed deadline's handle plus the
    /// pause-episode generation it was armed for.
    watchdog_timers: Vec<Vec<Option<(TimerHandle, u64)>>>,
    /// Reusable buffer for the packets a transport endpoint emits while
    /// handling one event. Taken (`std::mem::take`), drained, and put
    /// back by each handler, so the per-packet hot path never allocates.
    outs_scratch: Vec<Packet>,
    /// IRN transport counters (all zero in a DCQCN-only run).
    irn: IrnCounters,
    /// DCQCN senders found stranded (see [`World::handle_rdma_pace`]) —
    /// a liveness defect that must stay zero.
    rdma_stranded: u64,
    /// Liveness-watchdog stall episodes across all RDMA flows.
    flow_stalls: u64,
    /// Spatial-sharding context (`None` for the serial engine).
    shard: Option<ShardCtx>,
}

impl World {
    fn new(topo: Topology, cfg: FabricConfig) -> World {
        World::build(topo, cfg, None)
    }

    /// Builds one shard's slice of the fabric: routing, topology and
    /// link-fault state are replicated (they must mutate identically in
    /// every shard), while switches and hosts are constructed only for
    /// the nodes this shard owns.
    pub(crate) fn new_sharded(
        topo: Topology,
        cfg: FabricConfig,
        part: Arc<Partition>,
        shard: u32,
    ) -> World {
        World::build(
            topo,
            cfg,
            Some(ShardCtx {
                outbox: (0..part.shards()).map(|_| Vec::new()).collect(),
                part,
                shard,
            }),
        )
    }

    fn build(topo: Topology, cfg: FabricConfig, shard: Option<ShardCtx>) -> World {
        let routes = RoutingTable::shortest_paths(&topo);
        let n = topo.node_count();
        let trace = TraceHandle::from_config(&cfg.trace);
        let owned = |id: NodeId| {
            shard
                .as_ref()
                .is_none_or(|ctx| ctx.part.shard_of(id) == ctx.shard as usize)
        };
        let mut switches: Vec<Option<SharedMemorySwitch>> = (0..n).map(|_| None).collect();
        let mut hosts: Vec<Option<Host>> = (0..n).map(|_| None).collect();
        for node in topo.nodes() {
            if !owned(node.id) {
                continue;
            }
            match node.kind {
                dcn_net::NodeKind::Switch => {
                    let wires = topo.wires_of(node.id);
                    let rates: Vec<BitRate> =
                        wires.iter().map(|w| topo.link(w.link).rate).collect();
                    let mut sw = SharedMemorySwitch::new(
                        node.id,
                        cfg.switch.clone(),
                        rates,
                        cfg.policy.build(),
                        cfg.seed,
                    );
                    sw.set_trace(trace.clone());
                    // Size each port's headroom from its link: in-flight
                    // bytes over a pause round trip (2 × BDP) plus slack
                    // for the packets serializing at both ends when the
                    // XOFF lands. The configured value acts as a floor.
                    for (pix, w) in wires.iter().enumerate() {
                        let link = topo.link(w.link);
                        let bdp = link.rate.bytes_over(link.propagation);
                        let auto = bdp * 2 + cfg.switch.mtu * 4;
                        let cap = auto.max(cfg.switch.headroom_per_queue);
                        sw.set_port_headroom(PortId::new(pix as u16), cap);
                    }
                    switches[node.id.index()] = Some(sw);
                }
                dcn_net::NodeKind::Host => {
                    let rate = topo.link_at(node.id, PortId::new(0)).rate;
                    hosts[node.id.index()] = Some(Host::new(node.id, rate));
                }
            }
        }
        let watchdog_timers = topo
            .nodes()
            .iter()
            .map(|node| match node.kind {
                dcn_net::NodeKind::Switch => vec![None; node.port_count() * Priority::COUNT],
                dcn_net::NodeKind::Host => Vec::new(),
            })
            .collect();
        let link_state = vec![LinkState { up: true, ber: 0.0 }; topo.links().len()];
        // One independent stream per (link, direction): corruption draws
        // then depend only on the receiving link end, never on how many
        // other links are corrupting or how the fabric is sharded.
        let has_corruption = cfg
            .faults
            .events()
            .iter()
            .any(|sf| matches!(sf.fault, FaultEvent::CorruptionStart { .. }));
        let fault_rng = if has_corruption {
            (0..topo.links().len() * 2)
                .map(|i| {
                    SimRng::seed_from_u64(
                        cfg.seed
                            ^ 0xFA01_7EC7_ED00_C0DE
                            ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    )
                })
                .collect()
        } else {
            Vec::new()
        };
        World {
            topo,
            routes,
            cfg,
            switches,
            hosts,
            flows: Vec::new(),
            flow_ix: FlowTable::new(),
            fct: Vec::new(),
            occupancy: vec![OccupancySeries::new(); n],
            done_flows: 0,
            counted_done: Vec::new(),
            trace,
            link_state,
            fault_rng,
            wire_drops: DropCounters::new(),
            watchdog_timers,
            outs_scratch: Vec::new(),
            irn: IrnCounters::new(),
            rdma_stranded: 0,
            flow_stalls: 0,
            shard,
        }
    }

    /// Whether this world simulates `node` (always true for the serial
    /// engine; sharded worlds own a spatial slice of the topology).
    fn owns(&self, node: NodeId) -> bool {
        self.shard
            .as_ref()
            .is_none_or(|ctx| ctx.part.shard_of(node) == ctx.shard as usize)
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Completed flows so far.
    pub fn done_flows(&self) -> usize {
        self.done_flows
    }

    /// Registered flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// A switch by node id, if that node is a switch.
    pub fn switch(&self, id: NodeId) -> Option<&SharedMemorySwitch> {
        self.switches.get(id.index()).and_then(Option::as_ref)
    }

    /// The shared flight-recorder handle (disabled unless
    /// [`FabricConfig::trace`] enabled it).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Makes room for `additional` more [`World::register_flow`] calls.
    fn reserve_flows(&mut self, additional: usize) {
        self.flows.reserve(additional);
        self.counted_done.reserve(additional);
    }

    pub(crate) fn register_flow(&mut self, spec: FlowSpec) -> usize {
        assert!(
            self.flow_ix.get(spec.id).is_none(),
            "duplicate flow id {}",
            spec.id
        );
        // The spec declares *what* the flow is; `cfg.rdma_transport`
        // decides *how* RDMA is carried. A `LossyRdma` spec class
        // requests IRN explicitly, regardless of the fabric default.
        let runtime = match spec.class {
            TrafficClass::Lossy => FlowRuntime::Tcp {
                sender: DctcpSender::new(
                    self.cfg.dctcp,
                    spec.id,
                    spec.src,
                    spec.dst,
                    spec.priority,
                    spec.size,
                ),
                receiver: DctcpReceiver::new(spec.id, spec.dst, spec.src, spec.priority, spec.size),
            },
            TrafficClass::Lossless if self.cfg.rdma_transport == RdmaTransport::Dcqcn => {
                let rate = self.topo.link_at(spec.src, PortId::new(0)).rate;
                FlowRuntime::Rdma {
                    sender: DcqcnSender::new(
                        self.cfg.dcqcn,
                        spec.id,
                        spec.src,
                        spec.dst,
                        spec.priority,
                        spec.size,
                        rate,
                    ),
                    receiver: DcqcnReceiver::new(
                        spec.id,
                        spec.dst,
                        spec.src,
                        spec.priority,
                        spec.size,
                    ),
                }
            }
            TrafficClass::Lossless | TrafficClass::LossyRdma => FlowRuntime::Irn {
                sender: IrnSender::new(
                    self.cfg.irn,
                    spec.id,
                    spec.src,
                    spec.dst,
                    spec.priority,
                    spec.size,
                ),
                receiver: IrnReceiver::new(spec.id, spec.dst, spec.src, spec.priority, spec.size),
            },
        };
        let is_irn = matches!(runtime, FlowRuntime::Irn { .. });
        if is_irn {
            self.irn.flows += 1;
        }
        let ix = self.flows.len();
        let ideal = self.ideal_fct(&spec, is_irn);
        self.flow_ix.insert(spec.id, ix);
        self.flows.push(FlowState {
            spec,
            runtime,
            timers: FlowTimers::default(),
            recorded: false,
            ideal,
            watchdog_progress: 0,
            stall_flagged: false,
        });
        self.counted_done.push(false);
        ix
    }

    /// Ideal FCT on an empty network: pipeline fill (per-hop propagation
    /// plus first-packet serialization) plus draining the remaining bytes
    /// at the bottleneck link. Evaluated at registration time, while
    /// every route is healthy; panicking here on a disconnected endpoint
    /// is a configuration error, not a runtime fault.
    fn ideal_fct(&self, spec: &FlowSpec, is_irn: bool) -> SimDuration {
        let (mtu, header) = if is_irn {
            (self.cfg.irn.mtu, self.cfg.irn.header)
        } else {
            match spec.class {
                TrafficClass::Lossy => (self.cfg.dctcp.mss, self.cfg.dctcp.header),
                TrafficClass::Lossless | TrafficClass::LossyRdma => {
                    (self.cfg.dcqcn.mtu, self.cfg.dcqcn.header)
                }
            }
        };
        let n_pkts = spec.size.div_ceil_by(Bytes::new(mtu));
        let total_wire = spec.size + header * n_pkts;
        let first_wire = Bytes::new(spec.size.as_u64().min(mtu)) + header;

        let mut node = spec.src;
        let mut fill = SimDuration::ZERO;
        let mut bottleneck = BitRate::from_gbps(100_000);
        let mut hops = 0;
        while node != spec.dst {
            let port = self
                .routes
                .next_port(node, spec.dst, spec.id)
                .expect("flow endpoints must be connected");
            let wire = self.topo.wire(node, port);
            let rate = self.topo.link(wire.link).rate;
            fill += wire.propagation + rate.tx_time(first_wire);
            bottleneck = bottleneck.min(rate);
            node = wire.peer.node;
            hops += 1;
            assert!(hops <= 64, "routing loop computing ideal FCT");
        }
        fill + bottleneck.tx_time(total_wire.saturating_sub(first_wire))
    }

    /// Whether this world is responsible for counting flow `ix` toward
    /// the done total. Exactly one shard counts each flow: the one
    /// owning the endpoint whose local state flips at the same event
    /// where the serial `is_done()` flips (see [`World::flow_done_proxy`]).
    fn counts_done_here(&self, ix: usize) -> bool {
        let Some(ctx) = &self.shard else {
            return true;
        };
        let spec = &self.flows[ix].spec;
        let counting = match self.flows[ix].runtime {
            FlowRuntime::Rdma { .. } => spec.dst,
            FlowRuntime::Tcp { .. } | FlowRuntime::Irn { .. } => spec.src,
        };
        ctx.part.shard_of(counting) == ctx.shard as usize
    }

    /// Completion as observable from the counting endpoint's half of the
    /// flow. A DCQCN receiver only finishes after the sender drained
    /// (there is no retransmission on the lossless path), and a DCTCP or
    /// IRN sender only completes on the final cumulative ACK, which the
    /// receiver emits after taking the last byte — so each proxy flips
    /// at the *same event* as the serial two-sided `is_done()`, even
    /// when the far endpoint is a never-touched replica in another
    /// shard. The serial engine keeps the exact predicate.
    fn flow_done_proxy(&self, ix: usize) -> bool {
        if self.shard.is_none() {
            return self.flows[ix].is_done();
        }
        match &self.flows[ix].runtime {
            FlowRuntime::Rdma { receiver, .. } => receiver.finished_at().is_some(),
            FlowRuntime::Tcp { sender, .. } => sender.is_completed(),
            FlowRuntime::Irn { sender, .. } => sender.is_completed(),
        }
    }

    fn update_done(&mut self, ix: usize) {
        if !self.counted_done[ix] && self.counts_done_here(ix) && self.flow_done_proxy(ix) {
            self.counted_done[ix] = true;
            self.done_flows += 1;
        }
    }

    fn record_if_finished(&mut self, ix: usize) {
        if self.flows[ix].recorded {
            return;
        }
        if let Some(finish) = self.flows[ix].finished_at() {
            let spec = self.flows[ix].spec;
            let ideal = self.flows[ix].ideal;
            self.fct.push(FctRecord {
                flow: spec.id,
                class: spec.class,
                size: spec.size,
                start: spec.start,
                finish,
                ideal,
            });
            self.flows[ix].recorded = true;
        }
    }

    // ---- scheduling helpers -------------------------------------------

    /// Schedules `ev` (destined for `dest`) locally when this world owns
    /// the node, otherwise stamps it with the pop's next emission stamp
    /// and queues a handoff for the owner shard. Drawing the stamp in
    /// emission order means the receiving shard admits the event at
    /// exactly the `(time, stamp)` key the serial engine's `(time, seq)`
    /// insertion would have produced.
    fn schedule_or_handoff(
        &mut self,
        at: SimTime,
        dest: NodeId,
        ev: Event,
        q: &mut EventQueue<Event>,
    ) {
        if self.owns(dest) {
            q.schedule_at(at, ev);
        } else {
            self.hand_off(at, dest, HandoffPayload::Event(ev), q);
        }
    }

    /// Queues `payload` for the shard owning `dest`, stamped as the
    /// dispatching pop's next emission.
    fn hand_off(
        &mut self,
        at: SimTime,
        dest: NodeId,
        payload: HandoffPayload,
        q: &mut EventQueue<Event>,
    ) {
        let stamp = q.next_child_stamp();
        let ctx = self.shard.as_mut().expect("unowned node implies sharding");
        ctx.outbox[ctx.part.shard_of(dest)].push(Handoff { at, stamp, payload });
    }

    fn schedule_switch_tx(
        &mut self,
        now: SimTime,
        node: NodeId,
        tx: TxStart,
        q: &mut EventQueue<Event>,
    ) {
        let Wire {
            peer, propagation, ..
        } = *self.topo.wire(node, tx.port);
        q.schedule_after(
            now,
            tx.serialize,
            Event::SwitchTxComplete {
                node,
                port: tx.port,
            },
        );
        self.schedule_or_handoff(
            now + tx.serialize + propagation,
            peer.node,
            Event::Deliver {
                node: peer.node,
                in_port: peer.port,
                packet: tx.packet,
            },
            q,
        );
    }

    fn schedule_host_tx(
        &mut self,
        now: SimTime,
        host: NodeId,
        tx: TxStart,
        q: &mut EventQueue<Event>,
    ) {
        let Wire {
            peer, propagation, ..
        } = *self.topo.wire(host, PortId::new(0));
        q.schedule_after(now, tx.serialize, Event::HostTxComplete { host });
        // A host's only link reaches its ToR, which the partition keeps
        // in the same shard — host transmissions never cross.
        debug_assert!(self.owns(peer.node), "host split from its ToR");
        q.schedule_after(
            now,
            tx.serialize + propagation,
            Event::Deliver {
                node: peer.node,
                in_port: peer.port,
                packet: tx.packet,
            },
        );
    }

    fn emit_pfc(&mut self, now: SimTime, node: NodeId, emit: PfcEmit, q: &mut EventQueue<Event>) {
        let Wire {
            peer, propagation, ..
        } = *self.topo.wire(node, emit.port);
        // PFC frames are tiny control frames that bypass data queues:
        // modelled with propagation delay only.
        self.schedule_or_handoff(
            now + propagation,
            peer.node,
            Event::PfcDeliver {
                node: peer.node,
                in_port: peer.port,
                frame: emit.frame,
            },
            q,
        );
    }

    /// Starts the next host transmission if the NIC is idle and an
    /// unpaused priority has a packet.
    fn host_start(&mut self, now: SimTime, host: NodeId, q: &mut EventQueue<Event>) {
        let h = self.hosts[host.index()].as_mut().expect("not a host");
        if let Some(tx) = h.try_start() {
            self.schedule_host_tx(now, host, tx, q);
        }
    }

    fn host_inject(
        &mut self,
        now: SimTime,
        host: NodeId,
        packet: Packet,
        q: &mut EventQueue<Event>,
    ) {
        let h = self.hosts[host.index()].as_mut().expect("not a host");
        h.enqueue(packet);
        self.host_start(now, host, q);
    }

    // ---- event handlers ------------------------------------------------

    fn start_flow(&mut self, now: SimTime, ix: usize, q: &mut EventQueue<Event>) {
        let spec = self.flows[ix].spec;
        match &mut self.flows[ix].runtime {
            FlowRuntime::Tcp { sender, .. } => {
                let mut burst = std::mem::take(&mut self.outs_scratch);
                sender.take_ready(now, &mut burst);
                let rto = sender.rto();
                self.flows[ix].timers.rto =
                    Some(q.schedule_timer_after(now, rto, Event::Rto { flow: spec.id }));
                for p in burst.drain(..) {
                    self.host_inject(now, spec.src, p, q);
                }
                self.outs_scratch = burst;
            }
            FlowRuntime::Rdma { sender, .. } => {
                if let Some(p) = sender.emit_next(now) {
                    let gap = sender.gap_for(p.size());
                    q.schedule_after(now, gap, Event::RdmaPace { flow: spec.id });
                    self.host_inject(now, spec.src, p, q);
                }
            }
            FlowRuntime::Irn { sender, .. } => {
                let mut burst = std::mem::take(&mut self.outs_scratch);
                sender.take_ready(now, &mut burst);
                let rto = sender.rto();
                self.flows[ix].timers.rto =
                    Some(q.schedule_timer_after(now, rto, Event::Rto { flow: spec.id }));
                for p in burst.drain(..) {
                    self.host_inject(now, spec.src, p, q);
                }
                self.outs_scratch = burst;
            }
        }
        // Opt-in liveness watchdog covers RDMA flows of both universes
        // (DCQCN and IRN); DCTCP's own RTO machinery already guarantees
        // liveness for the lossy class. The watchdog measures receiver
        // progress, so when the fabric is sharded the timer must live in
        // the destination's shard — a flow whose endpoints straddle a
        // boundary hands the arm across (legal because the sharded
        // executor requires `interval ≥ lookahead`).
        if let Some(interval) = self.cfg.flow_watchdog {
            if !matches!(self.flows[ix].runtime, FlowRuntime::Tcp { .. }) {
                if self.owns(spec.dst) {
                    self.flows[ix].timers.flow_watchdog = Some(q.schedule_timer_after(
                        now,
                        interval,
                        Event::FlowWatchdog { flow: spec.id },
                    ));
                } else {
                    let arm = HandoffPayload::WatchdogArm { flow: spec.id };
                    self.hand_off(now + interval, spec.dst, arm, q);
                }
            }
        }
    }

    fn switch_receive(
        &mut self,
        now: SimTime,
        node: NodeId,
        in_port: PortId,
        packet: Packet,
        q: &mut EventQueue<Event>,
    ) {
        let sw = self.switches[node.index()].as_mut().expect("not a switch");
        let Some(out_port) = self.routes.next_port(node, packet.dst, packet.flow) else {
            // Every candidate next hop is down (or the destination is
            // unreachable): a counted drop, not a panic, so the fabric
            // survives injected failures. TCP retransmits after
            // recovery; a lossless flow hit here becomes a victim flow.
            sw.record_forwarding_drop(now, &packet, in_port, TraceDropCause::NoRoute);
            return;
        };
        let res = sw.receive(now, packet, in_port, out_port);
        if let Some(e) = res.pfc {
            self.emit_pfc(now, node, e, q);
        }
        if let Some(tx) = res.tx {
            self.schedule_switch_tx(now, node, tx, q);
        }
        if let Some(nack) = res.nack {
            // An out-of-order lossy-RDMA arrival: the switch generated an
            // IRN NACK toward the sender. Inject it here as if it entered
            // on the same port the offending data packet used. Recursion
            // is depth-1: only Data packets trigger NACK generation.
            self.irn.nacks_switch += 1;
            self.switch_receive(now, node, in_port, nack, q);
        }
        // Other drops need no action here: lossy transports recover via
        // dup-ACKs/RTO, and lossless drops are counted as config failures.
    }

    fn host_receive(
        &mut self,
        now: SimTime,
        host: NodeId,
        packet: Packet,
        q: &mut EventQueue<Event>,
    ) {
        debug_assert_eq!(packet.dst, host, "misrouted packet");
        let Some(ix) = self.flow_ix.get(packet.flow) else {
            return; // stray packet from an unregistered flow
        };
        let mut outs = std::mem::take(&mut self.outs_scratch);
        let mut rearm_rto: Option<SimDuration> = None;
        let mut cancel_rto = false;
        let mut arm_rp: Option<(SimDuration, SimDuration)> = None;
        let mut irn_watermark: Option<u64> = None;

        match (&mut self.flows[ix].runtime, packet.kind) {
            (FlowRuntime::Tcp { receiver, .. }, PacketKind::Data) => {
                let ack = receiver.on_data(now, packet.seq, packet.payload(), packet.ecn.is_ce());
                outs.push(ack);
            }
            (FlowRuntime::Tcp { sender, .. }, PacketKind::Ack { ecn_echo }) => {
                let action = sender.on_ack(now, packet.ack, ecn_echo, &mut outs);
                let t_flow = packet.flow.as_u64();
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
                if self.trace.is_enabled() {
                    let cwnd = sender.cwnd() as u64;
                    let ssthresh = if sender.ssthresh() == f64::MAX {
                        u64::MAX
                    } else {
                        sender.ssthresh() as u64
                    };
                    let in_recovery = sender.in_recovery();
                    self.trace.record_with(now, || TraceEvent::TcpCwnd {
                        flow: t_flow,
                        cwnd,
                        ssthresh,
                        in_recovery,
                    });
                }
                if action.rearm_timer {
                    rearm_rto = Some(sender.rto());
                } else if action.completed {
                    // Last byte ACKed: retire the outstanding deadline
                    // instead of letting it fire as a stale no-op.
                    cancel_rto = true;
                }
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
                    let t_flow = packet.flow.as_u64();
                    let t_node = host.index() as u32;
                    self.trace.record_with(now, || TraceEvent::IrnNack {
                        flow: t_flow,
                        nack_seq: fb.seq,
                        node: t_node,
                        from_switch: false,
                    });
                }
                outs.push(fb);
            }
            (FlowRuntime::Irn { sender, .. }, PacketKind::Ack { .. }) => {
                irn_watermark = Some(sender.snd_max());
                let action = sender.on_ack(now, packet.ack, &mut outs);
                if action.rearm_timer {
                    rearm_rto = Some(sender.rto());
                } else if action.completed {
                    cancel_rto = true;
                }
            }
            (FlowRuntime::Irn { sender, .. }, PacketKind::Nack) => {
                irn_watermark = Some(sender.snd_max());
                let action = sender.on_nack(now, packet.seq, packet.ack, &mut outs);
                if action.rearm_timer {
                    rearm_rto = Some(sender.rto());
                } else if action.completed {
                    cancel_rto = true;
                }
            }
            (FlowRuntime::Rdma { sender, .. }, PacketKind::Cnp) => {
                if sender.on_cnp(now) {
                    let cfg = sender.config();
                    arm_rp = Some((cfg.alpha_timer, cfg.rate_timer));
                }
                let t_flow = packet.flow.as_u64();
                let rate_bps = sender.rate().as_bps();
                self.trace.record_with(now, || TraceEvent::RdmaRate {
                    flow: t_flow,
                    rate_bps,
                });
            }
            // Cross-protocol packets (e.g. an ACK for an RDMA flow)
            // indicate a wiring bug or a corrupted delivery. Recorded
            // as a Defect and dropped rather than panicking, so one bad
            // packet cannot abort a whole sweep worker.
            _ => {
                let t_flow = packet.flow.as_u64();
                let t_node = host.index() as u32;
                self.trace.record_with(now, || TraceEvent::Defect {
                    what: "unexpected_packet_kind",
                    node: t_node,
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
        self.record_if_finished(ix);
        self.update_done(ix);

        let flow = packet.flow;
        if let Some(rto) = rearm_rto {
            // True re-arm: the old deadline is removed from the wheel
            // (no tombstone left behind) and a fresh one armed at the
            // exact queue position where a replacement used to be
            // scheduled, so sequence-number allocation is unchanged.
            let timers = &mut self.flows[ix].timers;
            if let Some(h) = timers.rto.take() {
                q.cancel_timer(h);
            }
            timers.rto = Some(q.schedule_timer_after(now, rto, Event::Rto { flow }));
        } else if cancel_rto {
            if let Some(h) = self.flows[ix].timers.rto.take() {
                q.cancel_timer(h);
            }
        }
        if let Some((alpha_after, rate_after)) = arm_rp {
            let timers = &mut self.flows[ix].timers;
            if let Some(h) = timers.alpha.take() {
                q.cancel_timer(h);
            }
            if let Some(h) = timers.rate.take() {
                q.cancel_timer(h);
            }
            timers.alpha = Some(q.schedule_timer_after(
                now,
                alpha_after,
                Event::RpTimer {
                    flow,
                    kind: RpTimerKind::Alpha,
                },
            ));
            timers.rate = Some(q.schedule_timer_after(
                now,
                rate_after,
                Event::RpTimer {
                    flow,
                    kind: RpTimerKind::Rate,
                },
            ));
        }
        for p in outs.drain(..) {
            self.host_inject(now, host, p, q);
        }
        self.outs_scratch = outs;
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
                let t_flow = p.flow.as_u64();
                let t_seq = p.seq;
                self.trace.record_with(now, || TraceEvent::IrnRetransmit {
                    flow: t_flow,
                    seq: t_seq,
                });
            }
        }
    }

    fn handle_rdma_pace(&mut self, now: SimTime, flow: FlowId, q: &mut EventQueue<Event>) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        let spec = self.flows[ix].spec;
        let FlowRuntime::Rdma { sender, .. } = &mut self.flows[ix].runtime else {
            return;
        };
        if let Some(p) = sender.emit_next(now) {
            let gap = sender.gap_for(p.size());
            q.schedule_after(now, gap, Event::RdmaPace { flow });
            self.host_inject(now, spec.src, p, q);
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
                let t_flow = flow.as_u64();
                let snd_nxt = sender.snd_nxt();
                self.trace.record_with(now, || TraceEvent::RdmaStranded {
                    flow: t_flow,
                    snd_nxt,
                });
            }
        }
        self.update_done(ix);
    }

    fn handle_rto(&mut self, now: SimTime, flow: FlowId, q: &mut EventQueue<Event>) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        let spec = self.flows[ix].spec;
        // Firing consumed the wheel entry; the stored handle is dead.
        self.flows[ix].timers.rto = None;
        let mut outs = std::mem::take(&mut self.outs_scratch);
        // A wheel timer only fires while live, so every arrival here is
        // a real timeout; `fired` records exactly the RTOs that fired.
        let mut fired: Option<(SimDuration, u32)> = None;
        let mut irn_watermark: Option<u64> = None;
        match &mut self.flows[ix].runtime {
            FlowRuntime::Tcp { sender, .. } => {
                let action = sender.on_timeout(now, &mut outs);
                if action.rearm_timer {
                    fired = Some((sender.rto(), sender.backoff()));
                }
            }
            FlowRuntime::Irn { sender, .. } => {
                irn_watermark = Some(sender.snd_max());
                let action = sender.on_timeout(now, &mut outs);
                if action.rearm_timer {
                    fired = Some((sender.rto(), sender.backoff()));
                    self.irn.rto_fires += 1;
                }
            }
            FlowRuntime::Rdma { .. } => {
                self.outs_scratch = outs;
                return;
            }
        }
        if let Some((rto, backoff)) = fired {
            let t_flow = flow.as_u64();
            self.trace.record_with(now, || TraceEvent::RtoFire {
                flow: t_flow,
                backoff,
                next_rto_ns: rto.as_nanos(),
            });
            self.flows[ix].timers.rto = Some(q.schedule_timer_after(now, rto, Event::Rto { flow }));
        }
        if let Some(watermark) = irn_watermark {
            self.count_irn_retransmits(now, &outs, watermark);
        }
        for p in outs.drain(..) {
            self.host_inject(now, spec.src, p, q);
        }
        self.outs_scratch = outs;
    }

    /// Opt-in RDMA liveness watchdog: fires every `flow_watchdog`
    /// interval per unfinished RDMA flow, comparing receiver progress
    /// against the previous fire. A whole interval with zero new
    /// in-order bytes is one stall *episode* — counted once, and again
    /// only after progress resumes and stalls anew.
    fn handle_flow_watchdog(&mut self, now: SimTime, flow: FlowId, q: &mut EventQueue<Event>) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        // Firing consumed the wheel entry; the stored handle is dead.
        self.flows[ix].timers.flow_watchdog = None;
        // The proxy, not `is_done()`: in a sharded world the far half of
        // a straddling flow is an untouched replica (e.g. a never-sending
        // sender) that would keep the exact predicate false forever and
        // turn every finished flow into a phantom stall.
        if self.flow_done_proxy(ix) {
            return;
        }
        let received = self.flows[ix].received();
        if received > self.flows[ix].watchdog_progress {
            self.flows[ix].watchdog_progress = received;
            self.flows[ix].stall_flagged = false;
        } else if !self.flows[ix].stall_flagged {
            self.flows[ix].stall_flagged = true;
            self.flow_stalls += 1;
            let t_flow = flow.as_u64();
            self.trace.record_with(now, || TraceEvent::FlowStalled {
                flow: t_flow,
                received,
            });
        }
        let interval = self
            .cfg
            .flow_watchdog
            .expect("watchdog fired while disabled");
        self.flows[ix].timers.flow_watchdog =
            Some(q.schedule_timer_after(now, interval, Event::FlowWatchdog { flow }));
    }

    fn handle_rp_timer(
        &mut self,
        now: SimTime,
        flow: FlowId,
        kind: RpTimerKind,
        q: &mut EventQueue<Event>,
    ) {
        let Some(ix) = self.flow_ix.get(flow) else {
            return;
        };
        // Firing consumed the wheel entry; the stored handle is dead.
        match kind {
            RpTimerKind::Alpha => self.flows[ix].timers.alpha = None,
            RpTimerKind::Rate => self.flows[ix].timers.rate = None,
        }
        let FlowRuntime::Rdma { sender, .. } = &mut self.flows[ix].runtime else {
            return;
        };
        if sender.on_timer(kind) {
            let period = match kind {
                RpTimerKind::Alpha => sender.config().alpha_timer,
                RpTimerKind::Rate => sender.config().rate_timer,
            };
            let h = q.schedule_timer_after(now, period, Event::RpTimer { flow, kind });
            match kind {
                RpTimerKind::Alpha => self.flows[ix].timers.alpha = Some(h),
                RpTimerKind::Rate => self.flows[ix].timers.rate = Some(h),
            }
        }
    }

    fn handle_sample(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        for sw in self.switches.iter().flatten() {
            let occ = sw.occupancy();
            self.occupancy[sw.id().index()].push(now, occ);
        }
        if let Some(interval) = self.cfg.sample_interval {
            q.schedule_after(now, interval, Event::Sample);
        }
    }

    // ---- fault injection ----------------------------------------------

    /// Counts a packet lost on the wire (dead link or corruption) and
    /// records the drop in the trace against the receiving node.
    fn wire_drop(
        &mut self,
        now: SimTime,
        node: NodeId,
        in_port: PortId,
        packet: &Packet,
        cause: TraceDropCause,
    ) {
        match packet.class {
            TrafficClass::Lossless => self.wire_drops.record_lossless(packet.size()),
            TrafficClass::Lossy => self.wire_drops.record_lossy(packet.size()),
            TrafficClass::LossyRdma => self.wire_drops.record_lossy_rdma(packet.size()),
        }
        let t_node = node.index() as u32;
        let t_port = in_port.index() as u16;
        let t_prio = packet.priority.index() as u8;
        let t_flow = packet.flow.as_u64();
        let t_seq = packet.seq;
        let t_size = packet.size().as_u64();
        let lossless = packet.class == TrafficClass::Lossless;
        self.trace.record_with(now, || TraceEvent::Drop {
            node: t_node,
            in_port: t_port,
            prio: t_prio,
            flow: t_flow,
            seq: t_seq,
            size: t_size,
            lossless,
            cause,
        });
    }

    /// Applies link faults to an arriving packet: delivery over a dead
    /// link is lost (events already on the wire cannot be retracted, so
    /// the check happens at arrival), and a corrupting link discards the
    /// packet with probability `1 - (1-ber)^bits`. Returns why the
    /// packet is lost, or `None` if it survives. The fast path — every
    /// link up, no corruption — reads the port's wire slot and the
    /// link's fault record, touches no RNG and is byte-identical to a
    /// faultless build.
    fn wire_filter(
        &mut self,
        node: NodeId,
        in_port: PortId,
        packet: &Packet,
    ) -> Option<TraceDropCause> {
        let wire = self.topo.wire(node, in_port);
        let lid = wire.link.index();
        let LinkState { up, ber } = self.link_state[lid];
        if !up {
            return Some(TraceDropCause::LinkDown);
        }
        if ber > 0.0 {
            let bits = (packet.size().as_u64() * 8).min(i32::MAX as u64) as i32;
            let survive = (1.0 - ber).powi(bits);
            // Draw from this delivery direction's own stream: the draw
            // sequence each packet sees is then independent of every
            // other link's traffic, so serial and sharded runs corrupt
            // the same packets.
            if self.fault_rng[lid * 2 + usize::from(wire.dir)].uniform_f64() >= survive {
                return Some(TraceDropCause::Corrupted);
            }
        }
        None
    }

    /// Routes a PFC frame into a switch, arming the storm watchdog on
    /// each new pause episode. Shared by real `PfcDeliver` events and
    /// injected stuck-pause faults so both follow identical semantics.
    fn switch_pfc(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        frame: PfcFrame,
        q: &mut EventQueue<Event>,
    ) {
        let watchdog = self.cfg.switch.pfc_watchdog;
        let q_out = QueueIndex::new(port, frame.priority);
        let sw = self.switches[node.index()].as_mut().expect("switch");
        let was_paused = sw.mmu().egress_paused(q_out);
        let tx = sw.handle_pfc(now, port, frame);
        if frame.pause && !was_paused {
            if let Some(threshold) = watchdog {
                let generation = sw.pause_generation(q_out);
                let handle = q.schedule_timer_after(
                    now,
                    threshold,
                    Event::PfcWatchdog {
                        node,
                        port,
                        prio: frame.priority,
                        generation,
                    },
                );
                // This new episode bumped the generation, so any older
                // deadline still armed on this queue could only fire as
                // a stale no-op — cancelling it is behaviour-preserving.
                let slot = &mut self.watchdog_timers[node.index()][q_out.flat()];
                if let Some((old, _)) = slot.replace((handle, generation)) {
                    q.cancel_timer(old);
                }
            }
        } else if !frame.pause && was_paused {
            // Resumed: a later pause starts a fresh generation, so the
            // pending deadline can never fire meaningfully again.
            if let Some((old, _)) = self.watchdog_timers[node.index()][q_out.flat()].take() {
                q.cancel_timer(old);
            }
        }
        if let Some(tx) = tx {
            self.schedule_switch_tx(now, node, tx, q);
        }
    }

    /// Applies a PFC frame to a host NIC (all host pauses come from its
    /// single uplink port). Hosts have no storm watchdog — their ToR
    /// protects them.
    fn host_pfc(&mut self, now: SimTime, node: NodeId, frame: PfcFrame, q: &mut EventQueue<Event>) {
        let h = self.hosts[node.index()].as_mut().expect("host");
        h.set_paused(frame.priority, frame.pause);
        if !frame.pause {
            self.host_start(now, node, q);
        }
    }

    fn apply_fault(&mut self, now: SimTime, fault: FaultEvent, q: &mut EventQueue<Event>) {
        match fault {
            FaultEvent::LinkDown { link } => {
                let l = *self.topo.link(LinkId::new(link));
                self.link_state[l.id.index()].up = false;
                self.routes.fail_link(&l);
                // Each switch endpoint discharges everything queued to
                // the dead port; freed shared buffer may release
                // pause thresholds, so forward any XONs it emits.
                // Host endpoints need nothing: their transmissions are
                // lost at delivery and transports recover via RTO.
                // Faults are replicated into every shard but each shard
                // discharges only the endpoints it owns; giving each
                // endpoint its own emission lane keeps the stamps of
                // endpoint-b's emissions ordered after endpoint-a's no
                // matter which subset a shard emits.
                for (lane, end) in [l.a, l.b].into_iter().enumerate() {
                    if q.stamps_enabled() {
                        q.set_stamp_lane(lane as u16);
                    }
                    if !self.owns(end.node) {
                        continue;
                    }
                    let emits = match self.switches[end.node.index()].as_mut() {
                        Some(sw) => sw.port_down(now, end.port),
                        None => Vec::new(),
                    };
                    for e in emits {
                        self.emit_pfc(now, end.node, e, q);
                    }
                }
            }
            FaultEvent::LinkUp { link } => {
                let l = *self.topo.link(LinkId::new(link));
                self.link_state[l.id.index()].up = true;
                self.routes.restore_link(&l);
                // Port renegotiation resets PFC state on both ends
                // symmetrically: the switch forgets sent and received
                // pauses on that port; a host clears all its pauses
                // (they can only have come from this uplink). Lanes per
                // endpoint for the same reason as the link-down arm.
                for (lane, end) in [l.a, l.b].into_iter().enumerate() {
                    if q.stamps_enabled() {
                        q.set_stamp_lane(lane as u16);
                    }
                    if !self.owns(end.node) {
                        continue;
                    }
                    if self.switches[end.node.index()].is_some() {
                        // The reset forgets the port's pause state and any
                        // later pause starts a fresh generation, so every
                        // pending storm deadline on it is now a guaranteed
                        // no-op — cancel them all.
                        for prio in Priority::all() {
                            let flat = QueueIndex::new(end.port, prio).flat();
                            if let Some((h, _)) =
                                self.watchdog_timers[end.node.index()][flat].take()
                            {
                                q.cancel_timer(h);
                            }
                        }
                        let tx = self.switches[end.node.index()]
                            .as_mut()
                            .expect("checked")
                            .reset_port_pfc(now, end.port);
                        if let Some(tx) = tx {
                            self.schedule_switch_tx(now, end.node, tx, q);
                        }
                    } else if self.hosts[end.node.index()].is_some() {
                        for prio in Priority::all() {
                            self.hosts[end.node.index()]
                                .as_mut()
                                .expect("checked")
                                .set_paused(prio, false);
                        }
                        self.host_start(now, end.node, q);
                    }
                }
            }
            FaultEvent::CorruptionStart { link, ber } => {
                self.link_state[LinkId::new(link).index()].ber = ber.clamp(0.0, 1.0);
            }
            FaultEvent::CorruptionEnd { link } => {
                self.link_state[LinkId::new(link).index()].ber = 0.0;
            }
            FaultEvent::PauseStuck { node, port, prio } => {
                let target = NodeId::new(node);
                if !self.owns(target) {
                    return; // another shard injects this pause
                }
                let frame = PfcFrame::pause(Priority::new(prio));
                match self.topo.node(target).kind {
                    dcn_net::NodeKind::Switch => {
                        self.switch_pfc(now, target, PortId::new(port), frame, q);
                    }
                    dcn_net::NodeKind::Host => self.host_pfc(now, target, frame, q),
                }
            }
            FaultEvent::PauseRelease { node, port, prio } => {
                let target = NodeId::new(node);
                if !self.owns(target) {
                    return;
                }
                let frame = PfcFrame::resume(Priority::new(prio));
                match self.topo.node(target).kind {
                    dcn_net::NodeKind::Switch => {
                        // No-op pause-wise if the watchdog already
                        // force-resumed; may still start a blocked tx.
                        self.switch_pfc(now, target, PortId::new(port), frame, q);
                    }
                    dcn_net::NodeKind::Host => self.host_pfc(now, target, frame, q),
                }
            }
        }
    }

    // ---- sharded-executor hooks (crate-internal) ----------------------

    /// The cross-shard messages generated since the executor last
    /// emptied them, indexed by destination shard (no batches for the
    /// serial engine).
    pub(crate) fn outbox(&mut self) -> &mut [Vec<Handoff>] {
        match &mut self.shard {
            Some(ctx) => &mut ctx.outbox,
            None => &mut [],
        }
    }

    /// Admits a handoff received at a window barrier, carrying its
    /// source-drawn stamp into this shard's queue verbatim.
    pub(crate) fn admit_handoff(&mut self, h: Handoff, q: &mut EventQueue<Event>) {
        match h.payload {
            HandoffPayload::Event(ev) => q.schedule_at_stamped(h.at, ev, &h.stamp),
            HandoffPayload::WatchdogArm { flow } => {
                let Some(ix) = self.flow_ix.get(flow) else {
                    return;
                };
                let handle =
                    q.schedule_timer_at_stamped(h.at, Event::FlowWatchdog { flow }, &h.stamp);
                self.flows[ix].timers.flow_watchdog = Some(handle);
            }
        }
    }

    /// The switches (at most two — only a link fault touches a pair)
    /// whose counters `ev`'s dispatch may mutate, restricted to the ones
    /// this shard owns.
    fn touched_switches(&self, ev: &Event) -> [Option<NodeId>; 2] {
        let own_switch = |n: NodeId| self.switches[n.index()].is_some().then_some(n);
        match ev {
            Event::Deliver { node, .. }
            | Event::PfcDeliver { node, .. }
            | Event::SwitchTxComplete { node, .. }
            | Event::PfcWatchdog { node, .. } => [own_switch(*node), None],
            Event::Fault { fault } => match *fault {
                FaultEvent::LinkDown { link } | FaultEvent::LinkUp { link } => {
                    let l = self.topo.link(LinkId::new(link));
                    [own_switch(l.a.node), own_switch(l.b.node)]
                }
                FaultEvent::PauseStuck { node, .. } | FaultEvent::PauseRelease { node, .. } => {
                    [own_switch(NodeId::new(node)), None]
                }
                _ => [None; 2],
            },
            _ => [None; 2],
        }
    }

    /// Captures every digest-relevant counter `ev` may mutate, taken by
    /// the sharded executor immediately before dispatching it.
    pub(crate) fn snap(&self, ev: &Event) -> PopSnapshot {
        let nodes = self.touched_switches(ev).map(|n| {
            n.map(|node| {
                let sw = self.switches[node.index()].as_ref().expect("owned switch");
                (node, sw.pfc_counters().clone(), *sw.drop_counters())
            })
        });
        PopSnapshot {
            nodes,
            wire: self.wire_drops,
            irn: self.irn,
        }
    }

    /// The counter growth since `snap` (one dispatched event), or `None`
    /// if the event changed no counter the executor would have to
    /// revert past a stop key. (FCT records and completions are not
    /// counters: the executor watches those itself.)
    pub(crate) fn delta_since(&self, snap: PopSnapshot) -> Option<PopDelta> {
        let mut any = false;
        let nodes = snap.nodes.map(|entry| {
            entry.and_then(|(node, pfc0, drops0)| {
                let sw = self.switches[node.index()].as_ref().expect("owned switch");
                let dpfc = sw.pfc_counters().since(&pfc0);
                let ddrops = sw.drop_counters().since(&drops0);
                if dpfc == PfcCounters::new() && ddrops == DropCounters::new() {
                    None
                } else {
                    any = true;
                    Some((node, dpfc, ddrops))
                }
            })
        });
        let wire = self.wire_drops.since(&snap.wire);
        let irn = self.irn.since(&snap.irn);
        if !any && wire == DropCounters::new() && irn == IrnCounters::new() {
            return None;
        }
        Some(PopDelta { nodes, wire, irn })
    }

    /// Folds this world's order-independent counters (PFC, drops,
    /// occupancy, liveness diagnostics) into `r`. Shared by the serial
    /// result collection and the sharded merge.
    pub(crate) fn fold_counters_into(&self, r: &mut RunResults) {
        for sw in self.switches.iter().flatten() {
            r.pfc.merge(sw.pfc_counters());
            r.pfc_by_switch.insert(sw.id(), sw.pfc_counters().clone());
            r.drops.merge(sw.drop_counters());
        }
        r.drops.merge(&self.wire_drops);
        for (i, series) in self.occupancy.iter().enumerate() {
            if !series.is_empty() {
                r.occupancy.insert(NodeId::new(i as u32), series.clone());
            }
        }
        r.rdma_stranded += self.rdma_stranded;
        r.flow_stalls += self.flow_stalls;
    }

    /// FCT records in completion order (the order `record_if_finished`
    /// pushed them).
    pub(crate) fn fct_records(&self) -> &[FctRecord] {
        &self.fct
    }

    /// This world's IRN counters (in a sharded run, `flows` counts every
    /// registered IRN flow — registration is replicated — while the
    /// run-time fields count only locally observed activity).
    pub(crate) fn irn_counters(&self) -> IrnCounters {
        self.irn
    }

    /// Reverts the newest `n` occupancy samples of every owned switch
    /// (stop-key filtering of replicated `Sample` pops past the
    /// completing event).
    pub(crate) fn drop_last_occupancy(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        for series in &mut self.occupancy {
            series.drop_last(n);
        }
    }

    /// How many registered flows this world counts toward the global
    /// done total (all of them for the serial engine).
    pub(crate) fn counting_flows(&self) -> usize {
        (0..self.flows.len())
            .filter(|&ix| self.counts_done_here(ix))
            .count()
    }
}

/// Counter state captured by [`World::snap`] before one dispatch.
pub(crate) struct PopSnapshot {
    nodes: [Option<(NodeId, PfcCounters, DropCounters)>; 2],
    wire: DropCounters,
    irn: IrnCounters,
}

/// The counter deltas of one dispatched event, journaled under its
/// `(time, stamp)` key so a stop-key filter can subtract them.
pub(crate) struct PopDelta {
    /// Per-switch PFC and drop-counter growth.
    pub(crate) nodes: [Option<(NodeId, PfcCounters, DropCounters)>; 2],
    /// Wire (link-fault) drop growth.
    pub(crate) wire: DropCounters,
    /// IRN counter growth (`flows` always zero).
    pub(crate) irn: IrnCounters,
}

impl Simulation for World {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        match event {
            Event::FlowStart { index } => self.start_flow(now, index, q),
            Event::Deliver {
                node,
                in_port,
                packet,
            } => {
                if let Some(cause) = self.wire_filter(node, in_port, &packet) {
                    self.wire_drop(now, node, in_port, &packet, cause);
                    return;
                }
                match self.topo.node(node).kind {
                    dcn_net::NodeKind::Switch => self.switch_receive(now, node, in_port, packet, q),
                    dcn_net::NodeKind::Host => self.host_receive(now, node, packet, q),
                }
            }
            Event::PfcDeliver {
                node,
                in_port,
                frame,
            } => {
                // Control frames on a dead link are lost like data; they
                // are counted at the sender, so no drop is recorded.
                if !self.link_state[self.topo.wire(node, in_port).link.index()].up {
                    return;
                }
                match self.topo.node(node).kind {
                    dcn_net::NodeKind::Switch => self.switch_pfc(now, node, in_port, frame, q),
                    dcn_net::NodeKind::Host => self.host_pfc(now, node, frame, q),
                }
            }
            Event::SwitchTxComplete { node, port } => {
                let sw = self.switches[node.index()].as_mut().expect("switch");
                let res = sw.tx_complete(now, port);
                if let Some(e) = res.pfc {
                    self.emit_pfc(now, node, e, q);
                }
                if let Some(tx) = res.next {
                    self.schedule_switch_tx(now, node, tx, q);
                }
            }
            Event::HostTxComplete { host } => {
                let h = self.hosts[host.index()].as_mut().expect("host");
                if let Some(tx) = h.tx_complete() {
                    self.schedule_host_tx(now, host, tx, q);
                }
            }
            Event::RdmaPace { flow } => self.handle_rdma_pace(now, flow, q),
            Event::Rto { flow } => self.handle_rto(now, flow, q),
            Event::FlowWatchdog { flow } => self.handle_flow_watchdog(now, flow, q),
            Event::RpTimer { flow, kind } => self.handle_rp_timer(now, flow, kind, q),
            Event::Sample => self.handle_sample(now, q),
            Event::Fault { fault } => self.apply_fault(now, fault, q),
            Event::PfcWatchdog {
                node,
                port,
                prio,
                generation,
            } => {
                // If this very deadline is the one on record, firing
                // consumed its wheel entry — forget the dead handle.
                let slot =
                    &mut self.watchdog_timers[node.index()][QueueIndex::new(port, prio).flat()];
                if slot.is_some_and(|(_, g)| g == generation) {
                    *slot = None;
                }
                let tx = self.switches[node.index()]
                    .as_mut()
                    .expect("switch")
                    .pfc_watchdog_fire(now, port, prio, generation);
                if let Some(tx) = tx {
                    self.schedule_switch_tx(now, node, tx, q);
                }
            }
        }
    }
}

/// A [`World`] coupled with its event queue: the user-facing simulator.
#[derive(Debug)]
pub struct FabricSim {
    world: World,
    queue: EventQueue<Event>,
}

impl FabricSim {
    /// Builds the simulator for a topology (the `FabricConfig` selects
    /// the buffer-management policy, transports and sampling).
    ///
    /// # Panics
    ///
    /// Panics if a configured MSS/MTU plus its header, or the switch
    /// MTU, exceeds [`dcn_net::MAX_FRAME`].
    pub fn new(topo: Topology, cfg: FabricConfig) -> FabricSim {
        cfg.assert_frames_fit();
        let sample = cfg.sample_interval;
        let world = World::new(topo, cfg);
        let mut queue = EventQueue::new();
        if let Some(interval) = sample {
            queue.schedule_at(SimTime::ZERO + interval, Event::Sample);
        }
        // Compile the fault schedule into ordinary queue entries up
        // front: arrival order then follows the deterministic
        // `(time, seq)` tie-break, and an empty schedule adds nothing.
        for sf in world.cfg.faults.events() {
            queue.schedule_at(sf.at, Event::Fault { fault: sf.fault });
        }
        FabricSim { world, queue }
    }

    /// Registers a flow and schedules its start.
    pub fn add_flow(&mut self, spec: FlowSpec) {
        let ix = self.world.register_flow(spec);
        self.queue
            .schedule_at(spec.start, Event::FlowStart { index: ix });
    }

    /// Registers many flows, sizing the flow storage once from the
    /// iterator's lower size bound instead of re-copying every
    /// `FlowState` through each doubling.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        let specs = specs.into_iter();
        self.world.reserve_flows(specs.size_hint().0);
        for s in specs {
            self.add_flow(s);
        }
    }

    /// Runs until `horizon` (events at or past it stay queued). Returns
    /// events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        dcn_sim::run_until(&mut self.world, &mut self.queue, horizon)
    }

    /// Runs until every registered flow has completed or `deadline`
    /// passes. Returns whether all flows completed.
    pub fn run_until_done(&mut self, deadline: SimTime) -> bool {
        let total = self.world.flow_count();
        run_while(&mut self.world, &mut self.queue, |w, t| {
            t < deadline && w.done_flows() < total
        });
        let done = self.world.done_flows() == total;
        if !done {
            // Deadline exit: account for the cancelled timers a
            // tombstoning queue would have popped as stale no-ops
            // inside the window. On the done exit the loop stopped at
            // the completing event's key, which `finish_pop` already
            // absorbed up to — exactly where a tombstoning pop loop
            // would have stopped.
            self.queue.absorb_ghosts_before(deadline);
        }
        done
    }

    /// The world (for inspection).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The shared flight-recorder handle (disabled unless
    /// [`FabricConfig::trace`] enabled it).
    pub fn trace(&self) -> &TraceHandle {
        self.world.trace()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Times the queue clamped a past-time scheduling up to `now`.
    /// Always zero in a correct model — asserted by the golden-digest
    /// test so a latent scheduling bug cannot hide behind the clamp.
    pub fn past_clamps(&self) -> u64 {
        self.queue.past_clamps()
    }

    /// Event-queue counters (high-water mark, heap depth, entry size,
    /// clamps) for the current state of this simulator.
    pub fn queue_stats(&self) -> dcn_sim::QueueStats {
        self.queue.stats()
    }

    /// Collects the run's results (clones the accumulated metrics; the
    /// simulator stays usable).
    pub fn results(&self) -> RunResults {
        let mut r = RunResults {
            // Dispatched events plus absorbed ghosts: byte-identical to
            // what a tombstoning queue would have popped, so the golden
            // digests survive the wheel migration unchanged.
            events_processed: self.queue.processed() + self.queue.ghost_pops(),
            unfinished_flows: self.world.flow_count() - self.world.done_flows(),
            queue: self.queue.stats(),
            irn: self.world.irn,
            rdma_stranded: self.world.rdma_stranded,
            flow_stalls: self.world.flow_stalls,
            ..RunResults::default()
        };
        for rec in &self.world.fct {
            r.fct.push(*rec);
        }
        // `fold_counters_into` also folds `rdma_stranded`/`flow_stalls`,
        // which the struct literal above already copied — zero them
        // first so the serial path doesn't double-count.
        r.rdma_stranded = 0;
        r.flow_stalls = 0;
        self.world.fold_counters_into(&mut r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PolicyChoice;
    use dcn_net::Priority;

    fn spec(
        id: u64,
        src: u32,
        dst: u32,
        size: u64,
        class: TrafficClass,
        start_us: u64,
    ) -> FlowSpec {
        FlowSpec {
            id: FlowId::new(id),
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            size: Bytes::new(size),
            start: SimTime::from_micros(start_us),
            class,
            priority: match class {
                TrafficClass::Lossless | TrafficClass::LossyRdma => Priority::new(3),
                TrafficClass::Lossy => Priority::new(1),
            },
        }
    }

    fn single_switch_sim(policy: PolicyChoice, hosts: usize) -> FabricSim {
        let topo =
            Topology::single_switch(hosts, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let cfg = FabricConfig {
            policy,
            sample_interval: None,
            ..FabricConfig::default()
        };
        FabricSim::new(topo, cfg)
    }

    fn two_hosts() -> Topology {
        Topology::single_switch(2, BitRate::from_gbps(25), SimDuration::from_micros(1))
    }

    /// An event is a packet plus where it lands; growing it is a
    /// deliberate edit of this bound (DESIGN.md §3.5).
    #[test]
    fn event_fits_48_bytes() {
        assert!(std::mem::size_of::<Event>() <= 48);
    }

    #[test]
    #[should_panic(expected = "dctcp.mss + dctcp.header = 70.0KB exceeds")]
    fn oversized_mss_is_refused_at_construction() {
        let topo = two_hosts();
        let mut cfg = FabricConfig::default();
        cfg.dctcp.mss = 70_000;
        let _ = FabricSim::new(topo, cfg);
    }

    #[test]
    #[should_panic(expected = "switch.mtu = 70.0KB exceeds")]
    fn oversized_switch_mtu_is_refused_at_construction() {
        let topo = two_hosts();
        let mut cfg = FabricConfig::default();
        cfg.switch.mtu = Bytes::new(70_000);
        let _ = FabricSim::new(topo, cfg);
    }

    /// Frames of exactly `MAX_FRAME` cross a switch (admission charge,
    /// in-flight record, delivery) and come out whole on both transports.
    #[test]
    fn largest_frame_flows_complete() {
        let topo = two_hosts();
        let mut cfg = FabricConfig {
            sample_interval: None,
            ..FabricConfig::default()
        };
        cfg.dctcp.mss = (dcn_net::MAX_FRAME - cfg.dctcp.header).as_u64();
        cfg.dcqcn.mtu = (dcn_net::MAX_FRAME - cfg.dcqcn.header).as_u64();
        let (mss, mtu) = (cfg.dctcp.mss, cfg.dcqcn.mtu);
        let mut sim = FabricSim::new(topo, cfg);
        sim.add_flow(spec(1, 0, 1, 3 * mss, TrafficClass::Lossy, 0));
        sim.add_flow(spec(2, 1, 0, 3 * mtu, TrafficClass::Lossless, 0));
        assert!(sim.run_until_done(SimTime::from_millis(50)));
        let r = sim.results();
        assert_eq!(r.fct.len(), 2);
        assert_eq!(r.drops.lossy_packets + r.drops.lossless_packets, 0);
    }

    #[test]
    fn one_rdma_flow_completes_near_ideal() {
        let mut sim = single_switch_sim(PolicyChoice::dt(), 2);
        sim.add_flow(spec(1, 0, 1, 100_000, TrafficClass::Lossless, 0));
        assert!(sim.run_until_done(SimTime::from_millis(50)));
        let r = sim.results();
        assert_eq!(r.fct.len(), 1);
        let rec = r.fct.records()[0];
        let slow = rec.slowdown();
        assert!(slow < 1.6, "uncongested flow slowdown {slow}");
        assert_eq!(r.drops.lossless_packets, 0);
        assert_eq!(r.pause_frames(), 0);
    }

    #[test]
    fn one_tcp_flow_completes() {
        let mut sim = single_switch_sim(PolicyChoice::dt(), 2);
        sim.add_flow(spec(1, 0, 1, 50_000, TrafficClass::Lossy, 0));
        assert!(sim.run_until_done(SimTime::from_millis(100)));
        let r = sim.results();
        assert_eq!(r.fct.len(), 1);
        // Window-limited short flow: a handful of RTTs.
        assert!(r.fct.records()[0].fct() < SimDuration::from_millis(1));
    }

    #[test]
    fn rdma_incast_is_lossless_under_every_policy() {
        for policy in [
            PolicyChoice::dt(),
            PolicyChoice::dt2(),
            PolicyChoice::abm(),
            PolicyChoice::l2bm(),
        ] {
            let mut sim = single_switch_sim(policy, 9);
            for i in 0..8 {
                sim.add_flow(spec(i, i as u32, 8, 250_000, TrafficClass::Lossless, 0));
            }
            let done = sim.run_until_done(SimTime::from_millis(200));
            let r = sim.results();
            assert!(done, "{}: incast must finish", policy.label());
            assert_eq!(
                r.drops.lossless_packets,
                0,
                "{}: lossless dropped",
                policy.label()
            );
            assert_eq!(r.fct.len(), 8);
        }
    }

    #[test]
    fn tcp_incast_completes_despite_drops() {
        let mut sim = single_switch_sim(PolicyChoice::dt(), 9);
        for i in 0..8 {
            sim.add_flow(spec(i, i as u32, 8, 250_000, TrafficClass::Lossy, 0));
        }
        assert!(sim.run_until_done(SimTime::from_millis(500)));
        let r = sim.results();
        assert_eq!(r.fct.len(), 8);
    }

    #[test]
    fn mixed_traffic_one_switch() {
        let mut sim = single_switch_sim(PolicyChoice::l2bm(), 6);
        for i in 0..4 {
            let class = if i % 2 == 0 {
                TrafficClass::Lossless
            } else {
                TrafficClass::Lossy
            };
            sim.add_flow(spec(i, i as u32, 5, 500_000, class, i * 3));
        }
        assert!(sim.run_until_done(SimTime::from_millis(500)));
        let r = sim.results();
        assert_eq!(r.fct.len(), 4);
        assert_eq!(r.drops.lossless_packets, 0);
    }

    #[test]
    fn clos_cross_rack_flow() {
        let topo = Topology::clos(&dcn_net::ClosConfig::small(4));
        let cfg = FabricConfig {
            sample_interval: None,
            ..FabricConfig::default()
        };
        let mut sim = FabricSim::new(topo, cfg);
        // Host 0 (rack 0) -> host 7 (rack 1): crosses the fabric.
        sim.add_flow(spec(1, 0, 7, 200_000, TrafficClass::Lossless, 0));
        sim.add_flow(spec(2, 1, 6, 200_000, TrafficClass::Lossy, 0));
        assert!(sim.run_until_done(SimTime::from_millis(100)));
        let r = sim.results();
        assert_eq!(r.fct.len(), 2);
        assert_eq!(r.drops.lossless_packets, 0);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = || {
            let mut sim = single_switch_sim(PolicyChoice::l2bm(), 9);
            for i in 0..8 {
                let class = if i % 2 == 0 {
                    TrafficClass::Lossless
                } else {
                    TrafficClass::Lossy
                };
                sim.add_flow(spec(i, i as u32, 8, 300_000, class, 0));
            }
            sim.run_until_done(SimTime::from_millis(500));
            let r = sim.results();
            (
                r.fct
                    .records()
                    .iter()
                    .map(|x| (x.flow, x.finish))
                    .collect::<Vec<_>>(),
                r.pause_frames(),
                r.events_processed,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn occupancy_sampling_produces_series() {
        let topo = Topology::single_switch(3, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let cfg = FabricConfig {
            sample_interval: Some(SimDuration::from_micros(100)),
            ..FabricConfig::default()
        };
        let mut sim = FabricSim::new(topo, cfg);
        sim.add_flow(spec(1, 0, 2, 500_000, TrafficClass::Lossless, 0));
        sim.add_flow(spec(2, 1, 2, 500_000, TrafficClass::Lossless, 0));
        sim.run_until(SimTime::from_millis(2));
        let r = sim.results();
        let series = r.occupancy.values().next().expect("one switch sampled");
        assert!(series.len() >= 10);
        assert!(series.peak() > Bytes::ZERO, "incast must queue something");
    }

    #[test]
    fn trace_reconciles_with_counters_and_does_not_change_behavior() {
        use dcn_sim::TraceConfig;
        let run = |traced: bool| {
            let topo =
                Topology::single_switch(9, BitRate::from_gbps(25), SimDuration::from_micros(1));
            let cfg = FabricConfig {
                policy: PolicyChoice::l2bm(),
                switch: dcn_switch::SwitchConfig {
                    total_buffer: Bytes::from_kb(96),
                    ..Default::default()
                },
                sample_interval: None,
                trace: if traced {
                    TraceConfig::enabled()
                } else {
                    TraceConfig::default()
                },
                ..FabricConfig::default()
            };
            let mut sim = FabricSim::new(topo, cfg);
            for i in 0..8 {
                let class = if i % 2 == 0 {
                    TrafficClass::Lossless
                } else {
                    TrafficClass::Lossy
                };
                sim.add_flow(spec(i, i as u32, 8, 300_000, class, 0));
            }
            assert!(sim.run_until_done(SimTime::from_millis(500)));
            sim
        };

        let traced = run(true);
        let r = traced.results();
        let totals = traced.trace().with(|rec| rec.totals()).expect("enabled");
        assert_eq!(
            totals.drops(),
            r.drops.lossy_packets + r.drops.lossless_packets,
            "trace drop causes must sum to RunResults drop counters"
        );
        assert_eq!(totals.pfc_pauses, r.pause_frames());
        assert_eq!(totals.rdma_stranded, 0);

        // Tracing must be observation-only: identical digest untraced.
        let plain = run(false);
        assert!(plain.trace().with(|_| ()).is_none(), "recorder absent");
        let rp = plain.results();
        let digest = |r: &RunResults| {
            (
                r.fct
                    .records()
                    .iter()
                    .map(|x| (x.flow, x.finish))
                    .collect::<Vec<_>>(),
                r.pause_frames(),
                r.drops.lossy_packets,
                r.events_processed,
            )
        };
        assert_eq!(digest(&r), digest(&rp));
    }

    #[test]
    fn multi_loss_tcp_incast_recovers_without_timeouts_dominating() {
        // Regression companion to the NewReno fix, at fabric level: a
        // lossy incast over a small buffer must repair most windows via
        // fast recovery (partial-ACK retransmits), not serial RTOs.
        use dcn_sim::{TraceConfig, TraceEvent};
        let topo = Topology::single_switch(9, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let cfg = FabricConfig {
            policy: PolicyChoice::l2bm(),
            switch: dcn_switch::SwitchConfig {
                total_buffer: Bytes::from_kb(64),
                ..Default::default()
            },
            sample_interval: None,
            trace: TraceConfig::enabled(),
            ..FabricConfig::default()
        };
        let mut sim = FabricSim::new(topo, cfg);
        for i in 0..8 {
            sim.add_flow(spec(i, i as u32, 8, 250_000, TrafficClass::Lossy, 0));
        }
        assert!(sim.run_until_done(SimTime::from_millis(500)));
        let r = sim.results();
        assert!(r.drops.lossy_packets > 0, "scenario must actually drop");
        let (partial_rtx, rto_fires) = sim
            .trace()
            .with(|rec| {
                let mut p = 0u64;
                let mut t = 0u64;
                for record in rec.records() {
                    match record.event {
                        TraceEvent::TcpPartialAckRetransmit { .. } => p += 1,
                        TraceEvent::RtoFire { .. } => t += 1,
                        _ => {}
                    }
                }
                (p, t)
            })
            .expect("enabled");
        assert!(
            partial_rtx > 0,
            "multi-loss windows must exercise NewReno partial-ACK retransmits"
        );
        assert!(
            partial_rtx >= rto_fires,
            "fast recovery should repair at least as many holes as RTOs do \
             (partial rtx {partial_rtx}, rto fires {rto_fires})"
        );
    }

    #[test]
    fn pfc_pauses_under_pressure_with_small_alpha() {
        // 8-into-1 at line rate with DT(0.125) and a small buffer: the
        // ingress queues cross their thresholds and pause frames flow.
        let topo = Topology::single_switch(9, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let cfg = FabricConfig {
            policy: PolicyChoice::dt(),
            switch: dcn_switch::SwitchConfig {
                total_buffer: Bytes::from_kb(200),
                ..Default::default()
            },
            sample_interval: None,
            ..FabricConfig::default()
        };
        let mut sim = FabricSim::new(topo, cfg);
        for i in 0..8 {
            sim.add_flow(spec(i, i as u32, 8, 500_000, TrafficClass::Lossless, 0));
        }
        assert!(sim.run_until_done(SimTime::from_secs(2)));
        let r = sim.results();
        assert!(r.pause_frames() > 0, "small buffer must trigger PFC");
        assert_eq!(r.drops.lossless_packets, 0, "headroom must cover in-flight");
    }

    fn irn_sim(policy: PolicyChoice, hosts: usize, buffer_kb: u64) -> FabricSim {
        let topo =
            Topology::single_switch(hosts, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let cfg = FabricConfig {
            policy,
            rdma_transport: RdmaTransport::Irn,
            switch: dcn_switch::SwitchConfig {
                total_buffer: Bytes::from_kb(buffer_kb),
                ..Default::default()
            },
            sample_interval: None,
            trace: dcn_sim::TraceConfig::enabled(),
            ..FabricConfig::default()
        };
        FabricSim::new(topo, cfg)
    }

    #[test]
    fn one_irn_flow_completes_near_ideal() {
        let mut sim = irn_sim(PolicyChoice::dt(), 2, 1_000);
        sim.add_flow(spec(1, 0, 1, 100_000, TrafficClass::Lossless, 0));
        assert!(sim.run_until_done(SimTime::from_millis(50)));
        let r = sim.results();
        assert_eq!(r.fct.len(), 1);
        assert_eq!(r.irn.flows, 1, "lossless spec must run IRN endpoints");
        let slow = r.fct.records()[0].slowdown();
        assert!(slow < 1.6, "uncongested IRN flow slowdown {slow}");
        // Clean path: nothing lost, nothing NACKed, nothing retransmitted,
        // and crucially no PFC — lossy RDMA never pauses.
        assert_eq!(r.irn.nacks(), 0);
        assert_eq!(r.irn.retransmitted_packets, 0);
        assert_eq!(r.irn.rto_fires, 0);
        assert_eq!(r.pause_frames(), 0);
        assert_eq!(r.drops.lossy_rdma_packets, 0);
    }

    #[test]
    fn irn_incast_recovers_from_drops_without_pfc() {
        // 8-into-1 over a buffer small enough to overflow: the lossless
        // universe would PFC-pause its way through; the IRN universe
        // must instead drop, NACK, retransmit, and still finish.
        let mut sim = irn_sim(PolicyChoice::l2bm(), 9, 64);
        for i in 0..8 {
            sim.add_flow(spec(i, i as u32, 8, 250_000, TrafficClass::Lossless, 0));
        }
        assert!(sim.run_until_done(SimTime::from_millis(500)));
        let r = sim.results();
        assert_eq!(r.fct.len(), 8, "every IRN flow must complete");
        assert_eq!(r.irn.flows, 8);
        assert_eq!(r.pause_frames(), 0, "lossy RDMA must never PFC-pause");
        assert!(
            r.drops.lossy_rdma_packets > 0,
            "incast over 64 KB must overflow"
        );
        assert!(r.irn.nacks() > 0, "drops must trigger NACKs");
        assert!(r.irn.retransmitted_packets > 0, "NACKs must repair holes");
        assert_eq!(r.rdma_stranded, 0);

        // Flight-recorder reconciliation: trace totals match counters.
        let totals = sim.trace().with(|rec| rec.totals()).expect("enabled");
        assert_eq!(totals.irn_nacks, r.irn.nacks());
        assert_eq!(totals.irn_retransmits, r.irn.retransmitted_packets);
        assert_eq!(
            totals.drops(),
            r.drops.lossy_packets + r.drops.lossless_packets,
            "lossy-RDMA drops are a refinement of the lossy total"
        );
    }

    #[test]
    fn irn_retransmissions_are_causally_preceded_by_nack_or_rto() {
        // Satellite invariant at fabric level: every IrnRetransmit in
        // the trace is preceded by an IrnNack for the same flow (with a
        // nack_seq at or below the retransmitted seq — GBN resends from
        // the hole) or by an RtoFire for that flow.
        use std::collections::HashSet;
        let mut sim = irn_sim(PolicyChoice::dt(), 9, 64);
        for i in 0..8 {
            sim.add_flow(spec(i, i as u32, 8, 250_000, TrafficClass::Lossless, 0));
        }
        assert!(sim.run_until_done(SimTime::from_millis(500)));
        let r = sim.results();
        assert!(r.irn.retransmitted_packets > 0, "scenario must retransmit");
        let unexplained = sim
            .trace()
            .with(|rec| {
                let mut nacked: HashSet<(u64, u64)> = HashSet::new();
                let mut rto_fired: HashSet<u64> = HashSet::new();
                let mut unexplained = 0u64;
                for record in rec.records() {
                    match record.event {
                        TraceEvent::IrnNack { flow, nack_seq, .. } => {
                            nacked.insert((flow, nack_seq));
                        }
                        TraceEvent::RtoFire { flow, .. } => {
                            rto_fired.insert(flow);
                        }
                        TraceEvent::IrnRetransmit { flow, seq } => {
                            let by_nack = nacked.iter().any(|&(f, ns)| f == flow && ns <= seq);
                            if !by_nack && !rto_fired.contains(&flow) {
                                unexplained += 1;
                            }
                        }
                        _ => {}
                    }
                }
                unexplained
            })
            .expect("enabled");
        assert_eq!(unexplained, 0, "orphan retransmissions in trace");
    }

    #[test]
    fn flow_watchdog_is_quiet_on_healthy_runs_and_counts_stalls() {
        // Healthy run, watchdog armed: no stall episodes, no defects.
        let topo = Topology::single_switch(3, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let cfg = FabricConfig {
            flow_watchdog: Some(SimDuration::from_micros(500)),
            sample_interval: None,
            ..FabricConfig::default()
        };
        let mut sim = FabricSim::new(topo, cfg);
        sim.add_flow(spec(1, 0, 2, 400_000, TrafficClass::Lossless, 0));
        assert!(sim.run_until_done(SimTime::from_millis(50)));
        assert_eq!(sim.results().flow_stalls, 0);

        // A flow whose path dies mid-transfer and never heals: the
        // DCQCN sender keeps pacing into a black hole; the watchdog is
        // the only thing that notices — exactly one episode.
        let topo = Topology::single_switch(3, BitRate::from_gbps(25), SimDuration::from_micros(1));
        let link = topo
            .wire(dcn_net::NodeId::new(0), PortId::new(0))
            .link
            .index() as u32;
        let mut faults = dcn_sim::FaultSchedule::none();
        faults.push(
            SimTime::from_micros(100),
            dcn_sim::FaultEvent::LinkDown { link },
        );
        let cfg = FabricConfig {
            flow_watchdog: Some(SimDuration::from_micros(500)),
            sample_interval: None,
            faults,
            ..FabricConfig::default()
        };
        let mut sim = FabricSim::new(topo, cfg);
        sim.add_flow(spec(1, 0, 2, 400_000, TrafficClass::Lossless, 0));
        assert!(!sim.run_until_done(SimTime::from_millis(20)));
        let r = sim.results();
        assert_eq!(r.unfinished_flows, 1);
        assert_eq!(r.flow_stalls, 1, "one stall episode, counted once");
    }

    #[test]
    fn default_config_carries_no_irn_state_into_results() {
        // With the default DCQCN transport and no watchdog, a run's
        // results must be indistinguishable from a build without IRN
        // support: zero IRN counters, no stranding, no stalls — so the
        // digest gate (`irn.flows > 0`) never opens.
        let mut sim = single_switch_sim(PolicyChoice::dt(), 3);
        sim.add_flow(spec(1, 0, 2, 100_000, TrafficClass::Lossless, 0));
        sim.add_flow(spec(2, 1, 2, 100_000, TrafficClass::Lossy, 0));
        assert!(sim.run_until_done(SimTime::from_millis(50)));
        let r = sim.results();
        assert_eq!(r.irn, dcn_metrics::IrnCounters::new());
        assert_eq!(r.rdma_stranded, 0);
        assert_eq!(r.flow_stalls, 0);
        assert_eq!(r.drops.lossy_rdma_packets, 0);
    }
}
