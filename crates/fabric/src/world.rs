//! The event loop: routes deliveries, transmissions, PFC frames, faults
//! and transport timers to the part of the fabric that owns them.
//!
//! The per-packet hot path performs no hashing: flow lookup goes through
//! the dense banked [`crate::FlowTable`] and occupancy sampling through
//! a node-indexed `Vec` — see DESIGN.md §3.5.

use std::sync::Arc;

use dcn_metrics::FctRecord;
use dcn_net::{FlowId, NodeId, NodeKind, Packet, Partition, PfcFrame, PortId, Priority, Topology};
use dcn_sim::{run_while, EventQueue, FaultEvent, SimDuration, SimTime, Simulation, TraceHandle};
use dcn_switch::{QueueIndex, SharedMemorySwitch};
use dcn_transport::RpTimerKind;
use dcn_workload::FlowSpec;

use crate::config::FabricConfig;
use crate::host::Hosts;
use crate::results::RunResults;
use crate::switches::Switches;
use crate::wires::{Handoff, Wires};

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
    /// through a [`dcn_sim::TimerHandle`]; a firing timer is live by
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
    /// A PFC storm-watchdog deadline: force-resume the paused egress
    /// queue. Wheel-armed like [`Event::Rto`]; a queue holds one exactly
    /// while it is paused (armed at the pause, cancelled at a resume or
    /// port reset), so a deadline that fires finds its queue paused.
    PfcWatchdog {
        /// The switch.
        node: NodeId,
        /// The paused egress port.
        port: PortId,
        /// The paused priority.
        prio: Priority,
    },
}

/// The fabric's event queue.
pub(crate) type Queue = EventQueue<Event>;

/// The grid a finished run ends on. Once every flow is done, both
/// engines dispatch to the end of the grid cell holding the last
/// completion and no further, so the sharded executor — whose windows
/// never cross a grid line — stops where the serial engine does
/// without dispatching past it (DESIGN.md §4.10). It is at least every
/// shipped lookahead, so few windows split on it.
pub(crate) const END_GRID: SimDuration = SimDuration::from_micros(10);

/// The end of the (half-open) [`END_GRID`] cell holding `t`.
pub(crate) fn end_of_cell(t: SimTime) -> SimTime {
    let g = END_GRID.as_nanos();
    SimTime::from_nanos((t.as_nanos() / g + 1) * g)
}

/// The complete simulated fabric: a thin router that hands each event
/// to the part owning the state it touches — the `Wires` between
/// nodes, the `Switches`, or the `Hosts` and their flows.
#[derive(Debug)]
pub struct World {
    wires: Wires,
    switches: Switches,
    hosts: Hosts,
}

impl World {
    /// Builds the fabric, or one shard's slice of it: topology and
    /// routing are replicated, while switches and hosts are constructed
    /// only for the nodes this shard owns.
    pub(crate) fn new(
        topo: Topology,
        cfg: &FabricConfig,
        shard: Option<(Arc<Partition>, u32)>,
    ) -> World {
        let wires = Wires::new(topo, cfg, shard);
        World {
            switches: Switches::new(&wires, cfg),
            hosts: Hosts::new(&wires, cfg),
            wires,
        }
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.wires.topo
    }

    /// Completed flows so far.
    pub fn done_flows(&self) -> usize {
        self.hosts.done_flows
    }

    /// Registered flows.
    pub fn flow_count(&self) -> usize {
        self.hosts.flow_count()
    }

    /// A switch by node id, if that node is a switch.
    pub fn switch(&self, id: NodeId) -> Option<&SharedMemorySwitch> {
        self.switches.get(id)
    }

    pub(crate) fn register_flow(&mut self, spec: FlowSpec) -> usize {
        self.hosts.register_flow(spec, &self.wires)
    }

    /// Routes a PFC frame to the switch or host NIC at `node`. Real
    /// `PfcDeliver` frames and injected stuck pauses both come here.
    fn pfc_in(&mut self, now: SimTime, node: NodeId, port: PortId, frame: PfcFrame, q: &mut Queue) {
        let wires = &mut self.wires;
        match wires.topo.node(node).kind {
            NodeKind::Switch => self.switches.pfc(now, node, port, frame, wires, q),
            NodeKind::Host => self.hosts.pfc(now, node, frame, wires, q),
        }
    }

    fn apply_fault(&mut self, now: SimTime, fault: FaultEvent, q: &mut Queue) {
        match fault {
            FaultEvent::LinkDown { link } | FaultEvent::LinkUp { link } => {
                let up = matches!(fault, FaultEvent::LinkUp { .. });
                let l = self.wires.set_up(link, up);
                // Switch ends of a dead link discharge its queue; host
                // ends need nothing (their packets die at delivery). A
                // revived link resets PFC state at both ends.
                for end in [l.a, l.b] {
                    let wires = &mut self.wires;
                    match (wires.topo.node(end.node).kind, up) {
                        (NodeKind::Switch, false) => self.switches.port_down(now, end, wires, q),
                        (NodeKind::Switch, true) => self.switches.port_up(now, end, wires, q),
                        (NodeKind::Host, true) => self.hosts.port_up(now, end.node, wires, q),
                        (NodeKind::Host, false) => {}
                    }
                }
            }
            FaultEvent::CorruptionStart { link, ber } => self.wires.set_ber(link, ber),
            FaultEvent::CorruptionEnd { link } => self.wires.set_ber(link, 0.0),
            FaultEvent::PauseStuck { node, port, prio }
            | FaultEvent::PauseRelease { node, port, prio } => {
                // A release after the storm watchdog force-resumed is a
                // no-op pause-wise but may still start a blocked
                // transmission.
                let frame = PfcFrame {
                    priority: Priority::new(prio),
                    pause: matches!(fault, FaultEvent::PauseStuck { .. }),
                };
                self.pfc_in(now, NodeId::new(node), PortId::new(port), frame, q);
            }
        }
    }

    // ---- sharded-executor hooks (crate-internal) ----------------------

    /// The cross-shard messages generated since the executor last
    /// emptied them, indexed by destination shard.
    pub(crate) fn outbox(&mut self) -> &mut [Vec<Handoff>] {
        self.wires.outbox()
    }

    /// Admits a handoff received at a window barrier, carrying its
    /// source-drawn stamp into this shard's queue verbatim.
    pub(crate) fn admit_handoff(&mut self, h: Handoff, q: &mut Queue) {
        q.schedule_at_stamped(h.at, h.event, &h.stamp);
    }

    /// Folds this world's order-independent counters (PFC, drops,
    /// occupancy, IRN counters, liveness diagnostics) into `r`. Shared
    /// by the serial result collection and the sharded merge.
    pub(crate) fn fold_counters_into(&self, r: &mut RunResults) {
        self.switches.fold_into(r);
        r.drops.merge(&self.wires.wire_drops);
        self.hosts.fold_into(r);
    }

    /// FCT records in completion order.
    pub(crate) fn fct_records(&self) -> &[FctRecord] {
        &self.hosts.fct
    }

    /// How many registered flows this world counts toward the global
    /// done total (all of them for the serial engine).
    pub(crate) fn counting_flows(&self) -> usize {
        self.hosts.counting_flows(&self.wires)
    }
}

impl Simulation for World {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, q: &mut Queue) {
        let wires = &mut self.wires;
        match event {
            Event::FlowStart { index } => self.hosts.start_flow(now, index, wires, q),
            Event::Deliver {
                node,
                in_port,
                packet,
            } => {
                if !wires.survives(now, node, in_port, &packet) {
                    // Lost on the wire: `survives` counted and traced it.
                } else if wires.topo.node(node).kind == NodeKind::Host {
                    self.hosts.receive(now, node, packet, wires, q);
                } else {
                    self.switches.receive(now, node, in_port, packet, wires, q);
                }
            }
            Event::PfcDeliver {
                node,
                in_port,
                frame,
            } => {
                // Control frames on a dead link are lost like data; they
                // are counted at the sender, so no drop is recorded.
                if wires.is_up(node, in_port) {
                    self.pfc_in(now, node, in_port, frame, q);
                }
            }
            Event::SwitchTxComplete { node, port } => {
                self.switches.tx_complete(now, node, port, wires, q);
            }
            Event::HostTxComplete { host } => self.hosts.tx_complete(now, host, wires, q),
            Event::RdmaPace { flow } => self.hosts.rdma_pace(now, flow, wires, q),
            Event::Rto { flow } => self.hosts.rto(now, flow, wires, q),
            Event::FlowWatchdog { flow } => self.hosts.flow_watchdog(now, flow, q),
            Event::RpTimer { flow, kind } => self.hosts.rp_timer(now, flow, kind, q),
            Event::Sample => self.switches.sample(now, q),
            Event::Fault { fault } => self.apply_fault(now, fault, q),
            Event::PfcWatchdog { node, port, prio } => {
                let queue = QueueIndex::new(port, prio);
                self.switches.watchdog_fire(now, node, queue, wires, q);
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
    /// MTU, exceeds [`dcn_net::MAX_FRAME`], or if a scheduled fault
    /// names a link, node, port or priority the topology lacks or a
    /// bit-error rate outside `[0, 1]`.
    pub fn new(topo: Topology, cfg: FabricConfig) -> FabricSim {
        cfg.assert_valid(&topo);
        let world = World::new(topo, &cfg, None);
        let mut queue = EventQueue::new();
        if let Some(interval) = cfg.sample_interval {
            queue.schedule_at(SimTime::ZERO + interval, Event::Sample);
        }
        // Compile the fault schedule into ordinary queue entries up
        // front: arrival order then follows the deterministic
        // `(time, seq)` tie-break, and an empty schedule adds nothing.
        for sf in cfg.faults.events() {
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
    /// flow's state through each doubling.
    pub fn add_flows(&mut self, specs: impl IntoIterator<Item = FlowSpec>) {
        let specs = specs.into_iter();
        self.world.hosts.reserve_flows(specs.size_hint().0);
        for s in specs {
            self.add_flow(s);
        }
    }

    /// Runs until `horizon` (events at or past it stay queued). Returns
    /// events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        dcn_sim::run_until(&mut self.world, &mut self.queue, horizon)
    }

    /// Runs until `deadline`, or until the end of the 10 µs grid cell
    /// holding the last flow's completion, whichever comes first:
    /// events at or past that stop stay queued. A run without flows
    /// dispatches nothing. Returns whether all flows completed.
    pub fn run_until_done(&mut self, deadline: SimTime) -> bool {
        let total = self.world.flow_count();
        let mut stop = deadline;
        // The time of the last dispatched pop.
        let mut last: Option<SimTime> = None;
        run_while(&mut self.world, &mut self.queue, |w, t| {
            if w.done_flows() == total {
                // Pops after the completing one lie in its cell, so
                // re-capping leaves `stop` unchanged.
                stop = stop.min(last.map_or(SimTime::ZERO, end_of_cell));
            }
            last = Some(t);
            t < stop
        });
        self.world.done_flows() == total
    }

    /// The world (for inspection).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// The shared flight-recorder handle (disabled unless
    /// [`FabricConfig::trace`] enabled it).
    pub fn trace(&self) -> &TraceHandle {
        &self.world.wires.trace
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

    /// Collects the run's results (clones the accumulated metrics; the
    /// simulator stays usable).
    pub fn results(&self) -> RunResults {
        let mut r = RunResults {
            events_processed: self.queue.processed(),
            unfinished_flows: self.world.flow_count() - self.world.done_flows(),
            queue: self.queue.stats(),
            ..RunResults::default()
        };
        for rec in self.world.fct_records() {
            r.fct.push(*rec);
        }
        self.world.fold_counters_into(&mut r);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PolicyChoice, RdmaTransport};
    use dcn_net::TrafficClass;
    use dcn_sim::{BitRate, Bytes, SimDuration, TraceEvent};

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

    #[test]
    #[should_panic(expected = "dctcp.mss must be non-zero")]
    fn zero_mss_is_refused_at_construction() {
        let mut cfg = FabricConfig::default();
        cfg.dctcp.mss = 0;
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "dctcp.rto must be non-zero")]
    fn zero_dctcp_rto_is_refused_at_construction() {
        let mut cfg = FabricConfig::default();
        cfg.dctcp.rto = SimDuration::ZERO;
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "dctcp.max_rto must be non-zero")]
    fn zero_dctcp_max_rto_is_refused_at_construction() {
        let mut cfg = FabricConfig::default();
        cfg.dctcp.max_rto = SimDuration::ZERO;
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "irn.rto must be non-zero")]
    fn zero_irn_rto_is_refused_at_construction() {
        let mut cfg = FabricConfig::default();
        cfg.irn.rto = SimDuration::ZERO;
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "irn.max_rto must be non-zero")]
    fn zero_irn_max_rto_is_refused_at_construction() {
        let mut cfg = FabricConfig::default();
        cfg.irn.max_rto = SimDuration::ZERO;
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "irn.window = 500B is below irn.mtu = 1000")]
    fn irn_window_below_one_segment_is_refused_at_construction() {
        let mut cfg = FabricConfig::default();
        cfg.irn.window = Bytes::new(500);
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "dcqcn.mtu must be non-zero")]
    fn zero_dcqcn_mtu_is_refused_at_construction() {
        let mut cfg = FabricConfig::default();
        cfg.dcqcn.mtu = 0;
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "irn.mtu must be non-zero")]
    fn zero_irn_mtu_is_refused_at_construction() {
        let mut cfg = FabricConfig::default();
        cfg.irn.mtu = 0;
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "sample_interval must be non-zero")]
    fn zero_sample_interval_is_refused_at_construction() {
        let cfg = FabricConfig {
            sample_interval: Some(SimDuration::ZERO),
            ..FabricConfig::default()
        };
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    #[test]
    #[should_panic(expected = "flow_watchdog must be non-zero")]
    fn zero_flow_watchdog_is_refused_at_construction() {
        let cfg = FabricConfig {
            flow_watchdog: Some(SimDuration::ZERO),
            ..FabricConfig::default()
        };
        let _ = FabricSim::new(two_hosts(), cfg);
    }

    /// Two hosts (nodes 0–1, one port each) on a two-port switch (node
    /// 2) over links 0–1, with a valid fault ahead of `fault`.
    fn with_fault(fault: FaultEvent) -> FabricSim {
        let mut faults = dcn_sim::FaultSchedule::none();
        faults.push(
            SimTime::from_micros(1),
            FaultEvent::CorruptionEnd { link: 1 },
        );
        faults.push(SimTime::from_micros(2), fault);
        let cfg = FabricConfig {
            faults,
            ..FabricConfig::default()
        };
        FabricSim::new(two_hosts(), cfg)
    }

    #[test]
    #[should_panic(expected = "faults[1].link = 2 is not a link of the topology")]
    fn fault_on_an_unknown_link_is_refused_at_construction() {
        with_fault(FaultEvent::LinkDown { link: 2 });
    }

    #[test]
    #[should_panic(expected = "faults[1].node = 3 is not a node of the topology")]
    fn fault_on_an_unknown_node_is_refused_at_construction() {
        with_fault(FaultEvent::PauseStuck {
            node: 3,
            port: 0,
            prio: 3,
        });
    }

    #[test]
    #[should_panic(expected = "faults[1].port = 1 is not a port of node 0")]
    fn fault_on_a_port_the_node_lacks_is_refused_at_construction() {
        with_fault(FaultEvent::PauseStuck {
            node: 0,
            port: 1,
            prio: 3,
        });
    }

    #[test]
    #[should_panic(expected = "faults[1].prio = 8 is not a priority")]
    fn fault_on_priority_eight_is_refused_at_construction() {
        with_fault(FaultEvent::PauseRelease {
            node: 2,
            port: 1,
            prio: 8,
        });
    }

    #[test]
    #[should_panic(expected = "faults[1].ber = NaN is not a probability in [0, 1]")]
    fn nan_bit_error_rate_is_refused_at_construction() {
        with_fault(FaultEvent::CorruptionStart {
            link: 0,
            ber: f64::NAN,
        });
    }

    #[test]
    #[should_panic(expected = "faults[1].ber = 1.5 is not a probability in [0, 1]")]
    fn bit_error_rate_above_one_is_refused_at_construction() {
        with_fault(FaultEvent::CorruptionStart { link: 0, ber: 1.5 });
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

    /// A finished run ends on the grid: the sampler ticks on to the end
    /// of the grid cell holding the last completion, and not past it.
    #[test]
    fn finished_run_samples_to_the_end_of_the_completions_grid_cell() {
        let tick = SimDuration::from_nanos(250);
        let cfg = FabricConfig {
            sample_interval: Some(tick),
            ..FabricConfig::default()
        };
        let mut sim = FabricSim::new(two_hosts(), cfg);
        sim.add_flow(spec(1, 0, 1, 40_000, TrafficClass::Lossless, 0));
        assert!(sim.run_until_done(SimTime::from_millis(10)));
        let r = sim.results();
        let cell_end = end_of_cell(r.fct.records()[0].finish);
        let series = r.occupancy.values().next().expect("one switch sampled");
        let (last, _) = *series.samples().last().expect("sampled");
        assert!(
            last < cell_end && last + tick >= cell_end,
            "last sample {last:?}, cell end {cell_end:?}"
        );
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
