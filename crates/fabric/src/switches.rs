//! The fabric's shared-memory switches: forwarding and buffer admission,
//! PFC frames in and out, the PFC storm watchdog, port resets on link
//! faults, and occupancy sampling.

use dcn_metrics::OccupancySeries;
use dcn_net::{LinkEnd, NodeId, NodeKind, Packet, PfcFrame, PortId, Priority};
use dcn_sim::{BitRate, SimDuration, SimTime, TimerHandle, TraceDropCause};
use dcn_switch::{QueueIndex, SharedMemorySwitch};

use crate::config::FabricConfig;
use crate::results::RunResults;
use crate::wires::Wires;
use crate::world::{Event, Queue};

/// Every switch this world simulates.
#[derive(Debug)]
pub(crate) struct Switches {
    /// Indexed by `NodeId::index()`; `None` for hosts and for switches
    /// another shard owns. Boxed, so such a slot costs one pointer, not
    /// a switch's 656 bytes: on a k=16 fat-tree, 1 024 of the 1 344
    /// slots are hosts.
    switches: Vec<Option<Box<SharedMemorySwitch>>>,
    /// Storm-watchdog deadlines, indexed
    /// `[NodeId::index()][QueueIndex::flat()]`: a queue holds one
    /// exactly while its egress is paused ([`Switches::sync_watchdog`]).
    /// Empty without a watchdog and where `switches` is `None`.
    watchdog_timers: Vec<Vec<Option<TimerHandle>>>,
    /// Per-switch occupancy series, indexed by `NodeId::index()` (empty
    /// for hosts and for switches never sampled).
    occupancy: Vec<OccupancySeries>,
    /// PFC storm-watchdog threshold (`None` = no watchdog).
    pfc_watchdog: Option<SimDuration>,
    /// Occupancy sampling period (`None` = no sampling).
    sample_interval: Option<SimDuration>,
    /// IRN NACKs the switches generated toward senders.
    nacks: u64,
}

impl Switches {
    /// Builds the switches `wires` says this world owns.
    pub fn new(wires: &Wires, cfg: &FabricConfig) -> Switches {
        let topo = &wires.topo;
        let slots_per_port = if cfg.switch.pfc_watchdog.is_some() {
            Priority::COUNT
        } else {
            0
        };
        let (switches, watchdog_timers) = topo
            .nodes()
            .iter()
            .map(|node| {
                if node.kind != NodeKind::Switch || !wires.owns(node.id) {
                    return (None, Vec::new());
                }
                let ports = topo.wires_of(node.id);
                let rates: Vec<BitRate> = ports.iter().map(|w| topo.link(w.link).rate).collect();
                let mut sw = SharedMemorySwitch::new(
                    node.id,
                    cfg.switch.clone(),
                    rates,
                    cfg.policy.build(),
                    cfg.seed,
                );
                sw.set_trace(wires.trace.clone());
                // Size each port's headroom from its link: in-flight
                // bytes over a pause round trip (2 × BDP) plus slack
                // for the packets serializing at both ends when the
                // XOFF lands. The configured value acts as a floor.
                for (pix, w) in ports.iter().enumerate() {
                    let link = topo.link(w.link);
                    let bdp = link.rate.bytes_over(link.propagation);
                    let auto = bdp * 2 + cfg.switch.mtu * 4;
                    let cap = auto.max(cfg.switch.headroom_per_queue);
                    sw.set_port_headroom(PortId::new(pix as u16), cap);
                }
                (Some(Box::new(sw)), vec![None; ports.len() * slots_per_port])
            })
            .unzip();
        Switches {
            switches,
            watchdog_timers,
            occupancy: vec![OccupancySeries::new(); topo.node_count()],
            pfc_watchdog: cfg.switch.pfc_watchdog,
            sample_interval: cfg.sample_interval,
            nacks: 0,
        }
    }

    /// A switch by node id, if this world simulates it.
    pub fn get(&self, id: NodeId) -> Option<&SharedMemorySwitch> {
        self.switches.get(id.index()).and_then(Option::as_deref)
    }

    fn get_mut(&mut self, id: NodeId) -> &mut SharedMemorySwitch {
        self.switches[id.index()]
            .as_deref_mut()
            .expect("not a switch")
    }

    /// Forwards a packet arriving on `in_port`, and any IRN NACK the
    /// switch generates toward its sender.
    pub fn receive(
        &mut self,
        now: SimTime,
        node: NodeId,
        in_port: PortId,
        packet: Packet,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        let sw = self.get_mut(node);
        let Some(out_port) = wires.routes.next_port(node, packet.dst, packet.flow) else {
            // Every candidate next hop is down (or the destination is
            // unreachable): a counted drop, not a panic, so the fabric
            // survives injected failures. TCP retransmits after
            // recovery; a lossless flow hit here becomes a victim flow.
            sw.record_drop(now, &packet, in_port, TraceDropCause::NoRoute);
            return;
        };
        let res = sw.receive(now, packet, in_port, out_port);
        if let Some(e) = res.pfc {
            wires.emit_pfc(now, node, e, q);
        }
        if let Some(tx) = res.tx {
            wires.schedule_switch_tx(now, node, tx, q);
        }
        // Other drops need no action here: lossy transports recover via
        // dup-ACKs/RTO, and lossless drops are counted as config failures.
        // An out-of-order lossy-RDMA arrival: the switch generated an
        // IRN NACK toward the sender. Inject it here as if it entered
        // on the same port the offending data packet used. Recursion is
        // depth-1: only Data packets trigger NACK generation.
        if let Some(nack) = res.nack {
            self.nacks += 1;
            self.receive(now, node, in_port, nack, wires, q);
        }
    }

    /// A port finished serializing: start the next packet, and send any
    /// XON the departure released.
    pub fn tx_complete(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        let res = self.get_mut(node).tx_complete(now, port);
        if let Some(e) = res.pfc {
            wires.emit_pfc(now, node, e, q);
        }
        if let Some(tx) = res.next {
            wires.schedule_switch_tx(now, node, tx, q);
        }
    }

    /// Applies a PFC frame to the egress queue behind `port`. Real
    /// `PfcDeliver` frames and injected stuck pauses both come through
    /// here.
    pub fn pfc(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        frame: PfcFrame,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        let tx = self.get_mut(node).handle_pfc(now, port, frame);
        self.sync_watchdog(now, node, QueueIndex::new(port, frame.priority), q);
        if let Some(tx) = tx {
            wires.schedule_switch_tx(now, node, tx, q);
        }
    }

    /// A storm-watchdog deadline fired: force-resume `queue`, which the
    /// watchdog rule says is still paused.
    pub fn watchdog_fire(
        &mut self,
        now: SimTime,
        node: NodeId,
        queue: QueueIndex,
        wires: &mut Wires,
        q: &mut Queue,
    ) {
        // Firing consumed the wheel entry; the stored handle is dead.
        self.watchdog_timers[node.index()][queue.flat()] = None;
        let tx = self
            .get_mut(node)
            .pfc_watchdog_fire(now, queue.port, queue.priority);
        self.sync_watchdog(now, node, queue, q);
        if let Some(tx) = tx {
            wires.schedule_switch_tx(now, node, tx, q);
        }
    }

    /// The watchdog rule: `queue` of `node` holds a deadline exactly
    /// while its egress is paused. Arms one on a pause and cancels it on
    /// a resume; does nothing without a watchdog.
    fn sync_watchdog(&mut self, now: SimTime, node: NodeId, queue: QueueIndex, q: &mut Queue) {
        let Some(threshold) = self.pfc_watchdog else {
            return;
        };
        let paused = self.get_mut(node).mmu().egress_paused(queue);
        let slot = &mut self.watchdog_timers[node.index()][queue.flat()];
        match (paused, *slot) {
            (true, None) => {
                let (port, prio) = (queue.port, queue.priority);
                let ev = Event::PfcWatchdog { node, port, prio };
                *slot = Some(q.schedule_timer_after(now, threshold, ev));
            }
            (false, Some(h)) => {
                q.cancel_timer(h);
                *slot = None;
            }
            _ => {}
        }
    }

    /// The link behind `end` died: discharge everything queued to it.
    /// Freed shared buffer may release pause thresholds, so any XONs it
    /// emits are forwarded.
    pub fn port_down(&mut self, now: SimTime, end: LinkEnd, wires: &mut Wires, q: &mut Queue) {
        for e in self.get_mut(end.node).port_down(now, end.port) {
            wires.emit_pfc(now, end.node, e, q);
        }
    }

    /// The link behind `end` came back: port renegotiation forgets the
    /// pauses sent and received on it.
    pub fn port_up(&mut self, now: SimTime, end: LinkEnd, wires: &mut Wires, q: &mut Queue) {
        let tx = self.get_mut(end.node).reset_port_pfc(now, end.port);
        for prio in Priority::all() {
            self.sync_watchdog(now, end.node, QueueIndex::new(end.port, prio), q);
        }
        if let Some(tx) = tx {
            wires.schedule_switch_tx(now, end.node, tx, q);
        }
    }

    /// One occupancy sample per switch, then the next tick.
    pub fn sample(&mut self, now: SimTime, q: &mut Queue) {
        for sw in self.switches.iter().flatten() {
            self.occupancy[sw.id().index()].push(now, sw.occupancy());
        }
        if let Some(interval) = self.sample_interval {
            q.schedule_after(now, interval, Event::Sample);
        }
    }

    /// Folds PFC and drop counters, switch-generated NACKs and
    /// occupancy series into `r`.
    pub fn fold_into(&self, r: &mut RunResults) {
        for sw in self.switches.iter().flatten() {
            r.pfc.merge(sw.pfc_counters());
            r.drops.merge(sw.drop_counters());
        }
        r.irn.nacks_switch += self.nacks;
        for (i, series) in self.occupancy.iter().enumerate() {
            if !series.is_empty() {
                r.occupancy.insert(NodeId::new(i as u32), series.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{ClosConfig, Topology};

    /// Deadline slots per switch: one per queue with a watchdog, none
    /// without.
    fn slots(pfc_watchdog: Option<SimDuration>) -> Vec<usize> {
        let mut cfg = FabricConfig::default();
        cfg.switch.pfc_watchdog = pfc_watchdog;
        let wires = Wires::new(Topology::clos(&ClosConfig::small(4)), &cfg, None);
        let switches = Switches::new(&wires, &cfg);
        let topo = &wires.topo;
        topo.nodes()
            .iter()
            .filter(|n| n.kind == NodeKind::Switch)
            .map(|n| switches.watchdog_timers[n.id.index()].len())
            .collect()
    }

    #[test]
    fn no_switch_holds_a_deadline_slot_without_a_watchdog() {
        let off = slots(None);
        assert!(!off.is_empty());
        assert!(off.iter().all(|&n| n == 0), "{off:?}");
        let on = slots(Some(SimDuration::from_micros(500)));
        assert!(
            on.iter().all(|&n| n > 0 && n % Priority::COUNT == 0),
            "{on:?}"
        );
    }
}
