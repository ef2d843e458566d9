//! The links between nodes: topology, routing, link-fault state, and
//! the helpers that put a packet or PFC frame on a wire — into the local
//! queue, or as a handoff to the shard that owns the far end.

use std::sync::Arc;

use dcn_metrics::DropCounters;
use dcn_net::{Link, LinkId, NodeId, Packet, Partition, PortId, RoutingTable, Topology, Wire};
use dcn_sim::{FaultEvent, SimRng, SimTime, Stamp, TraceDropCause, TraceHandle};
use dcn_switch::{record_loss, PfcEmit, TxStart};

use crate::config::FabricConfig;
use crate::world::{Event, Queue};

/// A stamped cross-shard event (a `Deliver` or `PfcDeliver`), generated
/// during one window and admitted by its destination shard at the next
/// barrier. The stamp was drawn in emission order at the source, so the
/// destination dispatches it at exactly the `(time, stamp)` key the
/// serial engine would have used.
#[derive(Debug)]
pub(crate) struct Handoff {
    /// Fire time (provably ≥ the next window's start).
    pub(crate) at: SimTime,
    /// Admission stamp carried verbatim across the shard boundary.
    pub(crate) stamp: Stamp,
    /// The event.
    pub(crate) event: Event,
}

/// Spatial-sharding context: which shard this world is, the global
/// node→shard map, and the cross-shard messages generated in the
/// current window, one batch per destination shard.
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

/// Every wire of the fabric. Each shard of a sharded run holds the
/// whole topology and routing table.
#[derive(Debug)]
pub(crate) struct Wires {
    pub(crate) topo: Topology,
    pub(crate) routes: RoutingTable,
    /// Per-link fault state, indexed by `LinkId::index()`.
    link_state: Vec<LinkState>,
    /// Corruption-loss RNG streams, one per `(link, direction)`
    /// (indexed `link.index() * 2 + dir`, where dir 0 receives at
    /// `link.a`). Only populated when the fault schedule contains a
    /// corruption window — zero-fault runs make no draws and allocate
    /// nothing.
    fault_rng: Vec<SimRng>,
    /// Packets lost on the wire (dead link or corruption) — charged to
    /// the fabric, not any switch's admission counters.
    pub(crate) wire_drops: DropCounters,
    /// The run's flight recorder (every node holds a clone).
    pub(crate) trace: TraceHandle,
    /// Spatial-sharding context (`None` for the serial engine).
    shard: Option<ShardCtx>,
}

impl Wires {
    pub fn new(topo: Topology, cfg: &FabricConfig, shard: Option<(Arc<Partition>, u32)>) -> Wires {
        let links = topo.links().len();
        // One independent stream per (link, direction): corruption draws
        // then depend only on the receiving link end, never on how many
        // other links are corrupting.
        let corrupts = cfg
            .faults
            .events()
            .iter()
            .any(|sf| matches!(sf.fault, FaultEvent::CorruptionStart { .. }));
        let streams = if corrupts { links * 2 } else { 0 };
        let fault_rng = (0..streams)
            .map(|i| {
                let salt = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                SimRng::seed_from_u64(cfg.seed ^ 0xFA01_7EC7_ED00_C0DE ^ salt)
            })
            .collect();
        Wires {
            routes: RoutingTable::shortest_paths(&topo),
            topo,
            link_state: vec![LinkState { up: true, ber: 0.0 }; links],
            fault_rng,
            wire_drops: DropCounters::new(),
            trace: TraceHandle::from_config(&cfg.trace),
            shard: shard.map(|(part, shard)| ShardCtx {
                outbox: (0..part.shards()).map(|_| Vec::new()).collect(),
                part,
                shard,
            }),
        }
    }

    /// Whether this world simulates `node` (always true for the serial
    /// engine; sharded worlds own a spatial slice of the topology).
    pub fn owns(&self, node: NodeId) -> bool {
        self.shard
            .as_ref()
            .is_none_or(|ctx| ctx.part.shard_of(node) == ctx.shard as usize)
    }

    /// The cross-shard messages generated since the executor last
    /// emptied them, indexed by destination shard (no batches for the
    /// serial engine).
    pub fn outbox(&mut self) -> &mut [Vec<Handoff>] {
        match &mut self.shard {
            Some(ctx) => &mut ctx.outbox,
            None => &mut [],
        }
    }

    /// Schedules `ev` (destined for `dest`) locally when this world owns
    /// the node, otherwise stamps it with the pop's next emission stamp
    /// and queues a handoff for the owner shard. Drawing the stamp in
    /// emission order means the receiving shard admits the event at
    /// exactly the `(time, stamp)` key the serial engine's `(time, seq)`
    /// insertion would have produced.
    fn schedule_or_handoff(&mut self, at: SimTime, dest: NodeId, ev: Event, q: &mut Queue) {
        if self.owns(dest) {
            q.schedule_at(at, ev);
        } else {
            let stamp = q.next_child_stamp();
            let ctx = self.shard.as_mut().expect("unowned node implies sharding");
            ctx.outbox[ctx.part.shard_of(dest)].push(Handoff {
                at,
                stamp,
                event: ev,
            });
        }
    }

    /// A switch started serializing `tx` (see [`Wires::schedule_tx`]).
    pub fn schedule_switch_tx(&mut self, now: SimTime, node: NodeId, tx: TxStart, q: &mut Queue) {
        let done = Event::SwitchTxComplete {
            node,
            port: tx.port,
        };
        self.schedule_tx(now, node, tx, done, q);
    }

    /// A host NIC started serializing `tx` (see [`Wires::schedule_tx`]).
    pub fn schedule_host_tx(&mut self, now: SimTime, host: NodeId, tx: TxStart, q: &mut Queue) {
        self.schedule_tx(now, host, tx, Event::HostTxComplete { host }, q);
    }

    /// `node` started serializing `tx`: `done` fires when the last bit
    /// leaves, and the packet reaches the far end one propagation delay
    /// later. (A host's only link reaches its ToR, which the partition
    /// keeps in the same shard, so host transmissions never cross.)
    fn schedule_tx(&mut self, now: SimTime, node: NodeId, tx: TxStart, done: Event, q: &mut Queue) {
        let Wire {
            peer, propagation, ..
        } = *self.topo.wire(node, tx.port);
        q.schedule_after(now, tx.serialize, done);
        let deliver = Event::Deliver {
            node: peer.node,
            in_port: peer.port,
            packet: tx.packet,
        };
        self.schedule_or_handoff(now + tx.serialize + propagation, peer.node, deliver, q);
    }

    /// Sends a PFC frame out of `node`'s `emit.port`.
    pub fn emit_pfc(&mut self, now: SimTime, node: NodeId, emit: PfcEmit, q: &mut Queue) {
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

    /// Whether the link behind `node`'s `port` is up.
    pub fn is_up(&self, node: NodeId, port: PortId) -> bool {
        self.link_state[self.topo.wire(node, port).link.index()].up
    }

    /// Takes a link down or brings it back, in the link state and in
    /// routing. Returns the link.
    pub fn set_up(&mut self, link: u32, up: bool) -> Link {
        let l = *self.topo.link(LinkId::new(link));
        self.link_state[l.id.index()].up = up;
        if up {
            self.routes.restore_link(&l);
        } else {
            self.routes.fail_link(&l);
        }
        l
    }

    /// Sets a link's bit-error rate (validated to `[0, 1]` at
    /// construction; `0.0` ends a corruption window).
    pub fn set_ber(&mut self, link: u32, ber: f64) {
        self.link_state[link as usize].ber = ber;
    }

    /// Applies link faults to a packet arriving at `node`: delivery over
    /// a dead link is lost (events already on the wire cannot be
    /// retracted, so the check happens at arrival), and a corrupting
    /// link discards the packet with probability `1 - (1-ber)^bits`. A
    /// lost packet is counted and traced ([`record_loss`]); returns
    /// whether the packet survives. The fast path — every link up, no
    /// corruption — reads the port's wire slot and the link's fault
    /// record, touches no RNG and is byte-identical to a faultless build.
    pub fn survives(
        &mut self,
        now: SimTime,
        node: NodeId,
        in_port: PortId,
        packet: &Packet,
    ) -> bool {
        let wire = self.topo.wire(node, in_port);
        let lid = wire.link.index();
        let LinkState { up, ber } = self.link_state[lid];
        let lost = if !up {
            Some(TraceDropCause::LinkDown)
        } else if ber > 0.0 {
            let bits = (packet.size().as_u64() * 8).min(i32::MAX as u64) as i32;
            let survive = (1.0 - ber).powi(bits);
            // Draw from this delivery direction's own stream: the draw
            // sequence each packet sees is then independent of every
            // other link's traffic.
            let draw = self.fault_rng[lid * 2 + usize::from(wire.dir)].uniform_f64();
            (draw >= survive).then_some(TraceDropCause::Corrupted)
        } else {
            None
        };
        let Some(cause) = lost else {
            return true;
        };
        record_loss(
            &mut self.wire_drops,
            &self.trace,
            now,
            node,
            in_port,
            packet,
            cause,
        );
        false
    }
}
