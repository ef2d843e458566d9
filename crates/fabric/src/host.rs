//! End-host model: a PFC-reactive NIC with per-priority queues.
//!
//! The NIC reuses the switch crate's [`EgressPort`] (eight priority
//! FIFOs, round-robin, one packet in flight) but has no buffer limits —
//! host memory is not the bottleneck the paper studies. It honours PFC
//! pause frames from its ToR per priority, which is how switch-side
//! back-pressure reaches DCQCN/DCTCP senders.

use dcn_net::{NodeId, Packet, PortId, Priority};
use dcn_sim::{BitRate, Bytes, SimDuration, SimTime, TimerHandle};
use dcn_switch::{Charge, EgressPort, InFlight, QueuedPacket, TxStart};

/// One committed leg of a packet train: a packet whose serialization
/// slot and `Deliver` event are already booked on the NIC's wire.
#[derive(Debug, Clone)]
pub struct TrainLeg {
    /// When this leg's serialization starts (legs are back-to-back).
    pub start: SimTime,
    /// This leg's serialization time.
    pub serialize: SimDuration,
    /// When this leg's booked `Deliver` fires at the link peer.
    pub deliver_at: SimTime,
    /// A copy of the leg's packet. The original rides the already
    /// scheduled `Deliver`; a split requeues this copy and suppresses
    /// the orphaned event at dispatch, which keeps the common commit
    /// path on plain (cheap) heap events instead of cancellable
    /// timers.
    pub packet: Packet,
}

/// A committed packet train: N back-to-back serializations of the sole
/// non-empty priority, represented by one completion timer instead of N
/// `HostTxComplete` events.
#[derive(Debug)]
pub struct Train {
    /// The single priority every leg belongs to.
    pub prio: Priority,
    /// Legs in commit (FIFO) order; `legs[0]` is the NIC's in-flight
    /// record.
    pub legs: Vec<TrainLeg>,
    /// Wheel handle of the train-completion timer.
    pub done: TimerHandle,
}

/// One end host's transmit path.
#[derive(Debug)]
pub struct Host {
    id: NodeId,
    nic: EgressPort,
    paused: [bool; Priority::COUNT],
    link_rate: BitRate,
    train: Option<Train>,
}

impl Host {
    /// Creates a host whose single NIC port runs at `link_rate`.
    pub fn new(id: NodeId, link_rate: BitRate) -> Host {
        Host {
            id,
            nic: EgressPort::new(),
            paused: [false; Priority::COUNT],
            link_rate,
            train: None,
        }
    }

    /// This host's node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether a priority is currently paused by the ToR.
    pub fn is_paused(&self, priority: Priority) -> bool {
        self.paused[priority.index()]
    }

    /// Applies a PFC pause/resume for one priority.
    pub fn set_paused(&mut self, priority: Priority, paused: bool) {
        self.paused[priority.index()] = paused;
    }

    /// Queues a packet for transmission.
    pub fn enqueue(&mut self, packet: Packet) {
        self.nic.enqueue(QueuedPacket {
            packet,
            in_port: PortId::new(0),
            charge: Charge::NONE,
        });
    }

    /// Starts the next transmission if the NIC is idle and an unpaused
    /// priority has a packet. Mirrors the switch's [`TxStart`] protocol.
    pub fn try_start(&mut self) -> Option<TxStart> {
        let paused = self.paused;
        let packet = self.nic.start_next(|p| paused[p.index()])?;
        let serialize = self.link_rate.tx_time(packet.size());
        Some(TxStart {
            port: PortId::new(0),
            packet,
            serialize,
        })
    }

    /// Completes the in-flight transmission and starts the next one.
    ///
    /// # Panics
    ///
    /// Panics if nothing was in flight.
    pub fn tx_complete(&mut self) -> Option<TxStart> {
        let _ = self.nic.finish_tx();
        self.try_start()
    }

    /// Packets waiting in the NIC (excluding in flight).
    pub fn queued(&self) -> usize {
        self.nic.queued_total()
    }

    /// Packets waiting at one priority (excluding in flight).
    pub fn queued_at(&self, priority: Priority) -> usize {
        self.nic.queued_at(priority)
    }

    /// The single non-empty priority, if exactly one FIFO has packets.
    pub fn sole_nonempty(&self) -> Option<Priority> {
        self.nic.sole_nonempty()
    }

    // ---- packet-train support ------------------------------------------

    /// The active train's priority, if a train is committed.
    pub fn train_priority(&self) -> Option<Priority> {
        self.train.as_ref().map(|t| t.prio)
    }

    /// Commits a train. The first leg must already be the NIC's
    /// in-flight record (via [`Host::try_start`]); later legs were
    /// removed from the queue with [`Host::pop_front`].
    pub fn set_train(&mut self, train: Train) {
        debug_assert!(self.train.is_none(), "train committed over a train");
        self.train = Some(train);
    }

    /// Takes the active train for a split, leaving the NIC in flight.
    pub fn take_train(&mut self) -> Option<Train> {
        self.train.take()
    }

    /// Completes the whole train: every leg departed, so the NIC goes
    /// idle.
    pub fn finish_train(&mut self) {
        self.train = None;
        let _ = self.nic.finish_tx();
    }

    /// Removes the head-of-line packet of one priority for use as a
    /// train leg (does not touch the in-flight record or round-robin
    /// pointer).
    pub fn pop_front(&mut self, priority: Priority) -> Option<QueuedPacket> {
        self.nic.pop_front(priority)
    }

    /// Returns a revoked train leg's packet to the front of its queue.
    pub fn requeue_front(&mut self, packet: Packet) {
        self.nic.requeue_front(QueuedPacket {
            packet,
            in_port: PortId::new(0),
            charge: Charge::NONE,
        });
    }

    /// Points the NIC's in-flight record at the given train leg (split
    /// reconstruction: the leg currently on the wire takes over from
    /// leg 0).
    pub fn set_in_flight_leg(&mut self, leg: &TrainLeg, prio: Priority) {
        debug_assert_eq!(leg.packet.priority, prio);
        self.nic
            .set_in_flight(InFlight::of(&leg.packet, PortId::new(0), Charge::NONE));
    }

    /// Completes the in-flight transmission without starting the next
    /// one (the train-aware world decides how to start it).
    ///
    /// # Panics
    ///
    /// Panics if nothing was in flight.
    pub fn finish_tx(&mut self) {
        let _ = self.nic.finish_tx();
    }

    /// Serialization time of a packet on this host's link.
    pub fn tx_time(&self, size: Bytes) -> SimDuration {
        self.link_rate.tx_time(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{FlowId, TrafficClass};

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
        let mut h = Host::new(NodeId::new(0), BitRate::from_gbps(25));
        h.enqueue(pkt(3, 0));
        h.enqueue(pkt(3, 1));
        let t0 = h.try_start().expect("idle NIC starts");
        assert_eq!(t0.packet.seq, 0);
        assert_eq!(t0.serialize.as_nanos(), 336);
        assert!(h.try_start().is_none(), "busy");
        let t1 = h.tx_complete().expect("next starts");
        assert_eq!(t1.packet.seq, 1);
        assert!(h.tx_complete().is_none());
    }

    #[test]
    fn pause_blocks_only_that_priority() {
        let mut h = Host::new(NodeId::new(0), BitRate::from_gbps(25));
        h.set_paused(Priority::new(3), true);
        h.enqueue(pkt(3, 0));
        h.enqueue(pkt(1, 1));
        let t = h.try_start().expect("lossy priority unaffected");
        assert_eq!(t.packet.priority, Priority::new(1));
        // Priority 3 stays queued.
        assert_eq!(h.queued(), 1);
        h.tx_complete();
        assert!(h.try_start().is_none(), "only paused traffic remains");
        h.set_paused(Priority::new(3), false);
        let t = h.try_start().expect("resume releases it");
        assert_eq!(t.packet.seq, 0);
    }
}
