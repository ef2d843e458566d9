//! End-host model: a PFC-reactive NIC with per-priority queues.
//!
//! The NIC reuses the switch crate's [`EgressPort`] (eight priority
//! FIFOs, round-robin, one packet in flight) but has no buffer limits —
//! host memory is not the bottleneck the paper studies. It honours PFC
//! pause frames from its ToR per priority, which is how switch-side
//! back-pressure reaches DCQCN/DCTCP senders.

use dcn_net::{NodeId, Packet, PortId, Priority};
use dcn_sim::BitRate;
use dcn_switch::{Charge, EgressPort, QueuedPacket, TxStart};

/// One end host's transmit path.
#[derive(Debug)]
pub struct Host {
    id: NodeId,
    nic: EgressPort,
    paused: [bool; Priority::COUNT],
    link_rate: BitRate,
}

impl Host {
    /// Creates a host whose single NIC port runs at `link_rate`.
    pub fn new(id: NodeId, link_rate: BitRate) -> Host {
        Host {
            id,
            nic: EgressPort::new(),
            paused: [false; Priority::COUNT],
            link_rate,
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{FlowId, TrafficClass};
    use dcn_sim::Bytes;

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
