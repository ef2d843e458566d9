//! Per-egress-port priority queues with round-robin scheduling.
//!
//! Each egress port has eight FIFO priority queues (one per 802.1p
//! class) and serializes one packet at a time. The scheduler is
//! round-robin over non-empty, non-paused priorities, as the paper's
//! switch configuration describes ("egress ports schedule 8 priority
//! queue packets through Round Robin").

use std::collections::VecDeque;

use dcn_net::{FlowId, Packet, PortId, Priority};
use dcn_sim::Bytes;

use crate::mmu::Charge;

/// A packet held in an egress queue together with the bookkeeping needed
/// to reverse its MMU charge when it departs. 48 bytes — the unit the
/// simulator's memory is counted in (DESIGN.md §3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedPacket {
    /// The packet itself.
    pub packet: Packet,
    /// The ingress port it arrived on (its priority names the ingress
    /// queue together with this port).
    pub in_port: PortId,
    /// How its bytes were charged at admission.
    pub charge: Charge,
}

/// Bookkeeping for the packet being serialized. The packet itself is
/// *moved* to the event loop when transmission starts (no per-transmit
/// clone); only what the departure path needs is retained here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// The flow the packet belongs to.
    pub flow: FlowId,
    /// The packet's sequence number within its flow.
    pub seq: u64,
    size: u16,
    /// The ingress port it arrived on.
    pub in_port: PortId,
    /// How its bytes were charged at admission.
    pub charge: Charge,
    /// The packet's priority (names both queues with the ports).
    pub priority: Priority,
}

impl InFlight {
    /// The departure record of `packet`, which arrived on `in_port` and
    /// was admitted under `charge`.
    pub fn of(packet: &Packet, in_port: PortId, charge: Charge) -> InFlight {
        InFlight {
            flow: packet.flow,
            seq: packet.seq,
            size: u16::try_from(packet.size()).expect("a packet is at most one frame"),
            in_port,
            charge,
            priority: packet.priority,
        }
    }

    /// The packet's total size on the wire.
    pub fn size(&self) -> Bytes {
        Bytes::from(self.size)
    }
}

/// A priority FIFO that drains while holding more than this many slots
/// gives its buffer back to the allocator. A `VecDeque` never shrinks on
/// its own, so without this every queue keeps the footprint of the
/// deepest burst it ever held and the process's peak memory is the sum
/// of all queues' historical maxima rather than what is queued at once
/// (a host NIC that once held a flow's whole window, for the rest of the
/// run). Queues that stay at or below the bound — every steady-state
/// switch queue — keep their buffer and never reallocate.
const RELEASE_ABOVE_SLOTS: usize = 1_024;

/// One egress port: eight priority FIFOs, a round-robin pointer, and at
/// most one packet in flight on the wire.
#[derive(Debug, Default)]
pub struct EgressPort {
    queues: [VecDeque<QueuedPacket>; Priority::COUNT],
    /// Bit `i` set ⇔ `queues[i]` is non-empty. Lets the round-robin scan
    /// skip empty priorities on one byte instead of touching eight
    /// `VecDeque` headers (four cache lines) per start attempt.
    nonempty: u8,
    rr_next: usize,
    in_flight: Option<InFlight>,
}

impl EgressPort {
    /// An empty port.
    pub fn new() -> Self {
        EgressPort::default()
    }

    /// Appends a packet to its priority FIFO.
    pub fn enqueue(&mut self, qp: QueuedPacket) {
        let prio = qp.packet.priority.index();
        self.queues[prio].push_back(qp);
        self.nonempty |= 1 << prio;
    }

    /// Bookkeeping after a pop from `queues[ix]`: if that emptied it,
    /// clears its `nonempty` bit and applies [`RELEASE_ABOVE_SLOTS`].
    fn after_pop(&mut self, ix: usize) {
        let q = &mut self.queues[ix];
        if q.is_empty() {
            self.nonempty &= !(1 << ix);
            if q.capacity() > RELEASE_ABOVE_SLOTS {
                *q = VecDeque::new();
            }
        }
    }

    /// Whether the transmitter is idle (no packet being serialized).
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_none()
    }

    /// Packets queued at one priority (excluding any in flight).
    pub fn queued_at(&self, priority: Priority) -> usize {
        self.queues[priority.index()].len()
    }

    /// Total queued packets (excluding any in flight).
    pub fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Starts transmitting the next eligible packet, if the port is idle
    /// and some non-paused priority has one. Round-robin resumes after
    /// the last served priority. Returns the packet, *moved* out of its
    /// queue for delivery to the link peer; the discharge bookkeeping
    /// stays behind as the port's [`InFlight`] record.
    ///
    /// `paused(prio)` reports whether a downstream XOFF blocks a
    /// priority.
    pub fn start_next(&mut self, paused: impl Fn(Priority) -> bool) -> Option<Packet> {
        if self.in_flight.is_some() || self.nonempty == 0 {
            return None;
        }
        for off in 0..Priority::COUNT {
            let ix = (self.rr_next + off) % Priority::COUNT;
            if self.nonempty & (1 << ix) == 0 || paused(Priority::new(ix as u8)) {
                continue;
            }
            let qp = self.queues[ix].pop_front().expect("nonempty bit set");
            self.after_pop(ix);
            self.rr_next = (ix + 1) % Priority::COUNT;
            self.in_flight = Some(InFlight::of(&qp.packet, qp.in_port, qp.charge));
            return Some(qp.packet);
        }
        None
    }

    /// Completes the in-flight transmission, returning the departed
    /// packet's bookkeeping for MMU discharge.
    ///
    /// # Panics
    ///
    /// Panics if nothing was in flight — a scheduling bug.
    pub fn finish_tx(&mut self) -> InFlight {
        self.in_flight.take().expect("tx_complete with idle port")
    }

    /// Pops the *tail* of one priority FIFO — the newest queued packet,
    /// the one a preemptive eviction removes. Evicting from the tail
    /// never reorders the survivors and never touches the in-flight
    /// record (a packet already serializing cannot be recalled), so the
    /// scheduler state after an eviction is exactly as if the evicted
    /// packet had never been admitted.
    pub fn pop_back(&mut self, priority: Priority) -> Option<QueuedPacket> {
        let ix = priority.index();
        let qp = self.queues[ix].pop_back()?;
        self.after_pop(ix);
        Some(qp)
    }

    /// Bookkeeping of the packet currently being serialized, if any.
    pub fn in_flight(&self) -> Option<&InFlight> {
        self.in_flight.as_ref()
    }

    /// Removes every queued packet (port-down drain), in deterministic
    /// priority-then-FIFO order, so the caller can reverse their MMU
    /// charges. Any in-flight packet is left alone: its serialization
    /// already started and its `tx_complete` will discharge it normally.
    pub fn drain_all(&mut self) -> Vec<QueuedPacket> {
        let mut out = Vec::with_capacity(self.queued_total());
        for ix in 0..Priority::COUNT {
            out.extend(self.queues[ix].drain(..));
            self.after_pop(ix);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{FlowId, NodeId, TrafficClass};
    use dcn_sim::Bytes;

    fn qp(prio: u8, seq: u64) -> QueuedPacket {
        QueuedPacket {
            packet: Packet::data(
                FlowId::new(seq),
                NodeId::new(0),
                NodeId::new(1),
                Priority::new(prio),
                TrafficClass::Lossless,
                seq,
                Bytes::new(1_000),
                Bytes::new(48),
            ),
            in_port: PortId::new(0),
            charge: Charge::NONE,
        }
    }

    #[test]
    fn fifo_within_priority() {
        let mut p = EgressPort::new();
        p.enqueue(qp(3, 1));
        p.enqueue(qp(3, 2));
        let first = p.start_next(|_| false).unwrap().seq;
        assert_eq!(first, 1);
        p.finish_tx();
        let second = p.start_next(|_| false).unwrap().seq;
        assert_eq!(second, 2);
    }

    #[test]
    fn round_robin_alternates_priorities() {
        let mut p = EgressPort::new();
        p.enqueue(qp(1, 10));
        p.enqueue(qp(1, 11));
        p.enqueue(qp(3, 30));
        p.enqueue(qp(3, 31));
        let mut served = Vec::new();
        while let Some(q) = p.start_next(|_| false) {
            served.push(q.seq);
            p.finish_tx();
        }
        assert_eq!(served, vec![10, 30, 11, 31]);
    }

    #[test]
    fn paused_priority_is_skipped() {
        let mut p = EgressPort::new();
        p.enqueue(qp(1, 10));
        p.enqueue(qp(3, 30));
        let got = p.start_next(|prio| prio == Priority::new(1)).unwrap().seq;
        assert_eq!(got, 30);
        p.finish_tx();
        // Everything eligible is paused: nothing starts.
        assert!(p.start_next(|_| true).is_none());
        assert_eq!(p.queued_total(), 1);
    }

    #[test]
    fn busy_port_does_not_start_another() {
        let mut p = EgressPort::new();
        p.enqueue(qp(3, 1));
        p.enqueue(qp(3, 2));
        assert!(p.start_next(|_| false).is_some());
        assert!(p.start_next(|_| false).is_none(), "already busy");
        assert!(!p.is_idle());
        let done = p.finish_tx();
        assert_eq!(done.seq, 1);
        assert!(p.is_idle());
    }

    #[test]
    #[should_panic(expected = "tx_complete with idle port")]
    fn finish_on_idle_panics() {
        EgressPort::new().finish_tx();
    }

    #[test]
    fn pop_back_evicts_newest_and_clears_bit() {
        let mut p = EgressPort::new();
        for seq in 1..=3 {
            p.enqueue(qp(3, seq));
        }
        assert_eq!(p.pop_back(Priority::new(3)).unwrap().packet.seq, 3);
        assert_eq!(p.pop_back(Priority::new(3)).unwrap().packet.seq, 2);
        assert_eq!(p.nonempty, 1 << 3);
        assert_eq!(p.pop_back(Priority::new(3)).unwrap().packet.seq, 1);
        assert_eq!(p.nonempty, 0, "nonempty bit cleared");
        assert!(p.pop_back(Priority::new(3)).is_none());
        assert!(p.start_next(|_| false).is_none());
    }

    #[test]
    fn pop_back_leaves_in_flight_untouched() {
        let mut p = EgressPort::new();
        p.enqueue(qp(3, 1));
        p.enqueue(qp(3, 2));
        assert_eq!(p.start_next(|_| false).unwrap().seq, 1);
        assert_eq!(p.pop_back(Priority::new(3)).unwrap().packet.seq, 2);
        assert!(!p.is_idle(), "serializing packet cannot be evicted");
        assert_eq!(p.finish_tx().seq, 1);
    }

    #[test]
    fn drain_all_empties_queues_but_keeps_in_flight() {
        let mut p = EgressPort::new();
        p.enqueue(qp(3, 1));
        p.enqueue(qp(1, 2));
        p.enqueue(qp(3, 3));
        // Round-robin starts at priority 0, so priority 1 (seq 2) wins.
        assert_eq!(p.start_next(|_| false).unwrap().seq, 2);
        let drained = p.drain_all();
        let seqs: Vec<u64> = drained.iter().map(|q| q.packet.seq).collect();
        assert_eq!(seqs, vec![1, 3], "priority-then-FIFO order");
        assert_eq!(p.queued_total(), 0);
        assert!(!p.is_idle(), "in-flight record untouched");
        assert_eq!(p.finish_tx().seq, 2);
    }
    /// Growing a queue entry or an in-flight record is a deliberate edit
    /// of these bounds (DESIGN.md §3.5, "bytes per packet in flight").
    #[test]
    fn queue_entries_stay_small() {
        assert!(std::mem::size_of::<QueuedPacket>() <= 48);
        assert!(std::mem::size_of::<InFlight>() <= 32);
        assert!(std::mem::size_of::<crate::TxStart>() <= 56);
    }

    /// The scheduler as it was before the release rule, written the slow
    /// way: queues that never give their buffer back, `nonempty`
    /// recomputed from the queues on every question.
    #[derive(Default)]
    struct NeverReleasing {
        queues: [VecDeque<QueuedPacket>; Priority::COUNT],
        rr_next: usize,
        in_flight: Option<u64>,
    }

    impl NeverReleasing {
        fn nonempty(&self) -> u8 {
            (0..Priority::COUNT)
                .filter(|&ix| !self.queues[ix].is_empty())
                .fold(0, |bits, ix| bits | 1 << ix)
        }

        fn start_next(&mut self, paused: u8) -> Option<Packet> {
            if self.in_flight.is_some() {
                return None;
            }
            let ix = (0..Priority::COUNT)
                .map(|off| (self.rr_next + off) % Priority::COUNT)
                .find(|&ix| !self.queues[ix].is_empty() && paused & (1 << ix) == 0)?;
            let qp = self.queues[ix].pop_front().unwrap();
            self.rr_next = (ix + 1) % Priority::COUNT;
            self.in_flight = Some(qp.packet.seq);
            Some(qp.packet)
        }
    }

    fn assert_same_state(port: &EgressPort, model: &NeverReleasing, ctx: &str) {
        assert_eq!(port.rr_next, model.rr_next, "{ctx}: rr_next");
        assert_eq!(port.nonempty, model.nonempty(), "{ctx}: nonempty");
        assert_eq!(
            port.in_flight().map(|inf| inf.seq),
            model.in_flight,
            "{ctx}: in flight"
        );
        for prio in Priority::all() {
            assert_eq!(
                port.queued_at(prio),
                model.queues[prio.index()].len(),
                "{ctx}: depth of {prio:?}"
            );
        }
    }

    #[test]
    fn release_rule_is_invisible_to_the_scheduler() {
        use dcn_sim::SimRng;
        let mut cases_that_released = 0;
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0x0E1E_A5E0 + case);
            let mut port = EgressPort::new();
            let mut model = NeverReleasing::default();
            let mut next_seq = 0u64;
            let mut released = false;
            for step in 0..40 + rng.below(40) {
                let ctx = format!("case {case} step {step}");
                let prio = Priority::new([1, 3, 3, 6][rng.below(4) as usize]);
                let ix = prio.index();
                match rng.below(8) {
                    // A burst: usually a few packets, one time in three
                    // deep enough to cross the release bound.
                    0..=2 => {
                        let burst = match rng.below(3) {
                            0 => 1 + rng.below(5_000),
                            _ => 1 + rng.below(30),
                        };
                        for _ in 0..burst {
                            port.enqueue(qp(prio.as_u8(), next_seq));
                            model.queues[ix].push_back(qp(prio.as_u8(), next_seq));
                            next_seq += 1;
                        }
                    }
                    // Serve for a while under a random pause mask.
                    3..=5 => {
                        let paused = if rng.below(3) == 0 {
                            rng.below(256) as u8
                        } else {
                            0
                        };
                        for _ in 0..rng.below(6_000) {
                            let got = port.start_next(|p| paused & (1 << p.index()) != 0);
                            assert_eq!(got, model.start_next(paused), "{ctx}: served");
                            if got.is_none() {
                                break;
                            }
                            assert_eq!(Some(port.finish_tx().seq), model.in_flight.take());
                        }
                    }
                    // Evictions from the tail.
                    6 => {
                        for _ in 0..rng.below(40) {
                            let got = port.pop_back(prio);
                            assert_eq!(got, model.queues[ix].pop_back(), "{ctx}: evicted");
                        }
                    }
                    // Port down.
                    _ => {
                        let want: Vec<QueuedPacket> =
                            model.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
                        assert_eq!(port.drain_all(), want, "{ctx}: drained");
                    }
                }
                assert_same_state(&port, &model, &ctx);
                released |= (0..Priority::COUNT).any(|ix| {
                    port.queues[ix].capacity() == 0
                        && model.queues[ix].capacity() > RELEASE_ABOVE_SLOTS
                });
            }
            cases_that_released += u32::from(released);
        }
        // The battery must exercise what it is a test of.
        assert!(cases_that_released >= 48, "{cases_that_released} of 64");
    }

    #[test]
    fn deep_burst_gives_its_buffer_back_once_drained() {
        for drain in ["start_next", "pop_back", "drain_all"] {
            let mut p = EgressPort::new();
            for seq in 0..5_000 {
                p.enqueue(qp(3, seq));
            }
            p.enqueue(qp(1, 9_999));
            assert!(p.queues[3].capacity() >= 5_000);
            match drain {
                "start_next" => {
                    while p.start_next(|prio| prio == Priority::new(1)).is_some() {
                        p.finish_tx();
                    }
                }
                "pop_back" => while p.pop_back(Priority::new(3)).is_some() {},
                _ => assert_eq!(p.drain_all().len(), 5_001),
            }
            assert_eq!(p.queues[3].capacity(), 0, "{drain}: buffer returned");
            if drain != "drain_all" {
                assert_eq!(
                    p.queued_at(Priority::new(1)),
                    1,
                    "{drain}: others untouched"
                );
                assert_eq!(p.nonempty, 1 << 1);
            }
            // The released FIFO is an ordinary empty queue.
            p.enqueue(qp(3, 10_000));
            assert_eq!(p.pop_back(Priority::new(3)).unwrap().packet.seq, 10_000);
        }
    }

    #[test]
    fn queue_within_the_bound_never_reallocates() {
        let mut p = EgressPort::new();
        for seq in 0..RELEASE_ABOVE_SLOTS as u64 {
            p.enqueue(qp(3, seq));
        }
        let (buffer, capacity) = (p.queues[3].as_slices().0.as_ptr(), p.queues[3].capacity());
        assert_eq!(capacity, RELEASE_ABOVE_SLOTS, "the bound is a power of two");
        // Fill to the bound and drain to empty, every way there is.
        for round in 0..6u64 {
            match round % 3 {
                0 => {
                    while p.start_next(|_| false).is_some() {
                        p.finish_tx();
                    }
                }
                1 => while p.pop_back(Priority::new(3)).is_some() {},
                _ => assert_eq!(p.drain_all().len(), RELEASE_ABOVE_SLOTS),
            }
            assert_eq!(p.queued_total(), 0);
            for seq in 0..RELEASE_ABOVE_SLOTS as u64 {
                p.enqueue(qp(3, seq));
            }
            assert_eq!(p.queues[3].capacity(), capacity, "round {round}");
            let (head, tail) = p.queues[3].as_slices();
            let base = if tail.is_empty() { head } else { tail };
            assert!(
                base.as_ptr() >= buffer && base.as_ptr() < buffer.wrapping_add(capacity),
                "round {round}: same buffer"
            );
        }
    }
}
