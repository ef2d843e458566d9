//! Per-egress-port priority queues with round-robin scheduling.
//!
//! Each egress port has eight FIFO priority queues (one per 802.1p
//! class) and serializes one packet at a time. The scheduler is
//! round-robin over non-empty, non-paused priorities, as the paper's
//! switch configuration describes ("egress ports schedule 8 priority
//! queue packets through Round Robin").
//!
//! The FIFOs of all of one owner's ports share one [`PacketPool`].
//!
//! A host NIC's FIFO entry may be a *run*: a data segment plus the
//! segments behind it that continue it byte for byte
//! ([`EgressPort::enqueue_run`]). The scheduler hands a run out one
//! packet at a time, so it serves exactly the packets a one-entry-per-
//! packet FIFO serves; a transport's window then costs one entry, not
//! one per segment. Switches never build runs: each of their entries
//! carries its own in-port, charge and ECN mark.

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
    /// Segments queued behind `packet` in this entry, each one payload
    /// further into the flow; zero except in a host NIC's runs. Fits
    /// the struct's padding.
    behind: u16,
}

impl QueuedPacket {
    /// A single queued packet.
    pub fn new(packet: Packet, in_port: PortId, charge: Charge) -> QueuedPacket {
        QueuedPacket {
            packet,
            in_port,
            charge,
            behind: 0,
        }
    }

    /// The `n`th packet of this entry's run (0 is `packet` itself).
    fn nth(&self, n: u16) -> QueuedPacket {
        let mut qp = QueuedPacket { behind: 0, ..*self };
        qp.packet.seq += u64::from(n) * qp.packet.payload().as_u64();
        qp
    }
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

/// Packets per pool chunk: 768 bytes, twelve cache lines. A non-empty
/// FIFO holds at most two part-filled chunks.
const CHUNK: usize = 16;

/// The packets queued at every port of one owner — a switch, or all of
/// a world's host NICs — stored once, as in the modelled switch's shared
/// buffer (Fig. 1). Each priority FIFO is a chain of 16-packet
/// chunks and gives a chunk back as soon as it drains, so the pool grows
/// to the high-water of chunks in use at once. Allocates on first use.
#[derive(Debug, Default)]
pub struct PacketPool {
    /// Chunk `c` is `slots[c * CHUNK..(c + 1) * CHUNK]`.
    slots: Vec<QueuedPacket>,
    /// `[prev, next]` chunk in each chunk's FIFO (stale at the chain ends).
    links: Vec<[u32; 2]>,
    /// Chunks no FIFO holds.
    free: Vec<u32>,
}

impl PacketPool {
    /// A free chunk, or a new one filled with copies of `fill`.
    fn take(&mut self, fill: QueuedPacket) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slots.resize(self.slots.len() + CHUNK, fill);
            self.links.push([0; 2]);
            u32::try_from(self.links.len() - 1).expect("under 2^32 chunks")
        })
    }
}

/// One priority FIFO: a chain of pool chunks from `head` to `tail`, its
/// `len` entries at `first..` in `head` through `..end` in `tail`. Holds
/// no chunk while empty.
#[derive(Debug, Default, Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
    first: u16,
    end: u16,
    len: u32,
}

impl Fifo {
    /// Folds `qp` into the tail entry if it is the data segment that
    /// entry's run would send next and the run has room; reports whether
    /// it did.
    #[inline]
    fn extend_tail(&mut self, pool: &mut PacketPool, qp: &QueuedPacket) -> bool {
        if self.len == 0 || !qp.packet.is_data() {
            return false;
        }
        let tail = &mut pool.slots[self.tail as usize * CHUNK + usize::from(self.end) - 1];
        if tail.behind == u16::MAX || tail.nth(tail.behind + 1) != *qp {
            return false;
        }
        tail.behind += 1;
        true
    }

    #[inline]
    fn push_back(&mut self, pool: &mut PacketPool, qp: QueuedPacket) {
        if self.len == 0 {
            self.head = pool.take(qp);
            (self.tail, self.first, self.end) = (self.head, 0, 0);
        } else if usize::from(self.end) == CHUNK {
            let c = pool.take(qp);
            (pool.links[self.tail as usize][1], pool.links[c as usize][0]) = (c, self.tail);
            (self.tail, self.end) = (c, 0);
        }
        pool.slots[self.tail as usize * CHUNK + usize::from(self.end)] = qp;
        self.end += 1;
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self, pool: &mut PacketPool) -> Option<QueuedPacket> {
        if self.len == 0 {
            return None;
        }
        let head = &mut pool.slots[self.head as usize * CHUNK + usize::from(self.first)];
        if head.behind > 0 {
            let qp = head.nth(0);
            head.packet.seq += head.packet.payload().as_u64();
            head.behind -= 1;
            return Some(qp);
        }
        let qp = *head;
        self.len -= 1;
        self.first += 1;
        if self.len == 0 || usize::from(self.first) == CHUNK {
            pool.free.push(self.head);
            (self.head, self.first) = (pool.links[self.head as usize][1], 0);
        }
        Some(qp)
    }

    #[inline]
    fn pop_back(&mut self, pool: &mut PacketPool) -> Option<QueuedPacket> {
        if self.len == 0 {
            return None;
        }
        let tail = &mut pool.slots[self.tail as usize * CHUNK + usize::from(self.end) - 1];
        if tail.behind > 0 {
            tail.behind -= 1;
            return Some(tail.nth(tail.behind + 1));
        }
        let qp = *tail;
        self.len -= 1;
        self.end -= 1;
        if self.len == 0 || self.end == 0 {
            pool.free.push(self.tail);
            (self.tail, self.end) = (pool.links[self.tail as usize][0], CHUNK as u16);
        }
        Some(qp)
    }
}

/// One egress port: eight priority FIFOs in its owner's [`PacketPool`],
/// a round-robin pointer, and at most one packet in flight on the wire.
/// Every call that moves packets takes the pool the port's FIFOs live in.
#[derive(Debug, Default)]
pub struct EgressPort {
    queues: [Fifo; Priority::COUNT],
    /// Bit `i` set ⇔ `queues[i]` is non-empty. Lets the round-robin scan
    /// skip empty priorities on one byte instead of touching eight FIFO
    /// headers per start attempt.
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
    #[inline]
    pub fn enqueue(&mut self, pool: &mut PacketPool, qp: QueuedPacket) {
        let prio = qp.packet.priority.index();
        self.queues[prio].push_back(pool, qp);
        self.nonempty |= 1 << prio;
    }

    /// Appends a packet to its priority FIFO, folding it into the tail
    /// entry's run when it is the data segment that run would send next
    /// (equal in every field, `seq` one payload on). The port then
    /// serves exactly what [`EgressPort::enqueue`] would have queued. For
    /// a host NIC, whose packets carry no in-port, charge or mark of
    /// their own.
    #[inline]
    pub fn enqueue_run(&mut self, pool: &mut PacketPool, qp: QueuedPacket) {
        let prio = qp.packet.priority.index();
        if !self.queues[prio].extend_tail(pool, &qp) {
            self.queues[prio].push_back(pool, qp);
        }
        self.nonempty |= 1 << prio;
    }

    /// Clears `queues[ix]`'s `nonempty` bit if a pop emptied it.
    fn after_pop(&mut self, ix: usize) {
        if self.queues[ix].len == 0 {
            self.nonempty &= !(1 << ix);
        }
    }

    /// Queue entries held (excluding any packet in flight): one per
    /// queued packet, except that a run counts once.
    pub fn queued_entries(&self) -> usize {
        self.queues.iter().map(|q| q.len as usize).sum()
    }

    /// Starts transmitting the next eligible packet, if the port is idle
    /// and some non-paused priority has one. Round-robin resumes after
    /// the last served priority. Returns the packet, *moved* out of its
    /// queue for delivery to the link peer; the discharge bookkeeping
    /// stays behind as the port's [`InFlight`] record.
    ///
    /// `paused(prio)` reports whether a downstream XOFF blocks a
    /// priority.
    #[inline]
    pub fn start_next(
        &mut self,
        pool: &mut PacketPool,
        paused: impl Fn(Priority) -> bool,
    ) -> Option<Packet> {
        if self.in_flight.is_some() || self.nonempty == 0 {
            return None;
        }
        for off in 0..Priority::COUNT {
            let ix = (self.rr_next + off) % Priority::COUNT;
            if self.nonempty & (1 << ix) == 0 || paused(Priority::new(ix as u8)) {
                continue;
            }
            let qp = self.queues[ix].pop_front(pool).expect("nonempty bit set");
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
    #[inline]
    pub fn pop_back(&mut self, pool: &mut PacketPool, priority: Priority) -> Option<QueuedPacket> {
        let ix = priority.index();
        let qp = self.queues[ix].pop_back(pool)?;
        self.after_pop(ix);
        Some(qp)
    }

    /// Adds one to `from[in_port]` for every packet of `priority` still
    /// charged to this port: its FIFO and, if of that priority, the
    /// packet being serialized.
    pub(crate) fn count_by_ingress(&self, pool: &PacketPool, priority: Priority, from: &mut [u32]) {
        let fifo = &self.queues[priority.index()];
        let (mut chunk, mut at) = (fifo.head as usize, usize::from(fifo.first));
        for _ in 0..fifo.len {
            if at == CHUNK {
                (chunk, at) = (pool.links[chunk][1] as usize, 0);
            }
            let qp = &pool.slots[chunk * CHUNK + at];
            from[qp.in_port.index()] += 1 + u32::from(qp.behind);
            at += 1;
        }
        if let Some(inf) = self.in_flight.filter(|inf| inf.priority == priority) {
            from[inf.in_port.index()] += 1;
        }
    }

    /// Bookkeeping of the packet currently being serialized, if any.
    pub fn in_flight(&self) -> Option<&InFlight> {
        self.in_flight.as_ref()
    }

    /// Removes every queued packet (port-down drain), in deterministic
    /// priority-then-FIFO order, so the caller can reverse their MMU
    /// charges. Any in-flight packet is left alone: its serialization
    /// already started and its `tx_complete` will discharge it normally.
    pub fn drain_all(&mut self, pool: &mut PacketPool) -> Vec<QueuedPacket> {
        let mut out = Vec::with_capacity(self.queued_entries());
        for q in &mut self.queues {
            out.extend(std::iter::from_fn(|| q.pop_front(pool)));
        }
        self.nonempty = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{FlowId, NodeId, TrafficClass};
    use dcn_sim::Bytes;
    use std::collections::VecDeque;

    fn qp(prio: u8, seq: u64) -> QueuedPacket {
        let packet = Packet::data(
            FlowId::new(seq),
            NodeId::new(0),
            NodeId::new(1),
            Priority::new(prio),
            TrafficClass::Lossless,
            seq,
            Bytes::new(1_000),
            Bytes::new(48),
        );
        QueuedPacket::new(packet, PortId::new(0), Charge::NONE)
    }

    /// Chunks some FIFO holds.
    fn chunks_in_use(pool: &PacketPool) -> usize {
        pool.links.len() - pool.free.len()
    }

    #[test]
    fn fifo_within_priority() {
        let (mut pool, mut p) = (PacketPool::default(), EgressPort::new());
        p.enqueue(&mut pool, qp(3, 1));
        p.enqueue(&mut pool, qp(3, 2));
        let first = p.start_next(&mut pool, |_| false).unwrap().seq;
        assert_eq!(first, 1);
        p.finish_tx();
        let second = p.start_next(&mut pool, |_| false).unwrap().seq;
        assert_eq!(second, 2);
    }

    #[test]
    fn round_robin_alternates_priorities() {
        let (mut pool, mut p) = (PacketPool::default(), EgressPort::new());
        p.enqueue(&mut pool, qp(1, 10));
        p.enqueue(&mut pool, qp(1, 11));
        p.enqueue(&mut pool, qp(3, 30));
        p.enqueue(&mut pool, qp(3, 31));
        let mut served = Vec::new();
        while let Some(q) = p.start_next(&mut pool, |_| false) {
            served.push(q.seq);
            p.finish_tx();
        }
        assert_eq!(served, vec![10, 30, 11, 31]);
    }

    #[test]
    fn paused_priority_is_skipped() {
        let (mut pool, mut p) = (PacketPool::default(), EgressPort::new());
        p.enqueue(&mut pool, qp(1, 10));
        p.enqueue(&mut pool, qp(3, 30));
        let got = p.start_next(&mut pool, |prio| prio == Priority::new(1));
        assert_eq!(got.unwrap().seq, 30);
        p.finish_tx();
        // Everything eligible is paused: nothing starts.
        assert!(p.start_next(&mut pool, |_| true).is_none());
        assert_eq!(p.queued_entries(), 1);
    }

    #[test]
    fn busy_port_does_not_start_another() {
        let (mut pool, mut p) = (PacketPool::default(), EgressPort::new());
        p.enqueue(&mut pool, qp(3, 1));
        p.enqueue(&mut pool, qp(3, 2));
        assert!(p.start_next(&mut pool, |_| false).is_some());
        assert!(p.start_next(&mut pool, |_| false).is_none(), "already busy");
        assert!(p.in_flight().is_some());
        let done = p.finish_tx();
        assert_eq!(done.seq, 1);
        assert!(p.in_flight().is_none());
    }

    #[test]
    #[should_panic(expected = "tx_complete with idle port")]
    fn finish_on_idle_panics() {
        EgressPort::new().finish_tx();
    }

    #[test]
    fn pop_back_evicts_newest_and_clears_bit() {
        let (mut pool, mut p) = (PacketPool::default(), EgressPort::new());
        for seq in 1..=3 {
            p.enqueue(&mut pool, qp(3, seq));
        }
        let prio = Priority::new(3);
        assert_eq!(p.pop_back(&mut pool, prio).unwrap().packet.seq, 3);
        assert_eq!(p.pop_back(&mut pool, prio).unwrap().packet.seq, 2);
        assert_eq!(p.nonempty, 1 << 3);
        assert_eq!(p.pop_back(&mut pool, prio).unwrap().packet.seq, 1);
        assert_eq!(p.nonempty, 0, "nonempty bit cleared");
        assert!(p.pop_back(&mut pool, prio).is_none());
        assert!(p.start_next(&mut pool, |_| false).is_none());
        assert_eq!(chunks_in_use(&pool), 0, "the emptied FIFO's chunk is back");
    }

    #[test]
    fn pop_back_leaves_in_flight_untouched() {
        let (mut pool, mut p) = (PacketPool::default(), EgressPort::new());
        p.enqueue(&mut pool, qp(3, 1));
        p.enqueue(&mut pool, qp(3, 2));
        assert_eq!(p.start_next(&mut pool, |_| false).unwrap().seq, 1);
        let evicted = p.pop_back(&mut pool, Priority::new(3)).unwrap();
        assert_eq!(evicted.packet.seq, 2);
        assert!(
            p.in_flight().is_some(),
            "serializing packet cannot be evicted"
        );
        assert_eq!(p.finish_tx().seq, 1);
    }

    #[test]
    fn drain_all_empties_queues_but_keeps_in_flight() {
        let (mut pool, mut p) = (PacketPool::default(), EgressPort::new());
        p.enqueue(&mut pool, qp(3, 1));
        p.enqueue(&mut pool, qp(1, 2));
        p.enqueue(&mut pool, qp(3, 3));
        // Round-robin starts at priority 0, so priority 1 (seq 2) wins.
        assert_eq!(p.start_next(&mut pool, |_| false).unwrap().seq, 2);
        let drained = p.drain_all(&mut pool);
        let seqs: Vec<u64> = drained.iter().map(|q| q.packet.seq).collect();
        assert_eq!(seqs, vec![1, 3], "priority-then-FIFO order");
        assert_eq!(p.queued_entries(), 0);
        assert!(p.in_flight().is_some(), "in-flight record untouched");
        assert_eq!(p.finish_tx().seq, 2);
    }

    /// Growing a queue entry, an in-flight record or a FIFO header is a
    /// deliberate edit of these bounds (DESIGN.md §3.5, "bytes per packet
    /// in flight"). A FIFO header is half a `VecDeque`'s 32 bytes.
    #[test]
    fn queue_entries_stay_small() {
        assert!(std::mem::size_of::<QueuedPacket>() <= 48);
        assert!(std::mem::size_of::<InFlight>() <= 32);
        assert!(std::mem::size_of::<crate::TxStart>() <= 56);
        assert_eq!(std::mem::size_of::<Fifo>(), 16);
    }

    /// The scheduler written the slow way: one `VecDeque` per FIFO, and
    /// `nonempty` recomputed from the queues on every question.
    #[derive(Default)]
    struct Model {
        queues: [VecDeque<QueuedPacket>; Priority::COUNT],
        rr_next: usize,
        in_flight: Option<u64>,
    }

    impl Model {
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

    /// Packets queued at priority `ix` of `port`, a run counting its
    /// length.
    fn depth(port: &EgressPort, pool: &PacketPool, ix: usize) -> usize {
        let mut from = [0u32; 4];
        port.count_by_ingress(pool, Priority::new(ix as u8), &mut from);
        let in_flight = port.in_flight().filter(|inf| inf.priority.index() == ix);
        from.iter().sum::<u32>() as usize - usize::from(in_flight.is_some())
    }

    fn assert_same_state(port: &EgressPort, pool: &PacketPool, model: &Model, ctx: &str) {
        assert_eq!(port.rr_next, model.rr_next, "{ctx}: rr_next");
        assert_eq!(port.nonempty, model.nonempty(), "{ctx}: nonempty");
        assert_eq!(
            port.in_flight().map(|inf| inf.seq),
            model.in_flight,
            "{ctx}: in flight"
        );
        for ix in 0..Priority::COUNT {
            let want = model.queues[ix].len();
            assert_eq!(depth(port, pool, ix), want, "{ctx}: depth of {ix}");
        }
    }

    /// Three ports share one pool, each checked against its own
    /// `VecDeque` model: every service, eviction and drain returns what
    /// the model does, and the pool holds no more chunks than the FIFOs
    /// need — none once they are all empty.
    #[test]
    fn pool_is_invisible_to_the_scheduler() {
        use dcn_sim::SimRng;
        let (mut front_crossings, mut back_crossings) = (0, 0);
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0x0E1E_A5E0 + case);
            let mut pool = PacketPool::default();
            let mut ports: [EgressPort; 3] = Default::default();
            let mut models: [Model; 3] = Default::default();
            let mut next_seq = 0u64;
            for step in 0..60 + rng.below(60) {
                let ctx = format!("case {case} step {step}");
                let at = rng.below(3) as usize;
                let (port, model) = (&mut ports[at], &mut models[at]);
                let prio = Priority::new([1, 3, 3, 6][rng.below(4) as usize]);
                let ix = prio.index();
                match rng.below(8) {
                    // A burst: usually within a chunk or two, one time in
                    // three across many.
                    0..=2 => {
                        let burst = match rng.below(3) {
                            0 => 1 + rng.below(200),
                            _ => 1 + rng.below(24),
                        };
                        for _ in 0..burst {
                            port.enqueue(&mut pool, qp(prio.as_u8(), next_seq));
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
                        for _ in 0..rng.below(120) {
                            let crossing = port
                                .queues
                                .iter()
                                .any(|q| q.len > 1 && usize::from(q.first) == CHUNK - 1);
                            let got =
                                port.start_next(&mut pool, |p| paused & (1 << p.index()) != 0);
                            assert_eq!(got, model.start_next(paused), "{ctx}: served");
                            if got.is_none() {
                                break;
                            }
                            front_crossings += u32::from(crossing);
                            assert_eq!(Some(port.finish_tx().seq), model.in_flight.take());
                        }
                    }
                    // Evictions from the tail.
                    6 => {
                        for _ in 0..rng.below(40) {
                            let q = &port.queues[ix];
                            back_crossings += u32::from(q.len > 1 && q.end == 1);
                            let got = port.pop_back(&mut pool, prio);
                            assert_eq!(got, model.queues[ix].pop_back(), "{ctx}: evicted");
                        }
                    }
                    // Port down.
                    _ => {
                        let want: Vec<QueuedPacket> =
                            model.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
                        assert_eq!(port.drain_all(&mut pool), want, "{ctx}: drained");
                    }
                }
                for (port, model) in ports.iter().zip(&models) {
                    assert_same_state(port, &pool, model, &ctx);
                }
                let bound: usize = ports
                    .iter()
                    .flat_map(|p| &p.queues)
                    .filter(|q| q.len > 0)
                    .map(|q| (q.len as usize).div_ceil(CHUNK) + 1)
                    .sum();
                assert!(chunks_in_use(&pool) <= bound, "{ctx}: chunks over {bound}");
                if ports.iter().all(|p| p.queued_entries() == 0) {
                    assert_eq!(chunks_in_use(&pool), 0, "{ctx}: all chunks free");
                }
            }
        }
        // The battery must exercise what it is a test of.
        assert!(front_crossings >= 500, "{front_crossings} front crossings");
        assert!(back_crossings >= 50, "{back_crossings} back crossings");
    }

    const MSS: u64 = 1_000;

    /// A host NIC's data segment of `flow`.
    fn seg(flow: u64, prio: u8, seq: u64, payload: u64) -> QueuedPacket {
        let packet = Packet::data(
            FlowId::new(flow),
            NodeId::new(flow as u32),
            NodeId::new(9),
            Priority::new(prio),
            TrafficClass::Lossy,
            seq,
            Bytes::new(payload),
            Bytes::new(48),
        );
        QueuedPacket::new(packet, PortId::new(0), Charge::NONE)
    }

    /// Data segment `next` with exactly one field changed, `which` of ten.
    fn mutant(next: QueuedPacket, which: u64) -> QueuedPacket {
        use dcn_net::EcnCodepoint;
        let (mut m, p) = (next, next.packet);
        let rebuilt = |payload: Bytes, header: Bytes| {
            let (cls, prio) = (p.class, p.priority);
            Packet::data(p.flow, p.src, p.dst, prio, cls, p.seq, payload, header)
        };
        let (payload, header) = (p.payload(), p.size() - p.payload());
        let one = Bytes::new(1);
        match which {
            0 => m.packet.flow = FlowId::new(p.flow.as_u64() + 1_000),
            1 => m.packet.src = NodeId::new(p.src.index() as u32 + 1),
            2 => m.packet.dst = NodeId::new(p.dst.index() as u32 + 1),
            3 if p.ecn.is_ce() => m.packet.ecn = EcnCodepoint::Ect,
            3 => m.packet.ecn = EcnCodepoint::Ce,
            4 if p.class == TrafficClass::Lossless => m.packet.class = TrafficClass::Lossy,
            4 => m.packet.class = TrafficClass::Lossless,
            5 => m.packet.ack += 1,
            6 => m.packet.seq += 1,
            7 => m.packet = rebuilt(payload + one, header - one),
            8 => m.packet = rebuilt(payload, header + one),
            _ => m.in_port = PortId::new(m.in_port.index() as u16 + 1),
        }
        assert_ne!(m, next, "mutation {which} changes a field");
        m
    }

    /// The packet priority `ix`'s tail entry would send after its run.
    fn next_of_tail(port: &EgressPort, pool: &PacketPool, ix: usize) -> Option<QueuedPacket> {
        let q = &port.queues[ix];
        (q.len > 0).then(|| {
            let tail = &pool.slots[q.tail as usize * CHUNK + usize::from(q.end) - 1];
            tail.nth(tail.behind + 1)
        })
    }

    /// NIC-style traffic through [`EgressPort::enqueue_run`] against the
    /// one-entry-per-packet `Model`: windows of 1–3 flows on two
    /// priorities, interleaved or not, short last segments, ACKs, CNPs
    /// and NACKs, re-sent old segments and one-field mutants of the
    /// tail's next segment. Every service, eviction and drain returns
    /// what the model does; a mutant never joins a run.
    #[test]
    fn nic_runs_are_invisible_to_the_scheduler() {
        use dcn_sim::SimRng;
        let (mut coalesced, mut mutants) = (0u32, 0u32);
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0x4E1C_0000 + case);
            let (mut pool, mut port, mut model) =
                (PacketPool::default(), EgressPort::new(), Model::default());
            let flows = 1 + rng.below(3);
            let prio: Vec<u8> = (0..flows).map(|_| [1, 3][rng.below(2) as usize]).collect();
            let mut next_seq = vec![0u64; flows as usize];
            for step in 0..80 + rng.below(80) {
                let ctx = format!("case {case} step {step}");
                let mut push = |port: &mut EgressPort, pool: &mut PacketPool, qp: QueuedPacket| {
                    let before = port.queued_entries();
                    port.enqueue_run(pool, qp);
                    model.queues[qp.packet.priority.index()].push_back(qp);
                    let joined = port.queued_entries() == before;
                    coalesced += u32::from(joined);
                    joined
                };
                let f = rng.below(flows) as usize;
                match rng.below(10) {
                    // A window: one flow's, or two flows' packet by packet.
                    0..=3 => {
                        let g = if rng.below(3) == 0 {
                            rng.below(flows) as usize
                        } else {
                            f
                        };
                        let burst = 1 + rng.below(80);
                        for i in 0..burst {
                            let h = if i % 2 == 0 { f } else { g };
                            let short = i + 2 >= burst && rng.below(4) == 0;
                            let payload = if short { 1 + rng.below(MSS - 1) } else { MSS };
                            push(
                                &mut port,
                                &mut pool,
                                seg(h as u64, prio[h], next_seq[h], payload),
                            );
                            next_seq[h] += payload;
                        }
                    }
                    // Feedback: an ACK, a CNP or a NACK, twice in a row.
                    4 => {
                        let (id, p) = (FlowId::new(f as u64), Priority::new(prio[f]));
                        let (a, b) = (NodeId::new(9), NodeId::new(f as u32));
                        let packet = match rng.below(3) {
                            0 => Packet::ack(id, a, b, p, TrafficClass::Lossy, next_seq[f], false),
                            1 => Packet::cnp(id, a, b, p),
                            _ => Packet::nack(id, a, b, p, next_seq[f], 0),
                        };
                        for _ in 0..2 {
                            let qp = QueuedPacket::new(packet, PortId::new(0), Charge::NONE);
                            assert!(!push(&mut port, &mut pool, qp), "{ctx}: feedback joined");
                        }
                    }
                    // A re-sent window from an old `seq`.
                    5 => {
                        let mut seq = rng.below(next_seq[f] / MSS + 1) * MSS;
                        for _ in 0..1 + rng.below(4) {
                            push(&mut port, &mut pool, seg(f as u64, prio[f], seq, MSS));
                            seq += MSS;
                        }
                    }
                    // The tail's next segment with one field changed.
                    6 => {
                        let ix = Priority::new(prio[f]).index();
                        let next = next_of_tail(&port, &pool, ix).filter(|n| n.packet.is_data());
                        if let Some(next) = next {
                            let m = mutant(next, rng.below(10));
                            assert!(!push(&mut port, &mut pool, m), "{ctx}: {m:?} joined");
                            mutants += 1;
                        }
                    }
                    // Serve for a while under a random pause mask.
                    7 | 8 => {
                        let paused = if rng.below(3) == 0 {
                            rng.below(256) as u8
                        } else {
                            0
                        };
                        for _ in 0..rng.below(150) {
                            let got =
                                port.start_next(&mut pool, |p| paused & (1 << p.index()) != 0);
                            assert_eq!(got, model.start_next(paused), "{ctx}: served");
                            if got.is_none() {
                                break;
                            }
                            assert_eq!(Some(port.finish_tx().seq), model.in_flight.take());
                        }
                    }
                    // Evictions from the tail, then the port goes down.
                    _ => {
                        let p = Priority::new(prio[f]);
                        for _ in 0..rng.below(5) {
                            let got = port.pop_back(&mut pool, p);
                            assert_eq!(got, model.queues[p.index()].pop_back(), "{ctx}: evicted");
                        }
                        if rng.below(3) == 0 {
                            let want: Vec<QueuedPacket> =
                                model.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
                            assert_eq!(port.drain_all(&mut pool), want, "{ctx}: drained");
                        }
                    }
                }
                assert_same_state(&port, &pool, &model, &ctx);
                if port.queued_entries() == 0 {
                    assert_eq!(chunks_in_use(&pool), 0, "{ctx}: all chunks free");
                }
            }
        }
        // The battery must exercise what it is a test of.
        assert!(coalesced >= 50_000, "{coalesced} pushes joined a run");
        assert!(mutants >= 300, "{mutants} mutants pushed");
    }

    /// A window of one flow is one entry, and a run stops at `u16::MAX`
    /// segments behind its head.
    #[test]
    fn a_run_takes_one_entry_up_to_its_limit() {
        let (mut pool, mut port) = (PacketPool::default(), EgressPort::new());
        for i in 0..64 {
            port.enqueue_run(&mut pool, seg(1, 3, i * MSS, MSS));
        }
        assert_eq!(port.queued_entries(), 1);
        assert_eq!(chunks_in_use(&pool), 1);
        let _ = port.drain_all(&mut pool);

        let n = 65_537;
        for i in 0..n {
            port.enqueue_run(&mut pool, seg(1, 3, i * MSS, MSS));
        }
        assert_eq!(port.queued_entries(), 2, "65 536 segments, then one more");
        assert_eq!(depth(&port, &pool, 3), n as usize);
        let mut want = 0;
        while let Some(p) = port.start_next(&mut pool, |_| false) {
            assert_eq!(p.seq, want * MSS);
            port.finish_tx();
            want += 1;
        }
        assert_eq!(want, n);
        assert_eq!(chunks_in_use(&pool), 0);
    }
}
