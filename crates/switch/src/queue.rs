//! Per-egress-port priority queues with round-robin scheduling.
//!
//! Each egress port has eight FIFO priority queues (one per 802.1p
//! class) and serializes one packet at a time. The scheduler is
//! round-robin over non-empty, non-paused priorities, as the paper's
//! switch configuration describes ("egress ports schedule 8 priority
//! queue packets through Round Robin").
//!
//! [`PriorityFifos`] is that scheduler over entries of any `Copy` type
//! kept in their owner's [`ChunkPool`]. A switch port ([`EgressPort`])
//! queues one 48-byte [`QueuedPacket`] per packet, each with its own
//! in-port, charge and ECN mark, in the switch's [`PacketPool`]. A host
//! NIC queues its own 16-byte send records in a pool of those and builds
//! each packet from its flow as it starts it; a record may stand for a
//! run of segments, which [`PriorityFifos::serve`] advances in place.

use dcn_net::{FlowId, Packet, PortId, Priority};
use dcn_sim::Bytes;

use crate::mmu::Charge;

/// A packet held in an egress queue together with the bookkeeping needed
/// to reverse its MMU charge when it departs. 48 bytes — the unit a
/// switch's memory is counted in (DESIGN.md §3.5).
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

impl QueuedPacket {
    /// A queued packet.
    pub fn new(packet: Packet, in_port: PortId, charge: Charge) -> QueuedPacket {
        QueuedPacket {
            packet,
            in_port,
            charge,
        }
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

/// Entries per pool chunk: 768 bytes of [`QueuedPacket`]s, 256 of NIC
/// records. A non-empty FIFO holds at most two part-filled chunks.
const CHUNK: usize = 16;

/// The entries queued at every port of one owner — a switch, or all of
/// a world's host NICs — stored once, as in the modelled switch's shared
/// buffer (Fig. 1). Each priority FIFO is a chain of 16-entry chunks
/// and gives a chunk back as soon as it drains, so the pool grows to the
/// high-water of chunks in use at once. Each chunk is its own allocation
/// and never moves, so growing the pool copies nothing and leaves no
/// outgrown buffer behind.
#[derive(Debug)]
pub struct ChunkPool<T> {
    chunks: Vec<Box<Chunk<T>>>,
    /// Chunks no FIFO holds.
    free: Vec<u32>,
}

/// Sixteen entries and their place in a FIFO's chain.
#[derive(Debug)]
struct Chunk<T> {
    slots: [T; CHUNK],
    /// `[prev, next]` chunk in its FIFO (stale at the chain ends).
    link: [u32; 2],
}

/// A switch's pool: one [`QueuedPacket`] per queued packet.
pub type PacketPool = ChunkPool<QueuedPacket>;

impl<T> Default for ChunkPool<T> {
    fn default() -> Self {
        ChunkPool {
            chunks: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Copy> ChunkPool<T> {
    /// A free chunk, or a new one filled with copies of `fill`.
    fn take(&mut self, fill: T) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.chunks.push(Box::new(Chunk {
                slots: [fill; CHUNK],
                link: [0; 2],
            }));
            u32::try_from(self.chunks.len() - 1).expect("under 2^32 chunks")
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
    #[inline]
    fn push_back<T: Copy>(&mut self, pool: &mut ChunkPool<T>, e: T) {
        if self.len == 0 {
            self.head = pool.take(e);
            (self.tail, self.first, self.end) = (self.head, 0, 0);
        } else if usize::from(self.end) == CHUNK {
            let c = pool.take(e);
            (
                pool.chunks[self.tail as usize].link[1],
                pool.chunks[c as usize].link[0],
            ) = (c, self.tail);
            (self.tail, self.end) = (c, 0);
        }
        pool.chunks[self.tail as usize].slots[usize::from(self.end)] = e;
        self.end += 1;
        self.len += 1;
    }

    /// The head entry; the FIFO must be non-empty.
    #[inline]
    fn front_mut<'p, T>(&self, pool: &'p mut ChunkPool<T>) -> &'p mut T {
        &mut pool.chunks[self.head as usize].slots[usize::from(self.first)]
    }

    /// The tail entry; the FIFO must be non-empty.
    #[inline]
    fn back_mut<'p, T>(&self, pool: &'p mut ChunkPool<T>) -> &'p mut T {
        &mut pool.chunks[self.tail as usize].slots[usize::from(self.end) - 1]
    }

    #[inline]
    fn pop_front<T: Copy>(&mut self, pool: &mut ChunkPool<T>) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let e = *self.front_mut(pool);
        self.len -= 1;
        self.first += 1;
        if self.len == 0 || usize::from(self.first) == CHUNK {
            pool.free.push(self.head);
            (self.head, self.first) = (pool.chunks[self.head as usize].link[1], 0);
        }
        Some(e)
    }

    #[inline]
    fn pop_back<T: Copy>(&mut self, pool: &mut ChunkPool<T>) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let e = *self.back_mut(pool);
        self.len -= 1;
        self.end -= 1;
        if self.len == 0 || self.end == 0 {
            pool.free.push(self.tail);
            (self.tail, self.end) = (pool.chunks[self.tail as usize].link[0], CHUNK as u16);
        }
        Some(e)
    }
}

/// The eight priority FIFOs of one port and their round-robin pointer.
/// The entries live in the owner's [`ChunkPool`], which every call that
/// touches them takes.
#[derive(Debug, Default)]
pub struct PriorityFifos {
    queues: [Fifo; Priority::COUNT],
    /// Bit `i` set ⇔ `queues[i]` is non-empty. Lets the round-robin scan
    /// skip empty priorities on one byte instead of touching eight FIFO
    /// headers per start attempt.
    nonempty: u8,
    rr_next: usize,
}

impl PriorityFifos {
    /// Appends `e` to `priority`'s FIFO.
    #[inline]
    pub fn push<T: Copy>(&mut self, pool: &mut ChunkPool<T>, priority: Priority, e: T) {
        let ix = priority.index();
        self.queues[ix].push_back(pool, e);
        self.nonempty |= 1 << ix;
    }

    /// The newest entry of `priority`'s FIFO, if it has one.
    #[inline]
    pub fn back_mut<'p, T>(
        &self,
        pool: &'p mut ChunkPool<T>,
        priority: Priority,
    ) -> Option<&'p mut T> {
        let q = &self.queues[priority.index()];
        (q.len > 0).then(|| q.back_mut(pool))
    }

    /// Serves the head entry of the next non-empty priority that
    /// `paused` does not block, round-robin after the last one served,
    /// and returns a copy of it. `advance` sees the head in place and
    /// reports whether it stays queued (a run it moved one packet on);
    /// otherwise the head is popped.
    #[inline]
    pub fn serve<T: Copy>(
        &mut self,
        pool: &mut ChunkPool<T>,
        paused: impl Fn(Priority) -> bool,
        advance: impl FnOnce(&mut T) -> bool,
    ) -> Option<T> {
        if self.nonempty == 0 {
            return None;
        }
        for off in 0..Priority::COUNT {
            let ix = (self.rr_next + off) % Priority::COUNT;
            if self.nonempty & (1 << ix) == 0 || paused(Priority::new(ix as u8)) {
                continue;
            }
            let fifo = &mut self.queues[ix];
            let head = fifo.front_mut(pool);
            let e = *head;
            if !advance(head) {
                fifo.pop_front(pool);
                self.after_pop(ix);
            }
            self.rr_next = (ix + 1) % Priority::COUNT;
            return Some(e);
        }
        None
    }

    /// Clears `queues[ix]`'s `nonempty` bit if a pop emptied it.
    fn after_pop(&mut self, ix: usize) {
        if self.queues[ix].len == 0 {
            self.nonempty &= !(1 << ix);
        }
    }

    /// Entries held across the eight FIFOs.
    pub fn len(&self) -> usize {
        self.queues.iter().map(|q| q.len as usize).sum()
    }

    /// Whether every FIFO is empty.
    pub fn is_empty(&self) -> bool {
        self.nonempty == 0
    }
}

/// One switch egress port: eight priority FIFOs of [`QueuedPacket`]s in
/// the switch's [`PacketPool`], and at most one packet in flight on the
/// wire. Every call that moves packets takes the pool.
#[derive(Debug, Default)]
pub struct EgressPort {
    fifos: PriorityFifos,
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
        self.fifos.push(pool, qp.packet.priority, qp);
    }

    /// Packets queued (excluding any packet in flight).
    pub fn queued_entries(&self) -> usize {
        self.fifos.len()
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
        if self.in_flight.is_some() {
            return None;
        }
        let qp = self.fifos.serve(pool, paused, |_| false)?;
        self.in_flight = Some(InFlight::of(&qp.packet, qp.in_port, qp.charge));
        Some(qp.packet)
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
        let qp = self.fifos.queues[ix].pop_back(pool)?;
        self.fifos.after_pop(ix);
        Some(qp)
    }

    /// Adds one to `from[in_port]` for every packet of `priority` still
    /// charged to this port: its FIFO and, if of that priority, the
    /// packet being serialized.
    pub(crate) fn count_by_ingress(&self, pool: &PacketPool, priority: Priority, from: &mut [u32]) {
        let fifo = &self.fifos.queues[priority.index()];
        let (mut chunk, mut at) = (fifo.head as usize, usize::from(fifo.first));
        for _ in 0..fifo.len {
            if at == CHUNK {
                (chunk, at) = (pool.chunks[chunk].link[1] as usize, 0);
            }
            from[pool.chunks[chunk].slots[at].in_port.index()] += 1;
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
        for q in &mut self.fifos.queues {
            out.extend(std::iter::from_fn(|| q.pop_front(pool)));
        }
        self.fifos.nonempty = 0;
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
        pool.chunks.len() - pool.free.len()
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
        assert_eq!(p.fifos.nonempty, 1 << 3);
        assert_eq!(p.pop_back(&mut pool, prio).unwrap().packet.seq, 1);
        assert_eq!(p.fifos.nonempty, 0, "nonempty bit cleared");
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
    /// in flight"). A FIFO header is half a `VecDeque`'s 32 bytes. A
    /// switch entry is one packet: the literal names every field, so a
    /// run count added to it fails to compile here.
    #[test]
    fn queue_entries_stay_small() {
        let packet = qp(3, 0).packet;
        let (in_port, charge) = (PortId::new(0), Charge::NONE);
        let entry = QueuedPacket {
            packet,
            in_port,
            charge,
        };
        assert_eq!(entry, QueuedPacket::new(packet, in_port, charge));
        assert_eq!(std::mem::size_of::<QueuedPacket>(), 48);
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

    /// Packets queued at priority `ix` of `port`, counted through
    /// `count_by_ingress`.
    fn depth(port: &EgressPort, pool: &PacketPool, ix: usize) -> usize {
        let mut from = [0u32; 4];
        port.count_by_ingress(pool, Priority::new(ix as u8), &mut from);
        let in_flight = port.in_flight().filter(|inf| inf.priority.index() == ix);
        from.iter().sum::<u32>() as usize - usize::from(in_flight.is_some())
    }

    fn assert_same_state(port: &EgressPort, pool: &PacketPool, model: &Model, ctx: &str) {
        assert_eq!(port.fifos.rr_next, model.rr_next, "{ctx}: rr_next");
        assert_eq!(port.fifos.nonempty, model.nonempty(), "{ctx}: nonempty");
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
                                .fifos
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
                            let q = &port.fifos.queues[ix];
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
                    .flat_map(|p| &p.fifos.queues)
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
}
