//! Per-flow transport runtime: one DCTCP, DCQCN or IRN endpoint pair,
//! the packets a host NIC builds from a flow's fixed wire shape, and the
//! dense flow-id → flow-index table the per-packet hot path uses.

use dcn_net::{FlowId, NodeId, Packet, TrafficClass};
use dcn_sim::{Bytes, SimDuration, SimTime, TimerHandle};
use dcn_transport::{
    DcqcnReceiver, DcqcnSender, DctcpReceiver, DctcpSender, IrnReceiver, IrnSender, RpTimerKind,
};
use dcn_workload::FlowSpec;

/// The sender/receiver pair of one flow, typed by transport.
#[derive(Debug)]
pub(crate) enum FlowRuntime {
    /// A lossy flow: DCTCP endpoints.
    Tcp {
        /// Sender state machine.
        sender: DctcpSender,
        /// Receiver state machine.
        receiver: DctcpReceiver,
    },
    /// A lossless flow: DCQCN endpoints.
    Rdma {
        /// Sender (reaction point).
        sender: DcqcnSender,
        /// Receiver (notification point).
        receiver: DcqcnReceiver,
    },
    /// A lossy-RDMA flow: IRN endpoints (NACK-driven retransmission,
    /// no PFC). Selected by [`crate::RdmaTransport::Irn`] for
    /// lossless-class specs; the packets ride `TrafficClass::LossyRdma`.
    Irn {
        /// Sender state machine.
        sender: IrnSender,
        /// Receiver state machine.
        receiver: IrnReceiver,
    },
}

/// Wheel-timer handles owned by one flow's sender. Each slot is the
/// handle of the single outstanding deadline of that kind (`None` when
/// not armed): re-arming cancels the old entry instead of orphaning a
/// generation-stamped tombstone in the heap, which is what keeps the
/// pending-event population bounded for long-lived flows.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlowTimers {
    /// DCTCP/IRN retransmission deadline.
    pub(crate) rto: Option<TimerHandle>,
    /// DCQCN α-decay timer.
    pub(crate) alpha: Option<TimerHandle>,
    /// DCQCN rate-increase timer.
    pub(crate) rate: Option<TimerHandle>,
    /// Opt-in RDMA liveness-watchdog deadline (see
    /// [`crate::FabricConfig::flow_watchdog`]).
    pub(crate) flow_watchdog: Option<TimerHandle>,
}

impl FlowTimers {
    /// The DCQCN reaction-point timer slot of `kind`.
    pub(crate) fn rp(&mut self, kind: RpTimerKind) -> &mut Option<TimerHandle> {
        match kind {
            RpTimerKind::Alpha => &mut self.alpha,
            RpTimerKind::Rate => &mut self.rate,
        }
    }
}

/// A flow plus its lifecycle bookkeeping.
#[derive(Debug)]
pub(crate) struct FlowState {
    /// The immutable flow description.
    pub(crate) spec: FlowSpec,
    /// The protocol endpoints.
    pub(crate) runtime: FlowRuntime,
    /// Outstanding cancellable timers for this flow.
    pub(crate) timers: FlowTimers,
    /// Whether the FCT record has been emitted.
    pub(crate) recorded: bool,
    /// Whether the flow has been counted toward the done total.
    pub(crate) counted: bool,
    /// Ideal (empty-network) FCT, computed at registration while every
    /// route is healthy so a mid-run link failure cannot poison the
    /// slowdown denominator of flows that finish after it.
    pub(crate) ideal: SimDuration,
    /// Receiver progress (in-order bytes) seen at the last liveness-
    /// watchdog fire. Only meaningful while the watchdog is armed.
    pub(crate) watchdog_progress: u64,
    /// Whether the current no-progress episode has already been
    /// counted; cleared when progress resumes, so a flow stalling twice
    /// counts two stall episodes, not one per watchdog fire.
    pub(crate) stall_flagged: bool,
    /// Payload bytes per full segment (the transport's MSS or MTU).
    pub(crate) mss: u16,
    /// Header bytes of a data segment.
    pub(crate) header: u16,
    /// The class the transport's packets carry, which for an IRN flow
    /// of a lossless spec is not `spec.class`.
    pub(crate) wire_class: TrafficClass,
}

impl FlowState {
    /// Whether the flow is finished, as its
    /// [counting endpoint](FlowState::counting_endpoint) sees it: a
    /// DCQCN receiver that took the last byte (its sender drained
    /// before, as the lossless path has no retransmission), or a DCTCP
    /// or IRN sender whose final cumulative ACK arrived (which its
    /// receiver only emits after taking the last byte). Either flips at
    /// the event where both endpoints first agree, and reads only state
    /// that a shard owning that endpoint holds.
    pub(crate) fn is_done(&self) -> bool {
        match &self.runtime {
            FlowRuntime::Rdma { receiver, .. } => receiver.finished_at().is_some(),
            FlowRuntime::Tcp { sender, .. } => sender.is_completed(),
            FlowRuntime::Irn { sender, .. } => sender.is_completed(),
        }
    }

    /// The host whose half of the flow decides [`FlowState::is_done`]:
    /// the receiver of a DCQCN flow, the sender of a DCTCP or IRN one.
    pub(crate) fn counting_endpoint(&self) -> NodeId {
        match self.runtime {
            FlowRuntime::Rdma { .. } => self.spec.dst,
            FlowRuntime::Tcp { .. } | FlowRuntime::Irn { .. } => self.spec.src,
        }
    }

    /// When the receiver got the last byte, if it has.
    pub(crate) fn finished_at(&self) -> Option<SimTime> {
        match &self.runtime {
            FlowRuntime::Tcp { receiver, .. } => receiver.finished_at(),
            FlowRuntime::Rdma { receiver, .. } => receiver.finished_at(),
            FlowRuntime::Irn { receiver, .. } => receiver.finished_at(),
        }
    }

    /// The sender's data segment at `seq`: `min(mss, size − seq)`
    /// payload bytes, the rule every sender cuts a flow by.
    pub(crate) fn data(&self, seq: u64) -> Packet {
        let FlowSpec {
            id, src, dst, size, ..
        } = self.spec;
        let payload = Bytes::new(u64::from(self.mss).min(size.as_u64() - seq));
        let (prio, class, header) = (self.spec.priority, self.wire_class, self.header);
        Packet::data(id, src, dst, prio, class, seq, payload, Bytes::from(header))
    }

    /// The receiver's ACK of every byte below `cumulative`.
    pub(crate) fn ack(&self, cumulative: u64, ecn_echo: bool) -> Packet {
        let FlowSpec { id, src, dst, .. } = self.spec;
        let (prio, class) = (self.spec.priority, self.wire_class);
        Packet::ack(id, dst, src, prio, class, cumulative, ecn_echo)
    }

    /// The receiver's DCQCN congestion notification.
    pub(crate) fn cnp(&self) -> Packet {
        let FlowSpec { id, src, dst, .. } = self.spec;
        Packet::cnp(id, dst, src, self.spec.priority)
    }

    /// In-order bytes delivered to the receiver so far (the liveness
    /// watchdog's progress measure, comparable across transports).
    pub(crate) fn received(&self) -> u64 {
        match &self.runtime {
            FlowRuntime::Tcp { receiver, .. } => receiver.received(),
            FlowRuntime::Rdma { receiver, .. } => receiver.received(),
            FlowRuntime::Irn { receiver, .. } => receiver.received(),
        }
    }
}

/// Dense flow-id → flow-index lookup for the per-packet hot path.
///
/// Workload generators hand out flow ids as `base + counter` — one
/// contiguous, ascending run per generator (e.g. RDMA flows from 0, TCP
/// background from `1 << 40`). Registration therefore sees a handful of
/// dense id *banks*, and lookup is a scan over those banks plus one
/// bounds-checked `Vec` index: no hashing, no SipHash state, ~2 compares
/// for every packet of a two-workload experiment. Ids that extend no
/// existing bank (hand-written tests, examples) each open a bank of
/// their own, so arbitrary id patterns stay correct — merely a linear
/// scan over more banks.
#[derive(Debug, Default)]
pub struct FlowTable {
    banks: Vec<Bank>,
}

#[derive(Debug)]
struct Bank {
    /// First flow id covered by this bank.
    base: u64,
    /// `ix[i]` is the dense flow index of id `base + i`.
    ix: Vec<u32>,
}

impl FlowTable {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// The dense flow index registered for `id`, if any.
    #[inline]
    pub fn get(&self, id: FlowId) -> Option<usize> {
        let id = id.as_u64();
        for bank in &self.banks {
            let offset = id.wrapping_sub(bank.base);
            if offset < bank.ix.len() as u64 {
                return Some(bank.ix[offset as usize] as usize);
            }
        }
        None
    }

    /// Registers `id → ix`. The caller (flow registration) checks for
    /// duplicates via [`FlowTable::get`] first; inserting a present id
    /// is a logic error.
    pub fn insert(&mut self, id: FlowId, ix: usize) {
        debug_assert!(self.get(id).is_none(), "flow id {id} already registered");
        let id = id.as_u64();
        let ix = u32::try_from(ix).expect("flow count fits u32");
        for bank in &mut self.banks {
            if id == bank.base + bank.ix.len() as u64 {
                bank.ix.push(ix);
                return;
            }
        }
        self.banks.push(Bank {
            base: id,
            ix: vec![ix],
        });
    }

    /// Number of id banks (diagnostics: should stay at the number of
    /// workload generators feeding the run).
    pub fn banks(&self) -> usize {
        self.banks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dense_banks_resolve_without_hashing() {
        let mut t = FlowTable::new();
        for i in 0..100u64 {
            t.insert(FlowId::new(i), i as usize);
        }
        for i in 0..50u64 {
            t.insert(FlowId::new((1 << 40) + i), 100 + i as usize);
        }
        assert_eq!(t.banks(), 2);
        assert_eq!(t.get(FlowId::new(7)), Some(7));
        assert_eq!(t.get(FlowId::new((1 << 40) + 49)), Some(149));
        assert_eq!(t.get(FlowId::new(100)), None);
        assert_eq!(t.get(FlowId::new((1 << 40) + 50)), None);
        assert_eq!(t.get(FlowId::new(u64::MAX)), None);
    }

    #[test]
    fn sparse_ids_open_their_own_banks() {
        let mut t = FlowTable::new();
        t.insert(FlowId::new(5), 0);
        t.insert(FlowId::new(900), 1);
        t.insert(FlowId::new(6), 2); // extends the first bank
        assert_eq!(t.banks(), 2);
        assert_eq!(t.get(FlowId::new(5)), Some(0));
        assert_eq!(t.get(FlowId::new(6)), Some(2));
        assert_eq!(t.get(FlowId::new(900)), Some(1));
        assert_eq!(t.get(FlowId::new(7)), None);
    }

    #[test]
    fn matches_a_hashmap_on_random_ids() {
        use std::collections::HashMap;
        let mut rng = dcn_sim::SimRng::seed_from_u64(0xF10);
        let mut t = FlowTable::new();
        let mut reference = HashMap::new();
        let mut ix = 0usize;
        for _ in 0..500 {
            let id = FlowId::new(rng.below(1 << 12) * 1_000 + rng.below(3));
            if reference.contains_key(&id) {
                continue;
            }
            t.insert(id, ix);
            reference.insert(id, ix);
            ix += 1;
        }
        for (&id, &want) in &reference {
            assert_eq!(t.get(id), Some(want));
        }
        for probe in 0..10_000u64 {
            let id = FlowId::new(probe * 77);
            assert_eq!(t.get(id), reference.get(&id).copied());
        }
    }
}
