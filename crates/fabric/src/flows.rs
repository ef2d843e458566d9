//! Per-flow transport runtime: one DCTCP, DCQCN or IRN endpoint pair
//! behind one poll, one feedback and one data dispatch; the only
//! builders of a flow's packets, which turn the numbers its endpoints
//! yield into packets of the flow's fixed wire shape; and the dense
//! flow-id → flow-index table the per-packet hot path uses.

use dcn_net::{FlowId, NodeId, Packet, PacketKind, TrafficClass};
use dcn_sim::{Bytes, SimDuration, SimTime, TimerHandle, TraceEvent, TraceHandle};
use dcn_transport::{
    AckAction, DcqcnReceiver, DcqcnSender, DctcpReceiver, DctcpSender, Feedback, IrnReceiver,
    IrnSender, Poll, RpTimerKind,
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

/// What a sender's feedback asks of its host's timers.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reaction {
    /// A DCTCP or IRN sender's verdict on its retransmission timer.
    Rto(AckAction),
    /// A DCQCN sender cut its rate: re-arm both reaction-point timers.
    RateCut,
}

/// A DCTCP or IRN sender's retransmission state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    /// The RTO to arm next.
    pub(crate) rto: SimDuration,
    /// Consecutive timeouts since the last progress.
    pub(crate) backoff: u32,
    /// Whether every byte is acknowledged.
    pub(crate) completed: bool,
}

impl FlowRuntime {
    /// What the sender would transmit at `now` (see [`Poll`]).
    pub(crate) fn poll(&mut self, now: SimTime) -> Poll {
        match self {
            FlowRuntime::Tcp { sender, .. } => sender.poll(now),
            FlowRuntime::Rdma { sender, .. } => sender.poll(now),
            FlowRuntime::Irn { sender, .. } => sender.poll(now),
        }
    }

    /// The sender takes feedback `p` (an ACK, NACK or CNP), tracing
    /// what it did; `None` if its transport takes no such feedback.
    pub(crate) fn feedback(
        &mut self,
        now: SimTime,
        p: &Packet,
        trace: &TraceHandle,
    ) -> Option<Reaction> {
        let flow = p.flow.as_u64();
        match (self, p.kind) {
            (FlowRuntime::Tcp { sender, .. }, PacketKind::Ack { ecn_echo }) => {
                let action = sender.process_ack(now, p.ack, ecn_echo);
                if let Some(ev) = action.transition {
                    trace.record_with(now, || ev);
                }
                // `as` saturates: an unset (`f64::MAX`) ssthresh reads u64::MAX.
                trace.record_with(now, || TraceEvent::TcpCwnd {
                    flow,
                    cwnd: sender.cwnd() as u64,
                    ssthresh: sender.ssthresh() as u64,
                    in_recovery: sender.in_recovery(),
                });
                Some(Reaction::Rto(action))
            }
            (FlowRuntime::Irn { sender, .. }, PacketKind::Ack { .. } | PacketKind::Nack) => {
                Some(Reaction::Rto(match p.kind {
                    PacketKind::Nack => sender.on_nack(now, p.seq, p.ack),
                    _ => sender.on_ack(now, p.ack),
                }))
            }
            (FlowRuntime::Rdma { sender, .. }, PacketKind::Cnp) => {
                sender.on_cnp(now);
                trace.record_with(now, || TraceEvent::RdmaRate {
                    flow,
                    rate_bps: sender.rate().as_bps(),
                });
                Some(Reaction::RateCut)
            }
            _ => None,
        }
    }

    /// A DCTCP or IRN sender's retransmission timer fired: go back N.
    /// `None` for DCQCN, which arms no such timer.
    pub(crate) fn on_timeout(&mut self, now: SimTime) -> Option<AckAction> {
        match self {
            FlowRuntime::Tcp { sender, .. } => Some(sender.on_timeout(now)),
            FlowRuntime::Irn { sender, .. } => Some(sender.on_timeout(now)),
            _ => None,
        }
    }

    /// The receiver takes data packet `p`; returns the feedback it sends
    /// back, if any.
    pub(crate) fn on_data(&mut self, now: SimTime, p: &Packet) -> Option<Feedback> {
        let (seq, payload, ce) = (p.seq, p.payload(), p.ecn.is_ce());
        match self {
            FlowRuntime::Tcp { receiver, .. } => Some(receiver.on_data(now, seq, payload, ce)),
            FlowRuntime::Rdma { receiver, .. } => receiver.on_data(now, payload, ce),
            FlowRuntime::Irn { receiver, .. } => Some(receiver.on_data(now, seq, payload, ce)),
        }
    }

    /// The receiver's in-order bytes (the liveness watchdog's progress
    /// measure), and when it got the last one.
    pub(crate) fn progress(&self) -> (u64, Option<SimTime>) {
        match self {
            FlowRuntime::Tcp { receiver, .. } => (receiver.received(), receiver.finished_at()),
            FlowRuntime::Rdma { receiver, .. } => (receiver.received(), receiver.finished_at()),
            FlowRuntime::Irn { receiver, .. } => (receiver.received(), receiver.finished_at()),
        }
    }

    /// The sender's retransmission state; `None` for DCQCN, which never
    /// retransmits.
    pub(crate) fn window(&self) -> Option<Window> {
        let (rto, backoff, completed) = match self {
            FlowRuntime::Tcp { sender: s, .. } => (s.rto(), s.backoff(), s.is_completed()),
            FlowRuntime::Irn { sender: s, .. } => (s.rto(), s.backoff(), s.is_completed()),
            _ => return None,
        };
        Some(Window {
            rto,
            backoff,
            completed,
        })
    }
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
    /// The class the flow's packets carry, which for an IRN flow of a
    /// lossless spec is not `spec.class`.
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
        match self.runtime.window() {
            Some(window) => window.completed,
            None => self.runtime.progress().1.is_some(),
        }
    }

    /// The host whose half of the flow decides [`FlowState::is_done`]:
    /// the receiver of a DCQCN flow, the sender of a DCTCP or IRN one.
    pub(crate) fn counting_endpoint(&self) -> NodeId {
        match self.runtime.window() {
            Some(_) => self.spec.src,
            None => self.spec.dst,
        }
    }

    /// The data packet of the segment the sender yields at `seq`:
    /// `min(mss, size − seq)` payload bytes, the rule every sender cuts
    /// a flow by.
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

    /// The IRN receiver's NACK of the gap at `seq`, with its cumulative
    /// ack.
    pub(crate) fn nack(&self, seq: u64, cumulative: u64) -> Packet {
        let FlowSpec { id, src, dst, .. } = self.spec;
        Packet::nack(id, dst, src, self.spec.priority, seq, cumulative)
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
