//! IRN-style lossy RDMA (Mittal et al., SIGCOMM 2018): a fixed
//! BDP-bounded window, NACK-driven go-back-N loss recovery (IRN's
//! baseline mode) and a retransmission timeout with the same
//! exponential backoff/reset discipline as [`crate::DctcpSender`].
//!
//! Unlike DCQCN, an IRN flow's packets travel in the droppable
//! [`dcn_net::TrafficClass::LossyRdma`] class: switches never pause for
//! them and may drop or evict them under pressure. Recovery is
//! end-to-end: switches and the receiver NACK (a receiver's is a
//! [`Feedback::Nack`]) when an out-of-order arrival exposes a sequence
//! gap, and the sender retransmits. The receiver keeps the out-of-order byte-range set (the
//! simulator's equivalent of IRN's per-packet sack bitmap); the sender
//! keeps cumulative state plus per-hole retransmit dedup so duplicate
//! NACKs from multiple observers (every switch on the path plus the
//! receiver) trigger exactly one recovery each.

use dcn_sim::{Bytes, SimDuration, SimTime};
use std::collections::BTreeSet;

use crate::dctcp::AckAction;
use crate::recovery::{Reassembly, RtoBackoff};
use crate::{Feedback, Poll, Segment};

/// IRN tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrnConfig {
    /// Maximum transmission unit (payload bytes per packet).
    pub mtu: u64,
    /// Header overhead added to each data packet on the wire.
    pub header: Bytes,
    /// The fixed in-flight byte bound (one bandwidth-delay product:
    /// IRN caps outstanding data at a BDP instead of running a
    /// congestion window).
    pub window: Bytes,
    /// Base retransmission timeout. Doubled on each consecutive
    /// timeout up to [`IrnConfig::max_rto`], reset on progress — the
    /// same discipline as [`crate::DctcpConfig`].
    pub rto: SimDuration,
    /// Upper bound on the backed-off RTO.
    pub max_rto: SimDuration,
}

impl Default for IrnConfig {
    fn default() -> Self {
        IrnConfig {
            mtu: 1_000,
            header: Bytes::new(48),
            // ~1 BDP of a 25 Gbit/s host link at a small-clos RTT.
            window: Bytes::new(25_000),
            rto: SimDuration::from_millis(2),
            max_rto: SimDuration::from_millis(64),
        }
    }
}

/// Sender-side IRN state machine for one flow.
#[derive(Debug, Clone)]
pub struct IrnSender {
    cfg: IrnConfig,
    size: u64,

    snd_una: u64,
    snd_nxt: u64,
    /// High-water mark of first-time transmissions: a polled segment
    /// with `seq` below it is a retransmission.
    snd_max: u64,

    /// Holes already rewound to — duplicate NACKs for the same gap from
    /// different observers are ignored. Pruned as `snd_una` advances
    /// past them.
    handled_holes: BTreeSet<u64>,

    backoff: RtoBackoff,
    completed: bool,
}

impl IrnSender {
    /// Creates a sender for a flow of `size` payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(cfg: IrnConfig, size: Bytes) -> IrnSender {
        assert!(size > Bytes::ZERO, "flow must carry at least one byte");
        IrnSender {
            cfg,
            size: size.as_u64(),
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            handled_holes: BTreeSet::new(),
            backoff: RtoBackoff::default(),
            completed: false,
        }
    }

    /// Whether all payload has been acknowledged.
    pub fn is_completed(&self) -> bool {
        self.completed
    }

    /// Lowest unacknowledged byte.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// High-water mark of first-time transmissions; segments polled
    /// below it are retransmissions.
    pub fn snd_max(&self) -> u64 {
        self.snd_max
    }

    /// Consecutive timeouts since the last forward progress.
    pub fn backoff(&self) -> u32 {
        self.backoff.count()
    }

    /// The RTO to arm next: the base RTO doubled once per consecutive
    /// timeout, capped at [`IrnConfig::max_rto`] — the
    /// [`crate::DctcpSender::rto`] discipline.
    pub fn rto(&self) -> SimDuration {
        self.backoff.rto(self.cfg.rto, self.cfg.max_rto)
    }

    /// The segment at `snd_nxt` if the BDP window allows it, else
    /// `Idle` until feedback or a timeout moves the window. After a
    /// rewind this resends, go-back-N, before it sends new data.
    pub fn poll(&mut self, _now: SimTime) -> Poll {
        if self.completed || self.snd_nxt >= self.size {
            return Poll::Idle;
        }
        let seg = Segment::cut(self.snd_nxt, self.cfg.mtu, self.size);
        let end = self.snd_nxt + seg.payload.as_u64();
        if end - self.snd_una > self.cfg.window.as_u64() {
            return Poll::Idle;
        }
        self.snd_nxt = end;
        self.snd_max = self.snd_max.max(end);
        Poll::Ready(seg)
    }

    /// Applies cumulative progress shared by ACK and NACK processing.
    /// Returns `true` if the ack advanced `snd_una`.
    fn advance(&mut self, cumulative_ack: u64) -> bool {
        if cumulative_ack <= self.snd_una {
            return false;
        }
        self.snd_una = cumulative_ack.min(self.size);
        self.backoff.reset();
        // A cumulative ack may cover a rewound snd_nxt.
        self.snd_nxt = self.snd_nxt.max(self.snd_una);
        // Holes behind the cumulative point are repaired.
        self.handled_holes = self.handled_holes.split_off(&self.snd_una);
        if self.snd_una >= self.size {
            self.completed = true;
        }
        true
    }

    /// Processes a cumulative ACK. Duplicate ACKs are ignored: IRN
    /// recovery is driven by NACKs and the RTO, not dup-ack counting.
    pub fn on_ack(&mut self, _now: SimTime, cumulative_ack: u64) -> AckAction {
        let mut action = AckAction::default();
        if self.completed {
            return action;
        }
        if self.advance(cumulative_ack) {
            if self.completed {
                // The caller cancels the outstanding RTO timer.
                action.completed = true;
                return action;
            }
            action.rearm_timer = true;
        }
        action
    }

    /// Processes a NACK for the gap starting at `nack_seq`.
    ///
    /// Go-back-N: `snd_nxt` rewinds to the hole. A given hole is acted
    /// on once — duplicate NACKs from other path observers are ignored
    /// until progress proves the repair lost.
    pub fn on_nack(&mut self, _now: SimTime, nack_seq: u64, cumulative_ack: u64) -> AckAction {
        let mut action = AckAction::default();
        if self.completed {
            return action;
        }
        if self.advance(cumulative_ack) {
            if self.completed {
                action.completed = true;
                return action;
            }
            action.rearm_timer = true;
        }
        if nack_seq >= self.snd_una
            && nack_seq < self.snd_max
            && self.handled_holes.insert(nack_seq)
        {
            // Never move forward: an older hole may already have
            // rewound below this one.
            self.snd_nxt = self.snd_nxt.min(nack_seq);
            action.rearm_timer = true;
        }
        action
    }

    /// Handles a retransmission timeout: go-back-N from `snd_una` (the
    /// RTO is the last-resort repair for lost NACKs/ACKs), with
    /// exponential backoff until the next forward progress — mirroring
    /// [`crate::DctcpSender::on_timeout`].
    pub fn on_timeout(&mut self, _now: SimTime) -> AckAction {
        let mut action = AckAction::default();
        if self.completed {
            return action;
        }
        self.snd_nxt = self.snd_una;
        self.handled_holes.clear();
        self.backoff.timed_out();
        action.rearm_timer = true;
        action
    }
}

/// Receiver-side IRN state: cumulative delivery plus the out-of-order
/// byte-range set (the sack bitmap), generating a cumulative ACK for
/// every in-order arrival and a NACK whenever a new gap appears.
#[derive(Debug, Clone)]
pub struct IrnReceiver {
    stream: Reassembly,
    /// Highest byte end ever seen; an arrival starting beyond it is the
    /// first evidence of a new gap (retransmissions and duplicates stay
    /// below it and must not re-NACK).
    high_water: u64,
}

impl IrnReceiver {
    /// Creates receiver state for a flow of `size` payload bytes.
    pub fn new(size: Bytes) -> Self {
        IrnReceiver {
            stream: Reassembly::new(size.as_u64()),
            high_water: 0,
        }
    }

    /// Bytes received in order so far.
    pub fn received(&self) -> u64 {
        self.stream.rcv_nxt()
    }

    /// When the last payload byte arrived, if the flow is complete.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.stream.finished_at()
    }

    /// Processes a data segment; returns the feedback to send: a NACK
    /// for the adjacent hole when this arrival exposes a new gap, a
    /// cumulative ACK otherwise.
    pub fn on_data(&mut self, now: SimTime, seq: u64, payload: Bytes, ce: bool) -> Feedback {
        let end = seq + payload.as_u64();
        let new_gap = seq > self.stream.rcv_nxt() && seq > self.high_water;
        self.high_water = self.high_water.max(end);
        self.stream.insert(now, seq, end);
        let rcv_nxt = self.stream.rcv_nxt();
        if new_gap {
            // NACK the hole immediately before the block this arrival
            // landed in: its start is the end of the previous
            // out-of-order block, or the cumulative point if there is
            // none. (Earlier holes were NACKed when they appeared.)
            let ooo = self.stream.ooo();
            let block_start = ooo
                .range(..=seq)
                .next_back()
                .map(|(&s, _)| s)
                .unwrap_or(rcv_nxt);
            let nack_seq = ooo
                .range(..block_start)
                .next_back()
                .map(|(_, &e)| e)
                .unwrap_or(rcv_nxt)
                .max(rcv_nxt);
            return Feedback::Nack {
                seq: nack_seq,
                cumulative: rcv_nxt,
            };
        }
        Feedback::Ack {
            cumulative: rcv_nxt,
            ecn_echo: ce,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dctcp::{DctcpConfig, DctcpSender};
    use dcn_net::{FlowId, NodeId, Priority};

    fn sender(size: u64) -> IrnSender {
        IrnSender::new(IrnConfig::default(), Bytes::new(size))
    }

    fn receiver(size: u64) -> IrnReceiver {
        IrnReceiver::new(Bytes::new(size))
    }

    fn ack_of(cumulative: u64) -> Feedback {
        Feedback::Ack {
            cumulative,
            ecn_echo: false,
        }
    }

    /// Polls `s` until it has nothing ready.
    fn ready(s: &mut IrnSender, now: SimTime) -> Vec<Segment> {
        std::iter::from_fn(|| match s.poll(now) {
            Poll::Ready(p) => Some(p),
            _ => None,
        })
        .collect()
    }

    fn ack(s: &mut IrnSender, now: SimTime, cum: u64) -> (AckAction, Vec<Segment>) {
        let a = s.on_ack(now, cum);
        (a, ready(s, now))
    }

    fn nack(s: &mut IrnSender, now: SimTime, seq: u64, cum: u64) -> (AckAction, Vec<Segment>) {
        let a = s.on_nack(now, seq, cum);
        (a, ready(s, now))
    }

    fn timeout(s: &mut IrnSender, now: SimTime) -> (AckAction, Vec<Segment>) {
        let a = s.on_timeout(now);
        (a, ready(s, now))
    }

    #[test]
    fn initial_burst_is_bdp_bounded() {
        let mut s = sender(100_000);
        let burst = ready(&mut s, SimTime::ZERO);
        assert_eq!(burst.len(), 25, "window 25 KB / mtu 1 KB");
        assert_eq!(burst[0].seq, 0);
        assert!(ready(&mut s, SimTime::ZERO).is_empty(), "window is full");
        // Progress slides the window.
        let (a, more) = ack(&mut s, SimTime::from_micros(5), 1_000);
        assert!(a.rearm_timer);
        assert_eq!(more.len(), 1);
        assert_eq!(more[0].seq, 25_000);
    }

    #[test]
    fn single_loss_nack_retransmits_and_dedups() {
        let mut s = sender(100_000);
        let _ = ready(&mut s, SimTime::ZERO);
        let t = SimTime::from_micros(10);
        // Segment 0 lost; a switch NACKs the gap (cum unknown = 0).
        let (a, resent) = nack(&mut s, t, 0, 0);
        assert!(a.rearm_timer);
        assert_eq!(resent.len(), 25, "go-back-N refills the whole window");
        assert_eq!(resent[0].seq, 0);
        // The receiver's duplicate NACK for the same hole is a no-op.
        let (a2, dup) = nack(&mut s, t, 0, 0);
        assert!(!a2.rearm_timer);
        assert!(dup.is_empty(), "duplicate NACK must not re-trigger");
        // Progress past the hole clears the dedup record.
        let (_, _) = ack(&mut s, t, 26_000);
        assert_eq!(s.snd_una(), 26_000);
        assert_eq!(s.backoff(), 0);
    }

    #[test]
    fn multi_hole_go_back_n_rewinds_to_each_hole_once() {
        // Two holes at 0 and 5000; the rest of the window delivered.
        let t = SimTime::from_micros(10);

        let mut gbn = sender(100_000);
        let _ = ready(&mut gbn, SimTime::ZERO);
        let (_, first) = nack(&mut gbn, t, 0, 0);
        assert_eq!(first.len(), 25, "GBN resends everything from the hole");
        assert_eq!(first[0].seq, 0);
        let (_, second) = nack(&mut gbn, t, 5_000, 0);
        assert_eq!(second.len(), 20, "GBN rewinds again to the second hole");
        assert_eq!(second[0].seq, 5_000);
        let (_, dup) = nack(&mut gbn, t, 5_000, 0);
        assert!(dup.is_empty(), "a hole is rewound to once");
    }

    #[test]
    fn rto_backoff_and_reset_matches_dctcp_discipline() {
        let mut irn = sender(100_000);
        let mut tcp = DctcpSender::new(
            DctcpConfig::default(),
            FlowId::new(2),
            NodeId::new(0),
            NodeId::new(1),
            Priority::new(1),
            Bytes::new(100_000),
        );
        let _ = ready(&mut irn, SimTime::ZERO);
        while let Poll::Ready(_) = tcp.poll(SimTime::ZERO) {}
        assert_eq!(irn.rto(), tcp.rto(), "same base RTO");
        let mut t = SimTime::from_millis(3);
        for i in 1..=8u32 {
            let (a, resent) = timeout(&mut irn, t);
            assert!(a.rearm_timer);
            assert_eq!(resent[0].seq, 0, "go-back-N from snd_una");
            tcp.on_timeout(t);
            assert_eq!(irn.backoff(), i);
            assert_eq!(
                irn.rto(),
                tcp.rto(),
                "backed-off RTO must match DctcpSender at timeout #{i}"
            );
            t += irn.rto();
        }
        // Forward progress resets the backoff on both.
        let _ = ack(&mut irn, t, 1_000);
        tcp.process_ack(t, 1_000, false);
        assert_eq!(irn.backoff(), 0);
        assert_eq!(irn.rto(), tcp.rto());
        assert_eq!(irn.rto(), SimDuration::from_millis(2));
    }

    #[test]
    fn completion_and_stray_events_after_it() {
        let mut s = sender(500);
        let burst = ready(&mut s, SimTime::ZERO);
        assert_eq!(burst.len(), 1);
        let (a, _) = ack(&mut s, SimTime::from_micros(10), 500);
        assert!(a.completed);
        assert!(s.is_completed());
        let (a, out) = timeout(&mut s, SimTime::from_millis(3));
        assert_eq!(a, AckAction::default());
        assert!(out.is_empty());
        let (a, out) = nack(&mut s, SimTime::from_millis(3), 0, 0);
        assert_eq!(a, AckAction::default());
        assert!(out.is_empty());
    }

    #[test]
    fn receiver_acks_in_order_and_nacks_new_gaps() {
        let mut r = receiver(10_000);
        let t = SimTime::from_micros(1);
        // In-order arrival: plain cumulative ACK.
        let a = r.on_data(t, 0, Bytes::new(1_000), false);
        assert_eq!(a, ack_of(1_000), "in-order data acks cumulatively");
        // 1000..2000 lost; 2000 arrives: a new gap → NACK(1000).
        let n = r.on_data(t, 2_000, Bytes::new(1_000), false);
        let nack = |seq, cumulative| Feedback::Nack { seq, cumulative };
        assert_eq!(n, nack(1_000, 1_000));
        // The next in-sequence arrival beyond the gap is not a new gap.
        let a = r.on_data(t, 3_000, Bytes::new(1_000), false);
        assert_eq!(a, ack_of(1_000));
        // A second hole at 4000: arrival of 5000 NACKs that hole, not
        // the first one (its NACK is already out).
        let n = r.on_data(t, 5_000, Bytes::new(1_000), false);
        assert_eq!(n, nack(4_000, 1_000));
        // The retransmission filling the first hole merges everything
        // up to the second hole.
        let a = r.on_data(t, 1_000, Bytes::new(1_000), false);
        assert_eq!(a, ack_of(4_000));
        assert!(r.finished_at().is_none());
        // Fill the second hole and the tail.
        let _ = r.on_data(t, 4_000, Bytes::new(1_000), false);
        let mut done = SimTime::from_micros(9);
        for seq in [6_000u64, 7_000, 8_000, 9_000] {
            done += SimDuration::from_nanos(100);
            let _ = r.on_data(done, seq, Bytes::new(1_000), false);
        }
        assert_eq!(r.received(), 10_000);
        assert_eq!(r.finished_at(), Some(done));
    }

    #[test]
    fn duplicate_and_retransmitted_data_does_not_renack() {
        let mut r = receiver(10_000);
        let t = SimTime::ZERO;
        let _ = r.on_data(t, 0, Bytes::new(1_000), false);
        let n = r.on_data(t, 2_000, Bytes::new(1_000), false);
        assert!(matches!(n, Feedback::Nack { .. }));
        // A duplicate of the out-of-order block stays below the high
        // water mark: ACK, not another NACK.
        let a = r.on_data(t, 2_000, Bytes::new(1_000), false);
        assert_eq!(a, ack_of(1_000));
        // A go-back-N resend of already-delivered data likewise.
        let a = r.on_data(t, 0, Bytes::new(1_000), false);
        assert_eq!(a, ack_of(1_000));
    }

    #[test]
    fn end_to_end_loss_recovery_without_rto() {
        // Drop two segments of the initial window and replay the
        // feedback clock. NACK-driven go-back-N must complete the flow
        // without on_timeout ever firing.
        let mut s = sender(25_000);
        let mut r = receiver(25_000);
        let mut inflight = ready(&mut s, SimTime::ZERO);
        assert_eq!(inflight.len(), 25);
        inflight.retain(|p| p.seq != 3_000 && p.seq != 17_000);
        let mut t = SimTime::from_micros(10);
        let mut rounds = 0;
        while !s.is_completed() {
            rounds += 1;
            assert!(rounds < 10, "flow failed to complete via NACK recovery");
            let delivered = std::mem::take(&mut inflight);
            assert!(!delivered.is_empty(), "stalled with nothing in flight");
            for p in delivered {
                let (_, out) = match r.on_data(t, p.seq, p.payload, false) {
                    Feedback::Ack { cumulative, .. } => ack(&mut s, t, cumulative),
                    Feedback::Nack { seq, cumulative } => nack(&mut s, t, seq, cumulative),
                    Feedback::Cnp => unreachable!("an IRN receiver sends no CNP"),
                };
                inflight.extend(out);
                t += SimDuration::from_nanos(100);
            }
        }
        assert_eq!(r.received(), 25_000);
        assert!(r.finished_at().is_some());
        assert_eq!(s.backoff(), 0, "no timeout was needed");
    }

    #[test]
    fn stale_nack_below_snd_una_is_ignored() {
        let mut s = sender(100_000);
        let _ = ready(&mut s, SimTime::ZERO);
        let t = SimTime::from_micros(10);
        let _ = ack(&mut s, t, 10_000);
        let (a, out) = nack(&mut s, t, 2_000, 0);
        assert!(!a.rearm_timer);
        assert!(
            out.iter().all(|p| p.seq >= 10_000),
            "stale hole must not rewind below snd_una: {out:?}"
        );
    }
}
