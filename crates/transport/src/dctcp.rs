//! DCTCP: TCP with ECN-fraction congestion control (Alizadeh et al.,
//! SIGCOMM 2010), plus NewReno-style loss recovery for the lossy class.

use dcn_net::{FlowId, NodeId, Packet, Priority, TrafficClass};
use dcn_sim::{Bytes, SimDuration, SimTime};

use crate::recovery::{Reassembly, RtoBackoff};

/// DCTCP tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DctcpConfig {
    /// Maximum segment size (payload bytes per packet).
    pub mss: u64,
    /// Header overhead added to each data packet on the wire.
    pub header: Bytes,
    /// Initial congestion window, in segments.
    pub init_cwnd_segments: u64,
    /// EWMA gain `g` of the marked-fraction estimator.
    pub g: f64,
    /// Base retransmission timeout (DCN-tuned minimum). Doubled on
    /// each consecutive timeout up to [`DctcpConfig::max_rto`].
    pub rto: SimDuration,
    /// Upper bound on the backed-off RTO.
    pub max_rto: SimDuration,
}

impl Default for DctcpConfig {
    fn default() -> Self {
        DctcpConfig {
            mss: 1_000,
            header: Bytes::new(48),
            init_cwnd_segments: 10,
            g: 1.0 / 16.0,
            rto: SimDuration::from_millis(2),
            max_rto: SimDuration::from_millis(64),
        }
    }
}

/// A loss-recovery state transition that happened while processing an
/// ACK, reported so the caller can log or trace it. At most one
/// transition can happen per ACK, so it travels as an `Option` and the
/// common no-transition ACK stays allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpEvent {
    /// Third duplicate ACK: entered fast recovery.
    EnterRecovery {
        /// `snd_nxt` at entry; recovery ends once this is acked.
        recover_seq: u64,
    },
    /// Partial ACK inside recovery: the hole at the new `snd_una` was
    /// retransmitted (NewReno).
    PartialAckRetransmit {
        /// The retransmitted hole.
        snd_una: u64,
    },
    /// Cumulative ACK covered `recover_seq`: left fast recovery.
    ExitRecovery,
}

/// What the sender wants done after processing an ACK.
///
/// Segments to transmit are appended to the `out` buffer the caller
/// passes to [`DctcpSender::on_ack`] / [`DctcpSender::on_timeout`], so
/// the per-ACK hot path allocates nothing; this struct carries only the
/// plain-data side effects.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckAction {
    /// Whether the retransmission timer should be (re)armed at
    /// `now + rto` (the caller cancels and re-arms its wheel timer).
    pub rearm_timer: bool,
    /// All data acknowledged — the flow is complete at the sender.
    pub completed: bool,
    /// Recovery-state transition taken by this ACK, if any.
    pub transition: Option<TcpEvent>,
}

/// Sender-side DCTCP state machine for one flow.
#[derive(Debug, Clone)]
pub struct DctcpSender {
    cfg: DctcpConfig,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    priority: Priority,
    size: u64,

    snd_nxt: u64,
    snd_una: u64,
    cwnd: f64,
    ssthresh: f64,

    // DCTCP estimator.
    alpha: f64,
    acked_bytes: u64,
    marked_bytes: u64,
    window_end: u64,
    cut_this_window: bool,

    // Loss recovery.
    dup_acks: u32,
    in_recovery: bool,
    recover_seq: u64,
    backoff: RtoBackoff,

    completed: bool,
}

impl DctcpSender {
    /// Creates a sender for a flow of `size` payload bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn new(
        cfg: DctcpConfig,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        priority: Priority,
        size: Bytes,
    ) -> DctcpSender {
        assert!(size > Bytes::ZERO, "flow must carry at least one byte");
        let cwnd = (cfg.init_cwnd_segments * cfg.mss) as f64;
        DctcpSender {
            cfg,
            flow,
            src,
            dst,
            priority,
            size: size.as_u64(),
            snd_nxt: 0,
            snd_una: 0,
            cwnd,
            ssthresh: f64::MAX,
            // DCTCP convention: start α at 1 so the first congestion
            // signal cuts conservatively before the estimator converges.
            alpha: 1.0,
            acked_bytes: 0,
            marked_bytes: 0,
            window_end: 0,
            cut_this_window: false,
            dup_acks: 0,
            in_recovery: false,
            recover_seq: 0,
            backoff: RtoBackoff::default(),
            completed: false,
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Current DCTCP α estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether all payload has been acknowledged.
    pub fn is_completed(&self) -> bool {
        self.completed
    }

    /// Slow-start threshold in bytes (`f64::MAX` until the first cut).
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Whether the sender is in NewReno fast recovery.
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Consecutive timeouts since the last forward progress.
    pub fn backoff(&self) -> u32 {
        self.backoff.count()
    }

    /// The RTO to arm next: the base RTO doubled once per consecutive
    /// timeout, capped at [`DctcpConfig::max_rto`].
    pub fn rto(&self) -> SimDuration {
        self.backoff.rto(self.cfg.rto, self.cfg.max_rto)
    }

    fn segment(&self, seq: u64) -> Packet {
        let payload = self.cfg.mss.min(self.size - seq);
        Packet::data(
            self.flow,
            self.src,
            self.dst,
            self.priority,
            TrafficClass::Lossy,
            seq,
            Bytes::new(payload),
            self.cfg.header,
        )
    }

    /// Appends every segment the window currently allows to `out`.
    /// Called at flow start and internally after each ACK ([`on_ack`]
    /// pushes the ready batch into its own `out` buffer).
    ///
    /// [`on_ack`]: DctcpSender::on_ack
    pub fn take_ready(&mut self, _now: SimTime, out: &mut Vec<Packet>) {
        let limit = (self.snd_una as f64 + self.cwnd) as u64;
        while self.snd_nxt < self.size
            && self.snd_nxt + self.cfg.mss.min(self.size - self.snd_nxt) <= limit
        {
            let pkt = self.segment(self.snd_nxt);
            self.snd_nxt += pkt.payload().as_u64();
            out.push(pkt);
        }
        if self.window_end == 0 {
            self.window_end = self.snd_nxt;
        }
    }

    /// Processes a cumulative ACK with its ECN-echo bit, appending any
    /// segments to transmit (retransmissions and newly allowed data) to
    /// `out`.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        cumulative_ack: u64,
        ecn_echo: bool,
        out: &mut Vec<Packet>,
    ) -> AckAction {
        let mut action = AckAction::default();
        if self.completed {
            return action;
        }

        if cumulative_ack > self.snd_una {
            let newly = cumulative_ack - self.snd_una;
            self.snd_una = cumulative_ack;
            self.dup_acks = 0;
            self.backoff.reset();
            self.acked_bytes += newly;
            if ecn_echo {
                self.marked_bytes += newly;
            }

            if self.in_recovery {
                if cumulative_ack >= self.recover_seq {
                    // Full ACK: the whole outstanding window at entry is
                    // repaired — leave recovery at the halved window.
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh.max(self.cfg.mss as f64);
                    action.transition = Some(TcpEvent::ExitRecovery);
                } else {
                    // Partial ACK (NewReno): the ACK advanced but did not
                    // cover the recovery point, so the next hole starts at
                    // the new snd_una — retransmit it immediately instead
                    // of stalling until the RTO.
                    out.push(self.segment(self.snd_una));
                    action.transition = Some(TcpEvent::PartialAckRetransmit {
                        snd_una: self.snd_una,
                    });
                }
            }

            // The ECE of this ACK belongs to the window it closes, so
            // react before rolling the window boundary over.
            if ecn_echo && !self.cut_this_window && !self.in_recovery {
                // DCTCP cut: once per window, proportional to α.
                self.cwnd = (self.cwnd * (1.0 - self.alpha / 2.0)).max(self.cfg.mss as f64);
                self.ssthresh = self.cwnd;
                self.cut_this_window = true;
            } else if !self.in_recovery {
                if self.cwnd < self.ssthresh {
                    self.cwnd += newly as f64; // slow start
                } else {
                    self.cwnd += self.cfg.mss as f64 * newly as f64 / self.cwnd;
                }
            }

            // DCTCP window-boundary α update.
            if cumulative_ack >= self.window_end {
                if self.acked_bytes > 0 {
                    let f = self.marked_bytes as f64 / self.acked_bytes as f64;
                    self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g * f;
                }
                self.acked_bytes = 0;
                self.marked_bytes = 0;
                self.window_end = self.snd_nxt.max(cumulative_ack);
                self.cut_this_window = false;
            }

            if self.snd_una >= self.size {
                // The caller cancels the outstanding RTO timer.
                self.completed = true;
                action.completed = true;
                return action;
            }
            action.rearm_timer = true;
            self.take_ready(now, out);
        } else {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && !self.in_recovery {
                self.in_recovery = true;
                self.recover_seq = self.snd_nxt;
                self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
                self.cwnd = self.ssthresh;
                out.push(self.segment(self.snd_una));
                action.transition = Some(TcpEvent::EnterRecovery {
                    recover_seq: self.recover_seq,
                });
                action.rearm_timer = true;
            }
        }
        action
    }

    /// Handles a retransmission timeout, appending the go-back-N resend
    /// to `out`. With wheel-armed timers every progress ACK cancels and
    /// re-arms the deadline, so a firing timer is live by construction;
    /// the completed guard is defence in depth only.
    pub fn on_timeout(&mut self, now: SimTime, out: &mut Vec<Packet>) -> AckAction {
        let mut action = AckAction::default();
        if self.completed {
            return action;
        }
        // Go-back-N: collapse to one segment and resend from snd_una.
        self.ssthresh = (self.cwnd / 2.0).max(2.0 * self.cfg.mss as f64);
        self.cwnd = self.cfg.mss as f64;
        self.in_recovery = false;
        self.dup_acks = 0;
        self.snd_nxt = self.snd_una;
        self.backoff.timed_out();
        self.take_ready(now, out);
        action.rearm_timer = true;
        action
    }
}

/// Receiver-side state: cumulative ACK generation with out-of-order
/// segment tracking and per-packet ECN echo (the DCTCP receiver echoes
/// the CE state of each segment).
#[derive(Debug, Clone)]
pub struct DctcpReceiver {
    flow: FlowId,
    host: NodeId,
    peer: NodeId,
    priority: Priority,
    stream: Reassembly,
}

impl DctcpReceiver {
    /// Creates receiver state for a flow of `size` payload bytes
    /// arriving at `host` from `peer`.
    pub fn new(flow: FlowId, host: NodeId, peer: NodeId, priority: Priority, size: Bytes) -> Self {
        DctcpReceiver {
            flow,
            host,
            peer,
            priority,
            stream: Reassembly::new(size.as_u64()),
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

    /// Processes a data segment; returns the ACK to send back.
    pub fn on_data(&mut self, now: SimTime, seq: u64, payload: Bytes, ce: bool) -> Packet {
        self.stream.insert(now, seq, seq + payload.as_u64());
        Packet::ack(
            self.flow,
            self.host,
            self.peer,
            self.priority,
            TrafficClass::Lossy,
            self.stream.rcv_nxt(),
            ce,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender(size: u64) -> DctcpSender {
        DctcpSender::new(
            DctcpConfig::default(),
            FlowId::new(1),
            NodeId::new(0),
            NodeId::new(1),
            Priority::new(1),
            Bytes::new(size),
        )
    }

    /// Collects the ready batch into a fresh Vec (test convenience for
    /// the buffer-filling API).
    fn ready(s: &mut DctcpSender, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        s.take_ready(now, &mut out);
        out
    }

    /// Runs one ACK and returns the action plus the emitted segments.
    fn ack(s: &mut DctcpSender, now: SimTime, cum: u64, ecn: bool) -> (AckAction, Vec<Packet>) {
        let mut out = Vec::new();
        let a = s.on_ack(now, cum, ecn, &mut out);
        (a, out)
    }

    /// Runs one timeout and returns the action plus the resent segments.
    fn timeout(s: &mut DctcpSender, now: SimTime) -> (AckAction, Vec<Packet>) {
        let mut out = Vec::new();
        let a = s.on_timeout(now, &mut out);
        (a, out)
    }

    #[test]
    fn initial_window_burst() {
        let mut s = sender(100_000);
        let burst = ready(&mut s, SimTime::ZERO);
        assert_eq!(burst.len(), 10, "init cwnd = 10 segments");
        assert_eq!(burst[0].seq, 0);
        assert_eq!(burst[9].seq, 9_000);
        // No more until acked.
        assert!(ready(&mut s, SimTime::ZERO).is_empty());
    }

    #[test]
    fn short_flow_single_segment() {
        let mut s = sender(500);
        let burst = ready(&mut s, SimTime::ZERO);
        assert_eq!(burst.len(), 1);
        assert_eq!(burst[0].payload(), Bytes::new(500));
        let (a, _) = ack(&mut s, SimTime::from_micros(10), 500, false);
        assert!(a.completed);
        assert!(s.is_completed());
    }

    #[test]
    fn slow_start_doubles() {
        let mut s = sender(10_000_000);
        let w0 = s.cwnd();
        let burst = ready(&mut s, SimTime::ZERO);
        let mut t = SimTime::from_micros(10);
        for p in &burst {
            ack(&mut s, t, p.seq + p.payload().as_u64(), false);
            t += SimDuration::from_nanos(100);
        }
        assert!(
            (s.cwnd() - 2.0 * w0).abs() < 1.0,
            "cwnd {} vs {}",
            s.cwnd(),
            2.0 * w0
        );
    }

    #[test]
    fn ecn_cut_uses_alpha_once_per_window() {
        let mut s = sender(10_000_000);
        let burst = ready(&mut s, SimTime::ZERO);
        let mut t = SimTime::from_micros(10);
        // Whole first window marked: alpha jumps to g·1 at the boundary,
        // and the window is cut once.
        let before = s.cwnd();
        let mut cut_seen = 0;
        let mut last_cwnd = before;
        for p in &burst {
            ack(&mut s, t, p.seq + p.payload().as_u64(), true);
            if s.cwnd() < last_cwnd {
                cut_seen += 1;
            }
            last_cwnd = s.cwnd();
            t += SimDuration::from_nanos(100);
        }
        assert_eq!(cut_seen, 1, "exactly one multiplicative cut per window");
        assert!(s.alpha() > 0.0);
    }

    #[test]
    fn unmarked_traffic_decays_alpha() {
        let mut s = sender(10_000_000);
        let mut t = SimTime::from_micros(1);
        let mut inflight = ready(&mut s, SimTime::ZERO);
        let ack_all =
            |s: &mut DctcpSender, inflight: &mut Vec<Packet>, t: &mut SimTime, marked: bool| {
                let pkts = std::mem::take(inflight);
                for p in pkts {
                    s.on_ack(*t, p.seq + p.payload().as_u64(), marked, inflight);
                    *t += SimDuration::from_nanos(100);
                }
            };
        // Marked phase keeps α high.
        for _ in 0..3 {
            ack_all(&mut s, &mut inflight, &mut t, true);
        }
        let a1 = s.alpha();
        assert!(a1 > 0.5, "α after marked phase: {a1}");
        // Clean phase decays it window by window.
        for _ in 0..3 {
            ack_all(&mut s, &mut inflight, &mut t, false);
        }
        assert!(s.alpha() < a1, "α {} did not decay from {a1}", s.alpha());
    }

    #[test]
    fn triple_dup_ack_fast_retransmits() {
        let mut s = sender(100_000);
        let burst = ready(&mut s, SimTime::ZERO);
        assert!(burst.len() >= 4);
        let t = SimTime::from_micros(10);
        // First segment lost: acks for later segments all carry cum = 0...
        // Receiver semantics: cumulative stays at 0 (well, seq 0 missing).
        let w_before = s.cwnd();
        assert!(ack(&mut s, t, 0, false).1.is_empty());
        assert!(ack(&mut s, t, 0, false).1.is_empty());
        let (_, third) = ack(&mut s, t, 0, false);
        assert_eq!(third.len(), 1, "fast retransmit");
        assert_eq!(third[0].seq, 0);
        assert!(s.cwnd() < w_before);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut s = sender(100_000);
        let _ = ready(&mut s, SimTime::ZERO);
        let (_, resent) = timeout(&mut s, SimTime::from_millis(3));
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].seq, 0);
        assert_eq!(s.cwnd(), 1_000.0);
    }

    #[test]
    fn timeout_after_completion_is_ignored() {
        // Defence in depth: the fabric cancels the RTO wheel timer at
        // completion, so this cannot fire in a correct run — but a
        // stray call must still be a no-op.
        let mut s = sender(500);
        let _ = ready(&mut s, SimTime::ZERO);
        let (a, _) = ack(&mut s, SimTime::from_micros(10), 500, false);
        assert!(a.completed);
        let (a, resent) = timeout(&mut s, SimTime::from_millis(3));
        assert_eq!(a, AckAction::default());
        assert!(resent.is_empty());
    }

    #[test]
    fn partial_ack_retransmits_hole_immediately() {
        // Two holes in one window: the third dup-ACK retransmits the
        // first; the partial ACK that repairs it must retransmit the
        // second instead of falling through silently.
        let mut s = sender(100_000);
        let _ = ready(&mut s, SimTime::ZERO); // segs 0..10_000
        let t = SimTime::from_micros(10);
        ack(&mut s, t, 0, false);
        ack(&mut s, t, 0, false);
        let (third, third_out) = ack(&mut s, t, 0, false);
        assert_eq!(third_out[0].seq, 0);
        assert!(matches!(
            third.transition,
            Some(TcpEvent::EnterRecovery {
                recover_seq: 10_000
            })
        ));
        assert!(s.in_recovery());
        // Retransmitted seg 0 repairs up to the second hole at 5000.
        let (partial, partial_out) = ack(&mut s, t, 5_000, false);
        assert!(s.in_recovery(), "partial ACK must not exit recovery");
        assert_eq!(partial_out.len(), 1, "{partial_out:?}");
        assert_eq!(partial_out[0].seq, 5_000, "retransmit new snd_una");
        assert!(matches!(
            partial.transition,
            Some(TcpEvent::PartialAckRetransmit { snd_una: 5_000 })
        ));
        assert!(partial.rearm_timer, "progress re-arms the timer");
        // The full ACK exits recovery.
        let (full, _) = ack(&mut s, t, 10_000, false);
        assert!(!s.in_recovery());
        assert!(matches!(full.transition, Some(TcpEvent::ExitRecovery)));
    }

    #[test]
    fn multi_loss_window_completes_via_fast_recovery_without_rto() {
        // End-to-end against the real receiver: drop two segments of
        // the initial window and replay the ACK clock. The flow must
        // complete without on_timeout ever being called — the stall
        // this regression test pins down previously needed an RTO.
        let mut s = sender(10_000);
        let mut r = DctcpReceiver::new(
            FlowId::new(1),
            NodeId::new(1),
            NodeId::new(0),
            Priority::new(1),
            Bytes::new(10_000),
        );
        let mut inflight = ready(&mut s, SimTime::ZERO);
        assert_eq!(inflight.len(), 10);
        // Lose seq 0 and seq 5000 on the first pass.
        inflight.retain(|p| p.seq != 0 && p.seq != 5_000);
        let mut t = SimTime::from_micros(10);
        let mut rounds = 0;
        while !s.is_completed() {
            rounds += 1;
            assert!(rounds < 10, "flow failed to complete via fast recovery");
            let delivered = std::mem::take(&mut inflight);
            assert!(!delivered.is_empty(), "stalled with nothing in flight");
            for p in delivered {
                let ack = r.on_data(t, p.seq, p.payload(), false);
                assert!(matches!(ack.kind, dcn_net::PacketKind::Ack { .. }));
                s.on_ack(t, ack.ack, false, &mut inflight);
                t += SimDuration::from_nanos(100);
            }
        }
        assert_eq!(r.received(), 10_000);
        assert_eq!(s.backoff(), 0, "no timeout was needed");
    }

    #[test]
    fn consecutive_timeouts_back_off_exponentially() {
        let mut s = sender(100_000);
        let _ = ready(&mut s, SimTime::ZERO);
        assert_eq!(s.rto(), SimDuration::from_millis(2), "base RTO");
        let mut t = SimTime::from_millis(3);
        let mut expected_ms = 2u64;
        for i in 1..=7u32 {
            let (a, _) = timeout(&mut s, t);
            assert!(a.rearm_timer);
            assert_eq!(s.backoff(), i);
            expected_ms = (expected_ms * 2).min(64);
            assert_eq!(
                s.rto(),
                SimDuration::from_millis(expected_ms),
                "doubled and capped at 64ms after timeout #{i}"
            );
            t += s.rto();
        }
        // Forward progress resets the backoff.
        let (a, _) = ack(&mut s, t, 1_000, false);
        assert!(a.rearm_timer);
        assert_eq!(s.backoff(), 0);
        assert_eq!(s.rto(), SimDuration::from_millis(2));
    }

    #[test]
    fn receiver_cumulative_and_ooo() {
        let mut r = DctcpReceiver::new(
            FlowId::new(1),
            NodeId::new(1),
            NodeId::new(0),
            Priority::new(1),
            Bytes::new(3_000),
        );
        // Segment 1 (1000..2000) arrives before segment 0.
        let a1 = r.on_data(SimTime::from_micros(1), 1_000, Bytes::new(1_000), false);
        assert!(matches!(a1.kind, dcn_net::PacketKind::Ack { .. }));
        assert_eq!(a1.ack, 0);
        let a0 = r.on_data(SimTime::from_micros(2), 0, Bytes::new(1_000), false);
        assert!(matches!(a0.kind, dcn_net::PacketKind::Ack { .. }));
        assert_eq!(a0.ack, 2_000);
        assert!(r.finished_at().is_none());
        let _ = r.on_data(SimTime::from_micros(3), 2_000, Bytes::new(1_000), true);
        assert_eq!(r.finished_at(), Some(SimTime::from_micros(3)));
    }

    #[test]
    fn receiver_echoes_ce() {
        let mut r = DctcpReceiver::new(
            FlowId::new(1),
            NodeId::new(1),
            NodeId::new(0),
            Priority::new(1),
            Bytes::new(2_000),
        );
        let ack = r.on_data(SimTime::ZERO, 0, Bytes::new(1_000), true);
        assert_eq!(ack.kind, dcn_net::PacketKind::Ack { ecn_echo: true });
    }

    #[test]
    fn duplicate_data_does_not_regress() {
        let mut r = DctcpReceiver::new(
            FlowId::new(1),
            NodeId::new(1),
            NodeId::new(0),
            Priority::new(1),
            Bytes::new(2_000),
        );
        r.on_data(SimTime::ZERO, 0, Bytes::new(1_000), false);
        let again = r.on_data(SimTime::from_micros(1), 0, Bytes::new(1_000), false);
        assert!(matches!(again.kind, dcn_net::PacketKind::Ack { .. }));
        assert_eq!(again.ack, 1_000);
        assert_eq!(r.received(), 1_000);
    }
}
