//! DCQCN: rate-based congestion control for RoCEv2 (Zhu et al.,
//! SIGCOMM 2015).
//!
//! Roles: the switch is the congestion point (CP) and marks ECN; the
//! receiver NIC is the notification point (NP), reflecting marks as CNPs
//! at most once per 50 µs per flow; the sender NIC is the reaction point
//! (RP), cutting its rate multiplicatively on CNP and recovering through
//! fast-recovery / additive-increase / hyper-increase stages driven by a
//! timer and a byte counter.

use dcn_net::{FlowId, NodeId, Packet, Priority, TrafficClass};
use dcn_sim::{BitRate, Bytes, SimDuration, SimTime};

/// DCQCN tunables (paper-standard defaults, scaled for 25 G links).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcqcnConfig {
    /// Payload bytes per packet.
    pub mtu: u64,
    /// Header overhead per data packet.
    pub header: Bytes,
    /// Rate floor after cuts.
    pub min_rate: BitRate,
    /// EWMA gain `g` for the α estimator.
    pub g: f64,
    /// α-decay timer period (the DCQCN paper's 55 µs).
    pub alpha_timer: SimDuration,
    /// Rate-increase timer period.
    pub rate_timer: SimDuration,
    /// Byte counter triggering a rate-increase stage event.
    pub byte_counter: Bytes,
    /// Stage threshold `F` separating fast recovery from additive /
    /// hyper increase.
    pub f: u32,
    /// Additive increase step.
    pub rai: BitRate,
    /// Hyper increase step.
    pub rhai: BitRate,
    /// Minimum spacing between CNPs at the notification point.
    pub cnp_interval: SimDuration,
}

impl Default for DcqcnConfig {
    fn default() -> Self {
        DcqcnConfig {
            mtu: 1_000,
            header: Bytes::new(48),
            min_rate: BitRate::from_mbps(10),
            g: 1.0 / 16.0,
            alpha_timer: SimDuration::from_micros(55),
            rate_timer: SimDuration::from_micros(100),
            byte_counter: Bytes::from_mb(10),
            f: 5,
            rai: BitRate::from_mbps(100),
            rhai: BitRate::from_mbps(500),
            cnp_interval: SimDuration::from_micros(50),
        }
    }
}

/// Which RP timer fired (each is armed as a cancellable wheel timer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpTimerKind {
    /// The α-decay timer.
    Alpha,
    /// The rate-increase timer.
    Rate,
}

/// Sender-side (reaction point) DCQCN state machine for one flow.
#[derive(Debug, Clone)]
pub struct DcqcnSender {
    cfg: DcqcnConfig,
    flow: FlowId,
    src: NodeId,
    dst: NodeId,
    priority: Priority,
    size: u64,
    line_rate: BitRate,

    snd_nxt: u64,
    rc: BitRate,
    rt: BitRate,
    alpha: f64,
    t_stage: u32,
    b_stage: u32,
    bytes_since_stage: u64,
    ever_cut: bool,
}

impl DcqcnSender {
    /// Creates a sender for a flow of `size` payload bytes, starting at
    /// `line_rate` (RoCEv2 NICs start at line rate).
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or `line_rate` is zero.
    pub fn new(
        cfg: DcqcnConfig,
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        priority: Priority,
        size: Bytes,
        line_rate: BitRate,
    ) -> DcqcnSender {
        assert!(size > Bytes::ZERO, "flow must carry at least one byte");
        assert!(!line_rate.is_zero(), "line rate must be positive");
        DcqcnSender {
            cfg,
            flow,
            src,
            dst,
            priority,
            size: size.as_u64(),
            line_rate,
            snd_nxt: 0,
            rc: line_rate,
            rt: line_rate,
            alpha: 1.0,
            t_stage: 0,
            b_stage: 0,
            bytes_since_stage: 0,
            ever_cut: false,
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current sending rate `Rc`.
    pub fn rate(&self) -> BitRate {
        self.rc
    }

    /// Current α estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Whether payload remains to be sent.
    pub fn has_more(&self) -> bool {
        self.snd_nxt < self.size
    }

    /// The next unsent byte offset (for diagnostics).
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// The configuration (for timer periods).
    pub fn config(&self) -> &DcqcnConfig {
        &self.cfg
    }

    /// Emits the next paced packet, or `None` when the flow has sent
    /// everything. The caller transmits it and schedules the next
    /// emission after [`DcqcnSender::gap_for`] of it.
    pub fn emit_next(&mut self, _now: SimTime) -> Option<Packet> {
        if !self.has_more() {
            return None;
        }
        let payload = self.cfg.mtu.min(self.size - self.snd_nxt);
        let pkt = Packet::data(
            self.flow,
            self.src,
            self.dst,
            self.priority,
            TrafficClass::Lossless,
            self.snd_nxt,
            Bytes::new(payload),
            self.cfg.header,
        );
        self.snd_nxt += payload;
        // Byte-counter stage events.
        self.bytes_since_stage += pkt.size().as_u64();
        if self.ever_cut && self.bytes_since_stage >= self.cfg.byte_counter.as_u64() {
            self.bytes_since_stage = 0;
            self.b_stage += 1;
            self.increase_rate();
        }
        Some(pkt)
    }

    /// Inter-packet pacing gap for a packet of `size` wire bytes at the
    /// current rate.
    pub fn gap_for(&self, size: Bytes) -> SimDuration {
        self.rc.tx_time(size)
    }

    /// Reacts to a CNP: multiplicative cut, α refresh, stage reset.
    /// Returns `true` when the caller must cancel any outstanding RP
    /// timers and (re)arm both afresh.
    pub fn on_cnp(&mut self, _now: SimTime) -> bool {
        self.rt = self.rc;
        self.rc = self.rc.scale(1.0 - self.alpha / 2.0).max(self.cfg.min_rate);
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
        self.t_stage = 0;
        self.b_stage = 0;
        self.bytes_since_stage = 0;
        self.ever_cut = true;
        true
    }

    /// Handles an RP timer firing. Returns whether to rearm. With
    /// wheel-armed timers a CNP cancels the old deadline outright, so a
    /// firing timer is always current — no generation check needed.
    pub fn on_timer(&mut self, kind: RpTimerKind) -> bool {
        match kind {
            RpTimerKind::Alpha => {
                self.alpha *= 1.0 - self.cfg.g;
                // Keep decaying while meaningfully non-zero.
                self.alpha > 1e-4 && self.has_more()
            }
            RpTimerKind::Rate => {
                self.t_stage += 1;
                self.increase_rate();
                self.rc < self.line_rate && self.has_more()
            }
        }
    }

    fn increase_rate(&mut self) {
        let f = self.cfg.f;
        if self.t_stage < f && self.b_stage < f {
            // Fast recovery: halve the distance to Rt.
        } else if self.t_stage >= f && self.b_stage >= f {
            self.rt = self.rt.saturating_add(self.cfg.rhai).min(self.line_rate);
        } else {
            self.rt = self.rt.saturating_add(self.cfg.rai).min(self.line_rate);
        }
        let avg = BitRate::from_bps((self.rc.as_bps() + self.rt.as_bps()) / 2);
        // Snap to line rate once within 1 Mbps so recovery terminates
        // (the integer average otherwise approaches it asymptotically).
        self.rc =
            if self.line_rate.as_bps() - avg.as_bps().min(self.line_rate.as_bps()) <= 1_000_000 {
                self.line_rate
            } else {
                avg
            };
    }
}

/// Receiver-side (notification point) state for one flow: counts payload
/// and reflects CE marks as CNPs with the 50 µs filter.
#[derive(Debug, Clone)]
pub struct DcqcnReceiver {
    flow: FlowId,
    host: NodeId,
    peer: NodeId,
    priority: Priority,
    size: u64,
    received: u64,
    last_cnp: Option<SimTime>,
    finished_at: Option<SimTime>,
}

impl DcqcnReceiver {
    /// Creates receiver state for a flow of `size` payload bytes.
    pub fn new(flow: FlowId, host: NodeId, peer: NodeId, priority: Priority, size: Bytes) -> Self {
        DcqcnReceiver {
            flow,
            host,
            peer,
            priority,
            size: size.as_u64(),
            received: 0,
            last_cnp: None,
            finished_at: None,
        }
    }

    /// Payload bytes received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// When the last payload byte arrived, if complete.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Cnp interval used by this receiver (from its sender's config at
    /// wiring time; the default matches the DCQCN paper).
    const CNP_INTERVAL: SimDuration = SimDuration::from_micros(50);

    /// Processes a data packet; returns a CNP to send if the packet was
    /// CE-marked and the 50 µs filter allows one.
    pub fn on_data(&mut self, now: SimTime, payload: Bytes, ce: bool) -> Option<Packet> {
        self.received += payload.as_u64();
        if self.received >= self.size && self.finished_at.is_none() {
            self.finished_at = Some(now);
        }
        if !ce {
            return None;
        }
        let allow = match self.last_cnp {
            None => true,
            Some(t) => now.saturating_since(t) >= Self::CNP_INTERVAL,
        };
        if allow {
            self.last_cnp = Some(now);
            Some(Packet::cnp(self.flow, self.host, self.peer, self.priority))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender(size: u64) -> DcqcnSender {
        DcqcnSender::new(
            DcqcnConfig::default(),
            FlowId::new(1),
            NodeId::new(0),
            NodeId::new(1),
            Priority::new(3),
            Bytes::new(size),
            BitRate::from_gbps(25),
        )
    }

    #[test]
    fn starts_at_line_rate_and_paces() {
        let mut s = sender(5_000);
        assert_eq!(s.rate(), BitRate::from_gbps(25));
        let p = s.emit_next(SimTime::ZERO).unwrap();
        assert_eq!(p.seq, 0);
        assert_eq!(p.size(), Bytes::new(1_048));
        // Gap at 25 Gbps for 1048 B = 336 ns (rounded up).
        assert_eq!(s.gap_for(p.size()).as_nanos(), 336);
    }

    #[test]
    fn emits_whole_flow_then_stops() {
        let mut s = sender(2_500);
        let sizes: Vec<u64> = std::iter::from_fn(|| s.emit_next(SimTime::ZERO))
            .map(|p| p.payload().as_u64())
            .collect();
        assert_eq!(sizes, vec![1_000, 1_000, 500]);
        assert!(!s.has_more());
        assert!(s.emit_next(SimTime::ZERO).is_none());
    }

    #[test]
    fn cnp_cuts_rate_multiplicatively() {
        let mut s = sender(1_000_000);
        let r0 = s.rate();
        assert!(s.on_cnp(SimTime::from_micros(10)));
        // α starts at 1: first cut halves.
        assert_eq!(s.rate().as_bps(), r0.as_bps() / 2);
        let a1 = s.alpha();
        assert!(a1 >= 1.0 - 1e-12, "α refreshed toward 1");
        // Second CNP cuts again from the lower rate.
        s.on_cnp(SimTime::from_micros(20));
        assert!(s.rate().as_bps() < r0.as_bps() / 2);
    }

    #[test]
    fn rate_never_below_floor() {
        let mut s = sender(1_000_000);
        for i in 0..100 {
            s.on_cnp(SimTime::from_micros(i * 50));
        }
        assert!(s.rate() >= BitRate::from_mbps(10));
    }

    #[test]
    fn alpha_timer_decays() {
        let mut s = sender(1_000_000);
        s.on_cnp(SimTime::from_micros(10));
        let a = s.alpha();
        assert!(s.on_timer(RpTimerKind::Alpha));
        assert!(s.alpha() < a);
    }

    #[test]
    fn fast_recovery_converges_to_target() {
        let mut s = sender(10_000_000);
        s.on_cnp(SimTime::from_micros(10));
        let rt = BitRate::from_gbps(25); // rt was line rate pre-cut
        for _ in 0..4 {
            assert!(s.on_timer(RpTimerKind::Rate));
        }
        // After several fast-recovery steps Rc approaches Rt = 25 G.
        assert!(s.rate().as_bps() > rt.as_bps() * 9 / 10);
    }

    #[test]
    fn additive_then_hyper_increase_engage() {
        let cfg = DcqcnConfig {
            f: 2,
            ..DcqcnConfig::default()
        };
        let mut s = DcqcnSender::new(
            cfg,
            FlowId::new(1),
            NodeId::new(0),
            NodeId::new(1),
            Priority::new(3),
            Bytes::from_mb(100),
            BitRate::from_gbps(25),
        );
        s.on_cnp(SimTime::ZERO);
        // Drive only the timer: after F stages, additive increase raises
        // Rt beyond line-rate-capped fast recovery ceiling.
        for _ in 0..50 {
            if !s.on_timer(RpTimerKind::Rate) {
                break;
            }
        }
        assert_eq!(s.rate(), BitRate::from_gbps(25), "recovers to line rate");
    }

    #[test]
    fn np_cnp_filter() {
        let mut r = DcqcnReceiver::new(
            FlowId::new(1),
            NodeId::new(1),
            NodeId::new(0),
            Priority::new(3),
            Bytes::new(10_000),
        );
        assert!(r
            .on_data(SimTime::from_micros(0), Bytes::new(1_000), true)
            .is_some());
        // 10 µs later: suppressed.
        assert!(r
            .on_data(SimTime::from_micros(10), Bytes::new(1_000), true)
            .is_none());
        // 60 µs after the first: allowed again.
        assert!(r
            .on_data(SimTime::from_micros(60), Bytes::new(1_000), true)
            .is_some());
        // Unmarked packets never trigger CNPs.
        assert!(r
            .on_data(SimTime::from_micros(200), Bytes::new(1_000), false)
            .is_none());
    }

    #[test]
    fn receiver_completion() {
        let mut r = DcqcnReceiver::new(
            FlowId::new(1),
            NodeId::new(1),
            NodeId::new(0),
            Priority::new(3),
            Bytes::new(2_000),
        );
        r.on_data(SimTime::from_micros(1), Bytes::new(1_000), false);
        assert!(r.finished_at().is_none());
        r.on_data(SimTime::from_micros(2), Bytes::new(1_000), false);
        assert_eq!(r.finished_at(), Some(SimTime::from_micros(2)));
        assert_eq!(r.received(), 2_000);
    }
}
