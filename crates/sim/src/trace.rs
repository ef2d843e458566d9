//! Deterministic flight recorder: a zero-cost-when-disabled tracing
//! layer that records typed packet/transport lifecycle events into a
//! bounded ring buffer for offline "why did flow X stall / packet Y
//! drop" analysis.
//!
//! The recorder is deliberately defined on plain integer identifiers
//! (`u64` flow ids, `u32` node ids, `u16` ports, `u8` priorities) so it
//! can live in the dependency-free base crate and be shared by every
//! layer above it — switches record admission/ECN/PFC edges, the fabric
//! records transport state transitions, and the `trace` binary dumps
//! everything as JSONL.
//!
//! Cost model: call sites hold a [`TraceHandle`], which is a thin
//! `Option` around a shared recorder. When tracing is disabled the
//! handle is `None` and [`TraceHandle::record_with`] is a single branch
//! — the event itself is never constructed (it is built inside a
//! closure evaluated only when enabled), keeping the hot path within
//! noise of an untraced build.
//!
//! Besides the (evictable) ring, the recorder keeps small aggregate
//! counters (drops by cause, PFC pause/resume edges, RTO fires) that
//! are never evicted, so reconciliation against the switch-side
//! `DropCounters`/`PfcCounters` stays exact even if the ring wraps.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::time::SimTime;

/// Why a packet was dropped at a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceDropCause {
    /// A lossy packet exceeded its ingress-queue admission threshold.
    AdmissionDeniedIngress,
    /// A lossy packet exceeded the egress-queue dynamic threshold.
    AdmissionDeniedEgress,
    /// A lossless packet found both shared space and headroom exhausted.
    HeadroomExhausted,
    /// The packet was on the wire (or queued to the egress) of a link
    /// that went down before delivery.
    LinkDown,
    /// The switch had no live next hop towards the destination (every
    /// candidate port's link is down).
    NoRoute,
    /// The packet was corrupted in flight by an injected bit-error-rate
    /// fault and discarded at the receiver.
    Corrupted,
    /// The packet was already enqueued but was preemptively evicted by
    /// the buffer policy to admit a higher-value arrival (Occamy-style
    /// preemption). Only lossy packets are ever evicted.
    Evicted,
}

impl TraceDropCause {
    /// Stable machine-readable name (used in JSONL and summaries).
    pub const fn name(self) -> &'static str {
        match self {
            TraceDropCause::AdmissionDeniedIngress => "admission_denied_ingress",
            TraceDropCause::AdmissionDeniedEgress => "admission_denied_egress",
            TraceDropCause::HeadroomExhausted => "headroom_exhausted",
            TraceDropCause::LinkDown => "link_down",
            TraceDropCause::NoRoute => "no_route",
            TraceDropCause::Corrupted => "corrupted",
            TraceDropCause::Evicted => "evicted",
        }
    }
}

/// One typed lifecycle event. Queue-scoped events carry `(node, port,
/// prio)`; transport events carry only the flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A packet was admitted into an egress queue of a switch.
    Enqueue {
        /// Switch node id.
        node: u32,
        /// Arrival port.
        in_port: u16,
        /// Egress port the packet was queued on.
        out_port: u16,
        /// 802.1p priority.
        prio: u8,
        /// Flow id.
        flow: u64,
        /// Byte offset within the flow (0 for ACK/CNP).
        seq: u64,
        /// Wire size in bytes.
        size: u64,
    },
    /// A packet finished serializing out of a switch port.
    Dequeue {
        /// Switch node id.
        node: u32,
        /// Transmitting egress port.
        port: u16,
        /// 802.1p priority.
        prio: u8,
        /// Flow id.
        flow: u64,
        /// Byte offset within the flow.
        seq: u64,
        /// Wire size in bytes.
        size: u64,
    },
    /// A packet was rejected at admission, with the cause.
    Drop {
        /// Switch node id.
        node: u32,
        /// Arrival port.
        in_port: u16,
        /// 802.1p priority.
        prio: u8,
        /// Flow id.
        flow: u64,
        /// Byte offset within the flow.
        seq: u64,
        /// Wire size in bytes.
        size: u64,
        /// Whether the packet belonged to the lossless class.
        lossless: bool,
        /// Why admission refused it.
        cause: TraceDropCause,
    },
    /// The switch set the CE codepoint on a packet.
    EcnMark {
        /// Switch node id.
        node: u32,
        /// Egress port of the marked packet.
        port: u16,
        /// 802.1p priority.
        prio: u8,
        /// Flow id.
        flow: u64,
        /// Byte offset within the flow.
        seq: u64,
        /// Egress queue depth (bytes, after enqueue) that triggered it.
        queue_depth: u64,
    },
    /// The switch emitted a PFC XOFF for an ingress queue (pause edge).
    PfcPause {
        /// Switch node id.
        node: u32,
        /// Ingress port whose upstream neighbour is paused.
        port: u16,
        /// Paused priority.
        prio: u8,
    },
    /// The switch emitted a PFC XON (resume edge).
    PfcResume {
        /// Switch node id.
        node: u32,
        /// Ingress port whose upstream neighbour resumes.
        port: u16,
        /// Resumed priority.
        prio: u8,
    },
    /// A DCTCP sender's congestion window after processing an ACK.
    TcpCwnd {
        /// Flow id.
        flow: u64,
        /// Congestion window, bytes (rounded down).
        cwnd: u64,
        /// Slow-start threshold, bytes (`u64::MAX` when unset).
        ssthresh: u64,
        /// Whether the sender is in fast recovery.
        in_recovery: bool,
    },
    /// A DCTCP sender entered fast recovery (third dup-ACK).
    TcpEnterRecovery {
        /// Flow id.
        flow: u64,
        /// `snd_nxt` at entry; recovery ends when cumulatively acked.
        recover_seq: u64,
    },
    /// A partial ACK inside recovery triggered a hole retransmit.
    TcpPartialAckRetransmit {
        /// Flow id.
        flow: u64,
        /// The hole being retransmitted (the new `snd_una`).
        snd_una: u64,
    },
    /// A DCTCP sender left fast recovery (full window acked).
    TcpExitRecovery {
        /// Flow id.
        flow: u64,
    },
    /// A retransmission timeout fired (not stale).
    RtoFire {
        /// Flow id.
        flow: u64,
        /// Consecutive-timeout count after this fire (1 = first).
        backoff: u32,
        /// The RTO that will arm next, nanoseconds (post-backoff).
        next_rto_ns: u64,
    },
    /// A DCQCN sender's current rate after a CNP or timer event.
    RdmaRate {
        /// Flow id.
        flow: u64,
        /// Sending rate, bits per second.
        rate_bps: u64,
    },
    /// A DCQCN sender with payload outstanding has no scheduled pacing
    /// event — a stall that must never happen (defensive).
    RdmaStranded {
        /// Flow id.
        flow: u64,
        /// Next unsent byte offset.
        snd_nxt: u64,
    },
    /// The PFC storm watchdog force-resumed an egress queue whose pause
    /// exceeded the configured threshold (mirrors real ASIC watchdogs).
    PfcWatchdogFired {
        /// Switch node id whose egress queue was force-resumed.
        node: u32,
        /// The egress port that was stuck paused.
        port: u16,
        /// The priority that was stuck paused.
        prio: u8,
    },
    /// An IRN NACK was generated for a lossy-RDMA sequence gap — by a
    /// switch observing an out-of-order transit, or by the receiver.
    IrnNack {
        /// Flow id.
        flow: u64,
        /// First byte of the gap being NACKed.
        nack_seq: u64,
        /// Node that generated the NACK.
        node: u32,
        /// `true` when a switch generated it, `false` for the receiver.
        from_switch: bool,
    },
    /// An IRN sender retransmitted a data segment (seq below its
    /// first-transmission high-water mark) in response to a NACK or RTO.
    IrnRetransmit {
        /// Flow id.
        flow: u64,
        /// Byte offset of the retransmitted segment.
        seq: u64,
    },
    /// The flow liveness watchdog found an RDMA flow with unfinished
    /// payload and no receiver progress over a whole watchdog interval.
    FlowStalled {
        /// Flow id.
        flow: u64,
        /// In-order bytes received when the stall was flagged.
        received: u64,
    },
    /// An internal inconsistency was detected and survived (instead of
    /// panicking): an unattached link lookup, an unexpected packet kind,
    /// etc. Must stay zero in healthy runs; under injected faults it
    /// records the blast radius without aborting the sweep worker.
    Defect {
        /// Stable machine-readable description of the defect.
        what: &'static str,
        /// Node where it was detected.
        node: u32,
        /// Flow involved (0 if none).
        flow: u64,
    },
}

impl TraceEvent {
    /// Stable machine-readable event kind (the JSONL `ev` field).
    pub const fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Enqueue { .. } => "enqueue",
            TraceEvent::Dequeue { .. } => "dequeue",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::EcnMark { .. } => "ecn_mark",
            TraceEvent::PfcPause { .. } => "pfc_pause",
            TraceEvent::PfcResume { .. } => "pfc_resume",
            TraceEvent::TcpCwnd { .. } => "tcp_cwnd",
            TraceEvent::TcpEnterRecovery { .. } => "tcp_enter_recovery",
            TraceEvent::TcpPartialAckRetransmit { .. } => "tcp_partial_ack_rtx",
            TraceEvent::TcpExitRecovery { .. } => "tcp_exit_recovery",
            TraceEvent::RtoFire { .. } => "rto_fire",
            TraceEvent::RdmaRate { .. } => "rdma_rate",
            TraceEvent::RdmaStranded { .. } => "rdma_stranded",
            TraceEvent::PfcWatchdogFired { .. } => "pfc_watchdog_fired",
            TraceEvent::IrnNack { .. } => "irn_nack",
            TraceEvent::IrnRetransmit { .. } => "irn_retransmit",
            TraceEvent::FlowStalled { .. } => "flow_stalled",
            TraceEvent::Defect { .. } => "defect",
        }
    }

    /// The flow this event belongs to, if it is flow-scoped.
    pub const fn flow(&self) -> Option<u64> {
        match *self {
            TraceEvent::Enqueue { flow, .. }
            | TraceEvent::Dequeue { flow, .. }
            | TraceEvent::Drop { flow, .. }
            | TraceEvent::EcnMark { flow, .. }
            | TraceEvent::TcpCwnd { flow, .. }
            | TraceEvent::TcpEnterRecovery { flow, .. }
            | TraceEvent::TcpPartialAckRetransmit { flow, .. }
            | TraceEvent::TcpExitRecovery { flow, .. }
            | TraceEvent::RtoFire { flow, .. }
            | TraceEvent::RdmaRate { flow, .. }
            | TraceEvent::RdmaStranded { flow, .. }
            | TraceEvent::IrnNack { flow, .. }
            | TraceEvent::IrnRetransmit { flow, .. }
            | TraceEvent::FlowStalled { flow, .. } => Some(flow),
            // PFC edges, watchdog fires and defects are diagnostics, not
            // flow-scoped — they always pass flow filters.
            TraceEvent::PfcPause { .. }
            | TraceEvent::PfcResume { .. }
            | TraceEvent::PfcWatchdogFired { .. }
            | TraceEvent::Defect { .. } => None,
        }
    }

    /// The `(node, port, prio)` queue this event touches, if any. For
    /// [`TraceEvent::Enqueue`] this is the *egress* queue.
    pub const fn queue(&self) -> Option<(u32, u16, u8)> {
        match *self {
            TraceEvent::Enqueue {
                node,
                out_port,
                prio,
                ..
            } => Some((node, out_port, prio)),
            TraceEvent::Dequeue {
                node, port, prio, ..
            }
            | TraceEvent::EcnMark {
                node, port, prio, ..
            }
            | TraceEvent::PfcPause { node, port, prio }
            | TraceEvent::PfcResume { node, port, prio }
            | TraceEvent::PfcWatchdogFired { node, port, prio } => Some((node, port, prio)),
            TraceEvent::Drop {
                node,
                in_port,
                prio,
                ..
            } => Some((node, in_port, prio)),
            _ => None,
        }
    }

    /// Serializes the event as one JSON object (no trailing newline).
    /// Hand-rolled like the rest of the workspace's JSON output — every
    /// field is numeric or a fixed identifier, so no escaping is needed.
    pub fn to_json(&self, at: SimTime) -> String {
        let t = at.as_nanos();
        let k = self.kind();
        match *self {
            TraceEvent::Enqueue {
                node,
                in_port,
                out_port,
                prio,
                flow,
                seq,
                size,
            } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"node\":{node},\"in_port\":{in_port},\
                 \"out_port\":{out_port},\"prio\":{prio},\"flow\":{flow},\"seq\":{seq},\
                 \"size\":{size}}}"
            ),
            TraceEvent::Dequeue {
                node,
                port,
                prio,
                flow,
                seq,
                size,
            } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"node\":{node},\"port\":{port},\"prio\":{prio},\
                 \"flow\":{flow},\"seq\":{seq},\"size\":{size}}}"
            ),
            TraceEvent::Drop {
                node,
                in_port,
                prio,
                flow,
                seq,
                size,
                lossless,
                cause,
            } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"node\":{node},\"in_port\":{in_port},\
                 \"prio\":{prio},\"flow\":{flow},\"seq\":{seq},\"size\":{size},\
                 \"lossless\":{lossless},\"cause\":\"{}\"}}",
                cause.name()
            ),
            TraceEvent::EcnMark {
                node,
                port,
                prio,
                flow,
                seq,
                queue_depth,
            } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"node\":{node},\"port\":{port},\"prio\":{prio},\
                 \"flow\":{flow},\"seq\":{seq},\"queue_depth\":{queue_depth}}}"
            ),
            TraceEvent::PfcPause { node, port, prio }
            | TraceEvent::PfcResume { node, port, prio }
            | TraceEvent::PfcWatchdogFired { node, port, prio } => {
                format!(
                    "{{\"t\":{t},\"ev\":\"{k}\",\"node\":{node},\"port\":{port},\"prio\":{prio}}}"
                )
            }
            TraceEvent::Defect { what, node, flow } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"what\":\"{what}\",\"node\":{node},\"flow\":{flow}}}"
            ),
            TraceEvent::TcpCwnd {
                flow,
                cwnd,
                ssthresh,
                in_recovery,
            } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"cwnd\":{cwnd},\
                 \"ssthresh\":{ssthresh},\"in_recovery\":{in_recovery}}}"
            ),
            TraceEvent::TcpEnterRecovery { flow, recover_seq } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"recover_seq\":{recover_seq}}}"
            ),
            TraceEvent::TcpPartialAckRetransmit { flow, snd_una } => {
                format!("{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"snd_una\":{snd_una}}}")
            }
            TraceEvent::TcpExitRecovery { flow } => {
                format!("{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow}}}")
            }
            TraceEvent::RtoFire {
                flow,
                backoff,
                next_rto_ns,
            } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"backoff\":{backoff},\
                 \"next_rto_ns\":{next_rto_ns}}}"
            ),
            TraceEvent::RdmaRate { flow, rate_bps } => {
                format!("{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"rate_bps\":{rate_bps}}}")
            }
            TraceEvent::RdmaStranded { flow, snd_nxt } => {
                format!("{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"snd_nxt\":{snd_nxt}}}")
            }
            TraceEvent::IrnNack {
                flow,
                nack_seq,
                node,
                from_switch,
            } => format!(
                "{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"nack_seq\":{nack_seq},\
                 \"node\":{node},\"from_switch\":{from_switch}}}"
            ),
            TraceEvent::IrnRetransmit { flow, seq } => {
                format!("{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"seq\":{seq}}}")
            }
            TraceEvent::FlowStalled { flow, received } => {
                format!("{{\"t\":{t},\"ev\":\"{k}\",\"flow\":{flow},\"received\":{received}}}")
            }
        }
    }
}

/// A recorded event with its timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// When the event happened.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

/// Flight-recorder configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Master switch. When `false` no recorder is allocated and every
    /// record site reduces to one `Option` branch.
    pub enabled: bool,
    /// Ring-buffer bound (records). Oldest records are evicted first;
    /// aggregate counters are unaffected by eviction.
    pub capacity: usize,
    /// Record only these flows (`None` = all). Queue-scoped events with
    /// no flow (PFC edges) always pass this filter.
    pub flows: Option<Vec<u64>>,
    /// Record only these `(node, port, prio)` queues (`None` = all).
    /// Flow-scoped transport events always pass this filter.
    pub queues: Option<Vec<(u32, u16, u8)>>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 1 << 20,
            flows: None,
            queues: None,
        }
    }
}

impl TraceConfig {
    /// An enabled recorder with default capacity and no filters.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }
}

/// Aggregate counters maintained outside the ring (never evicted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceTotals {
    /// Drops recorded with cause [`TraceDropCause::AdmissionDeniedIngress`].
    pub drops_ingress: u64,
    /// Drops recorded with cause [`TraceDropCause::AdmissionDeniedEgress`].
    pub drops_egress: u64,
    /// Drops recorded with cause [`TraceDropCause::HeadroomExhausted`].
    pub drops_headroom: u64,
    /// Drops recorded with cause [`TraceDropCause::LinkDown`].
    pub drops_link_down: u64,
    /// Drops recorded with cause [`TraceDropCause::NoRoute`].
    pub drops_no_route: u64,
    /// Drops recorded with cause [`TraceDropCause::Corrupted`].
    pub drops_corrupted: u64,
    /// Drops recorded with cause [`TraceDropCause::Evicted`].
    pub drops_evicted: u64,
    /// PFC pause edges recorded.
    pub pfc_pauses: u64,
    /// PFC resume edges recorded.
    pub pfc_resumes: u64,
    /// RTO fires recorded.
    pub rto_fires: u64,
    /// Stranded-RDMA-sender events recorded (must stay zero).
    pub rdma_stranded: u64,
    /// PFC watchdog force-resumes recorded.
    pub watchdog_fires: u64,
    /// IRN NACKs generated (switch- and receiver-origin combined).
    pub irn_nacks: u64,
    /// IRN data retransmissions recorded.
    pub irn_retransmits: u64,
    /// Flow liveness-watchdog stall flags recorded.
    pub flow_stalls: u64,
    /// Defect events recorded (must stay zero in healthy runs).
    pub defects: u64,
}

impl TraceTotals {
    /// Total drops across every cause.
    pub fn drops(&self) -> u64 {
        self.drops_ingress
            + self.drops_egress
            + self.drops_headroom
            + self.drops_link_down
            + self.drops_no_route
            + self.drops_corrupted
            + self.drops_evicted
    }
}

/// The bounded ring of [`TraceRecord`]s plus aggregate totals.
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: TraceConfig,
    ring: VecDeque<TraceRecord>,
    evicted: u64,
    totals: TraceTotals,
    lossless_victims: std::collections::BTreeSet<u64>,
}

impl FlightRecorder {
    /// Creates a recorder for `cfg` (which should have `enabled: true`;
    /// a disabled config still records if driven directly — gating is
    /// the [`TraceHandle`]'s job).
    pub fn new(cfg: TraceConfig) -> FlightRecorder {
        let cap = cfg.capacity.max(1);
        FlightRecorder {
            cfg,
            ring: VecDeque::with_capacity(cap.min(1 << 16)),
            evicted: 0,
            totals: TraceTotals::default(),
            lossless_victims: std::collections::BTreeSet::new(),
        }
    }

    fn passes_filters(&self, event: &TraceEvent) -> bool {
        if let Some(flows) = &self.cfg.flows {
            if let Some(f) = event.flow() {
                if !flows.contains(&f) {
                    return false;
                }
            }
        }
        if let Some(queues) = &self.cfg.queues {
            if let Some(q) = event.queue() {
                if !queues.contains(&q) {
                    return false;
                }
            }
        }
        true
    }

    /// Records one event (applying filters and the ring bound).
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if !self.passes_filters(&event) {
            return;
        }
        match event {
            TraceEvent::Drop {
                cause,
                flow,
                lossless,
                ..
            } => {
                match cause {
                    TraceDropCause::AdmissionDeniedIngress => self.totals.drops_ingress += 1,
                    TraceDropCause::AdmissionDeniedEgress => self.totals.drops_egress += 1,
                    TraceDropCause::HeadroomExhausted => self.totals.drops_headroom += 1,
                    TraceDropCause::LinkDown => self.totals.drops_link_down += 1,
                    TraceDropCause::NoRoute => self.totals.drops_no_route += 1,
                    TraceDropCause::Corrupted => self.totals.drops_corrupted += 1,
                    TraceDropCause::Evicted => self.totals.drops_evicted += 1,
                }
                if lossless {
                    self.lossless_victims.insert(flow);
                }
            }
            TraceEvent::PfcPause { .. } => self.totals.pfc_pauses += 1,
            TraceEvent::PfcResume { .. } => self.totals.pfc_resumes += 1,
            TraceEvent::RtoFire { .. } => self.totals.rto_fires += 1,
            TraceEvent::RdmaStranded { .. } => self.totals.rdma_stranded += 1,
            TraceEvent::PfcWatchdogFired { .. } => self.totals.watchdog_fires += 1,
            TraceEvent::IrnNack { .. } => self.totals.irn_nacks += 1,
            TraceEvent::IrnRetransmit { .. } => self.totals.irn_retransmits += 1,
            TraceEvent::FlowStalled { .. } => self.totals.flow_stalls += 1,
            TraceEvent::Defect { .. } => self.totals.defects += 1,
            _ => {}
        }
        if self.ring.len() == self.cfg.capacity.max(1) {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(TraceRecord { at, event });
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.ring.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records evicted by the ring bound so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Aggregate totals (never evicted).
    pub fn totals(&self) -> TraceTotals {
        self.totals
    }

    /// Flows that lost at least one lossless-class packet, maintained
    /// outside the ring like [`Self::totals`]. The record-scan
    /// alternative silently loses victims once the ring wraps — the
    /// chaos battery's unfinished ⊆ victims check needs the exact set
    /// regardless of run length.
    pub fn lossless_victims(&self) -> &std::collections::BTreeSet<u64> {
        &self.lossless_victims
    }

    /// The configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.cfg
    }

    /// Dumps every retained record as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.ring.len() * 96);
        for r in &self.ring {
            out.push_str(&r.event.to_json(r.at));
            out.push('\n');
        }
        out
    }

    /// A causal, human-readable account of one flow's lifecycle: drops
    /// by cause, recovery episodes, RTO fires and ECN marks, in order —
    /// the "why did flow X stall" answer used to debug the Fig. 7(b)
    /// multi-loss recovery stall.
    pub fn summarize_flow(&self, flow: u64) -> String {
        let mut first: Option<SimTime> = None;
        let mut last: Option<SimTime> = None;
        let mut enq = 0u64;
        let mut deq = 0u64;
        let mut marks = 0u64;
        let mut drops: Vec<(SimTime, TraceDropCause, u64)> = Vec::new();
        let mut recoveries = 0u64;
        let mut partial_rtx = 0u64;
        let mut rto_fires: Vec<(SimTime, u32)> = Vec::new();
        let mut stranded = 0u64;
        let mut recovery_open: Option<SimTime> = None;
        let mut episodes: Vec<(SimTime, Option<SimTime>, u64)> = Vec::new();

        for r in &self.ring {
            if r.event.flow() != Some(flow) {
                continue;
            }
            first.get_or_insert(r.at);
            last = Some(r.at);
            match r.event {
                TraceEvent::Enqueue { .. } => enq += 1,
                TraceEvent::Dequeue { .. } => deq += 1,
                TraceEvent::EcnMark { .. } => marks += 1,
                TraceEvent::Drop { cause, seq, .. } => drops.push((r.at, cause, seq)),
                TraceEvent::TcpEnterRecovery { .. } => {
                    recoveries += 1;
                    recovery_open = Some(r.at);
                    episodes.push((r.at, None, 0));
                }
                TraceEvent::TcpPartialAckRetransmit { .. } => {
                    partial_rtx += 1;
                    if let Some(e) = episodes.last_mut() {
                        e.2 += 1;
                    }
                }
                TraceEvent::TcpExitRecovery { .. } => {
                    recovery_open = None;
                    if let Some(e) = episodes.last_mut() {
                        e.1 = Some(r.at);
                    }
                }
                TraceEvent::RtoFire { backoff, .. } => rto_fires.push((r.at, backoff)),
                TraceEvent::RdmaStranded { .. } => stranded += 1,
                _ => {}
            }
        }

        let mut out = String::new();
        let Some(first) = first else {
            out.push_str(&format!("flow {flow}: no recorded events\n"));
            return out;
        };
        out.push_str(&format!(
            "flow {flow}: {enq} enqueues, {deq} dequeues, {marks} ECN marks, {} drops, \
         {recoveries} fast-recovery episodes ({partial_rtx} partial-ACK retransmits), \
         {} RTO fires over [{first}, {}]\n",
            drops.len(),
            rto_fires.len(),
            last.unwrap_or(first),
        ));
        for (at, cause, seq) in &drops {
            out.push_str(&format!("  {at} drop seq={seq} cause={}\n", cause.name()));
        }
        for (start, end, rtx) in &episodes {
            match end {
                Some(end) => out.push_str(&format!(
                "  {start} fast recovery → exited {end} after {rtx} partial-ACK retransmit(s)\n"
            )),
                None => out.push_str(&format!(
                    "  {start} fast recovery → never exited (stall candidate), \
                 {rtx} partial-ACK retransmit(s)\n"
                )),
            }
        }
        for (at, backoff) in &rto_fires {
            out.push_str(&format!("  {at} RTO fired (consecutive #{backoff})\n"));
        }
        if recovery_open.is_some() && !rto_fires.is_empty() {
            out.push_str(
                "  verdict: flow stalled in recovery and needed an RTO — multi-loss window \
             not repaired by fast retransmit\n",
            );
        } else if stranded > 0 {
            out.push_str("  verdict: RDMA sender stranded without a pacing event\n");
        } else if !rto_fires.is_empty() {
            out.push_str("  verdict: progress required RTO(s) — window too small or tail loss\n");
        } else if recoveries > 0 {
            out.push_str("  verdict: all losses repaired by fast retransmit/partial ACKs\n");
        } else if !drops.is_empty() {
            out.push_str("  verdict: drops present but repaired without entering recovery\n");
        } else {
            out.push_str("  verdict: clean run (no drops, no timeouts)\n");
        }
        out
    }
}

/// A cheaply cloneable, possibly-disabled reference to a shared
/// [`FlightRecorder`]. Every instrumented layer holds one.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(Option<Rc<RefCell<FlightRecorder>>>);

impl TraceHandle {
    /// A handle that records nothing (the default).
    pub fn disabled() -> TraceHandle {
        TraceHandle(None)
    }

    /// Builds a handle from `cfg`: enabled configs get a live recorder,
    /// disabled ones a no-op handle.
    pub fn from_config(cfg: &TraceConfig) -> TraceHandle {
        if cfg.enabled {
            TraceHandle(Some(Rc::new(RefCell::new(FlightRecorder::new(
                cfg.clone(),
            )))))
        } else {
            TraceHandle(None)
        }
    }

    /// Whether a recorder is attached.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event produced by `f`. When disabled this is a
    /// single branch and `f` is never called, so event construction
    /// costs nothing on the hot path.
    #[inline]
    pub fn record_with(&self, at: SimTime, f: impl FnOnce() -> TraceEvent) {
        if let Some(rec) = &self.0 {
            rec.borrow_mut().record(at, f());
        }
    }

    /// Runs `f` against the recorder, if one is attached.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> Option<R> {
        self.0.as_ref().map(|rec| f(&rec.borrow()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enq(flow: u64, node: u32) -> TraceEvent {
        TraceEvent::Enqueue {
            node,
            in_port: 0,
            out_port: 1,
            prio: 3,
            flow,
            seq: 0,
            size: 1_048,
        }
    }

    #[test]
    fn disabled_handle_records_nothing_and_skips_construction() {
        let h = TraceHandle::disabled();
        let mut constructed = false;
        h.record_with(SimTime::ZERO, || {
            constructed = true;
            enq(1, 0)
        });
        assert!(!constructed, "closure must not run when disabled");
        assert!(h.with(|r| r.len()).is_none());
    }

    #[test]
    fn from_config_respects_enabled_flag() {
        assert!(!TraceHandle::from_config(&TraceConfig::default()).is_enabled());
        assert!(TraceHandle::from_config(&TraceConfig::enabled()).is_enabled());
    }

    #[test]
    fn ring_bound_evicts_oldest_but_keeps_totals() {
        let mut rec = FlightRecorder::new(TraceConfig {
            enabled: true,
            capacity: 2,
            flows: None,
            queues: None,
        });
        for i in 0..5 {
            rec.record(
                SimTime::from_nanos(i),
                TraceEvent::PfcPause {
                    node: 0,
                    port: 0,
                    prio: 3,
                },
            );
        }
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.evicted(), 3);
        assert_eq!(rec.totals().pfc_pauses, 5, "totals survive eviction");
        let first_retained = rec.records().next().unwrap().at;
        assert_eq!(first_retained, SimTime::from_nanos(3));
    }

    #[test]
    fn flow_filter_drops_other_flows_but_keeps_queue_events() {
        let mut rec = FlightRecorder::new(TraceConfig {
            enabled: true,
            capacity: 100,
            flows: Some(vec![7]),
            queues: None,
        });
        rec.record(SimTime::ZERO, enq(7, 0));
        rec.record(SimTime::ZERO, enq(8, 0));
        rec.record(
            SimTime::ZERO,
            TraceEvent::PfcPause {
                node: 0,
                port: 0,
                prio: 3,
            },
        );
        assert_eq!(rec.len(), 2, "flow 8 filtered; PFC edge passes");
    }

    #[test]
    fn queue_filter_matches_tuple() {
        let mut rec = FlightRecorder::new(TraceConfig {
            enabled: true,
            capacity: 100,
            flows: None,
            queues: Some(vec![(0, 1, 3)]),
        });
        rec.record(SimTime::ZERO, enq(1, 0)); // egress queue (0,1,3) — kept
        rec.record(SimTime::ZERO, enq(1, 9)); // node 9 — filtered
        rec.record(
            SimTime::ZERO,
            TraceEvent::TcpExitRecovery { flow: 1 }, // no queue — kept
        );
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn lossless_victim_set_survives_ring_wrap() {
        let mut rec = FlightRecorder::new(TraceConfig {
            enabled: true,
            capacity: 4,
            flows: None,
            queues: None,
        });
        rec.record(
            SimTime::ZERO,
            TraceEvent::Drop {
                node: 0,
                in_port: 0,
                prio: 3,
                flow: 7,
                seq: 0,
                size: 1_048,
                lossless: true,
                cause: TraceDropCause::LinkDown,
            },
        );
        // Flood the ring until the drop record is long gone.
        for i in 0..32 {
            rec.record(SimTime::from_nanos(i), enq(1, i as u32));
        }
        assert!(rec.evicted() > 0, "the wrap must actually happen");
        assert!(
            rec.records()
                .all(|r| !matches!(r.event, TraceEvent::Drop { .. })),
            "the drop record itself must be evicted for this test to bite"
        );
        assert_eq!(
            rec.lossless_victims().iter().copied().collect::<Vec<u64>>(),
            [7],
            "the aggregate victim set must outlive the ring"
        );
        assert_eq!(rec.totals().drops_link_down, 1);
    }

    #[test]
    fn jsonl_lines_are_valid_objects() {
        let mut rec = FlightRecorder::new(TraceConfig::enabled());
        rec.record(SimTime::from_nanos(5), enq(1, 2));
        rec.record(
            SimTime::from_nanos(6),
            TraceEvent::Drop {
                node: 2,
                in_port: 0,
                prio: 1,
                flow: 1,
                seq: 1_000,
                size: 1_048,
                lossless: false,
                cause: TraceDropCause::AdmissionDeniedEgress,
            },
        );
        let dump = rec.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains("\"t\":"));
            assert!(line.contains("\"ev\":"));
        }
        assert!(lines[1].contains("\"cause\":\"admission_denied_egress\""));
    }

    #[test]
    fn summarizer_explains_multi_loss_stall() {
        let mut rec = FlightRecorder::new(TraceConfig::enabled());
        let f = 42;
        rec.record(
            SimTime::from_micros(1),
            TraceEvent::Drop {
                node: 0,
                in_port: 0,
                prio: 1,
                flow: f,
                seq: 0,
                size: 1_048,
                lossless: false,
                cause: TraceDropCause::AdmissionDeniedIngress,
            },
        );
        rec.record(
            SimTime::from_micros(2),
            TraceEvent::TcpEnterRecovery {
                flow: f,
                recover_seq: 10_000,
            },
        );
        rec.record(
            SimTime::from_micros(3),
            TraceEvent::TcpPartialAckRetransmit {
                flow: f,
                snd_una: 2_000,
            },
        );
        rec.record(
            SimTime::from_micros(4),
            TraceEvent::TcpExitRecovery { flow: f },
        );
        let s = rec.summarize_flow(f);
        assert!(s.contains("1 fast-recovery episodes"), "{s}");
        assert!(s.contains("1 partial-ACK retransmits"), "{s}");
        assert!(s.contains("all losses repaired by fast retransmit"), "{s}");

        // A stalled variant: recovery entered, never exited, RTO fired.
        let mut rec2 = FlightRecorder::new(TraceConfig::enabled());
        rec2.record(
            SimTime::from_micros(2),
            TraceEvent::TcpEnterRecovery {
                flow: f,
                recover_seq: 10_000,
            },
        );
        rec2.record(
            SimTime::from_micros(9),
            TraceEvent::RtoFire {
                flow: f,
                backoff: 1,
                next_rto_ns: 4_000_000,
            },
        );
        let s2 = rec2.summarize_flow(f);
        assert!(s2.contains("stalled in recovery"), "{s2}");
        assert_eq!(rec2.totals().rto_fires, 1);
    }

    #[test]
    fn fault_events_count_into_totals_and_serialize() {
        let mut rec = FlightRecorder::new(TraceConfig {
            enabled: true,
            capacity: 100,
            flows: Some(vec![7]), // diagnostics must pass flow filters
            queues: None,
        });
        for cause in [
            TraceDropCause::LinkDown,
            TraceDropCause::NoRoute,
            TraceDropCause::Corrupted,
        ] {
            rec.record(
                SimTime::from_nanos(1),
                TraceEvent::Drop {
                    node: 3,
                    in_port: 1,
                    prio: 3,
                    flow: 7,
                    seq: 0,
                    size: 1_048,
                    lossless: true,
                    cause,
                },
            );
        }
        rec.record(
            SimTime::from_nanos(2),
            TraceEvent::PfcWatchdogFired {
                node: 3,
                port: 1,
                prio: 3,
            },
        );
        rec.record(
            SimTime::from_nanos(3),
            TraceEvent::Defect {
                what: "unattached_link",
                node: 3,
                flow: 0,
            },
        );
        let t = rec.totals();
        assert_eq!(t.drops_link_down, 1);
        assert_eq!(t.drops_no_route, 1);
        assert_eq!(t.drops_corrupted, 1);
        assert_eq!(t.drops(), 3, "fault causes join the drop total");
        assert_eq!(t.watchdog_fires, 1);
        assert_eq!(t.defects, 1);
        let dump = rec.to_jsonl();
        assert!(dump.contains("\"cause\":\"link_down\""), "{dump}");
        assert!(dump.contains("\"cause\":\"no_route\""), "{dump}");
        assert!(dump.contains("\"cause\":\"corrupted\""), "{dump}");
        assert!(dump.contains("\"ev\":\"pfc_watchdog_fired\""), "{dump}");
        assert!(dump.contains("\"what\":\"unattached_link\""), "{dump}");
        assert_eq!(
            TraceEvent::PfcWatchdogFired {
                node: 3,
                port: 1,
                prio: 3
            }
            .queue(),
            Some((3, 1, 3))
        );
    }

    #[test]
    fn irn_events_count_into_totals_and_serialize() {
        let mut rec = FlightRecorder::new(TraceConfig::enabled());
        rec.record(
            SimTime::from_nanos(1),
            TraceEvent::IrnNack {
                flow: 7,
                nack_seq: 3_000,
                node: 2,
                from_switch: true,
            },
        );
        rec.record(
            SimTime::from_nanos(2),
            TraceEvent::IrnNack {
                flow: 7,
                nack_seq: 3_000,
                node: 9,
                from_switch: false,
            },
        );
        rec.record(
            SimTime::from_nanos(3),
            TraceEvent::IrnRetransmit {
                flow: 7,
                seq: 3_000,
            },
        );
        rec.record(
            SimTime::from_nanos(4),
            TraceEvent::FlowStalled {
                flow: 8,
                received: 12_000,
            },
        );
        let t = rec.totals();
        assert_eq!(t.irn_nacks, 2);
        assert_eq!(t.irn_retransmits, 1);
        assert_eq!(t.flow_stalls, 1);
        let dump = rec.to_jsonl();
        assert!(dump.contains("\"ev\":\"irn_nack\""), "{dump}");
        assert!(dump.contains("\"from_switch\":true"), "{dump}");
        assert!(dump.contains("\"ev\":\"irn_retransmit\""), "{dump}");
        assert!(dump.contains("\"ev\":\"flow_stalled\""), "{dump}");
        assert_eq!(
            TraceEvent::IrnRetransmit { flow: 7, seq: 0 }.flow(),
            Some(7),
            "IRN events are flow-scoped"
        );
    }

    #[test]
    fn summarizer_handles_unknown_flow() {
        let rec = FlightRecorder::new(TraceConfig::enabled());
        assert!(rec.summarize_flow(9).contains("no recorded events"));
    }
}
