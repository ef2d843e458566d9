//! Transport protocols for the hybrid DCN: DCTCP (lossy TCP), DCQCN
//! (lossless RDMA) and IRN (lossy RDMA).
//!
//! The paper's evaluation runs DCTCP on the TCP/lossy class and DCQCN on
//! the RDMA/lossless class (§IV), both reacting to ECN set by the
//! switches. This crate implements them — plus IRN-style lossy RDMA for
//! the lossless-vs-lossy resilience comparison — as passive state
//! machines that deal in numbers, not packets. Every sender answers
//! `poll(now)` with a [`Poll`], whose ready [`Segment`] is a `seq` and
//! a payload length; feedback and timer calls only update state, and a
//! retransmission they decide leads the next poll, ahead of new data.
//! Every receiver answers a data segment with its [`Feedback`], if any.
//! The host that runs a flow builds each packet from these numbers.
//!
//! * [`DctcpSender`] / [`DctcpReceiver`] — window-based congestion
//!   control with the DCTCP fraction-of-marked-bytes `α`, slow start,
//!   fast retransmit/recovery and RTO (packets may be dropped).
//! * [`DcqcnSender`] / [`DcqcnReceiver`] — rate-based control: the
//!   receiver (NP) reflects CE marks as CNPs at most once per 50 µs, the
//!   sender (RP) multiplicatively cuts on CNP and recovers through
//!   fast-recovery / additive-increase / hyper-increase stages.
//! * [`IrnSender`] / [`IrnReceiver`] — lossy RDMA: a fixed BDP-bounded
//!   window, NACK-driven go-back-N recovery and an exponentially
//!   backed-off RTO; packets ride the droppable
//!   `LossyRdma` class, so no PFC is ever generated for them.
//!
//! All senders are deterministic; pacing surfaces as [`Poll::At`] and
//! retransmission timers as RTO values the event loop schedules.
//!
//! # Example
//!
//! ```
//! use dcn_net::{FlowId, NodeId, Priority};
//! use dcn_sim::{Bytes, SimTime};
//! use dcn_transport::{DctcpConfig, DctcpSender, Poll, Segment};
//!
//! let mut s = DctcpSender::new(
//!     DctcpConfig::default(),
//!     FlowId::new(1),
//!     NodeId::new(0),
//!     NodeId::new(1),
//!     Priority::new(1),
//!     Bytes::new(30_000),
//! );
//! // The initial window, one segment per poll.
//! let mut sent = 0;
//! while let Poll::Ready(Segment { seq, payload }) = s.poll(SimTime::ZERO) {
//!     assert_eq!((seq, payload), (sent * 1_000, Bytes::new(1_000)));
//!     sent += 1;
//! }
//! assert_eq!(sent, 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcqcn;
mod dctcp;
mod irn;
mod recovery;

pub use dcqcn::{DcqcnConfig, DcqcnReceiver, DcqcnSender, RpTimerKind};
pub use dctcp::{AckAction, DctcpConfig, DctcpReceiver, DctcpSender};
pub use irn::{IrnConfig, IrnReceiver, IrnSender};

use dcn_sim::{Bytes, SimTime};

/// A sender's answer to "what would you send now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Send this data segment now.
    Ready(Segment),
    /// Nothing before this pacing slot.
    At(SimTime),
    /// Nothing until feedback or a timer changes the sender's state.
    Idle,
}

/// A data segment a sender releases: where it starts and how long it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Offset of the segment's first payload byte within the flow.
    pub seq: u64,
    /// Payload bytes.
    pub payload: Bytes,
}

impl Segment {
    /// The segment at `seq` of a `size`-byte flow cut into `mss`-byte
    /// payloads: `min(mss, size − seq)` bytes.
    fn cut(seq: u64, mss: u64, size: u64) -> Segment {
        let payload = Bytes::new(mss.min(size - seq));
        Segment { seq, payload }
    }
}

/// What a receiver sends back for a data segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feedback {
    /// A cumulative acknowledgement (DCTCP, IRN).
    Ack {
        /// The next byte the receiver expects.
        cumulative: u64,
        /// The acknowledged segment arrived CE-marked.
        ecn_echo: bool,
    },
    /// A DCQCN congestion notification.
    Cnp,
    /// An IRN receiver's negative acknowledgement of a new gap.
    Nack {
        /// The first byte of the gap.
        seq: u64,
        /// The next byte the receiver expects.
        cumulative: u64,
    },
}
