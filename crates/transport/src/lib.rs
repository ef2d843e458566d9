//! Transport protocols for the hybrid DCN: DCTCP (lossy TCP), DCQCN
//! (lossless RDMA) and IRN (lossy RDMA).
//!
//! The paper's evaluation runs DCTCP on the TCP/lossy class and DCQCN on
//! the RDMA/lossless class (§IV), both reacting to ECN set by the
//! switches. This crate implements them — plus IRN-style lossy RDMA for
//! the lossless-vs-lossy resilience comparison — as passive state
//! machines. Every sender answers `poll(now)` with a [`Poll`]; feedback
//! and timer calls only update state, and a retransmission they decide
//! leads the next poll, ahead of new data.
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
//! use dcn_transport::{DctcpConfig, DctcpSender, Poll};
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
//! while let Poll::Ready(_) = s.poll(SimTime::ZERO) {
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

/// A sender's answer to "what would you send now?".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Send this packet now.
    Ready(dcn_net::Packet),
    /// Nothing before this pacing slot.
    At(dcn_sim::SimTime),
    /// Nothing until feedback or a timer changes the sender's state.
    Idle,
}
