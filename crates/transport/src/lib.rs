//! Transport protocols for the hybrid DCN: DCTCP (lossy TCP), DCQCN
//! (lossless RDMA) and IRN (lossy RDMA).
//!
//! The paper's evaluation runs DCTCP on the TCP/lossy class and DCQCN on
//! the RDMA/lossless class (§IV), both reacting to ECN set by the
//! switches. This crate implements them — plus IRN-style lossy RDMA for
//! the lossless-vs-lossy resilience comparison — as passive state
//! machines: the fabric event loop feeds them arrivals/timers and
//! transmits the packets they emit.
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
//! All senders are deterministic; all pacing/timers surface as explicit
//! "call me back at T" values the event loop schedules.
//!
//! # Example
//!
//! ```
//! use dcn_net::{FlowId, NodeId, Priority};
//! use dcn_sim::{Bytes, SimTime};
//! use dcn_transport::{DctcpConfig, DctcpSender};
//!
//! let mut s = DctcpSender::new(
//!     DctcpConfig::default(),
//!     FlowId::new(1),
//!     NodeId::new(0),
//!     NodeId::new(1),
//!     Priority::new(1),
//!     Bytes::new(30_000),
//! );
//! // Initial window: packets ready to hand to the NIC. The sender
//! // appends into a caller-owned buffer so the per-ACK hot path can
//! // reuse one scratch Vec instead of allocating.
//! let mut burst = Vec::new();
//! s.take_ready(SimTime::ZERO, &mut burst);
//! assert!(!burst.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dcqcn;
mod dctcp;
mod irn;
mod recovery;

pub use dcqcn::{DcqcnConfig, DcqcnReceiver, DcqcnSender, RpTimerKind};
pub use dctcp::{AckAction, DctcpConfig, DctcpReceiver, DctcpSender, TcpEvent};
pub use irn::{IrnConfig, IrnReceiver, IrnSender};
