//! Shared-memory switch model with PFC, ECN and pluggable buffer
//! management.
//!
//! This crate implements the switch architecture of the L2BM paper's
//! §II-A (Fig. 1): an output-queued shared-memory switch whose Memory
//! Management Unit (MMU) maintains *virtual counter* pools at both
//! ingress and egress. A packet is admitted only if both the ingress pool
//! and its destination egress pool admit it; both counters are decremented
//! when the packet departs.
//!
//! * [`MmuState`] — the counter pools: per-(port, priority) ingress
//!   shared/headroom charges, egress queue bytes, pause
//!   bookkeeping. It counts bytes only; policy state lives in policies.
//! * [`BufferPolicy`] — the pluggable PFC-threshold algorithm evaluated
//!   by the paper: [`DtPolicy`] (classic Dynamic Threshold, the
//!   paper's DT with α = 0.125 and DT2 with α = 0.5, and Occamy when
//!   built with preemption) and [`AbmPolicy`] (ABM, SIGCOMM'22, applied
//!   to the ingress pool). The L2BM policy itself lives in the `l2bm`
//!   crate.
//! * [`SharedMemorySwitch`] — ties the MMU, the eight-priority egress
//!   queues with round-robin scheduling, the PFC pause/resume state
//!   machine, and ECN marking together. It is a passive component: the
//!   fabric event loop calls [`SharedMemorySwitch::receive`],
//!   [`SharedMemorySwitch::tx_complete`] and
//!   [`SharedMemorySwitch::handle_pfc`] and acts on the returned
//!   [`TxStart`] / [`PfcEmit`] instructions.
//! * [`record_loss`] — the one path for a lost packet anywhere in the
//!   fabric: it counts the packet in a [`DropCounters`] and records its
//!   `Drop` trace event. The switch calls it for admission, eviction,
//!   link-down and no-route drops, the fabric's wires for dead-link and
//!   corrupted packets.
//!
//! [`DropCounters`]: dcn_metrics::DropCounters
//!
//! # Example
//!
//! ```
//! use dcn_net::{FlowId, NodeId, Packet, PortId, Priority, TrafficClass};
//! use dcn_sim::{BitRate, Bytes, SimTime};
//! use dcn_switch::{DtPolicy, SharedMemorySwitch, SwitchConfig};
//!
//! let mut sw = SharedMemorySwitch::new(
//!     NodeId::new(0),
//!     SwitchConfig::default(),
//!     vec![BitRate::from_gbps(25); 4],
//!     Box::new(DtPolicy::new(0.125)),
//!     7,
//! );
//! let pkt = Packet::data(
//!     FlowId::new(1), NodeId::new(10), NodeId::new(11),
//!     Priority::new(3), TrafficClass::Lossless,
//!     0, Bytes::new(1_000), Bytes::new(48),
//! );
//! let res = sw.receive(SimTime::ZERO, pkt, PortId::new(0), PortId::new(1));
//! assert!(res.admitted());
//! // The egress port was idle, so transmission starts immediately.
//! assert!(res.tx.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod abm;
mod config;
mod mmu;
mod policy;
mod queue;
mod switch;

pub use abm::AbmPolicy;
pub use config::{EcnConfig, SwitchConfig};
pub use mmu::{Charge, MmuState, Pool, QueueIndex};
pub use policy::{BufferPolicy, DtPolicy};
pub use queue::{ChunkPool, EgressPort, InFlight, PacketPool, PriorityFifos, QueuedPacket};
pub use switch::{
    record_loss, PfcEmit, ReceiveOutcome, ReceiveResult, SharedMemorySwitch, TxCompleteResult,
    TxStart,
};
