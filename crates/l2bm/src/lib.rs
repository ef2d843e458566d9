//! **L2BM** — congestion-aware ingress buffer management for hybrid
//! TCP/RDMA data-center networks (Liu et al., ICDCS 2023).
//!
//! L2BM replaces the fixed control factor of the classic Dynamic
//! Threshold algorithm with a *congestion perception factor* derived from
//! the average time packets spend occupying each ingress queue:
//!
//! ```text
//! T_i^p(t) = (C / τ_i^p) · α · (B − Q(t))        (paper Eq. 3)
//! ```
//!
//! where `τ_i^p` is the average sojourn time of the packets currently
//! buffered at ingress port *i*, priority *p* (maintained by the
//! [`SojournModule`], paper Algorithm 1) and `C` normalizes the weight
//! (by default the sum of the average sojourn times of all active ingress
//! queues). Queues that drain fast — typically RDMA, whose DCQCN control
//! loop reacts within microseconds — get *large* PFC thresholds and
//! absorb bursts without pausing; queues whose packets linger — typically
//! TCP piling up behind congested egress ports — get *small* thresholds
//! and are stopped from monopolizing the shared pool.
//!
//! The crate provides:
//!
//! * [`L2bmPolicy`] — a drop-in [`dcn_switch::BufferPolicy`], which
//!   also runs BShare ([`L2bmPolicy::bshare`]) on the same module.
//! * [`SojournModule`] — the per-queue residence-time recorder, usable
//!   on its own.
//! * [`analysis`] — closed-form steady-state occupancy/threshold
//!   helpers (paper Eqs. 8–9).
//!
//! # Example
//!
//! ```
//! use dcn_net::NodeId;
//! use dcn_sim::BitRate;
//! use dcn_switch::{SharedMemorySwitch, SwitchConfig};
//! use l2bm::{L2bmConfig, L2bmPolicy};
//!
//! let sw = SharedMemorySwitch::new(
//!     NodeId::new(0),
//!     SwitchConfig::default(),
//!     vec![BitRate::from_gbps(25); 8],
//!     Box::new(L2bmPolicy::new(L2bmConfig::default())),
//!     7,
//! );
//! assert_eq!(sw.mmu().port_count(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod config;
mod policy;
mod sojourn;

pub use config::{L2bmConfig, Normalization};
pub use policy::L2bmPolicy;
pub use sojourn::SojournModule;
