//! Network substrate for DCN simulation: identifiers, packets, links,
//! topology builders and ECMP routing.
//!
//! This crate provides the passive data model shared by the switch,
//! transport and fabric crates:
//!
//! * [`NodeId`], [`PortId`], [`FlowId`], [`Priority`] — typed identifiers.
//! * [`Packet`] — a data/ACK/CNP unit with ECN codepoint and traffic class.
//! * [`Link`] — full-duplex point-to-point link (rate + propagation delay).
//! * [`Topology`] — node/link graph with builders for the paper's 3-layer
//!   clos fabric ([`Topology::clos`]), k-ary fat-trees up to k = 32
//!   ([`Topology::fat_tree`]) and small test topologies; each port's far
//!   end is one read of a flat [`Wire`] table.
//! * [`RoutingTable`] — all-shortest-path next-hop sets with per-flow
//!   ECMP, stored per (node, destination edge switch).
//!
//! # Example
//!
//! ```
//! use dcn_net::{ClosConfig, FlowId, RoutingTable, Topology};
//!
//! let topo = Topology::clos(&ClosConfig::paper());
//! assert_eq!(topo.hosts().count(), 128);
//! let routes = RoutingTable::shortest_paths(&topo);
//! let src = topo.hosts().next().unwrap();
//! let dst = topo.hosts().last().unwrap();
//! // Every switch on the way knows a next hop for dst.
//! let port = routes.next_port(topo.host_uplink_switch(src).unwrap(), dst, FlowId::new(1));
//! assert!(port.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ids;
mod link;
mod packet;
mod partition;
mod routing;
mod topology;

pub use ids::{FlowId, NodeId, PortId, Priority, TrafficClass};
pub use link::{Link, LinkEnd, LinkId};
pub use packet::{
    EcnCodepoint, Packet, PacketKind, PfcFrame, ACK_SIZE, CNP_SIZE, MAX_FRAME, NACK_SIZE,
    PFC_FRAME_SIZE,
};
pub use partition::Partition;
pub use routing::RoutingTable;
pub use topology::{ClosConfig, FatTreeConfig, Node, NodeKind, Topology, TopologyBuilder, Wire};
