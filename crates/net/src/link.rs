//! Point-to-point full-duplex links.

use std::fmt;

use dcn_sim::{BitRate, SimDuration};

use crate::ids::{NodeId, PortId};

/// Identifies a link in a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a link id from its index in the topology.
    pub const fn new(ix: u32) -> Self {
        LinkId(ix)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// One attachment point of a link: which node, and which of its ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkEnd {
    /// The attached node.
    pub node: NodeId,
    /// The port on that node.
    pub port: PortId,
}

impl LinkEnd {
    /// Creates an attachment point.
    pub const fn new(node: NodeId, port: PortId) -> Self {
        LinkEnd { node, port }
    }
}

/// A full-duplex point-to-point link. Both directions share the same rate
/// and propagation delay; each direction serializes independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// One endpoint.
    pub a: LinkEnd,
    /// The other endpoint.
    pub b: LinkEnd,
    /// Transmission rate of each direction.
    pub rate: BitRate,
    /// One-way propagation delay.
    pub propagation: SimDuration,
}
