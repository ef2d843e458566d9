//! Topology graph and builders.
//!
//! The paper evaluates on a 3-layer clos (Fig. 6): 2 core switches, 4
//! aggregation switches, 4 ToR switches, 32 servers per ToR, 25 Gbps host
//! links and 100 Gbps fabric links, 1 µs propagation everywhere except
//! 5 µs between aggregation and core. [`ClosConfig::paper`] reproduces
//! exactly that; scaled-down variants are used in tests and benches.

use dcn_sim::{BitRate, SimDuration};

use crate::ids::{NodeId, PortId};
use crate::link::{Link, LinkEnd, LinkId};

/// What kind of device a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host with a single NIC port.
    Host,
    /// A shared-memory switch.
    Switch,
}

/// A node in the topology: a host or a switch. What its ports attach
/// to is in [`Topology::wires_of`].
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Host or switch.
    pub kind: NodeKind,
    port_count: u16,
}

impl Node {
    /// Number of ports in use.
    pub fn port_count(&self) -> usize {
        self.port_count as usize
    }
}

/// What one `(node, port)` attachment reaches: everything a hop needs
/// about its link, in one slot of [`Topology`]'s flat per-port table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    /// The far end of the link.
    pub peer: LinkEnd,
    /// The attached link.
    pub link: LinkId,
    /// Which end of the link this attachment is: 0 for `link.a`, 1 for
    /// `link.b`.
    pub dir: u8,
    /// The link's one-way propagation delay.
    pub propagation: SimDuration,
}

/// An immutable node/link graph.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// `port_base[node]` = index of the node's port 0 in `wires`; one
    /// trailing entry holds `wires.len()`.
    port_base: Vec<u32>,
    /// One [`Wire`] per `(node, port)`, node-major in port order.
    wires: Vec<Wire>,
}

/// Configuration for the 3-layer clos fabric of the paper's Fig. 6.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClosConfig {
    /// Number of ToR (leaf) switches.
    pub tors: usize,
    /// Number of aggregation switches.
    pub aggs: usize,
    /// Number of core switches.
    pub cores: usize,
    /// Servers attached to each ToR.
    pub hosts_per_tor: usize,
    /// Host access link rate.
    pub host_rate: BitRate,
    /// Switch-to-switch link rate.
    pub fabric_rate: BitRate,
    /// Propagation delay of host and ToR–Agg links.
    pub edge_propagation: SimDuration,
    /// Propagation delay of Agg–Core links.
    pub core_propagation: SimDuration,
}

impl ClosConfig {
    /// The exact configuration of the paper's evaluation (§IV *Setup*):
    /// 2 cores, 4 aggs, 4 ToRs, 32 servers/ToR, 25/100 Gbps, 1 µs edges,
    /// 5 µs Agg–Core.
    pub fn paper() -> Self {
        ClosConfig {
            tors: 4,
            aggs: 4,
            cores: 2,
            hosts_per_tor: 32,
            host_rate: BitRate::from_gbps(25),
            fabric_rate: BitRate::from_gbps(100),
            edge_propagation: SimDuration::from_micros(1),
            core_propagation: SimDuration::from_micros(5),
        }
    }

    /// A scaled-down clos with the same structure (2 cores, 2 aggs, 2
    /// ToRs, `hosts_per_tor` servers) for tests and fast benches.
    pub fn small(hosts_per_tor: usize) -> Self {
        ClosConfig {
            tors: 2,
            aggs: 2,
            cores: 2,
            hosts_per_tor,
            ..ClosConfig::paper()
        }
    }

    /// Total number of hosts.
    pub fn host_count(&self) -> usize {
        self.tors * self.hosts_per_tor
    }
}

/// Configuration for a k-ary fat-tree (Al-Fares et al.): `k` pods, each
/// with `k/2` edge and `k/2` aggregation switches, `(k/2)²` cores, and
/// `k³/4` hosts. `k = 16` is the 1024-host datacenter-scale topology the
/// sharded executor targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FatTreeConfig {
    /// Pod count / switch radix. Must be even and ≥ 2.
    pub k: usize,
    /// Host access link rate.
    pub host_rate: BitRate,
    /// Switch-to-switch link rate.
    pub fabric_rate: BitRate,
    /// Propagation delay of host and edge–agg links.
    pub edge_propagation: SimDuration,
    /// Propagation delay of agg–core links.
    pub core_propagation: SimDuration,
}

impl FatTreeConfig {
    /// A k-ary fat-tree with the paper's link rates and delays (25/100
    /// Gbps, 1 µs edge, 5 µs agg–core).
    pub fn new(k: usize) -> Self {
        assert!(
            k >= 2 && k.is_multiple_of(2),
            "fat-tree k must be even and >= 2"
        );
        FatTreeConfig {
            k,
            host_rate: BitRate::from_gbps(25),
            fabric_rate: BitRate::from_gbps(100),
            edge_propagation: SimDuration::from_micros(1),
            core_propagation: SimDuration::from_micros(5),
        }
    }

    /// Total number of hosts: `k³/4`.
    pub fn host_count(&self) -> usize {
        self.k * self.k * self.k / 4
    }

    /// Number of edge (ToR) switches: `k²/2`.
    pub fn edge_count(&self) -> usize {
        self.k * self.k / 2
    }

    /// Number of core switches: `(k/2)²`.
    pub fn core_count(&self) -> usize {
        (self.k / 2) * (self.k / 2)
    }
}

impl Topology {
    /// Builds the clos fabric: every ToR connects to every aggregation
    /// switch, every aggregation switch connects to every core switch.
    ///
    /// Node ids are assigned hosts first (ToR-major), then ToRs, then
    /// aggs, then cores, so `hosts()` yields ids `0..host_count`.
    ///
    /// # Panics
    ///
    /// Panics if any tier count is zero.
    pub fn clos(cfg: &ClosConfig) -> Topology {
        assert!(cfg.tors > 0 && cfg.aggs > 0 && cfg.cores > 0 && cfg.hosts_per_tor > 0);
        let n_hosts = cfg.host_count();
        let mut b = TopologyBuilder::sized(
            n_hosts + cfg.tors + cfg.aggs + cfg.cores,
            n_hosts + cfg.tors * cfg.aggs + cfg.aggs * cfg.cores,
        );
        let hosts: Vec<NodeId> = (0..n_hosts).map(|_| b.add(NodeKind::Host)).collect();
        let tors: Vec<NodeId> = (0..cfg.tors).map(|_| b.add(NodeKind::Switch)).collect();
        let aggs: Vec<NodeId> = (0..cfg.aggs).map(|_| b.add(NodeKind::Switch)).collect();
        let cores: Vec<NodeId> = (0..cfg.cores).map(|_| b.add(NodeKind::Switch)).collect();

        for (t, &tor) in tors.iter().enumerate() {
            for h in 0..cfg.hosts_per_tor {
                let host = hosts[t * cfg.hosts_per_tor + h];
                b.connect(host, tor, cfg.host_rate, cfg.edge_propagation);
            }
            for &agg in &aggs {
                b.connect(tor, agg, cfg.fabric_rate, cfg.edge_propagation);
            }
        }
        for &agg in &aggs {
            for &core in &cores {
                b.connect(agg, core, cfg.fabric_rate, cfg.core_propagation);
            }
        }
        b.build()
    }

    /// Builds a k-ary fat-tree ([`FatTreeConfig`]).
    ///
    /// Node ids follow the clos convention — hosts first (edge-major),
    /// then edge switches (pod-major), then aggregation switches
    /// (pod-major), then cores — so `hosts()` yields ids
    /// `0..host_count` and every fabric consumer's host-id assumptions
    /// carry over unchanged.
    ///
    /// Wiring: within pod `p`, edge switch `e` connects its `k/2` hosts
    /// and all `k/2` pod aggs; core `(a, j)` (for `a, j < k/2`) connects
    /// to agg `a` of every pod, giving each agg `k/2` core uplinks.
    pub fn fat_tree(cfg: &FatTreeConfig) -> Topology {
        assert!(
            cfg.k >= 2 && cfg.k.is_multiple_of(2),
            "fat-tree k must be even"
        );
        let k = cfg.k;
        let half = k / 2;
        // Hosts, edge→agg and agg→core links all number k³/4.
        let mut b = TopologyBuilder::sized(
            cfg.host_count() + 2 * cfg.edge_count() + cfg.core_count(),
            3 * cfg.host_count(),
        );
        let hosts: Vec<NodeId> = (0..cfg.host_count())
            .map(|_| b.add(NodeKind::Host))
            .collect();
        let edges: Vec<NodeId> = (0..cfg.edge_count())
            .map(|_| b.add(NodeKind::Switch))
            .collect();
        let aggs: Vec<NodeId> = (0..cfg.edge_count())
            .map(|_| b.add(NodeKind::Switch))
            .collect();
        let cores: Vec<NodeId> = (0..cfg.core_count())
            .map(|_| b.add(NodeKind::Switch))
            .collect();

        for p in 0..k {
            for e in 0..half {
                let edge = edges[p * half + e];
                for h in 0..half {
                    let host = hosts[(p * half + e) * half + h];
                    b.connect(host, edge, cfg.host_rate, cfg.edge_propagation);
                }
                for a in 0..half {
                    b.connect(
                        edge,
                        aggs[p * half + a],
                        cfg.fabric_rate,
                        cfg.edge_propagation,
                    );
                }
            }
        }
        for a in 0..half {
            for j in 0..half {
                let core = cores[a * half + j];
                for p in 0..k {
                    b.connect(
                        aggs[p * half + a],
                        core,
                        cfg.fabric_rate,
                        cfg.core_propagation,
                    );
                }
            }
        }
        b.build()
    }

    /// A single switch with `n` directly-attached hosts — the minimal
    /// incast scenario.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn single_switch(n: usize, host_rate: BitRate, propagation: SimDuration) -> Topology {
        assert!(n > 0);
        let mut b = TopologyBuilder::new();
        let hosts: Vec<NodeId> = (0..n).map(|_| b.add(NodeKind::Host)).collect();
        let sw = b.add(NodeKind::Switch);
        for &h in &hosts {
            b.connect(h, sw, host_rate, propagation);
        }
        b.build()
    }

    /// Two switches joined by a bottleneck link, with `n_left`/`n_right`
    /// hosts on each side — the classic dumbbell for congestion tests.
    ///
    /// # Panics
    ///
    /// Panics if either host count is zero.
    pub fn dumbbell(
        n_left: usize,
        n_right: usize,
        host_rate: BitRate,
        bottleneck: BitRate,
        propagation: SimDuration,
    ) -> Topology {
        assert!(n_left > 0 && n_right > 0);
        let mut b = TopologyBuilder::new();
        let left: Vec<NodeId> = (0..n_left).map(|_| b.add(NodeKind::Host)).collect();
        let right: Vec<NodeId> = (0..n_right).map(|_| b.add(NodeKind::Host)).collect();
        let sl = b.add(NodeKind::Switch);
        let sr = b.add(NodeKind::Switch);
        for &h in &left {
            b.connect(h, sl, host_rate, propagation);
        }
        for &h in &right {
            b.connect(h, sr, host_rate, propagation);
        }
        b.connect(sl, sr, bottleneck, propagation);
        b.build()
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, in id order.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// The link attached to `(node, port)`.
    ///
    /// # Panics
    ///
    /// Panics if the node or port is out of range.
    pub fn link_at(&self, node: NodeId, port: PortId) -> &Link {
        self.link(self.wire(node, port).link)
    }

    /// What `(node, port)` is wired to.
    ///
    /// # Panics
    ///
    /// Panics if the node or port is out of range.
    pub fn wire(&self, node: NodeId, port: PortId) -> &Wire {
        &self.wires_of(node)[port.index()]
    }

    /// The wires of all of `node`'s ports, in port order.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn wires_of(&self, node: NodeId) -> &[Wire] {
        let ix = node.index();
        &self.wires[self.port_base[ix] as usize..self.port_base[ix + 1] as usize]
    }

    /// `port_base()[node]` is the index of the node's port 0 in a flat
    /// node-major per-port table; the last entry is the table's length.
    pub(crate) fn port_base(&self) -> &[u32] {
        &self.port_base
    }

    /// Ids of all hosts, in id order.
    pub fn hosts(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Host)
            .map(|n| n.id)
    }

    /// Ids of all switches, in id order.
    pub fn switches(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Switch)
            .map(|n| n.id)
    }

    /// The switch a host's single port connects to, or `None` for
    /// switches / unattached nodes.
    pub fn host_uplink_switch(&self, host: NodeId) -> Option<NodeId> {
        if self.node(host).kind != NodeKind::Host {
            return None;
        }
        Some(self.wires_of(host).first()?.peer.node)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Builds a [`Topology`] node by node and link by link — what the named
/// builders ([`Topology::clos`], [`Topology::fat_tree`], …) are made of,
/// public for fabrics they do not cover.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// An empty graph.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    /// An empty graph with room for a builder's known node and link
    /// counts, so a large fabric is laid out without regrowing.
    fn sized(nodes: usize, links: usize) -> Self {
        TopologyBuilder {
            nodes: Vec::with_capacity(nodes),
            links: Vec::with_capacity(links),
        }
    }

    /// Adds a node with no ports yet; ids are assigned in call order.
    pub fn add(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::new(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            kind,
            port_count: 0,
        });
        id
    }

    /// Joins `x` and `y` with a link on the next free port of each.
    ///
    /// # Panics
    ///
    /// Panics if either id was not returned by [`TopologyBuilder::add`],
    /// or if `x == y` (a link has two distinct ends).
    pub fn connect(&mut self, x: NodeId, y: NodeId, rate: BitRate, propagation: SimDuration) {
        assert!(x != y, "self-loop at {x}");
        let id = LinkId::new(self.links.len() as u32);
        let mut next_port = |n: NodeId| {
            let count = &mut self.nodes[n.index()].port_count;
            let port = PortId::new(*count);
            *count = count.checked_add(1).expect("port ids are 16 bits");
            LinkEnd::new(n, port)
        };
        let (a, b) = (next_port(x), next_port(y));
        self.links.push(Link {
            id,
            a,
            b,
            rate,
            propagation,
        });
    }

    /// Freezes the graph and lays out its flat per-port wire table.
    pub fn build(self) -> Topology {
        let mut port_base = Vec::with_capacity(self.nodes.len() + 1);
        let mut slots = 0u32;
        for node in &self.nodes {
            port_base.push(slots);
            slots += u32::from(node.port_count);
        }
        port_base.push(slots);
        // Every slot is written below: each port is one end of one link.
        let unwired = Wire {
            peer: LinkEnd::new(NodeId::new(0), PortId::new(0)),
            link: LinkId::new(0),
            dir: 0,
            propagation: SimDuration::ZERO,
        };
        let mut wires = vec![unwired; slots as usize];
        for l in &self.links {
            for (dir, here, peer) in [(0, l.a, l.b), (1, l.b, l.a)] {
                wires[port_base[here.node.index()] as usize + here.port.index()] = Wire {
                    peer,
                    link: l.id,
                    dir,
                    propagation: l.propagation,
                };
            }
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            port_base,
            wires,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_clos_shape() {
        let cfg = ClosConfig::paper();
        let t = Topology::clos(&cfg);
        assert_eq!(t.hosts().count(), 128);
        assert_eq!(t.switches().count(), 10);
        // Links: 128 host + 4*4 tor-agg + 4*2 agg-core = 152.
        assert_eq!(t.links().len(), 152);
    }

    #[test]
    fn tor_port_layout() {
        let cfg = ClosConfig::paper();
        let t = Topology::clos(&cfg);
        let tor = t.switches().next().unwrap();
        // 32 host-facing + 4 agg-facing ports.
        assert_eq!(t.node(tor).port_count(), 36);
        // First 32 ports face hosts at 25G, rest face aggs at 100G.
        for p in 0..32 {
            assert_eq!(t.link_at(tor, PortId::new(p)).rate, BitRate::from_gbps(25));
        }
        for p in 32..36 {
            assert_eq!(t.link_at(tor, PortId::new(p)).rate, BitRate::from_gbps(100));
        }
    }

    #[test]
    fn host_uplinks() {
        let t = Topology::clos(&ClosConfig::small(4));
        for h in t.hosts() {
            let sw = t.host_uplink_switch(h).unwrap();
            assert_eq!(t.node(sw).kind, NodeKind::Switch);
        }
        let sw = t.switches().next().unwrap();
        assert_eq!(t.host_uplink_switch(sw), None);
    }

    #[test]
    fn single_switch_and_dumbbell() {
        let s = Topology::single_switch(5, BitRate::from_gbps(25), SimDuration::from_micros(1));
        assert_eq!(s.hosts().count(), 5);
        assert_eq!(s.switches().count(), 1);
        assert_eq!(s.links().len(), 5);

        let d = Topology::dumbbell(
            3,
            2,
            BitRate::from_gbps(25),
            BitRate::from_gbps(10),
            SimDuration::from_micros(1),
        );
        assert_eq!(d.hosts().count(), 5);
        assert_eq!(d.switches().count(), 2);
        assert_eq!(d.links().len(), 6);
    }

    #[test]
    fn wire_table_agrees_with_the_link_list() {
        let us = SimDuration::from_micros(1);
        for t in [
            Topology::clos(&ClosConfig::paper()),
            Topology::fat_tree(&FatTreeConfig::new(4)),
            Topology::dumbbell(3, 2, BitRate::from_gbps(25), BitRate::from_gbps(10), us),
        ] {
            let ports: usize = t.nodes().iter().map(Node::port_count).sum();
            assert_eq!(ports, t.links().len() * 2);
            for l in t.links() {
                for (dir, here, peer) in [(0, l.a, l.b), (1, l.b, l.a)] {
                    let want = Wire {
                        peer,
                        link: l.id,
                        dir,
                        propagation: l.propagation,
                    };
                    assert_eq!(*t.wire(here.node, here.port), want);
                    assert_eq!(t.wires_of(here.node)[here.port.index()], want);
                    assert_eq!(t.link_at(here.node, here.port), l);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn builder_rejects_self_loops() {
        let mut b = TopologyBuilder::new();
        let sw = b.add(NodeKind::Switch);
        b.connect(sw, sw, BitRate::from_gbps(1), SimDuration::ZERO);
    }

    #[test]
    fn fat_tree_shape() {
        let cfg = FatTreeConfig::new(4);
        let t = Topology::fat_tree(&cfg);
        assert_eq!(t.hosts().count(), 16);
        assert_eq!(t.switches().count(), 8 + 8 + 4);
        // 16 host + (4 pods × 2 edges × 2 aggs) + (4 cores × 4 pods).
        assert_eq!(t.links().len(), 16 + 16 + 16);
        // Every edge switch: k/2 hosts + k/2 aggs = 4 ports; every core:
        // one agg per pod = 4 ports.
        for sw in t.switches() {
            assert_eq!(t.node(sw).port_count(), 4);
        }
        // Ids: hosts are 0..16, and each host's uplink is an edge switch
        // whose hosts are exactly its half-k id block.
        for h in t.hosts() {
            let edge = t.host_uplink_switch(h).unwrap();
            assert_eq!(edge.index(), 16 + h.index() / 2);
        }
    }

    #[test]
    fn fat_tree_paper_scale_shape() {
        let cfg = FatTreeConfig::new(16);
        assert_eq!(cfg.host_count(), 1024);
        let t = Topology::fat_tree(&cfg);
        assert_eq!(t.hosts().count(), 1024);
        assert_eq!(t.switches().count(), 128 + 128 + 64);
        assert_eq!(t.links().len(), 1024 + 1024 + 1024);
    }

    #[test]
    fn fat_tree_routes_reach_across_pods() {
        use crate::ids::FlowId;
        use crate::routing::RoutingTable;
        let t = Topology::fat_tree(&FatTreeConfig::new(4));
        let routes = RoutingTable::shortest_paths(&t);
        let hosts: Vec<NodeId> = t.hosts().collect();
        for (i, &src) in hosts.iter().enumerate() {
            for &dst in &hosts[i + 1..] {
                // Walk the route, counting hops; cross-pod paths are
                // host→edge→agg→core→agg→edge→host (5 switch hops).
                let mut at = t.host_uplink_switch(src).unwrap();
                let mut hops = 0;
                while at != dst {
                    let port = routes
                        .next_port(at, dst, FlowId::new(7))
                        .unwrap_or_else(|| panic!("no route {src:?}->{dst:?} at {at:?}"));
                    at = t.wire(at, port).peer.node;
                    hops += 1;
                    assert!(hops <= 6, "route too long {src:?}->{dst:?}");
                }
                let same_edge = src.index() / 2 == dst.index() / 2;
                let same_pod = src.index() / 4 == dst.index() / 4;
                let expect = if same_edge {
                    1
                } else if same_pod {
                    3
                } else {
                    5
                };
                assert_eq!(hops, expect, "{src:?}->{dst:?}");
            }
        }
    }

    #[test]
    fn core_links_have_long_propagation() {
        let cfg = ClosConfig::paper();
        let t = Topology::clos(&cfg);
        let long = t
            .links()
            .iter()
            .filter(|l| l.propagation == SimDuration::from_micros(5))
            .count();
        assert_eq!(long, 8); // 4 aggs × 2 cores
    }
}
