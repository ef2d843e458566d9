//! `RoutingTable` against the table it replaced.
//!
//! The oracle below is the former implementation: one BFS per
//! destination host, one `Vec` of candidate ports per (node, host), a
//! `HashSet` of dead ports and a collected live subset on failover.
//! The anchor-indexed table must give the same candidate slice for
//! every (node, destination) pair and the same ECMP pick for every
//! flow, healthy and with links down, on every topology we build — and
//! on hand-built ones whose hosts are not leaves of a switch.

use std::collections::{HashSet, VecDeque};

use dcn_net::{
    ClosConfig, FatTreeConfig, FlowId, Link, NodeId, NodeKind, PortId, RoutingTable, Topology,
    TopologyBuilder,
};
use dcn_sim::{BitRate, SimDuration, SimRng};

struct Oracle {
    /// `ports[node][dst_host_rank]` = candidate output ports.
    ports: Vec<Vec<Vec<PortId>>>,
    host_rank: Vec<Option<usize>>,
    down: HashSet<(NodeId, PortId)>,
}

impl Oracle {
    fn shortest_paths(topo: &Topology) -> Oracle {
        let n = topo.node_count();
        // `peers[node][port]`, from the link list alone — so the oracle
        // also vouches for the topology's own per-port wire table.
        let mut peers: Vec<Vec<NodeId>> = topo
            .nodes()
            .iter()
            .map(|node| vec![node.id; node.port_count()])
            .collect();
        for l in topo.links() {
            peers[l.a.node.index()][l.a.port.index()] = l.b.node;
            peers[l.b.node.index()][l.b.port.index()] = l.a.node;
        }
        let hosts: Vec<NodeId> = topo.hosts().collect();
        let mut host_rank = vec![None; n];
        for (rank, h) in hosts.iter().enumerate() {
            host_rank[h.index()] = Some(rank);
        }
        let mut ports = vec![vec![Vec::new(); hosts.len()]; n];
        for (rank, &dst) in hosts.iter().enumerate() {
            let mut dist = vec![u32::MAX; n];
            dist[dst.index()] = 0;
            let mut q = VecDeque::new();
            q.push_back(dst);
            while let Some(v) = q.pop_front() {
                let dv = dist[v.index()];
                for &peer in &peers[v.index()] {
                    if dist[peer.index()] == u32::MAX {
                        dist[peer.index()] = dv + 1;
                        q.push_back(peer);
                    }
                }
            }
            for node in topo.nodes() {
                if dist[node.id.index()] == u32::MAX || node.id == dst {
                    continue;
                }
                let dn = dist[node.id.index()];
                for (pix, &peer) in peers[node.id.index()].iter().enumerate() {
                    if dist[peer.index()] != u32::MAX && dist[peer.index()] + 1 == dn {
                        ports[node.id.index()][rank].push(PortId::new(pix as u16));
                    }
                }
            }
        }
        Oracle {
            ports,
            host_rank,
            down: HashSet::new(),
        }
    }

    fn fail_link(&mut self, link: &Link) {
        self.down.insert((link.a.node, link.a.port));
        self.down.insert((link.b.node, link.b.port));
    }

    fn restore_link(&mut self, link: &Link) {
        self.down.remove(&(link.a.node, link.a.port));
        self.down.remove(&(link.b.node, link.b.port));
    }

    fn candidates(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        match self.host_rank.get(dst.index()).copied().flatten() {
            Some(rank) => &self.ports[node.index()][rank],
            None => &[],
        }
    }

    fn next_port(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<PortId> {
        let c = self.candidates(node, dst);
        if c.is_empty() {
            return None;
        }
        let h = flow.ecmp_hash(0x005E_ED0F_ECA7 ^ (node.index() as u64) << 17);
        let primary = c[(h % c.len() as u64) as usize];
        if !self.down.contains(&(node, primary)) {
            return Some(primary);
        }
        let live: Vec<PortId> = c
            .iter()
            .copied()
            .filter(|&p| !self.down.contains(&(node, p)))
            .collect();
        if live.is_empty() {
            return None;
        }
        Some(live[(h % live.len() as u64) as usize])
    }
}

/// Flow picks are compared on every pair of a small topology and on a
/// seeded sample of about this many pairs of a large one.
const PICKED_PAIRS: u64 = 30_000;

/// Every node as source against every node as destination — switches
/// and out-of-range ids as `dst` included — then 64 flows per pair.
fn assert_same(name: &str, topo: &Topology, routes: &RoutingTable, oracle: &Oracle, seed: u64) {
    let n = topo.node_count();
    let pairs = (n * (n + 1)) as u64;
    let mut rng = SimRng::seed_from_u64(seed);
    for node in (0..n).map(|i| NodeId::new(i as u32)) {
        for dst in (0..=n).map(|i| NodeId::new(i as u32)) {
            assert_eq!(
                routes.candidates(node, dst),
                oracle.candidates(node, dst),
                "{name}: candidates({node}, {dst})"
            );
            if pairs > PICKED_PAIRS && rng.below(pairs) >= PICKED_PAIRS {
                continue;
            }
            for _ in 0..64 {
                let flow = FlowId::new(rng.next_u64());
                assert_eq!(
                    routes.next_port(node, dst, flow),
                    oracle.next_port(node, dst, flow),
                    "{name}: next_port({node}, {dst}, {flow})"
                );
            }
        }
    }
}

/// Healthy, then three rounds of seeded random link failures (up to an
/// eighth of the links at once, so some nodes lose every candidate),
/// then restored: the healthy picks must come back exactly.
fn differential(name: &str, topo: &Topology) {
    let mut routes = RoutingTable::shortest_paths(topo);
    let mut oracle = Oracle::shortest_paths(topo);
    assert_same(name, topo, &routes, &oracle, 1);

    let mut rng = SimRng::seed_from_u64(0xD1FF ^ topo.links().len() as u64);
    let links = topo.links();
    for round in 0..3 {
        let mut failed: Vec<Link> = Vec::new();
        for _ in 0..1 + rng.below(1 + links.len() as u64 / 8) {
            // Repeats are deliberate: failing a dead link is a no-op.
            failed.push(links[rng.below(links.len() as u64) as usize]);
        }
        for l in &failed {
            routes.fail_link(l);
            oracle.fail_link(l);
        }
        for l in links {
            for end in [l.a, l.b] {
                assert_eq!(
                    routes.is_port_down(end.node, end.port),
                    oracle.down.contains(&(end.node, end.port)),
                    "{name}: is_port_down({}, {})",
                    end.node,
                    end.port
                );
            }
        }
        assert_same(
            &format!("{name}, failures {round}"),
            topo,
            &routes,
            &oracle,
            2,
        );
        for l in &failed {
            routes.restore_link(l);
            oracle.restore_link(l);
        }
        assert!(oracle.down.is_empty());
    }
    assert_same(&format!("{name}, restored"), topo, &routes, &oracle, 1);
}

#[test]
fn clos_fabrics() {
    differential("clos paper", &Topology::clos(&ClosConfig::paper()));
    differential("clos small", &Topology::clos(&ClosConfig::small(8)));
}

#[test]
fn fat_trees() {
    for k in [4, 8, 16] {
        differential(
            &format!("fat-tree k={k}"),
            &Topology::fat_tree(&FatTreeConfig::new(k)),
        );
    }
}

#[test]
fn dumbbell_and_single_switch() {
    let (fast, slow, us) = (
        BitRate::from_gbps(25),
        BitRate::from_gbps(10),
        SimDuration::from_micros(1),
    );
    differential("dumbbell", &Topology::dumbbell(3, 2, fast, slow, us));
    differential("single switch", &Topology::single_switch(5, fast, us));
}

/// Hosts that are not leaves of a switch are their own anchor: a
/// dual-homed host (also a transit node between its two switches), two
/// hosts wired back to back, a host with no port at all — plus a
/// switch-only island nothing reaches, and an ordinary leaf host beside
/// them all.
#[test]
fn hosts_that_are_their_own_anchor() {
    let (rate, us) = (BitRate::from_gbps(25), SimDuration::from_micros(1));
    let mut b = TopologyBuilder::new();
    let leaf = b.add(NodeKind::Host);
    let dual = b.add(NodeKind::Host);
    let s1 = b.add(NodeKind::Switch);
    let s2 = b.add(NodeKind::Switch);
    let s3 = b.add(NodeKind::Switch);
    let pair_a = b.add(NodeKind::Host);
    let pair_b = b.add(NodeKind::Host);
    let _lonely = b.add(NodeKind::Host);
    let island_a = b.add(NodeKind::Switch);
    let island_b = b.add(NodeKind::Switch);
    let far = b.add(NodeKind::Host);
    b.connect(leaf, s1, rate, us);
    b.connect(dual, s1, rate, us);
    b.connect(dual, s2, rate, us);
    b.connect(s1, s3, rate, us);
    b.connect(s2, s3, rate, us);
    b.connect(far, s3, rate, us);
    b.connect(pair_a, pair_b, rate, us);
    b.connect(island_a, island_b, rate, us);
    let topo = b.build();

    let routes = RoutingTable::shortest_paths(&topo);
    // Both of s3's downlinks are one hop short of the dual-homed host.
    assert_eq!(routes.candidates(s3, dual).len(), 2);
    assert_eq!(routes.candidates(dual, far).len(), 2);
    assert_eq!(routes.hop_count(&topo, pair_a, pair_b), Some(1));
    assert_eq!(routes.hop_count(&topo, leaf, pair_b), None);
    differential("self-anchored hosts", &topo);
}
