//! All-shortest-path routing with per-flow ECMP.
//!
//! For every (node, destination host) pair we know the set of output
//! ports that lie on some shortest path (by hop count, breaking distance
//! ties by keeping all minimal next hops). At forwarding time a flow
//! hashes onto one of the candidates so that all its packets follow one
//! path — standard per-flow ECMP, which is what the paper's ns-3 setup
//! uses.
//!
//! The sets are stored per (node, *anchor*), not per (node, host). A
//! host with one port on a switch is a leaf: every shortest path to it
//! is a shortest path to that switch plus the last link, so all hosts
//! of one edge switch share its next-hop sets everywhere but at the
//! switch itself, where the answer is the one port facing the host. The
//! anchor of such a host is its edge switch; any other host (several
//! ports, none, or wired to another host) is its own anchor and gets a
//! BFS of its own. One BFS per anchor, and one `u32` per (node, anchor)
//! pointing into an arena of interned sets — a node has at most
//! radix + 1 distinct ones — make a k = 16 fat-tree's table
//! 1344 × 128 × 4 B = 688 KB where a `Vec` per (node, host) took 77 MB.
//!
//! Leaf rows are filled, not searched. A leaf forwards nothing, so BFS
//! never enters one and no switch scans a port facing one; a leaf's row
//! holds its one port toward every anchor its switch reaches, and the
//! empty set elsewhere. On that fat-tree, 1 024 of the 1 344 nodes are
//! leaves.

use crate::ids::{FlowId, NodeId, PortId};
use crate::link::{Link, LinkEnd};
use crate::topology::{NodeKind, Topology};

/// Where in `arena` the one set of a leaf's row starts: `[port 0]`,
/// its only port, toward every anchor its switch reaches.
const LEAF_UPLINK: u32 = 1;

/// How a destination host is reached.
#[derive(Debug, Clone, Copy)]
struct Dst {
    /// The node whose next-hop sets lead to this host: its edge switch,
    /// or the host itself.
    anchor: NodeId,
    /// The anchor's column in `offsets`.
    rank: u32,
    /// Where in `arena` the set used *at* the anchor starts: the one
    /// port facing this host (the empty set when the host is its own
    /// anchor).
    at_anchor: u32,
}

/// Precomputed next-hop sets: for each node and destination host, the
/// output ports on shortest paths.
///
/// Link failures are handled incrementally: [`RoutingTable::fail_link`]
/// marks both endpoint ports dead without recomputing the BFS, and
/// [`RoutingTable::next_port`] re-hashes an affected flow onto the live
/// subset of its candidate set. In a clos fabric every minimal path
/// shares the same hop count, so excluding dead candidates keeps routing
/// minimal as long as any shortest path survives; restoring the link
/// restores the exact pre-failure selection for every flow.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// `offsets[node * anchors + rank]` = where in `arena` the candidate
    /// set at `node` toward that anchor starts.
    offsets: Vec<u32>,
    /// Interned candidate sets, each stored as `[len, p0, p1, …]` with
    /// the ports in port order. Offset 0 is the shared empty set and
    /// [`LEAF_UPLINK`] the `[port 0]` set of every leaf's reached rows.
    arena: Vec<PortId>,
    /// Number of anchors (columns of `offsets`).
    anchors: usize,
    /// Indexed by `NodeId::index()`; `None` for switches.
    dst: Vec<Option<Dst>>,
    /// ECMP hash salt (per-topology constant; change to re-roll paths).
    salt: u64,
    /// `port_base[node] + port` indexes `down`.
    port_base: Vec<u32>,
    /// Per-port flag: the port's link is currently down.
    down: Vec<bool>,
    /// Number of set flags in `down`. Zero in a healthy fabric, so the
    /// forwarding fast path stays byte-identical to a build without
    /// fault support.
    down_ports: usize,
}

impl RoutingTable {
    /// Builds shortest-path next-hop sets for every destination host by
    /// BFS from each anchor over the forwarding nodes (every node but
    /// the leaves), then fills each leaf's row from its switch's.
    pub fn shortest_paths(topo: &Topology) -> RoutingTable {
        let n = topo.node_count();
        // The shared empty set, then the `[port 0]` set of every leaf.
        let mut arena = vec![PortId::new(0), PortId::new(1), PortId::new(0)];
        // Offsets of the sets interned so far for each node; a linear
        // scan, since a node has at most radix + 1 of them; newest first,
        // because consecutive anchors often share a set.
        let mut sets_of: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut intern = |node: NodeId, set: &[PortId]| {
            let sets = &mut sets_of[node.index()];
            let known = sets.iter().rev().copied().find(|&off| {
                let len = arena[off as usize].index();
                arena[off as usize + 1..off as usize + 1 + len] == *set
            });
            known.unwrap_or_else(|| {
                let off = u32::try_from(arena.len()).expect("route arena exceeds u32 offsets");
                arena.push(PortId::new(set.len() as u16));
                arena.extend_from_slice(set);
                sets.push(off);
                off
            })
        };

        let mut dst = vec![None; n];
        let mut anchors: Vec<NodeId> = Vec::new();
        let mut rank_of = vec![u32::MAX; n];
        // Each leaf with its switch, and a flag per node.
        let mut leaves: Vec<(NodeId, NodeId)> = Vec::new();
        let mut is_leaf = vec![false; n];
        for h in topo.hosts() {
            let (anchor, at_anchor) = match topo.wires_of(h) {
                [w] if topo.node(w.peer.node).kind == NodeKind::Switch => {
                    leaves.push((h, w.peer.node));
                    is_leaf[h.index()] = true;
                    (w.peer.node, intern(w.peer.node, &[w.peer.port]))
                }
                _ => (h, 0),
            };
            let rank = &mut rank_of[anchor.index()];
            if *rank == u32::MAX {
                *rank = anchors.len() as u32;
                anchors.push(anchor);
            }
            dst[h.index()] = Some(Dst {
                anchor,
                rank: *rank,
                at_anchor,
            });
        }

        // The forwarding graph: each node's wires to nodes that are not
        // leaves, as (peer, port) in port order; a leaf's run is empty.
        let mut hops_from = vec![0u32; n + 1];
        let mut hops: Vec<(NodeId, PortId)> = Vec::new();
        for node in topo.nodes() {
            let v = node.id.index();
            if !is_leaf[v] {
                for (pix, w) in topo.wires_of(node.id).iter().enumerate() {
                    if !is_leaf[w.peer.node.index()] {
                        hops.push((w.peer.node, PortId::new(pix as u16)));
                    }
                }
            }
            hops_from[v + 1] = hops.len() as u32;
        }

        let cols = anchors.len();
        let mut offsets = vec![0u32; n * cols];
        let mut dist = vec![u32::MAX; n];
        let mut queue: Vec<NodeId> = Vec::with_capacity(n);
        let mut cand = Vec::new();
        for (rank, &anchor) in anchors.iter().enumerate() {
            // BFS from the anchor over the forwarding graph; dist[v] =
            // hops from v to it. When v is dequeued, every node one hop
            // closer has been reached, so the scan that finds the next
            // level also finds v's next hops: the ports whose peer is one
            // hop closer.
            dist.fill(u32::MAX);
            dist[anchor.index()] = 0;
            queue.clear();
            queue.push(anchor);
            let mut head = 0;
            while let Some(&v) = queue.get(head) {
                head += 1;
                let dv = dist[v.index()];
                let run = hops_from[v.index()] as usize..hops_from[v.index() + 1] as usize;
                cand.clear();
                for &(peer, port) in &hops[run] {
                    let dp = &mut dist[peer.index()];
                    if *dp == u32::MAX {
                        *dp = dv + 1;
                        queue.push(peer);
                    } else if *dp + 1 == dv {
                        cand.push(port);
                    }
                }
                if dv > 0 {
                    offsets[v.index() * cols + rank] = intern(v, &cand);
                }
            }
        }

        // A leaf's row is filled, not searched: its one port toward each
        // anchor its switch reaches, which are the switch itself (the
        // leaf's own anchor) and every anchor toward which the switch's
        // row holds a set. All leaves of one switch share the row.
        let mut row = vec![0u32; cols];
        let mut row_of = None;
        for &(leaf, switch) in &leaves {
            if row_of != Some(switch) {
                let sets = &offsets[switch.index() * cols..][..cols];
                for (cell, &set) in row.iter_mut().zip(sets) {
                    *cell = if set == 0 { 0 } else { LEAF_UPLINK };
                }
                row[rank_of[switch.index()] as usize] = LEAF_UPLINK;
                row_of = Some(switch);
            }
            offsets[leaf.index() * cols..][..cols].copy_from_slice(&row);
        }

        let port_base = topo.port_base().to_vec();
        let down = vec![false; *port_base.last().expect("trailing entry") as usize];
        RoutingTable {
            offsets,
            arena,
            anchors: cols,
            dst,
            salt: 0x005E_ED0F_ECA7,
            port_base,
            down,
            down_ports: 0,
        }
    }

    /// Marks both endpoint ports of `link` dead. O(1); forwarding
    /// excludes them until [`RoutingTable::restore_link`].
    pub fn fail_link(&mut self, link: &Link) {
        self.set_down(link.a, true);
        self.set_down(link.b, true);
    }

    /// Restores both endpoint ports of `link`. Flow-to-port pinning
    /// returns to exactly the pre-failure selection.
    pub fn restore_link(&mut self, link: &Link) {
        self.set_down(link.a, false);
        self.set_down(link.b, false);
    }

    /// Whether `port` at `node` is currently marked dead.
    ///
    /// # Panics
    ///
    /// Panics if `node` has no such port.
    pub fn is_port_down(&self, node: NodeId, port: PortId) -> bool {
        self.down[self.port_slot(node, port)]
    }

    /// Index of `(node, port)` in `down`. Checked, because a port past
    /// the node's last would land in another node's slots.
    fn port_slot(&self, node: NodeId, port: PortId) -> usize {
        let slot = self.port_base[node.index()] as usize + port.index();
        assert!(
            slot < self.port_base[node.index() + 1] as usize,
            "{node} has no {port}"
        );
        slot
    }

    fn set_down(&mut self, end: LinkEnd, down: bool) {
        let slot = self.port_slot(end.node, end.port);
        if self.down[slot] != down {
            self.down[slot] = down;
            if down {
                self.down_ports += 1;
            } else {
                self.down_ports -= 1;
            }
        }
    }

    /// All candidate output ports at `node` toward `dst`, or an empty
    /// slice if unreachable / `dst` is not a host.
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[PortId] {
        let Some(Some(d)) = self.dst.get(dst.index()) else {
            return &[];
        };
        if node == dst {
            return &[];
        }
        let shared = self.offsets[node.index() * self.anchors + d.rank as usize];
        // Both offsets are in hand so that this is a select, not a
        // branch: at an edge switch, up or down is a coin flip.
        let off = if node == d.anchor {
            d.at_anchor
        } else {
            shared
        } as usize;
        let len = self.arena[off].index();
        &self.arena[off + 1..off + 1 + len]
    }

    /// The ECMP-selected output port for `flow` at `node` toward `dst`,
    /// or `None` if unreachable (including when every candidate's link
    /// is down).
    ///
    /// All packets of one flow at one node get the same port. Flows
    /// whose hashed port is alive are never re-pinned by an unrelated
    /// failure; flows on a dead port re-hash onto the live subset and
    /// return to their original port once the link is restored.
    pub fn next_port(&self, node: NodeId, dst: NodeId, flow: FlowId) -> Option<PortId> {
        let c = self.candidates(node, dst);
        if c.is_empty() {
            return None;
        }
        // Salt with the node id so a flow re-rolls independently per hop.
        let h = flow.ecmp_hash(self.salt ^ (node.index() as u64) << 17);
        let primary = c[(h % c.len() as u64) as usize];
        if self.down_ports == 0 {
            return Some(primary);
        }
        let base = self.port_base[node.index()] as usize;
        let live = |p: &PortId| !self.down[base + p.index()];
        if live(&primary) {
            return Some(primary);
        }
        // The `h % live`-th live candidate, in port order.
        let n_live = c.iter().copied().filter(live).count() as u64;
        if n_live == 0 {
            return None;
        }
        c.iter().copied().filter(live).nth((h % n_live) as usize)
    }

    /// Hop count from `node` to `dst` following shortest paths, or `None`
    /// if unreachable. Useful for ideal-FCT computation.
    pub fn hop_count(&self, topo: &Topology, mut node: NodeId, dst: NodeId) -> Option<u32> {
        let mut hops = 0;
        let flow = FlowId::new(0);
        while node != dst {
            if topo.node(node).kind == NodeKind::Host && hops > 0 {
                return None; // wandered into a wrong host
            }
            let port = self.next_port(node, dst, flow)?;
            node = topo.wire(node, port).peer.node;
            hops += 1;
            if hops > 64 {
                return None; // routing loop guard
            }
        }
        Some(hops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::ClosConfig;
    use dcn_sim::{BitRate, SimDuration};

    fn paper() -> (Topology, RoutingTable) {
        let t = Topology::clos(&ClosConfig::paper());
        let r = RoutingTable::shortest_paths(&t);
        (t, r)
    }

    #[test]
    fn same_tor_is_two_hops() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        // hosts 0 and 1 share a ToR: host -> tor -> host = 2 hops.
        assert_eq!(r.hop_count(&t, hosts[0], hosts[1]), Some(2));
    }

    #[test]
    fn cross_tor_is_four_hops() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        // host 0 (ToR 0) to host 32 (ToR 1): host-tor-agg-tor-host.
        assert_eq!(r.hop_count(&t, hosts[0], hosts[32]), Some(4));
    }

    #[test]
    fn tor_has_four_ecmp_uplinks_cross_rack() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let c = r.candidates(tor0, hosts[32]);
        assert_eq!(c.len(), 4, "one per aggregation switch");
    }

    #[test]
    fn tor_has_single_downlink_same_rack() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let c = r.candidates(tor0, hosts[1]);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn flow_pinning_is_stable() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let f = FlowId::new(77);
        let p1 = r.next_port(tor0, hosts[32], f);
        let p2 = r.next_port(tor0, hosts[32], f);
        assert_eq!(p1, p2);
    }

    #[test]
    fn ecmp_spreads_flows() {
        let (t, r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let distinct: std::collections::HashSet<PortId> = (0..256)
            .filter_map(|i| r.next_port(tor0, hosts[32], FlowId::new(i)))
            .collect();
        assert!(
            distinct.len() >= 3,
            "got {} distinct uplinks",
            distinct.len()
        );
    }

    #[test]
    fn unreachable_and_non_host_destinations() {
        let (t, r) = paper();
        let sw = t.switches().next().unwrap();
        let host = t.hosts().next().unwrap();
        // Switch as destination: not a host, no routes.
        assert!(r.candidates(host, sw).is_empty());
        assert_eq!(r.next_port(host, sw, FlowId::new(1)), None);
    }

    #[test]
    fn failed_uplink_repins_only_affected_flows_and_restores_exactly() {
        let (t, mut r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let dst = hosts[32];

        // Pin a pre-failure port for many flows.
        let before: Vec<Option<PortId>> = (0..64)
            .map(|i| r.next_port(tor0, dst, FlowId::new(i)))
            .collect();

        // Fail the link behind some flow's selected port.
        let victim_port = before[0].unwrap();
        let link = *t.link_at(tor0, victim_port);
        r.fail_link(&link);
        assert!(r.is_port_down(tor0, victim_port));

        for (i, &was) in before.iter().enumerate() {
            let now = r.next_port(tor0, dst, FlowId::new(i as u64));
            let was = was.unwrap();
            if was == victim_port {
                let now = now.expect("three live uplinks remain");
                assert_ne!(now, victim_port, "flow {i} moved off the dead port");
            } else {
                assert_eq!(now, Some(was), "flow {i} must not be re-pinned");
            }
        }

        // Recovery restores the exact pre-failure selection.
        r.restore_link(&link);
        assert!(!r.is_port_down(tor0, victim_port));
        for (i, &was) in before.iter().enumerate() {
            assert_eq!(r.next_port(tor0, dst, FlowId::new(i as u64)), was);
        }
    }

    #[test]
    fn all_candidates_down_means_no_route() {
        let (t, mut r) = paper();
        let hosts: Vec<NodeId> = t.hosts().collect();
        let tor0 = t.host_uplink_switch(hosts[0]).unwrap();
        let dst = hosts[32];
        for &p in r.candidates(tor0, dst).to_vec().iter() {
            let link = *t.link_at(tor0, p);
            r.fail_link(&link);
        }
        assert_eq!(r.next_port(tor0, dst, FlowId::new(1)), None);
    }

    #[test]
    fn works_on_dumbbell() {
        let t = Topology::dumbbell(
            2,
            2,
            BitRate::from_gbps(25),
            BitRate::from_gbps(10),
            SimDuration::from_micros(1),
        );
        let r = RoutingTable::shortest_paths(&t);
        let hosts: Vec<NodeId> = t.hosts().collect();
        // left host to right host: host-swL-swR-host = 3 hops.
        assert_eq!(r.hop_count(&t, hosts[0], hosts[2]), Some(3));
    }
}
