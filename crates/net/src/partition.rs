//! Spatial sharding of a topology for the parallel (sharded) executor.
//!
//! A [`Partition`] assigns every node to one shard such that a host is
//! always co-sharded with its ToR — host↔ToR links never cross shards,
//! so the only cross-shard traffic rides fabric links whose propagation
//! delay is at least a microsecond. That minimum cross-link propagation
//! is the partition's **lookahead**: an event popped at time `t` in one
//! shard can influence another shard no earlier than `t + lookahead`
//! (PFC frames travel with propagation delay only, data packets add
//! serialization on top), so shards may advance through a window of
//! that width in lockstep and exchange handoffs at window barriers
//! without ever seeing a message in their past.
//!
//! The assignment is a pure function of the topology and the requested
//! shard count — every shard computes it identically, which the
//! deterministic handoff-ordering protocol relies on.

use dcn_sim::SimDuration;

use crate::ids::NodeId;
use crate::link::LinkId;
use crate::topology::{NodeKind, Topology};

/// A deterministic node→shard assignment with its cross-link lookahead.
#[derive(Debug, Clone)]
pub struct Partition {
    shard_of: Vec<u32>,
    shards: usize,
    cross: Vec<bool>,
    cross_links: Vec<LinkId>,
    lookahead: Option<SimDuration>,
}

impl Partition {
    /// Partitions `topo` into at most `requested` shards (≥ 1).
    ///
    /// ToR switches (switches adjacent to at least one host) are grouped
    /// contiguously by node id into `min(requested, #ToRs)` balanced
    /// groups; hosts join their ToR's shard. Every other switch is
    /// assigned by deterministic fixed-point passes: in node-id order,
    /// an unassigned switch takes one of its assigned neighbors' shards,
    /// rotated round-robin so aggregation and core layers spread across
    /// shards instead of piling onto the first one.
    ///
    /// # Panics
    ///
    /// Panics if `requested` is zero or the topology has no nodes.
    pub fn new(topo: &Topology, requested: usize) -> Partition {
        assert!(requested >= 1, "at least one shard");
        assert!(topo.node_count() > 0, "empty topology");
        const UNASSIGNED: u32 = u32::MAX;
        let mut shard_of = vec![UNASSIGNED; topo.node_count()];

        // ToRs: switches with a host neighbor, in id order.
        let tors: Vec<NodeId> = topo
            .switches()
            .filter(|&sw| {
                topo.wires_of(sw)
                    .iter()
                    .any(|w| topo.node(w.peer.node).kind == NodeKind::Host)
            })
            .collect();
        let shards = requested.min(tors.len()).max(1);

        // Contiguous balanced ToR groups; hosts follow their ToR.
        for (i, &tor) in tors.iter().enumerate() {
            let shard = (i * shards / tors.len()) as u32;
            shard_of[tor.index()] = shard;
            for w in topo.wires_of(tor) {
                if topo.node(w.peer.node).kind == NodeKind::Host {
                    shard_of[w.peer.node.index()] = shard;
                }
            }
        }

        // Fixed-point passes for the remaining switches (aggs, cores):
        // take an assigned neighbor's shard, rotating among the sorted
        // candidate shards so upper layers spread out deterministically.
        let mut rotation = 0usize;
        loop {
            let mut progress = false;
            for node in topo.nodes() {
                if shard_of[node.id.index()] != UNASSIGNED {
                    continue;
                }
                let mut candidates: Vec<u32> = topo
                    .wires_of(node.id)
                    .iter()
                    .map(|w| shard_of[w.peer.node.index()])
                    .filter(|&s| s != UNASSIGNED)
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                candidates.sort_unstable();
                candidates.dedup();
                shard_of[node.id.index()] = candidates[rotation % candidates.len()];
                rotation += 1;
                progress = true;
            }
            if !progress {
                break;
            }
        }
        // Disconnected leftovers (none in our builders, but total anyway).
        for s in shard_of.iter_mut() {
            if *s == UNASSIGNED {
                *s = 0;
            }
        }

        let mut cross = vec![false; topo.links().len()];
        let mut cross_links = Vec::new();
        let mut lookahead: Option<SimDuration> = None;
        for l in topo.links() {
            if shard_of[l.a.node.index()] != shard_of[l.b.node.index()] {
                cross[l.id.index()] = true;
                cross_links.push(l.id);
                lookahead = Some(match lookahead {
                    Some(cur) => cur.min(l.propagation),
                    None => l.propagation,
                });
            }
        }

        Partition {
            shard_of,
            shards,
            cross,
            cross_links,
            lookahead,
        }
    }

    /// Effective shard count (≤ the requested count; at most one shard
    /// per ToR).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.shard_of[node.index()] as usize
    }

    /// Whether `link` connects two different shards.
    pub fn is_cross(&self, link: LinkId) -> bool {
        self.cross[link.index()]
    }

    /// All cross-shard links, in id order.
    pub fn cross_links(&self) -> &[LinkId] {
        &self.cross_links
    }

    /// The conservative-sync lookahead: the minimum propagation delay
    /// over all cross-shard links. `None` when nothing crosses (a
    /// single-shard partition).
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{ClosConfig, FatTreeConfig};

    fn check_invariants(topo: &Topology, requested: usize) -> Partition {
        let p = Partition::new(topo, requested);
        assert!(p.shards() >= 1 && p.shards() <= requested);
        // Total assignment within range.
        for n in topo.nodes() {
            assert!(p.shard_of(n.id) < p.shards(), "{:?} out of range", n.id);
        }
        // Every shard non-empty.
        let mut seen = vec![false; p.shards()];
        for n in topo.nodes() {
            seen[p.shard_of(n.id)] = true;
        }
        assert!(seen.iter().all(|&s| s), "empty shard");
        // Hosts co-sharded with their ToR: host links never cross.
        for h in topo.hosts() {
            let tor = topo.host_uplink_switch(h).unwrap();
            assert_eq!(p.shard_of(h), p.shard_of(tor), "host split from ToR");
        }
        // The lookahead claim: every cross link's propagation (the
        // minimum latency any influence needs to cross shards) is at
        // least the claimed lookahead, and cross/is_cross agree.
        let mut n_cross = 0;
        for l in topo.links() {
            let crosses = p.shard_of(l.a.node) != p.shard_of(l.b.node);
            assert_eq!(p.is_cross(l.id), crosses);
            if crosses {
                n_cross += 1;
                assert!(
                    l.propagation >= p.lookahead().expect("cross links imply lookahead"),
                    "cross link faster than lookahead"
                );
            }
        }
        assert_eq!(p.cross_links().len(), n_cross);
        if p.shards() > 1 {
            assert!(p.lookahead().is_some(), "multi-shard needs cross links");
        }
        p
    }

    #[test]
    fn cross_shard_min_latency_property() {
        let topos = [
            Topology::clos(&ClosConfig::paper()),
            Topology::clos(&ClosConfig::small(4)),
            Topology::fat_tree(&FatTreeConfig::new(4)),
            Topology::fat_tree(&FatTreeConfig::new(8)),
        ];
        for topo in &topos {
            for requested in [1, 2, 3, 4, 8, 64] {
                check_invariants(topo, requested);
            }
        }
    }

    #[test]
    fn paper_clos_four_shards_balance() {
        let topo = Topology::clos(&ClosConfig::paper());
        let p = check_invariants(&topo, 4);
        assert_eq!(p.shards(), 4);
        // One ToR (+ its 32 hosts) per shard, and the 4 aggs spread one
        // per shard by rotation instead of piling onto shard 0.
        let mut agg_shards: Vec<usize> = (128 + 4..128 + 8)
            .map(|i| p.shard_of(crate::ids::NodeId::new(i as u32)))
            .collect();
        agg_shards.sort_unstable();
        assert_eq!(agg_shards, vec![0, 1, 2, 3]);
        // Cross lookahead is the 1 µs ToR–agg propagation.
        assert_eq!(p.lookahead(), Some(dcn_sim::SimDuration::from_micros(1)));
    }

    #[test]
    fn shards_clamp_to_tor_count() {
        let topo = Topology::clos(&ClosConfig::paper());
        let p = Partition::new(&topo, 8);
        assert_eq!(p.shards(), 4, "paper clos has 4 ToRs");
        let single = Partition::new(&topo, 1);
        assert_eq!(single.shards(), 1);
        assert_eq!(single.lookahead(), None);
        assert!(single.cross_links().is_empty());
    }

    #[test]
    fn fat_tree_eight_shards_spread_pods() {
        let topo = Topology::fat_tree(&FatTreeConfig::new(8));
        let p = check_invariants(&topo, 8);
        assert_eq!(p.shards(), 8);
        // 32 edge switches → 4 per shard; pods are contiguous in id, so
        // each shard holds exactly one pod's edge layer (8 pods).
        for e in 0..32usize {
            let edge = crate::ids::NodeId::new((128 + e) as u32);
            assert_eq!(p.shard_of(edge), e / 4, "pod-contiguous grouping");
        }
    }

    #[test]
    fn deterministic_assignment() {
        let topo = Topology::fat_tree(&FatTreeConfig::new(4));
        let a = Partition::new(&topo, 4);
        let b = Partition::new(&topo, 4);
        for n in topo.nodes() {
            assert_eq!(a.shard_of(n.id), b.shard_of(n.id));
        }
        assert_eq!(a.cross_links(), b.cross_links());
    }
}
