//! Aggregated results of one simulation run.

use std::collections::BTreeMap;

use dcn_metrics::{DropCounters, FctSet, IrnCounters, OccupancySeries, PfcCounters};
use dcn_net::NodeId;
use dcn_sim::QueueStats;

/// Everything the paper's evaluation reads out of a run.
#[derive(Debug, Clone, Default)]
pub struct RunResults {
    /// Completed-flow records (both classes).
    pub fct: FctSet,
    /// PFC pause/resume frames summed over all switches.
    pub pfc: PfcCounters,
    /// Drops summed over all switches.
    pub drops: DropCounters,
    /// Buffer-occupancy traces per switch (if sampling was enabled).
    pub occupancy: BTreeMap<NodeId, OccupancySeries>,
    /// Flows that had not finished when the run ended.
    pub unfinished_flows: usize,
    /// Total events processed (simulator throughput diagnostics).
    pub events_processed: u64,
    /// Event-queue counters: pending high-water mark, slab capacity,
    /// past-time clamps. Diagnostics only — deliberately **not**
    /// part of [`RunResults::digest`], which fingerprints simulated
    /// behavior, not scheduler internals.
    pub queue: QueueStats,
    /// IRN (lossy RDMA) transport counters. All zero — and excluded
    /// from [`RunResults::digest`] — when no flow ran the IRN
    /// transport, so legacy digests are unchanged by IRN support.
    pub irn: IrnCounters,
    /// DCQCN senders found stranded (unsent bytes, no pacing event) —
    /// a transport-liveness defect that must stay zero; asserted by the
    /// golden-digest and chaos checks. Not part of the digest.
    pub rdma_stranded: u64,
    /// Liveness-watchdog stall episodes on RDMA flows (zero unless
    /// [`crate::FabricConfig::flow_watchdog`] is set). Not part of the
    /// digest.
    pub flow_stalls: u64,
    /// Per-shard executor statistics from a sharded run (empty for the
    /// serial engine). Diagnostics only — the values depend on how the
    /// run was parallelized, so they are deliberately excluded from
    /// [`RunResults::digest`], which must be identical at every shard
    /// count.
    pub shards: Vec<dcn_sim::ShardStats>,
}

impl RunResults {
    /// Total PFC pause frames (the paper's Fig. 7(d) / Table II metric).
    pub fn pause_frames(&self) -> u64 {
        self.pfc.pause_frames()
    }

    /// A stable FNV-1a digest over everything a report can read out of
    /// the run: per-flow completion records, PFC/drop totals, occupancy
    /// samples and the event count.
    ///
    /// Two runs of the same configuration and seed produce the same
    /// digest; the parallel sweep engine's regression tests compare
    /// digests across `--jobs` values to prove scheduling independence.
    pub fn digest(&self) -> u64 {
        self.digest_inner(true)
    }

    /// [`RunResults::digest`] minus the event count: fingerprints *what
    /// the network did* (per-flow records, PFC, drops, occupancy)
    /// without *how many events it took*, so it can compare runs whose
    /// event counts legitimately differ (`perfbench` checks its sliced,
    /// traced rep against the timed ones this way).
    pub fn behavior_digest(&self) -> u64 {
        self.digest_inner(false)
    }

    fn digest_inner(&self, include_events: bool) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(PRIME);
            }
        };
        for r in self.fct.records() {
            mix(r.flow.as_u64());
            mix(r.start.as_nanos());
            mix(r.finish.as_nanos());
            mix(r.size.as_u64());
        }
        mix(self.pfc.pause_frames());
        mix(self.pfc.resume_frames());
        mix(self.pfc.watchdog_fires());
        mix(self.drops.lossy_packets);
        mix(self.drops.lossy_bytes);
        mix(self.drops.lossless_packets);
        mix(self.drops.lossless_bytes);
        for (node, series) in &self.occupancy {
            mix(node.index() as u64);
            for &(at, occ) in series.samples() {
                mix(at.as_nanos());
                mix(occ.as_u64());
            }
        }
        mix(self.unfinished_flows as u64);
        // IRN counters join the fingerprint only when the run actually
        // carried IRN flows: a DCQCN-only run mixes nothing here and
        // keeps its pre-IRN digest byte-identical.
        if self.irn.flows > 0 {
            mix(self.irn.flows);
            mix(self.irn.nacks_switch);
            mix(self.irn.nacks_receiver);
            mix(self.irn.retransmitted_packets);
            mix(self.irn.retransmitted_bytes);
            mix(self.irn.rto_fires);
            mix(self.drops.lossy_rdma_packets);
            mix(self.drops.lossy_rdma_bytes);
        }
        if include_events {
            mix(self.events_processed);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_sensitive() {
        let empty = RunResults::default();
        assert_eq!(empty.digest(), RunResults::default().digest());
        let r = RunResults {
            events_processed: 1,
            ..RunResults::default()
        };
        assert_ne!(r.digest(), empty.digest());
        let mut r = RunResults::default();
        r.drops.lossy_packets = 1;
        assert_ne!(r.digest(), empty.digest());
    }

    #[test]
    fn irn_counters_only_digest_when_irn_flows_ran() {
        let empty = RunResults::default();
        // Phantom IRN activity with zero IRN flows (impossible in a real
        // run) must not perturb the digest: the gate is the flow count.
        let mut r = RunResults::default();
        r.irn.nacks_switch = 5;
        r.rdma_stranded = 2;
        r.flow_stalls = 3;
        assert_eq!(r.digest(), empty.digest());
        r.irn.flows = 1;
        assert_ne!(r.digest(), empty.digest());
    }
}
