//! PFC / drop counters and buffer-occupancy time series.

use dcn_net::Priority;
use dcn_sim::{Bytes, SimTime};

use crate::stats::Cdf;

/// Counts PFC pause and resume frames, total and per priority.
///
/// The paper's Fig. 7(d), Table II and Fig. 11(c) report the number of
/// pause frames generated over a whole run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PfcCounters {
    pause_total: u64,
    resume_total: u64,
    watchdog_total: u64,
    pause_by_priority: [u64; Priority::COUNT],
}

impl PfcCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        PfcCounters::default()
    }

    /// Records one pause (XOFF) frame.
    pub fn record_pause(&mut self, priority: Priority) {
        self.pause_total += 1;
        self.pause_by_priority[priority.index()] += 1;
    }

    /// Records one resume (XON) frame.
    pub fn record_resume(&mut self, _priority: Priority) {
        self.resume_total += 1;
    }

    /// Records one PFC storm-watchdog forced resume.
    pub fn record_watchdog(&mut self) {
        self.watchdog_total += 1;
    }

    /// Total pause frames.
    pub fn pause_frames(&self) -> u64 {
        self.pause_total
    }

    /// Total resume frames.
    pub fn resume_frames(&self) -> u64 {
        self.resume_total
    }

    /// Total watchdog forced resumes (zero in a healthy fabric).
    pub fn watchdog_fires(&self) -> u64 {
        self.watchdog_total
    }

    /// Pause frames for one priority.
    pub fn pause_frames_for(&self, priority: Priority) -> u64 {
        self.pause_by_priority[priority.index()]
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &PfcCounters) {
        self.pause_total += other.pause_total;
        self.resume_total += other.resume_total;
        self.watchdog_total += other.watchdog_total;
        for (a, b) in self
            .pause_by_priority
            .iter_mut()
            .zip(other.pause_by_priority.iter())
        {
            *a += b;
        }
    }

    /// The counters accumulated since the `earlier` snapshot (which must
    /// be a prefix of this set — counters only grow).
    pub fn since(&self, earlier: &PfcCounters) -> PfcCounters {
        let mut d = self.clone();
        d.subtract(earlier);
        d
    }

    /// Removes a previously accumulated `delta`. The sharded executor
    /// uses this to revert mutations journaled past a run's completing
    /// event.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `delta` exceeds the accumulated totals.
    pub fn subtract(&mut self, delta: &PfcCounters) {
        debug_assert!(
            self.pause_total >= delta.pause_total
                && self.resume_total >= delta.resume_total
                && self.watchdog_total >= delta.watchdog_total,
            "subtracting a delta that was never accumulated"
        );
        self.pause_total -= delta.pause_total;
        self.resume_total -= delta.resume_total;
        self.watchdog_total -= delta.watchdog_total;
        for (a, b) in self
            .pause_by_priority
            .iter_mut()
            .zip(delta.pause_by_priority.iter())
        {
            *a -= b;
        }
    }
}

/// Counts dropped packets and bytes, split by traffic class semantics:
/// lossy drops are expected under congestion; lossless drops indicate
/// headroom exhaustion and should be zero in a healthy configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounters {
    /// Lossy (TCP) packets dropped.
    pub lossy_packets: u64,
    /// Lossy bytes dropped.
    pub lossy_bytes: u64,
    /// Lossless (RDMA) packets dropped — should stay zero.
    pub lossless_packets: u64,
    /// Lossless bytes dropped — should stay zero.
    pub lossless_bytes: u64,
    /// Packets preemptively evicted by the buffer policy (a subset of
    /// `lossy_packets`: every eviction is also recorded as a lossy drop).
    pub evicted_packets: u64,
    /// Bytes preemptively evicted (subset of `lossy_bytes`).
    pub evicted_bytes: u64,
    /// Lossy-RDMA (IRN) packets dropped — a subset of `lossy_packets`,
    /// split out so the resilience grid can attribute drops to the
    /// retransmitting transport rather than to TCP.
    pub lossy_rdma_packets: u64,
    /// Lossy-RDMA bytes dropped (subset of `lossy_bytes`).
    pub lossy_rdma_bytes: u64,
}

impl DropCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        DropCounters::default()
    }

    /// Records a lossy drop.
    pub fn record_lossy(&mut self, size: Bytes) {
        self.lossy_packets += 1;
        self.lossy_bytes += size.as_u64();
    }

    /// Records a lossless drop (headroom exhausted — a config failure).
    pub fn record_lossless(&mut self, size: Bytes) {
        self.lossless_packets += 1;
        self.lossless_bytes += size.as_u64();
    }

    /// Refines a drop already recorded as lossy as a preemptive
    /// eviction. The eviction counters are a refinement, not a parallel
    /// total, which keeps `lossy + lossless == trace drops()`
    /// reconciliation exact.
    pub fn record_evicted(&mut self, size: Bytes) {
        self.evicted_packets += 1;
        self.evicted_bytes += size.as_u64();
    }

    /// Records a lossy-RDMA (IRN) drop. The packet also counts as a
    /// lossy drop: the lossy-RDMA counters are a refinement of the lossy
    /// totals, so `lossy + lossless == trace drops()` stays exact.
    pub fn record_lossy_rdma(&mut self, size: Bytes) {
        self.record_lossy(size);
        self.lossy_rdma_packets += 1;
        self.lossy_rdma_bytes += size.as_u64();
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &DropCounters) {
        self.lossy_packets += other.lossy_packets;
        self.lossy_bytes += other.lossy_bytes;
        self.lossless_packets += other.lossless_packets;
        self.lossless_bytes += other.lossless_bytes;
        self.evicted_packets += other.evicted_packets;
        self.evicted_bytes += other.evicted_bytes;
        self.lossy_rdma_packets += other.lossy_rdma_packets;
        self.lossy_rdma_bytes += other.lossy_rdma_bytes;
    }

    /// The counters accumulated since the `earlier` snapshot (which must
    /// be a prefix of this set — counters only grow).
    pub fn since(&self, earlier: &DropCounters) -> DropCounters {
        let mut d = *self;
        d.subtract(earlier);
        d
    }

    /// Removes a previously accumulated `delta` (see
    /// [`PfcCounters::subtract`]).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `delta` exceeds the accumulated totals.
    pub fn subtract(&mut self, delta: &DropCounters) {
        debug_assert!(
            self.lossy_packets >= delta.lossy_packets
                && self.lossless_packets >= delta.lossless_packets,
            "subtracting a delta that was never accumulated"
        );
        self.lossy_packets -= delta.lossy_packets;
        self.lossy_bytes -= delta.lossy_bytes;
        self.lossless_packets -= delta.lossless_packets;
        self.lossless_bytes -= delta.lossless_bytes;
        self.evicted_packets -= delta.evicted_packets;
        self.evicted_bytes -= delta.evicted_bytes;
        self.lossy_rdma_packets -= delta.lossy_rdma_packets;
        self.lossy_rdma_bytes -= delta.lossy_rdma_bytes;
    }
}

/// Per-run IRN (lossy RDMA) transport counters: NACK generation split by
/// origin, retransmission volume and RTO fires. All zero when no flow
/// runs the IRN transport, which keeps legacy digests unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrnCounters {
    /// Flows that ran the IRN transport.
    pub flows: u64,
    /// NACKs generated by switches observing out-of-order transits.
    pub nacks_switch: u64,
    /// NACKs generated by receivers.
    pub nacks_receiver: u64,
    /// Data packets retransmitted (NACK- or RTO-triggered).
    pub retransmitted_packets: u64,
    /// Flow bytes retransmitted.
    pub retransmitted_bytes: u64,
    /// Retransmission timeouts that fired on IRN flows.
    pub rto_fires: u64,
}

impl IrnCounters {
    /// Zeroed counters.
    pub fn new() -> Self {
        IrnCounters::default()
    }

    /// Total NACKs from both origins.
    pub fn nacks(&self) -> u64 {
        self.nacks_switch + self.nacks_receiver
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &IrnCounters) {
        self.flows += other.flows;
        self.nacks_switch += other.nacks_switch;
        self.nacks_receiver += other.nacks_receiver;
        self.retransmitted_packets += other.retransmitted_packets;
        self.retransmitted_bytes += other.retransmitted_bytes;
        self.rto_fires += other.rto_fires;
    }

    /// The counters accumulated since the `earlier` snapshot. Leaves
    /// `flows` untouched: flow registrations are configuration, not
    /// run-time accumulation, so deltas never carry them.
    pub fn since(&self, earlier: &IrnCounters) -> IrnCounters {
        let mut d = *self;
        d.subtract(earlier);
        d.flows = 0;
        d
    }

    /// Removes a previously accumulated `delta` from the run-time
    /// counters (`flows` is never subtracted; see [`IrnCounters::since`]).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `delta` exceeds the accumulated totals.
    pub fn subtract(&mut self, delta: &IrnCounters) {
        debug_assert!(
            self.nacks_switch >= delta.nacks_switch
                && self.nacks_receiver >= delta.nacks_receiver
                && self.retransmitted_packets >= delta.retransmitted_packets
                && self.rto_fires >= delta.rto_fires,
            "subtracting a delta that was never accumulated"
        );
        self.nacks_switch -= delta.nacks_switch;
        self.nacks_receiver -= delta.nacks_receiver;
        self.retransmitted_packets -= delta.retransmitted_packets;
        self.retransmitted_bytes -= delta.retransmitted_bytes;
        self.rto_fires -= delta.rto_fires;
    }
}

/// A periodically-sampled buffer-occupancy trace for one switch.
///
/// The paper samples total occupancy every 1 ms (Fig. 8) and reports
/// CDFs over the trace.
#[derive(Debug, Clone, Default)]
pub struct OccupancySeries {
    samples: Vec<(SimTime, Bytes)>,
}

impl OccupancySeries {
    /// An empty series.
    pub fn new() -> Self {
        OccupancySeries::default()
    }

    /// Appends a sample. Samples must be pushed in time order.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` precedes the last sample.
    pub fn push(&mut self, at: SimTime, occupancy: Bytes) {
        debug_assert!(
            self.samples.last().is_none_or(|&(t, _)| at >= t),
            "occupancy samples out of order"
        );
        self.samples.push((at, occupancy));
    }

    /// The raw samples.
    pub fn samples(&self) -> &[(SimTime, Bytes)] {
        &self.samples
    }

    /// Drops the newest `n` samples. The sharded executor uses this to
    /// revert samples recorded past a run's completing event; `n` larger
    /// than the series clears it.
    pub fn drop_last(&mut self, n: usize) {
        let keep = self.samples.len().saturating_sub(n);
        self.samples.truncate(keep);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Peak occupancy over the trace.
    pub fn peak(&self) -> Bytes {
        self.samples
            .iter()
            .map(|&(_, b)| b)
            .max()
            .unwrap_or(Bytes::ZERO)
    }

    /// Mean occupancy in bytes over the trace (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&(_, b)| b.as_f64()).sum::<f64>() / self.samples.len() as f64
    }

    /// CDF over sampled occupancy in bytes — the series of Figs. 8, 10(c).
    pub fn cdf(&self) -> Cdf {
        self.samples.iter().map(|&(_, b)| b.as_f64()).collect()
    }

    /// The `p`-quantile of occupancy in bytes, or `None` if empty.
    pub fn quantile(&self, p: f64) -> Option<f64> {
        let mut cdf = self.cdf();
        cdf.quantile(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pfc_counting() {
        let mut c = PfcCounters::new();
        c.record_pause(Priority::new(3));
        c.record_pause(Priority::new(3));
        c.record_pause(Priority::new(1));
        c.record_resume(Priority::new(3));
        assert_eq!(c.pause_frames(), 3);
        assert_eq!(c.resume_frames(), 1);
        assert_eq!(c.pause_frames_for(Priority::new(3)), 2);
        assert_eq!(c.pause_frames_for(Priority::new(0)), 0);
    }

    #[test]
    fn pfc_merge() {
        let mut a = PfcCounters::new();
        a.record_pause(Priority::new(1));
        let mut b = PfcCounters::new();
        b.record_pause(Priority::new(1));
        b.record_resume(Priority::new(1));
        a.merge(&b);
        assert_eq!(a.pause_frames(), 2);
        assert_eq!(a.resume_frames(), 1);
    }

    #[test]
    fn drop_counting_and_merge() {
        let mut d = DropCounters::new();
        d.record_lossy(Bytes::new(1_000));
        d.record_lossy(Bytes::new(500));
        d.record_lossless(Bytes::new(100));
        assert_eq!(d.lossy_packets, 2);
        assert_eq!(d.lossy_bytes, 1_500);
        assert_eq!(d.lossless_packets, 1);
        let mut e = DropCounters::new();
        e.merge(&d);
        assert_eq!(e.lossy_bytes, 1_500);
    }

    #[test]
    fn eviction_refines_lossy_total() {
        let mut d = DropCounters::new();
        d.record_lossy(Bytes::new(1_000));
        d.record_evicted(Bytes::new(1_000));
        assert_eq!(d.evicted_packets, 1);
        assert_eq!(d.evicted_bytes, 1_000);
        assert_eq!(d.lossy_packets, 1, "eviction refines, not adds to, lossy");
        assert_eq!(d.lossy_bytes, 1_000);
        let mut e = DropCounters::new();
        e.merge(&d);
        assert_eq!(e.evicted_packets, 1);
        assert_eq!(e.lossy_packets, 1);
    }

    #[test]
    fn lossy_rdma_refines_lossy_total() {
        let mut d = DropCounters::new();
        d.record_lossy_rdma(Bytes::new(1_048));
        assert_eq!(d.lossy_rdma_packets, 1);
        assert_eq!(d.lossy_rdma_bytes, 1_048);
        assert_eq!(d.lossy_packets, 1, "lossy-RDMA drop is also a lossy drop");
        let mut e = DropCounters::new();
        e.merge(&d);
        assert_eq!(e.lossy_rdma_packets, 1);
        assert_eq!(e.lossy_packets, 1);
    }

    #[test]
    fn irn_counters_merge_and_total() {
        let mut a = IrnCounters::new();
        a.flows = 2;
        a.nacks_switch = 3;
        a.nacks_receiver = 1;
        a.retransmitted_packets = 4;
        a.retransmitted_bytes = 4_000;
        a.rto_fires = 1;
        let mut b = IrnCounters::new();
        b.nacks_receiver = 2;
        b.merge(&a);
        assert_eq!(b.flows, 2);
        assert_eq!(b.nacks(), 6);
        assert_eq!(b.retransmitted_bytes, 4_000);
        assert_eq!(b.rto_fires, 1);
    }

    #[test]
    fn occupancy_series_stats() {
        let mut s = OccupancySeries::new();
        s.push(SimTime::from_millis(1), Bytes::new(100));
        s.push(SimTime::from_millis(2), Bytes::new(300));
        s.push(SimTime::from_millis(3), Bytes::new(200));
        assert_eq!(s.peak(), Bytes::new(300));
        assert!((s.mean() - 200.0).abs() < 1e-9);
        assert_eq!(s.quantile(0.5), Some(200.0));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_series() {
        let s = OccupancySeries::new();
        assert_eq!(s.peak(), Bytes::ZERO);
        assert_eq!(s.mean(), 0.0);
        assert!(s.quantile(0.5).is_none());
    }

    #[test]
    fn pfc_since_and_subtract_roundtrip() {
        let mut base = PfcCounters::new();
        base.record_pause(Priority::new(3));
        let snap = base.clone();
        base.record_pause(Priority::new(1));
        base.record_resume(Priority::new(3));
        base.record_watchdog();
        let delta = base.since(&snap);
        assert_eq!(delta.pause_frames(), 1);
        assert_eq!(delta.pause_frames_for(Priority::new(1)), 1);
        assert_eq!(delta.resume_frames(), 1);
        assert_eq!(delta.watchdog_fires(), 1);
        base.subtract(&delta);
        assert_eq!(base, snap, "subtract reverts since");
    }

    #[test]
    fn drop_since_and_subtract_roundtrip() {
        let mut base = DropCounters::new();
        base.record_lossy(Bytes::new(1_000));
        let snap = base;
        base.record_lossless(Bytes::new(500));
        base.record_lossy(Bytes::new(200));
        base.record_evicted(Bytes::new(200));
        let delta = base.since(&snap);
        assert_eq!(delta.lossless_packets, 1);
        assert_eq!(delta.evicted_packets, 1);
        assert_eq!(delta.lossy_packets, 1, "eviction refines lossy");
        assert_eq!(delta.lossy_bytes, 200);
        base.subtract(&delta);
        assert_eq!(base, snap);
    }

    #[test]
    fn irn_since_skips_flow_registrations() {
        let mut base = IrnCounters::new();
        base.flows = 7;
        base.nacks_switch = 2;
        let snap = base;
        base.nacks_switch += 1;
        base.retransmitted_packets += 2;
        base.retransmitted_bytes += 2_000;
        let delta = base.since(&snap);
        assert_eq!(delta.flows, 0, "flows are configuration, not a delta");
        assert_eq!(delta.nacks_switch, 1);
        assert_eq!(delta.retransmitted_packets, 2);
        base.subtract(&delta);
        assert_eq!(base, snap);
        assert_eq!(base.flows, 7);
    }

    #[test]
    fn occupancy_drop_last() {
        let mut s = OccupancySeries::new();
        s.push(SimTime::from_millis(1), Bytes::new(100));
        s.push(SimTime::from_millis(2), Bytes::new(300));
        s.push(SimTime::from_millis(3), Bytes::new(200));
        s.drop_last(2);
        assert_eq!(s.samples(), &[(SimTime::from_millis(1), Bytes::new(100))]);
        s.drop_last(5);
        assert!(s.is_empty());
    }
}
