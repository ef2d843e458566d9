//! Flow completion times and slowdown.

use dcn_net::{FlowId, TrafficClass};
use dcn_sim::{Bytes, SimDuration, SimTime};

use crate::stats::{percentile, Cdf};

/// One completed flow's timing record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FctRecord {
    /// The flow.
    pub flow: FlowId,
    /// Lossless (RDMA) or lossy (TCP).
    pub class: TrafficClass,
    /// Flow size in payload bytes.
    pub size: Bytes,
    /// When the sender started.
    pub start: SimTime,
    /// When the last payload byte reached the receiver.
    pub finish: SimTime,
    /// FCT the flow would have on an empty network (propagation +
    /// store-and-forward + serialization at the bottleneck).
    pub ideal: SimDuration,
}

impl FctRecord {
    /// Actual flow completion time.
    pub fn fct(&self) -> SimDuration {
        self.finish.saturating_since(self.start)
    }

    /// Normalized FCT: actual ÷ ideal (the paper's "FCT slowdown").
    /// Clamped below at 1.0 — a flow cannot beat the empty network; tiny
    /// negative error can appear from integer rounding of the ideal.
    pub fn slowdown(&self) -> f64 {
        let ideal = self.ideal.as_secs_f64();
        if ideal <= 0.0 {
            return 1.0;
        }
        (self.fct().as_secs_f64() / ideal).max(1.0)
    }
}

/// A set of completed-flow records with the paper's derived statistics.
#[derive(Debug, Clone, Default)]
pub struct FctSet {
    records: Vec<FctRecord>,
}

impl FctSet {
    /// An empty set.
    pub fn new() -> Self {
        FctSet::default()
    }

    /// Adds a record.
    pub fn push(&mut self, r: FctRecord) {
        self.records.push(r);
    }

    /// All records.
    pub fn records(&self) -> &[FctRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records of one traffic class.
    pub fn by_class(&self, class: TrafficClass) -> impl Iterator<Item = &FctRecord> {
        self.records.iter().filter(move |r| r.class == class)
    }

    /// Slowdowns of one traffic class.
    pub fn slowdowns(&self, class: TrafficClass) -> Vec<f64> {
        self.by_class(class).map(FctRecord::slowdown).collect()
    }

    /// The `p`-percentile slowdown of a class (e.g. `0.99` for the
    /// paper's tail latency), or `None` if no such flows completed.
    pub fn slowdown_percentile(&self, class: TrafficClass, p: f64) -> Option<f64> {
        let s = self.slowdowns(class);
        percentile(&s, p)
    }

    /// CDF over raw FCTs (seconds) of a class — Fig. 9's series.
    pub fn fct_cdf(&self, class: TrafficClass) -> Cdf {
        self.by_class(class)
            .map(|r| r.fct().as_secs_f64())
            .collect()
    }

    /// Merges another set into this one.
    pub fn merge(&mut self, other: FctSet) {
        self.records.extend(other.records);
    }
}

impl FromIterator<FctRecord> for FctSet {
    fn from_iter<I: IntoIterator<Item = FctRecord>>(iter: I) -> Self {
        FctSet {
            records: iter.into_iter().collect(),
        }
    }
}

impl Extend<FctRecord> for FctSet {
    fn extend<I: IntoIterator<Item = FctRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, class: TrafficClass, fct_us: u64, ideal_us: u64) -> FctRecord {
        FctRecord {
            flow: FlowId::new(id),
            class,
            size: Bytes::new(1_000),
            start: SimTime::from_micros(10),
            finish: SimTime::from_micros(10 + fct_us),
            ideal: SimDuration::from_micros(ideal_us),
        }
    }

    #[test]
    fn slowdown_is_ratio() {
        let r = rec(1, TrafficClass::Lossy, 30, 10);
        assert!((r.slowdown() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_clamps_at_one() {
        let r = rec(1, TrafficClass::Lossy, 5, 10);
        assert_eq!(r.slowdown(), 1.0);
    }

    #[test]
    fn class_filtering() {
        let set: FctSet = vec![
            rec(1, TrafficClass::Lossless, 20, 10),
            rec(2, TrafficClass::Lossy, 40, 10),
            rec(3, TrafficClass::Lossless, 30, 10),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.by_class(TrafficClass::Lossless).count(), 2);
        assert_eq!(set.slowdowns(TrafficClass::Lossy), vec![4.0]);
    }

    #[test]
    fn percentiles_over_class() {
        let set: FctSet = (1..=100)
            .map(|i| rec(i, TrafficClass::Lossless, 10 * i, 10))
            .collect();
        let p99 = set
            .slowdown_percentile(TrafficClass::Lossless, 0.99)
            .unwrap();
        assert!((p99 - 99.01).abs() < 1e-6);
        assert!(set.slowdown_percentile(TrafficClass::Lossy, 0.99).is_none());
    }

    #[test]
    fn cdfs_have_right_counts() {
        let set: FctSet = vec![
            rec(1, TrafficClass::Lossless, 20, 10),
            rec(2, TrafficClass::Lossy, 40, 10),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.fct_cdf(TrafficClass::Lossless).len(), 1);
        assert_eq!(set.fct_cdf(TrafficClass::Lossy).len(), 1);
    }

    #[test]
    fn merge_concatenates() {
        let mut a: FctSet = vec![rec(1, TrafficClass::Lossy, 20, 10)]
            .into_iter()
            .collect();
        let b: FctSet = vec![rec(2, TrafficClass::Lossy, 30, 10)]
            .into_iter()
            .collect();
        a.merge(b);
        assert_eq!(a.len(), 2);
    }
}
