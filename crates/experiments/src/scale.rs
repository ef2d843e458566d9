//! Experiment scaling knobs.

use dcn_net::ClosConfig;
use dcn_sim::{Bytes, SimDuration};
use dcn_switch::SwitchConfig;

/// How big an experiment to run. The paper's full setup (128 servers,
/// hundreds of milliseconds) takes minutes of wall time per data point;
/// the `small` scale preserves the topology shape and oversubscription
/// while finishing in seconds, and is what the benches and tests use.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// The clos fabric to build.
    pub clos: ClosConfig,
    /// Traffic-generation window (flows arrive in `[0, window)`).
    pub window: SimDuration,
    /// Extra simulated time allowed for stragglers after the window.
    pub drain: SimDuration,
    /// Base RNG seed (workloads fork per-experiment streams from it).
    pub seed: u64,
}

impl ExperimentScale {
    /// The paper's full setup: 128 servers, 20 ms of traffic (the paper
    /// simulates longer; 20 ms already carries thousands of flows).
    pub fn paper() -> Self {
        ExperimentScale {
            clos: ClosConfig::paper(),
            window: SimDuration::from_millis(20),
            drain: SimDuration::from_millis(400),
            seed: 42,
        }
    }

    /// A scaled-down fabric (2 ToRs × 8 servers) and 5 ms window —
    /// seconds per data point, same qualitative behaviour.
    pub fn small() -> Self {
        ExperimentScale {
            clos: ClosConfig::small(8),
            window: SimDuration::from_millis(5),
            drain: SimDuration::from_millis(200),
            seed: 42,
        }
    }

    /// A minimal scale for unit/integration tests (2 ToRs × 4 servers,
    /// 2 ms window).
    pub fn tiny() -> Self {
        ExperimentScale {
            clos: ClosConfig::small(4),
            window: SimDuration::from_millis(2),
            drain: SimDuration::from_millis(100),
            seed: 42,
        }
    }

    /// Switch configuration for this experiment's size. Only the buffer
    /// scales with the host count: the ECN knee points are
    /// bandwidth-delay products, which do not shrink with the fabric, so
    /// the per-flow buffer *footprint* stays paper-realistic and the
    /// footprint-to-buffer pressure ratio is preserved.
    pub fn switch_config(&self) -> SwitchConfig {
        SwitchConfig {
            total_buffer: self.total_buffer(),
            ..SwitchConfig::default()
        }
    }

    /// Shared buffer per switch. The paper uses 4 MB for 128 hosts;
    /// scaled-down fabrics shrink it proportionally (small 500 KB, tiny
    /// 250 KB) so buffer *pressure* (and therefore PFC/drop behaviour)
    /// is preserved.
    pub fn total_buffer(&self) -> Bytes {
        Bytes::from_mb(4) * self.host_count() as u64 / 128
    }

    /// Hosts in the fabric.
    pub fn host_count(&self) -> usize {
        self.clos.host_count()
    }

    /// Replaces the window length.
    pub fn with_window(mut self, window: SimDuration) -> Self {
        self.window = window;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_have_expected_sizes() {
        assert_eq!(ExperimentScale::paper().host_count(), 128);
        assert_eq!(ExperimentScale::small().host_count(), 16);
        assert_eq!(ExperimentScale::tiny().host_count(), 8);
        assert_eq!(ExperimentScale::paper().total_buffer(), Bytes::from_mb(4));
        assert_eq!(ExperimentScale::small().total_buffer(), Bytes::from_kb(500));
        assert_eq!(ExperimentScale::tiny().total_buffer(), Bytes::from_kb(250));
    }

    #[test]
    fn builder_helpers() {
        let s = ExperimentScale::small()
            .with_window(SimDuration::from_millis(1))
            .with_seed(7);
        assert_eq!(s.window, SimDuration::from_millis(1));
        assert_eq!(s.seed, 7);
    }
}
