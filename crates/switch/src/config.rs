//! Switch and ECN configuration.

use dcn_sim::{Bytes, SimDuration};

/// RED-style ECN marking parameters for one traffic class.
///
/// Marking probability is 0 below `kmin`, rises linearly to `pmax` at
/// `kmax`, and is 1 above `kmax` — the scheme DCQCN's congestion point
/// uses. Setting `kmin == kmax` gives DCTCP's step marking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EcnConfig {
    /// Queue length where marking starts.
    pub kmin: Bytes,
    /// Queue length where marking probability reaches `pmax`.
    pub kmax: Bytes,
    /// Marking probability at `kmax`.
    pub pmax: f64,
}

impl EcnConfig {
    /// DCTCP-style step marking at `k`.
    pub fn step(k: Bytes) -> Self {
        EcnConfig {
            kmin: k,
            kmax: k,
            pmax: 1.0,
        }
    }

    /// Marking probability for an instantaneous queue of `q` bytes.
    pub fn mark_probability(&self, q: Bytes) -> f64 {
        if q <= self.kmin {
            0.0
        } else if q >= self.kmax {
            if q == self.kmax && self.kmin == self.kmax {
                // step scheme: anything above k marks; exactly k does not.
                0.0
            } else {
                1.0
            }
        } else {
            self.pmax * (q.as_f64() - self.kmin.as_f64())
                / (self.kmax.as_f64() - self.kmin.as_f64())
        }
    }
}

/// Static configuration of a [`crate::SharedMemorySwitch`].
///
/// Defaults follow the paper's setup (§IV): 4 MB shared buffer, PFC with
/// XON at half the pause threshold, DCQCN-style ECN on the lossless class
/// and DCTCP step marking on the lossy class.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchConfig {
    /// Total shared buffer (the `B` of the threshold formulas). Paper: 4 MB.
    pub total_buffer: Bytes,
    /// Per-ingress-queue headroom for in-flight lossless bytes after a
    /// pause frame is sent. Sized ≳ 2·BDP + 2·MTU of the attached link.
    pub headroom_per_queue: Bytes,
    /// A queue that sent XOFF sends XON once its shared occupancy falls
    /// to this fraction of the current pause threshold.
    pub xon_fraction: f64,
    /// Dynamic-threshold α for *egress* lossy queues (drops above).
    pub egress_alpha_lossy: f64,
    /// ECN marking for the lossless (RDMA/DCQCN) class.
    pub ecn_lossless: EcnConfig,
    /// ECN marking for the lossy (TCP/DCTCP) class.
    pub ecn_lossy: EcnConfig,
    /// MTU used for congestion heuristics (e.g. ABM's congested-queue
    /// detection), not a hard limit on packet size.
    pub mtu: Bytes,
    /// PFC storm watchdog: if an egress queue stays paused longer than
    /// this, it is force-resumed and a `PfcWatchdogFired` trace event is
    /// recorded — mirroring real ASIC pause watchdogs. `None` (the
    /// default) disables the watchdog and schedules no extra events, so
    /// healthy-fabric runs are bit-identical with or without it.
    pub pfc_watchdog: Option<SimDuration>,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            total_buffer: Bytes::from_mb(4),
            headroom_per_queue: Bytes::from_kb(25),
            xon_fraction: 0.5,
            egress_alpha_lossy: 0.5,
            // DCQCN defaults scaled for 25–100G links.
            ecn_lossless: EcnConfig {
                kmin: Bytes::from_kb(100),
                kmax: Bytes::from_kb(400),
                pmax: 0.2,
            },
            // DCTCP step marking around 85 KB (≈ 65 packets × 1.3 KB).
            ecn_lossy: EcnConfig::step(Bytes::from_kb(85)),
            mtu: Bytes::new(1_048),
            pfc_watchdog: None,
        }
    }
}

impl SwitchConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message if a fraction is out of `[0, 1]`, a probability
    /// is invalid, or `kmin > kmax`.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.xon_fraction) {
            return Err(format!("xon_fraction {} out of [0,1]", self.xon_fraction));
        }
        if self.egress_alpha_lossy <= 0.0 {
            return Err("egress_alpha_lossy must be positive".into());
        }
        for (name, e) in [("lossless", &self.ecn_lossless), ("lossy", &self.ecn_lossy)] {
            if e.kmin > e.kmax {
                return Err(format!("ecn_{name}: kmin > kmax"));
            }
            if !(0.0..=1.0).contains(&e.pmax) {
                return Err(format!("ecn_{name}: pmax {} out of [0,1]", e.pmax));
            }
        }
        if self.total_buffer == Bytes::ZERO {
            return Err("total_buffer must be non-zero".into());
        }
        if self.pfc_watchdog == Some(SimDuration::ZERO) {
            return Err("pfc_watchdog threshold must be non-zero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert!(SwitchConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        let c = SwitchConfig {
            xon_fraction: 1.5,
            ..SwitchConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SwitchConfig {
            ecn_lossy: EcnConfig {
                kmin: Bytes::from_kb(10),
                kmax: Bytes::from_kb(5),
                pmax: 0.5,
            },
            ..SwitchConfig::default()
        };
        assert!(c.validate().is_err());

        let c = SwitchConfig {
            total_buffer: Bytes::ZERO,
            ..SwitchConfig::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn red_ramp() {
        let e = EcnConfig {
            kmin: Bytes::from_kb(100),
            kmax: Bytes::from_kb(400),
            pmax: 0.2,
        };
        assert_eq!(e.mark_probability(Bytes::from_kb(50)), 0.0);
        assert_eq!(e.mark_probability(Bytes::from_kb(100)), 0.0);
        let mid = e.mark_probability(Bytes::from_kb(250));
        assert!((mid - 0.1).abs() < 1e-9);
        assert_eq!(e.mark_probability(Bytes::from_kb(400)), 1.0);
        assert_eq!(e.mark_probability(Bytes::from_kb(900)), 1.0);
    }

    #[test]
    fn step_marking() {
        let e = EcnConfig::step(Bytes::from_kb(85));
        assert_eq!(e.mark_probability(Bytes::from_kb(85)), 0.0);
        assert_eq!(e.mark_probability(Bytes::new(85_001)), 1.0);
    }
}
