//! BShare: queueing-delay-driven buffer sharing.
//!
//! BShare allocates the shared pool by *delay target* rather than by
//! occupancy: a queue whose packets clear within the configured target
//! delay keeps the full burst-absorption threshold, while a queue whose
//! average sojourn time exceeds the target is squeezed in proportion to
//! its *share* of the switch-wide aggregate delay. The threshold is
//!
//! ```text
//! T(q) = w(q) · (B − Q(t))
//! w(q) = w_max                                  if τ(q) ≤ d_target
//! w(q) = max(w_min, α · (1 − τ(q)/C))           otherwise
//! ```
//!
//! where `τ(q)` is the queue's average sojourn time and `C = Σ τ` the
//! aggregate over all active queues — both read from the *same*
//! [`SojournModule`] the L2BM policy maintains. BShare is deliberately a
//! second consumer of that machinery: the module already provides O(1)
//! virtually-decayed per-queue `τ` and an O(1)-amortized incremental
//! `Σ τ`, so the delay signal costs nothing extra on the admission path.
//!
//! The two policies read the signal differently: L2BM scales a queue's
//! weight by its *relative* drain speed (`C/τ`, unbounded upward and
//! capped), while BShare enforces an *absolute* delay target — a queue
//! meeting the target is never penalized no matter how slow its peers
//! are, and the sole delay violator on a switch is squeezed to the floor
//! weight (`τ/C → 1`), which plain relative scaling cannot express.
//!
//! This is an adaptation of the BShare idea (PAPERS.md) onto this
//! repository's ingress-pool PFC-threshold interface, sharing the
//! estimator rather than reimplementing the original system.

use dcn_sim::{Bytes, SimTime};
use dcn_switch::{BufferPolicy, MmuState, QueueIndex};

use crate::sojourn::SojournModule;

/// Tunables of the BShare policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BShareConfig {
    /// Base control factor applied to delay violators before the
    /// delay-share scaling.
    pub alpha: f64,
    /// The absolute queueing-delay target, in seconds. Queues at or
    /// under it get `max_weight`.
    pub delay_target: f64,
    /// Weight floor for a queue that dominates the aggregate delay, so
    /// even the worst hog keeps a trickle of admission.
    pub min_weight: f64,
    /// Weight for queues meeting the delay target. 1.0 means "at most
    /// the whole remaining buffer".
    pub max_weight: f64,
    /// Whether time spent behind a PFC-paused egress queue is excluded
    /// from the sojourn estimate (same rule as L2BM §III-D).
    pub pause_freeze: bool,
}

impl Default for BShareConfig {
    fn default() -> Self {
        BShareConfig {
            alpha: 0.5,
            delay_target: 50e-6,
            min_weight: 1.0 / 64.0,
            max_weight: 1.0,
            pause_freeze: true,
        }
    }
}

impl BShareConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message if any factor is not positive and finite, or
    /// the weight bounds are inverted.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("alpha", self.alpha),
            ("delay_target", self.delay_target),
            ("min_weight", self.min_weight),
            ("max_weight", self.max_weight),
        ] {
            if !(v > 0.0 && v.is_finite()) {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.min_weight > self.max_weight {
            return Err(format!(
                "min_weight {} exceeds max_weight {}",
                self.min_weight, self.max_weight
            ));
        }
        Ok(())
    }
}

/// The BShare buffer-management policy (see the module docs).
#[derive(Debug)]
pub struct BSharePolicy {
    cfg: BShareConfig,
    sojourn: SojournModule,
}

impl BSharePolicy {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: BShareConfig) -> Self {
        cfg.validate().expect("invalid BShare config");
        BSharePolicy {
            cfg,
            sojourn: SojournModule::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &BShareConfig {
        &self.cfg
    }

    /// Read access to the sojourn module (for introspection/tests).
    pub fn sojourn(&self) -> &SojournModule {
        &self.sojourn
    }

    /// The weight formula, shared by the admission path and the naive
    /// reference so a differential test exercises only the τ/C inputs.
    fn weight_from(&self, tau: f64, c: f64) -> f64 {
        if tau <= self.cfg.delay_target {
            return self.cfg.max_weight;
        }
        // The queue's share of the aggregate delay: 1 when it *is* the
        // aggregate (sole violator), small when its peers dominate.
        let share = if c <= tau { 1.0 } else { tau / c };
        (self.cfg.alpha * (1.0 - share)).max(self.cfg.min_weight)
    }

    /// The delay-driven control weight `w(q)` at `now`.
    pub fn weight(&self, q: QueueIndex, now: SimTime) -> f64 {
        let tau = self.sojourn.tau(q, now);
        self.weight_from(tau, self.sojourn.sum_active_tau(now))
    }

    /// Reference recomputation of [`BSharePolicy::weight`] using the
    /// sojourn module's full-scan aggregate instead of the incremental
    /// one. Kept for differential testing — not for the admission path.
    pub fn weight_naive(&self, q: QueueIndex, now: SimTime) -> f64 {
        let tau = self.sojourn.tau(q, now);
        self.weight_from(tau, self.sojourn.sum_active_tau_naive(now))
    }
}

impl Default for BSharePolicy {
    fn default() -> Self {
        BSharePolicy::new(BShareConfig::default())
    }
}

impl BufferPolicy for BSharePolicy {
    fn name(&self) -> &str {
        "BShare"
    }

    fn pfc_threshold(&self, mmu: &MmuState, q: QueueIndex, now: SimTime) -> Bytes {
        mmu.shared_remaining().scale(self.weight(q, now))
    }

    fn on_enqueue(
        &mut self,
        mmu: &MmuState,
        now: SimTime,
        q_in: QueueIndex,
        q_out: QueueIndex,
        _size: Bytes,
    ) {
        self.sojourn.on_enqueue(mmu, now, q_in, q_out);
    }

    fn on_dequeue(
        &mut self,
        _mmu: &MmuState,
        now: SimTime,
        q_in: QueueIndex,
        q_out: QueueIndex,
        _size: Bytes,
    ) {
        self.sojourn.on_dequeue(now, q_in, q_out);
    }

    fn on_egress_pause_changed(
        &mut self,
        _mmu: &MmuState,
        now: SimTime,
        q_out: QueueIndex,
        paused: bool,
    ) {
        if self.cfg.pause_freeze {
            self.sojourn.on_pause_changed(now, q_out, paused);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_net::{PortId, Priority};
    use dcn_sim::BitRate;
    use dcn_switch::{Pool, SwitchConfig};

    fn mmu() -> MmuState {
        MmuState::new(&SwitchConfig::default(), vec![BitRate::from_gbps(25); 4])
    }

    fn q(port: u16, prio: u8) -> QueueIndex {
        QueueIndex::new(PortId::new(port), Priority::new(prio))
    }

    fn enqueue(
        m: &mut MmuState,
        p: &mut BSharePolicy,
        now: SimTime,
        qi: QueueIndex,
        qo: QueueIndex,
        bytes: u64,
    ) {
        m.charge_bulk(qi, qo, Bytes::new(bytes), Pool::Shared);
        p.on_enqueue(m, now, qi, qo, Bytes::new(bytes));
    }

    #[test]
    fn default_config_is_valid() {
        assert!(BShareConfig::default().validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_values() {
        let bad = BShareConfig {
            delay_target: 0.0,
            ..BShareConfig::default()
        };
        assert!(bad.validate().is_err());
        let inverted = BShareConfig {
            min_weight: 0.9,
            max_weight: 0.5,
            ..BShareConfig::default()
        };
        assert!(inverted.validate().is_err());
    }

    #[test]
    fn queue_under_target_gets_full_weight() {
        let p = BSharePolicy::default();
        let m = mmu();
        // Idle queue: τ = 0 ≤ target -> the whole remaining pool.
        assert_eq!(
            p.pfc_threshold(&m, q(0, 3), SimTime::ZERO),
            m.shared_remaining()
        );
    }

    #[test]
    fn sole_violator_is_squeezed_to_floor() {
        let mut p = BSharePolicy::default();
        let mut m = mmu();
        // 1 MB behind a 25 Gbps port: τ ≈ 320 µs >> 50 µs target, and
        // this queue is the whole aggregate.
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 1_000_000);
        let w = p.weight(q(0, 3), SimTime::ZERO);
        assert!(
            (w - BShareConfig::default().min_weight).abs() < 1e-12,
            "sole violator floors: {w}"
        );
    }

    #[test]
    fn violator_among_busy_peers_keeps_more() {
        let mut p = BSharePolicy::default();
        let mut m = mmu();
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 1_000_000);
        // A peer with an even larger backlog on a different egress port.
        enqueue(&mut m, &mut p, SimTime::ZERO, q(2, 3), q(3, 3), 2_000_000);
        let w = p.weight(q(0, 3), SimTime::ZERO);
        assert!(
            w > BShareConfig::default().min_weight + 1e-9,
            "peer delay dilutes the share: {w}"
        );
        assert!(w < BShareConfig::default().max_weight);
    }

    #[test]
    fn weight_matches_naive_reference() {
        let mut p = BSharePolicy::default();
        let mut m = mmu();
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 500_000);
        enqueue(
            &mut m,
            &mut p,
            SimTime::from_micros(3),
            q(2, 3),
            q(3, 3),
            125_000,
        );
        for us in [3u64, 10, 42, 200, 1_000] {
            let t = SimTime::from_micros(us);
            let a = p.weight(q(0, 3), t);
            let b = p.weight_naive(q(0, 3), t);
            assert!((a - b).abs() <= 1e-9, "at {us}µs: {a} vs {b}");
        }
    }
}
