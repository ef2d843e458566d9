//! The L2BM buffer-management policy (paper §III-C).

use dcn_sim::{Bytes, SimTime};
use dcn_switch::{BufferPolicy, MmuState, QueueIndex};

use crate::config::{L2bmConfig, Normalization};
use crate::sojourn::SojournModule;

/// L2BM: Dynamic Threshold with a congestion-perception factor.
///
/// The PFC threshold of ingress queue `q` is
/// `T(q) = w(q) · (B − Q(t))` with `w(q) = min(α · C / τ(q), w_max)`
/// (paper Eqs. 3–4). `τ(q)` comes from the [`SojournModule`]; an idle or
/// instantly-draining queue (`τ = 0`) gets the capped weight `w_max`,
/// letting it absorb bursts with the whole remaining buffer, while a
/// queue whose packets linger behind congested output ports is squeezed
/// below the plain-DT allotment.
#[derive(Debug)]
pub struct L2bmPolicy {
    cfg: L2bmConfig,
    sojourn: SojournModule,
}

impl L2bmPolicy {
    /// Creates the policy.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(cfg: L2bmConfig) -> Self {
        cfg.validate().expect("invalid L2BM config");
        L2bmPolicy {
            cfg,
            sojourn: SojournModule::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &L2bmConfig {
        &self.cfg
    }

    /// Read access to the sojourn module (for introspection/tests).
    pub fn sojourn(&self) -> &SojournModule {
        &self.sojourn
    }

    /// The adaptive control weight `w(q) = min(α·C/τ, w_max)` (Eq. 4).
    pub fn weight(&self, q: QueueIndex, now: SimTime) -> f64 {
        let tau = self.sojourn.tau(q, now);
        let c = match self.cfg.normalization {
            Normalization::SumActiveTau => self.sojourn.sum_active_tau(now),
            Normalization::Fixed(c) => c,
        };
        if tau <= f64::EPSILON || c <= f64::EPSILON {
            return self.cfg.max_weight;
        }
        (self.cfg.alpha * c / tau).min(self.cfg.max_weight)
    }
}

impl Default for L2bmPolicy {
    fn default() -> Self {
        L2bmPolicy::new(L2bmConfig::default())
    }
}

impl BufferPolicy for L2bmPolicy {
    fn name(&self) -> &str {
        "L2BM"
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
        p: &mut L2bmPolicy,
        now: SimTime,
        qi: QueueIndex,
        qo: QueueIndex,
        bytes: u64,
    ) {
        m.charge_bulk(qi, qo, Bytes::new(bytes), Pool::Shared);
        p.on_enqueue(m, now, qi, qo, Bytes::new(bytes));
    }

    #[test]
    fn idle_queue_gets_capped_weight() {
        let p = L2bmPolicy::default();
        let m = mmu();
        // No packets anywhere: weight = w_max = 1 -> whole remaining pool.
        assert_eq!(
            p.pfc_threshold(&m, q(0, 3), SimTime::ZERO),
            m.shared_remaining()
        );
    }

    #[test]
    fn single_congested_queue_falls_back_to_alpha() {
        // With one active queue, C = τ, so w = α exactly (paper §III-D:
        // L2BM degenerates to DT when there is nothing to discriminate).
        let mut p = L2bmPolicy::default();
        let mut m = mmu();
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 125_000);
        let t = p.pfc_threshold(&m, q(0, 3), SimTime::ZERO);
        let expect = m.shared_remaining().scale(0.125);
        assert_eq!(t, expect);
    }

    #[test]
    fn slow_queue_squeezed_fast_queue_boosted() {
        let mut p = L2bmPolicy::default();
        let mut m = mmu();
        // Ingress (0,3): packet behind a 1 MB backlog at egress (1,3).
        enqueue(&mut m, &mut p, SimTime::ZERO, q(2, 3), q(1, 3), 1_000_000);
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 1_048);
        // Ingress (3,1): packet heading to an empty egress (3,1)... use
        // a distinct egress port to keep drains independent.
        enqueue(&mut m, &mut p, SimTime::ZERO, q(3, 1), q(0, 1), 1_048);
        let now = SimTime::ZERO;
        let w_slow = p.weight(q(0, 3), now);
        let w_fast = p.weight(q(3, 1), now);
        assert!(
            w_fast > 3.0 * w_slow,
            "fast {w_fast} should dwarf slow {w_slow}"
        );
        let t_slow = p.pfc_threshold(&m, q(0, 3), now);
        let t_fast = p.pfc_threshold(&m, q(3, 1), now);
        assert!(t_fast > t_slow);
    }

    #[test]
    fn weight_is_capped() {
        let cfg = L2bmConfig {
            max_weight: 0.4,
            ..L2bmConfig::default()
        };
        let mut p = L2bmPolicy::new(cfg);
        let mut m = mmu();
        // Huge backlog on one queue makes the other's C/τ explode; the
        // cap must hold.
        enqueue(&mut m, &mut p, SimTime::ZERO, q(2, 3), q(1, 3), 2_000_000);
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 1), q(3, 1), 100);
        let w = p.weight(q(0, 1), SimTime::ZERO);
        assert!(w <= 0.4 + 1e-12, "weight {w} exceeds cap");
    }

    #[test]
    fn fixed_normalization() {
        let cfg = L2bmConfig {
            normalization: Normalization::Fixed(1e-3),
            ..L2bmConfig::default()
        };
        let mut p = L2bmPolicy::new(cfg);
        let mut m = mmu();
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 125_000);
        // τ = 40 µs; w = 0.125 × 1e-3 / 4e-5 = 3.125 -> capped at 1.
        let w = p.weight(q(0, 3), SimTime::ZERO);
        assert!((w - 1.0).abs() < 1e-12, "w {w}");
    }

    #[test]
    fn threshold_shrinks_as_buffer_fills() {
        // Pin the weight at its cap so only the (B − Q) factor moves.
        let cfg = L2bmConfig {
            max_weight: 0.125,
            ..L2bmConfig::default()
        };
        let mut p = L2bmPolicy::new(cfg);
        let mut m = mmu();
        enqueue(&mut m, &mut p, SimTime::ZERO, q(0, 3), q(1, 3), 125_000);
        let t1 = p.pfc_threshold(&m, q(0, 3), SimTime::ZERO);
        enqueue(&mut m, &mut p, SimTime::ZERO, q(2, 3), q(3, 3), 2_000_000);
        let t2 = p.pfc_threshold(&m, q(0, 3), SimTime::ZERO);
        assert!(t2 < t1, "remaining buffer shrank, threshold must too");
    }
}
